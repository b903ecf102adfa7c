//! The row-wise product for matrices whose rows repeat.
//!
//! CSR "can store any sparse matrix" (the paper's Section 3), and pays
//! for it on every product: 16 bytes of `a`/`col` are streamed per stored
//! element to learn, for a grid operator, the same handful of rows over
//! and over — `poisson_3d(40, 40, 40)` holds 64,000 rows and 27 distinct
//! ones. A **template** is a row as seen from its own diagonal: the list
//! of `(column − row, value bits)` of its stored entries, *in stored
//! order*. The template form of a matrix is its distinct templates plus
//! the maximal runs of consecutive rows sharing one, and its product
//! walks rows that share a template with one input slice per template
//! entry,
//!
//! ```text
//! out[t] = ((0.0 + c₀·p₀[t]) + c₁·p₁[t]) + …      pₑ = p[start + offsetₑ ..]
//! ```
//!
//! so the compiler vectorises across the rows and the only matrix data
//! read is the template. Each row's chain is the one
//! [`CsrMatrix::matvec_rows_into`] evaluates — from `0.0`, left to right
//! in stored order, the same coefficient bits — so the two products
//! agree to the bit for every operand, NaN, infinities and signed zeros
//! included.
//!
//! A grid operator's long runs end where its grid lines do: one or two
//! boundary rows, then the same template again. The product does not
//! stop there. Long runs of one template with only short runs between
//! them are walked as one **sweep**, boundary rows included, and every
//! row of a short run is a **patch**: recomputed from `0.0` by its own
//! template once the sweep that ran over it is done. Whatever the sweep
//! left in a patched row is overwritten, never read, so each stored bit
//! is still the full chain of its row's own entries.
//!
//! A template may also **break** its row's chain: a new chain starts at
//! the entry, from `0.0`, and is added to the row's running total when it
//! ends. That is the product [`GroupedRowProduct`] runs, where the chains
//! break wherever the column's group changes, and a sweep does it as a
//! third kind of pass beside the one that starts a chain and the one that
//! resumes it from `out`.
//!
//! Rows may also repeat in their **offsets** alone, each with values of
//! its own — a band whose every coefficient was drawn. Such a matrix is
//! swept by its **patterns** (templates of offsets, no coefficients):
//! the rows of a long run of one pattern lie consecutively in the CSR
//! arrays, `K` entries each, so coefficient `e` of the run's row `t` is
//! read where it is stored, at `values[row_ptr[start] + t·K + e]`, and
//! nothing is copied. Each row's chain is still the CSR kernel's; short
//! runs take that kernel itself, and a sweep never runs over another
//! pattern's rows (the stride needs every row `K` long).
//!
//! [`RowProduct`] is the one owner of the choice between the three: it
//! holds the shared matrix, looks for the template form once (one pass
//! over the rows, given up as soon as they stop repeating), then for the
//! pattern form the same way, and multiplies with whichever form it
//! kept. The choice follows from the matrix alone; there is nothing to
//! configure. [`GroupedRowProduct`] chooses between templates and a row
//! loop from the matrix and its column groups.

use crate::csr::CsrMatrix;
use std::ops::Range;
use std::sync::Arc;

/// More distinct rows than this and the matrix is not "a few rows
/// repeated": the table scan a new run pays in `detect` stays a few
/// cache lines, and every grid operator in the workspace fits (5-/7-point
/// Poisson 9 and 27, their 27-point Galerkin coarsenings 27).
const MAX_TEMPLATES: usize = 64;

/// Runs must average at least this many rows. A one-row run costs what
/// the CSR row costs plus the run's own bookkeeping, so below two rows a
/// run the template form reads less but does not run faster.
const MIN_ROWS_PER_RUN: usize = 2;

/// How far ahead of [`MIN_ROWS_PER_RUN`] the run count may get while
/// `detect` is still walking: a structure whose rows never repeat is
/// turned away after `2 · RUN_SLACK + 1` rows, at a small fraction of one
/// product, while a grid operator's corner rows (a run each, at the start of
/// every grid line) never trip it.
const RUN_SLACK: usize = 8;

/// Runs shorter than this are patched row by row: setting up one input
/// slice per entry costs more than it saves on so few rows.
const SHORT_RUN: usize = 4;

/// Template entries accumulated per pass over a run. Eight input streams
/// and the output fit the sixteen vector registers of baseline x86-64;
/// longer templates (the 27-point levels) take several passes, each
/// resuming the chain from `out`.
const PASS_ENTRIES: usize = 8;

/// How a [`pass`]'s chain meets `out`: it starts from `0.0` and is
/// written (`START`), resumes from what `out` holds (`RESUME`), or starts
/// from `0.0` and is added to what `out` holds (`BREAK`).
const START: u8 = 0;
const RESUME: u8 = 1;
const BREAK: u8 = 2;

/// Rows `previous.end..end` all read as `template`.
#[derive(Debug, Clone, Copy)]
struct Run {
    end: usize,
    template: usize,
}

/// Rows `start..end` multiplied as `template`; both ends are rows of it.
/// `patches` is one past the last patch to apply once the sweep is done
/// (a pattern form has none: its short runs take the CSR kernel).
#[derive(Debug, Clone, Copy)]
struct Sweep {
    start: usize,
    end: usize,
    template: usize,
    patches: usize,
}

/// A row of a short run, multiplied on its own as `template`.
#[derive(Debug, Clone, Copy)]
struct Patch {
    row: usize,
    template: usize,
}

/// A CSR matrix rewritten as distinct row templates and runs of rows —
/// see the [module documentation](self).
#[derive(Debug, Clone)]
struct RowTemplates {
    n_rows: usize,
    n_cols: usize,
    /// Template `t` is entries `ptr[t]..ptr[t + 1]` of
    /// `offsets`/`coefs`/`breaks`.
    ptr: Vec<usize>,
    /// `column − row` of each entry, as a wrapping difference: the column
    /// is `row.wrapping_add(offset)`.
    offsets: Vec<usize>,
    /// Empty in a pattern form, whose rows keep their own values.
    coefs: Vec<f64>,
    /// Whether rows are one template by their offsets alone (a pattern
    /// form): the product then reads each row's coefficients from the
    /// matrix, and its sweeps neither merge nor patch.
    in_place: bool,
    /// Whether the entry starts a new chain; never a template's first.
    breaks: Vec<bool>,
    /// Whether any entry does: only a grouped product's templates break.
    broken: bool,
    /// How many maximal runs of consecutive rows share a template.
    runs: usize,
    /// The long runs, merged across the short ones, in row order.
    sweeps: Vec<Sweep>,
    /// Every row of a short run, in row order.
    patches: Vec<Patch>,
}

impl RowTemplates {
    /// The template form of `a`, or `None` as soon as its rows stop
    /// repeating: more than [`MAX_TEMPLATES`] distinct rows, or runs
    /// averaging under [`MIN_ROWS_PER_RUN`] rows. A row's chain breaks
    /// between consecutive entries at columns `c0` and `c1` when
    /// `breaks(c0, c1)`, and rows are one template only where they break
    /// alike. One pass; a row is compared with the open run's template
    /// first and with the table only when a new run opens. With
    /// `in_place`, rows are compared by their offsets and breaks alone and
    /// no coefficient is kept. An accepted matrix then has its runs planned
    /// into sweeps and patches.
    fn detect(
        a: &CsrMatrix,
        breaks: impl Fn(usize, usize) -> bool,
        in_place: bool,
    ) -> Option<Self> {
        let (row_ptr, col_idx, values) = (a.row_ptr(), a.col_idx(), a.values());
        // A matrix that is turned away has stored a template and a run for
        // each of its first rows: with room for that prefix a rejection
        // does not pay those two vectors' doublings (the entry vectors
        // grow as they go).
        let head_rows = a.n_rows().min(2 * RUN_SLACK + 1);
        let mut form = RowTemplates {
            n_rows: a.n_rows(),
            n_cols: a.n_cols(),
            ptr: Vec::with_capacity(head_rows + 1),
            offsets: Vec::new(),
            coefs: Vec::new(),
            in_place,
            breaks: Vec::new(),
            broken: false,
            runs: 0,
            sweeps: Vec::new(),
            patches: Vec::new(),
        };
        let mut runs: Vec<Run> = Vec::with_capacity(head_rows);
        form.ptr.push(0);
        for row in 0..a.n_rows() {
            let span = row_ptr[row]..row_ptr[row + 1];
            let (cols, vals) = (&col_idx[span.clone()], &values[span]);
            let open = runs.last().map(|run| run.template);
            if open.is_some_and(|t| form.reads_as(t, row, cols, vals, &breaks)) {
                runs.last_mut().expect("a run is open").end = row + 1;
                continue;
            }
            if runs.len() + 1 > RUN_SLACK + (row + 1) / MIN_ROWS_PER_RUN {
                return None;
            }
            let known = (0..form.templates()).find(|&t| form.reads_as(t, row, cols, vals, &breaks));
            let template = match known {
                Some(t) => t,
                None if form.templates() == MAX_TEMPLATES => return None,
                None => {
                    form.offsets
                        .extend(cols.iter().map(|&c| c.wrapping_sub(row)));
                    if !in_place {
                        form.coefs.extend_from_slice(vals);
                    }
                    form.breaks
                        .extend((0..cols.len()).map(|e| e > 0 && breaks(cols[e - 1], cols[e])));
                    form.ptr.push(form.offsets.len());
                    form.templates() - 1
                }
            };
            runs.push(Run {
                end: row + 1,
                template,
            });
        }
        if runs.len() * MIN_ROWS_PER_RUN > form.n_rows {
            return None;
        }
        form.broken = form.breaks.contains(&true);
        form.plan(&runs);
        // The form lives as long as its operator: keep no growth slack.
        form.ptr.shrink_to_fit();
        form.offsets.shrink_to_fit();
        form.coefs.shrink_to_fit();
        form.breaks.shrink_to_fit();
        form.sweeps.shrink_to_fit();
        form.patches.shrink_to_fit();
        Some(form)
    }

    /// Turn the detected `runs` into what the product walks. A long run
    /// opens a sweep, or extends the last one when that is of the same
    /// template — every run since was short, and the sweep now runs over
    /// them; the rows of a short run become patches. A sweep's input
    /// slices are contiguous and its first and last rows are its own
    /// template's, so it reads inside `p` whatever rows it runs over.
    /// Patches are applied after the last sweep that starts before them:
    /// a sweep never overwrites a row already patched. A pattern form's
    /// long runs are a sweep each and its short runs are left to the CSR
    /// kernel: the rows between would shift the in-place stride.
    fn plan(&mut self, runs: &[Run]) {
        self.runs = runs.len();
        let mut start = 0;
        for &Run { end, template } in runs {
            if end - start < SHORT_RUN {
                if !self.in_place {
                    self.patches
                        .extend((start..end).map(|row| Patch { row, template }));
                }
            } else {
                match self.sweeps.last_mut() {
                    Some(open) if open.template == template && !self.in_place => open.end = end,
                    _ => self.sweeps.push(Sweep {
                        start,
                        end,
                        template,
                        patches: 0,
                    }),
                }
            }
            if let Some(open) = self.sweeps.last_mut() {
                open.patches = self.patches.len();
            }
            start = end;
        }
    }

    /// Whether row `row`, stored as `cols`/`vals` and broken where
    /// `breaks` says, is template `t` (its values aside, in a pattern
    /// form).
    fn reads_as(
        &self,
        t: usize,
        row: usize,
        cols: &[usize],
        vals: &[f64],
        breaks: &impl Fn(usize, usize) -> bool,
    ) -> bool {
        let span = self.ptr[t]..self.ptr[t + 1];
        let (offsets, starts) = (&self.offsets[span.clone()], &self.breaks[span.clone()]);
        offsets.len() == cols.len()
            && offsets
                .iter()
                .zip(cols)
                .all(|(&offset, &c)| row.wrapping_add(offset) == c)
            && (self.in_place
                || self.coefs[span]
                    .iter()
                    .zip(vals)
                    .all(|(coef, v)| coef.to_bits() == v.to_bits()))
            && starts
                .iter()
                .enumerate()
                .all(|(e, &start)| start == (e > 0 && breaks(cols[e - 1], cols[e])))
    }

    /// Distinct rows.
    fn templates(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Entries of template `t`: offsets, coefficients and whether each
    /// starts a new chain, in stored order.
    #[inline]
    fn entries(&self, t: usize) -> (&[usize], &[f64], &[bool]) {
        let span = self.ptr[t]..self.ptr[t + 1];
        (
            &self.offsets[span.clone()],
            &self.coefs[span.clone()],
            &self.breaks[span],
        )
    }

    /// Template `t`'s chains, in order: the spans of `offsets`/`coefs`
    /// from one break to the next. An empty template has none.
    fn chains(&self, t: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let Range { start, end } = self.ptr[t]..self.ptr[t + 1];
        let mut from = start;
        (start + 1..=end)
            .filter(move |&e| e == end || self.breaks[e])
            .map(move |e| {
                let chain = from..e;
                from = e;
                chain
            })
    }

    /// Whether the sweeps can run `GroupedRowProduct`'s product without
    /// skipping a term: every coefficient is finite, so a term whose
    /// operand is zero adds a zero to a chain that is never `-0.0` and
    /// changes no bit, and every chain after a template's first fits one
    /// [`BREAK`] pass.
    fn sweeps_every_term(&self) -> bool {
        self.coefs.iter().all(|c| c.is_finite())
            && (0..self.templates()).all(|t| {
                self.chains(t)
                    .skip(1)
                    .all(|chain| chain.len() <= PASS_ENTRIES)
            })
    }

    /// The template the product multiplies row `row` with: its patch's,
    /// or that of the sweep that runs over it.
    fn template_of(&self, row: usize) -> usize {
        if let Ok(k) = self.patches.binary_search_by_key(&row, |patch| patch.row) {
            return self.patches[k].template;
        }
        let k = self.sweeps.partition_point(|sweep| sweep.start <= row);
        let sweep = &self.sweeps[k - 1];
        assert!(row < sweep.end, "row {row} is swept or patched");
        sweep.template
    }

    /// `out = A p`, overwriting `out` (which need not be zeroed), to the
    /// bit what [`CsrMatrix::matvec_rows_into`] over all rows writes —
    /// with each row's chain broken where its template says, if it does.
    ///
    /// Panics if `p` is not `n_cols` long or `out` not `n_rows` long.
    fn matvec_into(&self, p: &[f64], out: &mut [f64]) {
        assert_eq!(p.len(), self.n_cols, "matvec: operand length");
        assert_eq!(out.len(), self.n_rows, "matvec: result length");
        let mut patched = 0;
        for sweep in &self.sweeps {
            let rows = &mut out[sweep.start..sweep.end];
            let mut chains = self.chains(sweep.template);
            match chains.next() {
                None => rows.fill(0.0),
                Some(first) => {
                    let offsets = self.offsets[first.clone()].chunks(PASS_ENTRIES);
                    let coefs = self.coefs[first].chunks(PASS_ENTRIES);
                    for (k, (offsets, coefs)) in offsets.zip(coefs).enumerate() {
                        if k == 0 {
                            pass::<START>(sweep.start, offsets, coefs, p, rows);
                        } else {
                            pass::<RESUME>(sweep.start, offsets, coefs, p, rows);
                        }
                    }
                }
            }
            // Only a grouped product's templates break, and each of their
            // later chains is one pass long (`sweeps_every_term`).
            for chain in chains {
                let (offsets, coefs) = (&self.offsets[chain.clone()], &self.coefs[chain]);
                pass::<BREAK>(sweep.start, offsets, coefs, p, rows);
            }
            self.patch(&self.patches[patched..sweep.patches], p, out);
            patched = sweep.patches;
        }
        // Rows no sweep precedes: a matrix of short runs only.
        self.patch(&self.patches[patched..], p, out);
    }

    /// Recompute each of `patches`' rows from `0.0`: each chain from
    /// `0.0`, added to the row's total where the next one starts. A form
    /// whose templates never break (a `RowProduct`'s) runs each row as
    /// its one chain, without looking for breaks.
    fn patch(&self, patches: &[Patch], p: &[f64], out: &mut [f64]) {
        if !self.broken {
            for &Patch { row, template } in patches {
                let (offsets, coefs, _) = self.entries(template);
                let mut acc = 0.0;
                for (&offset, &c) in offsets.iter().zip(coefs) {
                    acc += c * p[row.wrapping_add(offset)];
                }
                out[row] = acc;
            }
            return;
        }
        for &Patch { row, template } in patches {
            let (offsets, coefs, breaks) = self.entries(template);
            let (mut total, mut acc) = (0.0, 0.0);
            for ((&offset, &c), &starts) in offsets.iter().zip(coefs).zip(breaks) {
                if starts {
                    total += acc;
                    acc = 0.0;
                }
                acc += c * p[row.wrapping_add(offset)];
            }
            out[row] = total + acc;
        }
    }

    /// `out = A p` for a pattern form of `a`, overwriting `out`: each
    /// sweep reads its rows' coefficients from `a`'s values, every other
    /// row is [`CsrMatrix::matvec_rows_into`]'s, and so is every bit.
    ///
    /// Panics if `p` is not `n_cols` long or `out` not `n_rows` long.
    fn matvec_in_place(&self, a: &CsrMatrix, p: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.n_rows, "matvec: result length");
        let (row_ptr, values) = (a.row_ptr(), a.values());
        let mut row = 0;
        for sweep in &self.sweeps {
            a.matvec_rows_into(row..sweep.start, p, &mut out[row..sweep.start]);
            let rows = &mut out[sweep.start..sweep.end];
            let span = self.ptr[sweep.template]..self.ptr[sweep.template + 1];
            // The run's rows, `width` stored entries each, one after another.
            let (width, coefs) = (
                span.len(),
                &values[row_ptr[sweep.start]..row_ptr[sweep.end]],
            );
            if width == 0 {
                rows.fill(0.0);
            }
            for (k, offsets) in self.offsets[span].chunks(PASS_ENTRIES).enumerate() {
                let first = k * PASS_ENTRIES;
                if k == 0 {
                    pass_in_place::<START>(sweep.start, offsets, coefs, width, first, p, rows);
                } else {
                    pass_in_place::<RESUME>(sweep.start, offsets, coefs, width, first, p, rows);
                }
            }
            row = sweep.end;
        }
        a.matvec_rows_into(row..self.n_rows, p, &mut out[row..]);
    }
}

/// One pass over a sweep starting at row `start`: every row's chain is
/// advanced by these (at most [`PASS_ENTRIES`]) entries, met with `out`
/// as `MODE` says ([`START`], [`RESUME`] or [`BREAK`]). Out of line, so
/// the row loops have an address the build pins.
#[inline(never)]
fn pass<const MODE: u8>(
    start: usize,
    offsets: &[usize],
    coefs: &[f64],
    p: &[f64],
    out: &mut [f64],
) {
    match offsets.len() {
        1 => lanes::<1, MODE>(start, offsets, coefs, p, out),
        2 => lanes::<2, MODE>(start, offsets, coefs, p, out),
        3 => lanes::<3, MODE>(start, offsets, coefs, p, out),
        4 => lanes::<4, MODE>(start, offsets, coefs, p, out),
        5 => lanes::<5, MODE>(start, offsets, coefs, p, out),
        6 => lanes::<6, MODE>(start, offsets, coefs, p, out),
        7 => lanes::<7, MODE>(start, offsets, coefs, p, out),
        8 => lanes::<8, MODE>(start, offsets, coefs, p, out),
        k => unreachable!("a pass of {k} entries"),
    }
}

/// [`pass`] for exactly `K` entries: with the entry loop unrolled, the
/// loop over the sweep's rows is a plain element-wise expression over
/// `K + 1` equally long slices, which the compiler vectorises.
#[inline(always)]
fn lanes<const K: usize, const MODE: u8>(
    start: usize,
    offsets: &[usize],
    coefs: &[f64],
    p: &[f64],
    out: &mut [f64],
) {
    let len = out.len();
    let c: [f64; K] = std::array::from_fn(|e| coefs[e]);
    let inputs: [&[f64]; K] = std::array::from_fn(|e| {
        let lo = start.wrapping_add(offsets[e]);
        &p[lo..lo + len]
    });
    for t in 0..len {
        // `0.0 + x` is not `x` when `x` is `-0.0`: the chain starts where
        // the CSR kernel's does.
        let mut acc = if MODE == RESUME { out[t] } else { 0.0 };
        for e in 0..K {
            acc += c[e] * inputs[e][t];
        }
        out[t] = if MODE == BREAK { out[t] + acc } else { acc };
    }
}

/// [`pass`] over a pattern form's sweep, each row's coefficients read
/// where the matrix stores them: entry `first + e` of the sweep's row `t`
/// is `coefs[t · width + first + e]`. Starts (`START`) or resumes
/// (`RESUME`) the chains; out of line like [`pass`].
#[inline(never)]
fn pass_in_place<const MODE: u8>(
    start: usize,
    offsets: &[usize],
    coefs: &[f64],
    width: usize,
    first: usize,
    p: &[f64],
    out: &mut [f64],
) {
    match offsets.len() {
        1 => strided::<1, MODE>(start, offsets, coefs, width, first, p, out),
        2 => strided::<2, MODE>(start, offsets, coefs, width, first, p, out),
        3 => strided::<3, MODE>(start, offsets, coefs, width, first, p, out),
        4 => strided::<4, MODE>(start, offsets, coefs, width, first, p, out),
        5 => strided::<5, MODE>(start, offsets, coefs, width, first, p, out),
        6 => strided::<6, MODE>(start, offsets, coefs, width, first, p, out),
        7 => strided::<7, MODE>(start, offsets, coefs, width, first, p, out),
        8 => strided::<8, MODE>(start, offsets, coefs, width, first, p, out),
        k => unreachable!("a pass of {k} entries"),
    }
}

/// [`pass_in_place`] for exactly `K` entries: [`lanes`] with row `t`'s
/// coefficients `K` consecutive stored values instead of constants.
#[inline(always)]
fn strided<const K: usize, const MODE: u8>(
    start: usize,
    offsets: &[usize],
    coefs: &[f64],
    width: usize,
    first: usize,
    p: &[f64],
    out: &mut [f64],
) {
    let len = out.len();
    assert!(
        first + K <= width && coefs.len() == len * width,
        "a run of {len} rows {width} wide"
    );
    let inputs: [&[f64]; K] = std::array::from_fn(|e| {
        let lo = start.wrapping_add(offsets[e]);
        &p[lo..lo + len]
    });
    for (t, row) in coefs.chunks_exact(width).enumerate() {
        let c = &row[first..first + K];
        let mut acc = if MODE == RESUME { out[t] } else { 0.0 };
        for e in 0..K {
            acc += c[e] * inputs[e][t];
        }
        out[t] = acc;
    }
}

/// Which kernel a [`RowProduct`] or a [`GroupedRowProduct`] multiplies
/// with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProductForm {
    /// A loop over the CSR rows ([`CsrMatrix::matvec_rows_into`] for a
    /// `RowProduct`): the rows do not repeat, or a grouped product's
    /// templates cannot be swept.
    Csr,
    /// The row-template kernel, over this many distinct rows and this
    /// many maximal runs of consecutive rows sharing one.
    Templates { templates: usize, runs: usize },
    /// The row-template kernel over this many distinct offset patterns and
    /// runs, each swept row's coefficients read in place from the CSR
    /// values (a `RowProduct` whose rows repeat in structure only).
    Patterns { patterns: usize, runs: usize },
}

/// A shared CSR matrix together with the form its whole-matrix row-wise
/// product `out = A p` runs in, chosen once, here, from the matrix.
#[derive(Debug, Clone)]
pub struct RowProduct {
    matrix: Arc<CsrMatrix>,
    templates: Option<RowTemplates>,
}

impl RowProduct {
    /// Share `matrix` (an owned one is moved into a new `Arc`, an `Arc`
    /// is kept as it is) and pick its product's form.
    pub fn new(matrix: impl Into<Arc<CsrMatrix>>) -> Self {
        let matrix = matrix.into();
        let templates = RowTemplates::detect(&matrix, |_, _| false, false)
            .or_else(|| RowTemplates::detect(&matrix, |_, _| false, true));
        RowProduct { matrix, templates }
    }

    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    pub fn form(&self) -> ProductForm {
        match &self.templates {
            None => ProductForm::Csr,
            Some(t) if t.in_place => ProductForm::Patterns {
                patterns: t.templates(),
                runs: t.runs,
            },
            Some(t) => ProductForm::Templates {
                templates: t.templates(),
                runs: t.runs,
            },
        }
    }

    /// `out = A p` over all rows, overwriting `out`: the same bits
    /// whichever form runs.
    ///
    /// Panics if `p` is not `n_cols` long or `out` not `n_rows` long.
    pub fn matvec_into(&self, p: &[f64], out: &mut [f64]) {
        match &self.templates {
            Some(t) if t.in_place => t.matvec_in_place(&self.matrix, p, out),
            Some(t) => t.matvec_into(p, out),
            None => self
                .matrix
                .matvec_rows_into(0..self.matrix.n_rows(), p, out),
        }
    }
}

/// A row-wise product whose chains break where the column's group
/// changes:
///
/// ```text
/// out[i] = ((0.0 + chain₁) + chain₂) + …
/// ```
///
/// each chain accumulated from `0.0`, in stored order, over a maximal
/// stretch of row `i`'s consecutive entries whose columns share a group,
/// with a term skipped when its operand is exactly zero. With the groups
/// a column distribution's owners and each row's entries in ascending
/// column order, that is the `SUM` of per-owner partial products, merged
/// in owner order.
///
/// The form is chosen once, from the matrix and the groups: the template
/// sweeps (the rows' chains broken as their templates say) when the rows
/// repeat, every coefficient is finite and every chain after a
/// template's first fits one pass; otherwise a scalar loop over the rows
/// that keeps the matrix and the groups. A finite coefficient times a
/// zero operand adds a zero that changes no bit of a chain begun at
/// `+0.0`, so the sweeps need not skip; an infinite or NaN one would add
/// a NaN, so such a matrix takes the loop. The template form keeps no
/// copy of the matrix.
#[derive(Debug, Clone)]
pub struct GroupedRowProduct {
    form: Grouped,
}

#[derive(Debug, Clone)]
enum Grouped {
    Templates(RowTemplates),
    Rows {
        matrix: CsrMatrix,
        col_group: Vec<usize>,
    },
}

impl GroupedRowProduct {
    /// `matrix`'s product with its chains broken where `col_group`, one
    /// group per column, changes between consecutive entries of a row.
    ///
    /// Panics if `col_group` is not `n_cols` long.
    pub fn new(matrix: CsrMatrix, col_group: Vec<usize>) -> Self {
        assert_eq!(col_group.len(), matrix.n_cols(), "a group for every column");
        let templates =
            RowTemplates::detect(&matrix, |c0, c1| col_group[c0] != col_group[c1], false)
                .filter(RowTemplates::sweeps_every_term);
        let form = match templates {
            Some(t) => Grouped::Templates(t),
            None => Grouped::Rows { matrix, col_group },
        };
        GroupedRowProduct { form }
    }

    pub fn form(&self) -> ProductForm {
        match &self.form {
            Grouped::Rows { .. } => ProductForm::Csr,
            Grouped::Templates(t) => ProductForm::Templates {
                templates: t.templates(),
                runs: t.runs,
            },
        }
    }

    /// Where row `row`'s chain breaks, as the indices among its stored
    /// entries at which a new chain starts — read from what the product
    /// runs: the template it sweeps or patches the row with, or the
    /// column groups.
    pub fn chain_starts(&self, row: usize) -> Vec<usize> {
        match &self.form {
            Grouped::Templates(t) => {
                let (_, _, breaks) = t.entries(t.template_of(row));
                (0..breaks.len()).filter(|&e| breaks[e]).collect()
            }
            Grouped::Rows { matrix, col_group } => {
                let span = matrix.row_ptr()[row]..matrix.row_ptr()[row + 1];
                let cols = &matrix.col_idx()[span];
                (1..cols.len())
                    .filter(|&e| col_group[cols[e - 1]] != col_group[cols[e]])
                    .collect()
            }
        }
    }

    /// `out = A p` with the chains broken, overwriting `out`: the same
    /// bits whichever form runs.
    ///
    /// Panics if `p` is not `n_cols` long or `out` not `n_rows` long.
    pub fn matvec_into(&self, p: &[f64], out: &mut [f64]) {
        match &self.form {
            Grouped::Templates(t) => t.matvec_into(p, out),
            Grouped::Rows { matrix, col_group } => {
                assert_eq!(p.len(), matrix.n_cols(), "matvec: operand length");
                assert_eq!(out.len(), matrix.n_rows(), "matvec: result length");
                let (row_ptr, col_idx, values) =
                    (matrix.row_ptr(), matrix.col_idx(), matrix.values());
                for (q, span) in out.iter_mut().zip(row_ptr.windows(2)) {
                    let (mut total, mut acc) = (0.0, 0.0);
                    let mut group = None;
                    for (&c, &a) in col_idx[span[0]..span[1]]
                        .iter()
                        .zip(&values[span[0]..span[1]])
                    {
                        if group != Some(col_group[c]) {
                            total += acc;
                            acc = 0.0;
                            group = Some(col_group[c]);
                        }
                        let x = p[c];
                        if x != 0.0 {
                            acc += a * x;
                        }
                    }
                    *q = total + acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// `(runs, sweeps, patches, longest sweep)` of an accepted matrix,
    /// after checking what the product relies on: sweeps in row order and
    /// disjoint, each starting and ending on a row of its own template
    /// (so its slices stay inside `p`); patches in row order, each row's
    /// own template; every row in a sweep or patched; and every sweep's
    /// patches applied after it and before the next one starts.
    fn plan_of(a: &CsrMatrix) -> (usize, usize, usize, usize) {
        grouped_plan_of(a, &vec![0; a.n_cols()])
    }

    /// [`plan_of`] with the chains broken where `col_group` changes.
    fn grouped_plan_of(a: &CsrMatrix, col_group: &[usize]) -> (usize, usize, usize, usize) {
        let breaks = |c0: usize, c1: usize| col_group[c0] != col_group[c1];
        let form = RowTemplates::detect(a, breaks, false).expect("rows repeat");
        let is_template = |row: usize, t: usize| {
            let span = a.row_ptr()[row]..a.row_ptr()[row + 1];
            form.reads_as(
                t,
                row,
                &a.col_idx()[span.clone()],
                &a.values()[span],
                &breaks,
            )
        };
        let mut covered = vec![false; a.n_rows()];
        let (mut next_row, mut applied) = (0, 0);
        for sweep in &form.sweeps {
            assert!(next_row <= sweep.start && sweep.end - sweep.start >= SHORT_RUN);
            assert!(is_template(sweep.start, sweep.template));
            assert!(is_template(sweep.end - 1, sweep.template));
            covered[sweep.start..sweep.end].fill(true);
            // Patches applied with earlier sweeps lie before this one.
            assert!(form.patches[..applied].iter().all(|p| p.row < sweep.start));
            assert!(applied <= sweep.patches);
            applied = sweep.patches;
            next_row = sweep.end;
        }
        assert!(form.sweeps.is_empty() || applied == form.patches.len());
        assert!(form.patches.windows(2).all(|w| w[0].row < w[1].row));
        for patch in &form.patches {
            assert!(is_template(patch.row, patch.template));
            covered[patch.row] = true;
        }
        assert!(covered.iter().all(|&c| c));
        for row in 0..a.n_rows() {
            assert!(is_template(row, form.template_of(row)), "row {row}");
        }
        let longest = form.sweeps.iter().map(|s| s.end - s.start).max();
        (
            form.runs,
            form.sweeps.len(),
            form.patches.len(),
            longest.unwrap_or(0),
        )
    }

    /// The plan, pinned: a grid's interior lines are one sweep a plane
    /// (a stretch of lines in 2-D), and only the rows at a line's two
    /// ends are patched.
    #[test]
    fn grid_lines_merge_into_sweeps_and_their_ends_are_patches() {
        // 40 planes x (first line, 38 interior lines, last line).
        assert_eq!(
            plan_of(&gen::poisson_3d(40, 40, 40)),
            (4800, 120, 3200, 38 * 40 - 2)
        );
        // First line, 46 interior lines, last line.
        assert_eq!(plan_of(&gen::poisson_2d(48, 48)), (144, 3, 96, 46 * 48 - 2));
        assert_eq!(plan_of(&gen::tridiagonal(1000, 2.0, -1.0)), (3, 1, 2, 998));
        // The allocation gate's and the golden files' systems.
        assert_eq!(
            plan_of(&gen::poisson_3d(12, 12, 12)),
            (432, 36, 288, 10 * 12 - 2)
        );
        // Nine lines of seven.
        assert_eq!(plan_of(&gen::poisson_2d(9, 7)), (27, 3, 18, 7 * 7 - 2));
    }

    /// The column-wise benchmark's plan: `poisson_2d(48, 48)` with its
    /// columns in 64 blocks of 36, each row's chain broken where the
    /// owner changes. A row breaks after its `-48` entry and before its
    /// `+48` one (47 columns apart, never one owner's); the 126 rows at a
    /// block's inner ends break once more. Those make runs of their own
    /// and are patched like a grid line's 96 ends (30 rows are both), so
    /// the sweeps are the row-wise plan's three.
    #[test]
    fn owner_changes_break_the_sweeps_of_the_block_columns_plan() {
        let owners: Vec<usize> = (0..48 * 48).map(|c| c / 36).collect();
        let a = gen::poisson_2d(48, 48);
        assert_eq!(grouped_plan_of(&a, &owners), (288, 3, 192, 46 * 48 - 2));
    }

    /// A pattern form's long runs are a sweep each, never merged across
    /// the rows between, and its short runs are neither swept nor
    /// patched: they are the CSR kernel's. Rows alternate between a
    /// diagonal and a tridiagonal pattern in runs of 10, 2, 10 and 10,
    /// every value its own.
    #[test]
    fn pattern_runs_are_a_sweep_each_and_short_ones_are_left_to_the_csr_kernel() {
        let lens = [10, 2, 10, 10];
        let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
        let mut row = 0;
        for (k, len) in lens.into_iter().enumerate() {
            for r in row..row + len {
                let cols = if k % 2 == 0 { r..r + 1 } else { r - 1..r + 2 };
                values.extend(cols.clone().map(|c| (r * 7 + c) as f64));
                col_idx.extend(cols);
                row_ptr.push(col_idx.len());
            }
            row += len;
        }
        let a = CsrMatrix::from_raw(row, row + 1, row_ptr, col_idx, values).unwrap();
        assert!(RowTemplates::detect(&a, |_, _| false, false).is_none());
        let form = RowTemplates::detect(&a, |_, _| false, true).expect("offsets repeat");
        let sweeps: Vec<(usize, usize, usize)> = form
            .sweeps
            .iter()
            .map(|s| (s.start, s.end, s.template))
            .collect();
        assert_eq!(sweeps, [(0, 10, 0), (12, 22, 0), (22, 32, 1)]);
        assert!(form.patches.is_empty() && form.coefs.is_empty());
        assert_eq!((form.templates(), form.runs), (2, 4));
    }

    /// Rows in runs too short to sweep are all patches, and a long run
    /// of another template between two of one keeps them apart.
    #[test]
    fn short_runs_alone_and_unlike_neighbours_do_not_merge() {
        // Rows alternate in pairs between two diagonals: runs of two.
        let n = 40;
        let values = (0..n).map(|r| if r / 2 % 2 == 0 { 1.0 } else { 2.0 });
        let pairs =
            CsrMatrix::from_raw(n, n, (0..=n).collect(), (0..n).collect(), values.collect())
                .unwrap();
        assert_eq!(plan_of(&pairs), (20, 0, 40, 0));
        // Ten rows of one diagonal, ten of the other, ten of the first.
        let values = (0..30).map(|r| if r / 10 == 1 { 2.0 } else { 1.0 });
        let thirds = CsrMatrix::from_raw(
            30,
            30,
            (0..=30).collect(),
            (0..30).collect(),
            values.collect(),
        )
        .unwrap();
        assert_eq!(plan_of(&thirds), (3, 3, 0, 10));
    }
}
