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
//! [`RowProduct`] is the one owner of the choice between the two: it
//! holds the shared matrix, looks for the template form once (one pass
//! over the rows, given up as soon as they stop repeating), and
//! multiplies with whichever form it kept. The choice follows from the
//! matrix alone; there is nothing to configure.

use crate::csr::CsrMatrix;
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

/// Rows `previous.end..end` all read as `template`.
#[derive(Debug, Clone, Copy)]
struct Run {
    end: usize,
    template: usize,
}

/// Rows `start..end` multiplied as `template`; both ends are rows of it.
/// `patches` is one past the last patch to apply once the sweep is done.
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
    /// Template `t` is entries `ptr[t]..ptr[t + 1]` of `offsets`/`coefs`.
    ptr: Vec<usize>,
    /// `column − row` of each entry, as a wrapping difference: the column
    /// is `row.wrapping_add(offset)`.
    offsets: Vec<usize>,
    coefs: Vec<f64>,
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
    /// averaging under [`MIN_ROWS_PER_RUN`] rows. One pass; a row is
    /// compared with the open run's template first and with the table
    /// only when a new run opens. An accepted matrix then has its runs
    /// planned into sweeps and patches.
    fn detect(a: &CsrMatrix) -> Option<Self> {
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
            if open.is_some_and(|t| form.reads_as(t, row, cols, vals)) {
                runs.last_mut().expect("a run is open").end = row + 1;
                continue;
            }
            if runs.len() + 1 > RUN_SLACK + (row + 1) / MIN_ROWS_PER_RUN {
                return None;
            }
            let known = (0..form.templates()).find(|&t| form.reads_as(t, row, cols, vals));
            let template = match known {
                Some(t) => t,
                None if form.templates() == MAX_TEMPLATES => return None,
                None => {
                    form.offsets
                        .extend(cols.iter().map(|&c| c.wrapping_sub(row)));
                    form.coefs.extend_from_slice(vals);
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
        form.plan(&runs);
        // The form lives as long as its operator: keep no growth slack.
        form.ptr.shrink_to_fit();
        form.offsets.shrink_to_fit();
        form.coefs.shrink_to_fit();
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
    /// a sweep never overwrites a row already patched.
    fn plan(&mut self, runs: &[Run]) {
        self.runs = runs.len();
        let mut start = 0;
        for &Run { end, template } in runs {
            if end - start < SHORT_RUN {
                self.patches
                    .extend((start..end).map(|row| Patch { row, template }));
            } else {
                match self.sweeps.last_mut() {
                    Some(open) if open.template == template => open.end = end,
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

    /// Whether row `row`, stored as `cols`/`vals`, is template `t`.
    fn reads_as(&self, t: usize, row: usize, cols: &[usize], vals: &[f64]) -> bool {
        let (offsets, coefs) = self.entries(t);
        offsets.len() == cols.len()
            && offsets
                .iter()
                .zip(cols)
                .all(|(&offset, &c)| row.wrapping_add(offset) == c)
            && coefs
                .iter()
                .zip(vals)
                .all(|(coef, v)| coef.to_bits() == v.to_bits())
    }

    /// Distinct rows.
    fn templates(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Entries of template `t`: offsets and coefficients, in stored order.
    fn entries(&self, t: usize) -> (&[usize], &[f64]) {
        let span = self.ptr[t]..self.ptr[t + 1];
        (&self.offsets[span.clone()], &self.coefs[span])
    }

    /// `out = A p`, overwriting `out` (which need not be zeroed), to the
    /// bit what [`CsrMatrix::matvec_rows_into`] over all rows writes.
    ///
    /// Panics if `p` is not `n_cols` long or `out` not `n_rows` long.
    fn matvec_into(&self, p: &[f64], out: &mut [f64]) {
        assert_eq!(p.len(), self.n_cols, "matvec: operand length");
        assert_eq!(out.len(), self.n_rows, "matvec: result length");
        let mut patched = 0;
        for sweep in &self.sweeps {
            let (offsets, coefs) = self.entries(sweep.template);
            let rows = &mut out[sweep.start..sweep.end];
            let mut passes = offsets.chunks(PASS_ENTRIES).zip(coefs.chunks(PASS_ENTRIES));
            match passes.next() {
                None => rows.fill(0.0),
                Some((offsets, coefs)) => pass::<true>(sweep.start, offsets, coefs, p, rows),
            }
            for (offsets, coefs) in passes {
                pass::<false>(sweep.start, offsets, coefs, p, rows);
            }
            self.patch(&self.patches[patched..sweep.patches], p, out);
            patched = sweep.patches;
        }
        // Rows no sweep precedes: a matrix of short runs only.
        self.patch(&self.patches[patched..], p, out);
    }

    /// Recompute each of `patches`' rows from `0.0`.
    fn patch(&self, patches: &[Patch], p: &[f64], out: &mut [f64]) {
        for &Patch { row, template } in patches {
            let (offsets, coefs) = self.entries(template);
            let mut acc = 0.0;
            for (&offset, &c) in offsets.iter().zip(coefs) {
                acc += c * p[row.wrapping_add(offset)];
            }
            out[row] = acc;
        }
    }
}

/// One pass over a sweep starting at row `start`: every row's chain is
/// advanced by these (at most [`PASS_ENTRIES`]) entries, from `0.0` on
/// the first pass and from where `out` left it on later ones. Out of
/// line, so the row loops have an address the build pins.
#[inline(never)]
fn pass<const FIRST: bool>(
    start: usize,
    offsets: &[usize],
    coefs: &[f64],
    p: &[f64],
    out: &mut [f64],
) {
    match offsets.len() {
        1 => lanes::<1, FIRST>(start, offsets, coefs, p, out),
        2 => lanes::<2, FIRST>(start, offsets, coefs, p, out),
        3 => lanes::<3, FIRST>(start, offsets, coefs, p, out),
        4 => lanes::<4, FIRST>(start, offsets, coefs, p, out),
        5 => lanes::<5, FIRST>(start, offsets, coefs, p, out),
        6 => lanes::<6, FIRST>(start, offsets, coefs, p, out),
        7 => lanes::<7, FIRST>(start, offsets, coefs, p, out),
        8 => lanes::<8, FIRST>(start, offsets, coefs, p, out),
        k => unreachable!("a pass of {k} entries"),
    }
}

/// [`pass`] for exactly `K` entries: with the entry loop unrolled, the
/// loop over the sweep's rows is a plain element-wise expression over
/// `K + 1` equally long slices, which the compiler vectorises.
#[inline(always)]
fn lanes<const K: usize, const FIRST: bool>(
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
        let mut acc = if FIRST { 0.0 } else { out[t] };
        for e in 0..K {
            acc += c[e] * inputs[e][t];
        }
        out[t] = acc;
    }
}

/// Which kernel a [`RowProduct`] multiplies with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProductForm {
    /// [`CsrMatrix::matvec_rows_into`]: the rows do not repeat.
    Csr,
    /// The row-template kernel, over this many distinct rows and this
    /// many maximal runs of consecutive rows sharing one.
    Templates { templates: usize, runs: usize },
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
        let templates = RowTemplates::detect(&matrix);
        RowProduct { matrix, templates }
    }

    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    pub fn form(&self) -> ProductForm {
        match &self.templates {
            None => ProductForm::Csr,
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
            Some(t) => t.matvec_into(p, out),
            None => self
                .matrix
                .matvec_rows_into(0..self.matrix.n_rows(), p, out),
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
        let form = RowTemplates::detect(a).expect("rows repeat");
        let is_template = |row: usize, t: usize| {
            let span = a.row_ptr()[row]..a.row_ptr()[row + 1];
            form.reads_as(t, row, &a.col_idx()[span.clone()], &a.values()[span])
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
