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
//! walks a run with one input slice per template entry,
//!
//! ```text
//! out[t] = ((0.0 + c₀·p₀[t]) + c₁·p₁[t]) + …      pₑ = p[run.start + offsetₑ ..]
//! ```
//!
//! so the compiler vectorises across the rows of the run and the only
//! matrix data read per run is the template. Each row's chain is the one
//! [`CsrMatrix::matvec_rows_into`] evaluates — from `0.0`, left to right
//! in stored order, the same coefficient bits — so the two products
//! agree to the bit for every operand, NaN, infinities and signed zeros
//! included.
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

/// Runs shorter than this are multiplied row by row: setting up one
/// input slice per entry costs more than it saves on so few rows.
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
    /// Every row, in order.
    runs: Vec<Run>,
}

impl RowTemplates {
    /// The template form of `a`, or `None` as soon as its rows stop
    /// repeating: more than [`MAX_TEMPLATES`] distinct rows, or runs
    /// averaging under [`MIN_ROWS_PER_RUN`] rows. One pass; a row is
    /// compared with the open run's template first and with the table
    /// only when a new run opens.
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
            runs: Vec::with_capacity(head_rows),
        };
        form.ptr.push(0);
        for row in 0..a.n_rows() {
            let span = row_ptr[row]..row_ptr[row + 1];
            let (cols, vals) = (&col_idx[span.clone()], &values[span]);
            let open = form.runs.last().map(|run| run.template);
            if open.is_some_and(|t| form.reads_as(t, row, cols, vals)) {
                form.runs.last_mut().expect("a run is open").end = row + 1;
                continue;
            }
            if form.runs.len() + 1 > RUN_SLACK + (row + 1) / MIN_ROWS_PER_RUN {
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
            form.runs.push(Run {
                end: row + 1,
                template,
            });
        }
        if form.runs.len() * MIN_ROWS_PER_RUN > form.n_rows {
            return None;
        }
        // The form lives as long as its operator: keep no growth slack.
        form.ptr.shrink_to_fit();
        form.offsets.shrink_to_fit();
        form.coefs.shrink_to_fit();
        form.runs.shrink_to_fit();
        Some(form)
    }

    /// Whether row `row`, stored as `cols`/`vals`, is template `t`.
    fn reads_as(&self, t: usize, row: usize, cols: &[usize], vals: &[f64]) -> bool {
        let span = self.ptr[t]..self.ptr[t + 1];
        span.len() == cols.len()
            && self.offsets[span.clone()]
                .iter()
                .zip(cols)
                .all(|(&offset, &c)| row.wrapping_add(offset) == c)
            && self.coefs[span]
                .iter()
                .zip(vals)
                .all(|(coef, v)| coef.to_bits() == v.to_bits())
    }

    /// Distinct rows.
    fn templates(&self) -> usize {
        self.ptr.len() - 1
    }

    /// `out = A p`, overwriting `out` (which need not be zeroed), to the
    /// bit what [`CsrMatrix::matvec_rows_into`] over all rows writes.
    ///
    /// Panics if `p` is not `n_cols` long or `out` not `n_rows` long.
    fn matvec_into(&self, p: &[f64], out: &mut [f64]) {
        assert_eq!(p.len(), self.n_cols, "matvec: operand length");
        assert_eq!(out.len(), self.n_rows, "matvec: result length");
        let mut start = 0;
        for run in &self.runs {
            let span = self.ptr[run.template]..self.ptr[run.template + 1];
            let (offsets, coefs) = (&self.offsets[span.clone()], &self.coefs[span]);
            let out = &mut out[start..run.end];
            if out.len() < SHORT_RUN {
                for (t, q) in out.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for (&offset, &c) in offsets.iter().zip(coefs) {
                        acc += c * p[(start + t).wrapping_add(offset)];
                    }
                    *q = acc;
                }
            } else {
                let mut passes = offsets.chunks(PASS_ENTRIES).zip(coefs.chunks(PASS_ENTRIES));
                match passes.next() {
                    None => out.fill(0.0),
                    Some((offsets, coefs)) => pass::<true>(start, offsets, coefs, p, out),
                }
                for (offsets, coefs) in passes {
                    pass::<false>(start, offsets, coefs, p, out);
                }
            }
            start = run.end;
        }
    }
}

/// One pass over a run starting at row `start`: every row's chain is
/// advanced by these (at most [`PASS_ENTRIES`]) entries, from `0.0` on
/// the first pass and from where `out` left it on later ones.
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
/// loop over the run's rows is a plain element-wise expression over
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
                runs: t.runs.len(),
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
