//! Block symmetric Gauss-Seidel smoothing.
//!
//! Each processor sweeps its own `(BLOCK)` diagonal block — forward
//! `(D + L) y = r`, then backward `(D + U) z = D y` — using only
//! in-block couplings, so one application is pure local compute: the
//! paper's alignment discipline again, applied to the smoother. The
//! induced operator `M = (D + L) D⁻¹ (D + U)` restricted blockwise is
//! symmetric positive definite whenever `A` is, which is what keeps the
//! V-cycle a legal CG preconditioner. Couplings that cross the block
//! boundary are deferred to the residual evaluation, whose halo
//! exchange *is* priced (label `mg-halo`).
//!
//! A row's columns are sorted, so its in-block couplings below the
//! diagonal are one contiguous run of the CSR arrays ending at the
//! diagonal, and those above it one run starting after it. No coupling
//! crosses a block, so row `k` of one block never waits for row `k` of
//! another: the sweeps step `k` in the outer loop and the block in the
//! inner one (lock-step), which hands the host `np` independent
//! subtract→divide chains to overlap. Each block still sees its own rows
//! in its own order, one operation after the other exactly as a
//! block-after-block sweep performs them, so the result is the same to
//! the bit.
//!
//! A [`SweepPlan`] stores each direction's runs once, in the order its
//! sweep reads them — step, then block — as `u32` columns and `f64`
//! coefficients beside one diagonal array, so a sweep reads contiguous
//! streams and never the matrix. Consecutive steps whose longest run has
//! the same width `w` form a *segment*, and every row of a segment is
//! padded at its front to `w` entries of column `n` and coefficient
//! `+0.0`; the sweep sets slot `n` of `y` and `z` to `+0.0` itself. A
//! padded term is `+0.0 · +0.0 = +0.0`, and `s − (+0.0)` is `s` for every
//! `s`, `−0.0`, NaN and ±∞ included, so the row loop runs a constant
//! number of terms per segment and computes the bits of the unpadded
//! run. (A `−0.0` pad coefficient or slot would turn a forward chain's
//! `−0.0` into `+0.0`; a non-finite slot would poison every padded row.)

use crate::hierarchy::{proc_rows, MgError};
use hpf_dist::ArrayDescriptor;
use hpf_sparse::CsrMatrix;
use std::iter::repeat_n;
use std::ops::Range;

/// The widest row one instance of the sweep kernels takes in one pass.
/// A wider segment is padded to a multiple of it and runs as several
/// passes, terms still left to right.
const MAX_WIDTH: usize = 16;

/// CSR positions of one row's in-block couplings: `lower..diag` is the
/// run below the diagonal, `diag` the diagonal itself, `diag + 1..upper`
/// the run above it.
#[derive(Debug, Clone, Copy)]
struct RowRuns {
    lower: usize,
    diag: usize,
    upper: usize,
}

/// One sweep direction's couplings, packed in the order it reads them.
#[derive(Debug)]
struct Stream {
    /// `(rows, width)` of each segment, in sweep order.
    segments: Vec<(usize, usize)>,
    /// The row each packed row updates.
    rows: Vec<u32>,
    /// `width` columns a row, its padding (column `n`) first.
    cols: Vec<u32>,
    /// The coefficients beside `cols`, the padding `+0.0`.
    coefs: Vec<f64>,
}

impl Stream {
    /// Pack the run `run` picks of every row the sweep visits at each of
    /// `steps`, in order: at step `k`, row `k` of every block longer than
    /// `k`, block after block.
    fn pack(
        steps: impl Iterator<Item = usize> + Clone,
        blocks: &[Range<usize>],
        run: impl Fn(usize) -> Range<usize>,
        a: &CsrMatrix,
    ) -> Self {
        let pad = u32::try_from(a.n_rows()).expect("a level of fewer than 2^32 rows");
        let at_step = |k: usize| {
            blocks
                .iter()
                .filter(move |b| b.len() > k)
                .map(move |b| b.start + k)
        };
        // A step's longest run, or a multiple of the widest kernel.
        let width = |k: usize| match at_step(k).map(|i| run(i).len()).max().unwrap_or(0) {
            w if w <= MAX_WIDTH => w,
            w => w.next_multiple_of(MAX_WIDTH),
        };
        let widths: Vec<usize> = steps.clone().map(width).collect();
        let entries = steps
            .clone()
            .zip(&widths)
            .map(|(k, w)| w * at_step(k).count())
            .sum();
        let mut s = Stream {
            segments: Vec::new(),
            rows: Vec::with_capacity(a.n_rows()),
            cols: Vec::with_capacity(entries),
            coefs: Vec::with_capacity(entries),
        };
        for (k, &w) in steps.zip(&widths) {
            match s.segments.last_mut() {
                Some((rows, width)) if *width == w => *rows += at_step(k).count(),
                _ => s.segments.push((at_step(k).count(), w)),
            }
            for i in at_step(k) {
                let run = run(i);
                let padding = w - run.len();
                s.rows.push(i as u32);
                s.cols.extend(repeat_n(pad, padding));
                s.cols
                    .extend(a.col_idx()[run.clone()].iter().map(|&c| c as u32));
                s.coefs.extend(repeat_n(0.0, padding));
                s.coefs.extend_from_slice(&a.values()[run]);
            }
        }
        s
    }

    /// Each segment as `(width, rows, cols, coefs)`, in sweep order.
    fn segments(&self) -> impl Iterator<Item = (usize, &[u32], &[u32], &[f64])> {
        let (mut row, mut entry) = (0, 0);
        self.segments.iter().map(move |&(rows, width)| {
            let (r, e) = (row..row + rows, entry..entry + rows * width);
            (row, entry) = (r.end, e.end);
            (width, &self.rows[r], &self.cols[e.clone()], &self.coefs[e])
        })
    }
}

/// What block SymGS reads of one level's operator, fixed by the matrix
/// structure and the `(BLOCK)` ownership of its rows.
#[derive(Debug)]
pub(crate) struct SweepPlan {
    /// The runs below the diagonal, steps ascending.
    forward: Stream,
    /// The runs above the diagonal, steps descending.
    backward: Stream,
    /// Every row's diagonal entry.
    diag: Vec<f64>,
}

impl SweepPlan {
    /// Pack every row's in-block runs of `a` (the operator of `level`,
    /// owned by rows as `desc` says). A row whose columns do not ascend
    /// strictly, or that stores no diagonal, cannot be swept and is
    /// rejected.
    pub fn plan(a: &CsrMatrix, desc: &ArrayDescriptor, level: usize) -> Result<Self, MgError> {
        let (row_ptr, col_idx) = (a.row_ptr(), a.col_idx());
        let blocks: Vec<Range<usize>> = (0..desc.np()).map(|q| proc_rows(desc, q)).collect();
        let mut runs = Vec::with_capacity(a.n_rows());
        for block in &blocks {
            for i in block.clone() {
                assert_eq!(runs.len(), i, "the blocks tile the rows in order");
                let start = row_ptr[i];
                let cols = &col_idx[start..row_ptr[i + 1]];
                if cols.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(MgError::UnsortedRow { level, row: i });
                }
                let diag = cols.partition_point(|&c| c < i);
                if cols.get(diag) != Some(&i) {
                    return Err(MgError::MissingDiagonal { level, row: i });
                }
                runs.push(RowRuns {
                    lower: start + cols.partition_point(|&c| c < block.start),
                    diag: start + diag,
                    upper: start + cols.partition_point(|&c| c < block.end),
                });
            }
        }
        assert_eq!(runs.len(), a.n_rows(), "the blocks cover every row");
        let steps = 0..blocks.iter().map(Range::len).max().unwrap_or(0);
        let lower = |i: usize| runs[i].lower..runs[i].diag;
        let upper = |i: usize| runs[i].diag + 1..runs[i].upper;
        Ok(SweepPlan {
            forward: Stream::pack(steps.clone(), &blocks, lower, a),
            backward: Stream::pack(steps.rev(), &blocks, upper, a),
            diag: runs.iter().map(|r| a.values()[r.diag]).collect(),
        })
    }

    /// One symmetric Gauss-Seidel sweep pair over every processor's
    /// diagonal block: `z ≈ M⁻¹ r`, with the forward sweep's `y` left in
    /// its buffer. `y` and `z` hold one slot past the rows, which the
    /// sweep sets to `+0.0` for the padding to read; they are overwritten
    /// and need not be zeroed: a sweep reads only entries it has already
    /// written.
    pub fn symgs_into(&self, r: &[f64], y: &mut [f64], z: &mut [f64]) {
        let n = self.diag.len();
        assert!(
            r.len() == n && y.len() == n + 1 && z.len() == n + 1,
            "symgs: vector lengths"
        );
        // Forward: (D + L) y = r over each block.
        y[n] = 0.0;
        for (width, rows, cols, coefs) in self.forward.segments() {
            forward(width, rows, cols, coefs, &self.diag, r, y);
        }
        // Backward: (D + U) z = D y over each block.
        z[n] = 0.0;
        for (width, rows, cols, coefs) in self.backward.segments() {
            backward(width, rows, cols, coefs, &self.diag, y, z);
        }
    }
}

/// `$kernel::<W>(1, ..)` for the `W` a segment's `$width` is, up to
/// [`MAX_WIDTH`]; a wider (padded) segment runs `width / MAX_WIDTH`
/// passes of the widest instance.
macro_rules! by_width {
    ($width:expr, $kernel:ident($($arg:expr),*)) => {
        match $width {
            0 => $kernel::<0>(1, $($arg),*),
            1 => $kernel::<1>(1, $($arg),*),
            2 => $kernel::<2>(1, $($arg),*),
            3 => $kernel::<3>(1, $($arg),*),
            4 => $kernel::<4>(1, $($arg),*),
            5 => $kernel::<5>(1, $($arg),*),
            6 => $kernel::<6>(1, $($arg),*),
            7 => $kernel::<7>(1, $($arg),*),
            8 => $kernel::<8>(1, $($arg),*),
            9 => $kernel::<9>(1, $($arg),*),
            10 => $kernel::<10>(1, $($arg),*),
            11 => $kernel::<11>(1, $($arg),*),
            12 => $kernel::<12>(1, $($arg),*),
            13 => $kernel::<13>(1, $($arg),*),
            14 => $kernel::<14>(1, $($arg),*),
            15 => $kernel::<15>(1, $($arg),*),
            16 => $kernel::<16>(1, $($arg),*),
            w => $kernel::<MAX_WIDTH>(w / MAX_WIDTH, $($arg),*),
        }
    };
}

/// The forward sweep over one segment's rows, `width` entries each:
/// `y[i] = (r[i] − Σ coef · y[col]) / d[i]`, the terms left to right.
/// Out of line, so the row loops have an address the build pins.
#[inline(never)]
fn forward(
    width: usize,
    rows: &[u32],
    cols: &[u32],
    coefs: &[f64],
    diag: &[f64],
    r: &[f64],
    y: &mut [f64],
) {
    by_width!(width, forward_rows(rows, cols, coefs, diag, r, y))
}

/// [`forward`] for rows of `passes` passes of exactly `W` entries: no
/// trip count the data decides.
#[inline(always)]
fn forward_rows<const W: usize>(
    passes: usize,
    rows: &[u32],
    cols: &[u32],
    coefs: &[f64],
    diag: &[f64],
    r: &[f64],
    y: &mut [f64],
) {
    for (t, &i) in rows.iter().enumerate() {
        let i = i as usize;
        let mut s = r[i];
        for pass in 0..passes {
            let at = (t * passes + pass) * W;
            let (c, v) = (&cols[at..at + W], &coefs[at..at + W]);
            for e in 0..W {
                s -= v[e] * y[c[e] as usize];
            }
        }
        y[i] = s / diag[i];
    }
}

/// The backward sweep over one segment's rows, `width` entries each:
/// `z[i] = (d[i] · y[i] + s) / d[i]` with `s = 0 − Σ coef · z[col]`, the
/// terms left to right. Out of line, as [`forward`].
#[inline(never)]
fn backward(
    width: usize,
    rows: &[u32],
    cols: &[u32],
    coefs: &[f64],
    diag: &[f64],
    y: &[f64],
    z: &mut [f64],
) {
    by_width!(width, backward_rows(rows, cols, coefs, diag, y, z))
}

/// [`backward`] for rows of `passes` passes of exactly `W` entries.
#[inline(always)]
fn backward_rows<const W: usize>(
    passes: usize,
    rows: &[u32],
    cols: &[u32],
    coefs: &[f64],
    diag: &[f64],
    y: &[f64],
    z: &mut [f64],
) {
    for (t, &i) in rows.iter().enumerate() {
        let i = i as usize;
        let d = diag[i];
        let mut s = 0.0;
        for pass in 0..passes {
            let at = (t * passes + pass) * W;
            let (c, v) = (&cols[at..at + W], &coefs[at..at + W]);
            for e in 0..W {
                s -= v[e] * z[c[e] as usize];
            }
        }
        z[i] = (d * y[i] + s) / d;
    }
}

/// The sweep pair written the obvious way — block after block, every
/// stored entry of a row examined — kept as the oracle the packed sweep
/// is compared against, bit for bit. Returns `(y, z)`.
#[cfg(test)]
pub(crate) fn symgs(a: &CsrMatrix, desc: &ArrayDescriptor, r: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = a.n_rows();
    let mut y = vec![0.0f64; n];
    let mut z = vec![0.0f64; n];
    for q in 0..desc.np() {
        let range = desc.contiguous_range(q).unwrap_or(0..0);
        let (lo, hi) = (range.start, range.end);
        // Forward: (D + L) y = r over the block.
        for i in lo..hi {
            let mut s = r[i];
            let mut d = 0.0;
            for (j, v) in a.row(i) {
                if j == i {
                    d = v;
                } else if j >= lo && j < i {
                    s -= v * y[j];
                }
            }
            y[i] = s / d;
        }
        // Backward: (D + U) z = D y over the block.
        for i in (lo..hi).rev() {
            let mut s = 0.0;
            let mut d = 0.0;
            for (j, v) in a.row(i) {
                if j == i {
                    d = v;
                } else if j > i && j < hi {
                    s -= v * z[j];
                }
            }
            z[i] = (d * y[i] + s) / d;
        }
    }
    (y, z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{GridDims, MgHierarchy};
    use hpf_sparse::gen;
    use proptest::prelude::*;

    /// The packed sweep into dirty buffers: `(y, z)` without their slots.
    fn planned(a: &CsrMatrix, desc: &ArrayDescriptor, r: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let plan = SweepPlan::plan(a, desc, 0).expect("sorted rows with diagonals");
        let n = a.n_rows();
        let mut y = vec![f64::NAN; n + 1];
        let mut z = vec![f64::NAN; n + 1];
        plan.symgs_into(r, &mut y, &mut z);
        y.truncate(n);
        z.truncate(n);
        (y, z)
    }

    fn probe(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64 * 37 + seed * 101) % 211) as f64 / 17.0 - 6.0)
            .collect()
    }

    /// Bits, with every NaN read as the one NaN: an add of two NaNs keeps
    /// either payload, and which one differs between codegens.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect()
    }

    /// The packed sweep's `y` and `z` against the reference's, bit for
    /// bit, on `np` blocks of `a`.
    fn assert_same_bits(what: &str, a: &CsrMatrix, np: usize, r: &[f64]) {
        let desc = ArrayDescriptor::block(a.n_rows(), np);
        let (want_y, want_z) = symgs(a, &desc, r);
        let (got_y, got_z) = planned(a, &desc, r);
        for (name, got, want) in [("y", got_y, want_y), ("z", got_z, want_z)] {
            let (got, want) = (bits(&got), bits(&want));
            if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
                panic!(
                    "{what}, np={np}: {name}[{i}]: {} vs {}",
                    f64::from_bits(got[i]),
                    f64::from_bits(want[i])
                );
            }
        }
    }

    /// On one processor the block is the whole matrix, so SymGS must
    /// satisfy M z = r with M = (D+L) D⁻¹ (D+U) exactly.
    #[test]
    fn single_block_symgs_inverts_the_symgs_matrix() {
        let a = gen::poisson_2d(5, 5);
        let n = a.n_rows();
        let desc = ArrayDescriptor::block(n, 1);
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).cos()).collect();
        let (_, z) = planned(&a, &desc, &r);
        // Rebuild M z by hand: u = (D+U) z, then M z = (D+L) D⁻¹ u.
        let d: Vec<f64> = a.diagonal();
        let mut u = vec![0.0; n];
        for i in 0..n {
            for (j, v) in a.row(i) {
                if j >= i {
                    u[i] += v * z[j];
                }
            }
        }
        for i in 0..n {
            let mut s = d[i] * (u[i] / d[i]);
            for (j, v) in a.row(i) {
                if j < i {
                    s += v * (u[j] / d[j]);
                }
            }
            assert!((s - r[i]).abs() < 1e-12, "row {i}: {s} vs {}", r[i]);
        }
    }

    /// The blockwise smoother is symmetric: rᵀ S r' == r'ᵀ S r.
    #[test]
    fn block_symgs_is_a_symmetric_operator() {
        let a = gen::poisson_2d(6, 6);
        let n = a.n_rows();
        let desc = ArrayDescriptor::block(n, 3);
        let r1: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let r2: Vec<f64> = (0..n).map(|i| ((i * 5 % 13) as f64) - 6.0).collect();
        let (_, s1) = planned(&a, &desc, &r1);
        let (_, s2) = planned(&a, &desc, &r2);
        let d1: f64 = r2.iter().zip(&s1).map(|(a, b)| a * b).sum();
        let d2: f64 = r1.iter().zip(&s2).map(|(a, b)| a * b).sum();
        assert!((d1 - d2).abs() < 1e-10 * d1.abs().max(1.0));
    }

    /// The Galerkin level operators (27-point, boundary-varying
    /// coefficients) over 1..=9 processors: at the coarsest levels blocks
    /// have one row or none, and at every block edge a row's lower or
    /// upper run is empty.
    #[test]
    fn planned_sweep_matches_the_reference_on_every_level_operator() {
        for (dims, levels) in [(GridDims::d2(15, 7), 3), (GridDims::d3(7, 7, 7), 3)] {
            let h = MgHierarchy::build(dims, levels, 1).unwrap();
            for level in 0..levels {
                let a = h.matrix(level);
                for np in 1..=9 {
                    let what = format!("{dims} level {level}");
                    assert_same_bits(&what, a, np, &probe(a.n_rows(), level as u64));
                }
            }
        }
    }

    /// A diagonal matrix has no runs at all; more processors than rows
    /// leaves most blocks empty.
    #[test]
    fn planned_sweep_handles_empty_runs_and_empty_blocks() {
        let n = 3;
        let a = CsrMatrix::from_raw(n, n, vec![0, 1, 2, 3], vec![0, 1, 2], vec![2.0, 4.0, 8.0])
            .unwrap();
        for np in 1..=9 {
            assert_same_bits("diagonal", &a, np, &probe(n, 5));
        }
    }

    /// The 31³ benchmark level and its 27-point coarsening split into the
    /// segments the plan is sized by, and pad only where a step's rows
    /// differ.
    #[test]
    fn segments_follow_the_longest_run_of_each_step() {
        let h = MgHierarchy::build(GridDims::d3(31, 31, 31), 2, 8).unwrap();
        let desc = ArrayDescriptor::block(h.matrix(0).n_rows(), 8);
        let plan = SweepPlan::plan(h.matrix(0), &desc, 0).unwrap();
        let rows = |s: &Stream| {
            s.segments()
                .map(|(width, rows, ..)| (width, rows.len()))
                .collect::<Vec<_>>()
        };
        // Blocks of 3,724 rows (the last 3,723): no lower neighbour in the
        // block at step 0, row − 1 from step 1, − 31 from 31, − 961 from
        // 961. Seven blocks step 3,723 alone.
        assert_eq!(
            rows(&plan.forward),
            [(0, 8), (1, 30 * 8), (2, 930 * 8), (3, 2763 * 8 - 1)]
        );
        assert_eq!(
            rows(&plan.backward)[0],
            (0, 7),
            "the last row of a block has no upper run"
        );
        let level1 = SweepPlan::plan(
            h.matrix(1),
            &ArrayDescriptor::block(h.matrix(1).n_rows(), 8),
            1,
        )
        .unwrap();
        assert_eq!(level1.forward.segments.len(), 14);
        assert_eq!(level1.forward.segments.last().unwrap().1, 13);
    }

    #[test]
    fn plan_rejects_rows_it_cannot_sweep() {
        let desc = ArrayDescriptor::block(2, 2);
        // Row 1 lists column 1 before column 0.
        let unsorted =
            CsrMatrix::from_raw(2, 2, vec![0, 1, 3], vec![0, 1, 0], vec![2.0, 2.0, -1.0]).unwrap();
        assert_eq!(
            SweepPlan::plan(&unsorted, &desc, 1).unwrap_err(),
            MgError::UnsortedRow { level: 1, row: 1 }
        );
        // A column stored twice is not an ascending row either.
        let repeated =
            CsrMatrix::from_raw(2, 2, vec![0, 2, 3], vec![0, 0, 1], vec![1.0, 1.0, 2.0]).unwrap();
        assert_eq!(
            SweepPlan::plan(&repeated, &desc, 0).unwrap_err(),
            MgError::UnsortedRow { level: 0, row: 0 }
        );
        // Row 1 stores only its off-diagonal entry.
        let no_diagonal =
            CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 0], vec![2.0, -1.0]).unwrap();
        assert_eq!(
            SweepPlan::plan(&no_diagonal, &desc, 2).unwrap_err(),
            MgError::MissingDiagonal { level: 2, row: 1 }
        );
        // An empty row has no diagonal.
        let empty_row = CsrMatrix::from_raw(2, 2, vec![0, 1, 1], vec![0], vec![2.0]).unwrap();
        assert_eq!(
            SweepPlan::plan(&empty_row, &desc, 0).unwrap_err(),
            MgError::MissingDiagonal { level: 0, row: 1 }
        );
    }

    /// `a` with the stored off-diagonal entries `zeros` picks (positions
    /// taken mod its entry count) set to `+0.0` or `−0.0`.
    fn with_stored_zeros(a: &CsrMatrix, zeros: &[(usize, bool)]) -> CsrMatrix {
        let mut values = a.values().to_vec();
        for &(at, negative) in zeros {
            let k = at % values.len();
            let row = a.row_ptr().partition_point(|&p| p <= k) - 1;
            if a.col_idx()[k] != row {
                values[k] = if negative { -0.0 } else { 0.0 };
            }
        }
        let (n, ptr, cols) = (a.n_rows(), a.row_ptr(), a.col_idx());
        CsrMatrix::from_raw(n, n, ptr.to_vec(), cols.to_vec(), values).unwrap()
    }

    const SPECIALS: [f64; 5] = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The packed, lock-step sweep gives the reference's `y` and `z`
        /// on every generator family and block count: rows wider than
        /// the widest kernel instance (the wide band), stored `±0.0`
        /// coefficients, and right-hand sides of all `−0.0` or holding
        /// `±0.0`, NaN and ±∞.
        #[test]
        fn planned_sweep_matches_the_reference_bit_for_bit(
            family in 0usize..5,
            size in 2usize..9,
            np in 1usize..=9,
            seed in 0u64..1000,
            zeros in proptest::collection::vec((0usize..10_000, any::<bool>()), 0..6),
            negative_zero_rhs in any::<bool>(),
            specials in proptest::collection::vec((0usize..10_000, 0usize..5), 0..6),
        ) {
            let a = match family {
                0 => gen::poisson_2d(size, size + 1),
                1 => gen::poisson_3d(size.min(5), 3, size.min(4)),
                2 => gen::banded_spd(size * 4, 1 + size % 4, seed),
                3 => gen::random_spd(size * 4, 1 + size % 5, seed),
                _ => gen::banded_spd(size * 8, 14 + 3 * size, seed),
            };
            let a = with_stored_zeros(&a, &zeros);
            let n = a.n_rows();
            let mut r = if negative_zero_rhs { vec![-0.0; n] } else { probe(n, seed) };
            for &(at, special) in &specials {
                r[at % n] = SPECIALS[special];
            }
            assert_same_bits("generated", &a, np, &r);
        }
    }
}
