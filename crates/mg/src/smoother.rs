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
//! diagonal, and those above it one run starting after it. A
//! [`SweepPlan`] finds the three positions once per level; the forward
//! sweep then reads the lower run only and the backward sweep the upper
//! run only — half the stored entries each, and no comparison per entry.
//!
//! No coupling crosses a block, so row `k` of one block never waits for
//! row `k` of another: the sweeps step `k` in the outer loop and the
//! block in the inner one, which hands the host `np` independent
//! subtract→divide chains to overlap. Each block still sees its own
//! rows in its own order, one operation after the other exactly as a
//! block-after-block sweep performs them, so the result is the same to
//! the bit.

use crate::hierarchy::{proc_rows, MgError};
use hpf_dist::ArrayDescriptor;
use hpf_sparse::CsrMatrix;
use std::ops::Range;

/// CSR positions of one row's in-block couplings: `lower..diag` is the
/// run below the diagonal, `diag` the diagonal itself, `diag + 1..upper`
/// the run above it.
#[derive(Debug, Clone, Copy)]
struct RowRuns {
    lower: usize,
    diag: usize,
    upper: usize,
}

/// Where block SymGS reads one level's operator, fixed by the matrix
/// structure and the `(BLOCK)` ownership of its rows.
#[derive(Debug)]
pub(crate) struct SweepPlan {
    rows: Vec<RowRuns>,
    /// Rows of each processor's diagonal block (empty for a processor
    /// that owns none).
    blocks: Vec<Range<usize>>,
    longest_block: usize,
}

impl SweepPlan {
    /// Locate every row's runs in `a` (the operator of `level`, owned by
    /// rows as `desc` says). A row whose columns do not ascend strictly,
    /// or that stores no diagonal, cannot be swept and is rejected.
    pub fn plan(a: &CsrMatrix, desc: &ArrayDescriptor, level: usize) -> Result<Self, MgError> {
        let (row_ptr, col_idx) = (a.row_ptr(), a.col_idx());
        let blocks: Vec<Range<usize>> = (0..desc.np()).map(|q| proc_rows(desc, q)).collect();
        let mut rows = Vec::with_capacity(a.n_rows());
        for block in &blocks {
            for i in block.clone() {
                assert_eq!(rows.len(), i, "the blocks tile the rows in order");
                let start = row_ptr[i];
                let cols = &col_idx[start..row_ptr[i + 1]];
                if cols.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(MgError::UnsortedRow { level, row: i });
                }
                let diag = cols.partition_point(|&c| c < i);
                if cols.get(diag) != Some(&i) {
                    return Err(MgError::MissingDiagonal { level, row: i });
                }
                rows.push(RowRuns {
                    lower: start + cols.partition_point(|&c| c < block.start),
                    diag: start + diag,
                    upper: start + cols.partition_point(|&c| c < block.end),
                });
            }
        }
        assert_eq!(rows.len(), a.n_rows(), "the blocks cover every row");
        let longest_block = blocks.iter().map(Range::len).max().unwrap_or(0);
        Ok(SweepPlan {
            rows,
            blocks,
            longest_block,
        })
    }

    /// One symmetric Gauss-Seidel sweep pair over every processor's
    /// diagonal block: `z ≈ M⁻¹ r`, with the forward sweep's `y` left in
    /// its buffer. `y` and `z` are overwritten and need not be zeroed:
    /// a sweep reads only entries it has already written.
    ///
    /// `a` must be the matrix the plan was made for.
    pub fn symgs_into(&self, a: &CsrMatrix, r: &[f64], y: &mut [f64], z: &mut [f64]) {
        let n = self.rows.len();
        assert_eq!(a.n_rows(), n, "symgs: operator rows");
        assert!(
            r.len() == n && y.len() == n && z.len() == n,
            "symgs: vector lengths"
        );
        let (col_idx, values) = (a.col_idx(), a.values());
        // Forward: (D + L) y = r over each block.
        for k in 0..self.longest_block {
            for block in &self.blocks {
                let i = block.start + k;
                if i >= block.end {
                    continue;
                }
                let RowRuns { lower, diag, .. } = self.rows[i];
                let mut s = r[i];
                for (&v, &j) in values[lower..diag].iter().zip(&col_idx[lower..diag]) {
                    s -= v * y[j];
                }
                y[i] = s / values[diag];
            }
        }
        // Backward: (D + U) z = D y over each block.
        for k in (0..self.longest_block).rev() {
            for block in &self.blocks {
                let i = block.start + k;
                if i >= block.end {
                    continue;
                }
                let RowRuns { diag, upper, .. } = self.rows[i];
                let d = values[diag];
                let mut s = 0.0;
                for (&v, &j) in values[diag + 1..upper]
                    .iter()
                    .zip(&col_idx[diag + 1..upper])
                {
                    s -= v * z[j];
                }
                z[i] = (d * y[i] + s) / d;
            }
        }
    }
}

/// The sweep pair written the obvious way — block after block, every
/// stored entry of a row examined — kept as the oracle the planned
/// sweep is compared against, bit for bit.
#[cfg(test)]
pub(crate) fn symgs(a: &CsrMatrix, desc: &ArrayDescriptor, r: &[f64]) -> Vec<f64> {
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
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{GridDims, MgHierarchy};
    use hpf_sparse::gen;
    use proptest::prelude::*;

    /// The planned sweep into dirty buffers.
    fn planned(a: &CsrMatrix, desc: &ArrayDescriptor, r: &[f64]) -> Vec<f64> {
        let plan = SweepPlan::plan(a, desc, 0).expect("sorted rows with diagonals");
        let n = a.n_rows();
        let mut y = vec![f64::NAN; n];
        let mut z = vec![f64::NAN; n];
        plan.symgs_into(a, r, &mut y, &mut z);
        z
    }

    fn probe(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64 * 37 + seed * 101) % 211) as f64 / 17.0 - 6.0)
            .collect()
    }

    fn assert_same_bits(what: &str, a: &CsrMatrix, np: usize, seed: u64) {
        let n = a.n_rows();
        let desc = ArrayDescriptor::block(n, np);
        let r = probe(n, seed);
        let want = symgs(a, &desc, &r);
        let got = planned(a, &desc, &r);
        for i in 0..n {
            assert_eq!(
                got[i].to_bits(),
                want[i].to_bits(),
                "{what}, np={np}: row {i}: {} vs {}",
                got[i],
                want[i]
            );
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
        let z = planned(&a, &desc, &r);
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
        let s1 = planned(&a, &desc, &r1);
        let s2 = planned(&a, &desc, &r2);
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
                for np in 1..=9 {
                    let what = format!("{dims} level {level}");
                    assert_same_bits(&what, h.matrix(level), np, level as u64);
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
            assert_same_bits("diagonal", &a, np, 5);
        }
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The planned, round-robin sweep gives the bits of the
        /// reference on every generator family and block count.
        #[test]
        fn planned_sweep_matches_the_reference_bit_for_bit(
            family in 0usize..4,
            size in 2usize..9,
            np in 1usize..=9,
            seed in 0u64..1000,
        ) {
            let a = match family {
                0 => gen::poisson_2d(size, size + 1),
                1 => gen::poisson_3d(size.min(5), 3, size.min(4)),
                2 => gen::banded_spd(size * 4, 1 + size % 4, seed),
                _ => gen::random_spd(size * 4, 1 + size % 5, seed),
            };
            assert_same_bits("generated", &a, np, seed);
        }
    }
}
