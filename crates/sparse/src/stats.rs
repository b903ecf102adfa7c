//! Sparsity-structure statistics.
//!
//! The proposed extensions of the paper's Section 5.2 are justified by
//! structural properties: "the uniform or regular sparse block
//! distribution can be used in cases where each sparse matrix row (or
//! column) is known to have approximately the same number of elements"
//! versus irregular structures needing a load-balancing partitioner.
//! These metrics quantify that choice.

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;

/// Summary statistics of a nonzero-count distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NnzStats {
    pub min: usize,
    pub max: usize,
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// `max / mean` — 1.0 means perfectly uniform. This is the load
    /// imbalance a naive one-row-per-processor distribution would see.
    pub imbalance: f64,
}

impl NnzStats {
    pub fn from_counts(counts: &[usize]) -> Self {
        assert!(!counts.is_empty());
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        let var = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / counts.len() as f64;
        NnzStats {
            min,
            max,
            mean,
            std_dev: var.sqrt(),
            imbalance: if mean == 0.0 { 1.0 } else { max as f64 / mean },
        }
    }

    /// Is the structure "approximately uniform" in the paper's Section
    /// 5.2.1 sense? (heuristic: max within `factor` of mean)
    pub fn is_uniform(&self, factor: f64) -> bool {
        self.imbalance <= factor
    }
}

/// Per-row nonzero counts of a CSR matrix.
pub fn row_nnz_counts(a: &CsrMatrix) -> Vec<usize> {
    (0..a.n_rows()).map(|i| a.row_nnz(i)).collect()
}

/// Per-column nonzero counts of a CSC matrix.
pub fn col_nnz_counts(a: &CscMatrix) -> Vec<usize> {
    (0..a.n_cols()).map(|j| a.col_nnz(j)).collect()
}

/// Row-count statistics of a CSR matrix.
pub fn row_stats(a: &CsrMatrix) -> NnzStats {
    NnzStats::from_counts(&row_nnz_counts(a))
}

/// Column-count statistics of a CSC matrix.
pub fn col_stats(a: &CscMatrix) -> NnzStats {
    NnzStats::from_counts(&col_nnz_counts(a))
}

/// Matrix bandwidth: max |i - j| over stored entries.
pub fn bandwidth(a: &CsrMatrix) -> usize {
    let mut bw = 0usize;
    for i in 0..a.n_rows() {
        for (j, _) in a.row(i) {
            bw = bw.max(i.abs_diff(j));
        }
    }
    bw
}

/// Density: nnz / (rows * cols).
pub fn density(a: &CsrMatrix) -> f64 {
    if a.n_rows() == 0 || a.n_cols() == 0 {
        return 0.0;
    }
    a.nnz() as f64 / (a.n_rows() as f64 * a.n_cols() as f64)
}

/// Histogram of row nnz with `buckets` equal-width bins over
/// `[0, max_nnz]`. Returns (bin upper bounds, counts).
pub fn row_nnz_histogram(a: &CsrMatrix, buckets: usize) -> (Vec<usize>, Vec<usize>) {
    assert!(buckets > 0);
    let counts = row_nnz_counts(a);
    let max = counts.iter().copied().max().unwrap_or(0).max(1);
    let width = max.div_ceil(buckets);
    let mut hist = vec![0usize; buckets];
    for &c in &counts {
        let b = (c / width).min(buckets - 1);
        hist[b] += 1;
    }
    let bounds = (1..=buckets).map(|b| b * width).collect();
    (bounds, hist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn uniform_matrix_has_low_imbalance() {
        let a = gen::poisson_2d(10, 10);
        let s = row_stats(&a);
        assert!(s.is_uniform(1.5), "poisson should be near-uniform: {s:?}");
        assert_eq!(s.max, 5);
        assert_eq!(s.min, 3);
    }

    #[test]
    fn power_law_matrix_has_high_imbalance() {
        let a = gen::power_law_spd(300, 80, 1.0, 5);
        let s = row_stats(&a);
        assert!(!s.is_uniform(2.0), "power-law should be irregular: {s:?}");
        assert!(s.imbalance > 2.0);
    }

    #[test]
    fn stats_of_constant_counts() {
        let s = NnzStats::from_counts(&[4, 4, 4, 4]);
        assert_eq!(s.min, 4);
        assert_eq!(s.max, 4);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.imbalance, 1.0);
    }

    #[test]
    fn bandwidth_of_tridiagonal() {
        let a = gen::tridiagonal(10, 2.0, -1.0);
        assert_eq!(bandwidth(&a), 1);
        let p = gen::poisson_2d(4, 4);
        assert_eq!(bandwidth(&p), 4); // ny = 4 stride
    }

    #[test]
    fn density_of_identity() {
        let a = gen::tridiagonal(1, 1.0, 0.0);
        assert_eq!(density(&a), 1.0);
        let p = gen::poisson_2d(10, 10);
        assert!(density(&p) < 0.05);
    }

    #[test]
    fn histogram_buckets_cover_all_rows() {
        let a = gen::power_law_spd(100, 30, 0.8, 1);
        let (_bounds, hist) = row_nnz_histogram(&a, 8);
        assert_eq!(hist.iter().sum::<usize>(), 100);
    }

    #[test]
    fn col_stats_match_row_stats_for_symmetric() {
        let a = gen::random_spd(40, 3, 2);
        let csc = crate::csc::CscMatrix::from_csr(&a);
        let rs = row_stats(&a);
        let cs = col_stats(&csc);
        assert_eq!(rs.min, cs.min);
        assert_eq!(rs.max, cs.max);
        assert_eq!(rs.mean, cs.mean);
    }
}
