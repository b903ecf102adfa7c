//! Coordinate (triplet) sparse format — the assembly format.
//!
//! COO is the natural target of matrix generators and file readers; it is
//! converted to CSR/CSC (the paper's two storage schemes, Section 3) for
//! computation.

use crate::dense::DenseMatrix;
use crate::error::SparseError;

/// One (row, column, value) triplet.
pub type Triplet = (usize, usize, f64);

/// Coordinate-format sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    n_rows: usize,
    n_cols: usize,
    entries: Vec<Triplet>,
}

impl CooMatrix {
    /// Empty matrix of the given shape.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        CooMatrix {
            n_rows,
            n_cols,
            entries: Vec::new(),
        }
    }

    /// Build from triplets, validating indices. Duplicate coordinates are
    /// rejected (use [`CooMatrix::from_triplets_summing`] to accumulate).
    pub fn from_triplets(
        n_rows: usize,
        n_cols: usize,
        triplets: Vec<Triplet>,
    ) -> Result<Self, SparseError> {
        let mut m = CooMatrix::new(n_rows, n_cols);
        for (r, c, v) in triplets {
            m.push(r, c, v)?;
        }
        let mut seen: Vec<(usize, usize)> = m.entries.iter().map(|&(r, c, _)| (r, c)).collect();
        seen.sort_unstable();
        for w in seen.windows(2) {
            if w[0] == w[1] {
                return Err(SparseError::DuplicateEntry {
                    row: w[0].0,
                    col: w[0].1,
                });
            }
        }
        Ok(m)
    }

    /// Build from triplets, summing duplicate coordinates (finite-element
    /// style assembly).
    pub fn from_triplets_summing(
        n_rows: usize,
        n_cols: usize,
        mut triplets: Vec<Triplet>,
    ) -> Result<Self, SparseError> {
        for &(r, c, _) in &triplets {
            Self::check_bounds(n_rows, n_cols, r, c)?;
        }
        triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut entries: Vec<Triplet> = Vec::with_capacity(triplets.len());
        for (r, c, v) in triplets {
            match entries.last_mut() {
                Some(&mut (lr, lc, ref mut lv)) if lr == r && lc == c => *lv += v,
                _ => entries.push((r, c, v)),
            }
        }
        Ok(CooMatrix {
            n_rows,
            n_cols,
            entries,
        })
    }

    fn check_bounds(n_rows: usize, n_cols: usize, r: usize, c: usize) -> Result<(), SparseError> {
        if r >= n_rows {
            return Err(SparseError::IndexOutOfBounds {
                what: "row",
                index: r,
                bound: n_rows,
            });
        }
        if c >= n_cols {
            return Err(SparseError::IndexOutOfBounds {
                what: "col",
                index: c,
                bound: n_cols,
            });
        }
        Ok(())
    }

    /// Append one entry (no duplicate check).
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<(), SparseError> {
        Self::check_bounds(self.n_rows, self.n_cols, row, col)?;
        self.entries.push((row, col, value));
        Ok(())
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    pub fn entries(&self) -> &[Triplet] {
        &self.entries
    }

    /// Drop explicit zeros.
    pub fn prune_zeros(&mut self) {
        self.entries.retain(|&(_, _, v)| v != 0.0);
    }

    /// Sort entries row-major (row, then column) in place.
    pub fn sort_row_major(&mut self) {
        self.entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
    }

    /// Sort entries column-major (column, then row) in place.
    pub fn sort_col_major(&mut self) {
        self.entries.sort_unstable_by_key(|&(r, c, _)| (c, r));
    }

    /// Convert to a dense matrix (summing duplicates).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.n_rows, self.n_cols);
        for &(r, c, v) in &self.entries {
            d[(r, c)] += v;
        }
        d
    }

    /// Build from a dense matrix, keeping non-zero entries.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        let mut m = CooMatrix::new(d.n_rows(), d.n_cols());
        for i in 0..d.n_rows() {
            for (j, &v) in d.row(i).iter().enumerate() {
                if v != 0.0 {
                    m.entries.push((i, j, v));
                }
            }
        }
        m
    }

    /// Transpose (swap row/column of every entry).
    pub fn transpose(&self) -> CooMatrix {
        CooMatrix {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            entries: self.entries.iter().map(|&(r, c, v)| (c, r, v)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_validates_bounds() {
        let mut m = CooMatrix::new(2, 2);
        assert!(m.push(0, 0, 1.0).is_ok());
        assert!(matches!(
            m.push(2, 0, 1.0),
            Err(SparseError::IndexOutOfBounds { what: "row", .. })
        ));
        assert!(matches!(
            m.push(0, 5, 1.0),
            Err(SparseError::IndexOutOfBounds { what: "col", .. })
        ));
    }

    #[test]
    fn duplicates_rejected() {
        let err = CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0)]).unwrap_err();
        assert_eq!(err, SparseError::DuplicateEntry { row: 0, col: 0 });
    }

    #[test]
    fn duplicates_summed_when_asked() {
        let m = CooMatrix::from_triplets_summing(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0)])
            .unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.to_dense()[(0, 0)], 3.0);
    }

    #[test]
    fn dense_roundtrip() {
        let d = DenseMatrix::from_rows(&[vec![0.0, 1.5], vec![2.5, 0.0]]).unwrap();
        let coo = CooMatrix::from_dense(&d);
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.to_dense(), d);
    }

    #[test]
    fn transpose_swaps_shape() {
        let m = CooMatrix::from_triplets(2, 3, vec![(0, 2, 7.0)]).unwrap();
        let t = m.transpose();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.entries()[0], (2, 0, 7.0));
    }

    #[test]
    fn prune_zeros_removes_explicit_zeros() {
        let mut m = CooMatrix::from_triplets(2, 2, vec![(0, 0, 0.0), (1, 1, 1.0)]).unwrap();
        m.prune_zeros();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn sorting_orders() {
        let mut m =
            CooMatrix::from_triplets(2, 2, vec![(1, 0, 1.0), (0, 1, 2.0), (0, 0, 3.0)]).unwrap();
        m.sort_row_major();
        assert_eq!(
            m.entries()
                .iter()
                .map(|&(r, c, _)| (r, c))
                .collect::<Vec<_>>(),
            vec![(0, 0), (0, 1), (1, 0)]
        );
        m.sort_col_major();
        assert_eq!(
            m.entries()
                .iter()
                .map(|&(r, c, _)| (r, c))
                .collect::<Vec<_>>(),
            vec![(0, 0), (1, 0), (0, 1)]
        );
    }
}
