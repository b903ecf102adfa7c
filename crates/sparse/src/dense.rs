//! Dense (full-storage) matrix.
//!
//! The paper's Section 3 motivation: "for some very large application
//! problems it would be simply impractical to store the matrix as a dense
//! array". The dense format is kept as the reference for correctness
//! checks and for the dense-layout matvec scenarios of Section 4.

use crate::error::SparseError;

/// Row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// All-zero matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        DenseMatrix {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    pub fn from_row_major(
        n_rows: usize,
        n_cols: usize,
        data: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if data.len() != n_rows * n_cols {
            return Err(SparseError::DimensionMismatch(format!(
                "need {} elements for {}x{}, got {}",
                n_rows * n_cols,
                n_rows,
                n_cols,
                data.len()
            )));
        }
        Ok(DenseMatrix {
            n_rows,
            n_cols,
            data,
        })
    }

    /// Build from nested row slices (rows of equal length).
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, SparseError> {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.len());
        for (i, r) in rows.iter().enumerate() {
            if r.len() != n_cols {
                return Err(SparseError::DimensionMismatch(format!(
                    "row {i} has {} columns, expected {n_cols}",
                    r.len()
                )));
            }
        }
        Ok(DenseMatrix {
            n_rows,
            n_cols,
            data: rows.concat(),
        })
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    pub fn is_square(&self) -> bool {
        self.n_rows == self.n_cols
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Mutable row access.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Number of structurally non-zero entries (exact zeros skipped).
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&x| x != 0.0).count()
    }

    /// Dense matrix–vector product `y = A x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, SparseError> {
        if x.len() != self.n_cols {
            return Err(SparseError::DimensionMismatch(format!(
                "matvec: x has {} entries, matrix has {} columns",
                x.len(),
                self.n_cols
            )));
        }
        let mut y = vec![0.0; self.n_rows];
        for i in 0..self.n_rows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, &xv) in row.iter().zip(x.iter()) {
                acc += a * xv;
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// Transposed product `y = Aᵀ x`.
    pub fn matvec_transpose(&self, x: &[f64]) -> Result<Vec<f64>, SparseError> {
        if x.len() != self.n_rows {
            return Err(SparseError::DimensionMismatch(format!(
                "matvec_transpose: x has {} entries, matrix has {} rows",
                x.len(),
                self.n_rows
            )));
        }
        let mut y = vec![0.0; self.n_cols];
        for i in 0..self.n_rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for (j, &a) in self.row(i).iter().enumerate() {
                y[j] += a * xi;
            }
        }
        Ok(y)
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.n_cols, self.n_rows);
        for i in 0..self.n_rows {
            for j in 0..self.n_cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Symmetry test within absolute tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.n_rows {
            for j in (i + 1)..self.n_cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Maximum absolute element-wise difference against `other`.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(self.n_rows, other.n_rows);
        assert_eq!(self.n_cols, other.n_cols);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.n_rows && j < self.n_cols, "index out of bounds");
        &self.data[i * self.n_cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.n_rows && j < self.n_cols, "index out of bounds");
        &mut self.data[i * self.n_cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_identity() {
        let m = DenseMatrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(m.matvec(&x).unwrap(), x);
    }

    #[test]
    fn from_rows_and_index() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, SparseError::DimensionMismatch(_)));
    }

    #[test]
    fn matvec_known_answer() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
    }

    #[test]
    fn matvec_dimension_check() {
        let m = DenseMatrix::zeros(2, 3);
        assert!(m.matvec(&[1.0, 2.0]).is_err());
        assert!(m.matvec(&[1.0, 2.0, 3.0]).is_ok());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_transpose_equals_transpose_matvec() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let x = vec![1.0, -1.0];
        assert_eq!(
            m.matvec_transpose(&x).unwrap(),
            m.transpose().matvec(&x).unwrap()
        );
    }

    #[test]
    fn symmetry_check() {
        let s = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        assert!(s.is_symmetric(0.0));
        let a = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![0.0, 2.0]]).unwrap();
        assert!(!a.is_symmetric(1e-12));
        assert!(!DenseMatrix::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    fn nnz_skips_zeros() {
        let m = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 0.0]]).unwrap();
        assert_eq!(m.nnz(), 2);
    }
}
