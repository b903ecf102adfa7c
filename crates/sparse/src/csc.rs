//! Compressed Sparse Column (CSC) storage — the paper's Figure 1 scheme.
//!
//! "The Compressed Sparse Column (CSC) storage scheme ... uses the
//! following three arrays to store an n x n sparse matrix with nz
//! non-zero entries:
//!
//! * `a(nz)` containing the nonzero elements stored in the order of their
//!   columns from 1 to n.
//! * `row(nz)` that stores the row numbers of each nonzero element.
//! * `col(n+1)` whose jth entry points to the first entry of the j'th
//!   column in A and row."

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::SparseError;

/// Compressed Sparse Column matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    n_rows: usize,
    n_cols: usize,
    /// `col` in the paper: `col_ptr[j]..col_ptr[j+1]` spans column `j`.
    col_ptr: Vec<usize>,
    /// `row` in the paper: the row of each stored value.
    row_idx: Vec<usize>,
    /// `a` in the paper: the stored values, column by column.
    values: Vec<f64>,
}

impl CscMatrix {
    /// Build directly from raw arrays, validating the invariants.
    pub fn from_raw(
        n_rows: usize,
        n_cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        if col_ptr.len() != n_cols + 1 {
            return Err(SparseError::MalformedPointer(format!(
                "col_ptr has length {}, expected {}",
                col_ptr.len(),
                n_cols + 1
            )));
        }
        if col_ptr[0] != 0 {
            return Err(SparseError::MalformedPointer(
                "col_ptr[0] must be 0".to_string(),
            ));
        }
        if *col_ptr.last().unwrap() != values.len() {
            return Err(SparseError::MalformedPointer(format!(
                "col_ptr[n] = {} but there are {} values",
                col_ptr.last().unwrap(),
                values.len()
            )));
        }
        if row_idx.len() != values.len() {
            return Err(SparseError::DimensionMismatch(format!(
                "row_idx has {} entries, values has {}",
                row_idx.len(),
                values.len()
            )));
        }
        if col_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::MalformedPointer(
                "col_ptr must be non-decreasing".to_string(),
            ));
        }
        for &r in &row_idx {
            if r >= n_rows {
                return Err(SparseError::IndexOutOfBounds {
                    what: "row",
                    index: r,
                    bound: n_rows,
                });
            }
        }
        Ok(CscMatrix {
            n_rows,
            n_cols,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Build from COO, sorting column-major and summing duplicates.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let mut entries = coo.entries().to_vec();
        entries.sort_unstable_by_key(|&(r, c, _)| (c, r));
        let n_cols = coo.n_cols();
        let mut col_ptr = vec![0usize; n_cols + 1];
        let mut row_idx = Vec::with_capacity(entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(entries.len());
        let mut prev: Option<(usize, usize)> = None;
        for (r, c, v) in entries {
            if prev == Some((c, r)) {
                *values.last_mut().unwrap() += v;
            } else {
                row_idx.push(r);
                values.push(v);
                col_ptr[c + 1] = row_idx.len();
                prev = Some((c, r));
            }
        }
        for j in 1..=n_cols {
            if col_ptr[j] < col_ptr[j - 1] {
                col_ptr[j] = col_ptr[j - 1];
            }
        }
        CscMatrix {
            n_rows: coo.n_rows(),
            n_cols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Build from a dense matrix.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        Self::from_coo(&CooMatrix::from_dense(d))
    }

    /// Build from CSR (format conversion; O(nnz log nnz)).
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        Self::from_coo(&csr.to_coo())
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    pub fn is_square(&self) -> bool {
        self.n_rows == self.n_cols
    }

    /// The paper's `col(n+1)` pointer array.
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The paper's `row(nz)` index array.
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// The paper's `a(nz)` value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// (row, value) pairs of column `j`.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.col_ptr[j]..self.col_ptr[j + 1];
        self.row_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// Number of stored entries in column `j`.
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Value at `(i, j)` (zero if not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.col(j).find(|&(r, _)| r == i).map_or(0.0, |(_, v)| v)
    }

    /// Serial CSC matvec `q = A p` — the paper's Section 4 Scenario 2
    /// kernel, with its many-to-one accumulation into `q(row(k))`:
    ///
    /// ```fortran
    /// DO j = 1, n
    ///   pj = p(j)
    ///   DO k = col(j), col(j+1)-1
    ///     q(row(k)) = q(row(k)) + a(k)*pj
    /// ```
    pub fn matvec(&self, p: &[f64]) -> Result<Vec<f64>, SparseError> {
        if p.len() != self.n_cols {
            return Err(SparseError::DimensionMismatch(format!(
                "matvec: x has {} entries, matrix has {} columns",
                p.len(),
                self.n_cols
            )));
        }
        let mut q = vec![0.0; self.n_rows];
        self.matvec_cols_accumulate(0..self.n_cols, p, &mut q);
        Ok(q)
    }

    /// The one CSC product kernel: `out += A(:, cols) · p(cols)`, the
    /// scatter of the columns in `cols` taken in ascending order, each
    /// entry as `out[row(k)] += a(k) * p[j]`. `out` is added to, not
    /// zeroed; a column whose `p[j]` is exactly zero is skipped. Starting
    /// from an `out` of `+0.0`, no entry can become `-0.0` (a sum is
    /// `-0.0` only when both terms are).
    ///
    /// Panics if `p` is not `n_cols` long, `cols` leaves the matrix, or
    /// `out` is not `n_rows` long.
    pub fn matvec_cols_accumulate(&self, cols: std::ops::Range<usize>, p: &[f64], out: &mut [f64]) {
        assert_eq!(p.len(), self.n_cols, "matvec: operand length");
        assert_eq!(out.len(), self.n_rows, "matvec: result length");
        let ends = &self.col_ptr[cols.start + 1..=cols.end];
        let mut lo = self.col_ptr[cols.start];
        for (&pj, &hi) in p[cols].iter().zip(ends) {
            if pj != 0.0 {
                for (&r, &a) in self.row_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                    out[r] += a * pj;
                }
            }
            lo = hi;
        }
    }

    /// `q = Aᵀ p`: in CSC this is a clean per-column gather (the dual of
    /// CSR's row kernel).
    pub fn matvec_transpose(&self, p: &[f64]) -> Result<Vec<f64>, SparseError> {
        if p.len() != self.n_rows {
            return Err(SparseError::DimensionMismatch(format!(
                "matvec_transpose: x has {} entries, matrix has {} rows",
                p.len(),
                self.n_rows
            )));
        }
        let mut q = vec![0.0; self.n_cols];
        self.matvec_transpose_into(p, &mut q);
        Ok(q)
    }

    /// The one transpose-product kernel: `out = Aᵀ p`, overwriting `out`
    /// (which need not be zeroed); `out[j]` is column `j`'s dot product
    /// with `p`, accumulated top to bottom from `0.0`.
    ///
    /// Panics if `p` is not `n_rows` long or `out` not `n_cols` long.
    pub fn matvec_transpose_into(&self, p: &[f64], out: &mut [f64]) {
        assert_eq!(p.len(), self.n_rows, "matvec_transpose: operand length");
        assert_eq!(out.len(), self.n_cols, "matvec_transpose: result length");
        let mut lo = self.col_ptr[0];
        for (qj, &hi) in out.iter_mut().zip(&self.col_ptr[1..]) {
            let mut acc = 0.0;
            for (&a, &r) in self.values[lo..hi].iter().zip(&self.row_idx[lo..hi]) {
                acc += a * p[r];
            }
            *qj = acc;
            lo = hi;
        }
    }

    /// Convert to COO.
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::new(self.n_rows, self.n_cols);
        for j in 0..self.n_cols {
            for (r, v) in self.col(j) {
                coo.push(r, j, v)
                    .expect("indices validated at construction");
            }
        }
        coo
    }

    /// Convert to CSR.
    pub fn to_csr(&self) -> CsrMatrix {
        CsrMatrix::from_coo(&self.to_coo())
    }

    /// Convert to dense.
    pub fn to_dense(&self) -> DenseMatrix {
        self.to_coo().to_dense()
    }

    /// Extract the main diagonal.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.n_rows.min(self.n_cols);
        (0..n).map(|i| self.get(i, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact 6x6 matrix of the paper's Figure 1.
    fn figure1_matrix() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            vec![11.0, 12.0, 0.0, 0.0, 15.0, 0.0],
            vec![21.0, 22.0, 0.0, 24.0, 0.0, 26.0],
            vec![31.0, 0.0, 33.0, 0.0, 0.0, 0.0],
            vec![0.0, 42.0, 0.0, 44.0, 0.0, 0.0],
            vec![51.0, 0.0, 0.0, 0.0, 55.0, 0.0],
            vec![0.0, 62.0, 0.0, 0.0, 0.0, 66.0],
        ])
        .unwrap()
    }

    #[test]
    fn figure1_csc_layout_matches_paper() {
        // Figure 1 lists a = (a11 a21 a31 a51 | a12 a22 a42 a62 | a33 |
        // a24 a44 | a15 a55 | a26 a66) in column order.
        let csc = CscMatrix::from_dense(&figure1_matrix());
        assert_eq!(csc.nnz(), 15);
        assert_eq!(
            csc.values(),
            &[
                11.0, 21.0, 31.0, 51.0, // col 1
                12.0, 22.0, 42.0, 62.0, // col 2
                33.0, // col 3
                24.0, 44.0, // col 4
                15.0, 55.0, // col 5
                26.0, 66.0 // col 6
            ][..]
        );
        assert_eq!(
            csc.row_idx(),
            &[0, 1, 2, 4, 0, 1, 3, 5, 2, 1, 3, 0, 4, 1, 5][..]
        );
        assert_eq!(csc.col_ptr(), &[0, 4, 8, 9, 11, 13, 15][..]);
    }

    #[test]
    fn matvec_matches_dense() {
        let d = figure1_matrix();
        let csc = CscMatrix::from_dense(&d);
        let x: Vec<f64> = (1..=6).map(|i| i as f64).collect();
        let want = d.matvec(&x).unwrap();
        let got = csc.matvec(&x).unwrap();
        for (a, b) in want.iter().zip(got.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_transpose_matches_dense() {
        let d = figure1_matrix();
        let csc = CscMatrix::from_dense(&d);
        let x: Vec<f64> = (1..=6).map(|i| 1.0 / i as f64).collect();
        let want = d.matvec_transpose(&x).unwrap();
        let got = csc.matvec_transpose(&x).unwrap();
        for (a, b) in want.iter().zip(got.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn csr_csc_roundtrip() {
        let d = figure1_matrix();
        let csc = CscMatrix::from_dense(&d);
        let csr = csc.to_csr();
        assert_eq!(csr.to_dense(), d);
        let back = CscMatrix::from_csr(&csr);
        assert_eq!(back, csc);
    }

    #[test]
    fn from_raw_validation() {
        assert!(CscMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
        assert!(CscMatrix::from_raw(2, 2, vec![0, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        assert!(CscMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 2], vec![1.0, 2.0]).is_err());
        assert!(CscMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn empty_columns_ok() {
        let coo = CooMatrix::from_triplets(3, 3, vec![(0, 0, 1.0), (2, 2, 2.0)]).unwrap();
        let csc = CscMatrix::from_coo(&coo);
        assert_eq!(csc.col_nnz(1), 0);
        assert_eq!(csc.matvec(&[1.0; 3]).unwrap(), vec![1.0, 0.0, 2.0]);
    }

    #[test]
    fn diagonal_extraction() {
        let csc = CscMatrix::from_dense(&figure1_matrix());
        assert_eq!(csc.diagonal(), vec![11.0, 22.0, 33.0, 44.0, 55.0, 66.0]);
    }

    #[test]
    fn get_missing_is_zero() {
        let csc = CscMatrix::from_dense(&figure1_matrix());
        assert_eq!(csc.get(0, 2), 0.0);
        assert_eq!(csc.get(5, 1), 62.0);
    }
}
