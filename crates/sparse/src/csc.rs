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
//!
//! Section 3 goes on: CSR is the scheme "in which the roles of rows and
//! columns are reversed". So the CSC arrays of `A` are the CSR arrays of
//! `Aᵀ`, and a [`CscMatrix`] stores just that [`CsrMatrix`]: column `j`
//! is its row `j`, `Aᵀ p` its gather, `A p` its scatter, and conversion
//! either way its one counting [`CsrMatrix::transpose`].

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::SparseError;

/// Compressed Sparse Column matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    /// `Aᵀ` in CSR: its three arrays are the paper's `col`, `row` and `a`.
    t: CsrMatrix,
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
        let names = ["col_ptr", "row_idx", "row"];
        let t = CsrMatrix::validated(n_cols, n_rows, col_ptr, row_idx, values, names)?;
        Ok(CscMatrix { t })
    }

    /// Build from COO, sorting column-major and summing duplicates.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let t = CsrMatrix::from_coo(&coo.transpose());
        CscMatrix { t }
    }

    /// Build from a dense matrix.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        Self::from_coo(&CooMatrix::from_dense(d))
    }

    /// Build from CSR by [`CsrMatrix::transpose`] (O(nnz + n)).
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        CscMatrix { t: csr.transpose() }
    }

    pub fn n_rows(&self) -> usize {
        self.t.n_cols()
    }

    pub fn n_cols(&self) -> usize {
        self.t.n_rows()
    }

    pub fn nnz(&self) -> usize {
        self.t.nnz()
    }

    pub fn is_square(&self) -> bool {
        self.t.is_square()
    }

    /// The paper's `col(n+1)` pointer array.
    pub fn col_ptr(&self) -> &[usize] {
        self.t.row_ptr()
    }

    /// The paper's `row(nz)` index array.
    pub fn row_idx(&self) -> &[usize] {
        self.t.col_idx()
    }

    /// The paper's `a(nz)` value array.
    pub fn values(&self) -> &[f64] {
        self.t.values()
    }

    /// (row, value) pairs of column `j`.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.t.row(j)
    }

    /// Number of stored entries in column `j`.
    pub fn col_nnz(&self, j: usize) -> usize {
        self.t.row_nnz(j)
    }

    /// Value at `(i, j)` (zero if not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.t.get(j, i)
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
        let (len, cols) = (p.len(), self.n_cols());
        if len != cols {
            let msg = format!("matvec: x has {len} entries, matrix has {cols} columns");
            return Err(SparseError::DimensionMismatch(msg));
        }
        let mut q = vec![0.0; self.n_rows()];
        self.matvec_cols_accumulate(0..self.n_cols(), p, &mut q);
        Ok(q)
    }

    /// The one CSC product kernel: `out += A(:, cols) · p(cols)`, the
    /// scatter of the columns in `cols` taken in ascending order, each
    /// entry as `out[row(k)] += a(k) * p[j]` (the stored transpose's row
    /// scatter). `out` is added to; a column whose `p[j]` is exactly zero
    /// is skipped; from an `out` of `+0.0`, no entry becomes `-0.0`.
    ///
    /// Panics if `p` is not `n_cols` long, `cols` leaves the matrix, or
    /// `out` is not `n_rows` long.
    pub fn matvec_cols_accumulate(&self, cols: std::ops::Range<usize>, p: &[f64], out: &mut [f64]) {
        assert_eq!(p.len(), self.n_cols(), "matvec: operand length");
        assert_eq!(out.len(), self.n_rows(), "matvec: result length");
        self.t.scatter_rows_into(cols, p, out);
    }

    /// `q = Aᵀ p`: in CSC this is a clean per-column gather (the dual of
    /// CSR's row kernel).
    pub fn matvec_transpose(&self, p: &[f64]) -> Result<Vec<f64>, SparseError> {
        let (len, rows) = (p.len(), self.n_rows());
        if len != rows {
            let msg = format!("matvec_transpose: x has {len} entries, matrix has {rows} rows");
            return Err(SparseError::DimensionMismatch(msg));
        }
        let mut q = vec![0.0; self.n_cols()];
        self.matvec_transpose_into(p, &mut q);
        Ok(q)
    }

    /// The one transpose-product kernel: `out = Aᵀ p`, overwriting `out`
    /// (which need not be zeroed); `out[j]` is column `j`'s dot product
    /// with `p`, accumulated top to bottom from `0.0` (the stored
    /// transpose's [`CsrMatrix::matvec_rows_into`]).
    ///
    /// Panics if `p` is not `n_rows` long or `out` not `n_cols` long.
    pub fn matvec_transpose_into(&self, p: &[f64], out: &mut [f64]) {
        assert_eq!(p.len(), self.n_rows(), "matvec_transpose: operand length");
        assert_eq!(out.len(), self.n_cols(), "matvec_transpose: result length");
        self.t.matvec_rows_into(0..self.n_cols(), p, out);
    }

    /// Convert to COO, column by column.
    pub fn to_coo(&self) -> CooMatrix {
        self.t.to_coo().transpose()
    }

    /// Convert to CSR by [`CsrMatrix::transpose`], repeated entries kept
    /// as they are stored.
    pub fn to_csr(&self) -> CsrMatrix {
        self.t.transpose()
    }

    /// Convert to dense.
    pub fn to_dense(&self) -> DenseMatrix {
        self.t.to_dense().transpose()
    }

    /// Extract the main diagonal.
    pub fn diagonal(&self) -> Vec<f64> {
        self.t.diagonal()
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

    /// The errors name CSC's arrays and a 2x3 matrix's shape, though the
    /// arrays are validated as the CSR arrays of the 3x2 transpose.
    #[test]
    fn from_raw_errors_name_the_csc_arrays() {
        let raw = |ptr: Vec<usize>, rows: Vec<usize>| {
            let values = vec![1.0; rows.len()];
            CscMatrix::from_raw(2, 3, ptr, rows, values).unwrap_err()
        };
        let pointer = |m: &str| SparseError::MalformedPointer(m.to_string());
        assert_eq!(
            raw(vec![0, 1], vec![0]),
            pointer("col_ptr has length 2, expected 4")
        );
        assert_eq!(
            raw(vec![1, 1, 1, 1], vec![0]),
            pointer("col_ptr[0] must be 0")
        );
        let end = pointer("col_ptr[n] = 2 but there are 1 values");
        assert_eq!(raw(vec![0, 1, 1, 2], vec![0]), end);
        let order = pointer("col_ptr must be non-decreasing");
        assert_eq!(raw(vec![0, 2, 1, 2], vec![0, 1]), order);
        let row = SparseError::IndexOutOfBounds {
            what: "row",
            index: 2,
            bound: 2,
        };
        assert_eq!(raw(vec![0, 1, 1, 2], vec![0, 2]), row);
        let short = CscMatrix::from_raw(2, 3, vec![0, 1, 1, 1], vec![], vec![1.0]);
        let lengths = SparseError::DimensionMismatch("row_idx has 0 entries, values has 1".into());
        assert_eq!(short.unwrap_err(), lengths);
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
