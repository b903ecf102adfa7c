//! Compressed Sparse Row (CSR) storage.
//!
//! The paper (Section 3): "A related scheme is the Compressed Sparse Row
//! (CSR) format, in which the roles of rows and columns are reversed" —
//! i.e. for an `n x n` matrix with `nz` non-zeros, CSR stores
//!
//! * `a(nz)`   — the non-zero values in row order (here [`CsrMatrix::values`]),
//! * `col(nz)` — the column number of each value ([`CsrMatrix::col_idx`]),
//! * `row(n+1)` — pointers to the first entry of each row
//!   ([`CsrMatrix::row_ptr`]); the paper's code iterates
//!   `DO i = row(j), row(j+1)-1`.

use crate::coo::CooMatrix;
use crate::dense::DenseMatrix;
use crate::error::SparseError;
use std::ops::Range;

/// Compressed Sparse Row matrix.
///
/// ```
/// use hpf_sparse::{gen, CsrMatrix};
///
/// let a = gen::poisson_2d(4, 4); // 16x16, 5-point stencil
/// assert_eq!(a.n_rows(), 16);
/// assert_eq!(a.get(0, 0), 4.0);
/// let q = a.matvec(&vec![1.0; 16]).unwrap();
/// // Row sums of the Laplacian vanish in the interior.
/// assert_eq!(q[5], 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    /// `row` in the paper: `row_ptr[i]..row_ptr[i+1]` spans row `i`.
    row_ptr: Vec<usize>,
    /// `col` in the paper: the column of each stored value.
    col_idx: Vec<usize>,
    /// `a` in the paper: the stored values, row by row.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build directly from raw arrays, validating the invariants.
    pub fn from_raw(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        let names = ["row_ptr", "col_idx", "col"];
        Self::validated(n_rows, n_cols, row_ptr, col_idx, values, names)
    }

    /// [`CsrMatrix::from_raw`] with the names its errors give the pointer
    /// array, the index array and what an index counts: a CSC matrix
    /// validates its arrays as the CSR arrays of its transpose, under its
    /// own names.
    pub(crate) fn validated(
        n_rows: usize,
        n_cols: usize,
        ptr: Vec<usize>,
        idx: Vec<usize>,
        values: Vec<f64>,
        [ptr_name, idx_name, what]: [&'static str; 3],
    ) -> Result<Self, SparseError> {
        if ptr.len() != n_rows + 1 {
            return Err(SparseError::MalformedPointer(format!(
                "{ptr_name} has length {}, expected {}",
                ptr.len(),
                n_rows + 1
            )));
        }
        if ptr[0] != 0 {
            return Err(SparseError::MalformedPointer(format!(
                "{ptr_name}[0] must be 0"
            )));
        }
        if *ptr.last().unwrap() != values.len() {
            return Err(SparseError::MalformedPointer(format!(
                "{ptr_name}[n] = {} but there are {} values",
                ptr.last().unwrap(),
                values.len()
            )));
        }
        if idx.len() != values.len() {
            return Err(SparseError::DimensionMismatch(format!(
                "{idx_name} has {} entries, values has {}",
                idx.len(),
                values.len()
            )));
        }
        if ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::MalformedPointer(format!(
                "{ptr_name} must be non-decreasing"
            )));
        }
        if let Some(&index) = idx.iter().find(|&&c| c >= n_cols) {
            return Err(SparseError::IndexOutOfBounds {
                what,
                index,
                bound: n_cols,
            });
        }
        Ok(CsrMatrix {
            n_rows,
            n_cols,
            row_ptr: ptr,
            col_idx: idx,
            values,
        })
    }

    /// Build from COO, sorting row-major and summing duplicates.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let mut entries = coo.entries().to_vec();
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let n_rows = coo.n_rows();
        let mut row_ptr = vec![0usize; n_rows + 1];
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(entries.len());
        let mut prev: Option<(usize, usize)> = None;
        for (r, c, v) in entries {
            if prev == Some((r, c)) {
                // Duplicate coordinate: accumulate.
                *values.last_mut().unwrap() += v;
            } else {
                col_idx.push(c);
                values.push(v);
                row_ptr[r + 1] = col_idx.len();
                prev = Some((r, c));
            }
        }
        // Rows with no entries inherit the previous pointer.
        for i in 1..=n_rows {
            if row_ptr[i] < row_ptr[i - 1] {
                row_ptr[i] = row_ptr[i - 1];
            }
        }
        CsrMatrix {
            n_rows,
            n_cols: coo.n_cols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Build from a dense matrix.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        Self::from_coo(&CooMatrix::from_dense(d))
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

    /// The paper's `row(n+1)` pointer array.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The paper's `col(nz)` index array.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// The paper's `a(nz)` value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// (column, value) pairs of row `i`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// Number of stored entries in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Value at `(i, j)` (zero if not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.row(i).find(|&(c, _)| c == j).map_or(0.0, |(_, v)| v)
    }

    /// Serial CSR matvec `q = A p` — the paper's Figure 2 inner kernel:
    ///
    /// ```fortran
    /// FORALL( j=1:n )
    ///   DO i = row(j), row(j+1)-1
    ///     q(j) = q(j) + a(i) * p(col(i))
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
        self.matvec_rows_into(0..self.n_rows, p, &mut q);
        Ok(q)
    }

    /// The one CSR product kernel: `out[i] = (A p)[rows.start + i]` for
    /// the rows in `rows`, overwriting `out` (which need not be zeroed).
    /// Each row accumulates left to right from `0.0`, so any split of
    /// the rows among callers gives the same bits as one whole product.
    ///
    /// Panics if `p` is not `n_cols` long, `rows` leaves the matrix, or
    /// `out` is not `rows.len()` long.
    ///
    /// Out of line wherever it is called from, so the row loop has one
    /// address, which the build pins to a 64-byte boundary.
    #[inline(never)]
    pub fn matvec_rows_into(&self, rows: Range<usize>, p: &[f64], out: &mut [f64]) {
        assert_eq!(p.len(), self.n_cols, "matvec: operand length");
        assert_eq!(out.len(), rows.len(), "matvec: result length");
        let ends = &self.row_ptr[rows.start + 1..=rows.end];
        let mut lo = self.row_ptr[rows.start];
        for (qj, &hi) in out.iter_mut().zip(ends) {
            let mut acc = 0.0;
            for (&a, &c) in self.values[lo..hi].iter().zip(&self.col_idx[lo..hi]) {
                acc += a * p[c];
            }
            *qj = acc;
            lo = hi;
        }
    }

    /// `q = Aᵀ p` without forming the transpose (scatter order; this is
    /// the access pattern that, per Section 2.1, negates row-layout
    /// optimisations for BiCG).
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
    /// (which need not be zeroed): the row scatter over every row, from
    /// `+0.0`.
    ///
    /// Panics if `p` is not `n_rows` long or `out` not `n_cols` long.
    pub fn matvec_transpose_into(&self, p: &[f64], out: &mut [f64]) {
        assert_eq!(p.len(), self.n_rows, "matvec_transpose: operand length");
        assert_eq!(out.len(), self.n_cols, "matvec_transpose: result length");
        out.fill(0.0);
        self.scatter_rows_into(0..self.n_rows, p, out);
    }

    /// The one scatter kernel: `out += A(rows, :)ᵀ · p(rows)`, the rows in
    /// `rows` taken in ascending order, each entry as
    /// `out[col(k)] += a(k) * p[i]`. `out` is added to, not zeroed; a row
    /// whose `p[i]` is exactly zero is skipped. Starting from an `out` of
    /// `+0.0`, no entry can become `-0.0` (a sum is `-0.0` only when both
    /// terms are). On the CSR arrays of `Aᵀ` this is the CSC product `A p`.
    ///
    /// Panics if `rows` leaves the matrix or `p`, or a column leaves `out`.
    pub(crate) fn scatter_rows_into(&self, rows: Range<usize>, p: &[f64], out: &mut [f64]) {
        let ends = &self.row_ptr[rows.start + 1..=rows.end];
        let mut lo = self.row_ptr[rows.start];
        for (&pi, &hi) in p[rows].iter().zip(ends) {
            if pi != 0.0 {
                for (&c, &a) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
                    out[c] += a * pi;
                }
            }
            lo = hi;
        }
    }

    /// Explicit transpose (CSR of Aᵀ) by a stable counting sort: row `j`
    /// lists the rows of `A` that store column `j`, ascending, each entry
    /// as it is stored. A row that stores one column twice gives two
    /// entries in the transpose, not their sum.
    pub fn transpose(&self) -> CsrMatrix {
        let nnz = self.nnz();
        let mut row_ptr = vec![0usize; self.n_cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for c in 0..self.n_cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut next = row_ptr[..self.n_cols].to_vec();
        let (mut col_idx, mut values) = (vec![0usize; nnz], vec![0.0; nnz]);
        for i in 0..self.n_rows {
            for (c, v) in self.row(i) {
                col_idx[next[c]] = i;
                values[next[c]] = v;
                next[c] += 1;
            }
        }
        CsrMatrix {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Convert to COO.
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::new(self.n_rows, self.n_cols);
        for i in 0..self.n_rows {
            for (c, v) in self.row(i) {
                coo.push(i, c, v)
                    .expect("indices validated at construction");
            }
        }
        coo
    }

    /// Convert to dense.
    pub fn to_dense(&self) -> DenseMatrix {
        self.to_coo().to_dense()
    }

    /// Extract the main diagonal (length `min(n_rows, n_cols)`).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.n_rows.min(self.n_cols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Symmetry check within absolute tolerance.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.n_rows {
            for (j, v) in self.row(i) {
                if (v - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Scale all values by `s`.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.values {
            *v *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 6x6 example of the paper's Figure 1.
    pub fn figure1_matrix() -> DenseMatrix {
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
    fn figure1_roundtrip() {
        let d = figure1_matrix();
        let csr = CsrMatrix::from_dense(&d);
        assert_eq!(csr.nnz(), 15);
        assert_eq!(csr.to_dense(), d);
        assert_eq!(csr.get(1, 3), 24.0);
        assert_eq!(csr.get(0, 3), 0.0);
    }

    #[test]
    fn row_ptr_shape() {
        let csr = CsrMatrix::from_dense(&figure1_matrix());
        assert_eq!(csr.row_ptr().len(), 7);
        assert_eq!(csr.row_ptr()[0], 0);
        assert_eq!(*csr.row_ptr().last().unwrap(), 15);
        assert_eq!(csr.row_nnz(0), 3);
        assert_eq!(csr.row_nnz(1), 4);
    }

    #[test]
    fn matvec_matches_dense() {
        let d = figure1_matrix();
        let csr = CsrMatrix::from_dense(&d);
        let x: Vec<f64> = (1..=6).map(|i| i as f64).collect();
        let want = d.matvec(&x).unwrap();
        let got = csr.matvec(&x).unwrap();
        for (a, b) in want.iter().zip(got.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_transpose_matches_dense() {
        let d = figure1_matrix();
        let csr = CsrMatrix::from_dense(&d);
        let x: Vec<f64> = (1..=6).map(|i| (i as f64).sqrt()).collect();
        let want = d.matvec_transpose(&x).unwrap();
        let got = csr.matvec_transpose(&x).unwrap();
        for (a, b) in want.iter().zip(got.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// The in-place kernel overwrites a dirty buffer and gives the bits
    /// of the explicit transpose's product, on a rectangular matrix and
    /// with exact zeros in `p` (whose rows it skips).
    #[test]
    fn matvec_transpose_into_overwrites_and_matches_the_explicit_transpose() {
        let coo = CooMatrix::from_triplets(
            4,
            3,
            vec![
                (0, 0, 0.1),
                (0, 2, -0.7),
                (1, 1, 0.3),
                (2, 0, 1.9),
                (2, 1, -0.2),
                (3, 2, 0.6),
            ],
        )
        .unwrap();
        let a = CsrMatrix::from_coo(&coo);
        for p in [
            [0.3, 0.0, -1.7, 0.9],
            [0.0, 0.0, 0.0, 0.0],
            [1.1, 2.3, 0.0, 0.0],
        ] {
            let mut out = vec![f64::NAN; 3];
            a.matvec_transpose_into(&p, &mut out);
            let want = a.transpose().matvec(&p).unwrap();
            let wrapped = a.matvec_transpose(&p).unwrap();
            for c in 0..3 {
                assert_eq!(out[c].to_bits(), want[c].to_bits(), "column {c} of {p:?}");
                assert_eq!(out[c].to_bits(), wrapped[c].to_bits());
            }
        }
    }

    #[test]
    fn transpose_explicit_matches() {
        let csr = CsrMatrix::from_dense(&figure1_matrix());
        let t = csr.transpose();
        assert_eq!(t.to_dense(), figure1_matrix().transpose());
    }

    /// A row that stores one column twice (only `from_raw` can build one)
    /// transposes to two entries in stored order; nothing is summed.
    #[test]
    fn transpose_keeps_a_repeated_column_as_stored() {
        let a = CsrMatrix::from_raw(2, 2, vec![0, 2, 3], vec![1, 1, 0], vec![1.0, 2.0, 3.0]);
        let t = a.unwrap().transpose();
        assert_eq!((t.row_ptr(), t.col_idx()), (&[0, 1, 3][..], &[1, 0, 0][..]));
        assert_eq!(t.values(), &[3.0, 1.0, 2.0]);
    }

    #[test]
    fn empty_rows_ok() {
        let coo = CooMatrix::from_triplets(4, 4, vec![(0, 0, 1.0), (3, 3, 2.0)]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.row_nnz(1), 0);
        assert_eq!(csr.row_nnz(2), 0);
        assert_eq!(csr.matvec(&[1.0; 4]).unwrap(), vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn from_raw_validation() {
        // Good.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
        // Bad pointer length.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]).is_err());
        // First pointer nonzero.
        assert!(CsrMatrix::from_raw(2, 2, vec![1, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_err());
        // Decreasing pointer.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        // Column out of range.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 2], vec![1.0, 2.0]).is_err());
        // Endpoint mismatch.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 3], vec![0, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn symmetry_and_diagonal() {
        let d = DenseMatrix::from_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 5.0, 2.0],
            vec![0.0, 2.0, 6.0],
        ])
        .unwrap();
        let csr = CsrMatrix::from_dense(&d);
        assert!(csr.is_symmetric(0.0));
        assert_eq!(csr.diagonal(), vec![4.0, 5.0, 6.0]);
        let mut a = csr.clone();
        a.scale(2.0);
        assert_eq!(a.get(1, 2), 4.0);
    }

    #[test]
    fn duplicate_coo_entries_summed() {
        let coo = CooMatrix::from_triplets_summing(2, 2, vec![(0, 1, 1.0), (0, 1, 2.0)]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.get(0, 1), 3.0);
        assert_eq!(csr.nnz(), 1);
    }
}
