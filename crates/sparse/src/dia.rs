//! Diagonal (DIA) storage — for banded structure.
//!
//! The second structure-exploiting scheme of the paper's Section 3
//! remark: matrices from regular grids and structural analysis
//! concentrate their nonzeros on a few diagonals, which DIA stores as
//! dense stripes indexed by offset. Perfectly regular access (ideal for
//! the paper's "uniform" Section 5.2.1 case), but useless for scattered
//! sparsity — [`DiaMatrix::fill_ratio`] quantifies when.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::SparseError;

/// Diagonal-format sparse matrix: for each stored offset `d`
/// (column − row), a stripe of length `n_rows` (out-of-range slots 0).
#[derive(Debug, Clone, PartialEq)]
pub struct DiaMatrix {
    n_rows: usize,
    n_cols: usize,
    /// Stored diagonal offsets, ascending (offset = j - i).
    offsets: Vec<isize>,
    /// `offsets.len() * n_rows` stripe data, row-indexed within stripes:
    /// `data[s * n_rows + i] = A[i][i + offsets[s]]`.
    data: Vec<f64>,
    nnz: usize,
}

impl DiaMatrix {
    /// Build from CSR, storing every diagonal that has at least one
    /// nonzero.
    pub fn from_csr(a: &CsrMatrix) -> Self {
        let n_rows = a.n_rows();
        let n_cols = a.n_cols();
        let mut offsets: Vec<isize> = Vec::new();
        for i in 0..n_rows {
            for (j, _) in a.row(i) {
                let d = j as isize - i as isize;
                if let Err(pos) = offsets.binary_search(&d) {
                    offsets.insert(pos, d);
                }
            }
        }
        let mut data = vec![0.0; offsets.len() * n_rows];
        for i in 0..n_rows {
            for (j, v) in a.row(i) {
                let d = j as isize - i as isize;
                let s = offsets.binary_search(&d).expect("collected above");
                data[s * n_rows + i] = v;
            }
        }
        DiaMatrix {
            n_rows,
            n_cols,
            offsets,
            data,
            nnz: a.nnz(),
        }
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of stored diagonals.
    pub fn n_diagonals(&self) -> usize {
        self.offsets.len()
    }

    pub fn offsets(&self) -> &[isize] {
        &self.offsets
    }

    /// Stored slots (diagonals × rows).
    pub fn stored_slots(&self) -> usize {
        self.offsets.len() * self.n_rows
    }

    /// nnz / stored slots: 1.0 means every stripe slot is a real
    /// nonzero (pure banded structure); low values mean DIA is wasting
    /// memory on scattered sparsity.
    pub fn fill_ratio(&self) -> f64 {
        if self.stored_slots() == 0 {
            return 1.0;
        }
        self.nnz as f64 / self.stored_slots() as f64
    }

    /// `q = A p` stripe by stripe (unit-stride inner loops).
    pub fn matvec(&self, p: &[f64]) -> Result<Vec<f64>, SparseError> {
        if p.len() != self.n_cols {
            return Err(SparseError::DimensionMismatch(format!(
                "matvec: x has {} entries, matrix has {} columns",
                p.len(),
                self.n_cols
            )));
        }
        let mut q = vec![0.0; self.n_rows];
        for (s, &d) in self.offsets.iter().enumerate() {
            let stripe = &self.data[s * self.n_rows..(s + 1) * self.n_rows];
            // Valid rows: 0 <= i < n_rows and 0 <= i + d < n_cols,
            // i.e. max(0, -d) <= i < min(n_rows, n_cols - d).
            let i_lo = if d < 0 { (-d) as usize } else { 0 };
            let i_hi = self.n_rows.min((self.n_cols as isize - d).max(0) as usize);
            for i in i_lo..i_hi {
                let j = (i as isize + d) as usize;
                q[i] += stripe[i] * p[j];
            }
        }
        Ok(q)
    }

    /// Convert back to CSR (zero stripe slots dropped).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut coo = CooMatrix::new(self.n_rows, self.n_cols);
        for (s, &d) in self.offsets.iter().enumerate() {
            for i in 0..self.n_rows {
                let j = i as isize + d;
                if j < 0 || j as usize >= self.n_cols {
                    continue;
                }
                let v = self.data[s * self.n_rows + i];
                if v != 0.0 {
                    coo.push(i, j as usize, v).expect("bounds checked above");
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// Convert to dense.
    pub fn to_dense(&self) -> DenseMatrix {
        self.to_csr().to_dense()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn tridiagonal_is_three_stripes() {
        let a = gen::tridiagonal(10, 2.0, -1.0);
        let dia = DiaMatrix::from_csr(&a);
        assert_eq!(dia.n_diagonals(), 3);
        assert_eq!(dia.offsets(), &[-1, 0, 1]);
        // Near-perfect fill (ends of off-diagonals are the only waste).
        assert!(dia.fill_ratio() > 0.9);
        assert_eq!(dia.to_dense(), a.to_dense());
    }

    #[test]
    fn matvec_matches_csr() {
        let a = gen::poisson_2d(7, 5);
        let dia = DiaMatrix::from_csr(&a);
        assert_eq!(dia.n_diagonals(), 5); // -ny, -1, 0, 1, ny
        let x: Vec<f64> = (0..35).map(|i| (i % 9) as f64 / 3.0).collect();
        let want = a.matvec(&x).unwrap();
        let got = dia.matvec(&x).unwrap();
        for (u, v) in want.iter().zip(got.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn scattered_sparsity_fills_poorly() {
        let banded = DiaMatrix::from_csr(&gen::banded_spd(100, 3, 1));
        let random = DiaMatrix::from_csr(&gen::random_spd(100, 4, 1));
        assert!(banded.fill_ratio() > 0.8, "{}", banded.fill_ratio());
        assert!(random.fill_ratio() < 0.2, "{}", random.fill_ratio());
        assert!(random.n_diagonals() > 50);
    }

    #[test]
    fn rectangular_matrices_supported() {
        let coo =
            CooMatrix::from_triplets(3, 5, vec![(0, 0, 1.0), (1, 3, 2.0), (2, 4, 3.0)]).unwrap();
        let a = CsrMatrix::from_coo(&coo);
        let dia = DiaMatrix::from_csr(&a);
        assert_eq!(dia.to_dense(), a.to_dense());
        let q = dia.matvec(&[1.0; 5]).unwrap();
        assert_eq!(q, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matvec_dimension_checked() {
        let dia = DiaMatrix::from_csr(&gen::tridiagonal(4, 1.0, 0.5));
        assert!(dia.matvec(&[1.0; 3]).is_err());
    }

    #[test]
    fn empty_matrix() {
        let a = CsrMatrix::from_coo(&CooMatrix::new(3, 3));
        let dia = DiaMatrix::from_csr(&a);
        assert_eq!(dia.n_diagonals(), 0);
        assert_eq!(dia.fill_ratio(), 1.0);
        assert_eq!(dia.matvec(&[1.0; 3]).unwrap(), vec![0.0; 3]);
    }
}
