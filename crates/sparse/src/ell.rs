//! ELLPACK (ELL) storage — a structure-exploiting scheme.
//!
//! The paper (Section 3): "A number of sparse storage schemes are
//! described in [Barrett et al.], some of which can exploit additional
//! information about the sparsity structure of the matrix." ELLPACK is
//! the canonical such scheme: if every row has at most `K` nonzeros, the
//! matrix is stored as two dense `n x K` arrays (values and column
//! indices, short rows padded) — regular strides that vectorise well and
//! distribute with plain `(BLOCK, *)` directives, at the cost of padding
//! waste when row lengths vary (quantified by [`EllMatrix::padding_ratio`],
//! which is exactly why the paper's irregular matrices need the
//! Section 5.2 machinery instead).

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::SparseError;

/// ELLPACK-format sparse matrix: row-major `n_rows x width` slabs.
#[derive(Debug, Clone, PartialEq)]
pub struct EllMatrix {
    n_rows: usize,
    n_cols: usize,
    /// Max nonzeros per row (the slab width `K`).
    width: usize,
    /// `n_rows * width` padded values (0.0 in padding slots).
    values: Vec<f64>,
    /// `n_rows * width` padded column indices; padding slots repeat the
    /// row's last valid column (a standard ELL convention making the
    /// kernel branch-free) or 0 for empty rows.
    col_idx: Vec<usize>,
    /// Actual nonzero count (excludes padding).
    nnz: usize,
}

impl EllMatrix {
    /// Build from CSR.
    pub fn from_csr(a: &CsrMatrix) -> Self {
        let n_rows = a.n_rows();
        let width = (0..n_rows).map(|i| a.row_nnz(i)).max().unwrap_or(0);
        let mut values = vec![0.0; n_rows * width];
        let mut col_idx = vec![0usize; n_rows * width];
        for i in 0..n_rows {
            let mut k = 0usize;
            let mut last_col = 0usize;
            for (c, v) in a.row(i) {
                values[i * width + k] = v;
                col_idx[i * width + k] = c;
                last_col = c;
                k += 1;
            }
            for pad in k..width {
                col_idx[i * width + pad] = last_col;
            }
        }
        EllMatrix {
            n_rows,
            n_cols: a.n_cols(),
            width,
            values,
            col_idx,
            nnz: a.nnz(),
        }
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Stored slots (including padding).
    pub fn stored_slots(&self) -> usize {
        self.n_rows * self.width
    }

    /// Fraction of stored slots that are padding: 0.0 for perfectly
    /// uniform rows, approaching 1.0 for power-law structures — the
    /// quantitative reason ELL suits Section 5.2.1's regular case only.
    pub fn padding_ratio(&self) -> f64 {
        if self.stored_slots() == 0 {
            return 0.0;
        }
        1.0 - self.nnz as f64 / self.stored_slots() as f64
    }

    /// `q = A p` over the regular slab (fixed trip count per row).
    pub fn matvec(&self, p: &[f64]) -> Result<Vec<f64>, SparseError> {
        if p.len() != self.n_cols {
            return Err(SparseError::DimensionMismatch(format!(
                "matvec: x has {} entries, matrix has {} columns",
                p.len(),
                self.n_cols
            )));
        }
        let mut q = vec![0.0; self.n_rows];
        for i in 0..self.n_rows {
            let base = i * self.width;
            let mut acc = 0.0;
            for k in 0..self.width {
                acc += self.values[base + k] * p[self.col_idx[base + k]];
            }
            q[i] = acc;
        }
        Ok(q)
    }

    /// Convert back to CSR (padding dropped).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut coo = CooMatrix::new(self.n_rows, self.n_cols);
        for i in 0..self.n_rows {
            for k in 0..self.width {
                let v = self.values[i * self.width + k];
                if v != 0.0 {
                    coo.push(i, self.col_idx[i * self.width + k], v)
                        .expect("indices validated at construction");
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
    fn roundtrip_uniform_matrix() {
        let a = gen::poisson_2d(6, 6);
        let ell = EllMatrix::from_csr(&a);
        assert_eq!(ell.width(), 5);
        assert_eq!(ell.nnz(), a.nnz());
        assert_eq!(ell.to_dense(), a.to_dense());
    }

    #[test]
    fn matvec_matches_csr() {
        let a = gen::random_spd(50, 4, 3);
        let ell = EllMatrix::from_csr(&a);
        let x: Vec<f64> = (0..50).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let want = a.matvec(&x).unwrap();
        let got = ell.matvec(&x).unwrap();
        for (u, v) in want.iter().zip(got.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn padding_small_for_uniform_large_for_powerlaw() {
        let uniform = EllMatrix::from_csr(&gen::poisson_2d(10, 10));
        let irregular = EllMatrix::from_csr(&gen::power_law_spd(200, 60, 1.0, 4));
        assert!(
            uniform.padding_ratio() < 0.45,
            "{}",
            uniform.padding_ratio()
        );
        assert!(
            irregular.padding_ratio() > 0.8,
            "{}",
            irregular.padding_ratio()
        );
        assert!(irregular.padding_ratio() < 1.0);
    }

    #[test]
    fn matvec_dimension_checked() {
        let ell = EllMatrix::from_csr(&gen::poisson_2d(3, 3));
        assert!(ell.matvec(&[1.0; 5]).is_err());
        assert!(ell.matvec(&[1.0; 9]).is_ok());
    }

    #[test]
    fn empty_rows_handled() {
        let coo = CooMatrix::from_triplets(4, 4, vec![(0, 1, 2.0), (3, 3, 5.0)]).unwrap();
        let a = CsrMatrix::from_coo(&coo);
        let ell = EllMatrix::from_csr(&a);
        assert_eq!(ell.width(), 1);
        assert_eq!(ell.matvec(&[1.0; 4]).unwrap(), vec![2.0, 0.0, 0.0, 5.0]);
        assert_eq!(ell.to_dense(), a.to_dense());
    }

    #[test]
    fn zero_width_matrix() {
        let coo = CooMatrix::new(3, 3);
        let a = CsrMatrix::from_coo(&coo);
        let ell = EllMatrix::from_csr(&a);
        assert_eq!(ell.width(), 0);
        assert_eq!(ell.padding_ratio(), 0.0);
        assert_eq!(ell.matvec(&[1.0; 3]).unwrap(), vec![0.0; 3]);
    }
}
