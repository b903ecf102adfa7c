//! # hpf-sparse — sparse matrix substrate
//!
//! Storage schemes, generators and serial kernels for the reproduction of
//! *"High Performance Fortran and Possible Extensions to support
//! Conjugate Gradient Algorithms"* (Dincer et al., NPAC SCCS-703 /
//! HPDC'96).
//!
//! The paper's Section 3 considers "the compressed row and compressed
//! column schemes which can store any sparse matrix"; this crate provides
//! both ([`CsrMatrix`], [`CscMatrix`]) plus the assembly ([`CooMatrix`])
//! and dense ([`DenseMatrix`]) formats, synthetic generators for every
//! matrix family the paper's argument needs ([`gen`]), structure metrics
//! ([`stats`]), and a small Matrix Market reader/writer ([`io`]).

pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod dia;
pub mod ell;
pub mod error;
pub mod gen;
pub mod io;
pub mod stats;
pub mod templates;

pub use coo::{CooMatrix, Triplet};
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use dia::DiaMatrix;
pub use ell::EllMatrix;
pub use error::SparseError;
pub use templates::{ProductForm, RowProduct};
