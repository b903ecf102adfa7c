//! # hpf-solvers — the CG solver family
//!
//! Every algorithm the paper's Section 2 surveys, as one program for
//! every processor count, with the per-iteration operation structure it
//! tabulates:
//!
//! | method | matvecs | Aᵀ matvecs | dots | extra vectors | non-symmetric |
//! |---|---|---|---|---|---|
//! | [`Krylov::Cg`] | 1 | 0 | 2 | 4 | no |
//! | [`Krylov::Bicg`] | 1 | 1 | 2 | +3 over CG | yes |
//! | [`Krylov::Cgs`] | 2 | 0 | 2 | +4 over CG | yes (may diverge) |
//! | [`Krylov::Bicgstab`] | 2 | 0 | 4 | +4 over CG | yes |
//! | [`Krylov::Gmres`]`{ restart: m }` | 1 | 0 | j+1 at step j | m+4 | yes |
//!
//! plus Jacobi and SSOR preconditioning ([`JacobiPreconditioner`],
//! [`SsorPreconditioner`]) and the dense [`direct`] baselines (LU,
//! Cholesky) CG is compared against.
//!
//! Every member runs through one driver, [`solve`] with a [`Krylov`]
//! method, over `hpf-core`'s distributed vectors and matvec scenarios,
//! charging every induced communication to the simulated machine. On a
//! one-processor machine that is the serial program: [`cg`] is that for
//! a plain matrix, and [`cg_distributed`] and its siblings are the
//! paper-facing names for particular methods.

mod bicg;
mod bicgstab;
pub mod cg;
mod cgs;
pub mod direct;
pub mod dist_solvers;
pub mod error;
pub mod gmres;
pub mod history;
pub mod krylov;
pub mod observer;
pub mod operator;
mod pcg;
pub mod precond;
pub mod recovery;
pub mod spectral;
pub mod stopping;

pub use cg::{cg, cg_distributed};
pub use dist_solvers::{
    bicgstab_distributed, pcg_jacobi_distributed, pcg_preconditioned_distributed,
};
pub use error::SolverError;
pub use gmres::gmres_storage_vectors;
pub use history::{nonmonotonicity, residual_history};
pub use krylov::{solve, Krylov, Solution};
pub use observer::{IterObserver, IterSample, NullObserver, RecordingObserver, TailObserver};
pub use operator::{ColwiseOperator, CscVariant, DistOperator};
pub use precond::{DistPreconditioner, JacobiPreconditioner, SsorPreconditioner};
pub use recovery::{
    cg_distributed_protected, pcg_jacobi_distributed_protected, RecoveryConfig, RecoveryStats,
};
pub use spectral::{
    cg_error_bound, cg_iterations_for, estimate_spd_spectrum, power_method, SpdSpectrum,
};
pub use stopping::{
    AlgorithmProfile, ResidualMonitor, SolveStats, StopCriterion, BICGSTAB_PROFILE, BICG_PROFILE,
    CGS_PROFILE, CG_PROFILE,
};
