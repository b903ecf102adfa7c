//! # hpf-solvers — the CG solver family
//!
//! Serial and distributed implementations of every algorithm the paper's
//! Section 2 surveys, with the per-iteration operation structure it
//! tabulates:
//!
//! | method | matvecs | Aᵀ matvecs | dots | extra vectors | non-symmetric |
//! |---|---|---|---|---|---|
//! | [`cg`] | 1 | 0 | 2 | 4 | no |
//! | [`bicg`] | 1 | 1 | 2 | +3 over CG | yes |
//! | [`cgs`] | 2 | 0 | 2 | +4 over CG | yes (may diverge) |
//! | [`bicgstab`] | 2 | 0 | 4 | +4 over CG | yes |
//! | [`gmres`]`(m)` | 1 | 0 | j+1 at step j | m+4 | yes |
//!
//! plus Jacobi/SSOR [`pcg`] preconditioning and the dense [`direct`]
//! baselines (LU, Cholesky) CG is compared against.
//!
//! The distributed members of the family run through one driver,
//! [`solve`] with a [`Krylov`] method, over `hpf-core`'s distributed
//! vectors and matvec scenarios, charging every induced communication
//! to the simulated machine; [`cg_distributed`] and its siblings are
//! the paper-facing names for particular methods.

pub mod bicg;
pub mod bicgstab;
pub mod cg;
pub mod cgs;
pub mod direct;
pub mod dist_solvers;
pub mod error;
pub mod gmres;
pub mod history;
pub mod krylov;
pub mod observer;
pub mod operator;
pub mod pcg;
pub mod precond;
pub mod recovery;
pub mod spectral;
pub mod stopping;

pub use bicg::bicg;
pub use bicgstab::bicgstab;
pub use cg::{cg, cg_distributed, cg_with_observer};
pub use cgs::cgs;
pub use dist_solvers::{
    bicgstab_distributed, pcg_jacobi_distributed, pcg_preconditioned_distributed,
};
pub use error::SolverError;
pub use gmres::{gmres, gmres_storage_vectors};
pub use history::{nonmonotonicity, residual_history, Method};
pub use krylov::{solve, Krylov, Solution};
pub use observer::{IterObserver, IterSample, NullObserver, RecordingObserver, TailObserver};
pub use operator::{ColwiseOperator, CscVariant, DistOperator, SerialOperator};
pub use pcg::{pcg, pcg_with_observer, IdentityPrec, JacobiPrec, Preconditioner, SsorPrec};
pub use precond::{DistPreconditioner, JacobiPreconditioner};
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
