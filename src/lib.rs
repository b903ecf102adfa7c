//! # hpf — facade crate for the HPF-CG paper reproduction
//!
//! Re-exports the whole workspace: the simulated multicomputer
//! ([`machine`]), the distribution layer ([`dist`]), sparse formats
//! ([`sparse`]), the directive front-end ([`lang`]), the HPF
//! data-parallel model with the paper's proposed extensions ([`core`]),
//! the CG solver family ([`solvers`]), the solver-as-a-service layer
//! with plan caching and batching ([`service`]), the pluggable
//! `REDISTRIBUTE ... USING` partitioner registry and auto-repartitioner
//! ([`partition`]), and the observability layer — spans, per-iteration
//! telemetry, Perfetto/Prometheus exporters, trace analysis ([`obs`]).
//!
//! ```
//! use hpf::prelude::*;
//!
//! // Solve a 2-D Poisson system with distributed CG on a simulated
//! // 4-processor hypercube (the paper's Figure 2 program).
//! let a = hpf::sparse::gen::poisson_2d(8, 8);
//! let (_, b) = hpf::sparse::gen::rhs_for_known_solution(&a);
//! let mut machine = Machine::hypercube(4);
//! let op = RowwiseCsr::block(a, 4, DataArrayLayout::RowAligned);
//! let stop = StopCriterion::RelativeResidual(1e-10);
//! let (x, stats) = cg_distributed(&mut machine, &op, &b, stop, 500).unwrap();
//! assert!(stats.converged);
//! assert_eq!(x.len(), 64);
//!
//! // `cg_distributed` is a name for one method of the one driver every
//! // distributed Krylov solve goes through; BiCGSTAB is another.
//! let mut machine = Machine::hypercube(4);
//! let s = solve(&mut machine, &op, &b, Krylov::Bicgstab, stop, 500, &mut NullObserver).unwrap();
//! assert!(s.stats.converged && s.recovery.is_none());
//! ```

pub use hpf_core as core;
pub use hpf_dist as dist;
pub use hpf_lang as lang;
pub use hpf_machine as machine;
pub use hpf_mg as mg;
pub use hpf_obs as obs;
pub use hpf_partition as partition;
pub use hpf_service as service;
pub use hpf_solvers as solvers;
pub use hpf_sparse as sparse;

/// Commonly used items in one import.
pub mod prelude {
    pub use hpf_core::{
        ext::{MergeOp, OnProcessor, PrivateRegion, SparseFormat, SparseMatrixDirective},
        Checkerboard, ColwiseCsc, DataArrayLayout, DistVector, ProcGrid2D, RowwiseCsr,
    };
    pub use hpf_dist::{ArrayDescriptor, AtomAssignment, AtomSpec, DistSpec};
    pub use hpf_lang::{elaborate, parse_program, Env};
    pub use hpf_machine::{CostModel, FaultPlan, FaultRates, Machine, Topology};
    pub use hpf_mg::{pcg_mg_distributed, GridDims, MgHierarchy, MgPreconditioner};
    pub use hpf_obs::{IterObserver, IterSample, RecordingObserver, Timeline};
    pub use hpf_partition::{cg_auto_repartition, AutoRepartitionOutcome, Partitioner};
    pub use hpf_service::{ServiceConfig, SolveRequest, SolverKind, SolverService};
    pub use hpf_solvers::{
        bicgstab_distributed, cg, cg_distributed, cg_distributed_protected, pcg_jacobi_distributed,
        pcg_jacobi_distributed_protected, solve, DistPreconditioner, JacobiPreconditioner, Krylov,
        NullObserver, RecoveryConfig, RecoveryStats, Solution, SolveStats, SolverError,
        SsorPreconditioner, StopCriterion,
    };
    pub use hpf_sparse::{CooMatrix, CscMatrix, CsrMatrix, DenseMatrix};
}
