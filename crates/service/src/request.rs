//! Requests and service configuration.

use hpf_machine::{FaultPlan, Topology};
use hpf_mg::GridDims;
use hpf_solvers::{RecoveryConfig, StopCriterion};
use hpf_sparse::CsrMatrix;
use std::sync::Arc;
use std::time::Duration;

/// Which distributed Krylov method to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Plain CG (requires a symmetric operator).
    Cg,
    /// Jacobi-preconditioned CG.
    PcgJacobi,
    /// BiCG (uses `Aᵀ` products).
    Bicg,
    /// BiCGSTAB.
    Bicgstab,
    /// Restarted GMRES(m).
    Gmres { restart: usize },
    /// Multigrid-preconditioned CG over a `levels`-deep geometric
    /// hierarchy (the HPCG-class workload). Requires
    /// [`SolveRequest::grid`] so the worker can rebuild the hierarchy;
    /// the hierarchy itself is cached in the plan cache, keyed on
    /// `levels`.
    PcgMg { levels: usize },
}

impl SolverKind {
    pub fn name(&self) -> &'static str {
        match self {
            SolverKind::Cg => "cg",
            SolverKind::PcgJacobi => "pcg-jacobi",
            SolverKind::Bicg => "bicg",
            SolverKind::Bicgstab => "bicgstab",
            SolverKind::Gmres { .. } => "gmres",
            SolverKind::PcgMg { .. } => "pcg-mg",
        }
    }

    /// Multigrid hierarchy depth this solver needs cached alongside the
    /// plan; 0 for every non-multigrid method (part of the plan-cache
    /// key).
    pub fn mg_levels(&self) -> usize {
        match self {
            SolverKind::PcgMg { levels } => *levels,
            _ => 0,
        }
    }
}

/// Per-tenant quality-of-service class. Each class has its own bounded
/// sub-queue (so one tenant's flood cannot crowd out another class) and
/// a weighted-fair share of worker attention (`QOS_WEIGHTS`, 6 : 3 : 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QosClass {
    /// Latency-sensitive: highest dequeue weight; the class the soak
    /// asserts a p99 band for.
    Interactive,
    /// Default throughput traffic.
    Batch,
    /// Scavenger class: runs when nothing better is queued.
    BestEffort,
}

impl QosClass {
    pub const ALL: [QosClass; 3] = [QosClass::Interactive, QosClass::Batch, QosClass::BestEffort];

    /// Stable label used in metrics and reports.
    pub fn name(&self) -> &'static str {
        match self {
            QosClass::Interactive => "interactive",
            QosClass::Batch => "batch",
            QosClass::BestEffort => "best-effort",
        }
    }

    /// Index into per-class arrays (`ALL[i].index() == i`).
    pub fn index(&self) -> usize {
        match self {
            QosClass::Interactive => 0,
            QosClass::Batch => 1,
            QosClass::BestEffort => 2,
        }
    }
}

/// One unit of work for the service: a matrix, one or more right-hand
/// sides, and how to solve them.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// System matrix, shared so repeated submissions don't copy it.
    pub matrix: Arc<CsrMatrix>,
    /// One or many right-hand sides; each is solved independently and
    /// yields one solution/stats pair in the response.
    pub rhs: Vec<Vec<f64>>,
    pub solver: SolverKind,
    pub stop: StopCriterion,
    pub max_iters: usize,
    /// Relative deadline, measured from submission. A job that is still
    /// queued when its deadline passes is failed with
    /// [`crate::ServiceError::DeadlineExceeded`] instead of being run.
    pub deadline: Option<Duration>,
    /// Deterministic fault plan installed on the simulated machine for
    /// this job's first attempt (chaos testing). Retries run on a clean
    /// machine — the faults model a transient environment, not the job.
    pub fault_plan: Option<FaultPlan>,
    /// Free-form tag recorded alongside the solver name in the labeled
    /// service metrics (`solve_completed_total{solver=...,scenario=...}`),
    /// so callers can split counters by workload. Defaults to
    /// `"default"`.
    pub scenario: String,
    /// Which registered partitioner lays the matrix out
    /// (`REDISTRIBUTE ... USING <name>`). Must name an entry of the
    /// `hpf-partition` registry; validated at submission. Defaults to
    /// the paper's own heuristic, `"balanced-rows"`.
    pub partitioner: String,
    /// Geometric grid behind the matrix, required by
    /// [`SolverKind::PcgMg`] (the hierarchy is rebuilt from these dims;
    /// validation checks `grid.n() == matrix.n_rows()`). Ignored by
    /// every other solver.
    pub grid: Option<GridDims>,
    /// Quality-of-service class this job is queued and scheduled under.
    /// Defaults to [`QosClass::Batch`].
    pub qos: QosClass,
    /// Free-form tenant label (reporting only; scheduling is by `qos`).
    pub tenant: String,
    /// Request trace id, propagated through every telemetry event this
    /// job produces (admission verdict, bus events, the worker's
    /// `trace=<hex>` machine span). `0` means "assign one for me": the
    /// service derives a deterministic non-zero id from the job id at
    /// submission.
    pub trace_id: u64,
}

impl SolveRequest {
    /// A request with library defaults: CG, relative residual `1e-8`,
    /// `10 n` iteration cap, no deadline.
    pub fn new(matrix: Arc<CsrMatrix>, rhs: Vec<f64>) -> Self {
        let n = matrix.n_rows();
        SolveRequest {
            matrix,
            rhs: vec![rhs],
            solver: SolverKind::Cg,
            stop: StopCriterion::RelativeResidual(1e-8),
            max_iters: 10 * n.max(1),
            deadline: None,
            fault_plan: None,
            scenario: "default".to_string(),
            partitioner: hpf_partition::DEFAULT_PARTITIONER.to_string(),
            grid: None,
            qos: QosClass::Batch,
            tenant: "anonymous".to_string(),
            trace_id: 0,
        }
    }

    /// The HPCG-class request: multigrid-preconditioned CG on the
    /// Poisson problem over `dims`, `levels` hierarchy levels, scenario
    /// tag `"hpcg"` (so the labeled service metrics split this workload
    /// out). The matrix is the grid's own discretisation — exactly what
    /// the cached hierarchy's finest level will be.
    pub fn hpcg(dims: GridDims, levels: usize, rhs: Vec<f64>) -> Self {
        let mut r = Self::new(Arc::new(dims.poisson()), rhs);
        r.solver = SolverKind::PcgMg { levels };
        r.grid = Some(dims);
        r.scenario = "hpcg".to_string();
        r
    }

    pub fn with_rhs_set(matrix: Arc<CsrMatrix>, rhs: Vec<Vec<f64>>) -> Self {
        let mut r = Self::new(matrix, Vec::new());
        r.rhs = rhs;
        r
    }

    pub fn solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    pub fn stop(mut self, stop: StopCriterion) -> Self {
        self.stop = stop;
        self
    }

    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    pub fn scenario(mut self, scenario: impl Into<String>) -> Self {
        self.scenario = scenario.into();
        self
    }

    /// Pick the partitioner by its `USING <name>` identifier (see
    /// `hpf_partition::partitioner_names`).
    pub fn partitioner(mut self, name: impl Into<String>) -> Self {
        self.partitioner = name.into();
        self
    }

    /// Declare the geometric grid behind the matrix (required for
    /// [`SolverKind::PcgMg`]).
    pub fn grid(mut self, dims: GridDims) -> Self {
        self.grid = Some(dims);
        self
    }

    /// Queue this job under `qos` (default [`QosClass::Batch`]).
    pub fn qos(mut self, qos: QosClass) -> Self {
        self.qos = qos;
        self
    }

    /// Attach a tenant label (reporting only).
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Carry a caller-chosen trace id (`0` = let the service assign a
    /// deterministic one at submission).
    pub fn trace(mut self, trace_id: u64) -> Self {
        self.trace_id = trace_id;
        self
    }
}

/// The simulated machine's topology: every solve runs on a hypercube.
pub const TOPOLOGY: Topology = Topology::Hypercube;

/// Weighted-fair dequeue shares per QoS class, indexed by
/// [`QosClass::index`] (Interactive, Batch, BestEffort): how many batches
/// a class may dispatch per round-robin round while other classes have
/// work queued.
pub(crate) const QOS_WEIGHTS: [u32; 3] = [6, 3, 1];

/// Static service configuration, fixed at start-up.
///
/// What every deployment shares is a constant beside the code that reads
/// it, not a field: the machine's [`TOPOLOGY`], the QoS weights
/// (6 : 3 : 1), at most 16 jobs a batch, 8 calibrating solves before
/// admission sheds, retries that escalate CG → BiCGSTAB → GMRES, and a
/// supervisor that always runs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing solves.
    pub workers: usize,
    /// Bounded job-queue capacity; a full queue rejects with `Busy`.
    pub queue_capacity: usize,
    /// Simulated machine size every solve runs on.
    pub np: usize,
    /// Reuse `SolvePlan`s across requests with equal fingerprints.
    pub plan_cache_enabled: bool,
    /// Merge queued same-structure jobs into one multi-RHS execution.
    pub batching_enabled: bool,
    /// Total solve attempts per job (1 = no retries). A retry after a
    /// numerical breakdown steps down the CG → BiCGSTAB → GMRES
    /// escalation chain instead of re-running the same method.
    pub max_attempts: usize,
    /// Consecutive job failures per structure before its circuit opens
    /// (0 disables the breaker).
    pub breaker_threshold: u32,
    /// How long an open circuit refuses jobs before a half-open trial.
    pub breaker_cooldown: Duration,
    /// Run CG/PCG jobs through the checkpoint/rollback protected
    /// solvers; `None` uses the unprotected recurrences.
    pub recovery: Option<RecoveryConfig>,
    /// A busy worker whose heartbeat has not advanced for this long is
    /// declared hung, killed and restarted by the supervisor.
    pub hang_timeout: Duration,
    /// Supervisor polling interval.
    pub supervisor_poll: Duration,
    /// Live telemetry tap for service lifecycle events (admission,
    /// sheds, kills, completions — see [`crate::ServiceEvent`]). `None`
    /// keeps the service silent; `hpf-obs::bus` provides an adapter.
    pub event_sink: Option<crate::events::ServiceEventSink>,
    /// Live telemetry tap installed on every worker's simulated machine
    /// ([`hpf_machine::EventSink`]), streaming machine-level events
    /// (spans, faults, collectives) out mid-solve.
    pub machine_sink: Option<hpf_machine::EventSink>,
    /// Called with every answered job's evidence
    /// ([`crate::events::JobEvidence`]: its last machine events, residual
    /// series and lifecycle events) by the thread answering it — what a
    /// flight recorder installs. `None`: no worker keeps any of it.
    pub evidence_hook: Option<crate::events::EvidenceHook>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            np: 8,
            plan_cache_enabled: true,
            batching_enabled: true,
            max_attempts: 3,
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_millis(250),
            recovery: Some(RecoveryConfig::default()),
            hang_timeout: Duration::from_millis(500),
            supervisor_poll: Duration::from_millis(20),
            event_sink: None,
            machine_sink: None,
            evidence_hook: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_sparse::gen;

    #[test]
    fn builder_chain_sets_fields() {
        let a = Arc::new(gen::tridiagonal(8, 4.0, -1.0));
        let r = SolveRequest::new(a, vec![1.0; 8])
            .solver(SolverKind::Bicgstab)
            .stop(StopCriterion::AbsoluteResidual(1e-6))
            .max_iters(7)
            .deadline(Duration::from_millis(5))
            .scenario("rowwise");
        assert_eq!(r.solver, SolverKind::Bicgstab);
        assert_eq!(r.max_iters, 7);
        assert!(r.deadline.is_some());
        assert_eq!(r.rhs.len(), 1);
        assert_eq!(r.scenario, "rowwise");
    }

    #[test]
    fn scenario_defaults_to_default() {
        let a = Arc::new(gen::tridiagonal(4, 4.0, -1.0));
        assert_eq!(SolveRequest::new(a, vec![1.0; 4]).scenario, "default");
    }

    #[test]
    fn partitioner_defaults_to_balanced_rows_and_is_overridable() {
        let a = Arc::new(gen::tridiagonal(4, 4.0, -1.0));
        let r = SolveRequest::new(a.clone(), vec![1.0; 4]);
        assert_eq!(r.partitioner, "balanced-rows");
        let r = SolveRequest::new(a, vec![1.0; 4]).partitioner("greedy-hypergraph");
        assert_eq!(r.partitioner, "greedy-hypergraph");
    }

    #[test]
    fn solver_names_are_stable() {
        assert_eq!(SolverKind::Cg.name(), "cg");
        assert_eq!(SolverKind::Gmres { restart: 5 }.name(), "gmres");
        assert_eq!(SolverKind::PcgMg { levels: 3 }.name(), "pcg-mg");
        assert_eq!(SolverKind::PcgMg { levels: 3 }.mg_levels(), 3);
        assert_eq!(SolverKind::Cg.mg_levels(), 0);
    }

    #[test]
    fn hpcg_request_carries_grid_solver_and_scenario() {
        let dims = GridDims::d2(15, 15);
        let r = SolveRequest::hpcg(dims, 3, vec![1.0; dims.n()]);
        assert_eq!(r.solver, SolverKind::PcgMg { levels: 3 });
        assert_eq!(r.grid, Some(dims));
        assert_eq!(r.scenario, "hpcg");
        assert_eq!(r.matrix.n_rows(), dims.n());
        // The matrix really is the grid's discretisation.
        assert_eq!(r.matrix.as_ref(), &dims.poisson());
    }
}
