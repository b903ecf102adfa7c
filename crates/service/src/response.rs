//! Responses, per-job reporting, and the service error type.

use crate::fingerprint::Fingerprint;
use hpf_machine::Digest;
use hpf_solvers::{SolveStats, SolverError};
use std::fmt;
use std::time::Duration;

/// How the plan for a job was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Served from the plan cache.
    CacheHit,
    /// Partitioned on demand and (if caching is on) inserted.
    Built,
}

/// Everything the service reports back for one accepted job.
#[derive(Debug, Clone)]
pub struct SolveResponse {
    /// Service-assigned job id (submission order).
    pub job_id: u64,
    /// One solution per right-hand side, in request order.
    pub solutions: Vec<Vec<f64>>,
    /// Solver statistics per right-hand side.
    pub stats: Vec<SolveStats>,
    /// Structural fingerprint the plan was keyed by.
    pub fingerprint: Fingerprint,
    /// Whether the plan came from the cache.
    pub plan_source: PlanSource,
    /// nnz-load imbalance of the plan's partition (1.0 = perfect).
    pub plan_imbalance: f64,
    /// `USING <name>` identifier of the partitioner that laid out the
    /// plan this job ran under.
    pub partitioner: &'static str,
    /// Number of other jobs merged into the same execution batch.
    pub batched_with: usize,
    /// Solver that actually produced the answer (differs from the
    /// requested one after escalation).
    pub solver_used: crate::request::SolverKind,
    /// Solve attempts consumed (1 = first try succeeded).
    pub attempts: usize,
    /// Checkpoint/rollback activity, when the protected solvers ran.
    pub recovery: Option<hpf_solvers::RecoveryStats>,
    /// Digest of the simulated-machine activity this job's solves
    /// induced: totals plus the per-label breakdown. The worker's machine
    /// keeps it as it goes ([`hpf_machine::TraceLevel::Summary`]);
    /// `Digest::from_trace` computes the same value from a stored trace.
    pub trace: Digest,
    /// Wall-clock time spent queued before execution started.
    pub wait_time: Duration,
    /// Wall-clock time from the start of the job's batch to the start of
    /// its own solves: plan lookup or build, operator, machine — and, for
    /// a job that shares its batch, the batch mates that ran before it.
    pub setup_time: Duration,
    /// Wall-clock time spent executing this job's solves.
    pub solve_time: Duration,
}

/// Typed failure modes of the service.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The bounded job queue is full — backpressure, try again later.
    Busy { queue_capacity: usize },
    /// The job's deadline passed before execution began.
    DeadlineExceeded { waited: Duration },
    /// The request is malformed (shape mismatch, empty RHS set, ...).
    InvalidRequest(String),
    /// The solver itself failed (breakdown, dimension mismatch, ...).
    Solver(SolverError),
    /// The executing worker panicked; the pool survives, the job fails.
    WorkerPanic(String),
    /// The service shut down before the job completed.
    Shutdown,
    /// This structure's circuit breaker is open: its recent jobs kept
    /// failing, so the service refuses new ones until the cooldown.
    CircuitOpen { fingerprint: Fingerprint },
    /// Admission control refused the job on arrival: the cost oracle's
    /// `predicted` completion time (backlog ahead plus this job's own
    /// solve) exceeds the request's deadline `budget`. Cheaper for
    /// everyone than queuing work that is doomed to miss.
    Shed {
        predicted: Duration,
        budget: Duration,
    },
    /// The job was killed as hung (more than `hang_timeout` between two
    /// of its worker's clock readings, DESIGN §10); `after` is how long
    /// the job had been executing. The job may be resubmitted; the
    /// worker goes on with its next job.
    WorkerKilled { after: Duration },
}

impl ServiceError {
    /// Stable outcome tag carried on the terminal
    /// [`crate::ServiceEvent::Completed`] event — the flight recorder's
    /// dump-trigger and verdict vocabulary. `"ok"` is reserved for
    /// success.
    pub fn outcome(&self) -> &'static str {
        match self {
            ServiceError::Busy { .. } => "busy",
            ServiceError::DeadlineExceeded { .. } => "deadline",
            ServiceError::InvalidRequest(_) => "invalid-request",
            ServiceError::Solver(e) => match e {
                SolverError::RecoveryExhausted { .. } => "recovery-exhausted",
                SolverError::Stagnation { .. } => "stagnation",
                SolverError::NonFinite { .. } => "non-finite",
                SolverError::Breakdown { .. } => "breakdown",
                SolverError::SingularMatrix { .. } => "singular",
                SolverError::NotSquare { .. }
                | SolverError::DimensionMismatch { .. }
                | SolverError::NotSymmetric
                | SolverError::ZeroRestart => "invalid-operator",
            },
            ServiceError::WorkerPanic(_) => "worker-panic",
            ServiceError::Shutdown => "shutdown",
            ServiceError::CircuitOpen { .. } => "circuit-open",
            ServiceError::Shed { .. } => "shed",
            ServiceError::WorkerKilled { .. } => "worker-killed",
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Busy { queue_capacity } => {
                write!(f, "job queue full ({queue_capacity} slots)")
            }
            ServiceError::DeadlineExceeded { waited } => {
                write!(f, "deadline exceeded after {:?} in queue", waited)
            }
            ServiceError::InvalidRequest(why) => write!(f, "invalid request: {why}"),
            ServiceError::Solver(e) => write!(f, "solver failed: {e}"),
            ServiceError::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
            ServiceError::Shutdown => write!(f, "service shut down"),
            ServiceError::CircuitOpen { fingerprint } => {
                write!(f, "circuit open for structure {}", fingerprint.short())
            }
            ServiceError::Shed { predicted, budget } => {
                write!(
                    f,
                    "shed on arrival: predicted completion {:?} exceeds deadline budget {:?}",
                    predicted, budget
                )
            }
            ServiceError::WorkerKilled { after } => {
                write!(f, "job killed as hung after {:?} executing", after)
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<SolverError> for ServiceError {
    fn from(e: SolverError) -> Self {
        ServiceError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_machine::{CostModel, Machine, Topology};

    #[test]
    fn trace_summary_totals_match_trace() {
        let mut m = Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
        m.set_tracing(true);
        m.allreduce(1, "dot-merge");
        m.compute_uniform(100, "local");
        let s = Digest::from_trace(m.trace());
        assert_eq!(s.events, 2);
        assert_eq!(s.by_label.len(), 2);
        assert!((s.total_time - (s.comm_time + s.compute_time)).abs() < 1e-12);
    }

    #[test]
    fn error_messages_name_the_cause() {
        let busy = ServiceError::Busy { queue_capacity: 4 };
        assert!(busy.to_string().contains("full"));
        let dl = ServiceError::DeadlineExceeded {
            waited: Duration::from_millis(3),
        };
        assert!(dl.to_string().contains("deadline"));
        let sv: ServiceError = SolverError::NotSymmetric.into();
        assert!(sv.to_string().contains("symmetric"));
    }
}
