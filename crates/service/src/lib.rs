//! # hpf-service — solver-as-a-service over the simulated HPF machine
//!
//! The rest of the workspace answers "how expensive is one CG solve
//! under an HPF data distribution?". This crate answers the operational
//! follow-up: "what does a *solver server* look like when partitioning
//! is the expensive, reusable step?" — the scenario the paper's
//! `REDISTRIBUTE ... USING CG_BALANCED_PARTITIONER_1` extension exists
//! for. Running the partitioner is worth caching precisely because "the
//! distribution of data and computation" dominates repeated solves on a
//! fixed structure (time-stepping, parameter sweeps, multiple loads).
//!
//! Pipeline: [`SolverService::submit`] validates and enqueues into a
//! **bounded job queue** (full ⇒ typed [`ServiceError::Busy`]
//! backpressure); a free worker of the fixed **worker pool** takes the
//! next job by weight together with the queued jobs that share its
//! [`batch::BatchKey`], as one multi-RHS **batch**, and executes it —
//! resolving a [`plan::SolvePlan`] through the structural **plan
//! cache** ([`Fingerprint`] → plan), so repeated structures partition
//! exactly once — and answers every job with a
//! [`SolveResponse`] carrying per-RHS [`hpf_solvers::SolveStats`] and a
//! [`TraceSummary`] of the simulated machine activity. Counters are
//! exported as a serializable [`MetricsSnapshot`].
//!
//! ```
//! use hpf_service::{ServiceConfig, SolveRequest, SolverService};
//! use hpf_sparse::gen;
//! use std::sync::Arc;
//!
//! let service = SolverService::start(ServiceConfig::default());
//! let a = Arc::new(gen::banded_spd(64, 3, 1));
//! let (b, _x) = gen::rhs_for_known_solution(&a);
//! let response = service.solve(SolveRequest::new(a, b)).unwrap();
//! assert!(response.stats[0].converged);
//! ```

/// Lock `m`, taking a poisoned lock as it is. Every critical section in
/// this crate is a handful of assignments that leave what they guard
/// valid at each step, so a panic that unwound through one broke
/// nothing the next holder could trip over.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub mod admission;
pub mod batch;
pub mod events;
pub mod fingerprint;
pub mod http;
pub mod metrics;
pub mod plan;
pub mod request;
pub mod response;
pub mod retry;
pub mod service;
pub mod supervisor;
pub mod worker;

pub use admission::{AdmissionController, AdmissionDecision};
pub use events::{
    EvidenceHook, JobEvidence, ResidualTail, ServiceEvent, ServiceEventSink, SolverTail,
    LIFECYCLE_TAIL,
};
pub use fingerprint::Fingerprint;
pub use http::MetricsServer;
pub use metrics::{
    Metrics, MetricsSnapshot, PostmortemCount, SolveOutcome, LATENCY_BUCKET_BOUNDS_US,
};
pub use plan::{CacheOutcome, PlanCache, SolvePlan};
pub use request::{QosClass, ServiceConfig, SolveRequest, SolverKind};
pub use response::{PlanSource, ServiceError, SolveResponse, TraceSummary};
pub use retry::{
    backoff_delay, backoff_delay_jittered, escalate, is_retryable, splitmix64, Admission,
    CircuitBreaker,
};
pub use service::{JobHandle, SolverService};
pub use supervisor::{SupervisorAbort, WorkerState};
