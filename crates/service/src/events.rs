//! Service-level lifecycle events for live telemetry.
//!
//! The simulated machine already streams its own [`hpf_machine::Event`]s
//! through [`hpf_machine::EventSink`]; this module is the *service-side*
//! counterpart — the request lifecycle the machine cannot see: admission
//! verdicts, sheds, deadline expiries, hang kills, rollbacks, and
//! completions. `hpf-obs` depends on `hpf-service` (not the other way
//! round), so the service defines the event vocabulary and a sink
//! abstraction here, and the observability layer plugs an adapter in via
//! [`crate::ServiceConfig::event_sink`].
//!
//! Every variant carries the request's `trace_id`, the same id the
//! worker stamps as a `trace=<hex>` span segment on the simulated
//! machine — so a consumer can join a service-side shed or kill with the
//! machine-side spans of the very same request.

use crate::request::QosClass;
use hpf_machine::EventTail;
use hpf_solvers::TailObserver;
use std::sync::Arc;

/// One service lifecycle event, emitted at the moment it happens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceEvent {
    /// Admission accepted the job into its class queue.
    Admitted {
        trace_id: u64,
        class: QosClass,
        /// Cost-oracle latency prediction at the door, µs.
        predicted_us: u64,
    },
    /// Admission refused the job: predicted latency exceeds the
    /// deadline budget ([`crate::ServiceError::Shed`]).
    Shed {
        trace_id: u64,
        class: QosClass,
        predicted_us: u64,
        budget_us: u64,
    },
    /// The job's deadline passed while it was still queued.
    DeadlineExpired { trace_id: u64, class: QosClass },
    /// The job was killed as hung: its worker's progress hook read the
    /// wall clock more than `hang_timeout` after its previous reading.
    WorkerKilled {
        trace_id: u64,
        class: QosClass,
        /// Wall time the job had been running when killed, µs.
        after_us: u64,
    },
    /// A worker answered its killed job and went on to the next one.
    WorkerRestarted {
        /// The worker's index in the pool.
        worker: usize,
    },
    /// A protected solver rolled back to a checkpoint mid-solve.
    Rollback { trace_id: u64, class: QosClass },
    /// The job is being re-attempted after a retryable failure.
    Retry {
        trace_id: u64,
        class: QosClass,
        /// 1-based attempt number about to run.
        attempt: usize,
    },
    /// Terminal outcome: the job's handle has been answered.
    Completed {
        trace_id: u64,
        class: QosClass,
        /// Queue wait + solve wall time, µs.
        latency_us: u64,
        /// `false` for any typed failure (breaker, kill, breakdown...).
        ok: bool,
        /// Stable outcome tag — `"ok"` on success, otherwise the failure
        /// class ([`crate::ServiceError::outcome`]): `"worker-killed"`,
        /// `"recovery-exhausted"`, `"deadline"`, ... This is what the
        /// flight recorder keys its dump triggers and verdicts on.
        outcome: &'static str,
    },
}

impl ServiceEvent {
    /// Stable kind label (used by bus JSONL and sampling policy).
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceEvent::Admitted { .. } => "admitted",
            ServiceEvent::Shed { .. } => "shed",
            ServiceEvent::DeadlineExpired { .. } => "deadline-expired",
            ServiceEvent::WorkerKilled { .. } => "worker-killed",
            ServiceEvent::WorkerRestarted { .. } => "worker-restarted",
            ServiceEvent::Rollback { .. } => "rollback",
            ServiceEvent::Retry { .. } => "retry",
            ServiceEvent::Completed { .. } => "completed",
        }
    }

    /// The request id this event belongs to (0 when the event is not
    /// tied to one request, e.g. a worker back from a kill).
    pub fn trace_id(&self) -> u64 {
        match *self {
            ServiceEvent::Admitted { trace_id, .. }
            | ServiceEvent::Shed { trace_id, .. }
            | ServiceEvent::DeadlineExpired { trace_id, .. }
            | ServiceEvent::WorkerKilled { trace_id, .. }
            | ServiceEvent::Rollback { trace_id, .. }
            | ServiceEvent::Retry { trace_id, .. }
            | ServiceEvent::Completed { trace_id, .. } => trace_id,
            ServiceEvent::WorkerRestarted { .. } => 0,
        }
    }

    /// Operationally significant events (faults of the service plane)
    /// that a sampling policy must never drop.
    pub fn is_critical(&self) -> bool {
        !matches!(
            self,
            ServiceEvent::Admitted { .. } | ServiceEvent::Completed { .. }
        )
    }
}

/// Callback fired with every [`ServiceEvent`] as it happens, from
/// whichever thread produced it (submitter or worker). Runs
/// on hot paths — implementations should be a sampling decision and a
/// lock-free push at most.
#[derive(Clone)]
pub struct ServiceEventSink(pub Arc<dyn Fn(&ServiceEvent) + Send + Sync>);

impl ServiceEventSink {
    pub fn new(f: impl Fn(&ServiceEvent) + Send + Sync + 'static) -> Self {
        ServiceEventSink(Arc::new(f))
    }

    pub fn emit(&self, event: &ServiceEvent) {
        (self.0)(event);
    }
}

impl std::fmt::Debug for ServiceEventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ServiceEventSink(..)")
    }
}

/// Emit through an optional sink (the no-telemetry fast path is one
/// `Option` test).
pub fn emit(sink: &Option<ServiceEventSink>, event: ServiceEvent) {
    if let Some(s) = sink {
        s.emit(&event);
    }
}

/// What the thread that ends a job holds of it at that moment, lent to
/// the [`EvidenceHook`]. That thread produced all of it (after admission
/// a job's machine events, iteration samples and lifecycle events come
/// from the one worker running it), so it is read where it was written:
/// a hook that keeps nothing copies nothing.
#[derive(Debug, Clone, Copy)]
pub struct JobEvidence<'a> {
    /// The newest [`LIFECYCLE_TAIL`] lifecycle events of the job, oldest
    /// first: an [`ServiceEvent::Admitted`] (rebuilt from the job; the
    /// submitter emitted the original), what the worker emitted, and
    /// last the one [`ServiceEvent::Completed`].
    pub lifecycle: &'a [ServiceEvent],
    /// The last machine events of the job, across its attempts.
    pub machine: &'a EventTail,
    /// The last attempt's residual series, if it reached an iteration.
    pub residual: Option<&'a ResidualTail>,
}

/// Lifecycle events kept per job for [`JobEvidence::lifecycle`].
pub const LIFECYCLE_TAIL: usize = 32;

/// The bounded residual series of one solve attempt, where the worker's
/// observer records it.
#[derive(Debug, Clone)]
pub struct ResidualTail {
    /// 1-based attempt the series belongs to.
    pub attempt: usize,
    /// Post-escalation solver that ran the attempt.
    pub solver: &'static str,
    pub series: TailObserver,
}

/// Called once per answered job, by the thread answering it, with the
/// job's [`JobEvidence`] — what a flight recorder installs. With one set
/// a worker keeps `machine_tail` machine events, a residual series and
/// the lifecycle events of the job in hand; without, none of them.
#[derive(Clone)]
pub struct EvidenceHook {
    pub machine_tail: usize,
    call: Arc<dyn Fn(&JobEvidence<'_>) + Send + Sync>,
}

impl EvidenceHook {
    pub fn new(machine_tail: usize, f: impl Fn(&JobEvidence<'_>) + Send + Sync + 'static) -> Self {
        EvidenceHook {
            machine_tail,
            call: Arc::new(f),
        }
    }

    pub fn call(&self, evidence: &JobEvidence<'_>) {
        (self.call)(evidence);
    }
}

impl std::fmt::Debug for EvidenceHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EvidenceHook(machine_tail: {})", self.machine_tail)
    }
}

/// Deterministic non-zero trace id for a job id (splitmix64 finalizer —
/// well-mixed bits, so probabilistic head sampling keyed on the id is
/// uniform even though job ids are sequential).
pub fn derive_trace_id(job_id: u64) -> u64 {
    crate::retry::splitmix64(job_id).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn kinds_are_stable_and_criticality_matches_policy() {
        let e = ServiceEvent::Shed {
            trace_id: 7,
            class: QosClass::Interactive,
            predicted_us: 100,
            budget_us: 10,
        };
        assert_eq!(e.kind(), "shed");
        assert_eq!(e.trace_id(), 7);
        assert!(e.is_critical());
        let ok = ServiceEvent::Completed {
            trace_id: 9,
            class: QosClass::Batch,
            latency_us: 1,
            ok: true,
            outcome: "ok",
        };
        assert!(!ok.is_critical(), "completions are head-sampled");
        assert_eq!(
            ServiceEvent::WorkerRestarted { worker: 1 }.trace_id(),
            0,
            "a worker back from a kill is not tied to one request"
        );
    }

    #[test]
    fn emit_is_a_noop_without_a_sink_and_forwards_with_one() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let tap = seen.clone();
        let sink = Some(ServiceEventSink::new(move |e: &ServiceEvent| {
            tap.lock().unwrap().push(e.kind());
        }));
        emit(&None, ServiceEvent::WorkerRestarted { worker: 0 });
        emit(&sink, ServiceEvent::WorkerRestarted { worker: 0 });
        assert_eq!(*seen.lock().unwrap(), vec!["worker-restarted"]);
    }

    /// Trace ids are in artifacts (`trace=<016x>` spans, post-mortem
    /// keys): the values below were taken on `1ed495c`, before
    /// `derive_trace_id` became one call to the shared mixer.
    #[test]
    fn trace_ids_keep_their_recorded_values() {
        assert_eq!(derive_trace_id(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(derive_trace_id(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(derive_trace_id(12345), 0x2211_8258_a9d1_11a0);
        assert_eq!(derive_trace_id(u64::MAX), 0xe4d9_7177_1b65_2c20);
    }
}
