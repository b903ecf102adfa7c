//! # hpf-obs — observability for the simulated HPF machine
//!
//! The paper's performance story ("CG spends its time in matvec
//! communication and dot-product reductions") is only checkable if the
//! simulator can *show* where simulated time goes. This crate turns the
//! raw event [`Trace`](hpf_machine::Trace) and the solver telemetry
//! hooks into artifacts a human (or CI) can consume:
//!
//! - **Spans** — re-exported from `hpf_machine::span`: every traced
//!   event carries a `/`-joined path like `solve/iter=12/matvec`
//!   describing *what the program was doing* when the event occurred.
//! - **Telemetry** — [`ConvergenceLog`] records the per-iteration
//!   [`IterSample`](hpf_solvers::IterSample) stream (residual, α/β,
//!   flops, comm, rollbacks) and round-trips it through CSV.
//! - **Timelines** — [`timeline::Timeline`] reconstructs per-processor
//!   busy intervals from event `start`/`proc_times` stamps.
//! - **Exporters** — [`perfetto`] renders a timeline as Chrome/Perfetto
//!   trace-event JSON; [`prom`] renders an `hpf-service`
//!   [`MetricsSnapshot`](hpf_service::MetricsSnapshot) as Prometheus
//!   text exposition.
//! - **Analysis** — [`analysis`] extracts the critical path, the
//!   per-processor load-imbalance ratio, and per-span cost attribution.
//! - **Cost oracle** — [`oracle`] attributes every event to one of the
//!   paper's Section-4 analytic categories, prices it with the closed
//!   forms, and emits a [`DriftReport`] of predicted-vs-measured time.
//! - **Admission audit** — [`admission::AdmissionAudit`] judges the
//!   service's shed decisions in hindsight against completed-job
//!   latencies, pricing over-shedding as a "shed-when-feasible" rate.
//! - **Flight recorder** — [`rca::FlightRecorder`] is lent the bounded
//!   machine/service/residual tails each worker keeps of the job in hand
//!   and, on a bad terminal outcome or a firing SLO alert, correlates
//!   them into a ranked root-cause [`rca::Postmortem`] document.
//! - **Regression gate** — [`gate`] persists bench runs as
//!   schema-versioned `BENCH_<n>.json` records plus a rolling
//!   `bench-history.jsonl`, and fails (typed [`GateError`]) when a
//!   series regresses past tolerance.
//!
//! Every format here is the public contract and is written by hand by
//! the type that owns it, against one codec: [`json`] re-exports the
//! leaf crate `hpf-json` (builders that own the punctuation, one strict
//! reader, the same descent as a validator). There is no derive.

pub mod admission;
pub mod analysis;
pub mod bus;
pub mod gate;
pub mod json;
pub mod oracle;
pub mod perfetto;
pub mod profile;
pub mod prom;
pub mod rca;
pub mod slo;
pub mod telemetry;
pub mod timeline;

pub use admission::{percentile_us, AdmissionAudit, ShedSample};
pub use analysis::{critical_path, load_imbalance, span_costs, CriticalPathReport, SpanCost};
pub use bus::{BusEvent, BusOrigin, BusStats, EventBus, RingBuffer, SamplingPolicy};
pub use gate::{
    render_diff, BenchRecord, GateError, GateOutcome, RegressionGate, Violation,
    BENCH_SCHEMA_VERSION,
};
pub use hpf_machine::span::{self, current_path, enter};
pub use hpf_machine::{ScopeGuard, Span};
pub use hpf_solvers::{IterObserver, IterSample, NullObserver, RecordingObserver};
pub use oracle::{classify, CategoryDrift, DriftCategory, DriftReport, IterDrift, WorstOffender};
pub use perfetto::{trace_events_json, PerfettoError};
pub use profile::{normalize_path, HotSpan, SpanProfile};
pub use prom::{render_prometheus, snapshot_from_json};
pub use rca::{
    summary_from_json as postmortem_summary_from_json, FlightRecorder, FlightRecorderConfig,
    Postmortem, PostmortemSummary, RootCause, Trigger, Verdict, POSTMORTEM_SCHEMA,
};
pub use slo::{AlertState, AlertTransition, SloSpec, SloStatus, SloTracker};
pub use telemetry::ConvergenceLog;
pub use timeline::{Slice, Timeline};
