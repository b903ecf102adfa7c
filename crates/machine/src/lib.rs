//! # hpf-machine — simulated distributed-memory multicomputer
//!
//! Substrate crate for the reproduction of *"High Performance Fortran and
//! Possible Extensions to support Conjugate Gradient Algorithms"*
//! (Dincer, Hawick, Choudhary, Fox; NPAC SCCS-703 / HPDC'96).
//!
//! The paper evaluates HPF data layouts analytically on distributed-memory
//! machines parameterised by a start-up latency `t_startup` and a per-word
//! transfer time `t_comm`, with hypercube-style collective algorithms.
//! This crate provides exactly that machine:
//!
//! * [`cost::CostModel`] — the `(t_startup, t_word, t_flop)` linear model;
//! * [`topology::Topology`] — hypercube / mesh / ring / fully-connected /
//!   bus networks with per-collective analytic timing;
//! * [`machine::Machine`] — `NP` virtual processors with per-processor
//!   clocks, traffic counters, and an event [`trace::Trace`];
//! * [`spmd`] — a *real* message-passing world (ranks as OS threads,
//!   one channel per rank) used for the hand-coded SPMD baseline the paper
//!   compares HPF against.

pub mod blackbox;
pub mod cost;
pub mod counter;
pub mod fault;
pub mod machine;
pub mod predict;
mod recorder;
pub mod span;
pub mod spmd;
pub mod topology;
pub mod trace;

pub use blackbox::{BlackBoxRecord, BlackBoxTail};
pub use cost::CostModel;
pub use counter::StripedCounter;
pub use fault::{Fault, FaultKind, FaultPlan, FaultRates};
pub use machine::{EventSink, EventTail, Machine, ProcStats, ProgressHook, TraceLevel};
pub use predict::{cg_iteration_seconds, predicted_or_measured_total, predicted_time};
pub use span::{level_of, trace_of, ScopeGuard, Span};
pub use spmd::{Comm, SpmdRun, SpmdStats, SpmdWorld};
pub use topology::Topology;
pub use trace::{Digest, Event, EventKind, LabelSummary, Trace, TraceParseError};
