//! The live telemetry bus: a bounded queue fed by the machine- and
//! service-level event taps, with per-job head sampling.
//!
//! Post-hoc traces answer "what did that solve cost?"; the bus answers
//! the operational question "what is the service doing *right now*?".
//! Producers (worker threads recording machine events, the submitter
//! shedding at the door, a worker killing its own hung job) publish
//! into a fixed-capacity FIFO behind one mutex, held for a `VecDeque`
//! operation and nothing else. The traffic sized it: a handful of
//! producers that already pay three `String` allocations a published
//! event, and one consumer (`trace-report --follow`, the E29 harness)
//! that drains once a burst, taking what is there under one lock. When
//! producers outrun it the queue *drops new events and counts them*
//! rather than making a solver thread wait for room.
//!
//! **Head sampling** keeps the always-on cost negligible: the keep/drop
//! decision is made once per *job* (keyed on the request's trace id, so
//! a kept job streams all of its events and a dropped job none — paths
//! stay joinable end to end), except that operationally critical events
//! — machine faults and service sheds, kills, rollbacks, retries,
//! deadline expiries — bypass sampling entirely. You can lower the
//! sample rate to shed volume, never visibility of failures.

use crate::json::Obj;
use hpf_machine::StripedCounter;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Where a bus event was produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BusOrigin {
    /// The simulated machine's recording chokepoint
    /// ([`hpf_machine::EventSink`]): spans, collectives, faults.
    #[default]
    Machine,
    /// The service lifecycle ([`hpf_service::ServiceEvent`]): admission,
    /// sheds, kills, completions.
    Service,
}

impl BusOrigin {
    pub fn name(&self) -> &'static str {
        match self {
            BusOrigin::Machine => "machine",
            BusOrigin::Service => "service",
        }
    }

    fn parse(s: &str) -> Option<BusOrigin> {
        match s {
            "machine" => Some(BusOrigin::Machine),
            "service" => Some(BusOrigin::Service),
            _ => None,
        }
    }
}

/// One sampled telemetry event, flattened to a common schema so machine
/// and service events interleave on a single stream.
///
/// This is deliberately *not* the [`hpf_machine::Event`] JSONL schema —
/// that parser rejects unknown keys by contract, and the bus needs
/// stream metadata (`seq`, `wall_s`, `origin`, `trace`) the post-hoc
/// trace never carries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BusEvent {
    /// Publication sequence number, taken past sampling and before the
    /// push: an event dropped on a full queue took one too, so a gap in
    /// what a consumer reads is a drop.
    pub seq: u64,
    /// Wall-clock seconds since the bus was created.
    pub wall_s: f64,
    pub origin: BusOrigin,
    /// Stable kind label: the machine [`hpf_machine::EventKind`] name
    /// or the service event kind (`"shed"`, `"worker-killed"`, ...).
    pub kind: String,
    /// Request trace id (0 = not tied to one request).
    pub trace_id: u64,
    /// QoS class name for service events; empty for machine events.
    pub class: String,
    /// Span path for machine events; empty for service events.
    pub span: String,
    pub label: String,
    /// Simulated seconds (machine events; 0 for service events).
    pub time_s: f64,
    /// Completion latency in µs (service `completed` events; else 0).
    pub latency_us: u64,
    /// Completion outcome (service `completed` events; else `true`).
    pub ok: bool,
    /// Stable outcome tag for service `completed` events (`"ok"`,
    /// `"worker-killed"`, `"recovery-exhausted"`, ...); empty for every
    /// other event. Serialized only when non-empty, and old followers
    /// ignore it — the lenient parser contract at work.
    pub outcome: String,
}

impl BusEvent {
    /// One-line JSON rendering (the `--follow` wire format).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut o = Obj::new(&mut out);
        o.u64("seq", self.seq)
            .f64("wall_s", self.wall_s)
            .str("origin", self.origin.name())
            .str("kind", &self.kind)
            .str("trace", &format!("{:016x}", self.trace_id))
            .str("class", &self.class)
            .str("span", &self.span)
            .str("label", &self.label)
            .f64("time_s", self.time_s)
            .u64("latency_us", self.latency_us)
            .bool("ok", self.ok);
        if !self.outcome.is_empty() {
            o.str("outcome", &self.outcome);
        }
        drop(o);
        out
    }

    /// Parse one [`BusEvent::to_jsonl`] line. Unlike the post-hoc trace
    /// parser this is *lenient about unknown keys* of any JSON type (a
    /// follower must keep working when a newer producer adds fields) but
    /// strict about the ones it understands, and `origin` is required.
    pub fn from_jsonl(line: &str) -> Result<BusEvent, String> {
        let doc = crate::json::parse(line)?;
        let members = doc
            .members()
            .ok_or_else(|| "bus event line is not a JSON object".to_string())?;
        let mut ev = BusEvent {
            ok: true,
            ..BusEvent::default()
        };
        let mut saw_origin = false;
        for (key, v) in members {
            let bad = || format!("bad {key} in bus event line");
            let text = || v.as_str().map(str::to_string).ok_or_else(bad);
            match key.as_ref() {
                "seq" => ev.seq = v.as_u64().ok_or_else(bad)?,
                "wall_s" => ev.wall_s = v.as_f64().ok_or_else(bad)?,
                "origin" => {
                    let raw = v.as_str().ok_or_else(bad)?;
                    ev.origin =
                        BusOrigin::parse(raw).ok_or_else(|| format!("unknown origin {raw:?}"))?;
                    saw_origin = true;
                }
                "kind" => ev.kind = text()?,
                "trace" => {
                    let raw = v.as_str().ok_or_else(bad)?;
                    ev.trace_id = u64::from_str_radix(raw, 16)
                        .map_err(|_| format!("bad trace id {raw:?}"))?;
                }
                "class" => ev.class = text()?,
                "span" => ev.span = text()?,
                "label" => ev.label = text()?,
                "time_s" => ev.time_s = v.as_f64().ok_or_else(bad)?,
                "latency_us" => ev.latency_us = v.as_u64().ok_or_else(bad)?,
                "ok" => ev.ok = v.as_bool().ok_or_else(bad)?,
                "outcome" => ev.outcome = text()?,
                _ => {} // forward compatibility: ignore unknown keys
            }
        }
        if !saw_origin {
            return Err("bus event line is missing 'origin'".to_string());
        }
        Ok(ev)
    }
}

// ---------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------

/// Head-sampling policy: one keep/drop decision per job, critical
/// events always kept.
#[derive(Debug, Clone, Copy)]
pub struct SamplingPolicy {
    /// Fraction of jobs whose non-critical events are kept, `0.0..=1.0`.
    pub sample_rate: f64,
}

impl SamplingPolicy {
    /// Keep everything (the E29 overhead phase measures this worst case).
    pub fn keep_all() -> Self {
        SamplingPolicy { sample_rate: 1.0 }
    }

    pub fn with_rate(sample_rate: f64) -> Self {
        SamplingPolicy {
            sample_rate: sample_rate.clamp(0.0, 1.0),
        }
    }

    /// The head decision for a job: deterministic in its trace id, so
    /// every producer (and a replay) agrees without coordination.
    /// Events with no trace id (`0`) share one fixed decision.
    pub fn keep_job(&self, trace_id: u64) -> bool {
        if self.sample_rate >= 1.0 {
            return true;
        }
        if self.sample_rate <= 0.0 {
            return false;
        }
        // Mixed, so the decision is uniform even for sequential ids.
        (hpf_service::splitmix64(trace_id) as f64 / u64::MAX as f64) < self.sample_rate
    }

    /// Full decision: critical events bypass the head sample.
    pub fn keep(&self, trace_id: u64, critical: bool) -> bool {
        critical || self.keep_job(trace_id)
    }
}

impl Default for SamplingPolicy {
    /// Keep 10% of jobs (plus every critical event).
    fn default() -> Self {
        SamplingPolicy { sample_rate: 0.1 }
    }
}

// ---------------------------------------------------------------------
// The bus
// ---------------------------------------------------------------------

/// Publication counters (all monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Events past sampling, each stamped with a `seq` — whether the
    /// queue then took them or not: accepted = `published - dropped`.
    pub published: u64,
    /// Published events refused because the queue was full (consumer
    /// too slow).
    pub dropped: u64,
    /// Events skipped by the head-sampling policy (working as designed).
    pub sampled_out: u64,
}

/// The streaming event bus: sampling policy + queue + wall clock.
///
/// The queue is a bounded FIFO behind one mutex, held for a `VecDeque`
/// operation and nothing else: a publish never waits for room, and on
/// a full queue the event is dropped and counted.
pub struct EventBus {
    queue: Mutex<VecDeque<BusEvent>>,
    /// Rounded up to a power of two, at least 2.
    capacity: usize,
    policy: SamplingPolicy,
    started: Instant,
    seq: AtomicU64,
    dropped: AtomicU64,
    /// Striped: every machine op of a sampled-out job lands here.
    sampled_out: StripedCounter,
}

impl EventBus {
    pub fn new(capacity: usize, policy: SamplingPolicy) -> Arc<Self> {
        Arc::new(EventBus {
            queue: Mutex::new(VecDeque::new()),
            capacity: capacity.max(2).next_power_of_two(),
            policy,
            started: Instant::now(),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            sampled_out: Default::default(),
        })
    }

    pub fn policy(&self) -> SamplingPolicy {
        self.policy
    }

    pub fn stats(&self) -> BusStats {
        BusStats {
            published: self.seq.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            sampled_out: self.sampled_out.sum(),
        }
    }

    /// The sampling decision, counted when it says no.
    fn keeps(&self, trace_id: u64, critical: bool) -> bool {
        let keep = self.policy.keep(trace_id, critical);
        if !keep {
            self.sampled_out.add(1);
        }
        keep
    }

    /// Apply sampling and publish. The caller supplies everything but
    /// `seq`/`wall_s`, which the bus stamps.
    pub fn publish(&self, event: BusEvent, critical: bool) {
        if self.keeps(event.trace_id, critical) {
            self.stamp_and_push(event);
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<BusEvent>> {
        // Every update is one `VecDeque` call: a panic elsewhere on a
        // thread holding the guard leaves the queue whole.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish an event that is past sampling.
    fn stamp_and_push(&self, mut event: BusEvent) {
        event.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        event.wall_s = self.started.elapsed().as_secs_f64();
        let mut queue = self.lock();
        if queue.len() < self.capacity {
            queue.push_back(event);
        } else {
            drop(queue);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Take every currently-buffered event (FIFO) under one lock; the
    /// queue keeps its buffer for the next burst.
    pub fn drain(&self) -> Vec<BusEvent> {
        self.lock().drain(..).collect()
    }

    /// A machine-level tap for [`hpf_machine::Machine::set_event_sink`]:
    /// every recorded machine event is flattened and offered to the bus.
    /// The trace id is the one the pre-filter is handed,
    /// [`hpf_machine::span::current_trace`]: the span stack's
    /// `trace=<hex>` segment (stamped by the service worker), parsed once
    /// when it was entered. Machine faults are critical.
    ///
    /// The head-sampling decision is the sink's pre-filter, which the
    /// machine asks once per operation at every trace level, before it
    /// fills anything in for the sink: a sampled-out job's operations
    /// never reach the body, let alone pay its three allocations —
    /// E29's per-published-event budget depends on this.
    pub fn machine_sink(self: &Arc<Self>) -> hpf_machine::EventSink {
        let filter_bus = Arc::clone(self);
        let bus = Arc::clone(self);
        hpf_machine::EventSink::new(move |e| {
            bus.stamp_and_push(BusEvent {
                origin: BusOrigin::Machine,
                kind: format!("{:?}", e.kind),
                trace_id: hpf_machine::span::current_trace().unwrap_or(0),
                span: e.span.to_string(),
                label: e.label.to_string(),
                time_s: e.time,
                ok: true,
                ..BusEvent::default()
            });
        })
        .with_filter(move |trace_id, kind| {
            filter_bus.keeps(trace_id, kind == hpf_machine::EventKind::Fault)
        })
    }

    /// A service-level tap for
    /// [`hpf_service::ServiceConfig::event_sink`]: lifecycle events
    /// (sheds, kills, completions...) flattened onto the same stream.
    pub fn service_sink(self: &Arc<Self>) -> hpf_service::ServiceEventSink {
        let bus = Arc::clone(self);
        hpf_service::ServiceEventSink::new(move |e: &hpf_service::ServiceEvent| {
            let (class, latency_us, ok, outcome) = match *e {
                hpf_service::ServiceEvent::Completed {
                    class,
                    latency_us,
                    ok,
                    outcome,
                    ..
                } => (class.name(), latency_us, ok, outcome),
                hpf_service::ServiceEvent::Admitted { class, .. }
                | hpf_service::ServiceEvent::Shed { class, .. }
                | hpf_service::ServiceEvent::DeadlineExpired { class, .. }
                | hpf_service::ServiceEvent::WorkerKilled { class, .. }
                | hpf_service::ServiceEvent::Rollback { class, .. }
                | hpf_service::ServiceEvent::Retry { class, .. } => (class.name(), 0, true, ""),
                hpf_service::ServiceEvent::WorkerRestarted { .. } => ("", 0, true, ""),
            };
            bus.publish(
                BusEvent {
                    origin: BusOrigin::Service,
                    kind: e.kind().to_string(),
                    trace_id: e.trace_id(),
                    class: class.to_string(),
                    latency_us,
                    ok,
                    outcome: outcome.to_string(),
                    ..BusEvent::default()
                },
                e.is_critical(),
            );
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, trace_id: u64) -> BusEvent {
        BusEvent {
            seq,
            wall_s: 0.25,
            origin: BusOrigin::Machine,
            kind: "AllReduce".to_string(),
            trace_id,
            class: String::new(),
            span: format!("trace={trace_id:016x}/solve/iter=1/matvec"),
            label: "dot-merge".to_string(),
            time_s: 1.5e-4,
            latency_us: 0,
            ok: true,
            outcome: String::new(),
        }
    }

    #[test]
    fn ring_is_fifo_and_drops_when_full() {
        let bus = EventBus::new(3, SamplingPolicy::keep_all());
        for i in 0..5 {
            bus.publish(ev(i, 1), false);
        }
        let stats = bus.stats();
        assert_eq!(
            (stats.published, stats.dropped),
            (5, 1),
            "3 rounds up to 4 slots"
        );
        let kept: Vec<u64> = bus.drain().iter().map(|e| e.seq).collect();
        assert_eq!(
            kept,
            [0, 1, 2, 3],
            "FIFO; the full queue refused, never blocked"
        );
        assert!(bus.drain().is_empty());
        // The drained slots are reusable.
        bus.publish(ev(0, 1), false);
        assert_eq!(bus.drain()[0].seq, 5);
        // A capacity below 2 still holds 2.
        let tiny = EventBus::new(0, SamplingPolicy::keep_all());
        for i in 0..3 {
            tiny.publish(ev(i, 1), false);
        }
        assert_eq!((tiny.stats().dropped, tiny.drain().len()), (1, 2));
    }

    #[test]
    fn ring_survives_concurrent_producers_and_consumer() {
        let bus = EventBus::new(64, SamplingPolicy::keep_all());
        let total = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicU64::new(0));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let bus = Arc::clone(&bus);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        bus.publish(ev(p * 1000 + i, p), false);
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        let consumer = {
            let bus = Arc::clone(&bus);
            let (total, done) = (Arc::clone(&total), Arc::clone(&done));
            std::thread::spawn(move || {
                while done.load(Ordering::Relaxed) < 4 {
                    let n = bus.drain().len() as u64;
                    total.fetch_add(n, Ordering::Relaxed);
                    std::thread::yield_now();
                }
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        consumer.join().unwrap();
        let drained = total.load(Ordering::Relaxed) + bus.drain().len() as u64;
        let stats = bus.stats();
        assert_eq!(stats.published, 2000);
        assert_eq!(
            drained,
            stats.published - stats.dropped,
            "every accepted event drains exactly once"
        );
    }

    #[test]
    fn bus_event_jsonl_round_trips() {
        let mut e = ev(42, 0xdead_beef);
        e.origin = BusOrigin::Service;
        e.kind = "shed".to_string();
        e.class = "interactive".to_string();
        e.label = "weird \"label\"\nnewline\\".to_string();
        e.latency_us = 1234;
        e.ok = false;
        let line = e.to_jsonl();
        crate::json::validate(&line).expect("bus jsonl is valid JSON");
        let back = BusEvent::from_jsonl(&line).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn from_jsonl_tolerates_unknown_keys_and_rejects_garbage() {
        let line = "{\"origin\":\"machine\",\"kind\":\"Fault\",\"trace\":\"ff\",\"future_key\":7}";
        let e = BusEvent::from_jsonl(line).unwrap();
        assert_eq!(e.trace_id, 0xff);
        assert_eq!(e.kind, "Fault");
        assert!(BusEvent::from_jsonl("not json").is_err());
        assert!(
            BusEvent::from_jsonl("{\"kind\":\"x\"}").is_err(),
            "origin required"
        );
        assert!(BusEvent::from_jsonl("{\"origin\":\"bogus\"}").is_err());
    }

    #[test]
    fn head_sampling_is_deterministic_consistent_and_rate_shaped() {
        let policy = SamplingPolicy::with_rate(0.2);
        // Sequential ids: the internal mix must make the decision
        // uniform anyway (service trace ids derive from job counters).
        let kept = (0..10_000u64).filter(|&id| policy.keep_job(id)).count();
        // Well-mixed ids should land near the configured rate.
        assert!((1_500..2_500).contains(&kept), "kept {kept} of 10000");
        // Same id, same answer (all producers agree).
        assert_eq!(policy.keep_job(77), policy.keep_job(77));
        // Critical events bypass the head decision entirely.
        assert!(SamplingPolicy::with_rate(0.0).keep(77, true));
        assert!(!SamplingPolicy::with_rate(0.0).keep(77, false));
        assert!(SamplingPolicy::keep_all().keep(77, false));
    }

    #[test]
    fn bus_counts_sampled_out_and_dropped() {
        let bus = EventBus::new(2, SamplingPolicy::with_rate(0.0));
        bus.publish(ev(0, 5), false);
        assert_eq!(bus.stats().sampled_out, 1);
        bus.publish(ev(0, 5), true); // critical bypasses sampling
        bus.publish(ev(0, 5), true);
        bus.publish(ev(0, 5), true); // ring (cap 2) now overflows
        let stats = bus.stats();
        assert_eq!(stats.dropped, 1);
        assert_eq!(
            stats.published, 3,
            "seq counts what passed sampling, the dropped one included"
        );
        assert_eq!(bus.drain().len(), 2);
    }

    #[test]
    fn machine_sink_streams_spans_with_trace_ids_mid_solve() {
        use hpf_machine::Machine;
        let bus = EventBus::new(256, SamplingPolicy::keep_all());
        let mut m = Machine::hypercube(4);
        m.set_tracing(false); // the bus needs no post-hoc trace
        m.set_event_sink(bus.machine_sink());
        {
            let _t = hpf_machine::span::enter("trace=00000000000000ff");
            let _s = hpf_machine::span::enter("solve");
            m.compute_uniform(100, "local");
            m.allreduce(1, "merge");
        }
        let events = bus.drain();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.trace_id == 0xff));
        assert!(events.iter().all(|e| e.origin == BusOrigin::Machine));
        assert_eq!(events[1].kind, "AllReduce");
        assert!(events[1].span.ends_with("/solve"));
    }

    /// Through a running service: every machine event a job publishes
    /// carries the trace id its request was submitted with.
    #[test]
    fn machine_events_of_a_service_job_carry_its_trace_id() {
        use hpf_service::{ServiceConfig, SolveRequest, SolverService};
        use std::sync::Arc;
        let bus = EventBus::new(1 << 16, SamplingPolicy::keep_all());
        let service = SolverService::start(ServiceConfig {
            workers: 1,
            np: 4,
            machine_sink: Some(bus.machine_sink()),
            ..ServiceConfig::default()
        });
        let a = Arc::new(hpf_sparse::gen::banded_spd(32, 2, 4));
        for trace_id in [0xabc, 0x5eed] {
            let request = SolveRequest::new(a.clone(), vec![1.0; 32]).trace(trace_id);
            service.solve(request).unwrap();
            let events = bus.drain();
            assert!(!events.is_empty());
            assert!(events.iter().all(|e| e.trace_id == trace_id));
            assert!(events.iter().all(|e| e.origin == BusOrigin::Machine));
        }
        service.shutdown();
    }

    #[test]
    fn service_sink_flattens_lifecycle_events() {
        use hpf_service::{QosClass, ServiceEvent};
        let bus = EventBus::new(16, SamplingPolicy::with_rate(0.0));
        let sink = bus.service_sink();
        // Sampled out: a completion under rate 0.
        sink.emit(&ServiceEvent::Completed {
            trace_id: 3,
            class: QosClass::Batch,
            latency_us: 900,
            ok: true,
            outcome: "ok",
        });
        // Critical: a shed always lands.
        sink.emit(&ServiceEvent::Shed {
            trace_id: 4,
            class: QosClass::Interactive,
            predicted_us: 100,
            budget_us: 10,
        });
        let events = bus.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "shed");
        assert_eq!(events[0].class, "interactive");
        assert_eq!(events[0].trace_id, 4);
    }
}
