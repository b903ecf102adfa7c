//! Per-trace flight recorder: a bounded black-box ring of machine events.
//!
//! The live bus (`hpf-obs`) samples: most jobs stream nothing, so when a
//! *sampled-out* job dies there is no machine-level evidence to autopsy.
//! The black box closes that gap. It is an [`EventSink`] that keeps the
//! **last N events per trace id** in a bounded ring — cheap enough to run
//! on every job regardless of sampling — so a post-mortem can always
//! recover the final machine operations (the fault event, the collective
//! that stalled, the straggling processor) of any job that ends badly.
//!
//! Ownership of a ring is handed over exactly once: [`BlackBox::take`]
//! removes and returns the tail (the dump path), [`BlackBox::discard`]
//! drops it (the job-completed-fine path). A global trace cap bounds
//! memory even if a caller forgets to do either.

use crate::machine::EventSink;
use crate::span::trace_of;
use crate::trace::{Event, EventKind};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Trace ids are already well-mixed by the shard scramble; hashing them
/// again with SipHash would cost more than the map lookup itself on the
/// per-event record path. A finalizer-only hasher keeps the lookup flat.
#[derive(Default)]
pub struct TraceIdHasher(u64);

impl Hasher for TraceIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback for non-u64 keys (unused in practice).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, x: u64) {
        let mut h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 32;
        self.0 = h;
    }
}

type TraceMap = HashMap<u64, TraceRing, BuildHasherDefault<TraceIdHasher>>;

/// Events retained per trace by default. Enough to cover the tail of a
/// solve iteration plus the fault/recovery events around it.
pub const DEFAULT_RING_CAPACITY: usize = 64;

/// Distinct traces tracked before the oldest ring is evicted (safety net
/// against callers that never `take`/`discard`).
pub const DEFAULT_MAX_TRACES: usize = 1024;

/// One machine event as retained by the black box. A compressed clone of
/// [`Event`]: the per-processor time vector is summarised into an
/// imbalance factor and the slowest processor index at record time, so a
/// retained event costs two string clones and a handful of scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackBoxRecord {
    pub kind: EventKind,
    pub participants: usize,
    pub words: usize,
    pub flops: usize,
    /// Simulated duration of the event (max over participants).
    pub time: f64,
    /// Simulated clock at which the event began.
    pub start: f64,
    pub span: String,
    pub label: String,
    /// `max(proc_times) / mean(proc_times)` — 1.0 when the machine did
    /// not report per-processor times for this event.
    pub imbalance: f64,
    /// Index of the slowest participant when per-processor times were
    /// reported (straggler attribution evidence).
    pub slowest_proc: Option<usize>,
}

impl BlackBoxRecord {
    pub fn from_event(e: &Event) -> Self {
        let (imbalance, slowest_proc) = summarise_proc_times(&e.proc_times);
        BlackBoxRecord {
            kind: e.kind,
            participants: e.participants,
            words: e.words,
            flops: e.flops,
            time: e.time,
            start: e.start,
            span: e.span.clone(),
            label: e.label.clone(),
            imbalance,
            slowest_proc,
        }
    }

    /// Refill this record in place from `e`, reusing the span/label
    /// string buffers. The ring recycles its evicted slot through this
    /// on every overwrite, so a warm ring records with no allocation.
    fn overwrite_from(&mut self, e: &Event) {
        let (imbalance, slowest_proc) = summarise_proc_times(&e.proc_times);
        self.kind = e.kind;
        self.participants = e.participants;
        self.words = e.words;
        self.flops = e.flops;
        self.time = e.time;
        self.start = e.start;
        self.span.clear();
        self.span.push_str(&e.span);
        self.label.clear();
        self.label.push_str(&e.label);
        self.imbalance = imbalance;
        self.slowest_proc = slowest_proc;
    }
}

/// One pass over the per-processor times: `(max/mean, argmax)`.
fn summarise_proc_times(proc_times: &[f64]) -> (f64, Option<usize>) {
    if proc_times.is_empty() {
        return (1.0, None);
    }
    let (mut max, mut sum, mut slowest) = (f64::MIN, 0.0, 0);
    for (i, &t) in proc_times.iter().enumerate() {
        sum += t;
        if t > max {
            max = t;
            slowest = i;
        }
    }
    let mean = sum / proc_times.len() as f64;
    (if mean > 0.0 { max / mean } else { 1.0 }, Some(slowest))
}

/// The recovered tail of one trace: what [`BlackBox::take`] hands the
/// post-mortem writer.
#[derive(Debug, Clone, Default)]
pub struct BlackBoxTail {
    pub trace_id: u64,
    /// Last events in record order (oldest first).
    pub events: Vec<BlackBoxRecord>,
    /// Events that were recorded for this trace but overwritten by the
    /// bounded ring before the dump.
    pub overwritten: u64,
}

/// A true in-place ring: `buf` holds up to `capacity` slots, `len`
/// counts the live ones, and once full the oldest slot (`head`) is
/// refilled where it sits. `buf` may carry more slots than `len` — a
/// ring recycled through a shard's pool keeps its old records' string
/// buffers around precisely so the next trace can refill them without
/// allocating. No record is ever moved on the hot path.
#[derive(Debug, Default)]
struct TraceRing {
    buf: Vec<BlackBoxRecord>,
    head: usize,
    len: usize,
    overwritten: u64,
}

impl TraceRing {
    fn push(&mut self, event: &Event, capacity: usize) {
        if self.len < capacity {
            if let Some(slot) = self.buf.get_mut(self.len) {
                slot.overwrite_from(event); // recycled slot: refill in place
            } else {
                self.buf.push(BlackBoxRecord::from_event(event));
            }
            self.len += 1;
        } else {
            self.buf[self.head].overwrite_from(event);
            self.head = (self.head + 1) % self.len;
            self.overwritten += 1;
        }
    }

    /// Hand the ring back for reuse by a future trace: the slots (and
    /// their string buffers) stay allocated, only the cursors reset.
    fn recycle(&mut self) {
        self.head = 0;
        self.len = 0;
        self.overwritten = 0;
    }

    /// Retained events, oldest first.
    fn ordered(&self) -> Vec<BlackBoxRecord> {
        let live = &self.buf[..self.len];
        let (newer, older) = live.split_at(self.head);
        older.iter().chain(newer).cloned().collect()
    }
}

/// One lock's worth of state, padded to its own cache line so two
/// workers on adjacent shards never false-share the lock words.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Shard {
    rings: TraceMap,
    /// Retired rings waiting to be reused by the next trace hashed to
    /// this shard (bounded by [`POOL_PER_SHARD`]).
    pool: Vec<TraceRing>,
}

/// Stripes of a [`StripedCounter`].
const STRIPES: usize = 16;

/// One cache line per counter stripe.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Stripe(AtomicU64);

/// A monotonic event counter for paths that several worker threads hit
/// once per machine operation. A single shared counter would ping-pong
/// its cache line between cores on every event, costing more than the
/// work being counted; this one is striped across padded cache lines
/// and each thread bumps its own stripe (assigned round-robin on first
/// use).
#[derive(Debug, Default)]
pub struct StripedCounter {
    stripes: [Stripe; STRIPES],
}

impl StripedCounter {
    pub fn add(&self, n: u64) {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
        }
        self.stripes[STRIPE.with(|s| *s)]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    pub fn sum(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Retired rings kept per shard for reuse.
const POOL_PER_SHARD: usize = 8;

/// Bounded, sharded, per-trace event retention. Shared via `Arc`; the
/// machine side writes through [`BlackBox::sink`], the observability side
/// reads through [`BlackBox::take`]/[`BlackBox::snapshot`].
#[derive(Debug)]
pub struct BlackBox {
    shards: Vec<Mutex<Shard>>,
    ring_capacity: usize,
    max_traces_per_shard: usize,
    /// Events recorded since creation (all traces), for overhead audits.
    recorded: StripedCounter,
    /// Rings evicted by the trace cap (should stay 0 in a well-behaved
    /// service that takes or discards every trace).
    evicted: AtomicU64,
}

const SHARDS: usize = 16;

impl Default for BlackBox {
    fn default() -> Self {
        Self::new(DEFAULT_RING_CAPACITY)
    }
}

impl BlackBox {
    pub fn new(ring_capacity: usize) -> Self {
        Self::with_limits(ring_capacity, DEFAULT_MAX_TRACES)
    }

    pub fn with_limits(ring_capacity: usize, max_traces: usize) -> Self {
        BlackBox {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            ring_capacity: ring_capacity.max(1),
            max_traces_per_shard: (max_traces / SHARDS).max(1),
            recorded: StripedCounter::default(),
            evicted: AtomicU64::new(0),
        }
    }

    fn shard(&self, trace_id: u64) -> &Mutex<Shard> {
        // splitmix-style scramble so sequential trace ids spread out.
        let mut h = trace_id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 32;
        &self.shards[(h as usize) % SHARDS]
    }

    /// Move a retired ring into the shard's bounded reuse pool.
    fn retire(shard: &mut Shard, mut ring: TraceRing) {
        if shard.pool.len() < POOL_PER_SHARD {
            ring.recycle();
            shard.pool.push(ring);
        }
    }

    /// Record one event under `trace_id`, overwriting the oldest retained
    /// event once the ring is full.
    pub fn record(&self, trace_id: u64, event: &Event) {
        if trace_id == 0 {
            return; // not attributable to a job
        }
        self.recorded.add(1);
        let mut shard = self.shard(trace_id).lock().unwrap();
        let shard = &mut *shard;
        if shard.rings.len() >= self.max_traces_per_shard && !shard.rings.contains_key(&trace_id) {
            // Safety net: evict an arbitrary ring rather than grow
            // without bound when traces are never taken or discarded.
            if let Some(victim) = shard.rings.keys().next().cloned() {
                let ring = shard.rings.remove(&victim).expect("victim present");
                Self::retire(shard, ring);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        let ring = shard
            .rings
            .entry(trace_id)
            .or_insert_with(|| shard.pool.pop().unwrap_or_default());
        ring.push(event, self.ring_capacity);
    }

    /// An [`EventSink`] that feeds this black box, reading the trace id
    /// out of each event's span path. No pre-filter: retention is
    /// deliberately sampling-independent.
    ///
    /// Consecutive events from one worker share a span prefix
    /// (`trace=<016x>/...`), so the parse is memoised per thread on the
    /// raw prefix bytes — the hex decode runs once per job, not once
    /// per event.
    pub fn sink(self: &Arc<Self>) -> EventSink {
        const PREFIX: usize = "trace=0000000000000000".len();
        thread_local! {
            static LAST: std::cell::Cell<([u8; PREFIX], u64)> =
                const { std::cell::Cell::new(([0; PREFIX], 0)) };
        }
        let bb = Arc::clone(self);
        EventSink::new(move |event| {
            let s = event.span.as_bytes();
            let id = if s.len() > PREFIX && s.starts_with(b"trace=") && s[PREFIX] == b'/' {
                LAST.with(|c| {
                    let (prefix, cached) = c.get();
                    if prefix[..] == s[..PREFIX] {
                        cached
                    } else {
                        let id = trace_of(&event.span).unwrap_or(0);
                        let mut p = [0u8; PREFIX];
                        p.copy_from_slice(&s[..PREFIX]);
                        c.set((p, id));
                        id
                    }
                })
            } else {
                trace_of(&event.span).unwrap_or(0)
            };
            bb.record(id, event);
        })
    }

    /// Copy of the retained tail without removing it.
    pub fn snapshot(&self, trace_id: u64) -> Option<BlackBoxTail> {
        let shard = self.shard(trace_id).lock().unwrap();
        shard.rings.get(&trace_id).map(|ring| BlackBoxTail {
            trace_id,
            events: ring.ordered(),
            overwritten: ring.overwritten,
        })
    }

    /// Remove and return the retained tail (the dump path).
    pub fn take(&self, trace_id: u64) -> Option<BlackBoxTail> {
        let mut shard = self.shard(trace_id).lock().unwrap();
        let shard = &mut *shard;
        shard.rings.remove(&trace_id).map(|ring| {
            let tail = BlackBoxTail {
                trace_id,
                events: ring.ordered(),
                overwritten: ring.overwritten,
            };
            Self::retire(shard, ring);
            tail
        })
    }

    /// Drop the retained tail (the job-finished-fine path).
    pub fn discard(&self, trace_id: u64) {
        let mut shard = self.shard(trace_id).lock().unwrap();
        let shard = &mut *shard;
        if let Some(ring) = shard.rings.remove(&trace_id) {
            Self::retire(shard, ring);
        }
    }

    /// Distinct traces currently retained.
    pub fn traces(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().rings.len())
            .sum()
    }

    /// Total events recorded since creation.
    pub fn recorded(&self) -> u64 {
        self.recorded.sum()
    }

    /// Rings evicted by the trace-count safety net.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap().rings.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(span: &str, label: &str, kind: EventKind) -> Event {
        Event {
            kind,
            participants: 4,
            words: 8,
            flops: 16,
            time: 0.5,
            start: 1.0,
            span: span.to_string(),
            label: label.to_string(),
            proc_times: Vec::new(),
            payload_words: 8,
            hops: 0,
        }
    }

    #[test]
    fn ring_keeps_only_the_last_n_events_and_counts_overwrites() {
        let bb = BlackBox::new(3);
        for i in 0..5 {
            bb.record(
                7,
                &event("trace=7/solve", &format!("op{i}"), EventKind::Compute),
            );
        }
        let tail = bb.take(7).expect("ring present");
        assert_eq!(tail.overwritten, 2);
        let labels: Vec<&str> = tail.events.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, vec!["op2", "op3", "op4"]);
        assert!(bb.take(7).is_none(), "take removes the ring");
    }

    #[test]
    fn sink_routes_events_by_span_trace_id_and_ignores_untraced() {
        let bb = Arc::new(BlackBox::new(8));
        let sink = bb.sink();
        sink.emit(&event(
            "trace=00000000000000ab/solve",
            "a",
            EventKind::Compute,
        ));
        sink.emit(&event(
            "trace=00000000000000cd/solve",
            "b",
            EventKind::AllReduce,
        ));
        sink.emit(&event("solve/untraced", "c", EventKind::Compute));
        assert_eq!(bb.traces(), 2);
        assert_eq!(bb.snapshot(0xab).unwrap().events[0].label, "a");
        assert_eq!(bb.snapshot(0xcd).unwrap().events[0].label, "b");
        assert_eq!(bb.recorded(), 2);
    }

    #[test]
    fn proc_times_are_summarised_into_imbalance_and_slowest() {
        let mut e = event("trace=1/solve", "skewed", EventKind::Compute);
        e.proc_times = vec![1.0, 1.0, 4.0, 2.0];
        let rec = BlackBoxRecord::from_event(&e);
        assert!((rec.imbalance - 2.0).abs() < 1e-12);
        assert_eq!(rec.slowest_proc, Some(2));
        let rec = BlackBoxRecord::from_event(&event("t", "flat", EventKind::Compute));
        assert_eq!(rec.imbalance, 1.0);
        assert_eq!(rec.slowest_proc, None);
    }

    #[test]
    fn trace_cap_evicts_rather_than_grows() {
        let bb = BlackBox::with_limits(4, SHARDS); // 1 trace per shard
        for t in 1..=64u64 {
            bb.record(t, &event("s", "x", EventKind::Compute));
        }
        assert!(bb.traces() <= SHARDS);
        assert!(bb.evicted() > 0);
    }

    #[test]
    #[ignore = "manual microbenchmark: cargo test -p hpf-machine --release -- --ignored bench_record"]
    fn bench_record_path() {
        let bb = Arc::new(BlackBox::new(DEFAULT_RING_CAPACITY));
        let sink = bb.sink();
        let mut e = event(
            "trace=0000000000e30001/job=1/solve/iter=12/matvec/s1-bcast-p",
            "",
            EventKind::AllReduce,
        );
        e.proc_times = vec![1.0, 1.1, 0.9, 1.05];
        let n = 1_000_000u64;
        let t0 = std::time::Instant::now();
        for _ in 0..n {
            sink.emit(&e);
        }
        let per = t0.elapsed().as_nanos() as f64 / n as f64;
        println!("blackbox record path: {per:.1} ns/event");
    }

    #[test]
    #[ignore = "manual microbenchmark components"]
    fn bench_record_components() {
        let span = "trace=0000000000e30001/job=1/solve/iter=12/matvec/s1-bcast-p";
        let n = 1_000_000u64;
        let t0 = std::time::Instant::now();
        let mut acc = 0u64;
        for _ in 0..n {
            acc = acc.wrapping_add(trace_of(std::hint::black_box(span)).unwrap_or(0));
        }
        println!(
            "trace_of: {:.1} ns ({acc})",
            t0.elapsed().as_nanos() as f64 / n as f64
        );

        let bb = Arc::new(BlackBox::new(DEFAULT_RING_CAPACITY));
        let mut e = event(span, "", EventKind::AllReduce);
        e.proc_times = vec![1.0, 1.1, 0.9, 1.05];
        let t0 = std::time::Instant::now();
        for _ in 0..n {
            bb.record(0xe30001, std::hint::black_box(&e));
        }
        println!(
            "record (parsed id): {:.1} ns",
            t0.elapsed().as_nanos() as f64 / n as f64
        );
    }

    #[test]
    fn discard_and_clear_release_rings() {
        let bb = BlackBox::new(4);
        bb.record(1, &event("s", "x", EventKind::Compute));
        bb.record(2, &event("s", "y", EventKind::Compute));
        bb.discard(1);
        assert!(bb.snapshot(1).is_none());
        assert_eq!(bb.traces(), 1);
        bb.clear();
        assert_eq!(bb.traces(), 0);
    }
}
