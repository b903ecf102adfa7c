//! Service counters and the exportable snapshot, including its
//! Prometheus text exposition (rendered here so the HTTP listener in
//! [`crate::http`] needs nothing outside this crate).

use crate::lock;
use hpf_json::Obj;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Upper bounds (inclusive, in microseconds) of the latency histogram
/// buckets; the last bucket is unbounded.
pub const LATENCY_BUCKET_BOUNDS_US: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, u64::MAX];

/// Live, lock-free counters updated by the submit path and the workers.
#[derive(Debug)]
pub struct Metrics {
    pub accepted: AtomicU64,
    pub rejected_busy: AtomicU64,
    pub rejected_invalid: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub deadline_exceeded: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub partitioner_invocations: AtomicU64,
    pub batches_executed: AtomicU64,
    pub batched_jobs: AtomicU64,
    pub rhs_solved: AtomicU64,
    /// Jobs accepted but not yet finished (queued or executing).
    pub in_flight: AtomicU64,
    /// Faults the simulated machine injected from per-job fault plans.
    pub faults_injected: AtomicU64,
    /// Corruption events the protected solvers detected.
    pub faults_detected: AtomicU64,
    /// Checkpoint rollbacks the protected solvers performed.
    pub rollbacks: AtomicU64,
    /// Re-attempts after a retryable solver failure.
    pub retries: AtomicU64,
    /// Retries that stepped down the solver escalation chain.
    pub escalations: AtomicU64,
    /// Jobs refused because a structure's circuit breaker was open.
    pub breaker_open: AtomicU64,
    /// Jobs refused on arrival by deadline-aware admission control.
    pub shed_total: AtomicU64,
    /// Hung workers the supervisor flagged for death.
    pub supervisor_kills: AtomicU64,
    /// Worker threads the supervisor respawned.
    pub worker_restarts: AtomicU64,
    /// Gauge: jobs sitting in the intake queue right now (accepted by
    /// `submit`, not yet taken by a worker).
    pub queue_depth: AtomicU64,
    /// Gauge: per-QoS-class intake queue depth, indexed by
    /// [`crate::QosClass::index`].
    pub class_queue_depth: [AtomicU64; 3],
    /// Per-class intake queue capacity (set once at service start;
    /// denominator of the `queue_saturation` gauge).
    pub queue_capacity: AtomicU64,
    latency_buckets: [AtomicU64; LATENCY_BUCKET_BOUNDS_US.len()],
    /// Total observed latency in microseconds (histogram `_sum`).
    latency_sum_us: AtomicU64,
    /// Completed/failed counts keyed by solver, then scenario, so the
    /// exposition can tell a CG run from a GMRES escalation. BTreeMaps
    /// keep the exposition order deterministic.
    solve_outcomes: Mutex<BTreeMap<String, BTreeMap<String, OutcomeCounts>>>,
    /// Post-mortem dumps the flight recorder produced, keyed by the
    /// top-ranked verdict. BTreeMap keeps the exposition deterministic.
    postmortems: Mutex<BTreeMap<String, u64>>,
    /// When this `Metrics` was created (service start).
    started: Instant,
}

#[derive(Debug, Default, Clone, Copy)]
struct OutcomeCounts {
    completed: u64,
    failed: u64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    pub fn new() -> Self {
        let z = || AtomicU64::new(0);
        Metrics {
            accepted: z(),
            rejected_busy: z(),
            rejected_invalid: z(),
            completed: z(),
            failed: z(),
            deadline_exceeded: z(),
            cache_hits: z(),
            cache_misses: z(),
            partitioner_invocations: z(),
            batches_executed: z(),
            batched_jobs: z(),
            rhs_solved: z(),
            in_flight: z(),
            faults_injected: z(),
            faults_detected: z(),
            rollbacks: z(),
            retries: z(),
            escalations: z(),
            breaker_open: z(),
            shed_total: z(),
            supervisor_kills: z(),
            worker_restarts: z(),
            queue_depth: z(),
            class_queue_depth: Default::default(),
            queue_capacity: z(),
            latency_buckets: Default::default(),
            latency_sum_us: AtomicU64::new(0),
            solve_outcomes: Mutex::new(BTreeMap::new()),
            postmortems: Mutex::new(BTreeMap::new()),
            started: Instant::now(),
        }
    }

    /// Record one completed job's submit→response latency.
    pub fn observe_latency(&self, latency: Duration) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        let idx = LATENCY_BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(LATENCY_BUCKET_BOUNDS_US.len() - 1);
        self.latency_buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Record a finished solve under its `(solver, scenario)` label
    /// pair. `solver` should be the solver that actually produced the
    /// outcome (post-escalation). Label values are sanitized to the
    /// Prometheus-safe charset at record time so JSON and exposition
    /// agree. A label that needs no sanitizing is its own key, so a pair
    /// recorded before is found as given and nothing is allocated.
    pub fn record_solve_outcome(&self, solver: &str, scenario: &str, completed: bool) {
        let bump = |counts: &mut OutcomeCounts| {
            if completed {
                counts.completed += 1;
            } else {
                counts.failed += 1;
            }
        };
        let mut map = lock(&self.solve_outcomes);
        if let Some(counts) = map
            .get_mut(solver)
            .and_then(|by_scenario| by_scenario.get_mut(scenario))
        {
            return bump(counts);
        }
        bump(
            map.entry(sanitize_label(solver))
                .or_default()
                .entry(sanitize_label(scenario))
                .or_default(),
        );
    }

    /// Record one flight-recorder post-mortem dump under its top-ranked
    /// verdict (`"fault-bitflip"`, `"stagnation"`, ...). Labels are
    /// sanitized at record time like the solve-outcome labels.
    pub fn record_postmortem(&self, verdict: &str) {
        *lock(&self.postmortems)
            .entry(sanitize_label(verdict))
            .or_default() += 1;
    }

    /// Consistent-enough point-in-time copy of every counter, plus the
    /// `queue_depth` gauge and the service uptime at snapshot time.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        MetricsSnapshot {
            accepted: g(&self.accepted),
            rejected_busy: g(&self.rejected_busy),
            rejected_invalid: g(&self.rejected_invalid),
            completed: g(&self.completed),
            failed: g(&self.failed),
            deadline_exceeded: g(&self.deadline_exceeded),
            cache_hits: g(&self.cache_hits),
            cache_misses: g(&self.cache_misses),
            partitioner_invocations: g(&self.partitioner_invocations),
            batches_executed: g(&self.batches_executed),
            batched_jobs: g(&self.batched_jobs),
            rhs_solved: g(&self.rhs_solved),
            in_flight: g(&self.in_flight),
            faults_injected: g(&self.faults_injected),
            faults_detected: g(&self.faults_detected),
            rollbacks: g(&self.rollbacks),
            retries: g(&self.retries),
            escalations: g(&self.escalations),
            breaker_open: g(&self.breaker_open),
            shed_total: g(&self.shed_total),
            supervisor_kills: g(&self.supervisor_kills),
            worker_restarts: g(&self.worker_restarts),
            queue_depth: g(&self.queue_depth) as usize,
            class_queue_depth: [
                g(&self.class_queue_depth[0]),
                g(&self.class_queue_depth[1]),
                g(&self.class_queue_depth[2]),
            ],
            queue_saturation: {
                // The most saturated class queue: one full sub-queue
                // means that class's submitters are about to see Busy,
                // regardless of how empty the others are.
                let cap = g(&self.queue_capacity);
                let worst = self.class_queue_depth.iter().map(g).max().unwrap_or(0);
                if cap == 0 {
                    0.0
                } else {
                    worst as f64 / cap as f64
                }
            },
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            latency_bucket_bounds_us: LATENCY_BUCKET_BOUNDS_US.to_vec(),
            latency_buckets: self.latency_buckets.iter().map(g).collect(),
            latency_sum_us: g(&self.latency_sum_us),
            solve_outcomes: lock(&self.solve_outcomes)
                .iter()
                .flat_map(|(solver, by_scenario)| {
                    by_scenario.iter().map(move |(scenario, c)| SolveOutcome {
                        solver: solver.clone(),
                        scenario: scenario.clone(),
                        completed: c.completed,
                        failed: c.failed,
                    })
                })
                .collect(),
            postmortems: lock(&self.postmortems)
                .iter()
                .map(|(verdict, count)| PostmortemCount {
                    verdict: verdict.clone(),
                    count: *count,
                })
                .collect(),
        }
    }
}

/// Replace anything outside the Prometheus-safe label charset with
/// `_` so label values never need escaping (and never contain spaces
/// or quotes that would break line-oriented consumers).
fn sanitize_label(s: &str) -> String {
    let cleaned: String = s
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':' | '/') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "unknown".to_string()
    } else {
        cleaned
    }
}

/// Escape a label value for the Prometheus text exposition format:
/// backslash, double quote, and newline must be escaped inside quoted
/// label values. Applied at exposition time so the output stays
/// well-formed even for snapshots built outside `record_outcome` (e.g.
/// deserialized from JSON), where `sanitize_label` never ran.
fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One `(solver, scenario)` row of the labeled outcome counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveOutcome {
    pub solver: String,
    pub scenario: String,
    pub completed: u64,
    pub failed: u64,
}

/// One verdict row of the labeled post-mortem dump counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostmortemCount {
    pub verdict: String,
    pub count: u64,
}

/// Serializable point-in-time view of the service counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub accepted: u64,
    pub rejected_busy: u64,
    pub rejected_invalid: u64,
    pub completed: u64,
    pub failed: u64,
    pub deadline_exceeded: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub partitioner_invocations: u64,
    pub batches_executed: u64,
    pub batched_jobs: u64,
    pub rhs_solved: u64,
    pub in_flight: u64,
    pub faults_injected: u64,
    pub faults_detected: u64,
    pub rollbacks: u64,
    pub retries: u64,
    pub escalations: u64,
    pub breaker_open: u64,
    pub shed_total: u64,
    pub supervisor_kills: u64,
    pub worker_restarts: u64,
    pub queue_depth: usize,
    /// Queued jobs per QoS class (Interactive, Batch, BestEffort).
    pub class_queue_depth: [u64; 3],
    /// Depth of the most saturated class queue over the per-class
    /// capacity (0.0 when capacity is unknown).
    pub queue_saturation: f64,
    /// Seconds since the service (its `Metrics`) was created.
    pub uptime_seconds: f64,
    /// Inclusive bucket upper bounds in microseconds (last = +inf).
    pub latency_bucket_bounds_us: Vec<u64>,
    /// Completed-job latency counts per bucket.
    pub latency_buckets: Vec<u64>,
    /// Total observed latency in microseconds (histogram `_sum`).
    pub latency_sum_us: u64,
    /// Per-`(solver, scenario)` completed/failed counts, sorted by key.
    pub solve_outcomes: Vec<SolveOutcome>,
    /// Flight-recorder dumps per top-ranked verdict, sorted by verdict.
    pub postmortems: Vec<PostmortemCount>,
}

impl MetricsSnapshot {
    /// Render as a JSON object, through the workspace's one codec
    /// ([`hpf_json`]); the field set is the public contract, and
    /// `hpf_obs::snapshot_from_json` reads it back.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut o = Obj::new(&mut out);
        for (key, v) in [
            ("accepted", self.accepted),
            ("rejected_busy", self.rejected_busy),
            ("rejected_invalid", self.rejected_invalid),
            ("completed", self.completed),
            ("failed", self.failed),
            ("deadline_exceeded", self.deadline_exceeded),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("partitioner_invocations", self.partitioner_invocations),
            ("batches_executed", self.batches_executed),
            ("batched_jobs", self.batched_jobs),
            ("rhs_solved", self.rhs_solved),
            ("in_flight", self.in_flight),
            ("faults_injected", self.faults_injected),
            ("faults_detected", self.faults_detected),
            ("rollbacks", self.rollbacks),
            ("retries", self.retries),
            ("escalations", self.escalations),
            ("breaker_open", self.breaker_open),
            ("shed_total", self.shed_total),
            ("supervisor_kills", self.supervisor_kills),
            ("worker_restarts", self.worker_restarts),
            ("queue_depth", self.queue_depth as u64),
        ] {
            o.u64(key, v);
        }
        {
            let mut depths = o.arr("class_queue_depth");
            for &d in &self.class_queue_depth {
                depths.u64(d);
            }
        }
        o.f64("queue_saturation", self.queue_saturation)
            .f64("uptime_seconds", self.uptime_seconds)
            .u64("latency_sum_us", self.latency_sum_us);
        {
            let mut latency = o.arr("latency");
            let buckets = self.latency_bucket_bounds_us.iter();
            for (&bound, &count) in buckets.zip(&self.latency_buckets) {
                let mut bucket = latency.obj();
                if bound == u64::MAX {
                    bucket.str("le_us", "+inf");
                } else {
                    bucket.u64("le_us", bound);
                }
                bucket.u64("count", count);
            }
        }
        {
            let mut outcomes = o.arr("solve_outcomes");
            for oc in &self.solve_outcomes {
                outcomes
                    .obj()
                    .str("solver", &oc.solver)
                    .str("scenario", &oc.scenario)
                    .u64("completed", oc.completed)
                    .u64("failed", oc.failed);
            }
        }
        {
            let mut postmortems = o.arr("postmortems");
            for p in &self.postmortems {
                postmortems
                    .obj()
                    .str("verdict", &p.verdict)
                    .u64("count", p.count);
            }
        }
        drop(o);
        out
    }

    /// Render as Prometheus text exposition (version 0.0.4): `# HELP` /
    /// `# TYPE` headers, `_total`-suffixed counters, plain gauges,
    /// labeled per-`(solver, scenario)` outcome counters, and the
    /// latency histogram as a cumulative `_bucket` series with `le`
    /// labels in **seconds** (converted from the microsecond bucket
    /// bounds), a `+Inf` bucket, `_sum` (seconds), and `_count`.
    pub fn to_prometheus(&self) -> String {
        const PREFIX: &str = "hpf_service";
        let mut out = String::new();
        let counters: [(&str, u64, &str); 20] = [
            ("accepted", self.accepted, "Jobs accepted by submit()"),
            (
                "rejected_busy",
                self.rejected_busy,
                "Jobs refused: queue full",
            ),
            (
                "rejected_invalid",
                self.rejected_invalid,
                "Jobs refused: malformed request",
            ),
            ("completed", self.completed, "Jobs finished successfully"),
            ("failed", self.failed, "Jobs finished with an error"),
            (
                "deadline_exceeded",
                self.deadline_exceeded,
                "Jobs shed because their deadline expired in queue",
            ),
            ("cache_hits", self.cache_hits, "Plan cache hits"),
            ("cache_misses", self.cache_misses, "Plan cache misses"),
            (
                "partitioner_invocations",
                self.partitioner_invocations,
                "Fresh partitioner runs",
            ),
            (
                "batches_executed",
                self.batches_executed,
                "Batches handed to workers",
            ),
            (
                "batched_jobs",
                self.batched_jobs,
                "Jobs that shared a batch with at least one other job",
            ),
            ("rhs_solved", self.rhs_solved, "Right-hand sides solved"),
            (
                "faults_injected",
                self.faults_injected,
                "Faults the simulated machine injected",
            ),
            (
                "faults_detected",
                self.faults_detected,
                "Corruption events protected solvers detected",
            ),
            (
                "rollbacks",
                self.rollbacks,
                "Checkpoint rollbacks performed",
            ),
            ("retries", self.retries, "Job re-attempts"),
            (
                "escalations",
                self.escalations,
                "Retries that escalated the solver",
            ),
            (
                "shed",
                self.shed_total,
                "Jobs refused on arrival by deadline-aware admission",
            ),
            (
                "supervisor_kills",
                self.supervisor_kills,
                "Hung workers killed by the supervisor",
            ),
            (
                "worker_restarts",
                self.worker_restarts,
                "Worker threads respawned by the supervisor",
            ),
        ];
        for (name, value, help) in counters {
            out.push_str(&format!(
                "# HELP {PREFIX}_{name}_total {help}\n\
                 # TYPE {PREFIX}_{name}_total counter\n\
                 {PREFIX}_{name}_total {value}\n"
            ));
        }
        // breaker_open is a counter of refusals, not the breaker state.
        out.push_str(&format!(
            "# HELP {PREFIX}_breaker_open_total Jobs refused by an open circuit breaker\n\
             # TYPE {PREFIX}_breaker_open_total counter\n\
             {PREFIX}_breaker_open_total {}\n",
            self.breaker_open
        ));
        if !self.solve_outcomes.is_empty() {
            out.push_str(&format!(
                "# HELP {PREFIX}_solve_completed_total Jobs finished successfully, by solver and scenario\n\
                 # TYPE {PREFIX}_solve_completed_total counter\n"
            ));
            for o in &self.solve_outcomes {
                out.push_str(&format!(
                    "{PREFIX}_solve_completed_total{{solver=\"{}\",scenario=\"{}\"}} {}\n",
                    escape_label_value(&o.solver),
                    escape_label_value(&o.scenario),
                    o.completed
                ));
            }
            out.push_str(&format!(
                "# HELP {PREFIX}_solve_failed_total Jobs finished with an error, by solver and scenario\n\
                 # TYPE {PREFIX}_solve_failed_total counter\n"
            ));
            for o in &self.solve_outcomes {
                out.push_str(&format!(
                    "{PREFIX}_solve_failed_total{{solver=\"{}\",scenario=\"{}\"}} {}\n",
                    escape_label_value(&o.solver),
                    escape_label_value(&o.scenario),
                    o.failed
                ));
            }
        }
        if !self.postmortems.is_empty() {
            out.push_str(&format!(
                "# HELP {PREFIX}_postmortems_total Flight-recorder post-mortem dumps, by top-ranked verdict\n\
                 # TYPE {PREFIX}_postmortems_total counter\n"
            ));
            for p in &self.postmortems {
                out.push_str(&format!(
                    "{PREFIX}_postmortems_total{{verdict=\"{}\"}} {}\n",
                    escape_label_value(&p.verdict),
                    p.count
                ));
            }
        }
        let gauges: [(&str, String, &str); 4] = [
            (
                "in_flight",
                self.in_flight.to_string(),
                "Jobs accepted but not yet finished",
            ),
            (
                "queue_depth",
                self.queue_depth.to_string(),
                "Jobs waiting in the intake queue",
            ),
            (
                "queue_saturation",
                format!("{}", self.queue_saturation),
                "Intake queue depth over capacity (0.0 to 1.0)",
            ),
            (
                "uptime_seconds",
                format!("{}", self.uptime_seconds),
                "Seconds since the service started",
            ),
        ];
        for (name, value, help) in gauges {
            out.push_str(&format!(
                "# HELP {PREFIX}_{name} {help}\n\
                 # TYPE {PREFIX}_{name} gauge\n\
                 {PREFIX}_{name} {value}\n"
            ));
        }
        out.push_str(&format!(
            "# HELP {PREFIX}_class_queue_depth Queued jobs per QoS class\n\
             # TYPE {PREFIX}_class_queue_depth gauge\n"
        ));
        for (class, depth) in ["interactive", "batch", "best-effort"]
            .iter()
            .zip(self.class_queue_depth)
        {
            out.push_str(&format!(
                "{PREFIX}_class_queue_depth{{class=\"{class}\"}} {depth}\n"
            ));
        }
        out.push_str(&format!(
            "# HELP {PREFIX}_latency_seconds Submit-to-response latency of completed jobs\n\
             # TYPE {PREFIX}_latency_seconds histogram\n"
        ));
        let mut cumulative = 0u64;
        let mut saw_inf = false;
        for (bound_us, count) in self
            .latency_bucket_bounds_us
            .iter()
            .zip(&self.latency_buckets)
        {
            cumulative += count;
            let le = if *bound_us == u64::MAX {
                saw_inf = true;
                "+Inf".to_string()
            } else {
                format!("{}", *bound_us as f64 / 1e6)
            };
            out.push_str(&format!(
                "{PREFIX}_latency_seconds_bucket{{le=\"{le}\"}} {cumulative}\n"
            ));
        }
        // A histogram without a +Inf bucket is malformed; synthesize
        // one even if the bound table ever drops the open-ended bucket.
        if !saw_inf {
            out.push_str(&format!(
                "{PREFIX}_latency_seconds_bucket{{le=\"+Inf\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "{PREFIX}_latency_seconds_sum {}\n",
            self.latency_sum_us as f64 / 1e6
        ));
        out.push_str(&format!("{PREFIX}_latency_seconds_count {cumulative}\n"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_lands_in_the_right_bucket() {
        let m = Metrics::new();
        m.observe_latency(Duration::from_micros(50)); // <= 100us
        m.observe_latency(Duration::from_micros(500)); // <= 1ms
        m.observe_latency(Duration::from_secs(100)); // +inf bucket
        let s = m.snapshot();
        assert_eq!(s.latency_buckets[0], 1);
        assert_eq!(s.latency_buckets[1], 1);
        assert_eq!(*s.latency_buckets.last().unwrap(), 1);
        assert_eq!(s.latency_buckets.iter().sum::<u64>(), 3);
    }

    /// A panic that unwinds through a label lock poisons it; the next
    /// holder takes the map as it is instead of panicking in turn.
    #[test]
    fn a_panic_under_a_label_lock_does_not_take_the_next_scrape_down() {
        let m = std::sync::Arc::new(Metrics::new());
        m.record_solve_outcome("cg", "rowwise", true);
        for poison_outcomes in [true, false] {
            let held = m.clone();
            let died = std::thread::spawn(move || {
                let _outcomes = poison_outcomes.then(|| held.solve_outcomes.lock());
                let _postmortems = (!poison_outcomes).then(|| held.postmortems.lock());
                panic!("while holding a label lock");
            })
            .join();
            assert!(died.is_err());
        }
        assert!(m.solve_outcomes.is_poisoned() && m.postmortems.is_poisoned());
        m.record_solve_outcome("cg", "rowwise", false);
        m.record_postmortem("fault-stall");
        let s = m.snapshot();
        assert_eq!(
            (s.solve_outcomes[0].completed, s.solve_outcomes[0].failed),
            (1, 1)
        );
        assert_eq!(s.postmortems[0].count, 1);
        let scrape = s.to_prometheus();
        assert!(scrape.contains("solve_failed_total{solver=\"cg\",scenario=\"rowwise\"} 1"));
    }

    #[test]
    fn snapshot_reflects_counters_and_queue_depth() {
        let m = Metrics::new();
        m.accepted.fetch_add(5, Ordering::Relaxed);
        m.cache_hits.fetch_add(3, Ordering::Relaxed);
        m.queue_depth.store(7, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.accepted, 5);
        assert_eq!(s.cache_hits, 3);
        assert_eq!(s.queue_depth, 7);
    }

    #[test]
    fn uptime_is_nonnegative_and_advances() {
        let m = Metrics::new();
        let a = m.snapshot().uptime_seconds;
        assert!(a >= 0.0);
        std::thread::sleep(Duration::from_millis(5));
        let b = m.snapshot().uptime_seconds;
        assert!(b > a, "uptime should advance: {a} then {b}");
    }

    #[test]
    fn json_is_well_formed_and_names_every_counter() {
        let m = Metrics::new();
        m.observe_latency(Duration::from_millis(2));
        m.queue_depth.store(1, Ordering::Relaxed);
        let j = m.snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "accepted",
            "rejected_busy",
            "completed",
            "cache_hits",
            "partitioner_invocations",
            "batches_executed",
            "faults_injected",
            "faults_detected",
            "rollbacks",
            "retries",
            "escalations",
            "breaker_open",
            "shed_total",
            "supervisor_kills",
            "worker_restarts",
            "queue_depth",
            "class_queue_depth",
            "queue_saturation",
            "uptime_seconds",
            "latency",
            "+inf",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn latency_sum_accumulates_in_microseconds() {
        let m = Metrics::new();
        m.observe_latency(Duration::from_micros(150));
        m.observe_latency(Duration::from_micros(850));
        let s = m.snapshot();
        assert_eq!(s.latency_sum_us, 1000);
        let j = s.to_json();
        assert!(j.contains("\"latency_sum_us\":1000"), "{j}");
    }

    #[test]
    fn solve_outcomes_are_labeled_sorted_and_sanitized() {
        let m = Metrics::new();
        m.record_solve_outcome("gmres", "col block", true);
        m.record_solve_outcome("cg", "default", true);
        m.record_solve_outcome("cg", "default", true);
        m.record_solve_outcome("cg", "default", false);
        let s = m.snapshot();
        assert_eq!(s.solve_outcomes.len(), 2);
        // BTreeMap ordering: "cg" before "gmres".
        assert_eq!(s.solve_outcomes[0].solver, "cg");
        assert_eq!(s.solve_outcomes[0].completed, 2);
        assert_eq!(s.solve_outcomes[0].failed, 1);
        // The space was sanitized away at record time.
        assert_eq!(s.solve_outcomes[1].scenario, "col_block");
    }

    #[test]
    fn queue_saturation_is_the_most_saturated_class() {
        let m = Metrics::new();
        // Capacity unknown: saturation pinned to 0 rather than NaN.
        m.class_queue_depth[1].store(3, Ordering::Relaxed);
        assert_eq!(m.snapshot().queue_saturation, 0.0);
        m.queue_capacity.store(12, Ordering::Relaxed);
        m.class_queue_depth[0].store(2, Ordering::Relaxed);
        m.class_queue_depth[1].store(3, Ordering::Relaxed);
        m.class_queue_depth[2].store(1, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.class_queue_depth, [2, 3, 1]);
        assert!((s.queue_saturation - 0.25).abs() < 1e-12);
        let text = s.to_prometheus();
        assert!(text.contains("hpf_service_queue_saturation 0.25"), "{text}");
        assert!(
            text.contains("hpf_service_class_queue_depth{class=\"interactive\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("hpf_service_class_queue_depth{class=\"best-effort\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn prometheus_exposition_has_sum_labels_and_inf_bucket() {
        let m = Metrics::new();
        m.observe_latency(Duration::from_micros(500));
        m.record_solve_outcome("cg", "rowwise", true);
        m.record_solve_outcome("bicgstab", "colwise", false);
        let text = m.snapshot().to_prometheus();
        assert!(
            text.contains("hpf_service_latency_seconds_sum 0.0005"),
            "{text}"
        );
        assert!(text.contains("hpf_service_latency_seconds_count 1"));
        assert!(text.contains("latency_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text
            .contains("hpf_service_solve_completed_total{solver=\"cg\",scenario=\"rowwise\"} 1"));
        assert!(text.contains(
            "hpf_service_solve_failed_total{solver=\"bicgstab\",scenario=\"colwise\"} 1"
        ));
        // No metric line carries a space inside its name+labels token.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "bad line {line:?}");
        }
    }

    #[test]
    fn prometheus_label_values_are_escaped_at_exposition_time() {
        // A snapshot built directly (deserialized, hand-assembled) never
        // went through record-time sanitization, so the exposition must
        // escape backslash, quote, and newline itself.
        let mut s = Metrics::new().snapshot();
        s.solve_outcomes.push(SolveOutcome {
            solver: "cg\"evil".into(),
            scenario: "a\\b\nc".into(),
            completed: 1,
            failed: 2,
        });
        let text = s.to_prometheus();
        assert!(
            text.contains(
                "hpf_service_solve_completed_total{solver=\"cg\\\"evil\",scenario=\"a\\\\b\\nc\"} 1"
            ),
            "{text}"
        );
        // The raw newline must not survive into the exposition: every
        // non-comment line still parses as exactly `name_or_labels value`.
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            assert_eq!(line.split(' ').count(), 2, "bad line {line:?}");
        }
        assert_eq!(escape_label_value("plain-label_1"), "plain-label_1");
        assert_eq!(escape_label_value("q\"x"), "q\\\"x");
        assert_eq!(escape_label_value("b\\x"), "b\\\\x");
        assert_eq!(escape_label_value("n\nx"), "n\\nx");
    }
}
