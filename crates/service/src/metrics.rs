//! Service counters and the exportable snapshot, including its
//! Prometheus text exposition (rendered here so the HTTP listener in
//! [`crate::http`] needs nothing outside this crate). Each counter is one
//! row of the `table!` list below: its atomic, its JSON key, its exposition
//! line and its help text are all read from that row.

use crate::lock;
use hpf_json::Obj;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Upper bounds (inclusive, in microseconds) of the latency histogram
/// buckets; the last bucket is unbounded.
pub const LATENCY_BUCKET_BOUNDS_US: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, u64::MAX];

/// What fills a row when [`Metrics::snapshot`] takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feed {
    /// One live counter.
    Live(Counter),
    /// The sum of the per-class intake queue depths.
    ClassDepths,
    /// Accepted jobs less those that completed or failed.
    InFlight,
}

/// One counter of the snapshot: its JSON key (also the name of its
/// [`MetricsSnapshot`] field), its name and type (`counter` or `gauge`)
/// in the exposition, its help text, and what feeds it.
#[derive(Debug, Clone, Copy)]
struct Row {
    key: &'static str,
    name: &'static str,
    kind: &'static str,
    help: &'static str,
    feed: Feed,
}

/// Declares [`Counter`] and [`ROWS`] from one row list. A row is what
/// feeds it, its exposition type, its JSON key (`as` its exposition name
/// where that differs) and its help text. Each row in braces declares the
/// live counter that feeds it; a row after braces reads another feed.
macro_rules! table {
    ($(
        { $($(#[$doc:meta])* $counter:ident => $kind:ident $key:literal $(as $name:literal)?,
            $help:literal;)+ }
        $($feed:ident $(($live:ident))? => $kind2:ident $key2:literal, $help2:literal;)*
    )+) => {
        /// A live counter of [`Metrics`]: the index of its atomic. The
        /// `ROWS` row it declares says what it counts.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Counter {
            $($($(#[$doc])* $counter,)+)+
        }

        /// How many live counters [`Metrics`] keeps.
        const COUNTERS: usize = [$($(Counter::$counter,)+)+].len();

        /// Every counter of the snapshot, one row each, in JSON order.
        const ROWS: [Row; [$($($key,)+ $($key2,)*)+].len()] = {
            use Counter::*;
            use Feed::*;
            [$(
                $(Row { key: $key, name: { let [.., name] = [$key $(, $name)?]; name },
                    kind: stringify!($kind), help: $help, feed: Live($counter) },)+
                $(Row { key: $key2, name: $key2, kind: stringify!($kind2), help: $help2,
                    feed: $feed $(($live))? },)*
            )+]
        };
    };
}

impl Counter {
    /// The row this counter declares.
    fn row(self) -> Row {
        let at = ROWS.iter().position(|row| row.feed == Feed::Live(self));
        ROWS[at.expect("a counter declares its row")]
    }
}

// The table, in JSON order. The exposition walks the same rows in the
// same order, except that `breaker_open` (a count of refusals, not the
// breaker's state) comes after `worker_restarts`, and the gauges go to
// the gauge block.
table! {
    {
        Accepted => counter "accepted", "Jobs accepted by submit()";
        RejectedBusy => counter "rejected_busy", "Jobs refused: queue full";
        RejectedInvalid => counter "rejected_invalid", "Jobs refused: malformed request";
        Completed => counter "completed", "Jobs finished successfully";
        Failed => counter "failed", "Jobs finished with an error";
        DeadlineExceeded => counter "deadline_exceeded",
            "Jobs shed because their deadline expired in queue";
        CacheHits => counter "cache_hits", "Plan cache hits";
        CacheMisses => counter "cache_misses", "Plan cache misses";
        PartitionerInvocations => counter "partitioner_invocations", "Fresh partitioner runs";
        BatchesExecuted => counter "batches_executed", "Batches handed to workers";
        BatchedJobs => counter "batched_jobs",
            "Jobs that shared a batch with at least one other job";
        RhsSolved => counter "rhs_solved", "Right-hand sides solved";
    }
    InFlight => gauge "in_flight", "Jobs accepted but not yet finished";
    {
        FaultsInjected => counter "faults_injected", "Faults the simulated machine injected";
        FaultsDetected => counter "faults_detected", "Corruption events protected solvers detected";
        Rollbacks => counter "rollbacks", "Checkpoint rollbacks performed";
        Retries => counter "retries", "Job re-attempts";
        Escalations => counter "escalations", "Retries that escalated the solver";
        BreakerOpen => counter "breaker_open", "Jobs refused by an open circuit breaker";
        ShedTotal => counter "shed_total" as "shed",
            "Jobs refused on arrival by deadline-aware admission";
        /// Jobs killed as hung, ticked where the kill lands: the worker
        /// answered the killed job with `WorkerKilled` and went on with its
        /// next one. `supervisor_kills` and `worker_restarts` both read it
        /// (two wire places, one count).
        Kills => counter "supervisor_kills", "Jobs killed as hung by their worker's progress hook";
    }
    Live(Kills) => counter "worker_restarts", "Workers that went on after killing a hung job";
    ClassDepths => gauge "queue_depth", "Jobs waiting in the intake queue";
}

/// Live, lock-free counters updated by the submit path and the workers.
#[derive(Debug)]
pub struct Metrics {
    counters: [AtomicU64; COUNTERS],
    /// Gauge: per-QoS-class intake queue depth (jobs accepted by `submit`,
    /// not yet taken by a worker), indexed by [`crate::QosClass::index`].
    class_queue_depth: [AtomicU64; 3],
    /// Per-class intake queue capacity: the denominator of the
    /// `queue_saturation` gauge.
    queue_capacity: usize,
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

impl Metrics {
    /// Zeroed counters for a service whose class queues each hold
    /// `queue_capacity` jobs.
    pub fn new(queue_capacity: usize) -> Self {
        Metrics {
            counters: Default::default(),
            class_queue_depth: Default::default(),
            queue_capacity,
            latency_buckets: Default::default(),
            latency_sum_us: AtomicU64::new(0),
            solve_outcomes: Mutex::new(BTreeMap::new()),
            postmortems: Mutex::new(BTreeMap::new()),
            started: Instant::now(),
        }
    }

    /// Count `n` more of `counter`.
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// `n` more jobs wait in the intake queue of class `class`.
    pub(crate) fn queued(&self, class: usize, n: u64) {
        self.class_queue_depth[class].fetch_add(n, Ordering::Relaxed);
    }

    /// `n` fewer jobs wait in the intake queue of class `class`.
    pub(crate) fn dequeued(&self, class: usize, n: u64) {
        self.class_queue_depth[class].fetch_sub(n, Ordering::Relaxed);
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
    /// queue-depth gauges and the service uptime at snapshot time.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let class_queue_depth = self.class_queue_depth.each_ref().map(g);
        // The most saturated class queue: one full sub-queue means that
        // class's submitters are about to see Busy, regardless of how
        // empty the others are.
        let worst = class_queue_depth.iter().max().copied().unwrap_or(0);
        let mut snapshot = MetricsSnapshot {
            class_queue_depth,
            queue_saturation: match self.queue_capacity {
                0 => 0.0,
                cap => worst as f64 / cap as f64,
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
            ..MetricsSnapshot::default()
        };
        let count = |counter: Counter| g(&self.counters[counter as usize]);
        // Read before `accepted`: a job is accepted before it finishes.
        let finished = count(Counter::Completed) + count(Counter::Failed);
        snapshot.set_values(ROWS.map(|row| match row.feed {
            Feed::Live(counter) => count(counter),
            Feed::ClassDepths => class_queue_depth.iter().sum(),
            Feed::InFlight => count(Counter::Accepted).saturating_sub(finished),
        }));
        snapshot
    }
}

/// Replace anything outside the Prometheus-safe label charset with
/// `_` so label values never need escaping (and never contain spaces
/// or quotes that would break line-oriented consumers).
fn sanitize_label(s: &str) -> String {
    let safe = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':' | '/');
    let cleaned = s.replace(|c| !safe(c), "_");
    if cleaned.is_empty() {
        "unknown".to_string()
    } else {
        cleaned
    }
}

/// Escape a label value for the Prometheus text exposition format:
/// backslash, double quote, and newline must be escaped inside quoted
/// label values. Applied at exposition time so the output stays
/// well-formed even for snapshots built outside
/// [`Metrics::record_solve_outcome`] (e.g. deserialized from JSON),
/// where `sanitize_label` never ran.
fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
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

/// Serializable point-in-time view of the service counters. Its first
/// fields are the rows of `metrics.rs`'s table, in its order.
#[derive(Debug, Clone, Default, PartialEq)]
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

/// The one place a [`ROWS`] row meets its [`MetricsSnapshot`] field: the
/// row fields, in table order, read out as and written from `u64`s.
macro_rules! row_fields {
    ($($field:ident),+) => {
        impl MetricsSnapshot {
            fn values(&self) -> [u64; ROWS.len()] {
                [$(self.$field as u64),+]
            }

            fn set_values(&mut self, values: [u64; ROWS.len()]) {
                let [$($field),+] = values;
                $(self.$field = $field as _;)+
            }
        }
    };
}

row_fields! {
    accepted, rejected_busy, rejected_invalid, completed, failed, deadline_exceeded, cache_hits,
    cache_misses, partitioner_invocations, batches_executed, batched_jobs, rhs_solved, in_flight,
    faults_injected, faults_detected, rollbacks, retries, escalations, breaker_open, shed_total,
    supervisor_kills, worker_restarts, queue_depth
}

impl MetricsSnapshot {
    /// Render as a JSON object, through the workspace's one codec
    /// ([`hpf_json`]); the field set is the public contract, and
    /// [`Self::from_json`] reads it back.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut o = Obj::new(&mut out);
        for (row, value) in ROWS.iter().zip(self.values()) {
            o.u64(row.key, value);
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
            // Each outcome splits the `completed` and `failed` rows by label.
            let [completed, failed] = [Counter::Completed, Counter::Failed].map(|c| c.row().key);
            let mut outcomes = o.arr("solve_outcomes");
            for oc in &self.solve_outcomes {
                outcomes
                    .obj()
                    .str("solver", &oc.solver)
                    .str("scenario", &oc.scenario)
                    .u64(completed, oc.completed)
                    .u64(failed, oc.failed);
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

    /// Parse a snapshot back from the JSON that [`Self::to_json`] writes. This is what lets `trace-report` turn
    /// a metrics file saved by one process into Prometheus text in another.
    /// The `"+inf"` bucket bound reads as `u64::MAX` and a `null` gauge as
    /// NaN, as the writer wrote them.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = hpf_json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
        let mut values = [0; ROWS.len()];
        for (value, row) in values.iter_mut().zip(&ROWS) {
            *value = doc.u64_of(row.key)?;
        }
        let mut bounds = Vec::new();
        let mut counts = Vec::new();
        for bucket in doc.items_of("latency")? {
            bounds.push(match bucket.field("le_us")?.as_str() {
                Some("+inf") => u64::MAX,
                _ => bucket.u64_of("le_us")?,
            });
            counts.push(bucket.u64_of("count")?);
        }
        let class_depths = doc.items_of("class_queue_depth")?.iter();
        let class_depths: Vec<u64> = class_depths
            .map(|d| d.as_u64().ok_or("bad class depth"))
            .collect::<Result<_, _>>()?;
        let outcomes = doc.items_of("solve_outcomes")?.iter();
        let [completed, failed] = [Counter::Completed, Counter::Failed].map(|c| c.row().key);
        // Older snapshot files predate the flight recorder; treat a missing
        // postmortems section as empty rather than a parse failure.
        let postmortems = match doc.get("postmortems") {
            Some(_) => doc.items_of("postmortems")?,
            None => &[],
        };
        let mut snapshot = Self {
            class_queue_depth: class_depths
                .try_into()
                .map_err(|_| "class_queue_depth must have 3 entries".to_string())?,
            queue_saturation: doc.f64_of("queue_saturation")?,
            uptime_seconds: doc.f64_of("uptime_seconds")?,
            latency_bucket_bounds_us: bounds,
            latency_buckets: counts,
            latency_sum_us: doc.u64_of("latency_sum_us")?,
            solve_outcomes: outcomes
                .map(|o| {
                    Ok(SolveOutcome {
                        solver: o.str_of("solver")?.to_string(),
                        scenario: o.str_of("scenario")?.to_string(),
                        completed: o.u64_of(completed)?,
                        failed: o.u64_of(failed)?,
                    })
                })
                .collect::<Result<_, String>>()?,
            postmortems: postmortems
                .iter()
                .map(|p| {
                    Ok(PostmortemCount {
                        verdict: p.str_of("verdict")?.to_string(),
                        count: p.u64_of("count")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            ..Self::default()
        };
        snapshot.set_values(values);
        Ok(snapshot)
    }

    /// Render as Prometheus text exposition (version 0.0.4): `# HELP` /
    /// `# TYPE` headers, `_total`-suffixed counters, plain gauges,
    /// labeled per-`(solver, scenario)` outcome counters, and the
    /// latency histogram as a cumulative `_bucket` series with `le`
    /// labels in **seconds** (converted from the microsecond bucket
    /// bounds), a `+Inf` bucket, `_sum` (seconds), and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        // In the order stated above the table.
        let rows = ROWS.iter().zip(self.values());
        let (gauges, mut counters): (Vec<_>, Vec<_>) =
            rows.partition(|(row, _)| row.kind == "gauge");
        counters.sort_by_key(|(row, _)| row.feed == Feed::Live(Counter::BreakerOpen));
        for (row, value) in counters {
            let name = format!("{}_total", row.name);
            family(&mut out, &name, row.kind, row.help, [("", value)]);
        }
        if !self.solve_outcomes.is_empty() {
            // The `completed` and `failed` counters, split by label.
            for counter in [Counter::Completed, Counter::Failed] {
                let row = counter.row();
                let name = format!("solve_{}_total", row.name);
                let help = format!("{}, by solver and scenario", row.help);
                let samples = self.solve_outcomes.iter().map(|o| {
                    let solver = escape_label_value(&o.solver);
                    let scenario = escape_label_value(&o.scenario);
                    let labels = format!("{{solver=\"{solver}\",scenario=\"{scenario}\"}}");
                    let count = match counter {
                        Counter::Completed => o.completed,
                        _ => o.failed,
                    };
                    (labels, count)
                });
                family(&mut out, &name, row.kind, &help, samples);
            }
        }
        if !self.postmortems.is_empty() {
            let help = "Flight-recorder post-mortem dumps, by top-ranked verdict";
            let samples = self.postmortems.iter().map(|p| {
                let labels = format!("{{verdict=\"{}\"}}", escape_label_value(&p.verdict));
                (labels, p.count)
            });
            family(&mut out, "postmortems_total", "counter", help, samples);
        }
        for (row, value) in gauges {
            family(&mut out, row.name, row.kind, row.help, [("", value)]);
        }
        let saturation = "Intake queue depth over capacity (0.0 to 1.0)";
        let saturated = [("", self.queue_saturation)];
        family(&mut out, "queue_saturation", "gauge", saturation, saturated);
        let uptime = [("", self.uptime_seconds)];
        let help = "Seconds since the service started";
        family(&mut out, "uptime_seconds", "gauge", help, uptime);
        let classes = ["interactive", "batch", "best-effort"].iter();
        let depths = classes.zip(self.class_queue_depth);
        let depths = depths.map(|(class, depth)| (format!("{{class=\"{class}\"}}"), depth));
        let help = "Queued jobs per QoS class";
        family(&mut out, "class_queue_depth", "gauge", help, depths);
        // The histogram's samples follow its name with `_bucket{le=...}`,
        // `_sum` and `_count`. It always ends in a +Inf bucket, even if the
        // bound table ever drops the open-ended one.
        let buckets = self
            .latency_bucket_bounds_us
            .iter()
            .zip(&self.latency_buckets);
        let mut cumulative = 0;
        let mut samples: Vec<(String, String)> = Vec::new();
        for (&bound_us, count) in buckets.filter(|(&bound_us, _)| bound_us != u64::MAX) {
            cumulative += count;
            let le = bound_us as f64 / 1e6;
            samples.push((format!("_bucket{{le=\"{le}\"}}"), cumulative.to_string()));
        }
        let count: u64 = self.latency_buckets.iter().sum();
        samples.push(("_bucket{le=\"+Inf\"}".into(), count.to_string()));
        samples.push((
            "_sum".into(),
            (self.latency_sum_us as f64 / 1e6).to_string(),
        ));
        samples.push(("_count".into(), count.to_string()));
        let help = "Submit-to-response latency of completed jobs";
        family(&mut out, "latency_seconds", "histogram", help, samples);
        out
    }
}

/// One metric family: its `# HELP` and `# TYPE` headers, then one sample
/// for each `(suffix, value)`. The suffix follows the family's name: its
/// labels in braces, a histogram's `_bucket{...}`, `_sum` or `_count`, or
/// nothing.
fn family<L: Display, V: Display>(
    out: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    samples: impl IntoIterator<Item = (L, V)>,
) {
    const PREFIX: &str = "hpf_service";
    let _ = writeln!(
        out,
        "# HELP {PREFIX}_{name} {help}\n# TYPE {PREFIX}_{name} {kind}"
    );
    for (suffix, value) in samples {
        let _ = writeln!(out, "{PREFIX}_{name}{suffix} {value}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_round_trips_through_the_parser() {
        let m = Metrics::new(0);
        m.add(Counter::Accepted, 9);
        m.add(Counter::Rollbacks, 2);
        m.class_queue_depth[0].store(3, Ordering::Relaxed);
        m.observe_latency(Duration::from_micros(120));
        m.record_solve_outcome("cg", "rowwise", true);
        m.record_solve_outcome("gmres", "colwise", false);
        let snap = m.snapshot();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.accepted, 9);
        assert_eq!(back.rollbacks, 2);
        assert_eq!(back.queue_depth, 3);
        assert_eq!(back.latency_buckets, snap.latency_buckets);
        assert_eq!(back.latency_bucket_bounds_us, snap.latency_bucket_bounds_us);
        assert_eq!(back.latency_sum_us, 120);
        assert_eq!(back.solve_outcomes, snap.solve_outcomes);
        assert!((back.uptime_seconds - snap.uptime_seconds).abs() < 1e-9);
        // And the parsed snapshot renders identical Prometheus text.
        assert_eq!(back.to_prometheus(), snap.to_prometheus());
    }

    #[test]
    fn parser_rejects_garbage_and_missing_fields() {
        assert!(MetricsSnapshot::from_json("not json").is_err());
        assert!(MetricsSnapshot::from_json("{}").is_err());
        assert!(MetricsSnapshot::from_json("{\"accepted\":1}").is_err());
    }

    #[test]
    fn latency_lands_in_the_right_bucket() {
        let m = Metrics::new(0);
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
        let m = std::sync::Arc::new(Metrics::new(0));
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
        let m = Metrics::new(0);
        m.add(Counter::Accepted, 5);
        m.add(Counter::CacheHits, 3);
        m.class_queue_depth[1].store(4, Ordering::Relaxed);
        m.class_queue_depth[2].store(3, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.accepted, 5);
        assert_eq!(s.cache_hits, 3);
        assert_eq!(s.queue_depth, 7);
    }

    #[test]
    fn uptime_is_nonnegative_and_advances() {
        let m = Metrics::new(0);
        let a = m.snapshot().uptime_seconds;
        assert!(a >= 0.0);
        std::thread::sleep(Duration::from_millis(5));
        let b = m.snapshot().uptime_seconds;
        assert!(b > a, "uptime should advance: {a} then {b}");
    }

    #[test]
    fn json_is_well_formed_and_names_every_counter() {
        let m = Metrics::new(0);
        m.observe_latency(Duration::from_millis(2));
        m.class_queue_depth[2].store(1, Ordering::Relaxed);
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
        let m = Metrics::new(0);
        m.observe_latency(Duration::from_micros(150));
        m.observe_latency(Duration::from_micros(850));
        let s = m.snapshot();
        assert_eq!(s.latency_sum_us, 1000);
        let j = s.to_json();
        assert!(j.contains("\"latency_sum_us\":1000"), "{j}");
    }

    #[test]
    fn solve_outcomes_are_labeled_sorted_and_sanitized() {
        let m = Metrics::new(0);
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
        let m = Metrics::new(0);
        // Capacity unknown: saturation pinned to 0 rather than NaN.
        m.class_queue_depth[1].store(3, Ordering::Relaxed);
        assert_eq!(m.snapshot().queue_saturation, 0.0);
        let m = Metrics::new(12);
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
        let m = Metrics::new(0);
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
        let mut s = Metrics::new(0).snapshot();
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

    #[test]
    fn exposition_has_counters_gauges_and_cumulative_buckets() {
        let m = Metrics::new(0);
        m.add(Counter::Accepted, 4);
        m.add(Counter::Completed, 3);
        m.class_queue_depth[0].store(2, Ordering::Relaxed);
        m.observe_latency(Duration::from_micros(50));
        m.observe_latency(Duration::from_micros(50));
        m.observe_latency(Duration::from_millis(5));
        let text = m.snapshot().to_prometheus();

        assert!(text.contains("hpf_service_accepted_total 4"));
        assert!(text.contains("hpf_service_completed_total 3"));
        assert!(text.contains("hpf_service_queue_depth 2"));
        assert!(text.contains("# TYPE hpf_service_queue_depth gauge"));
        assert!(text.contains("# TYPE hpf_service_latency_seconds histogram"));
        // Buckets are cumulative: 2 in <=0.0001, still 2 at <=0.001,
        // 3 from <=0.01 onwards, and +Inf == _count == 3.
        assert!(text.contains("latency_seconds_bucket{le=\"0.0001\"} 2"));
        assert!(text.contains("latency_seconds_bucket{le=\"0.001\"} 2"));
        assert!(text.contains("latency_seconds_bucket{le=\"0.01\"} 3"));
        assert!(text.contains("latency_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("hpf_service_latency_seconds_count 3"));
        assert!(text.contains("hpf_service_uptime_seconds"));
    }

    #[test]
    fn every_metric_line_is_name_space_value() {
        let text = Metrics::new(0).snapshot().to_prometheus();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split(' ');
            let name = parts.next().unwrap();
            let value = parts.next().unwrap();
            assert!(parts.next().is_none(), "extra tokens in {line:?}");
            assert!(name.starts_with("hpf_service_"), "bad name in {line:?}");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }

    #[test]
    fn type_headers_precede_their_series() {
        let text = Metrics::new(0).snapshot().to_prometheus();
        let type_pos = text.find("# TYPE hpf_service_accepted_total").unwrap();
        let series_pos = text.find("\nhpf_service_accepted_total ").unwrap();
        assert!(type_pos < series_pos);
    }

    /// Pull the cumulative histogram out of an exposition: `(le, count)`
    /// per bucket line, plus the `_sum` and `_count` series.
    fn scrape_histogram(text: &str) -> (Vec<(f64, u64)>, f64, u64) {
        let mut buckets = Vec::new();
        let mut sum = f64::NAN;
        let mut count = 0;
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.split_once(' ').unwrap();
            if let Some(label) = name
                .strip_prefix("hpf_service_latency_seconds_bucket{le=\"")
                .and_then(|r| r.strip_suffix("\"}"))
            {
                let le = if label == "+Inf" {
                    f64::INFINITY
                } else {
                    label.parse().unwrap()
                };
                buckets.push((le, value.parse().unwrap()));
            } else if name == "hpf_service_latency_seconds_sum" {
                sum = value.parse().unwrap();
            } else if name == "hpf_service_latency_seconds_count" {
                count = value.parse().unwrap();
            }
        }
        (buckets, sum, count)
    }

    #[test]
    fn histogram_ends_in_inf_and_is_cumulative_and_monotone() {
        let m = Metrics::new(0);
        m.observe_latency(Duration::from_micros(40));
        m.observe_latency(Duration::from_micros(700));
        m.observe_latency(Duration::from_secs(30)); // lands in +Inf only
        let (buckets, sum, count) = scrape_histogram(&m.snapshot().to_prometheus());
        assert!(!buckets.is_empty());
        let (last_le, last_count) = *buckets.last().unwrap();
        assert!(
            last_le.is_infinite(),
            "exposition must end in a +Inf bucket"
        );
        // Bounds strictly increase and counts never decrease.
        for pair in buckets.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "le bounds not increasing: {buckets:?}"
            );
            assert!(pair[0].1 <= pair[1].1, "counts not cumulative: {buckets:?}");
        }
        // +Inf bucket equals _count equals total observations.
        assert_eq!(last_count, 3);
        assert_eq!(count, 3);
        // _sum is consistent with what was observed (seconds).
        let expected = 40e-6 + 700e-6 + 30.0;
        assert!((sum - expected).abs() < 1e-9, "sum {sum} vs {expected}");
    }

    #[test]
    fn scraped_exposition_parses_and_labels_are_wellformed() {
        let m = Metrics::new(0);
        m.record_solve_outcome("bicgstab", "e25 col", true);
        m.observe_latency(Duration::from_micros(5));
        let text = m.snapshot().to_prometheus();
        // The labeled series is present, with the space sanitized out of
        // the scenario value so line-oriented parsers stay happy.
        assert!(text.contains(
            "hpf_service_solve_completed_total{solver=\"bicgstab\",scenario=\"e25_col\"} 1"
        ));
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.split_once(' ').expect("name SP value");
            assert!(name.starts_with("hpf_service_"), "{line:?}");
            if let Some(open) = name.find('{') {
                assert!(name.ends_with('}'), "unclosed label set in {line:?}");
                for pair in name[open + 1..name.len() - 1].split(',') {
                    let (k, v) = pair.split_once('=').expect("k=\"v\" label");
                    assert!(!k.is_empty());
                    assert!(v.starts_with('"') && v.ends_with('"'), "{line:?}");
                }
            }
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }
}
