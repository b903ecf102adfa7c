//! The two service workloads: a client holding a `JobHandle`. Closed
//! loop: one generator thread submits a burst of 8 and waits on the
//! handles in order, so a slow service receives less load.

use crate::host::{AllCores, Readings};
use crate::library::STOP;
use crate::spans::{sums_by_trace, SpanBuf, Sum, TimedOperator};
use crate::util::{
    machine, median, percentile, rel_residual, secs, seeded_rhs, Rng, RESIDUAL_LIMIT,
};
use crate::{probes, wants_another_setup, Ledger, Timed};
use hpf::core::RowwiseCsr;
use hpf::machine::{FaultPlan, Topology};
use hpf::obs::{render_prometheus, EventBus, FlightRecorder, FlightRecorderConfig, SamplingPolicy};
use hpf::partition::by_name;
use hpf::service::{
    PlanSource, QosClass, ServiceConfig, SolvePlan, SolveRequest, SolveResponse, SolverService,
};
use hpf::solvers::{cg, cg_distributed, cg_distributed_protected, RecoveryConfig};
use hpf::sparse::{gen, CsrMatrix};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NP: usize = 8;
const BURST: usize = 8;
/// Fewest bursts a pass runs: enough for every class and plan source to occur.
const MIN_BURSTS: usize = 25;
/// Bursts between two readings of the host-speed reference (about 30 ms).
const BURSTS_PER_READING: usize = 8;

/// One structure the stream draws from.
#[derive(Clone)]
struct Entry {
    a: Arc<CsrMatrix>,
    b: Arc<Vec<f64>>,
    partitioner: &'static str,
}

impl Entry {
    fn new(a: CsrMatrix, partitioner: &'static str, rng: &mut Rng) -> Self {
        let b = seeded_rhs(&a, rng);
        Entry {
            a: Arc::new(a),
            b: Arc::new(b),
            partitioner,
        }
    }
}

/// The 24 pooled structures: 8 banded, 8 Poisson 2-D, 8 power-law.
/// Shapes are fixed; the seed drives every matrix seed and right-hand side.
fn make_pool(rng: &mut Rng) -> Vec<Entry> {
    let mut pool = Vec::with_capacity(24);
    for i in 0..8 {
        let a = gen::banded_spd(512 + 64 * i, 3, rng.next_u64());
        pool.push(Entry::new(a, "balanced-rows", rng));
    }
    for i in 0..8 {
        let side = 20 + 2 * i;
        pool.push(Entry::new(
            gen::poisson_2d(side, side),
            "balanced-rows",
            rng,
        ));
    }
    for i in 0..8 {
        let a = gen::power_law_spd(400 + 50 * i, 10, 0.9, rng.next_u64());
        pool.push(Entry::new(a, "greedy-hypergraph", rng));
    }
    pool
}

/// The power-law structure the partitioner probes run on.
pub fn partition_probe_matrix(seed: u64) -> CsrMatrix {
    gen::power_law_spd(600, 10, 0.9, Rng::new(seed).next_u64())
}

/// One request of the stream before it becomes a `SolveRequest`.
struct Ticket {
    entry: Entry,
    qos: QosClass,
    /// A single seeded crash `(op, proc)`: rollback, the job still succeeds.
    crash: Option<(usize, usize)>,
}

impl Ticket {
    fn fault_plan(&self) -> Option<FaultPlan> {
        self.crash
            .map(|(op, proc)| FaultPlan::new().with_crash(op, proc))
    }

    fn request(&self) -> SolveRequest {
        let mut r = SolveRequest::new(self.entry.a.clone(), self.entry.b.to_vec())
            .partitioner(self.entry.partitioner)
            .qos(self.qos);
        if let Some(plan) = self.fault_plan() {
            r = r.fault_plan(plan);
        }
        r
    }

    fn max_iters(&self) -> usize {
        10 * self.entry.a.n_rows()
    }
}

/// The seeded request stream: 90% pooled structures (plan-cache hits
/// once warm), 10% never-seen `random_spd(384, 5, ·)` with `nnz-bisect`
/// (misses); QoS 30/50/20; 2% carry a crash plan.
struct Stream {
    rng: Rng,
    pool: Vec<Entry>,
}

impl Stream {
    fn next(&mut self) -> Ticket {
        let entry = if self.rng.unit() < 0.10 {
            let a = gen::random_spd(384, 5, self.rng.next_u64());
            Entry::new(a, "nnz-bisect", &mut self.rng)
        } else {
            self.pool[self.rng.below(self.pool.len())].clone()
        };
        let class = self.rng.unit();
        let qos = if class < 0.30 {
            QosClass::Interactive
        } else if class < 0.80 {
            QosClass::Batch
        } else {
            QosClass::BestEffort
        };
        let crash = (self.rng.unit() < 0.02).then(|| (20 + self.rng.below(40), self.rng.below(NP)));
        Ticket { entry, qos, crash }
    }
}

/// What the client saw of one answered request.
struct Done {
    latency_s: f64,
    submit_s: f64,
    wait_s: f64,
    solve_s: f64,
    built: bool,
    batched: bool,
    retried: bool,
    qos: QosClass,
    ok: bool,
    traced: bool,
    /// The reading of the host-speed reference taken before its burst.
    reading: usize,
}

impl Done {
    /// Latency − wait − solve, clamped at 0: admit, dispatch, plan, batch mates, respond.
    fn overhead_s(&self) -> f64 {
        (self.latency_s - self.wait_s - self.solve_s).max(0.0)
    }
}

struct Taps {
    bus: Arc<EventBus>,
    recorder: Arc<FlightRecorder>,
}

/// A started, warm service with its stream.
struct Running {
    service: SolverService,
    taps: Option<Taps>,
    stream: Stream,
    gen_s: f64,
    done: Vec<Done>,
    /// Wall seconds, correct answers and preceding reading of each burst of a `run_for`.
    bursts: Vec<(f64, usize, usize)>,
    /// Readings of the host-speed reference, where `run_for` was given one.
    readings: Readings,
    refused: u64,
}

impl Running {
    /// Pool generation, service start, warm-up: the service's set-up.
    fn start(seed: u64, observed: bool, quick: bool) -> Running {
        let mut rng = Rng::new(seed);
        let t0 = Instant::now();
        let pool = make_pool(&mut rng);
        let gen_s = secs(t0);
        let mut cfg = ServiceConfig {
            workers: 2,
            np: NP,
            queue_capacity: 64,
            ..ServiceConfig::default()
        };
        let taps = observed.then(|| {
            let bus = EventBus::new(1 << 14, SamplingPolicy::with_rate(0.1));
            cfg.event_sink = Some(bus.service_sink());
            cfg.machine_sink = Some(bus.machine_sink());
            let recorder = FlightRecorder::new(FlightRecorderConfig::default());
            recorder.install(&mut cfg);
            Taps { bus, recorder }
        });
        let mut running = Running {
            service: SolverService::start(cfg),
            taps,
            stream: Stream { rng, pool },
            gen_s,
            done: Vec::new(),
            bursts: Vec::new(),
            readings: Readings(Vec::new()),
            refused: 0,
        };
        for _ in 0..if quick { 5 } else { MIN_BURSTS } {
            running.burst(None);
        }
        running.done.clear();
        running
    }

    /// Submit 8, wait on them in order, check every answer. With `spans`
    /// each request is recorded: `request` with children `service.submit`
    /// (measured) and `service.wait`, `service.solve` (response fields).
    fn burst(&mut self, spans: Option<&SpanBuf>) {
        let tickets: Vec<Ticket> = (0..BURST).map(|_| self.stream.next()).collect();
        let mut in_flight = Vec::with_capacity(BURST);
        for ticket in tickets {
            let request = black_box(ticket.request());
            let t0 = Instant::now();
            let handle = self.service.submit(request);
            let submitted = Instant::now();
            match handle {
                Ok(h) => in_flight.push((ticket, t0, submitted, h)),
                Err(_) => self.refused += 1,
            }
        }
        for (ticket, t0, submitted, handle) in in_flight {
            let answer = black_box(handle.wait());
            let end = Instant::now();
            let mut d = Done {
                latency_s: (end - t0).as_secs_f64(),
                submit_s: (submitted - t0).as_secs_f64(),
                wait_s: 0.0,
                solve_s: 0.0,
                built: false,
                batched: false,
                retried: false,
                qos: ticket.qos,
                ok: false,
                traced: spans.is_some(),
                reading: self.readings.0.len().saturating_sub(1),
            };
            if let Ok(resp) = &answer {
                d.wait_s = resp.wait_time.as_secs_f64();
                d.solve_s = resp.solve_time.as_secs_f64();
                d.built = resp.plan_source == PlanSource::Built;
                d.batched = resp.batched_with > 0;
                d.retried = resp.attempts > 1;
                d.ok = answer_is_correct(&ticket, resp);
            }
            if let Some(s) = spans {
                s.set_trace(self.done.len() as u64);
                let ns = |d: Duration| d.as_nanos() as u64;
                let end_ns = s.now_ns();
                let start_ns = end_ns - ns(end - t0);
                let submit_end = start_ns + ns(submitted - t0);
                let wait_end = submit_end + (d.wait_s * 1e9) as u64;
                let request = s.push("request", start_ns, end_ns, None);
                s.push("service.submit", start_ns, submit_end, Some(request));
                s.push("service.wait", submit_end, wait_end, Some(request));
                let solve_end = wait_end + (d.solve_s * 1e9) as u64;
                s.push("service.solve", wait_end, solve_end, Some(request));
                s.push("service.wait_call", submit_end, end_ns, None);
            }
            self.done.push(d);
        }
        if let Some(taps) = &self.taps {
            // A real consumer: the bus is drained, not just fed.
            black_box(taps.bus.drain());
        }
    }

    /// Bursts until `seconds` have passed, every other one recorded when
    /// `spans` is given, a reading of `host` every few bursts when that is.
    fn run_for(&mut self, seconds: f64, spans: Option<&SpanBuf>, mut host: Option<&mut AllCores>) {
        let t0 = Instant::now();
        while secs(t0) < seconds || self.bursts.len() < MIN_BURSTS {
            if let Some(host) = host.as_deref_mut() {
                if self.bursts.len().is_multiple_of(BURSTS_PER_READING) {
                    self.readings.0.push(host.slowdown());
                }
            }
            let answered = self.done.len();
            let t = Instant::now();
            self.burst(spans.filter(|_| self.bursts.len() % 2 == 1));
            let correct = self.done[answered..].iter().filter(|d| d.ok).count();
            let reading = self.readings.0.len().saturating_sub(1);
            self.bursts.push((secs(t), correct, reading));
        }
        if let Some(host) = host {
            self.readings.0.push(host.slowdown());
        }
    }

    /// The host's slowdown around the burst that followed reading `i`;
    /// 1 where no reference was read (the traced pass reports the clock's times).
    fn slowdown(&self, reading: usize) -> f64 {
        if self.readings.0.is_empty() {
            1.0
        } else {
            self.readings.around(reading)
        }
    }

    /// Correct answers per second of the stream, at the reference machine's speed.
    fn throughput_rps(&self) -> f64 {
        let correct: usize = self.bursts.iter().map(|b| b.1).sum();
        let seconds: f64 = self.bursts.iter().map(|b| b.0 / self.slowdown(b.2)).sum();
        correct as f64 / seconds
    }

    fn latencies_ms(&self, keep: impl Fn(&Done) -> bool) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| keep(d))
            .map(|d| d.latency_s * 1e3)
            .collect()
    }

    fn attempted(&self) -> u64 {
        self.done.len() as u64 + self.refused
    }

    fn failed(&self) -> u64 {
        self.done.iter().filter(|d| !d.ok).count() as u64 + self.refused
    }
}

fn answer_is_correct(ticket: &Ticket, resp: &SolveResponse) -> bool {
    resp.stats.len() == 1
        && resp.stats[0].converged
        && rel_residual(&ticket.entry.a, &resp.solutions[0], &ticket.entry.b) <= RESIDUAL_LIMIT
}

/// The timed pass: several set-ups, then bursts for `seconds` with spans
/// off; every time is stated at the reference machine's speed.
pub fn timed(observed: bool, seed: u64, seconds: f64, quick: bool) -> Timed {
    let mut host = AllCores::new();
    let mut setup_s = Vec::new();
    let mut running: Option<Running> = None;
    let mut before = host.slowdown();
    while wants_another_setup(&setup_s) {
        if let Some(previous) = running.take() {
            previous.service.shutdown();
            before = host.slowdown();
        }
        let t0 = Instant::now();
        running = Some(Running::start(seed, observed, quick));
        let wall = secs(t0);
        let after = host.slowdown();
        setup_s.push(wall / (0.5 * (before + after)));
    }
    let mut running = running.expect("at least one set-up");
    running.run_for(seconds, None, Some(&mut host));
    let workload = if observed {
        "service_observed"
    } else {
        "service_mixed"
    };
    println!("# {workload}: {}", running.readings.summary());
    let raw_ms = running.latencies_ms(|_| true);
    println!(
        "# {workload}: as the clock read them, a request took median {:.3} ms, p95 {:.3} ms",
        median(&raw_ms),
        percentile(&raw_ms, 0.95)
    );
    let at_reference = |f: fn(&Done) -> f64| -> Vec<f64> {
        running
            .done
            .iter()
            .map(|d| f(d) * 1e3 / running.slowdown(d.reading))
            .collect()
    };
    let all = at_reference(|d| d.latency_s);
    let out = Timed {
        setup_s,
        solve_wall_ms: median(&at_reference(|d| d.solve_s)),
        request_p50_ms: median(&all),
        request_p95_ms: percentile(&all, 0.95),
        throughput_rps: running.throughput_rps(),
        attempted: running.attempted(),
        failed: running.failed(),
    };
    running.service.shutdown();
    out
}

/// Throughput of a plain stream of one variant, with its taps' counters.
fn plain_throughput(
    observed: bool,
    seed: u64,
    seconds: f64,
    quick: bool,
    ledger: &mut Ledger,
) -> (f64, u64, u64) {
    let mut running = Running::start(seed, observed, quick);
    running.run_for(seconds, None, None);
    if let Some(taps) = &running.taps {
        let stats = taps.bus.stats();
        ledger.insert("obs.bus_published", stats.published as f64);
        ledger.insert("obs.bus_dropped", stats.dropped as f64);
        ledger.insert("obs.bus_sampled_out", stats.sampled_out as f64);
        ledger.insert("obs.postmortems", taps.recorder.dumps() as f64);
    }
    let out = (
        running.throughput_rps(),
        running.attempted(),
        running.failed(),
    );
    running.service.shutdown();
    out
}

/// The traced pass of a service workload. Returns `(attempted, failed)`.
pub fn traced(
    observed: bool,
    seed: u64,
    seconds: f64,
    quick: bool,
    probe_budget: Option<f64>,
    spans: &SpanBuf,
    ledger: &mut Ledger,
) -> (u64, u64) {
    // Phase 1: this variant, every other burst recorded.
    let mut running = Running::start(seed, observed, quick);
    ledger.insert("sparse.gen_s", running.gen_s);
    running.run_for(seconds * 0.4, Some(spans), Some(&mut AllCores::new()));
    ledger.insert("host.slowdown", median(&running.readings.0));
    let t0 = Instant::now();
    let rendered = black_box(render_prometheus(&running.service.metrics()));
    ledger.insert("obs.prom_render_us", secs(t0) * 1e6);
    assert!(!rendered.is_empty(), "prometheus rendering is empty");
    let mut attempted = running.attempted();
    let mut failed = running.failed();
    let request_p50_ms = service_metrics(&running, ledger);
    let probe_entry = running.stream.pool[0].clone();
    running.service.shutdown();

    // Phase 2: both variants plain, one after the other: what the taps cost.
    let (mixed_rps, a, f) = plain_throughput(false, seed, seconds * 0.2, quick, ledger);
    attempted += a;
    failed += f;
    let (observed_rps, a, f) = plain_throughput(true, seed, seconds * 0.2, quick, ledger);
    attempted += a;
    failed += f;
    ledger.insert("obs.overhead_ratio", mixed_rps / observed_rps);

    // Phase 3: the head of the stream solved by direct library calls.
    let k = if quick { 40 } else { 200 };
    let (direct_p50_ms, direct_failed) = direct_mix(seed, k, spans, ledger);
    attempted += k as u64;
    failed += direct_failed;
    ledger.insert("service.direct_ratio", request_p50_ms / direct_p50_ms);

    if let Some(budget) = probe_budget {
        probes::run(&probe_entry.a, &probe_entry.b, NP, seed, budget, ledger);
    }
    (attempted, failed)
}

/// Fills the `service.*` metrics of phase 1; returns the median latency in ms.
fn service_metrics(running: &Running, ledger: &mut Ledger) -> f64 {
    let done = &running.done;
    let n = done.len() as f64;
    let share = |keep: fn(&Done) -> bool| done.iter().filter(|d| keep(d)).count() as f64 / n;
    let all = running.latencies_ms(|_| true);
    let col = |f: fn(&Done) -> f64| done.iter().map(f).collect::<Vec<f64>>();
    let sum = |f: fn(&Done) -> f64| done.iter().map(f).sum::<f64>();

    ledger.insert("service.request_p99_ms", percentile(&all, 0.99));
    ledger.insert("service.submit_us_p50", median(&col(|d| d.submit_s * 1e6)));
    ledger.insert("service.wait_ms_p50", median(&col(|d| d.wait_s * 1e3)));
    ledger.insert("service.solve_ms_p50", median(&col(|d| d.solve_s * 1e3)));
    ledger.insert(
        "service.overhead_ms_p50",
        median(&col(|d| d.overhead_s() * 1e3)),
    );
    ledger.insert("service.plan_hit_ratio", share(|d| !d.built));
    ledger.insert(
        "service.latency_hit_ms_p50",
        median(&running.latencies_ms(|d| !d.built)),
    );
    ledger.insert(
        "service.latency_built_ms_p50",
        median(&running.latencies_ms(|d| d.built)),
    );
    ledger.insert("service.batched_share", share(|d| d.batched));
    ledger.insert("service.retry_share", share(|d| d.retried));
    ledger.insert("service.refused", running.refused as f64);
    ledger.insert(
        "service.interactive_p95_ms",
        percentile(
            &running.latencies_ms(|d| d.qos == QosClass::Interactive),
            0.95,
        ),
    );
    ledger.insert(
        "service.besteffort_p95_ms",
        percentile(
            &running.latencies_ms(|d| d.qos == QosClass::BestEffort),
            0.95,
        ),
    );
    // Wait + solve + overhead against latency; overhead is the clamped
    // remainder, so this departs from 1 only if the response's own
    // clocks exceed what the client measured.
    let parts = sum(|d| d.wait_s) + sum(|d| d.solve_s) + sum(|d| d.overhead_s());
    ledger.insert("trace_reconcile_ratio", parts / sum(|d| d.latency_s));
    let by_tracing = |traced: bool| running.latencies_ms(|d| d.traced == traced);
    ledger.insert(
        "trace_overhead_ratio",
        median(&by_tracing(true)) / median(&by_tracing(false)),
    );
    ledger.insert("trace.reps", by_tracing(true).len() as f64);
    median(&all)
}

/// Trace ids of the direct solves start here, above any request's.
const DIRECT_TRACE: u64 = 1 << 32;

/// The first `k` requests of the stream solved by direct library calls
/// (the plan built outside the clock): what a request costs without the
/// service around it, and the library-layer numbers of this mix, which
/// are totals over the `k` solves. Returns the median wall in ms and
/// the number of failures.
fn direct_mix(seed: u64, k: usize, spans: &SpanBuf, ledger: &mut Ledger) -> (f64, u64) {
    let mut rng = Rng::new(seed);
    let pool = make_pool(&mut rng);
    let mut stream = Stream { rng, pool };
    let tickets: Vec<Ticket> = (0..k).map(|_| stream.next()).collect();
    let mut operators: BTreeMap<*const CsrMatrix, RowwiseCsr> = BTreeMap::new();
    for t in &tickets {
        operators.entry(Arc::as_ptr(&t.entry.a)).or_insert_with(|| {
            let partitioner = by_name(t.entry.partitioner).expect("registered partitioner");
            let plan =
                SolvePlan::build_with(&t.entry.a, NP, Topology::Hypercube, partitioner.as_ref());
            RowwiseCsr::with_row_cuts((*t.entry.a).clone(), NP, plan.row_cuts)
        });
    }
    // Tracing on, as the worker's machines have it.
    let traced_machine = || machine(NP, true);
    let recovery = RecoveryConfig::default();

    // Recorded, protected, with the ticket's crash plan: the worker's path.
    let mut walls_ms = Vec::with_capacity(k);
    let mut failed = 0u64;
    let (mut sim_s, mut iters, mut events, mut flops, mut words, mut messages) =
        (0.0, 0usize, 0u64, 0u64, 0u64, 0u64);
    let (mut imbalance, mut residual) = (0.0f64, 0.0f64);
    for (i, t) in tickets.iter().enumerate() {
        let op = &operators[&Arc::as_ptr(&t.entry.a)];
        let b = black_box(t.entry.b.as_slice());
        let mut m = traced_machine();
        if let Some(plan) = t.fault_plan() {
            m.set_fault_plan(plan);
        }
        spans.set_trace(DIRECT_TRACE + i as u64);
        let t0 = Instant::now();
        let solved = black_box(spans.record("solve", || {
            let timed = TimedOperator {
                inner: op,
                spans,
                name: "core.matvec",
            };
            cg_distributed_protected(&mut m, &timed, b, STOP, t.max_iters(), recovery)
        }));
        walls_ms.push(secs(t0) * 1e3);
        sim_s += m.elapsed();
        events += m.trace().len() as u64;
        flops += m.total_flops();
        words += m.total_words_sent();
        messages += m.total_messages();
        imbalance = imbalance.max(m.imbalance());
        match solved {
            Ok((x, stats, _)) => {
                iters += stats.iterations;
                let r = rel_residual(&t.entry.a, &x.to_global(), b);
                residual = residual.max(r);
                if !stats.converged || r > RESIDUAL_LIMIT {
                    failed += 1;
                }
            }
            Err(_) => failed += 1,
        }
    }
    let traces = sums_by_trace(&spans.spans());
    let direct: Vec<_> = traces
        .range(DIRECT_TRACE..)
        .map(|(_, by_name)| by_name)
        .collect();
    let column = |name: &str, pick: fn(&Sum) -> f64| -> Vec<f64> {
        direct
            .iter()
            .map(|by_name| by_name.get(name).map_or(0.0, pick))
            .collect()
    };
    ledger.insert("core.matvec_ms", median(&column("core.matvec", |s| s.ms)));
    ledger.insert(
        "core.matvec_calls",
        column("core.matvec", |s| s.calls as f64).iter().sum(),
    );
    ledger.insert("solvers.self_ms", median(&column("solve", |s| s.self_ms)));
    ledger.insert("solvers.iters", iters as f64);
    ledger.insert("sim_solve_s", sim_s);
    ledger.insert("machine.events_per_solve", events as f64);
    ledger.insert("machine.flops", flops as f64);
    ledger.insert("machine.words_sent", words as f64);
    ledger.insert("machine.messages", messages as f64);
    ledger.insert("machine.imbalance", imbalance);
    ledger.insert("solvers.final_rel_residual", residual);

    // Unrecorded side runs on the tickets without a crash plan:
    // protected against plain, and the serial baseline.
    let (mut protected_s, mut plain_s, mut serial_s) = (0.0, 0.0, 0.0);
    for t in tickets.iter().filter(|t| t.crash.is_none()) {
        let op = &operators[&Arc::as_ptr(&t.entry.a)];
        let b = black_box(t.entry.b.as_slice());
        let t0 = Instant::now();
        black_box(cg_distributed_protected(
            &mut traced_machine(),
            op,
            b,
            STOP,
            t.max_iters(),
            recovery,
        ))
        .expect("protected side solve");
        protected_s += secs(t0);
        let t0 = Instant::now();
        black_box(cg_distributed(
            &mut traced_machine(),
            op,
            b,
            STOP,
            t.max_iters(),
        ))
        .expect("plain side solve");
        plain_s += secs(t0);
        let t0 = Instant::now();
        black_box(cg(t.entry.a.as_ref(), b, STOP, t.max_iters())).expect("serial side solve");
        serial_s += secs(t0);
    }
    ledger.insert("solvers.protected_over_plain_ratio", protected_s / plain_s);
    ledger.insert("solvers.serial_cg_ms", serial_s * 1e3);
    ledger.insert("solvers.dist_over_serial_ratio", plain_s / serial_s);
    (median(&walls_ms), failed)
}
