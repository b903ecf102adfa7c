//! E29: live telemetry pipeline — bus overhead, SLO burn-rate alerting,
//! and continuous span profiling, all on one soak.
//!
//! E27 proves the service *survives* chaos; E29 proves an operator can
//! *watch* it do so without distorting it. Three claims, each asserted:
//!
//! 1. **Cost** — a job the sampler drops pays a field read and a hash
//!    per machine operation; a job it keeps pays per published event.
//!    The event bus (machine tap + service tap, head sampling on, a
//!    consumer draining) is timed against the identical closed-loop
//!    chaos workload with the bus off — closed-loop, because an
//!    open-loop soak's wall time is arrival-paced and would hide any
//!    cost — and stated three ways: wall time per request with the bus
//!    on (`telemetry/bus_on_us_per_request`, which must not exceed the
//!    committed baseline's), the difference spread over the events
//!    published (`telemetry/bus_ns_per_published_event`, budget
//!    [`BUS_NS_PER_PUBLISHED_EVENT_BUDGET`]), and the on/off ratio. The
//!    ratio was the rule ("< 5%") while the bus-off side still built
//!    every event for the worker's trace; now that side builds none,
//!    its wall time fell by a third, and the bus's whole marginal cost
//!    shows in the ratio, which is printed and recorded only.
//! 2. **Alerting** — an injected overload phase (interactive requests
//!    with hopeless microsecond deadlines, mass-shed at the door)
//!    breaches the interactive SLO's burn-rate windows: the alert walks
//!    `Inactive → Pending → Firing` *during* the overload and reaches
//!    `Resolved` only after a clean recovery phase, with no alert
//!    activity before the overload begins. All of it is asserted from
//!    the tracker's transition log, fed exclusively by bus events.
//! 3. **Profiling** — the span profile built from the live bus (and a
//!    post-hoc traced solve of the same workload) names `matvec` as the
//!    hottest stack, matching the paper's cost story, and exports a
//!    well-formed collapsed-stack profile.
//!
//! Artifacts land next to the gate's `BENCH_29.json`: `e29_bus.jsonl`
//! (the drained bus stream — `trace-report --follow` consumes it),
//! `e29_trace.jsonl` (a traced solve for `trace-report --format
//! flame`), and `e29_flame.txt` (the live profile, collapsed). Set
//! `HPF_E29_REQUESTS` to resize the run; below 300 requests the
//! wall-clock-noise-sensitive cost rules are reported but not asserted,
//! the per-event series is not recorded, and the SLO windows shrink to
//! smoke scale.

use crate::experiments::TapCost;
use crate::table::Table;
use hpf_core::{DataArrayLayout, RowwiseCsr};
use hpf_machine::{CostModel, FaultPlan, Machine, Topology};
use hpf_obs::{
    AlertState, AlertTransition, BenchRecord, EventBus, RegressionGate, SamplingPolicy, SloSpec,
    SloTracker, SpanProfile,
};
use hpf_service::{
    splitmix64, JobHandle, QosClass, ServiceConfig, ServiceError, SolveRequest, SolverService,
};
use hpf_solvers::{cg_distributed, StopCriterion};
use hpf_sparse::{gen, CsrMatrix};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one published event may cost the stream that carries it, in
/// nanoseconds of wall time (full scale): (on − off) / events published,
/// which also spreads the nine sampled-out operations' pre-filter calls
/// per kept one over it. The trial resolves this to about ±450 ns (5% of
/// a 0.18 s run over 22k events), so the budget is a ceiling.
pub const BUS_NS_PER_PUBLISHED_EVENT_BUDGET: f64 = 1500.0;

/// Run size: `HPF_E29_REQUESTS` if set, else 600 (the closed-loop
/// request count per overhead rep; also selects full-scale SLO windows
/// at >= 300).
pub fn default_requests() -> usize {
    std::env::var("HPF_E29_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(600)
}

/// E29 — telemetry pipeline, gated against the previous `BENCH_29.json`.
/// Tolerance is generous: the delay series are wall-clock hysteresis
/// timings, not simulated-clock quantities.
pub fn e29_telemetry(requests: usize) -> Table {
    let dir = std::env::var("HPF_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    e29_with_gate(requests, &RegressionGate::new(dir).with_tolerance(150.0))
}

/// The soak-shaped service config (E27's shape, minus the open loop).
fn service_config(bus: Option<&Arc<EventBus>>) -> ServiceConfig {
    let mut cfg = ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        np: 4,
        hang_timeout: Duration::from_millis(100),
        supervisor_poll: Duration::from_millis(10),
        breaker_threshold: 50,
        ..ServiceConfig::default()
    };
    if let Some(bus) = bus {
        cfg.event_sink = Some(bus.service_sink());
        cfg.machine_sink = Some(bus.machine_sink());
    }
    cfg
}

/// The interactive SLO at window scale `k` (1.0 = the soak defaults'
/// shape; smoke runs shrink every window so the full lifecycle still
/// plays out in seconds).
fn interactive_spec(k: f64) -> SloSpec {
    SloSpec {
        class: QosClass::Interactive,
        objective_latency_us: 250_000,
        error_budget: 0.05,
        slow_window_s: 4.0 * k,
        fast_window_s: 1.0 * k,
        burn_threshold: 2.0,
        pending_for_s: 0.4 * k,
        clear_for_s: 1.2 * k,
    }
}

/// Closed-loop chaos workload: `requests` mixed-structure solves, ~5%
/// carrying transient crash plans, 16 in flight. Returns the wall
/// seconds the batch took. Identical stream with or without the bus, so
/// the pair is a fair overhead comparison.
fn timed_closed_loop(
    requests: usize,
    mats: &[Arc<CsrMatrix>; 3],
    rhs: &[Vec<f64>],
    bus: Option<&Arc<EventBus>>,
) -> f64 {
    let service = SolverService::start(service_config(bus));
    let started = Instant::now();
    let mut done = 0usize;
    while done < requests {
        let chunk = (requests - done).min(16);
        let handles: Vec<JobHandle> = (0..chunk)
            .map(|j| {
                let i = done + j;
                let h = splitmix64(i as u64 ^ 0xE29);
                let s = i % 3;
                let mut req = SolveRequest::with_rhs_set(mats[s].clone(), vec![rhs[s].clone()]);
                if h & 0xFF < 13 {
                    let op = 20 + ((h >> 32) % 40) as usize;
                    req = req.fault_plan(FaultPlan::new().with_crash(op, ((h >> 40) % 4) as usize));
                }
                service.submit(req).expect("closed loop fits the queue")
            })
            .collect();
        for h in handles {
            // Transient chaos may fail a job; both sides of the
            // comparison see the same stream, so that is fair game.
            let _ = h.wait();
        }
        if let Some(bus) = bus {
            // A real consumer: the bus must be drained, not just fed.
            bus.drain();
        }
        done += chunk;
    }
    let wall = started.elapsed().as_secs_f64();
    service.shutdown();
    wall
}

/// The live consumer side of the soak: drains the bus into the JSONL
/// artifact, the SLO tracker, and the span profile, then advances the
/// alert state machines.
struct Pipeline {
    bus: Arc<EventBus>,
    slo: SloTracker,
    profile: SpanProfile,
    jsonl: String,
    transitions: Vec<AlertTransition>,
    events: u64,
}

impl Pipeline {
    fn pump(&mut self, now_s: f64) {
        for e in self.bus.drain() {
            self.jsonl.push_str(&e.to_jsonl());
            self.jsonl.push('\n');
            self.slo.observe_bus_event(&e);
            self.profile.record_bus_event(&e);
            self.events += 1;
        }
        self.transitions.extend(self.slo.evaluate(now_s));
    }
}

/// E29 with an explicit gate (tests point this at a scratch directory).
pub fn e29_with_gate(requests: usize, gate: &RegressionGate) -> Table {
    let mut t = Table::new(
        "E29",
        format!("live telemetry: bus overhead, SLO alerting, span profiling ({requests} req)"),
        &["stage", "seconds", "detail"],
    );
    let artifact_dir = gate
        .baseline_path(29)
        .parent()
        .expect("gate path has a directory")
        .to_path_buf();
    std::fs::create_dir_all(&artifact_dir).expect("artifact dir");

    // Soak-scale problems: the overhead claim is about the chaos-soak
    // workload, so the closed loop must solve systems big enough that
    // the tap's fixed per-operation cost competes with real arithmetic,
    // not with bookkeeping (tiny systems would overstate the overhead
    // of *any* tap by an order of magnitude).
    let mats: [Arc<CsrMatrix>; 3] = [
        Arc::new(gen::banded_spd(512, 2, 27)),
        Arc::new(gen::power_law_spd(512, 10, 0.9, 27)),
        Arc::new(gen::poisson_2d(32, 32)),
    ];
    let rhs: Vec<Vec<f64>> = mats
        .iter()
        .map(|a| gen::rhs_for_known_solution(a).0)
        .collect();

    // ------------------------------------------------------------------
    // Phase A — cost: best closed-loop wall clock of alternating reps,
    // bus off vs bus on (both taps, sampling at the default 10%,
    // consumer active).
    let full_scale = requests >= 300;
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let mut published = 0u64;
    for _ in 0..TapCost::reps(full_scale) {
        best_off = best_off.min(timed_closed_loop(requests, &mats, &rhs, None));
        let bus = EventBus::new(1 << 15, SamplingPolicy::with_rate(0.1));
        best_on = best_on.min(timed_closed_loop(requests, &mats, &rhs, Some(&bus)));
        published = published.max(bus.stats().published);
    }
    let cost = TapCost::new(best_off, best_on, requests, published);
    if full_scale {
        cost.assert_within(
            "bus",
            gate,
            29,
            "telemetry/bus_on_us_per_request",
            BUS_NS_PER_PUBLISHED_EVENT_BUDGET,
        );
    }
    t.row(vec![
        "overhead-off".into(),
        format!("{best_off:.3}"),
        format!(
            "{requests} closed-loop chaos solves, no bus ({:.0} us/request)",
            cost.off_us_per_request
        ),
    ]);
    t.row(vec![
        "overhead-on".into(),
        format!("{best_on:.3}"),
        format!(
            "same stream, both taps + drain: {:.0} us/request, {:+.0} ns per event \
             over {published} published ({:+.2}%)",
            cost.on_us_per_request,
            cost.ns_per_event,
            cost.overhead_pct()
        ),
    ]);

    // ------------------------------------------------------------------
    // Phase B — the observed soak: normal load, injected overload,
    // recovery; the SLO tracker sees only what crosses the bus.
    let k = if requests >= 300 { 1.0 } else { 0.35 };
    let epoch = Instant::now();
    let bus = EventBus::new(1 << 16, SamplingPolicy::with_rate(0.25));
    let mut pipe = Pipeline {
        bus: bus.clone(),
        slo: SloTracker::new(vec![interactive_spec(k), SloSpec::batch_soak()]),
        profile: SpanProfile::new(),
        jsonl: String::new(),
        transitions: Vec::new(),
        events: 0,
    };
    let service = SolverService::start(service_config(Some(&bus)));
    let now = || epoch.elapsed().as_secs_f64();
    // Big enough that matvec's broadcast out-costs the dot-product
    // allreduce on the simulated clock (the paper's regime), small
    // enough that a solve stays milliseconds of wall time.
    let soak_mat = Arc::new(gen::poisson_2d(32, 32));
    let soak_rhs = gen::rhs_for_known_solution(&soak_mat).0;
    let good_request = || {
        SolveRequest::with_rhs_set(soak_mat.clone(), vec![soak_rhs.clone()])
            .qos(QosClass::Interactive)
            .deadline(Duration::from_secs(2))
    };

    // Normal phase: clean interactive traffic, plus one scripted stall
    // (a kill mid-phase is a blip the hysteresis must NOT page on).
    let normal_start = now();
    let normal_end = normal_start + 1.2 * k;
    let mut stall_sent = false;
    let mut good = 0u64;
    while now() < normal_end {
        if !stall_sent {
            stall_sent = true;
            let req = SolveRequest::with_rhs_set(mats[0].clone(), vec![rhs[0].clone()])
                .qos(QosClass::Batch)
                .fault_plan(FaultPlan::new().with_stall(30, 0, 120));
            if let Ok(h) = service.submit(req) {
                let _ = h.wait();
            }
        }
        if let Ok(h) = service.submit(good_request()) {
            good += u64::from(h.wait().is_ok());
        }
        pipe.pump(now());
    }

    // Overload phase: hopeless microsecond deadlines, shed at the door.
    let overload_start = now();
    let overload_end = overload_start + 2.0 * k;
    let mut sheds = 0u64;
    while now() < overload_end {
        let req = good_request().deadline(Duration::from_micros(20));
        match service.submit(req) {
            Err(ServiceError::Shed { .. }) => sheds += 1,
            Ok(h) => {
                let _ = h.wait();
            }
            Err(_) => {}
        }
        pipe.pump(now());
        std::thread::sleep(Duration::from_millis(1));
    }

    // Recovery phase: clean traffic until the alert resolves (bounded
    // by slow window + clear hysteresis + slack).
    let recovery_start = now();
    let recovery_deadline = recovery_start + (4.0 + 1.2 + 2.5) * k;
    while now() < recovery_deadline {
        if let Ok(h) = service.submit(good_request()) {
            good += u64::from(h.wait().is_ok());
        }
        pipe.pump(now());
        if pipe
            .transitions
            .iter()
            .any(|tr| tr.to == AlertState::Resolved)
        {
            break;
        }
    }
    let soak_end = now();
    let m = service.shutdown();
    pipe.pump(now());
    let stats = bus.stats();

    // ------------------------------------------------------------------
    // The alerting ledger: the full lifecycle, in order, and only when
    // the injected overload justified it.
    assert!(sheds >= 50, "overload must shed at the door (got {sheds})");
    assert!(good >= 20, "clean phases must complete work (got {good})");
    assert!(
        m.supervisor_kills >= 1,
        "the scripted stall must trip the supervisor"
    );
    let trs = &pipe.transitions;
    assert!(
        trs.iter().all(|tr| tr.class == QosClass::Interactive),
        "only the interactive SLO may page: {trs:?}"
    );
    assert!(
        trs.iter().all(|tr| tr.at_s >= overload_start - 0.05),
        "no alert activity before the overload begins: {trs:?}"
    );
    let pending = trs
        .iter()
        .find(|tr| tr.to == AlertState::Pending)
        .expect("breach must open a pending alert");
    let firing = trs
        .iter()
        .find(|tr| tr.to == AlertState::Firing)
        .expect("sustained breach must fire");
    let resolved = trs
        .iter()
        .find(|tr| tr.to == AlertState::Resolved)
        .unwrap_or_else(|| panic!("alert must resolve after recovery: {trs:?}"));
    assert!(
        firing.at_s >= overload_start && firing.at_s <= overload_end + 0.2 * k,
        "alert must fire during the injected overload \
         (fired {:.2}s, overload {overload_start:.2}..{overload_end:.2}s)",
        firing.at_s
    );
    assert!(
        pending.at_s <= firing.at_s && firing.at_s < resolved.at_s,
        "lifecycle order pending -> firing -> resolved: {trs:?}"
    );
    assert!(
        resolved.at_s >= recovery_start,
        "alert may only resolve after recovery starts \
         (resolved {:.2}s, recovery from {recovery_start:.2}s)",
        resolved.at_s
    );
    let firing_delay = firing.at_s - overload_start;
    let resolve_delay = resolved.at_s - recovery_start;
    let flaps = trs.len().saturating_sub(3) as f64;

    // ------------------------------------------------------------------
    // Phase C — profiling. The live profile (bus-fed) and a post-hoc
    // traced solve of the same workload must both name matvec hottest.
    assert!(pipe.events > 0 && !pipe.profile.is_empty());
    let live_top = pipe.profile.top_k(1)[0].clone();
    assert!(
        live_top.stack.contains("matvec"),
        "live profile's hot span must be matvec, got {}",
        live_top.stack
    );
    let flame = pipe.profile.collapsed();
    for line in flame.lines() {
        let (_, v) = line.rsplit_once(' ').expect("frames <value>");
        v.parse::<u64>().expect("integer microseconds");
    }

    let a = gen::poisson_2d(48, 48);
    let (b, _) = gen::rhs_for_known_solution(&a);
    let op = RowwiseCsr::block(a, 4, DataArrayLayout::RowAligned);
    let mut machine = Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
    machine.set_tracing(true);
    let (_, solve_stats) = cg_distributed(
        &mut machine,
        &op,
        &b,
        StopCriterion::RelativeResidual(1e-8),
        500,
    )
    .expect("traced CG solve");
    assert!(solve_stats.converged);
    let posthoc = SpanProfile::from_trace(machine.trace());
    assert!(
        posthoc.top_k(1)[0].stack.contains("matvec"),
        "post-hoc profile's hot span must be matvec, got {}",
        posthoc.top_k(1)[0].stack
    );

    for (name, content) in [
        ("e29_bus.jsonl", pipe.jsonl.as_str()),
        ("e29_flame.txt", flame.as_str()),
        ("e29_trace.jsonl", &machine.trace().to_jsonl()),
    ] {
        let path = artifact_dir.join(name);
        std::fs::write(&path, content)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }

    t.row(vec![
        "soak-normal".into(),
        format!("{:.2}", overload_start - normal_start),
        format!("{good} clean completions so far, 1 scripted stall (no page)"),
    ]);
    t.row(vec![
        "soak-overload".into(),
        format!("{:.2}", recovery_start - overload_start),
        format!("{sheds} sheds; fired {firing_delay:.2}s after breach"),
    ]);
    t.row(vec![
        "soak-recovery".into(),
        format!("{:.2}", soak_end - recovery_start),
        format!("resolved {resolve_delay:.2}s into recovery"),
    ]);

    let drop_pct = 100.0 * stats.dropped as f64 / (stats.published as f64).max(1.0);
    let mut record = BenchRecord::new(29, "e29-telemetry");
    record.push("telemetry/overhead_ratio", cost.ratio);
    record.push("telemetry/bus_drop_pct", drop_pct);
    record.push("telemetry/firing_delay_s", firing_delay);
    record.push("telemetry/resolve_delay_s", resolve_delay);
    record.push("telemetry/alert_flaps", flaps);
    record.push("telemetry/bus_on_us_per_request", cost.on_us_per_request);
    record.push("telemetry/bus_off_us_per_request", cost.off_us_per_request);
    let outcome = gate
        .check(&record)
        .unwrap_or_else(|e| panic!("E29 bench gate: {e}"));
    if full_scale {
        // The difference of two wall times over ~20k events: near zero
        // and as large as its own noise, so recorded, not judged as a
        // percentage of its last value.
        record.push("telemetry/bus_ns_per_published_event", cost.ns_per_event);
    }
    gate.record(&record)
        .unwrap_or_else(|e| panic!("E29 bench gate: {e}"));

    t.note(format!(
        "bus: {} published, {} sampled out, {} dropped ({drop_pct:.3}%); {} events consumed",
        stats.published, stats.sampled_out, stats.dropped, pipe.events
    ));
    t.note(format!(
        "hot span (live): {} ({:.1} us over {} events)",
        live_top.stack,
        live_top.self_s * 1e6,
        live_top.events
    ));
    t.note(format!(
        "alerts: {} transition(s); pending {:.2}s, firing {:.2}s, resolved {:.2}s on the bus clock",
        trs.len(),
        pending.at_s,
        firing.at_s,
        resolved.at_s
    ));
    t.note(if outcome.compared {
        format!(
            "regression gate: PASS vs previous {} ({} series compared, tolerance {}%)",
            outcome.baseline_path.display(),
            outcome.series_compared,
            gate.max_regression_pct
        )
    } else {
        format!(
            "regression gate: first run, baseline written to {}",
            outcome.baseline_path.display()
        )
    });
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e29_smoke_walks_the_full_alert_lifecycle() {
        let dir = std::env::temp_dir().join(format!("hpf-e29-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let gate = RegressionGate::new(&dir).with_tolerance(150.0);
        // Below the 300-request threshold: smoke-scale SLO windows and
        // no wall-clock overhead assertion, but the lifecycle, the
        // profile, and every artifact are still asserted.
        let t = e29_with_gate(120, &gate);
        assert_eq!(t.rows.len(), 5);
        assert!(gate.baseline_path(29).exists());
        for artifact in ["e29_bus.jsonl", "e29_flame.txt", "e29_trace.jsonl"] {
            assert!(dir.join(artifact).exists(), "{artifact} must be written");
        }
        // The bus artifact replays: every line is a valid BusEvent.
        let text = std::fs::read_to_string(dir.join("e29_bus.jsonl")).unwrap();
        assert!(text.lines().count() > 0);
        for line in text.lines() {
            hpf_obs::BusEvent::from_jsonl(line).expect("bus artifact line");
        }
        assert!(t.notes.iter().any(|n| n.contains("hot span")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
