//! E30: flight recorder + root-cause attribution — recorder overhead,
//! chaos attribution accuracy, and dump exactness, all asserted.
//!
//! E29 proves an operator can *watch* the service; E30 proves that when
//! a solve goes wrong the service can *explain itself*. Three claims:
//!
//! 1. **Cost** — an unobserved request pays nothing for the recorder;
//!    an observed one pays per event. The evidence each worker keeps of
//!    the job in hand (its machine's tail, the lifecycle list and the
//!    residual series, asked for by the one hook
//!    [`hpf_obs::FlightRecorder::install`] sets) is timed on a clean
//!    closed-loop workload against the identical stream with the
//!    recorder off, and stated three ways: wall time per request with
//!    the recorder on (`rca/recorder_on_us_per_request`, which must not
//!    exceed the committed baseline's), the difference spread over the
//!    machine events kept (`rca/recorder_ns_per_event`, budget
//!    [`RECORDER_NS_PER_EVENT_BUDGET`]; the count is each job's, added
//!    at hand-over), and the on/off ratio. The ratio
//!    is printed and recorded but no longer the rule: since the worker
//!    stopped keeping a full trace, the recorder-off side builds no
//!    events at all, so the ratio's denominator fell and the recorder's
//!    whole marginal cost shows in it. A clean job's evidence is lent
//!    and not copied, so the steady-state cost is the tail writes, not
//!    the dumps.
//! 2. **Attribution** — a seeded chaos sweep (stall / crash / bit-flip
//!    storm fault plans, retries disabled so every injected fault
//!    surfaces as a terminal outcome) ends with the top-ranked
//!    [`RootCause`] naming the injected fault class on >= 90% of the
//!    bad-outcome jobs.
//! 3. **Exactness** — every kill / exhaustion / divergence (any outcome
//!    with a dump trigger) yields exactly one post-mortem: no job dumps
//!    twice, no bad job goes missing, and no clean job dumps at all.
//!
//! Artifacts land next to the gate's `BENCH_30.json`:
//! `e30_postmortems.json` (the `/postmortems` index), `e30_postmortem.json`
//! (one full dump — `trace-report --format postmortem|explain` consumes
//! it), and `e30_trace.jsonl` (a clean machine trace the explain mode
//! must *refuse*, pinning the CLI's nonzero exit on non-dumps). Set
//! `HPF_E30_REQUESTS` to resize the run; below 300 requests the
//! wall-clock-noise-sensitive cost rules are reported but not asserted,
//! the per-event series is not recorded, and the chaos sweep shrinks to
//! smoke scale.

use crate::experiments::TapCost;
use crate::table::Table;
use hpf_core::{DataArrayLayout, RowwiseCsr};
use hpf_machine::{CostModel, FaultPlan, Machine, Topology};
use hpf_obs::{BenchRecord, FlightRecorder, FlightRecorderConfig, RegressionGate, Trigger};
use hpf_service::{splitmix64, JobHandle, ServiceConfig, SolveRequest, SolverService};
use hpf_solvers::{cg_distributed, RecoveryConfig, StopCriterion};
use hpf_sparse::{gen, CsrMatrix};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one machine event kept may cost the request that carries it, in
/// nanoseconds of wall time (full scale): (on − off) / events kept. The
/// trial resolves this to about ±60 ns (5% of a 0.35 s run over 280k
/// events), so the budget is a ceiling, not a target.
pub const RECORDER_NS_PER_EVENT_BUDGET: f64 = 150.0;

/// Run size: `HPF_E30_REQUESTS` if set, else 600 (the closed-loop
/// request count per overhead rep; also selects the full-scale chaos
/// sweep at >= 300).
pub fn default_requests() -> usize {
    std::env::var("HPF_E30_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(600)
}

/// E30 — flight recorder + RCA, gated against the previous
/// `BENCH_30.json`. Tolerance is generous: the overhead series is a
/// wall-clock ratio measured on whatever hardware CI hands us, and the
/// chaos sweep's latency-shaped series ride on supervisor timing.
pub fn e30_rca(requests: usize) -> Table {
    let dir = std::env::var("HPF_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    e30_with_gate(requests, &RegressionGate::new(dir).with_tolerance(150.0))
}

/// The soak-shaped service config (E29's shape). `recorder` becomes its
/// evidence hook through [`FlightRecorder::install`].
fn service_config(recorder: Option<&Arc<FlightRecorder>>) -> ServiceConfig {
    let mut cfg = ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        np: 4,
        hang_timeout: Duration::from_millis(100),
        supervisor_poll: Duration::from_millis(10),
        // The chaos sweep hammers one fingerprint on purpose; the
        // breaker must not turn injected faults into refusals.
        breaker_threshold: 1000,
        ..ServiceConfig::default()
    };
    if let Some(fr) = recorder {
        fr.install(&mut cfg);
    }
    cfg
}

/// Clean closed-loop workload: `requests` mixed-structure solves, no
/// fault plans, 16 in flight. Identical stream with or without the
/// recorder, so the pair is a fair overhead comparison.
fn timed_closed_loop(
    requests: usize,
    mats: &[Arc<CsrMatrix>; 3],
    rhs: &[Vec<f64>],
    recorder: Option<&Arc<FlightRecorder>>,
) -> f64 {
    let service = SolverService::start(service_config(recorder));
    let started = Instant::now();
    let mut done = 0usize;
    while done < requests {
        let chunk = (requests - done).min(16);
        let handles: Vec<JobHandle> = (0..chunk)
            .map(|j| {
                let i = done + j;
                let s = i % 3;
                let req = SolveRequest::with_rhs_set(mats[s].clone(), vec![rhs[s].clone()]);
                service.submit(req).expect("closed loop fits the queue")
            })
            .collect();
        for h in handles {
            h.wait().expect("clean workload must solve");
        }
        done += chunk;
    }
    let wall = started.elapsed().as_secs_f64();
    service.shutdown();
    wall
}

/// E30 with an explicit gate (tests point this at a scratch directory).
pub fn e30_with_gate(requests: usize, gate: &RegressionGate) -> Table {
    let mut t = Table::new(
        "E30",
        format!(
            "flight recorder: overhead, root-cause attribution, dump exactness ({requests} req)"
        ),
        &["stage", "value", "detail"],
    );
    let artifact_dir = gate
        .baseline_path(30)
        .parent()
        .expect("gate path has a directory")
        .to_path_buf();
    std::fs::create_dir_all(&artifact_dir).expect("artifact dir");

    // Soak-scale problems (E29's reasoning: tiny systems would
    // overstate any tap's fixed per-operation cost; the recorder's
    // ~45ns/event budget is judged against ops that carry a realistic
    // amount of local arithmetic).
    let mats: [Arc<CsrMatrix>; 3] = [
        Arc::new(gen::banded_spd(1024, 2, 27)),
        Arc::new(gen::power_law_spd(1024, 10, 0.9, 27)),
        Arc::new(gen::poisson_2d(40, 40)),
    ];
    let rhs: Vec<Vec<f64>> = mats
        .iter()
        .map(|a| gen::rhs_for_known_solution(a).0)
        .collect();

    // ------------------------------------------------------------------
    // Phase A — cost: best clean closed-loop wall clock of alternating
    // reps, recorder off vs recorder on (every worker keeping its tails
    // and lending them at each job's end, nothing ever dumps).
    let full_scale = requests >= 300;
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let mut clean_recorded = 0u64;
    for _ in 0..TapCost::reps(full_scale) {
        best_off = best_off.min(timed_closed_loop(requests, &mats, &rhs, None));
        let fr = FlightRecorder::new(FlightRecorderConfig::default());
        best_on = best_on.min(timed_closed_loop(requests, &mats, &rhs, Some(&fr)));
        clean_recorded = clean_recorded.max(fr.machine_events());
        assert_eq!(
            fr.dumps(),
            0,
            "a clean workload must never trigger a post-mortem"
        );
        assert_eq!(
            fr.retained_traces(),
            0,
            "a clean job must leave nothing behind in the recorder"
        );
    }
    assert!(
        clean_recorded > 0,
        "the recorder-on side must actually record machine events"
    );
    let cost = TapCost::new(best_off, best_on, requests, clean_recorded);
    if full_scale {
        cost.assert_within(
            "recorder",
            gate,
            30,
            "rca/recorder_on_us_per_request",
            RECORDER_NS_PER_EVENT_BUDGET,
        );
    }
    t.row(vec![
        "overhead-off".into(),
        format!("{best_off:.3}s"),
        format!(
            "{requests} clean closed-loop solves, recorder off ({:.0} us/request)",
            cost.off_us_per_request
        ),
    ]);
    t.row(vec![
        "overhead-on".into(),
        format!("{best_on:.3}s"),
        format!(
            "same stream, every job's evidence kept: {:.0} us/request, {:+.0} ns per event \
             over {clean_recorded} events kept (ratio {:+.2}%)",
            cost.on_us_per_request,
            cost.ns_per_event,
            cost.overhead_pct()
        ),
    ]);

    // ------------------------------------------------------------------
    // Phase B — seeded chaos sweep. Retries off and recovery headroom
    // zero: the protected solver still *detects* every fault (checkpoint
    // ring, residual-jump checks), but its first rollback is terminal,
    // so crashes and bit-flip storms surface as `recovery-exhausted`
    // instead of being silently absorbed, and the recorder must (a)
    // dump each bad job exactly once and (b) rank the injected fault
    // class first.
    let fr = FlightRecorder::new(FlightRecorderConfig::default());
    let mut cfg = service_config(Some(&fr));
    cfg.max_attempts = 1;
    cfg.recovery = Some(RecoveryConfig { max_rollbacks: 0 });
    let service = SolverService::start(cfg);
    let chaos_mat = Arc::new(gen::poisson_2d(24, 24));
    let chaos_rhs = gen::rhs_for_known_solution(&chaos_mat).0;

    let per_kind = if requests >= 300 { 8 } else { 4 };
    let kinds = ["stall", "crash", "bitflip"];
    // (trace id, injected kind, terminal outcome tag) per chaos job.
    let mut jobs: Vec<(u64, &str, &'static str)> = Vec::new();
    for i in 0..per_kind * kinds.len() {
        let kind = kinds[i % kinds.len()];
        let trace = 0x00E3_0000u64 + i as u64 + 1;
        let h = splitmix64(i as u64 ^ 0xE30);
        let op = 10 + (h % 30) as usize;
        let proc = ((h >> 8) % 4) as usize;
        let plan = match kind {
            // Longer than the 100ms hang timeout: the supervisor must
            // kill the worker mid-stall.
            "stall" => FaultPlan::new().with_stall(op, proc, 150),
            "crash" => FaultPlan::new().with_crash(op, proc),
            // A storm of high-bit flips: recovery (if any survives the
            // single attempt) cannot absorb them all.
            _ => {
                let mut p = FaultPlan::new();
                for k in 0..6 {
                    p = p.with_bit_flip(op + 7 * k, proc, 62, 0);
                }
                p
            }
        };
        let req = SolveRequest::with_rhs_set(chaos_mat.clone(), vec![chaos_rhs.clone()])
            .trace(trace)
            .fault_plan(plan);
        let outcome = match service
            .submit(req)
            .expect("chaos job fits the queue")
            .wait()
        {
            Ok(_) => "ok",
            Err(e) => e.outcome(),
        };
        jobs.push((trace, kind, outcome));
    }

    // Clean control jobs through the same recorder: none may dump.
    let clean_traces: Vec<u64> = (0..6).map(|i| 0x00E4_0000u64 + i as u64 + 1).collect();
    for &trace in &clean_traces {
        let req =
            SolveRequest::with_rhs_set(chaos_mat.clone(), vec![chaos_rhs.clone()]).trace(trace);
        service
            .submit(req)
            .expect("control job fits the queue")
            .wait()
            .expect("control job must solve");
    }
    let m = service.shutdown();

    // ------------------------------------------------------------------
    // The exactness + attribution ledger.
    let mut bad = 0usize;
    let mut matched = 0usize;
    let mut conf_sum = 0.0f64;
    let mut verdicts: Vec<(String, &str)> = Vec::new();
    for (trace, kind, outcome) in &jobs {
        let key = format!("{trace:016x}");
        if Trigger::from_outcome(outcome).is_some() {
            bad += 1;
            let pm = fr.get(&key).unwrap_or_else(|| {
                panic!("bad job {key} ({kind}, outcome {outcome}) must have a post-mortem")
            });
            let top = pm.top_verdict().name().to_string();
            if top == format!("fault-{kind}") {
                matched += 1;
                conf_sum += pm.causes.first().map(|c| c.confidence).unwrap_or(0.0);
            }
            verdicts.push((top, kind));
        } else {
            assert!(
                fr.get(&key).is_none(),
                "job {key} ({kind}) ended {outcome} — a non-trigger outcome must not dump"
            );
        }
    }
    for &trace in &clean_traces {
        assert!(
            fr.get(&format!("{trace:016x}")).is_none(),
            "clean control job {trace:#x} must not dump"
        );
    }
    assert!(
        jobs.iter()
            .filter(|(_, k, _)| *k == "stall")
            .all(|(_, _, o)| Trigger::from_outcome(o).is_some()),
        "every stall must end badly (supervisor kill): {jobs:?}"
    );
    assert!(
        m.supervisor_kills >= per_kind as u64,
        "each stall must trip the supervisor (kills {}, stalls {per_kind})",
        m.supervisor_kills
    );
    assert_eq!(
        fr.dumps(),
        bad as u64,
        "exactly one post-mortem per bad-outcome job (no dupes, no misses)"
    );
    let dump_keys: std::collections::HashSet<String> =
        fr.postmortems().iter().map(|pm| pm.key.clone()).collect();
    assert_eq!(
        dump_keys.len() as u64,
        fr.dumps(),
        "post-mortem keys must be unique"
    );
    let match_rate = matched as f64 / bad.max(1) as f64;
    assert_eq!(
        bad,
        jobs.len(),
        "zero recovery headroom + no retries: every chaos job must end \
         badly: {jobs:?}"
    );
    assert!(
        match_rate >= 0.9,
        "top-ranked cause must name the injected fault class on >= 90% of \
         bad jobs (got {matched}/{bad}): {verdicts:?}"
    );
    let mean_conf = if matched > 0 {
        conf_sum / matched as f64
    } else {
        0.0
    };
    t.row(vec![
        "chaos-sweep".into(),
        format!("{matched}/{bad}"),
        format!(
            "top cause matches injected class ({:.0}% >= 90%), mean confidence {mean_conf:.2}",
            100.0 * match_rate
        ),
    ]);
    t.row(vec![
        "clean-control".into(),
        format!("{}", clean_traces.len()),
        "clean jobs through the same recorder: zero dumps".into(),
    ]);

    // ------------------------------------------------------------------
    // Artifacts: the /postmortems index, one full dump (the CLI's
    // postmortem/explain input), and a clean trace explain must refuse.
    let first = fr
        .postmortems()
        .into_iter()
        .min_by_key(|pm| pm.seq)
        .expect("the sweep produced at least one dump");
    let a = gen::poisson_2d(16, 16);
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
    .expect("traced clean solve");
    assert!(solve_stats.converged);
    for (name, content) in [
        ("e30_postmortems.json", fr.index_json()),
        ("e30_postmortem.json", first.to_json()),
        ("e30_trace.jsonl", machine.trace().to_jsonl()),
    ] {
        let path = artifact_dir.join(name);
        std::fs::write(&path, content)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
    // The dump artifact round-trips through the summary parser the CLI
    // and the HTTP scrape both use.
    let summary = hpf_obs::postmortem_summary_from_json(&first.to_json())
        .expect("dump artifact parses as a post-mortem");
    assert_eq!(summary.trace, first.key);

    let mut histogram: Vec<(String, usize)> = Vec::new();
    for (v, _) in &verdicts {
        match histogram.iter_mut().find(|(name, _)| name == v) {
            Some((_, n)) => *n += 1,
            None => histogram.push((v.clone(), 1)),
        }
    }
    let mut record = BenchRecord::new(30, "e30-rca");
    record.push("rca/overhead_ratio", cost.ratio);
    record.push("rca/match_rate", match_rate);
    record.push("rca/dumps", fr.dumps() as f64);
    record.push("rca/mean_top_confidence", mean_conf);
    record.push("rca/recorder_on_us_per_request", cost.on_us_per_request);
    record.push("rca/recorder_off_us_per_request", cost.off_us_per_request);
    let outcome = gate
        .check(&record)
        .unwrap_or_else(|e| panic!("E30 bench gate: {e}"));
    if full_scale {
        // Near zero and as large as its own noise: judged against its
        // budget above, not as a percentage of its last value.
        record.push("rca/recorder_ns_per_event", cost.ns_per_event);
    }
    gate.record(&record)
        .unwrap_or_else(|e| panic!("E30 bench gate: {e}"));

    t.note(format!(
        "verdicts: {} ({} chaos jobs, {} ended badly, {} absorbed by recovery)",
        histogram
            .iter()
            .map(|(v, n)| format!("{v} x{n}"))
            .collect::<Vec<_>>()
            .join(", "),
        jobs.len(),
        bad,
        jobs.len() - bad
    ));
    t.note(format!("sample narrative: {}", first.narrative));
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
    fn e30_smoke_attributes_every_injected_fault_class() {
        let dir = std::env::temp_dir().join(format!("hpf-e30-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let gate = RegressionGate::new(&dir).with_tolerance(150.0);
        // Below the 300-request threshold: smoke-scale sweep and no
        // wall-clock overhead assertion, but attribution accuracy, dump
        // exactness, and every artifact are still asserted.
        let t = e30_with_gate(120, &gate);
        assert_eq!(t.rows.len(), 4);
        assert!(gate.baseline_path(30).exists());
        for artifact in [
            "e30_postmortems.json",
            "e30_postmortem.json",
            "e30_trace.jsonl",
        ] {
            assert!(dir.join(artifact).exists(), "{artifact} must be written");
        }
        let doc = std::fs::read_to_string(dir.join("e30_postmortem.json")).unwrap();
        let summary = hpf_obs::postmortem_summary_from_json(&doc).expect("artifact is a dump");
        assert!(summary.top_verdict.starts_with("fault-"));
        let index = std::fs::read_to_string(dir.join("e30_postmortems.json")).unwrap();
        hpf_obs::json::validate(&index).expect("index is strict JSON");
        assert!(index.contains(&summary.trace));
        // The clean trace is NOT a post-mortem: explain must refuse it.
        let clean = std::fs::read_to_string(dir.join("e30_trace.jsonl")).unwrap();
        assert!(hpf_obs::postmortem_summary_from_json(&clean).is_err());
        assert!(t.notes.iter().any(|n| n.contains("verdicts:")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
