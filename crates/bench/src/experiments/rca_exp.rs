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
//!    at hand-over), and the on/off ratio, printed and recorded only
//!    (the harness's `TapCost` says why). A clean job's evidence is lent and
//!    not copied, so the steady-state cost is the tail writes, not the
//!    dumps.
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
//! must *refuse*, pinning the CLI's nonzero exit on non-dumps).
//! `report` and `--example rca` size the run from `HPF_E30_REQUESTS`
//! (see [`super::Knobs`]); below 300 requests the
//! wall-clock-noise-sensitive cost rules are reported but not asserted,
//! the per-event series is not recorded, and the chaos sweep shrinks to
//! smoke scale.

use super::harness::{
    gate_note, soak_request, soak_structures, timed_loop, traced_clean_solve, write_artifact,
    TapCost,
};
use crate::table::Table;
use hpf_machine::FaultPlan;
use hpf_obs::{BenchRecord, FlightRecorder, FlightRecorderConfig, RegressionGate, Trigger};
use hpf_service::{splitmix64, ServiceConfig, SolverService};
use hpf_solvers::RecoveryConfig;
use hpf_sparse::gen;
use std::sync::Arc;
use std::time::Duration;

/// What one machine event kept may cost the request that carries it, in
/// nanoseconds of wall time (full scale): (on − off) / events kept. The
/// trial resolves this to about ±60 ns (5% of a 0.35 s run over 280k
/// events), so the budget is a ceiling, not a target.
pub const RECORDER_NS_PER_EVENT_BUDGET: f64 = 150.0;

/// The soak-shaped service config (E29's shape). `recorder` becomes its
/// evidence hook through [`FlightRecorder::install`]. The hang timeout is
/// the default: the clean loop measures the recorder, not hang detection,
/// and a slow phase of the host must not kill its jobs.
fn service_config(recorder: Option<&Arc<FlightRecorder>>) -> ServiceConfig {
    let mut cfg = ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        np: 4,
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

/// E30 — flight recorder + RCA over `requests` closed-loop requests a
/// rep, gated against the previous `BENCH_30.json` in `gate`'s
/// directory, beside which the artifacts land.
pub fn e30_with_gate(requests: usize, gate: &RegressionGate) -> Table {
    let mut t = Table::new(
        "E30",
        format!(
            "flight recorder: overhead, root-cause attribution, dump exactness ({requests} req)"
        ),
        &["stage", "value", "detail"],
    );

    // Soak-scale problems (E29's reasoning: tiny systems would
    // overstate any tap's fixed per-operation cost; the recorder's
    // ~45ns/event budget is judged against ops that carry a realistic
    // amount of local arithmetic).
    let structures = soak_structures(1024, 1024, 40);

    // ------------------------------------------------------------------
    // Phase A — cost: best clean closed-loop wall clock of alternating
    // reps, recorder off vs recorder on (every worker keeping its tails
    // and lending them at each job's end, nothing ever dumps). The
    // clean workload: mixed-structure solves, no fault plans; the
    // identical stream with or without the recorder, so the pair is a
    // fair overhead comparison.
    let full_scale = requests >= 300;
    let cost = TapCost::measure(full_scale, requests, |on| {
        let fr = on.then(|| FlightRecorder::new(FlightRecorderConfig::default()));
        let request = |i: usize| structures[i % 3].clone();
        let wall = timed_loop(service_config(fr.as_ref()), requests, request, |handles| {
            for h in handles {
                h.wait().expect("clean workload must solve");
            }
        });
        let Some(fr) = fr else { return (wall, 0) };
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
        (wall, fr.machine_events())
    });
    assert!(
        cost.events > 0,
        "the recorder-on side must actually record machine events"
    );
    cost.assert_within(
        "recorder",
        gate,
        30,
        "rca/recorder_on_us_per_request",
        RECORDER_NS_PER_EVENT_BUDGET,
    );
    t.row(vec![
        "overhead-off".into(),
        format!("{:.3}s", cost.best_off_s),
        format!(
            "{requests} clean closed-loop solves, recorder off ({:.0} us/request)",
            cost.off_us_per_request
        ),
    ]);
    t.row(vec![
        "overhead-on".into(),
        format!("{:.3}s", cost.best_on_s),
        format!(
            "same stream, every job's evidence kept: {:.0} us/request, {:+.0} ns per event \
             over {} events kept (ratio {:+.2}%)",
            cost.on_us_per_request,
            cost.ns_per_event,
            cost.events,
            100.0 * (cost.ratio - 1.0)
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
    cfg.hang_timeout = Duration::from_millis(100);
    cfg.max_attempts = 1;
    cfg.recovery = Some(RecoveryConfig { max_rollbacks: 0 });
    let service = SolverService::start(cfg);
    let chaos = soak_request(gen::poisson_2d(24, 24));

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
            // Longer than the 100ms hang timeout: the job must be
            // killed at the first clock reading after the stall.
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
        let req = chaos.clone().trace(trace).fault_plan(plan);
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
        service
            .submit(chaos.clone().trace(trace))
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
    let machine = traced_clean_solve(16);
    let dir = Some(gate.dir.as_path());
    write_artifact(dir, "e30_postmortems.json", &fr.index_json());
    write_artifact(dir, "e30_postmortem.json", &first.to_json());
    write_artifact(dir, "e30_trace.jsonl", &machine.trace().to_jsonl());
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
    let gated = gate_note(gate, record, cost.per_event("rca/recorder_ns_per_event"));

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
    t.note(gated);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::harness::scratch::Scratch;

    #[test]
    fn e30_smoke_attributes_every_injected_fault_class() {
        let dir = Scratch::new("e30");
        let gate = RegressionGate::new(&*dir).with_tolerance(150.0);
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
    }
}
