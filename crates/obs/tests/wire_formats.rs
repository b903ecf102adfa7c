//! The bytes of every exported document, pinned.
//!
//! The goldens under `crates/solvers/tests` hold `Trace::to_jsonl()` of
//! clean and faulted solves; nothing held the other writers (bus lines,
//! the metrics snapshot and its exposition, post-mortems and their
//! index, drift reports, the `/slo`, `/alerts` and `/healthz` bodies,
//! the admission audit, partition assessments, the Perfetto document,
//! bench records). This file does, so that a change to how JSON is
//! *written* cannot change what is written. Small documents are literal
//! fixtures; large ones are a length and an FNV-1a digest, and a
//! mismatch prints the recomputed document. Every constant was recorded
//! on `1ed495c`, the commit before the writers moved onto `hpf-json`; a
//! refactor may add tests here, never edit a constant.
//!
//! Each reader also round-trips its writer here (`from(to(x)) == x`).

use hpf_core::{DataArrayLayout, RowwiseCsr};
use hpf_machine::{CostModel, Event, EventKind, EventTail, FaultPlan, Machine, Topology, Trace};
use hpf_obs::bus::{BusEvent, BusOrigin};
use hpf_obs::rca::{summary_from_json, FlightRecorder, FlightRecorderConfig};
use hpf_obs::slo::{AlertState, AlertTransition, SloTracker};
use hpf_obs::timeline::Timeline;
use hpf_obs::{
    snapshot_from_json, trace_events_json, AdmissionAudit, BenchRecord, DriftReport, GateError,
};
use hpf_partition::PartitionAssessment;
use hpf_service::{
    JobEvidence, MetricsSnapshot, PostmortemCount, QosClass, ResidualTail, ServiceConfig,
    ServiceEvent, SolveOutcome, SolverService,
};
use hpf_solvers::{
    solve, IterObserver, IterSample, Krylov, NullObserver, RecoveryConfig, StopCriterion,
    TailObserver,
};
use hpf_sparse::gen;
use std::time::Duration;

/// FNV-1a, 64 bit.
fn fnv(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A large document against its recorded length and digest.
fn assert_pinned(what: &str, doc: &str, len: usize, digest: u64) {
    assert!(
        doc.len() == len && fnv(doc) == digest,
        "{what}: recorded ({len}, {digest:#018x}), now ({}, {:#018x}):\n{doc}",
        doc.len(),
        fnv(doc)
    );
}

/// A label with everything an escaper has to handle.
const AWKWARD: &str = "q\"b\\t\tn\nc\u{1}é";

/// Twelve protected-CG iterations at NP = 4 with one fault of each kind
/// planted, then a point-to-point message (`hops`) and an imbalanced
/// compute phase (`proc_times`) under an awkward span and label.
fn planted_trace() -> Trace {
    let a = gen::poisson_2d(8, 8);
    let (b, _) = gen::rhs_for_known_solution(&a);
    let op = RowwiseCsr::block(a, 4, DataArrayLayout::RowAligned);
    let mut m = Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
    m.set_tracing(true);
    m.set_fault_plan(
        FaultPlan::new()
            .with_bit_flip(9, 1, 52, 3)
            .with_straggler(14, 2, 3.0, 6)
            .with_message_drop(22, 0)
            .with_crash(31, 3),
    );
    let method = Krylov::Cg {
        precond: None,
        recovery: Some(RecoveryConfig::default()),
    };
    let stop = StopCriterion::RelativeResidual(1e-14);
    let _ = solve(&mut m, &op, &b, method, stop, 12, &mut NullObserver);
    {
        let _s = hpf_machine::span::enter(AWKWARD);
        m.send(0, 3, 17, AWKWARD);
        m.compute_all(&[10, 40, 20, 30], AWKWARD);
    }
    m.trace().clone()
}

#[test]
fn trace_jsonl() {
    let trace = planted_trace();
    let text = trace.to_jsonl();
    for kind in ["bitflip", "straggler", "drop", "crash"] {
        assert!(
            text.contains(&format!("\"label\":\"fault:{kind}:")),
            "no {kind} fault in the trace"
        );
    }
    assert!(text.contains("/iter=11/"), "fewer than twelve iterations");
    assert!(text.contains("\"proc_times\":["));
    assert_pinned("trace", &text, TRACE_LEN, TRACE_DIGEST);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[lines.len() - 2], TRACE_SEND_LINE);
    assert_eq!(lines[lines.len() - 1], TRACE_COMPUTE_LINE);

    let back = Trace::from_jsonl(&text).expect("the reader takes what the writer wrote");
    assert_eq!(
        format!("{:?}", back.events()),
        format!("{:?}", trace.events())
    );
    assert_eq!(back.to_jsonl(), text);
}

const TRACE_LEN: usize = 29619;
const TRACE_DIGEST: u64 = 0x0d4658ceb12839f9;
const TRACE_SEND_LINE: &str = "{\"kind\":\"send\",\"participants\":4,\"words\":17,\"flops\":0,\"time\":0.0002085,\"start\":0.036500720000000146,\"span\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"label\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"payload_words\":17,\"hops\":2}";
const TRACE_COMPUTE_LINE: &str = "{\"kind\":\"compute\",\"participants\":4,\"words\":0,\"flops\":100,\"time\":0.0000008,\"start\":0.036500720000000146,\"span\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"label\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"proc_times\":[0.0000002,0.0000008,0.0000004,0.0000006]}";

/// Non-finite times are written as `null` and read back as NaN.
#[test]
fn trace_jsonl_nonfinite_times() {
    let mut trace = Trace::new();
    trace.record(Event {
        kind: EventKind::Compute,
        participants: 2,
        words: 0,
        flops: 8,
        time: f64::INFINITY,
        start: f64::NAN,
        span: String::new(),
        label: "nan".into(),
        proc_times: vec![0.5, f64::NAN],
        payload_words: 0,
        hops: 0,
    });
    let text = trace.to_jsonl();
    assert_eq!(text, TRACE_NONFINITE);
    let back = Trace::from_jsonl(&text).unwrap();
    let e = &back.events()[0];
    assert!(e.time.is_nan() && e.start.is_nan() && e.proc_times[1].is_nan());
    assert_eq!(e.proc_times[0], 0.5);
}

const TRACE_NONFINITE: &str = "{\"kind\":\"compute\",\"participants\":2,\"words\":0,\"flops\":8,\"time\":null,\"start\":null,\"span\":\"\",\"label\":\"nan\",\"proc_times\":[0.5,null]}\n";

fn bus_event() -> BusEvent {
    BusEvent {
        seq: 42,
        wall_s: 0.25,
        origin: BusOrigin::Machine,
        kind: "AllReduce".into(),
        trace_id: 0xdead_beef,
        class: String::new(),
        span: format!("trace=00000000deadbeef/solve/{AWKWARD}"),
        label: AWKWARD.into(),
        time_s: 1.5e-4,
        latency_us: 0,
        ok: true,
        outcome: String::new(),
    }
}

fn bus_completed() -> BusEvent {
    BusEvent {
        seq: u64::MAX,
        wall_s: 3.0,
        origin: BusOrigin::Service,
        kind: "completed".into(),
        trace_id: 7,
        class: "interactive".into(),
        span: String::new(),
        label: String::new(),
        time_s: 0.0,
        latency_us: 1234,
        ok: false,
        outcome: "worker-killed".into(),
    }
}

#[test]
fn bus_jsonl() {
    let plain = bus_event();
    let completed = bus_completed();
    assert_eq!(plain.to_jsonl(), BUS_PLAIN);
    assert_eq!(completed.to_jsonl(), BUS_COMPLETED);
    let mut nan = bus_completed();
    nan.wall_s = f64::NAN;
    assert_eq!(nan.to_jsonl(), BUS_NAN_WALL);
    for e in [plain, completed] {
        assert_eq!(BusEvent::from_jsonl(&e.to_jsonl()).unwrap(), e);
    }
}

const BUS_PLAIN: &str = "{\"seq\":42,\"wall_s\":0.25,\"origin\":\"machine\",\"kind\":\"AllReduce\",\"trace\":\"00000000deadbeef\",\"class\":\"\",\"span\":\"trace=00000000deadbeef/solve/q\\\"b\\\\t\\tn\\nc\\u0001é\",\"label\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"time_s\":0.00015,\"latency_us\":0,\"ok\":true}";
const BUS_COMPLETED: &str = "{\"seq\":18446744073709551615,\"wall_s\":3,\"origin\":\"service\",\"kind\":\"completed\",\"trace\":\"0000000000000007\",\"class\":\"interactive\",\"span\":\"\",\"label\":\"\",\"time_s\":0,\"latency_us\":1234,\"ok\":false,\"outcome\":\"worker-killed\"}";
const BUS_NAN_WALL: &str = "{\"seq\":18446744073709551615,\"wall_s\":null,\"origin\":\"service\",\"kind\":\"completed\",\"trace\":\"0000000000000007\",\"class\":\"interactive\",\"span\":\"\",\"label\":\"\",\"time_s\":0,\"latency_us\":1234,\"ok\":false,\"outcome\":\"worker-killed\"}";

fn snapshot(solver: &str, scenario: &str) -> MetricsSnapshot {
    let bounds = vec![100, 1_000, 10_000, u64::MAX];
    MetricsSnapshot {
        accepted: 9,
        rejected_busy: 1,
        rejected_invalid: 2,
        completed: 5,
        failed: 3,
        deadline_exceeded: 4,
        cache_hits: 6,
        cache_misses: 7,
        partitioner_invocations: 8,
        batches_executed: 10,
        batched_jobs: 11,
        rhs_solved: 12,
        in_flight: 13,
        faults_injected: 14,
        faults_detected: 15,
        rollbacks: 16,
        retries: 17,
        escalations: 18,
        breaker_open: 19,
        shed_total: 20,
        supervisor_kills: 21,
        worker_restarts: 22,
        queue_depth: 23,
        class_queue_depth: [1, 2, 20],
        queue_saturation: 0.625,
        uptime_seconds: 12.5,
        latency_bucket_bounds_us: bounds,
        latency_buckets: vec![2, 0, 1, 0],
        latency_sum_us: u64::MAX,
        solve_outcomes: vec![
            SolveOutcome {
                solver: solver.into(),
                scenario: scenario.into(),
                completed: 4,
                failed: 1,
            },
            SolveOutcome {
                solver: "gmres".into(),
                scenario: "colwise".into(),
                completed: 1,
                failed: 2,
            },
        ],
        postmortems: vec![PostmortemCount {
            verdict: "fault-stall".into(),
            count: 3,
        }],
    }
}

#[test]
fn metrics_snapshot_json_and_exposition() {
    let snap = snapshot("cg", "rowwise");
    let json = snap.to_json();
    assert_eq!(json, SNAPSHOT_JSON);
    assert_eq!(snapshot_from_json(&json).unwrap(), snap);
    assert_pinned(
        "exposition",
        &snap.to_prometheus(),
        SNAPSHOT_PROM_LEN,
        SNAPSHOT_PROM_DIGEST,
    );

    let mut nan = snap.clone();
    nan.uptime_seconds = f64::NAN;
    let nan_json = nan.to_json();
    assert_eq!(
        nan_json,
        SNAPSHOT_JSON.replace("\"uptime_seconds\":12.5", "\"uptime_seconds\":null")
    );
    let back = snapshot_from_json(&nan_json).unwrap();
    assert!(back.uptime_seconds.is_nan());
    assert_eq!(
        MetricsSnapshot {
            uptime_seconds: 12.5,
            ..back
        },
        snap
    );

    // A snapshot file from before the flight recorder has no
    // `postmortems` member: read as empty.
    let old = json.replace(
        ",\"postmortems\":[{\"verdict\":\"fault-stall\",\"count\":3}]",
        "",
    );
    assert_ne!(old, json);
    assert_eq!(snapshot_from_json(&old).unwrap().postmortems, vec![]);
}

const SNAPSHOT_JSON: &str = "{\"accepted\":9,\"rejected_busy\":1,\"rejected_invalid\":2,\"completed\":5,\"failed\":3,\"deadline_exceeded\":4,\"cache_hits\":6,\"cache_misses\":7,\"partitioner_invocations\":8,\"batches_executed\":10,\"batched_jobs\":11,\"rhs_solved\":12,\"in_flight\":13,\"faults_injected\":14,\"faults_detected\":15,\"rollbacks\":16,\"retries\":17,\"escalations\":18,\"breaker_open\":19,\"shed_total\":20,\"supervisor_kills\":21,\"worker_restarts\":22,\"queue_depth\":23,\"class_queue_depth\":[1,2,20],\"queue_saturation\":0.625,\"uptime_seconds\":12.5,\"latency_sum_us\":18446744073709551615,\"latency\":[{\"le_us\":100,\"count\":2},{\"le_us\":1000,\"count\":0},{\"le_us\":10000,\"count\":1},{\"le_us\":\"+inf\",\"count\":0}],\"solve_outcomes\":[{\"solver\":\"cg\",\"scenario\":\"rowwise\",\"completed\":4,\"failed\":1},{\"solver\":\"gmres\",\"scenario\":\"colwise\",\"completed\":1,\"failed\":2}],\"postmortems\":[{\"verdict\":\"fault-stall\",\"count\":3}]}";
const SNAPSHOT_PROM_LEN: usize = 5126;
const SNAPSHOT_PROM_DIGEST: u64 = 0xf1334a93fa815940;

fn machine_event(label: &str, proc_times: Vec<f64>) -> Event {
    Event {
        kind: EventKind::AllReduce,
        participants: 4,
        words: 8,
        flops: 16,
        time: 1e-4,
        start: 0.5,
        span: "trace=00000000000000ab/solve/iter=3/dot".into(),
        label: label.into(),
        proc_times,
        payload_words: 8,
        hops: 0,
    }
}

fn sample(iteration: usize, residual_norm: f64) -> IterSample {
    IterSample {
        iteration,
        residual_norm,
        alpha: 1.0,
        beta: 0.5,
        flops: 100,
        comm_words: 10,
        sim_time: iteration as f64 * 1e-3,
        predicted_time: 0.0,
        rollbacks: 0,
    }
}

/// One bad job's evidence handed to the recorder, then an SLO alert.
fn recorder_with_dumps() -> std::sync::Arc<FlightRecorder> {
    let fr = FlightRecorder::new(FlightRecorderConfig::default());
    let machine = EventTail::from(vec![
        machine_event("dot-merge", Vec::new()),
        machine_event(AWKWARD, vec![1.0, 1.0, 6.0, 1.0]),
        machine_event("fault:bitflip:p1:op9:bit52", Vec::new()),
    ]);
    // Seven iterations through a ring of three: four overwritten.
    let mut series = TailObserver::new(3);
    for s in (1..5).map(|i| sample(i, 1.0)).chain([
        sample(5, 1e-2),
        sample(6, 2.5e-3),
        sample(7, f64::NAN),
    ]) {
        series.on_iteration(&s);
    }
    series.on_rollback(6, "residual \"jumped\" 1e3x");
    series.on_restart(7);
    let residual = ResidualTail {
        attempt: 2,
        solver: "cg-protected",
        series,
    };
    let class = QosClass::Interactive;
    fr.record(&JobEvidence {
        machine: &machine,
        residual: Some(&residual),
        lifecycle: &[
            ServiceEvent::Admitted {
                trace_id: 0xab,
                class,
                predicted_us: 120,
            },
            ServiceEvent::Rollback {
                trace_id: 0xab,
                class,
            },
            ServiceEvent::WorkerKilled {
                trace_id: 0xab,
                class,
                after_us: 900,
            },
            ServiceEvent::Completed {
                trace_id: 0xab,
                class,
                latency_us: 1234,
                ok: false,
                outcome: "worker-killed",
            },
        ],
    });
    fr.on_transition(&AlertTransition {
        class,
        at_s: 3.0,
        from: AlertState::Pending,
        to: AlertState::Firing,
        slow_burn: 4.0,
        fast_burn: 9.5,
    });
    fr
}

#[test]
fn postmortem_documents() {
    let fr = recorder_with_dumps();
    let pms = fr.postmortems();
    assert_eq!(pms.len(), 2);
    let (job, slo) = (&pms[0], &pms[1]);
    let doc = job.to_json();
    assert_pinned("post-mortem", &doc, POSTMORTEM_LEN, POSTMORTEM_DIGEST);
    assert_eq!(slo.to_json(), POSTMORTEM_SLO);
    assert_eq!(fr.index_json(), POSTMORTEM_INDEX);

    let summary = summary_from_json(&doc).expect("the reader takes what the writer wrote");
    assert_eq!(summary.trace, job.key);
    assert_eq!(summary.trigger, job.trigger.name());
    assert_eq!(summary.class, job.class);
    assert_eq!(summary.outcome, job.outcome);
    assert_eq!(summary.top_verdict, job.top_verdict().name());
    assert_eq!(summary.top_confidence, job.causes[0].confidence);
    assert_eq!(summary.narrative, job.narrative);
    assert_eq!(summary.machine_events, 3);
    assert_eq!(summary.machine_overwritten, 0);
    assert_eq!(summary.service_events, 4);
    assert_eq!(summary.residual_samples, 3);
    let causes: Vec<(String, f64)> = job
        .causes
        .iter()
        .map(|c| (c.verdict.name().to_string(), c.confidence))
        .collect();
    assert_eq!(summary.causes, causes);
    assert_eq!(format!("{summary:?}"), POSTMORTEM_SUMMARY);
}

const POSTMORTEM_LEN: usize = 2630;
const POSTMORTEM_DIGEST: u64 = 0x145a4007b2e6a877;
const POSTMORTEM_SLO: &str = "{\"schema\":\"hpf-postmortem/1\",\"trace\":\"slo-interactive-1\",\"trigger\":\"slo-firing\",\"class\":\"interactive\",\"outcome\":\"slo-firing\",\"latency_us\":0,\"seq\":2,\"top_verdict\":\"overload\",\"top_confidence\":0.7,\"machine_events\":0,\"machine_overwritten\":0,\"service_events\":0,\"residual_samples\":0,\"causes\":[{\"verdict\":\"overload\",\"confidence\":0.7,\"evidence\":[\"burn rates at transition: slow 4.00x, fast 9.50x over threshold\",\"dominant bad outcome for class interactive: \\\"worker-killed\\\" (1 of 1 recent bad terminals)\"]}],\"narrative\":\"SLO alert for class interactive transitioned to Firing (dump slo-interactive-1). Top cause: overload (confidence 0.70) — burn rates at transition: slow 4.00x, fast 9.50x over threshold.\",\"machine_tail\":[],\"service_tail\":[],\"residual_tail\":null}";
const POSTMORTEM_INDEX: &str = "{\"postmortems\":[{\"trace\":\"00000000000000ab\",\"trigger\":\"worker-killed\",\"class\":\"interactive\",\"outcome\":\"worker-killed\",\"verdict\":\"fault-bitflip\",\"confidence\":0.98},{\"trace\":\"slo-interactive-1\",\"trigger\":\"slo-firing\",\"class\":\"interactive\",\"outcome\":\"slo-firing\",\"verdict\":\"overload\",\"confidence\":0.7}]}";
const POSTMORTEM_SUMMARY: &str = "PostmortemSummary { trace: \"00000000000000ab\", trigger: \"worker-killed\", class: \"interactive\", outcome: \"worker-killed\", top_verdict: \"fault-bitflip\", top_confidence: 0.98, narrative: \"Job 00000000000000ab (interactive) terminated with outcome \\\"worker-killed\\\" after 1234 us (trigger: worker-killed). Black box retained 3 machine event(s) (0 overwritten), 4 service event(s), 3 residual sample(s). Top cause: fault-bitflip (confidence 0.98) — 1 fault-labelled machine event(s) of kind \\\"bitflip\\\"; first: \\\"fault:bitflip:p1:op9:bit52\\\" in span \\\"trace=00000000000000ab/solve/iter=3/dot\\\". Also considered: divergence (0.85), straggler (0.77).\", machine_events: 3, machine_overwritten: 0, service_events: 4, residual_samples: 3, causes: [(\"fault-bitflip\", 0.98), (\"divergence\", 0.85), (\"straggler\", 0.7666666666666666)] }";

#[test]
fn drift_report_and_perfetto_document() {
    let trace = planted_trace();
    let report = DriftReport::from_trace(&trace, Topology::Hypercube, &CostModel::mpp_1995());
    assert_pinned("drift report", &report.to_json(), DRIFT_LEN, DRIFT_DIGEST);

    // The Perfetto exporter refuses non-finite times, so its input is
    // the tail of the trace: the awkward send and compute.
    let mut tail = Trace::new();
    for e in &trace.events()[trace.len() - 2..] {
        tail.record(e.clone());
    }
    let doc = trace_events_json(&Timeline::from_trace(&tail)).unwrap();
    assert_eq!(doc, PERFETTO_DOC);
}

const DRIFT_LEN: usize = 4050;
const DRIFT_DIGEST: u64 = 0x7cbd3151c4bab5d0;
const PERFETTO_DOC: &str = "{\"traceEvents\":[\n{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"proc 0\"}},\n{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"proc 1\"}},\n{\"ph\":\"M\",\"pid\":0,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"proc 2\"}},\n{\"ph\":\"M\",\"pid\":0,\"tid\":3,\"name\":\"thread_name\",\"args\":{\"name\":\"proc 3\"}},\n{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"cat\":\"send\",\"ts\":36500.72000000015,\"dur\":208.5,\"args\":{\"span\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"words\":17,\"flops\":0}},\n{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"name\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"cat\":\"send\",\"ts\":36500.72000000015,\"dur\":208.5,\"args\":{\"span\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"words\":17,\"flops\":0}},\n{\"ph\":\"X\",\"pid\":0,\"tid\":2,\"name\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"cat\":\"send\",\"ts\":36500.72000000015,\"dur\":208.5,\"args\":{\"span\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"words\":17,\"flops\":0}},\n{\"ph\":\"X\",\"pid\":0,\"tid\":3,\"name\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"cat\":\"send\",\"ts\":36500.72000000015,\"dur\":208.5,\"args\":{\"span\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"words\":17,\"flops\":0}},\n{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"cat\":\"compute\",\"ts\":36500.72000000015,\"dur\":0.19999999999999998,\"args\":{\"span\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"words\":0,\"flops\":100}},\n{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"name\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"cat\":\"compute\",\"ts\":36500.72000000015,\"dur\":0.7999999999999999,\"args\":{\"span\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"words\":0,\"flops\":100}},\n{\"ph\":\"X\",\"pid\":0,\"tid\":2,\"name\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"cat\":\"compute\",\"ts\":36500.72000000015,\"dur\":0.39999999999999997,\"args\":{\"span\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"words\":0,\"flops\":100}},\n{\"ph\":\"X\",\"pid\":0,\"tid\":3,\"name\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"cat\":\"compute\",\"ts\":36500.72000000015,\"dur\":0.6,\"args\":{\"span\":\"q\\\"b\\\\t\\tn\\nc\\u0001é\",\"words\":0,\"flops\":100}}\n],\"displayTimeUnit\":\"ms\"}";

#[test]
fn slo_and_alerts_documents() {
    let mut t = SloTracker::soak_defaults();
    for i in 0..30 {
        let now = f64::from(i) * 0.125;
        t.observe(now, QosClass::Interactive, 0, false);
        t.observe(now, QosClass::Batch, 40, true);
        t.evaluate(now);
    }
    assert_eq!(t.status_json(), SLO_DOC);
    assert_eq!(t.alerts_json(), ALERTS_DOC);
}

const SLO_DOC: &str = "[{\"class\":\"interactive\",\"objective_latency_us\":250000,\"error_budget\":0.05,\"slow_burn\":20,\"fast_burn\":20,\"slow_window_total\":30,\"fast_window_total\":17,\"state\":\"firing\"},{\"class\":\"batch\",\"objective_latency_us\":2000000,\"error_budget\":0.1,\"slow_burn\":0,\"fast_burn\":0,\"slow_window_total\":30,\"fast_window_total\":17,\"state\":\"inactive\"}]";
const ALERTS_DOC: &str = "[{\"class\":\"interactive\",\"at_s\":0,\"from\":\"inactive\",\"to\":\"pending\",\"slow_burn\":20,\"fast_burn\":20},{\"class\":\"interactive\",\"at_s\":0.5,\"from\":\"pending\",\"to\":\"firing\",\"slow_burn\":20,\"fast_burn\":20}]";

#[test]
fn admission_audit_and_partition_assessment() {
    let audit = AdmissionAudit::new();
    audit.record_shed(
        QosClass::Interactive,
        Duration::from_micros(900),
        Duration::from_micros(500),
    );
    audit.record_shed(
        QosClass::Batch,
        Duration::from_micros(90),
        Duration::from_micros(50),
    );
    for us in [100, 200, 400] {
        audit.record_completed(QosClass::Interactive, Duration::from_micros(us));
    }
    assert_eq!(audit.to_json(), AUDIT_DOC);

    let assessment = PartitionAssessment {
        partitioner: "balanced-rows".into(),
        np: 8,
        comm_volume_words: 1234,
        cut_edges: 56,
        load_imbalance: 1.0625,
        modeled_seconds: 3.25e-4,
    };
    assert_eq!(assessment.to_json(), ASSESSMENT_DOC);
}

const AUDIT_DOC: &str = "{\"sheds\":2,\"completions\":3,\"shed_when_feasible_rate\":0.5,\"classes\":[{\"class\":\"interactive\",\"completed\":3,\"p50_us\":200,\"p99_us\":400},{\"class\":\"batch\",\"completed\":0,\"p50_us\":null,\"p99_us\":null},{\"class\":\"best-effort\",\"completed\":0,\"p50_us\":null,\"p99_us\":null}]}";
const ASSESSMENT_DOC: &str = "{\"partitioner\":\"balanced-rows\",\"np\":8,\"comm_volume_words\":1234,\"cut_edges\":56,\"load_imbalance\":1.062500,\"modeled_seconds\":3.250000000e-4}";

/// `/healthz` of an idle service, up to the moving uptime gauge.
#[test]
fn healthz_body() {
    use std::io::{Read, Write};
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let server = service.serve_http("127.0.0.1:0").unwrap();
    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    write!(s, "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let (_, body) = raw.split_once("\r\n\r\n").expect("headers then body");
    let uptime = body
        .strip_prefix(HEALTHZ_PREFIX)
        .and_then(|rest| rest.strip_suffix('}'))
        .unwrap_or_else(|| panic!("healthz body changed: {body}"));
    assert!(uptime.parse::<f64>().unwrap() >= 0.0);
}

const HEALTHZ_PREFIX: &str = "{\"status\":\"ok\",\"queue_depth\":0,\"queue_saturation\":0,\"in_flight\":0,\"open_circuits\":0,\"uptime_seconds\":";

fn repo_file(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every committed bench record re-renders to itself.
#[test]
fn committed_bench_records_render_to_themselves() {
    for n in 25..=30 {
        let file = repo_file(&format!("BENCH_{n}.json"));
        let record = BenchRecord::from_json(&file).unwrap();
        assert_eq!(record.bench, n);
        assert_eq!(format!("{}\n", record.to_json()), file, "BENCH_{n}.json");
    }
    let history = repo_file("bench-history.jsonl");
    assert!(history.lines().count() >= 12);
    for row in history.lines() {
        assert_eq!(BenchRecord::from_json(row).unwrap().to_json(), row);
    }
    let mut r = BenchRecord::new(31, "quo\"te\\é");
    r.push("a/b c", 0.1);
    r.push("tiny", 2.5e-7);
    assert_eq!(r.to_json(), BENCH_DOC);
    assert!(matches!(
        BenchRecord::from_json(&BENCH_DOC.replace("\"schema_version\":1", "\"schema_version\":2")),
        Err(GateError::SchemaMismatch {
            found: 2,
            expected: 1
        })
    ));
}

const BENCH_DOC: &str = "{\"schema_version\":1,\"bench\":31,\"name\":\"quo\\\"te\\\\é\",\"series\":[{\"name\":\"a/b c\",\"value\":0.1},{\"name\":\"tiny\",\"value\":0.00000025}]}";

// ---------------------------------------------------------------------
// Five inputs the substring-search readers got wrong. Each of these
// fails on `1ed495c` and arrived with the codec.
// ---------------------------------------------------------------------

/// The scraper cut a field at the first `,`, `}` or `]`, inside strings
/// too: `unterminated field "name"`.
#[test]
fn bench_record_names_may_hold_json_punctuation() {
    let mut r = BenchRecord::new(25, "cg, np=8 {quick}");
    r.push("cg[np=8]/solve_seconds", 0.5);
    r.push("quo\"te\\é", f64::NAN);
    let back = BenchRecord::from_json(&r.to_json()).unwrap();
    assert_eq!(back.name, r.name);
    assert_eq!(back.series[0], r.series[0]);
    assert_eq!(back.series[1].0, r.series[1].0);
    assert!(back.series[1].1.is_nan(), "null reads back as NaN");
}

/// "Lenient about unknown keys" held for scalars only: the splitter cut
/// an array or object member at its first comma and then answered
/// `expected key quote at byte 168`.
#[test]
fn bus_reader_skips_unknown_members_of_any_type() {
    let line = bus_completed().to_jsonl();
    let newer = format!(
        "{},\"procs\":[1,2,3],\"host\":{{\"name\":\"a,b\",\"tags\":[\"x\"]}}}}",
        line.strip_suffix('}').unwrap()
    );
    assert_eq!(BusEvent::from_jsonl(&newer).unwrap(), bus_completed());
}

/// The writer emits `null` for a non-finite `wall_s`; the old reader
/// refused its own writer's line.
#[test]
fn bus_reader_takes_back_a_nonfinite_wall_clock() {
    let back = BusEvent::from_jsonl(BUS_NAN_WALL).unwrap();
    assert!(back.wall_s.is_nan());
    assert_eq!(
        BusEvent {
            wall_s: 3.0,
            ..back
        },
        bus_completed()
    );
}

/// Labels were written unescaped and read by cutting at `,`. This is the
/// one input on which the writer's bytes differ from the parent's: the
/// parent's output for a label holding `"` was not valid JSON.
#[test]
fn snapshot_labels_are_escaped_and_read_back() {
    let snap = snapshot("c\"g", "a,b]}");
    let json = snap.to_json();
    hpf_obs::json::validate(&json).expect("the snapshot's own validator accepts it");
    assert!(json.contains("{\"solver\":\"c\\\"g\",\"scenario\":\"a,b]}\","));
    assert_eq!(snapshot_from_json(&json).unwrap(), snap);
}

/// With labels that need no escaping the bytes are the parent's, and a
/// scenario holding a comma alone already broke the old reader.
#[test]
fn snapshot_reader_does_not_cut_labels_at_commas() {
    let snap = snapshot("cg", "a,b");
    let json = snap.to_json();
    assert_eq!(json, SNAPSHOT_JSON.replace("rowwise", "a,b"));
    assert_eq!(snapshot_from_json(&json).unwrap(), snap);
}
