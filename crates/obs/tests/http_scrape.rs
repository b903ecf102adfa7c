//! Integration: run a real service, scrape its live HTTP endpoints the
//! way Prometheus (or a human with `curl`) would, and check that the
//! drift pipeline's artifacts round-trip through the wire.

use hpf_core::{DataArrayLayout, RowwiseCsr};
use hpf_machine::{CostModel, Machine, Topology};
use hpf_obs::{ConvergenceLog, DriftReport};
use hpf_service::{ServiceConfig, SolveRequest, SolverService};
use hpf_solvers::{solve, Krylov, StopCriterion};
use hpf_sparse::gen;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("headers then body");
    (head.to_string(), body.to_string())
}

#[test]
fn live_serve_loop_is_scrapable_end_to_end() {
    let service = SolverService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let server = service.serve_http("127.0.0.1:0").unwrap();

    // Work the service: two scenarios so the labeled counters split.
    let a = Arc::new(gen::banded_spd(48, 3, 5));
    let (b, _) = gen::rhs_for_known_solution(&a);
    for scenario in ["rowwise", "colwise"] {
        let response = service
            .solve(SolveRequest::new(a.clone(), b.clone()).scenario(scenario))
            .unwrap();
        assert!(response.stats[0].converged);
    }

    // /healthz answers ok while the service is up.
    let (head, body) = http_get(server.addr(), "/healthz");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(body.contains("\"status\":\"ok\""));
    hpf_obs::json::validate(&body).expect("healthz body is strict JSON");

    // /metrics is a well-formed exposition carrying the labeled
    // counters and a consistent histogram.
    let (head, text) = http_get(server.addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"));
    assert!(head.contains("text/plain; version=0.0.4"));
    assert!(text.contains("hpf_service_completed_total 2"));
    assert!(text.contains("solve_completed_total{solver=\"cg\",scenario=\"rowwise\"} 1"));
    assert!(text.contains("solve_completed_total{solver=\"cg\",scenario=\"colwise\"} 1"));
    assert!(text.contains("latency_seconds_bucket{le=\"+Inf\"} 2"));
    assert!(text.contains("hpf_service_latency_seconds_sum "));
    assert!(text.contains("hpf_service_latency_seconds_count 2"));

    // The scrape matches what the in-process renderer would produce
    // (modulo the uptime gauge, which moves between snapshots).
    let strip_uptime = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("uptime_seconds"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let local = hpf_obs::render_prometheus(&service.metrics());
    assert_eq!(strip_uptime(&text), strip_uptime(&local));

    // /drift 404s until a report is published, then serves it verbatim.
    let (head, _) = http_get(server.addr(), "/drift");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    let np = 4;
    let a2 = gen::poisson_2d(6, 6);
    let (b2, _) = gen::rhs_for_known_solution(&a2);
    let op = RowwiseCsr::block(a2, np, DataArrayLayout::RowAligned);
    let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
    m.set_tracing(true);
    let mut log = ConvergenceLog::new();
    let stop = StopCriterion::RelativeResidual(1e-8);
    solve(&mut m, &op, &b2, Krylov::cg(), stop, 200, &mut log).unwrap();
    let report = DriftReport::from_trace(m.trace(), Topology::Hypercube, m.cost_model());
    server.publish_drift(report.to_json());

    let (head, body) = http_get(server.addr(), "/drift");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    hpf_obs::json::validate(&body).expect("drift body is strict JSON");
    assert_eq!(body, report.to_json());
    assert!(body.contains("\"categories\""));

    // Publishing has started (the drift report above), so /slo, /alerts
    // and /postmortems answer 200 with explicit empty documents instead
    // of 404 — a scraper can tell "nothing yet" from "not wired up".
    for (path, empty) in [
        ("/slo", "{\"slo\":[]}"),
        ("/alerts", "{\"alerts\":[]}"),
        ("/postmortems", "{\"postmortems\":[]}"),
    ] {
        let (head, body) = http_get(server.addr(), path);
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{path}: {head}");
        assert_eq!(body, empty, "{path}");
        hpf_obs::json::validate(&body).expect("empty doc is strict JSON");
    }
    let mut slo = hpf_obs::SloTracker::soak_defaults();
    // A clean sample then a sustained breach, so the published state
    // carries a live alert and a non-empty transition log.
    slo.observe(0.5, hpf_service::QosClass::Interactive, 1_000, true);
    let mut now = 1.0;
    while now < 6.0 {
        slo.observe_refusal(now, hpf_service::QosClass::Interactive);
        slo.evaluate(now);
        now += 0.1;
    }
    server.publish_slo(slo.status_json());
    server.publish_alerts(slo.alerts_json());

    let (head, body) = http_get(server.addr(), "/slo");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    hpf_obs::json::validate(&body).expect("slo body is strict JSON");
    assert_eq!(body, slo.status_json());
    assert!(body.contains("\"class\":\"interactive\""), "{body}");
    assert!(body.contains("\"state\":\"firing\""), "{body}");

    let (head, body) = http_get(server.addr(), "/alerts");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    hpf_obs::json::validate(&body).expect("alerts body is strict JSON");
    assert_eq!(body, slo.alerts_json());
    assert!(body.contains("\"to\":\"pending\""), "{body}");
    assert!(body.contains("\"to\":\"firing\""), "{body}");

    // Flight-recorder path: a synthetic bad job produces a post-mortem;
    // publishing it makes /postmortems serve the index and the per-trace
    // document, and the verdict counter reaches /metrics.
    let fr = hpf_obs::FlightRecorder::new(hpf_obs::FlightRecorderConfig::default());
    let machine = hpf_machine::EventTail::from(vec![hpf_machine::Event {
        kind: hpf_machine::EventKind::AllReduce,
        participants: 4,
        words: 8,
        flops: 0,
        time: 1e-4,
        start: 0.1,
        span: format!("trace={:016x}/solve/iter=2/dot", 0xabu64),
        label: "fault:stall:p2:op17:ms400".to_string(),
        proc_times: Vec::new(),
        payload_words: 8,
        hops: 0,
    }]);
    fr.record(&hpf_service::JobEvidence {
        machine: &machine,
        residual: None,
        lifecycle: &[hpf_service::ServiceEvent::Completed {
            trace_id: 0xab,
            class: hpf_service::QosClass::Interactive,
            latency_us: 900,
            ok: false,
            outcome: "worker-killed",
        }],
    });
    let pm = &fr.postmortems()[0];
    assert_eq!(pm.top_verdict().name(), "fault-stall");
    server.publish_postmortem(&pm.key, pm.to_json());
    server.publish_postmortems(fr.index_json());
    service
        .metrics_handle()
        .record_postmortem(pm.top_verdict().name());

    let (head, body) = http_get(server.addr(), "/postmortems");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    hpf_obs::json::validate(&body).expect("postmortems index is strict JSON");
    assert!(body.contains(&pm.key), "{body}");
    assert!(body.contains("\"verdict\":\"fault-stall\""), "{body}");

    let (head, body) = http_get(server.addr(), &format!("/postmortems/{}", pm.key));
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert_eq!(body, pm.to_json(), "per-trace doc served verbatim");
    let summary = hpf_obs::postmortem_summary_from_json(&body).expect("summary");
    assert_eq!(summary.top_verdict, "fault-stall");

    let (head, _) = http_get(server.addr(), "/postmortems/00000000deadbeef");
    assert!(
        head.starts_with("HTTP/1.1 404"),
        "unknown trace 404s: {head}"
    );

    let (_, text) = http_get(server.addr(), "/metrics");
    assert!(
        text.contains("hpf_service_postmortems_total{verdict=\"fault-stall\"} 1"),
        "verdict counter exported"
    );

    // Shutdown flips /healthz to draining / 503.
    service.shutdown();
    let (head, body) = http_get(server.addr(), "/healthz");
    assert!(head.starts_with("HTTP/1.1 503"), "{head}");
    assert!(body.contains("\"status\":\"draining\""), "{body}");
    drop(server);
}
