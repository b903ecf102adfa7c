//! End-to-end observability: run a real distributed CG solve under a
//! telemetry observer and push the resulting trace through every
//! exporter and analysis pass.

use hpf_core::{DataArrayLayout, RowwiseCsr};
use hpf_machine::{CostModel, Machine, Topology};
use hpf_obs::{critical_path, load_imbalance, span_costs, telemetry, RecordingObserver, Timeline};
use hpf_solvers::{solve, Krylov, StopCriterion};
use hpf_sparse::gen;

fn solve_traced() -> (Machine, RecordingObserver, usize) {
    let np = 4;
    let a = gen::poisson_2d(8, 8);
    let (b, _) = gen::rhs_for_known_solution(&a);
    let op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
    let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
    m.set_tracing(true);
    let mut log = RecordingObserver::new();
    let stop = StopCriterion::RelativeResidual(1e-8);
    let stats = solve(&mut m, &op, &b, Krylov::cg(), stop, 500, &mut log)
        .unwrap()
        .stats;
    assert!(stats.converged);
    (m, log, stats.iterations)
}

#[test]
fn telemetry_covers_every_iteration_and_round_trips_csv() {
    let (_, log, iterations) = solve_traced();
    assert_eq!(log.samples.len(), iterations);
    for (i, s) in log.samples.iter().enumerate() {
        assert_eq!(s.iteration, i + 1);
        assert!(s.residual_norm.is_finite());
        assert!(s.alpha.is_finite());
        assert!(s.flops > 0, "iteration {} charged no flops", s.iteration);
        assert!(s.comm_bytes() > 0);
    }
    // Cumulative simulated time is nondecreasing.
    assert!(log
        .samples
        .windows(2)
        .all(|w| w[1].sim_time >= w[0].sim_time));
    let csv = telemetry::to_csv(&log.samples);
    let back = telemetry::from_csv(&csv).unwrap();
    assert_eq!(back.len(), log.samples.len());
    assert_eq!(telemetry::to_csv(&back), csv);
}

#[test]
fn exporters_produce_valid_output_from_a_real_trace() {
    let (m, _, _) = solve_traced();
    let tl = Timeline::from_trace(m.trace());
    assert_eq!(tl.np, 4);
    assert!(!tl.slices.is_empty());
    let doc = hpf_obs::trace_events_json(&tl).expect("finite trace must export");
    hpf_obs::json::validate(&doc).expect("perfetto JSON must validate");
    assert!(doc.contains("solve/iter="));

    // JSONL round-trip of the same trace (exporters must agree on the
    // event count).
    let jsonl = m.trace().to_jsonl();
    let parsed = hpf_machine::Trace::from_jsonl(&jsonl).unwrap();
    assert_eq!(parsed.events().len(), m.trace().events().len());
}

#[test]
fn analyses_find_the_solver_structure() {
    let (m, _, iterations) = solve_traced();
    let report = critical_path(m.trace());
    assert!((report.total_seconds - m.elapsed()).abs() < 1e-9 * m.elapsed().max(1.0));
    assert!(report.compute_seconds > 0.0);
    assert!(report.comm_seconds > 0.0);
    // Per-span attribution names actual solver phases.
    let keys: Vec<&str> = report.by_span.iter().map(|c| c.key.as_str()).collect();
    assert!(keys.iter().any(|k| k.contains("matvec")));
    assert!(keys.iter().any(|k| k.contains("dot")));
    assert!(keys.iter().any(|k| k.ends_with("iter=1/axpy")));
    // One matvec span per iteration.
    let matvecs: usize = report
        .by_span
        .iter()
        .filter(|c| c.key.ends_with("/matvec"))
        .map(|c| c.count)
        .sum();
    assert!(matvecs >= iterations);
    let imbalance = load_imbalance(m.trace()).unwrap();
    assert!(imbalance.ratio >= 1.0);
    assert_eq!(imbalance.busy.len(), 4);
    assert_eq!(span_costs(m.trace()).len(), report.by_span.len());
}
