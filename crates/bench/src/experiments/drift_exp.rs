//! E25: the cost oracle closes the loop — predicted vs measured.
//!
//! The paper's Section 4 prices every CG building block in closed form;
//! the simulator executes the same operations event by event. E25 runs
//! a full CG solve under both matvec data layouts the paper analyzes —
//! Scenario 1 `(BLOCK,*)` row blocks (allgather of `p`) and Scenario 2
//! `(*,BLOCK)` column blocks (allreduce merge of `q`) — pushes each
//! trace through the [`DriftReport`] oracle, and asserts the measured
//! schedule stays inside a ±10% band of the analytic prediction in
//! every cost category. The run is then recorded through the
//! [`RegressionGate`]: simulated solve time and drift land in
//! `BENCH_25.json` + `bench-history.jsonl`, and the experiment *fails*
//! if either regressed by more than 10% against the previous run — the
//! repo carries its own performance trajectory.
//!
//! Artifacts: the caller passes the gate and, if any, the directory
//! that receives each scenario's drift report JSON. `report` reads both
//! from the environment (`HPF_BENCH_DIR`, default the working
//! directory, and `HPF_OBS_DIR`; see [`super::Knobs`]).

use super::harness::{drift_in_band, gate_note, write_artifact, DRIFT_TOLERANCE};
use crate::table::Table;
use hpf_core::{ColwiseCsc, DataArrayLayout, RowwiseCsr};
use hpf_machine::{Machine, Topology};
use hpf_obs::{BenchRecord, DriftReport, RecordingObserver, RegressionGate};
use hpf_solvers::{solve, ColwiseOperator, CscVariant, DistOperator, Krylov, StopCriterion};
use hpf_sparse::{gen, CscMatrix};
use std::path::Path;

struct ScenarioResult {
    name: &'static str,
    iterations: usize,
    solve_seconds: f64,
    report: DriftReport,
}

fn run_scenario(name: &'static str, op: &dyn DistOperator, b: &[f64], n: usize) -> ScenarioResult {
    let np = op.descriptor().np();
    let mut m = Machine::hypercube(np);
    m.set_tracing(true);
    let mut log = RecordingObserver::new();
    let stop = StopCriterion::RelativeResidual(1e-8);
    let stats = solve(&mut m, op, b, Krylov::cg(), stop, 20 * n, &mut log)
        .expect("SPD system must converge")
        .stats;
    assert!(stats.converged, "{name}: CG failed to converge");
    // The telemetry's cumulative predicted clock must agree with the
    // oracle's event-by-event pricing at the last iteration.
    let report = DriftReport::from_trace(m.trace(), Topology::Hypercube, m.cost_model());
    let last = log.samples.last().expect("at least one iteration");
    assert!(
        last.predicted_time > 0.0,
        "{name}: solver did not surface per-iteration predictions"
    );
    ScenarioResult {
        name,
        iterations: stats.iterations,
        solve_seconds: m.elapsed(),
        report,
    }
}

/// E25 — cost-oracle drift on both matvec layouts, gated against the
/// previous run's `BENCH_25.json` in `gate`'s directory; each scenario's
/// drift report lands in `obs_dir` when one is given.
pub fn e25_with_gate(n: usize, np: usize, gate: &RegressionGate, obs_dir: Option<&Path>) -> Table {
    let mut t = Table::new(
        "E25",
        format!("cost oracle drift: CG, n = {n}, NP = {np}, hypercube, mpp-1995"),
        &[
            "scenario",
            "iters",
            "sim solve s",
            "predicted s",
            "max |drift| %",
            "total drift %",
        ],
    );

    let a = gen::banded_spd(n, 3, 11);
    let (_x, b) = gen::rhs_for_known_solution(&a);
    let row_op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
    let col_op = ColwiseOperator {
        inner: ColwiseCsc::block(CscMatrix::from_csr(&a), np),
        variant: CscVariant::Temp2d,
    };
    let scenarios = [
        run_scenario("rowwise (BLOCK,*)", &row_op, &b, n),
        run_scenario("colwise (*,BLOCK)", &col_op, &b, n),
    ];

    let mut record = BenchRecord::new(25, "e25-drift");
    for s in &scenarios {
        let max_drift = drift_in_band(s.name, &s.report);
        t.row(vec![
            s.name.to_string(),
            format!("{}", s.iterations),
            format!("{:.6e}", s.solve_seconds),
            format!("{:.6e}", s.report.total_predicted_seconds),
            format!("{:.3}", max_drift * 100.0),
            format!("{:+.3}", s.report.total_rel_error() * 100.0),
        ]);
        let key = if s.name.starts_with("rowwise") {
            "rowwise"
        } else {
            "colwise"
        };
        record.push(format!("{key}/solve_seconds"), s.solve_seconds);
        record.push(format!("{key}/max_drift_pct"), max_drift * 100.0);
        record.push(
            format!("{key}/abs_total_drift_pct"),
            s.report.total_rel_error().abs() * 100.0,
        );
        let name = format!("e25-{key}.drift.json");
        write_artifact(obs_dir, &name, &s.report.to_json());
    }

    let gated = gate_note(gate, record, None);
    t.note(format!(
        "drift = (measured - predicted)/predicted per category; band ±{:.0}%",
        DRIFT_TOLERANCE * 100.0
    ));
    t.note(gated);
    t.note("simulated quantities only: records are deterministic across hosts");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::harness::scratch::Scratch;
    use hpf_obs::GateError;

    #[test]
    fn e25_holds_the_band_on_both_layouts_and_gates() {
        let dir = Scratch::new("e25-band");
        let gate = RegressionGate::new(&*dir);
        let t = e25_with_gate(192, 4, &gate, None);
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows[0][0].contains("BLOCK,*"));
        assert!(t.rows[1][0].contains("*,BLOCK"));
        // Max drift column respects the band.
        for row in &t.rows {
            let drift: f64 = row[4].parse().unwrap();
            assert!(drift <= 10.0);
        }
        // Gate artifacts exist and a second identical run passes.
        assert!(gate.baseline_path(25).exists());
        assert!(gate.history_path().exists());
        let t2 = e25_with_gate(192, 4, &gate, None);
        assert!(t2.notes.iter().any(|n| n.contains("PASS")));
    }

    #[test]
    fn e25_gate_fails_typed_when_the_baseline_is_faster() {
        let dir = Scratch::new("e25-regress");
        let gate = RegressionGate::new(&*dir);
        e25_with_gate(128, 4, &gate, None);
        // Forge a "previous run" that was impossibly fast, so the real
        // run must trip the regression gate.
        let mut forged = BenchRecord::new(25, "e25-drift");
        forged.push("rowwise/solve_seconds", 1e-12);
        forged.push("colwise/solve_seconds", 1e-15);
        std::fs::write(gate.baseline_path(25), format!("{}\n", forged.to_json())).unwrap();
        let result = std::panic::catch_unwind(|| e25_with_gate(128, 4, &gate, None));
        let err = result.expect_err("gate must fail");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("bench regression gate failed"), "{msg}");
        // And the typed error path agrees.
        let fresh = BenchRecord::new(25, "e25-drift");
        match gate.check_and_record(&fresh) {
            Ok(_) => {} // no shared series -> no comparison, fine
            Err(GateError::Regression { .. }) => {}
            Err(other) => panic!("unexpected {other:?}"),
        }
    }
}
