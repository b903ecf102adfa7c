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
//! Artifacts: set `HPF_BENCH_DIR` to redirect the bench records
//! (default: current directory, i.e. the repo root under `cargo run`),
//! and `HPF_OBS_DIR` to also dump each scenario's drift report JSON.

use crate::table::Table;
use hpf_core::{ColwiseCsc, DataArrayLayout, RowwiseCsr};
use hpf_machine::{CostModel, Machine, Topology};
use hpf_obs::{BenchRecord, DriftReport, RecordingObserver, RegressionGate};
use hpf_solvers::{solve, ColwiseOperator, CscVariant, DistOperator, Krylov, StopCriterion};
use hpf_sparse::{gen, CscMatrix};

/// Drift tolerance band: every category must stay within ±10% of the
/// analytic prediction on a clean machine (documented in DESIGN.md §8).
const DRIFT_TOLERANCE: f64 = 0.10;

struct ScenarioResult {
    name: &'static str,
    iterations: usize,
    solve_seconds: f64,
    report: DriftReport,
}

fn run_scenario(name: &'static str, op: &dyn DistOperator, b: &[f64], n: usize) -> ScenarioResult {
    let np = op.descriptor().np();
    let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
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
/// previous run's `BENCH_25.json`.
pub fn e25_drift_oracle(n: usize, np: usize) -> Table {
    let dir = std::env::var("HPF_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    e25_with_gate(n, np, &RegressionGate::new(dir).with_tolerance(10.0))
}

/// E25 with an explicit gate (tests point this at a scratch directory).
pub fn e25_with_gate(n: usize, np: usize, gate: &RegressionGate) -> Table {
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
    let obs_dir = std::env::var("HPF_OBS_DIR").ok();
    for s in &scenarios {
        let max_drift = s.report.max_abs_rel_error();
        assert!(
            max_drift <= DRIFT_TOLERANCE,
            "{}: drift {:.2}% breaches the {:.0}% band\n{}",
            s.name,
            max_drift * 100.0,
            DRIFT_TOLERANCE * 100.0,
            s.report.render()
        );
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
        if let Some(dir) = &obs_dir {
            let _ = std::fs::create_dir_all(dir);
            let path = std::path::Path::new(dir).join(format!("e25-{key}.drift.json"));
            std::fs::write(&path, s.report.to_json())
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
    }

    let outcome = gate
        .check_and_record(&record)
        .unwrap_or_else(|e| panic!("E25 bench gate: {e}"));
    t.note(format!(
        "drift = (measured - predicted)/predicted per category; band ±{:.0}%",
        DRIFT_TOLERANCE * 100.0
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
    t.note("simulated quantities only: records are deterministic across hosts");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_obs::GateError;

    fn scratch_gate(tag: &str) -> RegressionGate {
        let dir = std::env::temp_dir().join(format!("hpf-e25-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RegressionGate::new(dir)
    }

    #[test]
    fn e25_holds_the_band_on_both_layouts_and_gates() {
        let gate = scratch_gate("band");
        let t = e25_with_gate(192, 4, &gate);
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
        let t2 = e25_with_gate(192, 4, &gate);
        assert!(t2.notes.iter().any(|n| n.contains("PASS")));
        let _ = std::fs::remove_dir_all(&gate.dir);
    }

    #[test]
    fn e25_gate_fails_typed_when_the_baseline_is_faster() {
        let gate = scratch_gate("regress");
        e25_with_gate(128, 4, &gate);
        // Forge a "previous run" that was impossibly fast, so the real
        // run must trip the regression gate.
        let mut forged = BenchRecord::new(25, "e25-drift");
        forged.push("rowwise/solve_seconds", 1e-12);
        forged.push("colwise/solve_seconds", 1e-15);
        std::fs::write(gate.baseline_path(25), format!("{}\n", forged.to_json())).unwrap();
        let result = std::panic::catch_unwind(|| e25_with_gate(128, 4, &gate));
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
        let _ = std::fs::remove_dir_all(&gate.dir);
    }
}
