//! E28: the HPCG-class workload — multigrid-preconditioned CG swept
//! over hierarchy depth, machine size, and Poisson family.
//!
//! The paper's study stops at Jacobi PCG; `hpf-mg` adds the geometric
//! multigrid V-cycle the HPCG benchmark made canonical. E28 runs
//! MG-PCG over 5-point 2-D and 7-point 3-D Poisson systems at several
//! hierarchy depths and machine sizes, with a Jacobi-PCG reference
//! solve per (family, NP) point, and asserts the headline claim rather
//! than just tabulating it: at depth >= 3 the V-cycle must cut the
//! iteration count by at least 5x. Every MG solve runs traced and is
//! pushed through the [`DriftReport`] oracle, which now splits the
//! multigrid work into `mg-smooth` (per-level relaxation + halo +
//! coarse solve) and `mg-transfer` (restriction / prolongation motion)
//! categories; each sweep point must keep every category inside the
//! ±10% drift band, and both mg categories must actually appear. The
//! HPCG-style figure of merit — GFLOP/s-equivalent over the simulated
//! schedule — is reported per point.
//!
//! The run is recorded through the [`RegressionGate`] into
//! `BENCH_28.json` + `bench-history.jsonl`. Artifacts: the caller passes
//! the gate and, if any, the directory that receives one drift-report
//! JSON per sweep point. A smoke run restricts the sweep to the 2-D
//! family at NP = 4 (a strict subset of the full grid, so the smoke
//! record still diffs cleanly against a committed full baseline).
//! `report` reads all three from the environment (`HPF_BENCH_DIR`,
//! `HPF_OBS_DIR`, `HPF_E28_SMOKE=1`; see [`super::Knobs`]).

use super::harness::{drift_in_band, gate_note, write_artifact, DRIFT_TOLERANCE};
use crate::table::Table;
use hpf_machine::{Machine, Topology};
use hpf_mg::{pcg_mg_distributed, GridDims, MgHierarchy, MgPreconditioner};
use hpf_obs::{BenchRecord, DriftReport, RegressionGate};
use hpf_solvers::{pcg_jacobi_distributed, StopCriterion};
use hpf_sparse::gen;
use std::path::Path;

/// One sweep point: a matrix family at one machine size, solved at
/// each listed hierarchy depth.
struct SweepPoint {
    family: &'static str,
    dims: GridDims,
    np: usize,
    depths: &'static [usize],
}

fn sweep(smoke: bool) -> Vec<SweepPoint> {
    let mut points = vec![SweepPoint {
        family: "poisson-2d",
        dims: GridDims::d2(31, 31),
        np: 4,
        depths: &[2, 3],
    }];
    if !smoke {
        points.push(SweepPoint {
            family: "poisson-2d",
            dims: GridDims::d2(31, 31),
            np: 8,
            depths: &[2, 3],
        });
        points.push(SweepPoint {
            family: "poisson-3d",
            dims: GridDims::d3(15, 15, 15),
            np: 8,
            depths: &[2, 3],
        });
    }
    points
}

/// E28 — MG-PCG sweep, gated against the previous run's `BENCH_28.json`
/// in `gate`'s directory; each sweep point's drift report lands in
/// `obs_dir` when one is given.
pub fn e28_with_gate(smoke: bool, gate: &RegressionGate, obs_dir: Option<&Path>) -> Table {
    let mut t = Table::new(
        "E28",
        format!(
            "HPCG-class MG-PCG sweep{}: levels x NP x Poisson family, hypercube, mpp-1995",
            if smoke { " (smoke)" } else { "" }
        ),
        &[
            "family",
            "NP",
            "levels",
            "MG iters",
            "Jacobi iters",
            "iter ratio",
            "sim solve s",
            "max |drift| %",
            "GFLOP/s-eq",
        ],
    );

    let stop = StopCriterion::RelativeResidual(1e-8);
    let mut record = BenchRecord::new(28, "e28-hpcg");

    for p in sweep(smoke) {
        let n = p.dims.n();
        // Jacobi-PCG reference on the same fine operator, once per
        // (family, NP) point.
        let a = p.dims.poisson();
        let (_, b) = gen::rhs_for_known_solution(&a);
        let ref_h = MgHierarchy::build(p.dims, 2, p.np)
            .unwrap_or_else(|e| panic!("{}/np{}: {e}", p.family, p.np));
        let ref_op = ref_h.fine_operator();
        let mut m_j = Machine::hypercube(p.np);
        let (_, s_j) = pcg_jacobi_distributed(&mut m_j, &ref_op, &b, stop, 50 * n)
            .expect("Jacobi-PCG on Poisson must converge");
        assert!(
            s_j.converged,
            "{}/np{}: Jacobi-PCG diverged",
            p.family, p.np
        );
        record.push(
            format!("{}/np{}/jacobi_iters", p.family, p.np),
            s_j.iterations as f64,
        );

        for &levels in p.depths {
            let key = format!("{}/np{}/L{levels}", p.family, p.np);
            let h =
                MgHierarchy::build(p.dims, levels, p.np).unwrap_or_else(|e| panic!("{key}: {e}"));
            let pre = MgPreconditioner::new(h);
            let mut m = Machine::hypercube(p.np);
            m.set_tracing(true);
            let (_, s) =
                pcg_mg_distributed(&mut m, &pre, &b, stop, 50 * n).expect("MG-PCG must converge");
            assert!(s.converged, "{key}: MG-PCG diverged");

            // The oracle reprices the whole traced schedule; the mg
            // categories must be present and every category in band.
            let report = DriftReport::from_trace(m.trace(), Topology::Hypercube, m.cost_model());
            let max_drift = drift_in_band(&key, &report);
            for cat in ["mg-smooth", "mg-transfer"] {
                let line = report
                    .categories
                    .iter()
                    .find(|l| l.category.name() == cat)
                    .unwrap_or_else(|| panic!("{key}: no {cat} category line"));
                assert!(
                    line.measured_seconds > 0.0,
                    "{key}: {cat} carries no measured time"
                );
            }
            let gflops = report
                .gflops_equivalent()
                .expect("traced MG solve has flops and time");

            // Headline claim on the deep hierarchies: the V-cycle cuts
            // iterations at least 5x vs the paper's Jacobi PCG.
            if levels >= 3 {
                assert!(
                    5 * s.iterations <= s_j.iterations,
                    "{key}: MG {} vs Jacobi {} iterations — less than the 5x cut",
                    s.iterations,
                    s_j.iterations
                );
            }

            t.row(vec![
                p.family.to_string(),
                format!("{}", p.np),
                format!("{levels}"),
                format!("{}", s.iterations),
                format!("{}", s_j.iterations),
                format!("{:.1}x", s_j.iterations as f64 / s.iterations as f64),
                format!("{:.6e}", m.elapsed()),
                format!("{:.3}", max_drift * 100.0),
                format!("{:.4}", gflops),
            ]);
            record.push(format!("{key}/iters"), s.iterations as f64);
            record.push(format!("{key}/solve_seconds"), m.elapsed());
            record.push(format!("{key}/max_drift_pct"), max_drift * 100.0);
            let name = format!("e28-{}-np{}-L{levels}.drift.json", p.family, p.np);
            write_artifact(obs_dir, &name, &report.to_json());
        }
    }

    let gated = gate_note(gate, record, None);
    t.note(format!(
        "drift = (measured - predicted)/predicted per oracle category (incl. \
         mg-smooth / mg-transfer); band ±{:.0}%",
        DRIFT_TOLERANCE * 100.0
    ));
    t.note("figure of merit = recorded flops / simulated schedule seconds (HPCG-style)");
    t.note(gated);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::harness::scratch::Scratch;

    #[test]
    fn e28_smoke_asserts_the_5x_cut_and_gates() {
        let dir = Scratch::new("e28-smoke");
        let gate = RegressionGate::new(&*dir);
        let t = e28_with_gate(true, &gate, None);
        // 1 point x 2 depths.
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            assert_eq!(row[0], "poisson-2d");
            let drift: f64 = row[7].parse().unwrap();
            assert!(drift <= 10.0);
            let gflops: f64 = row[8].parse().unwrap();
            assert!(gflops > 0.0);
        }
        assert!(gate.baseline_path(28).exists());
        // A second identical run compares against the baseline cleanly.
        let t2 = e28_with_gate(true, &gate, None);
        assert!(t2.notes.iter().any(|n| n.contains("PASS")));
    }

    #[test]
    fn e28_smoke_record_is_a_subset_of_the_full_sweep() {
        // The CI smoke run diffs its record against the committed full
        // baseline, which only works if smoke keys are a strict subset.
        let full: Vec<String> = sweep(false)
            .iter()
            .flat_map(|p| {
                p.depths
                    .iter()
                    .map(|l| format!("{}/np{}/L{l}", p.family, p.np))
                    .collect::<Vec<_>>()
            })
            .collect();
        for p in sweep(true) {
            for l in p.depths {
                let key = format!("{}/np{}/L{l}", p.family, p.np);
                assert!(full.contains(&key), "smoke point {key} not in full sweep");
            }
        }
        assert!(sweep(true).len() < sweep(false).len());
    }
}
