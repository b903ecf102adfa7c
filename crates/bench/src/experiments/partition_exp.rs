//! E26: the partitioner registry earns its keep — comm volume by
//! heuristic, plus the auto-repartitioner closing the loop mid-solve.
//!
//! The paper stops at `CG_BALANCED_PARTITIONER_1`, a contiguous
//! balanced-rows heuristic; `hpf-partition` generalises `REDISTRIBUTE
//! ... USING <name>` to a registry of four heuristics. E26 sweeps every
//! registered partitioner over the two irregular matrix families the
//! repo models (power-law SPD and block-irregular mesh) at several
//! machine sizes, pricing each layout's column-net comm volume through
//! the cost oracle ([`hpf_partition::assess`]). The headline claim is
//! asserted, not just tabulated: on power-law matrices at `NP >= 16`
//! the greedy hypergraph partitioner must move fewer modeled words per
//! matvec than the paper's balanced-rows layout. A second stage runs
//! [`cg_auto_repartition`] on a deliberately skewed block matrix and
//! asserts the policy fires and the measured busy-time imbalance drops.
//!
//! The run is recorded through the [`RegressionGate`] into
//! `BENCH_26.json` + `bench-history.jsonl`. Artifacts: set
//! `HPF_BENCH_DIR` to redirect the bench records and `HPF_OBS_DIR` to
//! also dump one `PartitionAssessment` JSON per sweep point.

use crate::table::Table;
use hpf_dist::{AtomAssignment, AtomSpec};
use hpf_machine::{CostModel, Machine, Topology};
use hpf_obs::{BenchRecord, RegressionGate};
use hpf_partition::{
    all_partitioners, assess, cg_auto_repartition, connectivity_of, NnzBisection,
    PartitionAssessment,
};
use hpf_solvers::RecordingObserver;
use hpf_sparse::{gen, CsrMatrix};

/// Matrix families the sweep covers, sized from `n`.
fn families(n: usize) -> Vec<(&'static str, CsrMatrix)> {
    // One dominant block plus a tail of small ones: the shape that
    // defeats equal-row-count layouts.
    let big = n / 2;
    let small = (n - big) / 8;
    let mut blocks = vec![big];
    blocks.resize(9, small.max(2));
    vec![
        ("power-law", gen::power_law_spd(n, 24, 0.9, 26)),
        ("block-irregular", gen::block_irregular_mesh(&blocks, 26)),
    ]
}

/// E26 — partitioner sweep + auto-repartition, gated against the
/// previous run's `BENCH_26.json`.
pub fn e26_partitioners(n: usize) -> Table {
    let dir = std::env::var("HPF_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    e26_with_gate(n, &RegressionGate::new(dir).with_tolerance(10.0))
}

/// E26 with an explicit gate (tests point this at a scratch directory).
pub fn e26_with_gate(n: usize, gate: &RegressionGate) -> Table {
    let mut t = Table::new(
        "E26",
        format!("REDISTRIBUTE USING sweep: n = {n}, hypercube, mpp-1995"),
        &[
            "matrix",
            "NP",
            "partitioner",
            "volume words",
            "cut edges",
            "imbalance",
            "modeled s",
        ],
    );

    let cost = CostModel::mpp_1995();
    let obs_dir = std::env::var("HPF_OBS_DIR").ok();
    let mut record = BenchRecord::new(26, "e26-partition");

    for (family, a) in families(n) {
        let spec = AtomSpec::from_pointer_array(a.row_ptr());
        let graph = connectivity_of(&a);
        for np in [4usize, 16] {
            let mut sweep: Vec<PartitionAssessment> = Vec::new();
            for p in all_partitioners() {
                let s = assess(p.as_ref(), &spec, &graph, np, Topology::Hypercube, &cost);
                t.row(vec![
                    family.to_string(),
                    format!("{np}"),
                    s.partitioner.clone(),
                    format!("{}", s.comm_volume_words),
                    format!("{}", s.cut_edges),
                    format!("{:.3}", s.load_imbalance),
                    format!("{:.6e}", s.modeled_seconds),
                ]);
                record.push(
                    format!("{family}/np{np}/{}/volume_words", s.partitioner),
                    s.comm_volume_words as f64,
                );
                if let Some(dir) = &obs_dir {
                    let _ = std::fs::create_dir_all(dir);
                    let path = std::path::Path::new(dir)
                        .join(format!("e26-{family}-np{np}-{}.json", s.partitioner));
                    std::fs::write(&path, s.to_json())
                        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
                }
                sweep.push(s);
            }
            // Headline claim: on power-law structure at scale, the
            // column-net heuristic beats the paper's balanced rows.
            if family == "power-law" && np >= 16 {
                let volume_of = |name: &str| {
                    sweep
                        .iter()
                        .find(|s| s.partitioner == name)
                        .unwrap_or_else(|| panic!("{name} missing from sweep"))
                        .comm_volume_words
                };
                let (hyper, rows) = (volume_of("greedy-hypergraph"), volume_of("balanced-rows"));
                assert!(
                    hyper < rows,
                    "greedy-hypergraph ({hyper} words) must beat balanced-rows \
                     ({rows} words) on {family} at NP = {np}"
                );
            }
        }
    }

    // Stage 2: the policy layer. Start a skewed block matrix on the
    // worst layout (equal row counts) and let the auto-repartitioner
    // recover mid-solve.
    // Half the rows in one dense block, half in a tail of small blocks:
    // equal-row-count cuts put whole processors inside the dense block,
    // so their matvec load runs ~2x the mean.
    let mut blocks = vec![n / 2];
    blocks.resize(9, (n / 16).max(2));
    let a = gen::block_irregular_mesh(&blocks, 9);
    let rows = a.n_rows();
    let b: Vec<f64> = (0..rows).map(|i| 1.0 + (i % 7) as f64).collect();
    let spec = AtomSpec::from_pointer_array(a.row_ptr());
    let initial = AtomAssignment::atom_block(&spec, 4);
    let mut m = Machine::new(4, Topology::Hypercube, CostModel::mpp_1995());
    let mut obs = RecordingObserver::new();
    let out = cg_auto_repartition(
        &mut m,
        &a,
        &b,
        1e-10,
        20 * rows,
        &initial,
        &NnzBisection,
        &mut obs,
    )
    .expect("SPD system must converge");
    assert!(out.stats.converged, "auto-repartitioned CG must converge");
    assert_eq!(
        out.repartitions.len(),
        1,
        "policy must fire exactly once; segment imbalances {:?}",
        out.segment_imbalances
    );
    let ev = &out.repartitions[0];
    assert!(
        ev.imbalance_after < ev.imbalance_before,
        "repartition must reduce measured imbalance ({} -> {})",
        ev.imbalance_before,
        ev.imbalance_after
    );
    record.push("auto/imbalance_before", ev.imbalance_before);
    record.push("auto/imbalance_after", ev.imbalance_after);
    record.push("auto/words_moved", ev.words_moved as f64);
    record.push("auto/solve_seconds", m.elapsed());

    let outcome = gate
        .check_and_record(&record)
        .unwrap_or_else(|e| panic!("E26 bench gate: {e}"));
    t.note(format!(
        "auto-repartition: fired at iter {}, imbalance {:.3} -> {:.3}, {} words moved ({})",
        ev.at_iteration, ev.imbalance_before, ev.imbalance_after, ev.words_moved, ev.partitioner
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
    t.note("volume = column-net Σ_j (λ_j − 1) words per matvec; priced by the oracle");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_gate(tag: &str) -> RegressionGate {
        let dir = std::env::temp_dir().join(format!("hpf-e26-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RegressionGate::new(dir)
    }

    #[test]
    fn e26_sweeps_every_partitioner_and_gates() {
        let gate = scratch_gate("sweep");
        let t = e26_with_gate(256, &gate);
        // 2 families x 2 machine sizes x 4 partitioners.
        assert_eq!(t.rows.len(), 16);
        for name in hpf_partition::partitioner_names() {
            assert!(t.rows.iter().any(|r| r[2] == name), "{name} missing");
        }
        assert!(t.notes.iter().any(|n| n.contains("auto-repartition")));
        assert!(gate.baseline_path(26).exists());
        // A second identical run compares against the baseline cleanly.
        let t2 = e26_with_gate(256, &gate);
        assert!(t2.notes.iter().any(|n| n.contains("PASS")));
        let _ = std::fs::remove_dir_all(&gate.dir);
    }

    #[test]
    fn e26_writes_assessment_artifacts_when_asked() {
        let gate = scratch_gate("artifacts");
        let obs = std::env::temp_dir().join(format!("hpf-e26-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&obs);
        std::env::set_var("HPF_OBS_DIR", &obs);
        e26_with_gate(192, &gate);
        std::env::remove_var("HPF_OBS_DIR");
        let files: Vec<_> = std::fs::read_dir(&obs)
            .expect("obs dir exists")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files.len(), 16, "{files:?}");
        assert!(files
            .iter()
            .any(|f| f == "e26-power-law-np16-greedy-hypergraph.json"));
        let _ = std::fs::remove_dir_all(&obs);
        let _ = std::fs::remove_dir_all(&gate.dir);
    }
}
