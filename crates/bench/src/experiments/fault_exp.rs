//! E23: fault-injection sweep over the protected CG solver.
//!
//! Two claims are measured. First, the *insurance premium*: with no
//! faults injected, checkpointing and verified convergence must cost
//! under 10% simulated time over plain CG. Second, the *payout*: under
//! seeded random fault plans of increasing intensity, protected CG keeps
//! converging (rolling back and replacing residuals as needed) while the
//! unprotected solver fails or silently degrades.

use crate::table::Table;
use hpf_core::{DataArrayLayout, RowwiseCsr};
use hpf_machine::{FaultPlan, FaultRates, Machine};
use hpf_solvers::{cg_distributed, cg_distributed_protected, RecoveryConfig, StopCriterion};
use hpf_sparse::gen;

/// E23 — fault sweep: recovery rate of protected vs plain CG across
/// transient-fault intensities, plus the faults-off checkpoint overhead.
pub fn e23_fault_sweep(n: usize, np: usize, trials: usize) -> Table {
    let mut t = Table::new(
        "E23",
        format!("fault injection: protected vs plain CG, n = {n}, NP = {np}, {trials} seeds/rate"),
        &[
            "fault rate",
            "faults/run",
            "protected recovered",
            "plain survived",
            "avg rollbacks",
            "avg detections",
        ],
    );

    let a = gen::banded_spd(n, 3, 11);
    let (_x, b) = gen::rhs_for_known_solution(&a);
    let op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
    let stop = StopCriterion::RelativeResidual(1e-9);
    let max_iters = 50 * n;

    // Faults-off premium: identical workload, with and without the
    // checkpoint/verify machinery.
    let mut m = Machine::hypercube(np);
    let (_, plain_stats) = cg_distributed(&mut m, &op, &b, stop, max_iters).expect("SPD");
    let t_plain = m.elapsed();
    let mut m = Machine::hypercube(np);
    let (_, prot_stats, _) =
        cg_distributed_protected(&mut m, &op, &b, stop, max_iters, RecoveryConfig::default())
            .expect("SPD");
    let t_prot = m.elapsed();
    let overhead = 100.0 * (t_prot / t_plain - 1.0);
    assert!(
        plain_stats.converged && prot_stats.converged,
        "both solvers converge without faults"
    );
    assert!(
        overhead < 10.0,
        "faults-off checkpoint overhead {overhead:.1}% breaches the 10% budget"
    );

    for rate in [0.005, 0.02, 0.05] {
        let mut injected = 0usize;
        let mut recovered = 0usize;
        let mut plain_ok = 0usize;
        let mut rollbacks = 0usize;
        let mut detections = 0usize;
        for seed in 0..trials as u64 {
            let plan = FaultPlan::random(1000 + seed, np, 200, FaultRates::transient(rate));
            let config = RecoveryConfig {
                max_rollbacks: 4 * plan.len().max(4),
            };

            let mut m = Machine::hypercube(np);
            m.set_fault_plan(plan.clone());
            if let Ok((_, stats, rec)) =
                cg_distributed_protected(&mut m, &op, &b, stop, max_iters, config)
            {
                if stats.converged {
                    recovered += 1;
                }
                rollbacks += rec.rollbacks;
                detections += rec.faults_detected;
            }
            injected += m.faults_injected();

            let mut m = Machine::hypercube(np);
            m.set_fault_plan(plan);
            if let Ok((_, stats)) = cg_distributed(&mut m, &op, &b, stop, max_iters) {
                if stats.converged {
                    plain_ok += 1;
                }
            }
        }
        t.row(vec![
            format!("{rate}"),
            format!("{:.1}", injected as f64 / trials as f64),
            format!("{recovered}/{trials}"),
            format!("{plain_ok}/{trials}"),
            format!("{:.1}", rollbacks as f64 / trials as f64),
            format!("{:.1}", detections as f64 / trials as f64),
        ]);
    }

    t.note(format!(
        "faults-off checkpoint/verify overhead: {overhead:.1}% simulated time (budget 10%)"
    ));
    t.note("plans are seeded and sorted by machine op index, so every row is exactly reproducible");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e23_protected_recovers_everywhere() {
        let t = e23_fault_sweep(64, 4, 3);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            assert_eq!(row[2], "3/3", "protected CG must recover: {row:?}");
        }
        // At the harshest rate the plain solver must not match the
        // protected one (it fails or stalls on at least one seed).
        let harsh = &t.rows[2];
        assert_ne!(harsh[3], "3/3", "plain CG should fail under heavy faults");
    }
}
