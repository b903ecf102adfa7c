//! Property and determinism tests for the fault-injection / recovery
//! stack: on generated SPD systems with seeded fault plans, protected CG
//! converges to the same tolerance as a fault-free run while the
//! unprotected solver fails with a typed error — and an identical seed
//! replays a byte-identical fault trace.

use hpf_core::{DataArrayLayout, RowwiseCsr};
use hpf_machine::{CostModel, EventKind, FaultPlan, FaultRates, Machine, Topology};
use hpf_solvers::{
    cg_distributed, cg_distributed_protected, solve, DistPreconditioner, JacobiPreconditioner,
    Krylov, NullObserver, RecoveryConfig, StopCriterion,
};
use hpf_sparse::gen;
use proptest::prelude::*;

const NP: usize = 4;

fn machine(np: usize) -> Machine {
    Machine::new(np, Topology::Hypercube, CostModel::mpp_1995())
}

fn spd_system(n: usize, bw: usize, seed: u64) -> (RowwiseCsr, hpf_sparse::CsrMatrix, Vec<f64>) {
    let a = gen::banded_spd(n, bw, seed);
    let (_x_true, b) = gen::rhs_for_known_solution(&a);
    (
        RowwiseCsr::block(a.clone(), NP, DataArrayLayout::RowAligned),
        a,
        b,
    )
}

fn rel_residual(a: &hpf_sparse::CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.matvec(x).unwrap();
    let num: f64 = ax
        .iter()
        .zip(b)
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
    num / den
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A crash (lost contribution → NaN) at an arbitrary point early in
    /// the solve: protected CG still converges to the fault-free
    /// tolerance; the unprotected solver on the same machine state fails
    /// with a typed error instead of silently returning garbage.
    #[test]
    fn protected_cg_converges_where_unprotected_fails(
        n in 24usize..64,
        bw in 1usize..4,
        mat_seed in any::<u64>(),
        crash_op in 10usize..60,
        crash_proc in 0usize..NP,
    ) {
        let (op, a, b) = spd_system(n, bw, mat_seed);
        let stop = StopCriterion::RelativeResidual(1e-9);
        let plan = FaultPlan::new().with_crash(crash_op, crash_proc);

        let mut m = machine(NP);
        m.set_fault_plan(plan.clone());
        let unprotected = cg_distributed(&mut m, &op, &b, stop, 50 * n);
        prop_assert!(
            unprotected.is_err(),
            "NaN from a lost contribution must surface as a typed error"
        );

        let mut m = machine(NP);
        m.set_fault_plan(plan);
        let (x, stats, rec) =
            cg_distributed_protected(&mut m, &op, &b, stop, 50 * n, RecoveryConfig::default())
                .unwrap();
        prop_assert!(stats.converged, "protected CG must converge: {stats:?} {rec:?}");
        prop_assert!(m.faults_injected() >= 1);
        prop_assert!(rec.faults_detected >= 1, "the crash must be detected");
        prop_assert!(rel_residual(&a, &x.to_global(), &b) < 1e-8);
    }

    /// Seeded random transient-fault plans (bit flips, drops,
    /// stragglers): protected CG reaches the same tolerance a fault-free
    /// run would, with every injected fault showing up in the trace.
    #[test]
    fn protected_cg_rides_out_random_transient_plans(
        mat_seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let (op, a, b) = spd_system(48, 2, mat_seed);
        let stop = StopCriterion::RelativeResidual(1e-9);
        let plan = FaultPlan::random(fault_seed, NP, 200, FaultRates::transient(0.03));
        // A dense plan can force one rollback per fault; budget for it.
        let config = RecoveryConfig {
            max_rollbacks: 4 * plan.len().max(4),
        };

        let mut m = machine(NP);
        m.set_tracing(true);
        m.set_fault_plan(plan.clone());
        let (x, stats, _rec) =
            cg_distributed_protected(&mut m, &op, &b, stop, 4000, config).unwrap();
        prop_assert!(stats.converged);
        let true_rel = rel_residual(&a, &x.to_global(), &b);
        prop_assert!(true_rel < 1e-8, "true rel residual {true_rel} claimed {}", stats.residual_norm);
        prop_assert_eq!(m.trace().count(EventKind::Fault), m.faults_injected());
        prop_assert!(m.faults_injected() <= plan.len());
    }
}

/// Same seed, same machine, same workload ⇒ byte-identical fault traces
/// (the whole point of plan-based injection). A different seed produces a
/// different plan.
#[test]
fn identical_seeds_replay_identical_fault_traces() {
    let run = |fault_seed: u64| -> String {
        let (op, _a, b) = spd_system(48, 2, 7);
        let plan = FaultPlan::random(fault_seed, NP, 200, FaultRates::transient(0.05));
        let mut m = machine(NP);
        m.set_tracing(true);
        m.set_fault_plan(plan);
        let stop = StopCriterion::RelativeResidual(1e-9);
        let _ = cg_distributed_protected(&mut m, &op, &b, stop, 4000, RecoveryConfig::default())
            .unwrap();
        m.trace()
            .iter()
            .filter(|e| e.kind == EventKind::Fault)
            .map(|e| format!("{e:?}\n"))
            .collect()
    };
    let a = run(1234);
    let b = run(1234);
    assert!(!a.is_empty(), "the plan should fire at least one fault");
    assert_eq!(a, b, "same seed must replay the same fault schedule");
    let c = run(99);
    assert_ne!(a, c, "different seeds should differ");
}

/// `Machine::reset` rewinds the injector: two runs on one machine (as the
/// service's retry loop does between attempts) see the same schedule.
#[test]
fn machine_reset_replays_the_fault_plan() {
    let (op, _a, b) = spd_system(32, 2, 3);
    let stop = StopCriterion::RelativeResidual(1e-9);
    let mut m = machine(NP);
    m.set_fault_plan(FaultPlan::new().with_crash(20, 1).with_message_drop(40, 0));

    let first = cg_distributed(&mut m, &op, &b, stop, 2000);
    assert!(first.is_err());
    let injected_first = m.faults_injected();
    assert!(injected_first >= 1);

    m.reset();
    let second = cg_distributed(&mut m, &op, &b, stop, 2000);
    assert!(second.is_err(), "reset must replay, not clear, the plan");
    assert_eq!(m.faults_injected(), injected_first);

    m.clear_fault_plan();
    m.reset();
    let (_, stats) = cg_distributed(&mut m, &op, &b, stop, 2000).unwrap();
    assert!(stats.converged);
    assert_eq!(m.faults_injected(), 0);
}

/// One fault in the start-up reductions (`‖b‖`, `r·z`, `r·r`, and
/// `M⁻¹ r` before them) is a fault like any other: a flip of bit 52, 58
/// or 62, or a crash, on each of the first eight operations, on a banded
/// and a Poisson system, plain and Jacobi-preconditioned. Every solve
/// converges to a true relative residual of 1e-8: a flip in `‖b‖` or
/// `r·r` can no longer claim convergence at `x = 0`, a lost `‖b‖` no
/// longer runs the solve out unconverged, and a flipped `rho` no longer
/// poisons checkpoint 0.
#[test]
fn a_fault_in_the_start_up_is_retaken() {
    let systems = [gen::banded_spd(96, 3, 11), gen::poisson_2d(12, 12)];
    for a in systems {
        let (_, b) = gen::rhs_for_known_solution(&a);
        let op = RowwiseCsr::block(a.clone(), NP, DataArrayLayout::RowAligned);
        let jacobi = JacobiPreconditioner::from_operator(&op).unwrap();
        for precond in [None, Some(&jacobi as &dyn DistPreconditioner)] {
            for op_index in 0..8 {
                let flips = [52u8, 58, 62]
                    .map(|bit| FaultPlan::new().with_bit_flip(op_index, op_index % NP, bit, 0));
                let crash = FaultPlan::new().with_crash(op_index, NP - 1);
                for plan in flips.into_iter().chain([crash]) {
                    let mut m = machine(NP);
                    m.set_fault_plan(plan.clone());
                    let method = Krylov::Cg {
                        precond,
                        recovery: Some(RecoveryConfig::default()),
                    };
                    let stop = StopCriterion::RelativeResidual(1e-10);
                    let out = solve(&mut m, &op, &b, method, stop, 2000, &mut NullObserver);
                    let what = format!("n = {}, jacobi {}, {plan:?}", b.len(), precond.is_some());
                    let s = out.unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert!(s.stats.converged, "{what}: {:?}", s.stats);
                    assert_eq!(m.faults_injected(), 1, "{what}");
                    let rel = rel_residual(&a, &s.x.to_global(), &b);
                    assert!(rel <= 1e-8, "{what}: true relative residual {rel}");
                }
            }
        }
    }
}
