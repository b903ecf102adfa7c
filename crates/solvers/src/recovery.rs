//! Checkpoint/rollback CG — self-healing solves under injected faults.
//!
//! The machine layer can corrupt reduction and matvec results
//! (`hpf_machine::FaultPlan`); this module makes the Figure 2 CG loop
//! survive that. The protected solvers keep a small ring of checkpoints
//! `(x, r, p, rho)`, watch every scalar the recurrence divides by, and
//! periodically recompute the *true* residual `b - A x` (residual
//! replacement in the sense of Chen/Carson). When corruption is detected
//! — a non-finite or non-positive `p·Ap`, a residual jump, or drift
//! between the recurrence residual and the true residual — the solve
//! rolls back to the last checkpoint and replays instead of diverging.
//!
//! Replayed iterations do not re-hit the same faults: the machine's
//! fault schedule is keyed to a monotone operation counter, so a fault
//! fires once and the replay runs over clean operations.

use crate::cg::check_breakdown;
use crate::error::SolverError;
use crate::krylov::{solve, Krylov, Run};
use crate::observer::{IterSample, NullObserver};
use crate::operator::DistOperator;
use crate::precond::{DistPreconditioner, JacobiPreconditioner};
use crate::stopping::{SolveStats, StopCriterion};
use hpf_core::DistVector;
use hpf_machine::{span, Machine};
use std::collections::VecDeque;

/// Save a checkpoint every this many iterations.
const CHECKPOINT_INTERVAL: usize = 8;
/// How many checkpoints to keep (a rollback that keeps failing retreats
/// to older ones).
const RING_CAPACITY: usize = 3;
/// Recompute the true residual `b - A x` every this many iterations.
const RESIDUAL_CHECK_INTERVAL: usize = 25;
/// A recurrence residual this many times larger than the previous one
/// is treated as corruption, not convergence history.
const RESIDUAL_JUMP_FACTOR: f64 = 1e6;
/// Relative drift between recurrence and true residual (scaled by
/// `||b||`) that triggers residual replacement.
const DRIFT_TOLERANCE: f64 = 1e-4;
/// If the best residual seen fails to improve by at least 1% over this
/// many consecutive iterations, assume a silently corrupted scalar froze
/// the recurrence and restart from the true residual.
const STAGNATION_WINDOW: usize = 40;

/// The recovery budget of a protected solve. Everything else about the
/// checkpoint/rollback machinery is a constant of this module: a
/// checkpoint every 8 iterations in a ring of 3, the true residual every
/// 25, a jump of 1e6× or a drift of 1e-4·‖b‖ read as corruption, and a
/// restart after 40 iterations without 1% progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Give up with [`SolverError::RecoveryExhausted`] after this many
    /// rollbacks.
    pub max_rollbacks: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { max_rollbacks: 16 }
    }
}

/// What the recovery machinery did during one solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Checkpoints saved.
    pub checkpoints: usize,
    /// Rollbacks performed.
    pub rollbacks: usize,
    /// Corruption events detected (each triggers a rollback or a
    /// residual replacement).
    pub faults_detected: usize,
    /// True-residual recomputations that replaced the recurrence
    /// residual.
    pub residual_replacements: usize,
}

/// One saved iteration state.
struct Checkpoint {
    k: usize,
    x: DistVector,
    r: DistVector,
    p: DistVector,
    rho: f64,
    res: f64,
}

/// Fault-tolerant distributed CG: [`solve`] by [`Krylov::Cg`] under
/// `config`, unobserved — [`crate::cg_distributed`] plus the
/// checkpoint/rollback loop described in the module docs.
pub fn cg_distributed_protected<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b: &[f64],
    stop: StopCriterion,
    max_iters: usize,
    config: RecoveryConfig,
) -> Result<(DistVector, SolveStats, RecoveryStats), SolverError> {
    let method = Krylov::Cg {
        precond: None,
        recovery: Some(config),
    };
    let s = solve(machine, a, b, method, stop, max_iters, &mut NullObserver)?;
    let rec = s.recovery.expect("a protected solve reports its recovery");
    Ok((s.x, s.stats, rec))
}

/// Fault-tolerant Jacobi-preconditioned distributed CG.
pub fn pcg_jacobi_distributed_protected<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b: &[f64],
    stop: StopCriterion,
    max_iters: usize,
    config: RecoveryConfig,
) -> Result<(DistVector, SolveStats, RecoveryStats), SolverError> {
    let m = JacobiPreconditioner::from_operator(a)?;
    let method = Krylov::Cg {
        precond: Some(&m),
        recovery: Some(config),
    };
    let s = solve(machine, a, b, method, stop, max_iters, &mut NullObserver)?;
    let rec = s.recovery.expect("a protected solve reports its recovery");
    Ok((s.x, s.stats, rec))
}

/// The protected Figure 2 loop: plain CG when `precond` is `None`,
/// preconditioned CG when it holds an `M⁻¹` application. Samples carry
/// the running rollback count, and the observer's `on_rollback` /
/// `on_restart` hooks fire on every recovery action. `run.stats.iterations`
/// is the loop counter: a rollback rewinds it with the iterate.
pub(crate) fn protected_cg<A: DistOperator + ?Sized>(
    run: &mut Run<'_>,
    a: &A,
    precond: Option<&dyn DistPreconditioner>,
    config: RecoveryConfig,
) -> Result<(DistVector, RecoveryStats), SolverError> {
    let desc = a.descriptor();
    let mut rec = RecoveryStats::default();

    // z = M^-1 r, kept for the whole solve. Unpreconditioned, z *is* r:
    // nothing is stored and every use reads r instead.
    fn z_or_r<'a>(z: &'a Option<DistVector>, r: &'a DistVector) -> &'a DistVector {
        z.as_ref().unwrap_or(r)
    }
    let precondition = |machine: &mut Machine, r: &DistVector, z: &mut Option<DistVector>| {
        if let (Some(m), Some(z)) = (precond, z.as_mut()) {
            let _s = span::enter("precondition");
            m.apply_into(machine, r, z);
        }
    };

    let mut x = DistVector::zeros(desc.clone());
    let mut r = run.b.clone();
    let mut z = precond.map(|m| {
        let _s = span::enter("precondition");
        m.apply(run.machine, &r)
    });
    let mut p = z_or_r(&z, &r).clone();

    run.measure_b();
    let mut rho = run.dot(&r, z_or_r(&z, &r));
    let mut res = run.dot(&r, &r).sqrt();
    run.stats.residual_norm = res;
    if run.observe(res)? {
        run.stats.converged = true;
        return Ok((x, rec));
    }
    check_breakdown("rho", rho)?;

    // Per-proc flop counts charged for a checkpoint save / restore: the
    // three vectors (x, r, p) are copied locally, no communication.
    let copy_flops: Vec<usize> = (0..desc.np()).map(|pr| 3 * desc.local_len(pr)).collect();

    let mut ring: VecDeque<Checkpoint> = VecDeque::new();
    ring.push_back(Checkpoint {
        k: 0,
        x: x.clone(),
        r: r.clone(),
        p: p.clone(),
        rho,
        res,
    });
    {
        let _s = span::enter("checkpoint");
        run.machine.compute_all(&copy_flops, "checkpoint-save");
    }
    rec.checkpoints += 1;

    let mut rollbacks_since_checkpoint = 0usize;
    let mut best_res = res;
    let mut since_improve = 0usize;

    // q doubles as the `A x` of every true-residual recomputation (the
    // next iteration's product overwrites it); r_true receives `b − A x`.
    // Both, and the product's scratch, live as long as the solve.
    let mut q = DistVector::zeros(desc.clone());
    let mut r_true = DistVector::zeros(desc);
    let mut scratch = Vec::new();

    // Roll back to the newest surviving checkpoint; retreat one
    // checkpoint deeper when the newest one keeps failing (it may have
    // been saved after the corruption landed).
    macro_rules! rollback {
        ($reason:expr) => {{
            rec.rollbacks += 1;
            rec.faults_detected += 1;
            rollbacks_since_checkpoint += 1;
            run.obs.on_rollback(run.stats.iterations, $reason);
            if rec.rollbacks > config.max_rollbacks {
                return Err(SolverError::RecoveryExhausted {
                    rollbacks: rec.rollbacks,
                    residual_norm: res,
                });
            }
            if rollbacks_since_checkpoint >= 2 && ring.len() > 1 {
                ring.pop_back();
            }
            let cp = ring.back().expect("ring never empties");
            x.copy_from(&cp.x);
            r.copy_from(&cp.r);
            p.copy_from(&cp.p);
            rho = cp.rho;
            res = cp.res;
            run.stats.iterations = cp.k;
            run.stats.residual_norm = res;
            since_improve = 0;
            run.monitor.reset_window();
            {
                let _s = span::enter("rollback");
                run.machine.compute_all(&copy_flops, "rollback-restore");
            }
            continue;
        }};
    }

    // The true residual b - A x into `r_true`, and its norm; a
    // non-finite one is a rollback.
    macro_rules! true_residual_or_rollback {
        () => {{
            let res_true = run.true_residual(a, &x, &mut q, &mut scratch, &mut r_true);
            if !res_true.is_finite() {
                rollback!("non-finite");
            }
            res_true
        }};
    }

    // Make the true residual just computed the recurrence residual and
    // restart the search direction from it, discarding the (possibly
    // mis-scaled) old one.
    macro_rules! replace_residual {
        ($res_true:expr) => {{
            run.obs.on_restart(run.stats.iterations);
            rec.residual_replacements += 1;
            std::mem::swap(&mut r, &mut r_true);
            precondition(run.machine, &r, &mut z);
            rho = run.dot(&r, z_or_r(&z, &r));
            p.copy_from(z_or_r(&z, &r));
            res = $res_true;
            run.stats.residual_norm = res;
            since_improve = 0;
            run.monitor.reset_window();
            if !rho.is_finite() || rho < 0.0 {
                rollback!("non-finite");
            }
            check_breakdown("rho", rho)?;
            // Convergence is only ever declared through the verified
            // path in the main loop; a claim here just means the next
            // iteration's observation triggers verification.
            run.observe(res)?;
            continue; // p was restarted; skip the beta update
        }};
    }

    // A fault the iterate survived (stagnation, a false convergence
    // claim): count it against the budget, then restart from the truth.
    macro_rules! restart_from_true_residual {
        () => {{
            rec.faults_detected += 1;
            if rec.rollbacks + rec.residual_replacements >= config.max_rollbacks {
                return Err(SolverError::RecoveryExhausted {
                    rollbacks: rec.rollbacks,
                    residual_norm: res,
                });
            }
            let _restart_span = span::enter("restart");
            let res_true = true_residual_or_rollback!();
            replace_residual!(res_true);
        }};
    }

    run.begin_iterations();
    while run.stats.iterations < run.max_iters {
        let _iter_span = span::enter_iter(run.stats.iterations);
        run.matvec(a, &p, &mut q, &mut scratch);
        let pq = {
            let _s = span::enter("dot");
            run.dot(&p, &q)
        };
        // SPD input guarantees p·Ap > 0; non-finite or non-positive
        // means a corrupted reduction (or a genuinely indefinite input,
        // which exhausts the rollback budget and surfaces as a typed
        // error).
        if !pq.is_finite() || pq <= 0.0 {
            rollback!("non-finite");
        }
        let alpha = rho / pq;
        {
            let _s = span::enter("axpy");
            x.axpy(run.machine, alpha, &p);
            r.axpy(run.machine, -alpha, &q);
        }
        run.stats.axpys += 2;
        // Unpreconditioned CG has z = r, so one reduction serves both
        // rho and the residual norm (keeps the faults-off overhead to
        // checkpointing alone).
        precondition(run.machine, &r, &mut z);
        let rho_new = run.dot(&r, z_or_r(&z, &r));
        let res_new = match z {
            Some(_) => run.dot(&r, &r).sqrt(),
            None => rho_new.abs().sqrt(),
        };
        if !res_new.is_finite()
            || !rho_new.is_finite()
            || rho_new < 0.0
            || res_new > RESIDUAL_JUMP_FACTOR * res.max(f64::MIN_POSITIVE)
        {
            rollback!("divergence");
        }
        res = res_new;
        let sample = run.end_iteration(res, alpha);
        let k = sample.iteration;
        run.obs.on_iteration(&IterSample {
            beta: rho_new / rho,
            rollbacks: rec.rollbacks,
            ..sample
        });

        // Progress watchdog: a silently mis-scaled scalar (e.g. a bit
        // flip in rho) freezes the recurrence without breaking the
        // residual invariant, so neither the jump test nor drift
        // detection fires. No improvement over a whole window means the
        // search direction is dead — restart it.
        if res <= 0.99 * best_res {
            best_res = res;
            since_improve = 0;
        } else {
            since_improve += 1;
        }
        if since_improve >= STAGNATION_WINDOW {
            restart_from_true_residual!();
        }

        // Residual replacement: periodically recompute the true
        // residual b - A x. Large drift means the recurrence was
        // silently corrupted; swap in the true residual and restart the
        // search direction.
        if k.is_multiple_of(RESIDUAL_CHECK_INTERVAL) {
            let _check_span = span::enter("residual-check");
            let res_true = true_residual_or_rollback!();
            let drift_limit = DRIFT_TOLERANCE * run.b_norm.max(f64::MIN_POSITIVE);
            if (res_true - res).abs() > drift_limit {
                rec.faults_detected += 1;
                replace_residual!(res_true);
            }
        }

        if run.observe(res)? {
            // Trust but verify: a corrupted reduction can fake a tiny
            // residual norm. Accept convergence only if the true
            // residual b - A x agrees — computed twice, because an armed
            // corruption can drain into the verification itself, and it
            // can only drain once.
            let mut verify = || {
                let _s = span::enter("verify");
                run.true_residual(a, &x, &mut q, &mut scratch, &mut r_true)
            };
            let (v1, v2) = (verify(), verify());
            let res_true = v1.max(v2);
            let agree = (v1 - v2).abs() <= 1e-12 * run.b_norm.max(f64::MIN_POSITIVE);
            if res_true.is_finite() && agree && run.stop.satisfied(res_true, run.b_norm) {
                run.stats.converged = true;
                run.stats.residual_norm = res_true;
                return Ok((x, rec));
            }
            if !res_true.is_finite() {
                rollback!("non-finite");
            }
            // The recursive residual lied but the iterate is finite.
            // Checkpoints may have been saved after the corruption
            // landed (replaying them repeats the false claim), so repair
            // the recurrence in place instead of rolling back.
            restart_from_true_residual!();
        }
        check_breakdown("rho", rho)?;
        let beta = rho_new / rho;
        rho = rho_new;
        p.aypx(run.machine, beta, z_or_r(&z, &r));
        run.stats.axpys += 1;

        if k.is_multiple_of(CHECKPOINT_INTERVAL) {
            ring.push_back(Checkpoint {
                k,
                x: x.clone(),
                r: r.clone(),
                p: p.clone(),
                rho,
                res,
            });
            if ring.len() > RING_CAPACITY {
                ring.pop_front();
            }
            {
                let _s = span::enter("checkpoint");
                run.machine.compute_all(&copy_flops, "checkpoint-save");
            }
            rec.checkpoints += 1;
            rollbacks_since_checkpoint = 0;
        }
    }
    Ok((x, rec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::cg_distributed;
    use hpf_core::{DataArrayLayout, RowwiseCsr};
    use hpf_machine::{CostModel, FaultPlan, Topology};
    use hpf_sparse::gen;

    fn machine(np: usize) -> Machine {
        Machine::new(np, Topology::Hypercube, CostModel::mpp_1995())
    }

    fn poisson_op(np: usize) -> (RowwiseCsr, Vec<f64>, Vec<f64>) {
        let a = gen::poisson_2d(8, 8);
        let (x_true, b) = gen::rhs_for_known_solution(&a);
        (
            RowwiseCsr::block(a, np, DataArrayLayout::RowAligned),
            x_true,
            b,
        )
    }

    fn rel_err(x: &[f64], y: &[f64]) -> f64 {
        let num: f64 = x
            .iter()
            .zip(y)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let den: f64 = y.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
        num / den
    }

    #[test]
    fn protected_cg_matches_plain_cg_without_faults() {
        let np = 4;
        let (op, _x_true, b) = poisson_op(np);
        let stop = StopCriterion::RelativeResidual(1e-10);

        let mut m1 = machine(np);
        let (x_plain, s_plain) = cg_distributed(&mut m1, &op, &b, stop, 500).unwrap();
        let mut m2 = machine(np);
        let (x_prot, s_prot, rec) =
            cg_distributed_protected(&mut m2, &op, &b, stop, 500, RecoveryConfig::default())
                .unwrap();

        assert!(s_prot.converged);
        assert_eq!(s_prot.iterations, s_plain.iterations);
        assert_eq!(rec.rollbacks, 0);
        assert!(rec.checkpoints >= 1);
        assert!(rel_err(&x_prot.to_global(), &x_plain.to_global()) < 1e-12);
    }

    #[test]
    fn checkpoint_overhead_without_faults_is_small() {
        let np = 4;
        let (op, _, b) = poisson_op(np);
        let stop = StopCriterion::RelativeResidual(1e-10);

        let mut m1 = machine(np);
        cg_distributed(&mut m1, &op, &b, stop, 500).unwrap();
        let t_plain = m1.elapsed();
        let mut m2 = machine(np);
        cg_distributed_protected(&mut m2, &op, &b, stop, 500, RecoveryConfig::default()).unwrap();
        let t_prot = m2.elapsed();

        assert!(
            t_prot < 1.10 * t_plain,
            "checkpoint overhead {:.1}% exceeds 10%",
            100.0 * (t_prot / t_plain - 1.0)
        );
    }

    #[test]
    fn protected_cg_survives_bit_flips_where_plain_cg_degrades() {
        let np = 4;
        let (op, x_true, b) = poisson_op(np);
        let stop = StopCriterion::RelativeResidual(1e-10);
        // High-order mantissa/exponent bit flips on reductions early in
        // the solve.
        let plan = FaultPlan::new()
            .with_bit_flip(20, 1, 62, 3)
            .with_bit_flip(47, 2, 61, 5);

        let mut m = machine(np);
        m.set_fault_plan(plan);
        let (x, s, rec) =
            cg_distributed_protected(&mut m, &op, &b, stop, 2000, RecoveryConfig::default())
                .unwrap();
        assert!(
            s.converged,
            "protected CG must converge under bit flips: {s:?} {rec:?}"
        );
        assert!(
            rec.faults_detected >= 1,
            "faults should be detected: injected={} {s:?} {rec:?}",
            m.faults_injected()
        );
        assert!(rel_err(&x.to_global(), &x_true) < 1e-7);
    }

    #[test]
    fn protected_cg_survives_a_crash() {
        let np = 4;
        let (op, x_true, b) = poisson_op(np);
        let stop = StopCriterion::RelativeResidual(1e-10);

        let mut m = machine(np);
        m.set_fault_plan(FaultPlan::new().with_crash(30, 2));
        let (x, s, rec) =
            cg_distributed_protected(&mut m, &op, &b, stop, 2000, RecoveryConfig::default())
                .unwrap();
        assert!(s.converged, "protected CG must converge past a crash");
        assert!(rec.rollbacks >= 1, "a crash forces a rollback");
        assert!(rel_err(&x.to_global(), &x_true) < 1e-7);
    }

    #[test]
    fn observer_sees_rollbacks_and_every_iteration() {
        let np = 4;
        let (op, _, b) = poisson_op(np);
        let stop = StopCriterion::RelativeResidual(1e-10);

        let mut m = machine(np);
        m.set_fault_plan(FaultPlan::new().with_crash(30, 2));
        let mut obs = crate::observer::RecordingObserver::new();
        let method = Krylov::Cg {
            precond: None,
            recovery: Some(RecoveryConfig::default()),
        };
        let solved = solve(&mut m, &op, &b, method, stop, 2000, &mut obs).unwrap();
        let (s, rec) = (solved.stats, solved.recovery.unwrap());
        assert!(s.converged);
        assert!(rec.rollbacks >= 1);
        assert_eq!(obs.rollbacks.len(), rec.rollbacks);
        // Samples exist for every surviving iteration number 1..=final,
        // and replayed iterations re-report (so counts can exceed the
        // final iteration count but never miss one).
        let mut seen: Vec<usize> = obs.samples.iter().map(|s| s.iteration).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, (1..=s.iterations).collect::<Vec<_>>());
        // The running rollback count is nondecreasing and ends at the
        // reported total.
        assert!(obs
            .samples
            .windows(2)
            .all(|w| w[1].rollbacks >= w[0].rollbacks || w[1].iteration < w[0].iteration));
        assert_eq!(obs.samples.last().unwrap().rollbacks, rec.rollbacks);
        // Recovery phases left span-tagged events in the trace.
        assert!(m
            .trace()
            .events()
            .iter()
            .any(|e| e.span.contains("rollback")));
    }

    #[test]
    fn unprotected_cg_fails_under_the_same_crash() {
        let np = 4;
        let (op, _, b) = poisson_op(np);
        let stop = StopCriterion::RelativeResidual(1e-10);

        let mut m = machine(np);
        m.set_fault_plan(FaultPlan::new().with_crash(30, 2));
        let out = cg_distributed(&mut m, &op, &b, stop, 2000);
        match out {
            Err(SolverError::NonFinite { .. }) | Err(SolverError::Breakdown { .. }) => {}
            Ok((_, s)) => assert!(!s.converged, "NaN poison must not converge"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn protected_pcg_converges_under_faults() {
        let np = 4;
        let a = gen::banded_spd(96, 3, 11);
        let (x_true, b) = gen::rhs_for_known_solution(&a);
        let op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
        let stop = StopCriterion::RelativeResidual(1e-10);

        let mut m = machine(np);
        m.set_fault_plan(FaultPlan::new().with_bit_flip(25, 0, 60, 1));
        let (x, s, rec) = pcg_jacobi_distributed_protected(
            &mut m,
            &op,
            &b,
            stop,
            2000,
            RecoveryConfig::default(),
        )
        .unwrap();
        assert!(
            s.converged,
            "injected={} {s:?} {rec:?}",
            m.faults_injected()
        );
        assert!(rel_err(&x.to_global(), &x_true) < 1e-7);
    }

    #[test]
    fn indefinite_input_exhausts_recovery_with_typed_error() {
        use hpf_sparse::{CooMatrix, CsrMatrix};
        let np = 2;
        let coo = CooMatrix::from_triplets(
            4,
            4,
            (0..4)
                .map(|i| (i, i, if i % 2 == 0 { 1.0 } else { -1.0 }))
                .collect(),
        )
        .unwrap();
        let a = CsrMatrix::from_coo(&coo);
        let op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
        let b = vec![0.0, 1.0, 0.0, 1.0];

        let mut m = machine(np);
        let out = cg_distributed_protected(
            &mut m,
            &op,
            &b,
            StopCriterion::RelativeResidual(1e-12),
            200,
            RecoveryConfig::default(),
        );
        assert!(
            matches!(out, Err(SolverError::RecoveryExhausted { .. })),
            "indefinite input must exhaust the rollback budget, got {out:?}"
        );
    }
}
