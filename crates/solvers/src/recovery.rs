//! Checkpoint/rollback protection for CG — self-healing solves under
//! injected faults (`hpf_machine::FaultPlan` corrupts reductions and
//! matvec results).
//!
//! It is no second loop: `cg::figure2` calls a `Guard`'s hooks at fixed
//! points of its one body. The guard keeps a ring of
//! checkpoints `(x, r, p, rho)`, checks every scalar the recurrence
//! divides by, and periodically recomputes the *true* residual `b - A x`
//! (residual replacement in the sense of Chen/Carson). On a detection
//! the solve rolls back and replays, or restarts from the true residual.
//! A fault fires once (the schedule is keyed to the machine's operation
//! counter), so a replay, or a retaken start-up, runs clean.

use crate::cg::CgState;
use crate::error::SolverError;
use crate::krylov::{solve, Krylov, Run};
use crate::observer::NullObserver;
use crate::operator::DistOperator;
use crate::precond::JacobiPreconditioner;
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
    /// Rollbacks performed (a retaken start-up counts as one).
    pub rollbacks: usize,
    /// Corruption events detected (each triggers a rollback or a
    /// residual replacement).
    pub faults_detected: usize,
    /// True-residual recomputations that replaced the recurrence
    /// residual.
    pub residual_replacements: usize,
}

/// Fault-tolerant distributed CG: [`solve`] by [`Krylov::Cg`] under
/// `config`, unobserved — [`crate::cg_distributed`] plus the
/// checkpoint/rollback hooks described in the module docs.
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

/// What SPD input makes `p·Ap` and `rho` while `r ≠ 0`: positive and
/// clear of what the unprotected loop calls a `Breakdown`.
fn healthy(v: f64) -> bool {
    v.is_finite() && v >= f64::MIN_POSITIVE * 1e16
}

/// What a [`Guard`] hook returns: `Ok(true)` when it rolled the iterate
/// back or restarted it, and the loop goes back to its top.
type Hook = Result<bool, SolverError>;

/// One saved iteration state.
struct Checkpoint {
    k: usize,
    x: DistVector,
    r: DistVector,
    p: DistVector,
    rho: f64,
    res: f64,
}

/// The protection of one solve over `a`: the checkpoint ring, the
/// progress watchdog, the `b − A x` buffer and what they did.
pub(crate) struct Guard<'a, A: ?Sized> {
    pub(crate) stats: RecoveryStats,
    a: &'a A,
    max_rollbacks: usize,
    /// Newest last; `spare` holds the slots not in the ring. Every slot
    /// is allocated up front, so a save copies and allocates nothing.
    ring: VecDeque<Checkpoint>,
    spare: Vec<Checkpoint>,
    rollbacks_since_checkpoint: usize,
    best_res: f64,
    since_improve: usize,
    r_true: DistVector,
    /// Flops a save or a restore charges each processor: three local
    /// copies, no communication.
    copy_flops: Vec<usize>,
}

impl<'a, A: DistOperator + ?Sized> Guard<'a, A> {
    pub(crate) fn new(config: RecoveryConfig, a: &'a A, s: &CgState) -> Self {
        let desc = s.x.descriptor();
        let slot = || Checkpoint {
            k: 0,
            x: s.x.clone(),
            r: s.r.clone(),
            p: s.p.clone(),
            rho: 0.0,
            res: 0.0,
        };
        Guard {
            stats: RecoveryStats::default(),
            a,
            max_rollbacks: config.max_rollbacks,
            ring: VecDeque::with_capacity(RING_CAPACITY),
            spare: (0..RING_CAPACITY).map(|_| slot()).collect(),
            rollbacks_since_checkpoint: 0,
            best_res: f64::INFINITY,
            since_improve: 0,
            r_true: DistVector::zeros(desc.clone()),
            copy_flops: (0..desc.np()).map(|pr| 3 * desc.local_len(pr)).collect(),
        }
    }

    /// After the start-up reductions, at `x = 0` where `r` is `b`: `‖r‖`
    /// and `‖b‖` are one reduction over the same operands and must agree
    /// to the bit, and preconditioned, `r·z` is taken again and must too
    /// (and be [`healthy`] unless `r` is zero). A fault drains once, so a
    /// disagreement retakes the start (`Ok(true)`), against the rollback
    /// budget. A start that holds is checkpoint 0. Bits, not values, so a
    /// NaN in `b` still ends in `NonFinite`.
    pub(crate) fn start(&mut self, run: &mut Run, s: &mut CgState, res: f64) -> Hook {
        let again = match s.z {
            Some(_) => run.dot(&s.r, s.z()),
            None => s.rho,
        };
        if run.b_norm.to_bits() == res.to_bits()
            && again.to_bits() == s.rho.to_bits()
            && (healthy(s.rho) || !res.is_normal())
        {
            self.best_res = res;
            self.save(run, 0, s, res);
            return Ok(false);
        }
        self.detect(run, "start-up")?;
        s.precondition(run.machine);
        s.p.copy_from(s.z.as_ref().unwrap_or(&s.r));
        Ok(true)
    }

    /// After `p·Ap` and `rho = r·z`: not [`healthy`] is a corrupted
    /// reduction (or an indefinite input, which exhausts the budget).
    pub(crate) fn positive(&mut self, run: &mut Run, s: &mut CgState, v: f64) -> Hook {
        if healthy(v) {
            return Ok(false);
        }
        self.rollback(run, s, "non-finite")
    }

    /// After the fused update: a non-finite `‖r‖`, or one 1e6× the last.
    pub(crate) fn update(&mut self, run: &mut Run, s: &mut CgState, rr: f64) -> Hook {
        let last = run.stats.residual_norm.max(f64::MIN_POSITIVE);
        if rr.sqrt() <= RESIDUAL_JUMP_FACTOR * last {
            return Ok(false);
        }
        self.rollback(run, s, "divergence")
    }

    /// At a convergence claim, which a corrupted reduction can fake: it
    /// stands only if `b − A x`, taken twice (an armed corruption drains
    /// into one), is the same to the bit and passes. Otherwise the
    /// iterate is repaired in place, since checkpoints saved after the
    /// corruption landed would repeat the false claim.
    pub(crate) fn claim(&mut self, run: &mut Run, s: &mut CgState) -> Hook {
        let mut verify = || {
            let _s = span::enter("verify");
            run.true_residual(self.a, &s.x, &mut s.q, &mut s.scratch, &mut self.r_true)
        };
        let (res_true, again) = (verify(), verify());
        let agree = res_true.to_bits() == again.to_bits();
        if res_true.is_finite() && agree && run.stop.satisfied(res_true, run.b_norm) {
            run.stats.residual_norm = res_true;
            return Ok(false);
        }
        run.stats.converged = false;
        self.restart(run, s)
    }

    /// At the iteration's end: the progress watchdog, the true residual
    /// every 25 iterations, a checkpoint every 8.
    pub(crate) fn end(&mut self, run: &mut Run, s: &mut CgState) -> Hook {
        let (k, res) = (run.stats.iterations, run.stats.residual_norm);
        // A silently mis-scaled scalar (a flip in rho) can freeze the
        // recurrence with no jump and no drift: no 1% gain over a window
        // means the search direction is dead.
        if res <= 0.99 * self.best_res {
            self.best_res = res;
            self.since_improve = 0;
        } else {
            self.since_improve += 1;
        }
        if self.since_improve >= STAGNATION_WINDOW {
            return self.restart(run, s);
        }
        if k.is_multiple_of(RESIDUAL_CHECK_INTERVAL) {
            let _s = span::enter("residual-check");
            if self.replace(run, s, true)? {
                return Ok(true);
            }
        }
        if k.is_multiple_of(CHECKPOINT_INTERVAL) {
            self.save(run, k, s, res);
        }
        Ok(false)
    }

    fn save(&mut self, run: &mut Run, k: usize, s: &CgState, res: f64) {
        let mut cp = (self.spare.pop())
            .or_else(|| self.ring.pop_front())
            .expect("a spare slot or a full ring");
        (cp.k, cp.rho, cp.res) = (k, s.rho, res);
        cp.x.copy_from(&s.x);
        cp.r.copy_from(&s.r);
        cp.p.copy_from(&s.p);
        self.ring.push_back(cp);
        let _s = span::enter("checkpoint");
        run.machine.compute_all(&self.copy_flops, "checkpoint-save");
        self.stats.checkpoints += 1;
        self.rollbacks_since_checkpoint = 0;
    }

    /// Count a detection that costs a rollback and tell the observer;
    /// past the budget it is `RecoveryExhausted`.
    fn detect(&mut self, run: &mut Run, reason: &str) -> Result<(), SolverError> {
        self.stats.rollbacks += 1;
        self.stats.faults_detected += 1;
        self.rollbacks_since_checkpoint += 1;
        run.obs.on_rollback(run.stats.iterations, reason);
        if self.stats.rollbacks > self.max_rollbacks {
            return Err(self.exhausted(run));
        }
        Ok(())
    }

    fn exhausted(&self, run: &Run) -> SolverError {
        SolverError::RecoveryExhausted {
            rollbacks: self.stats.rollbacks,
            residual_norm: run.stats.residual_norm,
        }
    }

    /// Back to the newest checkpoint, or one deeper when the newest keeps
    /// failing (it may have been saved after the corruption landed). The
    /// iteration count rewinds with the iterate.
    fn rollback(&mut self, run: &mut Run, s: &mut CgState, reason: &str) -> Hook {
        self.detect(run, reason)?;
        if self.rollbacks_since_checkpoint >= 2 && self.ring.len() > 1 {
            self.spare.extend(self.ring.pop_back());
        }
        let cp = self.ring.back().expect("the ring never empties");
        s.x.copy_from(&cp.x);
        s.r.copy_from(&cp.r);
        s.p.copy_from(&cp.p);
        s.rho = cp.rho;
        run.stats.iterations = cp.k;
        run.stats.residual_norm = cp.res;
        self.since_improve = 0;
        run.monitor.reset_window();
        let _s = span::enter("rollback");
        run.machine
            .compute_all(&self.copy_flops, "rollback-restore");
        Ok(true)
    }

    /// A fault the iterate survived (stagnation, a false claim): counted
    /// against the budget, then a restart from the true residual.
    fn restart(&mut self, run: &mut Run, s: &mut CgState) -> Hook {
        self.stats.faults_detected += 1;
        if self.stats.rollbacks + self.stats.residual_replacements >= self.max_rollbacks {
            return Err(self.exhausted(run));
        }
        let _s = span::enter("restart");
        self.replace(run, s, false)
    }

    /// The true residual `b − A x`; a non-finite one is a rollback. It
    /// replaces `r`, and the search direction restarts from it, unless
    /// `on_drift` and it is within 1e-4·‖b‖ of the recurrence's.
    fn replace(&mut self, run: &mut Run, s: &mut CgState, on_drift: bool) -> Hook {
        let res_true = run.true_residual(self.a, &s.x, &mut s.q, &mut s.scratch, &mut self.r_true);
        if !res_true.is_finite() {
            return self.rollback(run, s, "non-finite");
        }
        if on_drift {
            let drift_limit = DRIFT_TOLERANCE * run.b_norm.max(f64::MIN_POSITIVE);
            if (res_true - run.stats.residual_norm).abs() <= drift_limit {
                return Ok(false);
            }
            self.stats.faults_detected += 1;
        }
        run.obs.on_restart(run.stats.iterations);
        self.stats.residual_replacements += 1;
        std::mem::swap(&mut s.r, &mut self.r_true);
        s.precondition(run.machine);
        s.rho = run.dot(&s.r, s.z());
        s.p.copy_from(s.z.as_ref().unwrap_or(&s.r));
        run.stats.residual_norm = res_true;
        self.since_improve = 0;
        run.monitor.reset_window();
        if healthy(s.rho) {
            return Ok(true);
        }
        self.rollback(run, s, "non-finite")
    }
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
        assert!(m.trace().iter().any(|e| e.span.contains("rollback")));
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
