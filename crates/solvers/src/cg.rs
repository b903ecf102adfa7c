//! The Conjugate Gradient solver.
//!
//! The iteration structure follows the paper's Section 2 listing and the
//! Figure 2 HPF code verbatim:
//!
//! ```fortran
//! DO k=1,Niter
//!   rho0 = rho
//!   rho  = DOT_PRODUCT(r, r)        ! sdot
//!   beta = rho / rho0
//!   p = beta * p + r                ! saypx
//!   q = 0.0                         ! sparse mat-vect multiply
//!   FORALL( j=1:n ) ...
//!   alpha = rho / DOT_PRODUCT(p, q)
//!   x = x + alpha * p               ! saxpy
//!   r = r - alpha * q               ! saxpy
//!   IF ( stop_criterion ) EXIT
//! END DO
//! ```
//!
//! It runs over [`DistVector`]s and any [`DistOperator`], so every
//! communication the chosen data layout induces is charged to the
//! simulated machine; on one processor it is the serial program.

use crate::error::SolverError;
use crate::krylov::{solve, solve_on_one, Krylov, Run};
use crate::observer::{IterSample, NullObserver};
use crate::operator::DistOperator;
use crate::precond::DistPreconditioner;
use crate::recovery::{Guard, RecoveryConfig, RecoveryStats};
use crate::stopping::{SolveStats, StopCriterion};
use hpf_core::DistVector;
use hpf_machine::{span, Machine};
use hpf_sparse::CsrMatrix;

/// Guard against division by a numerically dead inner product.
pub(crate) fn check_breakdown(what: &'static str, v: f64) -> Result<(), SolverError> {
    if !v.is_finite() || v.abs() < f64::MIN_POSITIVE * 1e16 {
        Err(SolverError::Breakdown { what, value: v })
    } else {
        Ok(())
    }
}

/// The CG update fused with the reduction that reads its result: one
/// pass does `x += alpha*p`, `r -= alpha*q` and `r·r` (a partial sum per
/// processor, merged in rank order). Arithmetic and bits are those of
/// `x.axpy(alpha, p); r.axpy(-alpha, q); r.dot(r)`, and the machine is
/// charged those same four operations one by one under the spans the
/// separate calls ran in — `saxpy`, `saxpy` under `axpy`; `dot-local`,
/// `dot-merge` under `dot` — before the merged scalar passes through the
/// fault layer, as [`DistVector::dot`]'s does. A fused kernel may save
/// memory traffic, never simulated cost.
pub(crate) fn update_x_r_and_dot_rr(
    machine: &mut Machine,
    alpha: f64,
    x: &mut DistVector,
    p: &DistVector,
    r: &mut DistVector,
    q: &DistVector,
) -> f64 {
    for other in [p, &*r, q] {
        assert!(
            x.descriptor().same_layout(other.descriptor()),
            "axpy: operands must be aligned (identical layouts); \
             realign with ALIGN/REDISTRIBUTE first"
        );
    }
    let merged = DistVector::axpy_pair_then_dot(alpha, x, p, r, q);
    {
        let _s = span::enter("axpy");
        x.charge_elementwise(machine, 2, "saxpy");
        x.charge_elementwise(machine, 2, "saxpy");
    }
    let _s = span::enter("dot");
    x.charge_elementwise(machine, 2, "dot-local");
    machine.allreduce(1, "dot-merge");
    machine.corrupt_scalar(merged)
}

/// CG on one processor: [`solve`] by [`Krylov::cg`] at NP = 1, nothing
/// traced — for callers that hold a plain [`CsrMatrix`].
///
/// ```
/// use hpf_solvers::{cg, StopCriterion};
/// use hpf_sparse::gen;
///
/// let a = gen::poisson_2d(8, 8);
/// let (x_true, b) = gen::rhs_for_known_solution(&a);
/// let (x, stats) = cg(&a, &b, StopCriterion::RelativeResidual(1e-10), 1000).unwrap();
/// assert!(stats.converged);
/// assert!(x.iter().zip(&x_true).all(|(u, v)| (u - v).abs() < 1e-6));
/// ```
pub fn cg(
    a: &CsrMatrix,
    b: &[f64],
    stop: StopCriterion,
    max_iters: usize,
) -> Result<(Vec<f64>, SolveStats), SolverError> {
    let s = solve_on_one(a, b, Krylov::cg(), stop, max_iters, &mut NullObserver)?;
    Ok((s.x.to_global(), s.stats))
}

/// Distributed CG (the full Figure 2 program) over any [`DistOperator`]:
/// [`solve`] by [`Krylov::cg`], unobserved.
pub fn cg_distributed<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b: &[f64],
    stop: StopCriterion,
    max_iters: usize,
) -> Result<(DistVector, SolveStats), SolverError> {
    let method = Krylov::cg();
    let s = solve(machine, a, b, method, stop, max_iters, &mut NullObserver)?;
    Ok((s.x, s.stats))
}

/// The Figure 2 loop's vectors and `rho`: what a [`Guard`] saves,
/// restores and restarts.
pub(crate) struct CgState<'m> {
    pub(crate) x: DistVector,
    pub(crate) r: DistVector,
    /// `M⁻¹ r`; `None` without `M`, where `z` *is* `r`.
    pub(crate) z: Option<DistVector>,
    pub(crate) p: DistVector,
    /// `A p`, and the `A x` of every true residual.
    pub(crate) q: DistVector,
    pub(crate) scratch: Vec<f64>,
    pub(crate) rho: f64,
    precond: Option<&'m dyn DistPreconditioner>,
}

impl CgState<'_> {
    pub(crate) fn z(&self) -> &DistVector {
        self.z.as_ref().unwrap_or(&self.r)
    }

    /// `z = M⁻¹ r` under a `precondition` span; nothing without `M`.
    pub(crate) fn precondition(&mut self, machine: &mut Machine) {
        if let (Some(m), Some(z)) = (self.precond, &mut self.z) {
            let _s = span::enter("precondition");
            m.apply_into(machine, &self.r, z);
        }
    }
}

/// The Figure 2 loop, plain or preconditioned, protected or not.
/// Unpreconditioned, `z` *is* `r`: nothing is stored and every use reads
/// `r` instead. Events are span-tagged
/// `solve/iter=k/{matvec,dot,axpy,precondition}`.
///
/// The two forms differ where the recorded traces and observer streams
/// say they do, and nowhere else: plain CG runs its start-up reductions
/// under `setup` and its `saypx` under `axpy`, reads `rho` off the fused
/// update's `r·r`, and reports an iteration before testing convergence
/// (so `beta` is always known); preconditioned CG reports after the
/// test, with `beta = NaN` on the converging iteration.
///
/// Under `recovery`, a [`Guard`]'s hooks run at fixed points of the
/// loop; without one, nothing is called or charged for them.
pub(crate) fn figure2<A: DistOperator + ?Sized>(
    run: &mut Run<'_>,
    a: &A,
    precond: Option<&dyn DistPreconditioner>,
    recovery: Option<RecoveryConfig>,
) -> Result<(DistVector, Option<RecoveryStats>), SolverError> {
    let desc = a.descriptor();
    let r = run.b.clone();
    let z = precond.map(|m| m.apply(run.machine, &r));
    // q, z and the product's scratch live as long as the solve: a
    // steady-state iteration allocates nothing.
    let mut s = CgState {
        x: DistVector::zeros(desc.clone()),
        p: z.as_ref().unwrap_or(&r).clone(),
        q: DistVector::zeros(desc),
        scratch: Vec::new(),
        rho: 0.0,
        r,
        z,
        precond,
    };
    let mut guard = recovery.map(|config| Guard::new(config, a, &s));
    // A guard's hook that rolled the iterate back or restarted it sends
    // the loop back to its top.
    macro_rules! hook {
        ($hook:ident($($arg:expr),*)) => {
            if let Some(g) = &mut guard {
                if g.$hook(run, &mut s, $($arg),*)? {
                    continue;
                }
            }
        };
    }

    let setup_span = precond.is_none().then(|| span::enter("setup"));
    let res = loop {
        run.measure_b();
        s.rho = run.dot(&s.r, s.z());
        let res = match s.z {
            Some(_) => run.dot(&s.r, &s.r).sqrt(),
            None => s.rho.sqrt(),
        };
        hook!(start(res));
        break res;
    };
    drop(setup_span);
    if run.converged(res)? {
        return Ok((s.x, guard.map(|g| g.stats)));
    }

    run.begin_iterations();
    while run.stats.iterations < run.max_iters {
        let _iter_span = span::enter_iter(run.stats.iterations);
        run.matvec(a, &s.p, &mut s.q, &mut s.scratch);
        let pq = {
            let _s = span::enter("dot");
            run.dot(&s.p, &s.q)
        };
        if guard.is_none() {
            check_breakdown("p.Ap", pq)?;
        }
        hook!(positive(pq));
        let alpha = s.rho / pq;
        // x = x + alpha p, r = r - alpha q and r.r in one pass.
        let rr = update_x_r_and_dot_rr(run.machine, alpha, &mut s.x, &s.p, &mut s.r, &s.q);
        run.stats.axpys += 2;
        run.stats.dots += 1;
        hook!(update(rr));
        let sample = IterSample {
            rollbacks: guard.as_ref().map_or(0, |g| g.stats.rollbacks),
            ..run.end_iteration(rr.sqrt(), alpha)
        };
        if precond.is_none() {
            let beta = rr / s.rho;
            run.obs.on_iteration(&IterSample { beta, ..sample });
        }
        if run.converged(sample.residual_norm)? {
            if precond.is_some() {
                run.obs.on_iteration(&sample);
            }
            hook!(claim());
            return Ok((s.x, guard.map(|g| g.stats)));
        }
        let rho_new = match s.z {
            Some(_) => {
                s.precondition(run.machine);
                run.dot(&s.r, s.z())
            }
            None => rr,
        };
        hook!(positive(rho_new));
        check_breakdown("rho", s.rho)?;
        let beta = rho_new / s.rho;
        if precond.is_some() {
            run.obs.on_iteration(&IterSample { beta, ..sample });
        }
        s.rho = rho_new;
        {
            let _s = precond.is_none().then(|| span::enter("axpy"));
            let z = s.z.as_ref().unwrap_or(&s.r);
            s.p.aypx(run.machine, beta, z); // p = beta p + z  (saypx)
        }
        run.stats.axpys += 1;
        hook!(end());
    }
    Ok((s.x, guard.map(|g| g.stats)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_core::{DataArrayLayout, RowwiseCsr};
    use hpf_machine::{CostModel, EventKind, Topology};
    use hpf_sparse::gen;

    fn norm2(v: &[f64]) -> f64 {
        v.iter().map(|d| d * d).sum::<f64>().sqrt()
    }

    fn relative_error(x: &[f64], y: &[f64]) -> f64 {
        let d: Vec<f64> = x.iter().zip(y).map(|(a, b)| a - b).collect();
        norm2(&d) / norm2(y).max(1e-300)
    }

    #[test]
    fn cg_solves_poisson_2d() {
        let a = gen::poisson_2d(10, 10);
        let (x_true, b) = gen::rhs_for_known_solution(&a);
        let (x, stats) = cg(&a, &b, StopCriterion::RelativeResidual(1e-10), 1000).unwrap();
        assert!(stats.converged);
        assert!(relative_error(&x, &x_true) < 1e-8);
        // CG structure: one matvec + ~2 dots per iteration.
        assert_eq!(stats.matvecs, stats.iterations);
        assert_eq!(stats.transpose_matvecs, 0);
    }

    #[test]
    fn cg_solves_banded_and_random() {
        for a in [gen::banded_spd(80, 4, 1), gen::random_spd(80, 5, 2)] {
            let (x_true, b) = gen::rhs_for_known_solution(&a);
            let (x, stats) = cg(&a, &b, StopCriterion::RelativeResidual(1e-10), 2000).unwrap();
            assert!(stats.converged, "CG must converge on SPD");
            assert!(relative_error(&x, &x_true) < 1e-7);
        }
    }

    #[test]
    fn cg_dimension_check() {
        let a = gen::poisson_2d(3, 3);
        let err = cg(&a, &[1.0; 5], StopCriterion::RelativeResidual(1e-8), 10).unwrap_err();
        assert!(matches!(err, SolverError::DimensionMismatch { .. }));
    }

    #[test]
    fn cg_zero_rhs_converges_immediately() {
        let a = gen::poisson_2d(4, 4);
        let (x, stats) = cg(&a, &[0.0; 16], StopCriterion::RelativeResidual(1e-8), 10).unwrap();
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cg_reports_nonconvergence() {
        let a = gen::poisson_2d(12, 12);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (_, stats) = cg(&a, &b, StopCriterion::RelativeResidual(1e-14), 3).unwrap();
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 3);
    }

    #[test]
    fn cg_converges_in_ne_iterations_distinct_eigenvalues() {
        // Section 2: "The CG algorithm will generally converge ... in at
        // most n_e iterations, where n_e is the number of distinct
        // eigenvalues."
        for (eigs, n) in [
            (vec![1.0, 10.0], 16),
            (vec![1.0, 4.0, 9.0], 18),
            (vec![2.0, 3.0, 5.0, 7.0, 11.0], 20),
        ] {
            let a = gen::distinct_eigenvalues(n, &eigs, 4 * n, 7);
            let (_, b) = gen::rhs_for_known_solution(&a);
            let (_, stats) = cg(&a, &b, StopCriterion::RelativeResidual(1e-9), 200).unwrap();
            assert!(stats.converged);
            assert!(
                stats.iterations <= eigs.len(),
                "{} eigenvalues but {} iterations",
                eigs.len(),
                stats.iterations
            );
        }
    }

    #[test]
    fn distributed_cg_per_iteration_comm_structure() {
        // Figure 2's loop: per iteration 1 allgather + 2 dot merges.
        let a = gen::poisson_2d(6, 6);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let np = 4;
        let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        let op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
        let (_, stats) =
            cg_distributed(&mut m, &op, &b, StopCriterion::RelativeResidual(1e-10), 500).unwrap();
        let gathers = m.trace().count(EventKind::AllGather);
        let reduces = m.trace().count(EventKind::AllReduce);
        assert_eq!(gathers, stats.iterations); // one per matvec
        assert_eq!(reduces, stats.dots); // one merge per DOT_PRODUCT
    }

    #[test]
    fn distributed_cg_events_carry_span_paths() {
        let a = gen::poisson_2d(6, 6);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let np = 4;
        let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        let op = RowwiseCsr::block(a, np, DataArrayLayout::RowAligned);
        let mut obs = crate::observer::RecordingObserver::new();
        let stop = StopCriterion::RelativeResidual(1e-10);
        let stats = solve(&mut m, &op, &b, Krylov::cg(), stop, 500, &mut obs)
            .unwrap()
            .stats;
        assert!(stats.converged);
        // Every event recorded inside the loop carries a
        // solve/iter=k/<phase> path; the setup dots carry solve/setup.
        let evs = m.trace().events();
        assert!(evs.iter().all(|e| e.span.starts_with("solve")));
        assert!(evs.iter().any(|e| e.span == "solve/iter=0/matvec"));
        assert!(evs.iter().any(|e| e.span == "solve/iter=0/dot"));
        assert!(evs.iter().any(|e| e.span == "solve/setup"));
        // One telemetry sample per iteration, residuals decreasing
        // overall and alpha/beta finite.
        assert_eq!(obs.samples.len(), stats.iterations);
        assert!(obs.samples.iter().all(|s| s.alpha.is_finite()));
        assert!(obs.samples.iter().all(|s| s.beta.is_finite()));
        assert!(obs.samples.iter().all(|s| s.comm_words > 0));
        assert!(obs.samples.last().unwrap().residual_norm < obs.samples[0].residual_norm);
        // sim_time is cumulative and nondecreasing.
        assert!(obs
            .samples
            .windows(2)
            .all(|w| w[1].sim_time >= w[0].sim_time));
        // The span stack unwound completely.
        assert_eq!(hpf_machine::span::depth(), 0);
    }

    /// The fused update is charged as the three calls it stands for, and
    /// its scalar passes through the fault layer after the merge as
    /// `DistVector::dot`'s does: an armed flip lands on `r·r`, and on
    /// nothing else.
    #[test]
    fn the_fused_update_charges_four_operations_and_its_scalar_meets_the_fault_layer() {
        use hpf_machine::FaultPlan;
        let np = 4;
        let desc = hpf_dist::ArrayDescriptor::block(50, np);
        let vector = |f: fn(usize) -> f64| {
            DistVector::from_global(desc.clone(), &(0..50).map(f).collect::<Vec<_>>())
        };
        let (p, q) = (
            vector(|i| 1.0 + i as f64),
            vector(|i| 0.25 * i as f64 - 3.0),
        );
        let run = |machine: &mut Machine| {
            let (mut x, mut r) = (vector(|i| (i % 7) as f64), vector(|i| 2.0 - (i % 5) as f64));
            let rr = update_x_r_and_dot_rr(machine, 0.375, &mut x, &p, &mut r, &q);
            (x, r, rr)
        };
        let mut clean = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        let (x, r, rr) = run(&mut clean);
        let trace = clean.trace();
        let seen: Vec<_> = trace.iter().map(|e| (e.span, e.label)).collect();
        let want = [
            ("axpy", "saxpy"),
            ("axpy", "saxpy"),
            ("dot", "dot-local"),
            ("dot", "dot-merge"),
        ];
        assert_eq!(seen, want);
        let (mut x_want, mut r_want) =
            (vector(|i| (i % 7) as f64), vector(|i| 2.0 - (i % 5) as f64));
        let mut quiet = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        x_want.axpy(&mut quiet, 0.375, &p);
        r_want.axpy(&mut quiet, -0.375, &q);
        assert_eq!(x, x_want);
        assert_eq!(r, r_want);
        assert_eq!(rr.to_bits(), r_want.dot(&mut quiet, &r_want).to_bits());

        // Operation 3 is the merge; it arms the flip.
        let mut faulty = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
        faulty.set_fault_plan(FaultPlan::new().with_bit_flip(3, 1, 52, 0));
        let (x_hit, r_hit, rr_hit) = run(&mut faulty);
        assert_eq!(faulty.faults_injected(), 1);
        assert_eq!(rr_hit.to_bits(), rr.to_bits() ^ (1 << 52));
        assert_eq!((x_hit, r_hit), (x, r));
    }

    #[test]
    fn serial_cg_observer_sees_every_iteration() {
        let a = gen::poisson_2d(8, 8);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let mut obs = crate::observer::RecordingObserver::new();
        let stop = StopCriterion::RelativeResidual(1e-10);
        let stats = solve_on_one(&a, &b, Krylov::cg(), stop, 1000, &mut obs)
            .unwrap()
            .stats;
        assert!(stats.converged);
        assert_eq!(obs.samples.len(), stats.iterations);
        assert_eq!(obs.samples.last().unwrap().iteration, stats.iterations);
        assert!((obs.samples.last().unwrap().residual_norm - stats.residual_norm).abs() < 1e-300);
    }

    #[test]
    fn breakdown_detected_on_indefinite_system() {
        // An indefinite diagonal matrix makes p.Ap hit zero quickly for a
        // crafted rhs; CG must fail loudly, not loop forever.
        use hpf_sparse::{CooMatrix, CsrMatrix};
        let coo = CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 1, -1.0)]).unwrap();
        let a = CsrMatrix::from_coo(&coo);
        let b = vec![1.0, 1.0];
        let r = cg(&a, &b, StopCriterion::RelativeResidual(1e-12), 50);
        match r {
            Err(SolverError::Breakdown { .. }) => {}
            Ok((_, stats)) => assert!(!stats.converged || stats.residual_norm < 1e-6),
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
