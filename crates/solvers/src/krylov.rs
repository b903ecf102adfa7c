//! One driver for the distributed Krylov family.
//!
//! The paper's Section 2 treats CG, BiCG, CGS, BiCGSTAB and GMRES as one
//! family with one operation table. [`solve`] is that family's single
//! entry point: it owns what every member shares — the `solve` span,
//! the dimension check, the distributed right-hand side, the residual
//! monitor, the operation counts and the per-iteration telemetry — and
//! hands a [`Run`] to one recurrence function per [`Krylov`] variant
//! ([`crate::cg`], protected by [`crate::recovery`]'s hooks, and
//! [`crate::dist_solvers`]). A recurrence owns its vectors and product
//! scratch for the length of the solve and nothing else; a new method
//! is one more variant and one more such function.

use crate::error::SolverError;
use crate::observer::{IterObserver, IterSample, MachineMark};
use crate::operator::DistOperator;
use crate::precond::DistPreconditioner;
use crate::recovery::{RecoveryConfig, RecoveryStats};
use crate::stopping::{ResidualMonitor, SolveStats, StopCriterion};
use crate::{cg, dist_solvers};
use hpf_core::{DataArrayLayout, DistVector, RowwiseCsr};
use hpf_machine::{span, Machine, TraceLevel};
use hpf_sparse::CsrMatrix;

/// Which recurrence [`solve`] runs.
///
/// Preconditioning and checkpoint/rollback protection exist on CG only:
/// the recovery detectors read `p·Ap ≤ 0` and `rho < 0` as corruption,
/// which holds for symmetric positive-definite operators and no others.
#[derive(Clone, Copy)]
pub enum Krylov<'a> {
    /// The Figure 2 loop, one body for all four forms: `z = M⁻¹ r` through
    /// `precond`, self-healing under `recovery` ([`crate::recovery`]'s hooks).
    Cg {
        precond: Option<&'a dyn DistPreconditioner>,
        recovery: Option<RecoveryConfig>,
    },
    /// BiCG: one `A` and one `Aᵀ` product an iteration.
    Bicg,
    /// BiCGSTAB: two `A` products, four inner products, no `Aᵀ`.
    Bicgstab,
    /// CGS: two `A` products, no `Aᵀ`; may diverge.
    Cgs,
    /// Restarted GMRES(`restart`); `restart` must be at least 1.
    Gmres { restart: usize },
}

impl Krylov<'_> {
    /// Plain CG: no preconditioner, no protection.
    pub const fn cg() -> Self {
        Krylov::Cg {
            precond: None,
            recovery: None,
        }
    }
}

/// What [`solve`] returns.
#[derive(Debug, Clone)]
pub struct Solution {
    pub x: DistVector,
    pub stats: SolveStats,
    /// What the checkpoint/rollback machinery did; `Some` exactly when
    /// the method asked for protection.
    pub recovery: Option<RecoveryStats>,
}

/// Solve `A x = b` on the simulated machine by `method`, from `x = 0`,
/// until `stop` holds or `max_iters` iterations have run. Every
/// communication the operator's layout induces is charged to `machine`
/// under `solve/iter=k/<phase>` spans, and `obs` is told of every
/// iteration (pass [`crate::NullObserver`] to ignore them).
pub fn solve<A: DistOperator + ?Sized>(
    machine: &mut Machine,
    a: &A,
    b_global: &[f64],
    method: Krylov<'_>,
    stop: StopCriterion,
    max_iters: usize,
    obs: &mut dyn IterObserver,
) -> Result<Solution, SolverError> {
    let _solve_span = span::enter("solve");
    let n = a.dim();
    if b_global.len() != n {
        return Err(SolverError::DimensionMismatch {
            expected: n,
            got: b_global.len(),
        });
    }
    if let Krylov::Gmres { restart: 0 } = method {
        return Err(SolverError::ZeroRestart);
    }
    let mut run = Run {
        // !HPF$ ALIGN (:) WITH p(:) :: q, r, x, b
        b: DistVector::from_global(a.descriptor(), b_global),
        b_norm: 0.0,
        stats: SolveStats::new(),
        stop,
        max_iters,
        monitor: ResidualMonitor::new(stop),
        mark: MachineMark::default(),
        machine,
        obs,
    };
    let (x, recovery) = match method {
        Krylov::Cg { precond, recovery } => cg::figure2(&mut run, a, precond, recovery)?,
        Krylov::Bicg => (dist_solvers::bicg(&mut run, a)?, None),
        Krylov::Bicgstab => (dist_solvers::bicgstab(&mut run, a)?, None),
        Krylov::Cgs => (dist_solvers::cgs(&mut run, a)?, None),
        Krylov::Gmres { restart } => (dist_solvers::gmres(&mut run, a, restart)?, None),
    };
    Ok(Solution {
        x,
        stats: run.stats,
        recovery,
    })
}

/// [`solve`] on a one-processor machine that keeps no events, with `a`
/// in the row layout: what the entry points over a plain [`CsrMatrix`]
/// run.
pub(crate) fn solve_on_one(
    a: &CsrMatrix,
    b: &[f64],
    method: Krylov<'_>,
    stop: StopCriterion,
    max_iters: usize,
    obs: &mut dyn IterObserver,
) -> Result<Solution, SolverError> {
    let mut machine = Machine::hypercube(1);
    machine.set_trace_level(TraceLevel::Off);
    let op = RowwiseCsr::block(a.clone(), 1, DataArrayLayout::RowAligned);
    solve(&mut machine, &op, b, method, stop, max_iters, obs)
}

/// What every recurrence shares for the length of one solve.
pub(crate) struct Run<'a> {
    pub(crate) machine: &'a mut Machine,
    /// The right-hand side on the operator's descriptor.
    pub(crate) b: DistVector,
    /// `‖b‖` once [`Run::measure_b`] has charged its reduction.
    pub(crate) b_norm: f64,
    pub(crate) stats: SolveStats,
    pub(crate) stop: StopCriterion,
    pub(crate) max_iters: usize,
    pub(crate) monitor: ResidualMonitor,
    pub(crate) obs: &'a mut dyn IterObserver,
    /// Where the last sample's flop/word/clock attribution stopped.
    mark: MachineMark,
}

impl Run<'_> {
    /// `‖b‖`: one counted reduction, charged where the recurrence asks.
    pub(crate) fn measure_b(&mut self) {
        self.stats.dots += 1;
        self.b_norm = self.b.dot(self.machine, &self.b).sqrt();
    }

    /// `u·v`, counted and charged.
    pub(crate) fn dot(&mut self, u: &DistVector, v: &DistVector) -> f64 {
        self.stats.dots += 1;
        u.dot(self.machine, v)
    }

    /// `q = A p` under a `matvec` span, counted and charged.
    pub(crate) fn matvec<A: DistOperator + ?Sized>(
        &mut self,
        a: &A,
        p: &DistVector,
        q: &mut DistVector,
        scratch: &mut Vec<f64>,
    ) {
        let _s = span::enter("matvec");
        self.stats.matvecs += 1;
        a.apply_into(self.machine, p, q, scratch);
    }

    /// `r = b − A x` through `ax`, and `‖r‖`: one product, one saxpy and
    /// one reduction, under whatever span the caller holds.
    pub(crate) fn true_residual<A: DistOperator + ?Sized>(
        &mut self,
        a: &A,
        x: &DistVector,
        ax: &mut DistVector,
        scratch: &mut Vec<f64>,
        r: &mut DistVector,
    ) -> f64 {
        self.stats.matvecs += 1;
        a.apply_into(self.machine, x, ax, scratch);
        r.copy_from(&self.b);
        self.stats.axpys += 1;
        r.axpy(self.machine, -1.0, ax);
        self.dot(r, r).sqrt()
    }

    /// Feed the monitor one residual norm: `Ok(true)` claims
    /// convergence, `Err` is a typed abort.
    pub(crate) fn observe(&mut self, residual_norm: f64) -> Result<bool, SolverError> {
        self.monitor.observe(residual_norm, self.b_norm)
    }

    /// [`Run::observe`] for a residual norm that ends the solve if it
    /// passes: recorded in the stats, and `converged` with it.
    pub(crate) fn converged(&mut self, residual_norm: f64) -> Result<bool, SolverError> {
        self.stats.residual_norm = residual_norm;
        self.stats.converged = self.observe(residual_norm)?;
        Ok(self.stats.converged)
    }

    /// Start attributing machine work to iterations from here (set-up,
    /// or a GMRES restart's residual, belongs to no sample).
    pub(crate) fn begin_iterations(&mut self) {
        self.mark = MachineMark::take(self.machine);
    }

    /// Close an iteration: count it, record its residual norm, and read
    /// off the sample — the flops and words charged since the last one,
    /// the simulated and predicted clocks. `beta` is `NaN` and
    /// `rollbacks` 0 until the recurrence says otherwise.
    pub(crate) fn end_iteration(&mut self, residual_norm: f64, alpha: f64) -> IterSample {
        self.stats.iterations += 1;
        self.stats.residual_norm = residual_norm;
        let (flops, comm_words) = self.mark.delta(self.machine);
        IterSample {
            iteration: self.stats.iterations,
            residual_norm,
            alpha,
            beta: f64::NAN,
            flops,
            comm_words,
            sim_time: self.machine.elapsed(),
            predicted_time: self.mark.predicted(),
            rollbacks: 0,
        }
    }
}
