//! Stopping criteria and per-solve statistics.
//!
//! The paper's Figure 2 loop exits on `IF ( stop_criterion ) EXIT`; the
//! conventional criterion is a relative residual drop. [`SolveStats`]
//! additionally records the operation counts the paper's Section 2
//! analysis is based on ("the work per iteration is modest, amounting to
//! a single matrix-vector multiplication ..., two inner products ..., and
//! several SAXPY operations").

use crate::error::SolverError;
use std::collections::VecDeque;

/// When to declare convergence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopCriterion {
    /// `||r|| <= tol * ||b||`.
    RelativeResidual(f64),
    /// `||r|| <= tol`.
    AbsoluteResidual(f64),
    /// A progress *guard* rather than a tolerance: the solve keeps
    /// iterating while the residual drops by at least the fraction
    /// `min_drop` over each trailing `window` of iterations, and a
    /// [`ResidualMonitor`] aborts with [`SolverError::Stagnation`] when
    /// it stops doing so — a hostile input terminates with a typed error
    /// instead of burning `max_iters`. As a convergence test it only
    /// fires at the machine-precision floor `||r|| <= ε·||b||`.
    Stagnation { window: usize, min_drop: f64 },
}

impl StopCriterion {
    pub fn satisfied(&self, residual_norm: f64, b_norm: f64) -> bool {
        match *self {
            StopCriterion::RelativeResidual(tol) => {
                residual_norm <= tol * b_norm.max(f64::MIN_POSITIVE)
            }
            StopCriterion::AbsoluteResidual(tol) => residual_norm <= tol,
            StopCriterion::Stagnation { .. } => {
                residual_norm <= f64::EPSILON * b_norm.max(f64::MIN_POSITIVE)
            }
        }
    }
}

/// Stateful residual watcher used by the iterative solvers: combines the
/// convergence test with two abort guards — a non-finite residual is a
/// typed [`SolverError::NonFinite`] (never silently iterated on), and
/// under [`StopCriterion::Stagnation`] a residual that stops improving
/// becomes a typed [`SolverError::Stagnation`].
#[derive(Debug, Clone)]
pub struct ResidualMonitor {
    criterion: StopCriterion,
    history: VecDeque<f64>,
    observed: usize,
}

impl ResidualMonitor {
    pub fn new(criterion: StopCriterion) -> Self {
        ResidualMonitor {
            criterion,
            history: VecDeque::new(),
            observed: 0,
        }
    }

    /// Feed one residual norm. `Ok(true)` means converged, `Ok(false)`
    /// means keep iterating, `Err` is a typed abort.
    pub fn observe(&mut self, residual_norm: f64, b_norm: f64) -> Result<bool, SolverError> {
        if !residual_norm.is_finite() {
            return Err(SolverError::NonFinite {
                what: "residual norm",
                value: residual_norm,
            });
        }
        if self.criterion.satisfied(residual_norm, b_norm) {
            return Ok(true);
        }
        if let StopCriterion::Stagnation { window, min_drop } = self.criterion {
            let window = window.max(1);
            self.history.push_back(residual_norm);
            if self.history.len() > window {
                let oldest = self.history.pop_front().expect("non-empty");
                if residual_norm > oldest * (1.0 - min_drop) {
                    return Err(SolverError::Stagnation {
                        iterations: self.observed,
                        window,
                        residual_norm,
                    });
                }
            }
        }
        self.observed += 1;
        Ok(false)
    }

    /// Forget the trailing history (rollback support: replayed
    /// iterations should not be compared against pre-fault residuals).
    pub fn reset_window(&mut self) {
        self.history.clear();
    }
}

/// Outcome and operation counts of an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    pub iterations: usize,
    pub converged: bool,
    pub residual_norm: f64,
    /// `A·x` products performed.
    pub matvecs: usize,
    /// `Aᵀ·x` products performed (BiCG only).
    pub transpose_matvecs: usize,
    /// Inner products performed.
    pub dots: usize,
    /// SAXPY-class vector updates performed.
    pub axpys: usize,
}

impl SolveStats {
    pub fn new() -> Self {
        SolveStats {
            iterations: 0,
            converged: false,
            residual_norm: f64::INFINITY,
            matvecs: 0,
            transpose_matvecs: 0,
            dots: 0,
            axpys: 0,
        }
    }
}

impl Default for SolveStats {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-iteration operation structure of each algorithm, as tabulated in
/// the paper's Section 2/2.1 discussion. `storage_vectors` counts the
/// working n-vectors beyond the matrix (CG: x, r, p, q).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgorithmProfile {
    pub name: &'static str,
    pub matvecs_per_iter: usize,
    pub transpose_matvecs_per_iter: usize,
    pub dots_per_iter: usize,
    pub storage_vectors: usize,
    /// Whether the method applies to non-symmetric systems.
    pub handles_nonsymmetric: bool,
}

/// CG: 1 matvec, 2 dots, 4 vectors (x, r, p, q).
pub const CG_PROFILE: AlgorithmProfile = AlgorithmProfile {
    name: "CG",
    matvecs_per_iter: 1,
    transpose_matvecs_per_iter: 0,
    dots_per_iter: 2,
    storage_vectors: 4,
    handles_nonsymmetric: false,
};

/// BiCG: "two matrix-vector multiply operations one of which uses the
/// matrix transpose", two dots, "three extra vectors" over CG.
pub const BICG_PROFILE: AlgorithmProfile = AlgorithmProfile {
    name: "BiCG",
    matvecs_per_iter: 1,
    transpose_matvecs_per_iter: 1,
    dots_per_iter: 2,
    storage_vectors: 7,
    handles_nonsymmetric: true,
};

/// CGS: avoids Aᵀ "but also requires additional vectors of storage over
/// the basic CG".
pub const CGS_PROFILE: AlgorithmProfile = AlgorithmProfile {
    name: "CGS",
    matvecs_per_iter: 2,
    transpose_matvecs_per_iter: 0,
    dots_per_iter: 2,
    storage_vectors: 8,
    handles_nonsymmetric: true,
};

/// BiCGSTAB: "also uses two matrix vector operations but avoids using
/// Aᵀ ... It does however involve four inner products".
pub const BICGSTAB_PROFILE: AlgorithmProfile = AlgorithmProfile {
    name: "BiCGSTAB",
    matvecs_per_iter: 2,
    transpose_matvecs_per_iter: 0,
    dots_per_iter: 4,
    storage_vectors: 8,
    handles_nonsymmetric: true,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_criterion() {
        let c = StopCriterion::RelativeResidual(1e-6);
        assert!(c.satisfied(1e-7, 1.0));
        assert!(!c.satisfied(1e-5, 1.0));
        assert!(c.satisfied(1e-3, 1e4));
    }

    #[test]
    fn absolute_criterion_ignores_b() {
        let c = StopCriterion::AbsoluteResidual(1e-6);
        assert!(c.satisfied(1e-7, 1e-30));
        assert!(!c.satisfied(1e-5, 1e30));
    }

    #[test]
    fn zero_b_norm_does_not_divide_by_zero() {
        let c = StopCriterion::RelativeResidual(1e-6);
        assert!(c.satisfied(0.0, 0.0));
        assert!(!c.satisfied(1.0, 0.0));
    }

    #[test]
    fn stagnation_guard_aborts_flat_residuals() {
        let mut mon = ResidualMonitor::new(StopCriterion::Stagnation {
            window: 4,
            min_drop: 0.1,
        });
        // Healthy start: residual halves each step.
        let mut r = 1.0;
        for _ in 0..6 {
            assert_eq!(mon.observe(r, 1.0), Ok(false));
            r *= 0.5;
        }
        // Then it flatlines: after `window` flat observations, abort.
        let mut aborted = false;
        for _ in 0..6 {
            match mon.observe(r, 1.0) {
                Ok(false) => {}
                Err(SolverError::Stagnation { window, .. }) => {
                    assert_eq!(window, 4);
                    aborted = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(aborted, "flat residual must trip the guard");
    }

    #[test]
    fn stagnation_window_reset_forgives_history() {
        let mut mon = ResidualMonitor::new(StopCriterion::Stagnation {
            window: 2,
            min_drop: 0.5,
        });
        assert_eq!(mon.observe(1.0, 1.0), Ok(false));
        assert_eq!(mon.observe(1.0, 1.0), Ok(false));
        mon.reset_window(); // rollback happened; start the window over
        assert_eq!(mon.observe(1.0, 1.0), Ok(false));
        assert_eq!(mon.observe(1.0, 1.0), Ok(false));
        assert!(mon.observe(1.0, 1.0).is_err());
    }

    #[test]
    fn monitor_rejects_non_finite_residuals() {
        let mut mon = ResidualMonitor::new(StopCriterion::RelativeResidual(1e-8));
        assert_eq!(mon.observe(0.5, 1.0), Ok(false));
        assert!(matches!(
            mon.observe(f64::NAN, 1.0),
            Err(SolverError::NonFinite { .. })
        ));
        assert!(matches!(
            mon.observe(f64::INFINITY, 1.0),
            Err(SolverError::NonFinite { .. })
        ));
    }

    #[test]
    fn monitor_reports_convergence_like_the_criterion() {
        let mut mon = ResidualMonitor::new(StopCriterion::AbsoluteResidual(1e-6));
        assert_eq!(mon.observe(1e-3, 1.0), Ok(false));
        assert_eq!(mon.observe(1e-7, 1.0), Ok(true));
    }

    #[test]
    fn stagnation_converges_only_at_machine_precision() {
        let c = StopCriterion::Stagnation {
            window: 10,
            min_drop: 0.01,
        };
        assert!(!c.satisfied(1e-8, 1.0));
        assert!(c.satisfied(1e-17, 1.0));
    }

    #[test]
    fn profiles_match_paper_claims() {
        // BiCG needs the transpose; the others do not.
        assert_eq!(BICG_PROFILE.transpose_matvecs_per_iter, 1);
        assert_eq!(CG_PROFILE.transpose_matvecs_per_iter, 0);
        assert_eq!(BICGSTAB_PROFILE.transpose_matvecs_per_iter, 0);
        // BiCGSTAB does four inner products, CG two.
        assert_eq!(BICGSTAB_PROFILE.dots_per_iter, 4);
        assert_eq!(CG_PROFILE.dots_per_iter, 2);
        // BiCG stores three extra vectors over CG.
        assert_eq!(BICG_PROFILE.storage_vectors - CG_PROFILE.storage_vectors, 3);
        // Only CG is restricted to symmetric systems.
        let profiles = [CG_PROFILE, BICG_PROFILE, CGS_PROFILE, BICGSTAB_PROFILE];
        let symmetric_only: Vec<&str> = profiles
            .iter()
            .filter(|p| !p.handles_nonsymmetric)
            .map(|p| p.name)
            .collect();
        assert_eq!(symmetric_only, vec!["CG"]);
    }
}
