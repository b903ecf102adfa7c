//! Residual-history recording — the convergence *shapes* behind the
//! paper's Section 2.1 judgements ("irregular rates of convergence" for
//! CGS, monotone energy-norm decrease for CG on SPD systems).

use crate::error::SolverError;
use crate::krylov::{solve_on_one, Krylov};
use crate::observer::RecordingObserver;
use crate::stopping::StopCriterion;
use hpf_sparse::CsrMatrix;

/// Run `method` on one processor for `iters` iterations, past convergence,
/// and return `||r_k|| / ||b||` after each iteration, index 0 being the
/// initial residual. A breakdown or a non-finite residual truncates the
/// trace: the values so far are returned, ending in `f64::INFINITY`
/// unless the last one is already non-finite.
pub fn residual_history(
    method: Krylov<'_>,
    a: &CsrMatrix,
    b: &[f64],
    iters: usize,
) -> Result<Vec<f64>, SolverError> {
    // `||r|| <= -1` never holds, so nothing ends the solve early.
    const NEVER: StopCriterion = StopCriterion::AbsoluteResidual(-1.0);
    let mut seen = RecordingObserver::new();
    let end = solve_on_one(a, b, method, NEVER, iters, &mut seen);
    let b_norm = f64::max(
        b.iter().map(|v| v * v).sum::<f64>().sqrt(),
        f64::MIN_POSITIVE,
    );
    let mut hist = vec![1.0];
    hist.extend(seen.residuals().iter().map(|r| r / b_norm));
    match end {
        Ok(_) => {}
        Err(SolverError::Breakdown { .. } | SolverError::NonFinite { .. }) => {
            if hist.last().is_some_and(|h| h.is_finite()) {
                hist.push(f64::INFINITY);
            }
        }
        Err(e) => return Err(e),
    }
    Ok(hist)
}

/// Quantify "irregular rate of convergence": the number of iterations
/// whose residual *increased* over the previous one, divided by the
/// trace length.
pub fn nonmonotonicity(history: &[f64]) -> f64 {
    if history.len() < 2 {
        return 0.0;
    }
    let ups = history
        .windows(2)
        .filter(|w| w[1] > w[0] && w[1].is_finite())
        .count();
    ups as f64 / (history.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpf_sparse::{gen, CooMatrix, CsrMatrix};

    #[test]
    fn cg_history_is_recorded_and_converges() {
        let a = gen::poisson_2d(8, 8);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let h = residual_history(Krylov::cg(), &a, &b, 200).unwrap();
        assert_eq!(h[0], 1.0);
        assert!(h.last().unwrap() < &1e-10);
        assert!(h.len() > 10);
    }

    #[test]
    fn cgs_is_less_monotone_than_cg_on_tough_systems() {
        // The §2.1 "irregular rates of convergence" claim, quantified.
        let n = 60;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.4).unwrap();
                coo.push(i + 1, i, -0.6).unwrap();
            }
            if i + 4 < n {
                coo.push(i, i + 4, 0.5).unwrap();
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let h_cgs = residual_history(Krylov::Cgs, &a, &b, 60).unwrap();
        let h_bs = residual_history(Krylov::Bicgstab, &a, &b, 60).unwrap();
        let rough_cgs = nonmonotonicity(&h_cgs);
        let rough_bs = nonmonotonicity(&h_bs);
        // CGS must show residual growth somewhere (irregularity), and be
        // at least as rough as its stabilised variant.
        assert!(rough_cgs > 0.0, "CGS history unexpectedly monotone");
        assert!(
            rough_cgs >= rough_bs,
            "CGS {rough_cgs} should be rougher than BiCGSTAB {rough_bs}"
        );
    }

    #[test]
    fn nonmonotonicity_metric() {
        assert_eq!(nonmonotonicity(&[1.0, 0.5, 0.25]), 0.0);
        assert_eq!(nonmonotonicity(&[1.0, 2.0, 0.5, 4.0]), 2.0 / 3.0);
        assert_eq!(nonmonotonicity(&[1.0]), 0.0);
    }

    #[test]
    fn history_dimension_check() {
        let a = gen::poisson_2d(3, 3);
        assert!(residual_history(Krylov::cg(), &a, &[1.0; 4], 5).is_err());
    }
}
