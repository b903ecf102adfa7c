//! Spectral estimates and the classical CG convergence bound.
//!
//! Section 2 of the paper ties CG's convergence to the spectrum: "the CG
//! algorithm will generally converge ... in at most n_e iterations,
//! where n_e is the number of distinct eigenvalues ... in cases where A
//! has many distinct eigenvalues and those eigenvalues vary widely in
//! magnitude, the CG algorithm may require a large number of iterations."
//! The quantitative version is the classical energy-norm bound
//!
//! `||e_k||_A <= 2 ((sqrt(κ) - 1) / (sqrt(κ) + 1))^k ||e_0||_A`
//!
//! with `κ = λ_max / λ_min`. This module estimates the extreme
//! eigenvalues by power iteration (λ_max directly; λ_min via power
//! iteration on the spectral complement `λ_max·I − A`) and exposes the
//! bound for tests and reports.

use crate::error::SolverError;
use hpf_sparse::CsrMatrix;

fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Result of a power-iteration eigenvalue estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EigEstimate {
    pub value: f64,
    pub iterations: usize,
    /// Relative change of the estimate at termination.
    pub residual: f64,
}

/// Largest-magnitude eigenvalue of a symmetric matrix by power
/// iteration (deterministic start vector).
pub fn power_method(a: &CsrMatrix, tol: f64, max_iters: usize) -> Result<EigEstimate, SolverError> {
    dominant(a, None, tol, max_iters)
}

/// Power iteration on `A`, or on `shift·I − A` when there is a shift.
fn dominant(
    a: &CsrMatrix,
    shift: Option<f64>,
    tol: f64,
    max_iters: usize,
) -> Result<EigEstimate, SolverError> {
    let n = a.n_rows();
    if n == 0 || !a.is_square() {
        return Err(SolverError::NotSquare {
            rows: n,
            cols: a.n_cols(),
        });
    }
    // Deterministic, unlikely-to-be-orthogonal start.
    let mut v: Vec<f64> = (0..n)
        .map(|i| 1.0 + ((i * 2654435761) % 97) as f64 / 97.0)
        .collect();
    let nv = norm2(&v);
    v.iter_mut().for_each(|x| *x /= nv);
    let estimate = |value, iterations, residual| EigEstimate {
        value,
        iterations,
        residual,
    };
    let mut lambda = 0.0f64;
    for k in 1..=max_iters {
        let mut w = a.matvec(&v).expect("square, checked above");
        if let Some(shift) = shift {
            for (wi, xi) in w.iter_mut().zip(&v) {
                *wi = shift * xi - *wi;
            }
        }
        let nw = norm2(&w);
        if nw < f64::MIN_POSITIVE * 1e16 {
            // v is (numerically) in the null space: eigenvalue 0.
            return Ok(estimate(0.0, k, 0.0));
        }
        // Rayleigh quotient (v normalised).
        let new_lambda: f64 = v.iter().zip(w.iter()).map(|(x, y)| x * y).sum();
        let rel = (new_lambda - lambda).abs() / new_lambda.abs().max(1e-300);
        lambda = new_lambda;
        v = w.iter().map(|x| x / nw).collect();
        if rel < tol && k > 3 {
            return Ok(estimate(lambda, k, rel));
        }
    }
    Ok(estimate(lambda, max_iters, f64::NAN))
}

/// Extreme-eigenvalue and condition-number estimate for a symmetric
/// positive-definite matrix: λ_max by power iteration, λ_min by power
/// iteration on `λ_max·I − A` (whose dominant eigenvalue is
/// `λ_max − λ_min`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpdSpectrum {
    pub lambda_max: f64,
    pub lambda_min: f64,
    pub condition: f64,
}

/// Estimate the SPD spectrum bounds.
pub fn estimate_spd_spectrum(
    a: &CsrMatrix,
    tol: f64,
    max_iters: usize,
) -> Result<SpdSpectrum, SolverError> {
    let lambda_max = power_method(a, tol, max_iters)?.value;
    if lambda_max <= 0.0 {
        return Err(SolverError::Breakdown {
            what: "lambda_max",
            value: lambda_max,
        });
    }
    // Slight over-shift keeps the complement PSD under estimate error.
    let shift = lambda_max * 1.0001;
    let comp = dominant(a, Some(shift), tol, max_iters)?;
    let lambda_min = (shift - comp.value).max(f64::MIN_POSITIVE);
    Ok(SpdSpectrum {
        lambda_max,
        lambda_min,
        condition: lambda_max / lambda_min,
    })
}

/// The classical CG energy-norm error bound after `k` iterations for
/// condition number `kappa`: `2 ((sqrt(κ)-1)/(sqrt(κ)+1))^k`.
pub fn cg_error_bound(kappa: f64, k: usize) -> f64 {
    assert!(kappa >= 1.0, "condition number is at least 1");
    let s = kappa.sqrt();
    let rho = (s - 1.0) / (s + 1.0);
    2.0 * rho.powi(k as i32)
}

/// Iterations predicted by the bound to reach relative energy error
/// `eps`.
pub fn cg_iterations_for(kappa: f64, eps: f64) -> usize {
    assert!(eps > 0.0 && eps < 1.0);
    if kappa <= 1.0 + 1e-12 {
        return 1;
    }
    let s = kappa.sqrt();
    let rho = (s - 1.0) / (s + 1.0);
    ((eps / 2.0).ln() / rho.ln()).ceil().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stopping::StopCriterion;
    use hpf_sparse::gen;

    #[test]
    fn power_method_on_diagonal_matrix() {
        let a = gen::distinct_eigenvalues(8, &[1.0, 3.0, 7.0], 0, 0); // pure diagonal
        let est = power_method(&a, 1e-12, 1000).unwrap();
        assert!((est.value - 7.0).abs() < 1e-6, "{est:?}");
    }

    #[test]
    fn spectrum_of_tridiagonal_matches_theory() {
        // tri(-1, 2, -1): eigenvalues 2 - 2 cos(k pi / (n+1)).
        let n = 40;
        let a = gen::tridiagonal(n, 2.0, -1.0);
        let sp = estimate_spd_spectrum(&a, 1e-12, 200_000).unwrap();
        let theory_max = 2.0 - 2.0 * (n as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
        let theory_min = 2.0 - 2.0 * (std::f64::consts::PI / (n as f64 + 1.0)).cos();
        assert!(
            (sp.lambda_max - theory_max).abs() / theory_max < 1e-3,
            "max {} vs {}",
            sp.lambda_max,
            theory_max
        );
        assert!(
            (sp.lambda_min - theory_min).abs() / theory_min < 0.05,
            "min {} vs {}",
            sp.lambda_min,
            theory_min
        );
    }

    #[test]
    fn cg_obeys_the_kappa_bound() {
        // Actual CG iterations <= the bound's prediction on Poisson.
        let a = gen::poisson_2d(12, 12);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let sp = estimate_spd_spectrum(&a, 1e-10, 100_000).unwrap();
        let eps = 1e-9;
        let predicted = cg_iterations_for(sp.condition, eps);
        let (_, stats) =
            crate::cg::cg(&a, &b, StopCriterion::RelativeResidual(eps), 10_000).unwrap();
        assert!(stats.converged);
        // The energy-norm bound is pessimistic for the 2-norm criterion
        // but must not be *violated* by a large factor; allow slack 2x
        // for the norm mismatch.
        assert!(
            stats.iterations <= 2 * predicted,
            "CG took {} iterations, bound predicts {}",
            stats.iterations,
            predicted
        );
    }

    #[test]
    fn bound_decreases_geometrically() {
        let b1 = cg_error_bound(100.0, 10);
        let b2 = cg_error_bound(100.0, 20);
        assert!(b2 < b1);
        // Perfectly conditioned: bound collapses immediately.
        assert!(cg_error_bound(1.0, 1) < 1e-12);
        // Worse conditioning -> slower rate.
        assert!(cg_error_bound(1e4, 10) > cg_error_bound(1e2, 10));
    }

    #[test]
    fn iterations_for_grows_with_kappa() {
        assert!(cg_iterations_for(1e4, 1e-8) > cg_iterations_for(1e2, 1e-8));
        assert_eq!(cg_iterations_for(1.0, 1e-8), 1);
    }
}
