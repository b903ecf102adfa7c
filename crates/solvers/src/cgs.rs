//! CGS, [`crate::Krylov::Cgs`], on one processor: the serial program.

#[cfg(test)]
mod tests {
    use crate::krylov::solve_on_one;
    use crate::{Krylov, NullObserver, SolveStats, SolverError, StopCriterion};
    use hpf_sparse::{gen, CooMatrix, CsrMatrix};

    fn cgs(
        a: &CsrMatrix,
        b: &[f64],
        stop: StopCriterion,
        max_iters: usize,
    ) -> Result<(Vec<f64>, SolveStats), SolverError> {
        let s = solve_on_one(a, b, Krylov::Cgs, stop, max_iters, &mut NullObserver)?;
        Ok((s.x.to_global(), s.stats))
    }

    fn residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x).unwrap();
        let d: f64 = ax
            .iter()
            .zip(b.iter())
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        d / b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300)
    }

    #[test]
    fn cgs_solves_spd_system() {
        let a = gen::poisson_2d(8, 8);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (x, stats) = cgs(&a, &b, StopCriterion::RelativeResidual(1e-10), 500).unwrap();
        assert!(stats.converged);
        assert!(residual(&a, &x, &b) < 1e-8);
    }

    #[test]
    fn cgs_avoids_transpose_but_doubles_matvecs() {
        let a = gen::poisson_2d(6, 6);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (_, stats) = cgs(&a, &b, StopCriterion::RelativeResidual(1e-10), 500).unwrap();
        assert_eq!(stats.transpose_matvecs, 0);
        assert_eq!(stats.matvecs, 2 * stats.iterations);
    }

    #[test]
    fn cgs_solves_mildly_nonsymmetric() {
        let mut coo = CooMatrix::new(40, 40);
        for i in 0..40 {
            coo.push(i, i, 5.0).unwrap();
            if i + 1 < 40 {
                coo.push(i, i + 1, -1.2).unwrap();
                coo.push(i + 1, i, -0.8).unwrap();
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (x, stats) = cgs(&a, &b, StopCriterion::RelativeResidual(1e-10), 500).unwrap();
        assert!(stats.converged);
        assert!(residual(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn cgs_irregular_convergence_or_divergence_is_detected() {
        // A strongly non-normal system: CGS either fails to converge in
        // few iterations, breaks down, or exhibits non-monotone residuals
        // — the paper's "undesirable numerical properties". We assert the
        // API surfaces this honestly rather than silently looping.
        let n = 30;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, 2.5).unwrap(); // strong upper coupling
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        let b = vec![1.0; n];
        match cgs(&a, &b, StopCriterion::RelativeResidual(1e-12), 40) {
            // Honest failures.
            Err(SolverError::Breakdown { .. } | SolverError::NonFinite { .. }) => {}
            Ok((x, stats)) => {
                // Either it failed to converge, or it truly solved it.
                if stats.converged {
                    assert!(residual(&a, &x, &b) < 1e-6);
                } else {
                    assert_eq!(stats.iterations, 40);
                }
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
