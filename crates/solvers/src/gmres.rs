//! Restarted GMRES, [`crate::Krylov::Gmres`]: its storage ledger, and
//! on one processor the serial program.

/// Stored n-vectors of GMRES(m): the basis (m+1) plus x, r, w — the
/// "greater storage" of the paper's remark, versus CG's 4.
pub fn gmres_storage_vectors(restart: usize) -> usize {
    restart + 1 + 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::solve_on_one;
    use crate::{Krylov, NullObserver, SolveStats, SolverError, StopCriterion};
    use hpf_sparse::{gen, CooMatrix, CsrMatrix};

    fn gmres(
        a: &CsrMatrix,
        b: &[f64],
        restart: usize,
        stop: StopCriterion,
        max_iters: usize,
    ) -> Result<(Vec<f64>, SolveStats), SolverError> {
        let method = Krylov::Gmres { restart };
        let s = solve_on_one(a, b, method, stop, max_iters, &mut NullObserver)?;
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

    fn nonsymmetric(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.8).unwrap();
                coo.push(i + 1, i, -0.2).unwrap();
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn gmres_solves_spd() {
        let a = gen::poisson_2d(8, 8);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (x, stats) = gmres(&a, &b, 30, StopCriterion::RelativeResidual(1e-10), 2000).unwrap();
        assert!(stats.converged, "{stats:?}");
        assert!(residual(&a, &x, &b) < 1e-8);
    }

    #[test]
    fn gmres_solves_strongly_nonsymmetric() {
        // A strongly non-normal (but numerically tractable) upper
        // bidiagonal system: GMRES handles what makes CGS misbehave.
        let n = 30;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, 1.5).unwrap();
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        let b = vec![1.0; n];
        let (x, stats) = gmres(&a, &b, n, StopCriterion::RelativeResidual(1e-8), 10 * n).unwrap();
        assert!(stats.converged, "{stats:?}");
        assert!(residual(&a, &x, &b) < 1e-6);
    }

    #[test]
    fn gmres_full_converges_within_n_iterations() {
        let a = nonsymmetric(30);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (_, stats) = gmres(&a, &b, 30, StopCriterion::RelativeResidual(1e-12), 60).unwrap();
        assert!(stats.converged);
        assert!(stats.iterations <= 30, "{}", stats.iterations);
    }

    #[test]
    fn restarting_trades_storage_for_iterations() {
        let a = gen::poisson_2d(10, 10);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let stop = StopCriterion::RelativeResidual(1e-8);
        let (_, s_small) = gmres(&a, &b, 5, stop, 10_000).unwrap();
        let (_, s_large) = gmres(&a, &b, 50, stop, 10_000).unwrap();
        assert!(s_small.converged && s_large.converged);
        assert!(
            s_large.iterations <= s_small.iterations,
            "GMRES(50) {} vs GMRES(5) {}",
            s_large.iterations,
            s_small.iterations
        );
        // And the storage ledger shows why (the paper's remark).
        assert!(gmres_storage_vectors(50) > gmres_storage_vectors(5));
        assert_eq!(gmres_storage_vectors(5), 9);
    }

    #[test]
    fn gmres_dimension_check_and_zero_rhs() {
        let a = nonsymmetric(10);
        assert!(matches!(
            gmres(&a, &[1.0; 3], 5, StopCriterion::RelativeResidual(1e-8), 10),
            Err(SolverError::DimensionMismatch { .. })
        ));
        let (x, stats) =
            gmres(&a, &[0.0; 10], 5, StopCriterion::RelativeResidual(1e-8), 10).unwrap();
        assert!(stats.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    /// A typed error, not an `assert!`.
    #[test]
    fn gmres_with_a_zero_restart_is_a_typed_error() {
        let a = nonsymmetric(10);
        let out = gmres(&a, &[1.0; 10], 0, StopCriterion::RelativeResidual(1e-8), 10);
        assert!(matches!(out, Err(SolverError::ZeroRestart)), "{out:?}");
    }

    #[test]
    fn gmres_nonconvergence_reported() {
        let a = gen::poisson_2d(10, 10);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (_, stats) = gmres(&a, &b, 3, StopCriterion::RelativeResidual(1e-14), 4).unwrap();
        assert!(!stats.converged);
        assert!(stats.iterations <= 4 + 3);
    }
}
