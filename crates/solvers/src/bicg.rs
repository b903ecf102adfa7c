//! BiCG, [`crate::Krylov::Bicg`], on one processor: the serial program.

#[cfg(test)]
mod tests {
    use crate::krylov::solve_on_one;
    use crate::{Krylov, NullObserver, SolveStats, SolverError, StopCriterion};
    use hpf_sparse::{gen, CooMatrix, CsrMatrix};

    fn bicg(
        a: &CsrMatrix,
        b: &[f64],
        stop: StopCriterion,
        max_iters: usize,
    ) -> Result<(Vec<f64>, SolveStats), SolverError> {
        let s = solve_on_one(a, b, Krylov::Bicg, stop, max_iters, &mut NullObserver)?;
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

    /// Non-symmetric but well-conditioned test matrix: diagonally
    /// dominant with skewed off-diagonals.
    fn nonsymmetric(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            if i + 1 < n {
                coo.push(i, i + 1, -1.5).unwrap();
                coo.push(i + 1, i, -0.5).unwrap();
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn bicg_solves_symmetric_like_cg() {
        let a = gen::poisson_2d(8, 8);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (x, stats) = bicg(&a, &b, StopCriterion::RelativeResidual(1e-10), 500).unwrap();
        assert!(stats.converged);
        assert!(residual(&a, &x, &b) < 1e-9);
        // On symmetric A, BiCG reduces to CG in iterates.
        let (_, s_cg) = crate::cg::cg(&a, &b, StopCriterion::RelativeResidual(1e-10), 500).unwrap();
        assert_eq!(stats.iterations, s_cg.iterations);
    }

    #[test]
    fn bicg_solves_nonsymmetric_where_cg_fails() {
        let a = nonsymmetric(50);
        assert!(!a.is_symmetric(1e-12));
        let (x_true, b) = gen::rhs_for_known_solution(&a);
        let (x, stats) = bicg(&a, &b, StopCriterion::RelativeResidual(1e-10), 500).unwrap();
        assert!(stats.converged, "BiCG must converge on this system");
        assert!(residual(&a, &x, &b) < 1e-9);
        let err: f64 = x
            .iter()
            .zip(x_true.iter())
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-7);
    }

    #[test]
    fn bicg_uses_transpose_matvecs() {
        // The structural point of E12: one Aᵀ product per iteration.
        let a = nonsymmetric(30);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (_, stats) = bicg(&a, &b, StopCriterion::RelativeResidual(1e-10), 500).unwrap();
        assert_eq!(stats.transpose_matvecs, stats.matvecs);
        assert!(stats.transpose_matvecs > 0);
    }

    #[test]
    fn bicg_dimension_check() {
        let a = nonsymmetric(10);
        assert!(matches!(
            bicg(&a, &[1.0; 3], StopCriterion::RelativeResidual(1e-8), 10),
            Err(SolverError::DimensionMismatch { .. })
        ));
    }
}
