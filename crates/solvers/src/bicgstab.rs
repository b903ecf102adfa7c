//! BiCGSTAB, [`crate::Krylov::Bicgstab`], on one processor: the serial
//! program.

#[cfg(test)]
mod tests {
    use crate::krylov::solve_on_one;
    use crate::{Krylov, NullObserver, SolveStats, SolverError, StopCriterion};
    use hpf_sparse::{gen, CooMatrix, CsrMatrix};

    fn bicgstab(
        a: &CsrMatrix,
        b: &[f64],
        stop: StopCriterion,
        max_iters: usize,
    ) -> Result<(Vec<f64>, SolveStats), SolverError> {
        let s = solve_on_one(a, b, Krylov::Bicgstab, stop, max_iters, &mut NullObserver)?;
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
                coo.push(i, i + 1, -1.7).unwrap();
                coo.push(i + 1, i, -0.3).unwrap();
            }
            if i + 5 < n {
                coo.push(i, i + 5, 0.4).unwrap();
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn bicgstab_solves_spd() {
        let a = gen::poisson_2d(8, 8);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (x, stats) = bicgstab(&a, &b, StopCriterion::RelativeResidual(1e-10), 500).unwrap();
        assert!(stats.converged);
        assert!(residual(&a, &x, &b) < 1e-8);
    }

    #[test]
    fn bicgstab_solves_nonsymmetric_without_transpose() {
        let a = nonsymmetric(60);
        assert!(!a.is_symmetric(1e-12));
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (x, stats) = bicgstab(&a, &b, StopCriterion::RelativeResidual(1e-10), 1000).unwrap();
        assert!(stats.converged);
        assert!(residual(&a, &x, &b) < 1e-9);
        // The structural claim: no Aᵀ, two matvecs per full iteration.
        assert_eq!(stats.transpose_matvecs, 0);
        assert!(stats.matvecs <= 2 * stats.iterations);
        assert!(stats.matvecs >= 2 * stats.iterations - 1); // half-step exit
    }

    #[test]
    fn bicgstab_four_dots_per_iteration() {
        let a = nonsymmetric(40);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let (_, stats) = bicgstab(&a, &b, StopCriterion::RelativeResidual(1e-10), 1000).unwrap();
        // >= 4 true inner products per full iteration (plus norm checks).
        assert!(
            stats.dots >= 4 * stats.iterations,
            "dots {} iterations {}",
            stats.dots,
            stats.iterations
        );
    }

    #[test]
    fn bicgstab_dimension_check() {
        let a = nonsymmetric(10);
        assert!(matches!(
            bicgstab(&a, &[0.0; 2], StopCriterion::RelativeResidual(1e-6), 5),
            Err(SolverError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn bicgstab_zero_rhs() {
        let a = nonsymmetric(10);
        let (x, stats) =
            bicgstab(&a, &[0.0; 10], StopCriterion::RelativeResidual(1e-10), 5).unwrap();
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }
}
