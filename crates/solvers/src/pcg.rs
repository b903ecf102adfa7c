//! Preconditioned CG — [`crate::Krylov::Cg`] with a
//! [`crate::DistPreconditioner`] — on one processor: the serial program.

#[cfg(test)]
mod tests {
    use crate::krylov::solve_on_one;
    use crate::{
        DistPreconditioner, JacobiPreconditioner, Krylov, NullObserver, SolveStats, SolverError,
        SsorPreconditioner, StopCriterion,
    };
    use hpf_core::{DataArrayLayout, DistVector, RowwiseCsr};
    use hpf_machine::Machine;
    use hpf_sparse::{gen, CooMatrix, CsrMatrix};

    /// `a` in the row layout a one-processor solve puts it in, for
    /// building its preconditioners.
    fn on_one(a: &CsrMatrix) -> RowwiseCsr {
        RowwiseCsr::block(a.clone(), 1, DataArrayLayout::RowAligned)
    }

    fn pcg(
        a: &CsrMatrix,
        m: &dyn DistPreconditioner,
        b: &[f64],
        stop: StopCriterion,
        max_iters: usize,
    ) -> Result<(Vec<f64>, SolveStats), SolverError> {
        let method = Krylov::Cg {
            precond: Some(m),
            recovery: None,
        };
        let s = solve_on_one(a, b, method, stop, max_iters, &mut NullObserver)?;
        Ok((s.x.to_global(), s.stats))
    }

    fn norm2(v: &[f64]) -> f64 {
        v.iter().map(|d| d * d).sum::<f64>().sqrt()
    }

    fn relative_error(x: &[f64], y: &[f64]) -> f64 {
        let d: Vec<f64> = x.iter().zip(y).map(|(a, b)| a - b).collect();
        norm2(&d) / norm2(y).max(1e-300)
    }

    /// `M = I`.
    struct Identity;

    impl DistPreconditioner for Identity {
        fn apply(&self, _: &mut Machine, r: &DistVector) -> DistVector {
            r.clone()
        }
        fn name(&self) -> &'static str {
            "identity"
        }
    }

    #[test]
    fn identity_pcg_equals_cg() {
        let a = gen::poisson_2d(8, 8);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let stop = StopCriterion::RelativeResidual(1e-10);
        let (x1, s1) = crate::cg::cg(&a, &b, stop, 500).unwrap();
        let (x2, s2) = pcg(&a, &Identity, &b, stop, 500).unwrap();
        assert!(s2.converged);
        assert_eq!(s1.iterations, s2.iterations);
        assert!(relative_error(&x1, &x2) < 1e-9);
    }

    #[test]
    fn jacobi_helps_on_badly_scaled_system() {
        // Scale rows/cols of a Poisson matrix wildly: plain CG crawls,
        // Jacobi PCG fixes the scaling immediately.
        let base = gen::poisson_2d(8, 8);
        let n = base.n_rows();
        let mut coo = CooMatrix::new(n, n);
        let scale = |i: usize| 10f64.powi((i % 5) as i32 - 2);
        for i in 0..n {
            for (j, v) in base.row(i) {
                coo.push(i, j, v * scale(i) * scale(j)).unwrap();
            }
        }
        let a = CsrMatrix::from_coo(&coo);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let stop = StopCriterion::RelativeResidual(1e-8);
        let (_, s_plain) = crate::cg::cg(&a, &b, stop, 5000).unwrap();
        let m = JacobiPreconditioner::from_operator(&on_one(&a)).unwrap();
        let (x, s_pcg) = pcg(&a, &m, &b, stop, 5000).unwrap();
        assert!(s_pcg.converged);
        assert!(
            s_pcg.iterations < s_plain.iterations,
            "jacobi {} vs plain {}",
            s_pcg.iterations,
            s_plain.iterations
        );
        let ax = a.matvec(&x).unwrap();
        let d: Vec<f64> = ax.iter().zip(&b).map(|(u, v)| u - v).collect();
        assert!(norm2(&d) / norm2(&b) < 1e-7);
    }

    #[test]
    fn ssor_reduces_iterations_on_poisson() {
        let a = gen::poisson_2d(16, 16);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let stop = StopCriterion::RelativeResidual(1e-8);
        let (_, s_plain) = crate::cg::cg(&a, &b, stop, 5000).unwrap();
        let m = SsorPreconditioner::new(&on_one(&a)).unwrap();
        let (_, s_ssor) = pcg(&a, &m, &b, stop, 5000).unwrap();
        assert!(s_ssor.converged);
        assert!(
            s_ssor.iterations < s_plain.iterations,
            "ssor {} vs plain {}",
            s_ssor.iterations,
            s_plain.iterations
        );
    }

    #[test]
    fn jacobi_rejects_zero_diagonal() {
        let coo = CooMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let a = CsrMatrix::from_coo(&coo);
        assert!(matches!(
            JacobiPreconditioner::from_operator(&on_one(&a)),
            Err(SolverError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn preconditioner_names() {
        let op = on_one(&gen::poisson_2d(3, 3));
        let jacobi = JacobiPreconditioner::from_operator(&op).unwrap();
        assert_eq!(jacobi.name(), "jacobi");
        assert_eq!(SsorPreconditioner::new(&op).unwrap().name(), "ssor");
        assert_eq!(Identity.name(), "identity");
    }
}
