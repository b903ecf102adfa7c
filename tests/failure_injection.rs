//! Failure injection: every malformed input or numerically hostile
//! system must surface a typed error or an honest `converged = false`,
//! never a wrong answer or a hang.

use hpf::prelude::*;
use hpf::solvers::{direct, SolverError};
use hpf::sparse::{gen, io, SparseError};

#[test]
fn malformed_csr_pointers_rejected() {
    // Decreasing pointer.
    assert!(matches!(
        CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]),
        Err(SparseError::MalformedPointer(_))
    ));
    // Column out of range.
    assert!(matches!(
        CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 5], vec![1.0, 2.0]),
        Err(SparseError::IndexOutOfBounds { .. })
    ));
    // Value/index arity mismatch.
    assert!(matches!(
        CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0], vec![1.0, 2.0]),
        Err(SparseError::DimensionMismatch(_))
    ));
}

#[test]
fn malformed_matrix_market_rejected() {
    for text in [
        "",                                                                // empty
        "garbage\n1 1 0\n",                                                // bad header
        "%%MatrixMarket matrix array real general\n2 2 0\n",               // not coordinate
        "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1.0\n", // count lie
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n", // 0-based
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n", // junk field
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n9 1 1.0\n", // out of range
    ] {
        assert!(
            io::read_matrix_market(text).is_err(),
            "should reject: {text:?}"
        );
    }
}

/// `a` in the row layout of a one-processor solve.
fn on_one(a: &CsrMatrix) -> RowwiseCsr {
    RowwiseCsr::block(a.clone(), 1, DataArrayLayout::RowAligned)
}

/// `method` on one processor: the serial solve.
fn solve_on_one(
    a: &CsrMatrix,
    b: &[f64],
    method: Krylov<'_>,
    stop: StopCriterion,
    max_iters: usize,
) -> Result<SolveStats, SolverError> {
    let mut m = Machine::hypercube(1);
    Ok(solve(
        &mut m,
        &on_one(a),
        b,
        method,
        stop,
        max_iters,
        &mut NullObserver,
    )?
    .stats)
}

#[test]
fn solver_dimension_mismatches_rejected() {
    let a = gen::poisson_2d(4, 4);
    let stop = StopCriterion::RelativeResidual(1e-8);
    assert!(matches!(
        cg(&a, &[1.0; 3], stop, 10),
        Err(SolverError::DimensionMismatch { .. })
    ));
    for method in [Krylov::Bicg, Krylov::Bicgstab, Krylov::Cgs] {
        assert!(matches!(
            solve_on_one(&a, &[1.0; 3], method, stop, 10),
            Err(SolverError::DimensionMismatch { .. })
        ));
    }
    let d = a.to_dense();
    assert!(matches!(
        direct::solve_lu(&d, &[1.0; 3]),
        Err(SolverError::DimensionMismatch { .. })
    ));
}

#[test]
fn cg_on_indefinite_matrix_breaks_down_or_flags() {
    // diag(1, -1): p.Ap = 0 for b = (1, 1).
    let coo = CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 1, -1.0)]).unwrap();
    let a = CsrMatrix::from_coo(&coo);
    match cg(&a, &[1.0, 1.0], StopCriterion::RelativeResidual(1e-10), 100) {
        Err(SolverError::Breakdown { .. }) => {}
        Ok((_, stats)) => assert!(!stats.converged || stats.residual_norm < 1e-8),
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn singular_direct_solves_detected() {
    let singular = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
    assert!(matches!(
        direct::solve_lu(&singular, &[1.0, 1.0]),
        Err(SolverError::SingularMatrix { .. })
    ));
    assert!(matches!(
        direct::cholesky(&singular),
        Err(SolverError::SingularMatrix { .. })
    ));
    let nonsym = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]).unwrap();
    assert_eq!(
        direct::cholesky(&nonsym).unwrap_err(),
        SolverError::NotSymmetric
    );
}

#[test]
fn nonconvergence_is_reported_not_hidden() {
    let a = gen::poisson_2d(16, 16);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let (_, stats) = cg(&a, &b, StopCriterion::RelativeResidual(1e-15), 2).unwrap();
    assert!(!stats.converged);
    assert_eq!(stats.iterations, 2);
    assert!(stats.residual_norm.is_finite());
}

#[test]
fn jacobi_on_zero_diagonal_rejected() {
    let coo = CooMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
    let a = CsrMatrix::from_coo(&coo);
    for layout in [
        on_one(&a),
        RowwiseCsr::block(a, 2, DataArrayLayout::RowAligned),
    ] {
        assert!(matches!(
            JacobiPreconditioner::from_operator(&layout),
            Err(SolverError::SingularMatrix { .. })
        ));
        assert!(matches!(
            SsorPreconditioner::new(&layout),
            Err(SolverError::SingularMatrix { .. })
        ));
    }
}

#[test]
fn misaligned_distributed_operands_panic_with_guidance() {
    let mut m = Machine::hypercube(4);
    let mut y = DistVector::zeros(ArrayDescriptor::block(16, 4));
    let x = DistVector::zeros(ArrayDescriptor::cyclic(16, 4));
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        y.axpy(&mut m, 1.0, &x);
    }))
    .unwrap_err();
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("ALIGN") || msg.contains("aligned"), "{msg}");
}

#[test]
fn forall_violations_do_not_corrupt_target() {
    use hpf::core::forall::forall_assign;
    let mut q = vec![1.0, 2.0, 3.0];
    // Out of bounds at k=5 — q must be untouched.
    let err = forall_assign(&mut q, 6, |k| k, |_| 9.0);
    assert!(err.is_err());
    assert_eq!(q, vec![1.0, 2.0, 3.0]);
}

#[test]
fn distributed_cg_rejects_wrong_rhs_length() {
    let a = gen::poisson_2d(4, 4);
    let mut m = Machine::hypercube(2);
    let op = RowwiseCsr::block(a, 2, DataArrayLayout::RowAligned);
    assert!(matches!(
        cg_distributed(
            &mut m,
            &op,
            &[1.0; 7],
            StopCriterion::RelativeResidual(1e-8),
            10
        ),
        Err(SolverError::DimensionMismatch { .. })
    ));
}

#[test]
fn cgs_divergence_surfaces_as_breakdown_or_unconverged() {
    // Strongly non-normal upper bidiagonal system.
    let n = 24;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 1.0).unwrap();
        if i + 1 < n {
            coo.push(i, i + 1, 3.0).unwrap();
        }
    }
    let a = CsrMatrix::from_coo(&coo);
    let stop = StopCriterion::RelativeResidual(1e-12);
    match solve_on_one(&a, &vec![1.0; n], Krylov::Cgs, stop, 30) {
        Err(SolverError::Breakdown { .. } | SolverError::NonFinite { .. }) => {}
        Ok(stats) => {
            // If it claims convergence the residual must actually be small.
            if stats.converged {
                assert!(stats.residual_norm.is_finite());
            }
        }
        Err(e) => panic!("unexpected: {e}"),
    }
}
