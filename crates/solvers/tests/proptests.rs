//! Property tests over the solver family: on arbitrary generated SPD
//! systems, on one to four processors, the iterative solvers actually
//! solve (small residual), agree with the dense direct baseline, and
//! respect their structural contracts (op counts, storage, honesty of
//! `converged`).

use hpf_core::{ColwiseCsc, DataArrayLayout, DistVector, RowwiseCsr};
use hpf_dist::{ArrayDescriptor, DistSpec};
use hpf_machine::{CostModel, FaultPlan, Machine, Topology};
use hpf_solvers::{
    direct, residual_history, solve, ColwiseOperator, CscVariant, DistOperator, DistPreconditioner,
    JacobiPreconditioner, Krylov, NullObserver, SolveStats, SolverError, StopCriterion,
};
use hpf_sparse::{gen, CscMatrix, CsrMatrix};
use proptest::prelude::*;

// Thin helper re-exported through the test to keep the public API clean.
mod helper {
    use hpf_solvers::direct;
    use hpf_sparse::CsrMatrix;

    pub fn direct_solution(a: &CsrMatrix, b: &[f64]) -> Vec<f64> {
        direct::solve_lu(&a.to_dense(), b).expect("generated SPD systems are nonsingular")
    }
}

fn rel_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.matvec(x).unwrap();
    let num: f64 = ax
        .iter()
        .zip(b.iter())
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    num / den.max(1e-300)
}

/// `method` over `a` in row blocks on `np` processors (`jacobi`:
/// preconditioned by its diagonal), the solution gathered.
fn solve_on(
    np: usize,
    a: &CsrMatrix,
    b: &[f64],
    method: Krylov<'_>,
    jacobi: bool,
    stop: StopCriterion,
    max_iters: usize,
) -> Result<(Vec<f64>, SolveStats), SolverError> {
    let op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
    let m = jacobi
        .then(|| JacobiPreconditioner::from_operator(&op))
        .transpose()?;
    let method = match (method, &m) {
        (Krylov::Cg { recovery, .. }, Some(m)) => Krylov::Cg {
            precond: Some(m as &dyn DistPreconditioner),
            recovery,
        },
        (other, _) => other,
    };
    let mut machine = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
    let s = solve(
        &mut machine,
        &op,
        b,
        method,
        stop,
        max_iters,
        &mut NullObserver,
    )?;
    Ok((s.x.to_global(), s.stats))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CG solves every generated SPD system to tolerance on any number of
    /// processors and agrees with dense LU.
    #[test]
    fn cg_solves_random_spd(
        n in 4usize..48,
        nnz in 1usize..5,
        seed in any::<u64>(),
        np in 1usize..=4,
    ) {
        let a = gen::random_spd(n, nnz, seed);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let stop = StopCriterion::RelativeResidual(1e-10);
        let (x, stats) = solve_on(np, &a, &b, Krylov::cg(), false, stop, 50 * n).unwrap();
        prop_assert!(stats.converged);
        prop_assert!(rel_residual(&a, &x, &b) < 1e-8);
        let x_lu = helper::direct_solution(&a, &b);
        for (u, v) in x.iter().zip(x_lu.iter()) {
            prop_assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
        // Structural contract: one matvec per iteration, no transposes.
        prop_assert_eq!(stats.matvecs, stats.iterations);
        prop_assert_eq!(stats.transpose_matvecs, 0);
    }

    /// Jacobi PCG also solves, never diverges, and its residual claim is
    /// honest (recomputable).
    #[test]
    fn pcg_honest_on_random_spd(
        n in 4usize..40,
        nnz in 1usize..4,
        seed in any::<u64>(),
        np in 1usize..=4,
    ) {
        let a = gen::random_spd(n, nnz, seed);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let stop = StopCriterion::RelativeResidual(1e-9);
        let (x, stats) = solve_on(np, &a, &b, Krylov::cg(), true, stop, 50 * n).unwrap();
        prop_assert!(stats.converged);
        let true_res = rel_residual(&a, &x, &b);
        prop_assert!(true_res < 1e-7, "claimed {} true {}", stats.residual_norm, true_res);
    }

    /// The non-symmetric family solves generated banded SPD systems too
    /// (SPD is a special case of their domain), and their structural
    /// contracts hold.
    #[test]
    fn nonsymmetric_family_on_spd(
        n in 4usize..40,
        bw in 1usize..4,
        seed in any::<u64>(),
        np in 1usize..=4,
    ) {
        let a = gen::banded_spd(n, bw, seed);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let stop = StopCriterion::RelativeResidual(1e-9);
        let on = |method, max_iters| solve_on(np, &a, &b, method, false, stop, max_iters);

        let (xb, sb) = on(Krylov::Bicg, 50 * n).unwrap();
        prop_assert!(sb.converged);
        prop_assert!(rel_residual(&a, &xb, &b) < 1e-7);
        prop_assert_eq!(sb.transpose_matvecs, sb.matvecs);

        let (xs, ss) = on(Krylov::Bicgstab, 50 * n).unwrap();
        prop_assert!(ss.converged);
        prop_assert!(rel_residual(&a, &xs, &b) < 1e-7);
        prop_assert_eq!(ss.transpose_matvecs, 0);

        if let Ok((xc, sc)) = on(Krylov::Cgs, 50 * n) {
            if sc.converged {
                prop_assert!(rel_residual(&a, &xc, &b) < 1e-6);
            }
        } // CGS breakdown is an accepted honest outcome.

        let (xg, sg) = on(Krylov::Gmres { restart: 20 }, 100 * n).unwrap();
        prop_assert!(sg.converged);
        prop_assert!(rel_residual(&a, &xg, &b) < 1e-7);
    }

    /// Cholesky agrees with LU wherever it applies.
    #[test]
    fn cholesky_agrees_with_lu(n in 2usize..30, seed in any::<u64>()) {
        let a = gen::random_spd(n, 3, seed);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let d = a.to_dense();
        let x_ch = direct::solve_cholesky(&d, &b).unwrap();
        let x_lu = direct::solve_lu(&d, &b).unwrap();
        for (u, v) in x_ch.iter().zip(x_lu.iter()) {
            prop_assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
        prop_assert!(rel_residual(&a, &x_ch, &b) < 1e-8);
    }

    /// Residual histories: CG on SPD is (near-)monotone and history
    /// values are consistent with a real run.
    #[test]
    fn cg_history_monotone_on_spd(n in 6usize..36, seed in any::<u64>()) {
        let a = gen::banded_spd(n, 2, seed);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let h = residual_history(Krylov::cg(), &a, &b, 2 * n).unwrap();
        prop_assert_eq!(h[0], 1.0);
        // Allow tiny upticks from rounding, but the envelope must fall.
        let min = h.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(min < 1e-6, "CG failed to reduce the residual: min {min}");
        let ups = h.windows(2).filter(|w| w[1] > w[0] * 1.5).count();
        prop_assert!(ups == 0, "CG residual jumped by >50% {ups} times");
    }

    /// Stopping criteria are honest: with an impossible tolerance the
    /// solver reports non-convergence rather than looping forever or
    /// lying.
    #[test]
    fn impossible_tolerance_reported(n in 4usize..24, seed in any::<u64>(), np in 1usize..=4) {
        let a = gen::random_spd(n, 3, seed);
        let (_, b) = gen::rhs_for_known_solution(&a);
        let stop = StopCriterion::AbsoluteResidual(0.0);
        let (_, stats) = solve_on(np, &a, &b, Krylov::cg(), false, stop, 5).unwrap();
        prop_assert!(!stats.converged || stats.residual_norm == 0.0);
        prop_assert!(stats.iterations <= 5);
    }

    /// `apply_into` into a dirty `q` is `apply`, bit for bit and event for
    /// event: every operator layout (empty processor blocks, n < NP) times
    /// every operand layout, with and without a corruption armed for the
    /// product.
    #[test]
    fn apply_into_dirty_q_equals_apply(
        n in 1usize..40,
        np in 1usize..9,
        seed in any::<u64>(),
        armed in any::<bool>(),
    ) {
        let a = gen::random_spd(n, 3, seed);
        // Cut points drawn from the seed; repeats leave processors empty.
        let mut cuts: Vec<usize> = (1..np)
            .map(|i| (seed.rotate_left(7 * i as u32) % (n as u64 + 1)) as usize)
            .collect();
        cuts.sort_unstable();
        cuts.insert(0, 0);
        cuts.push(n);
        let operators: Vec<Box<dyn DistOperator>> = vec![
            Box::new(RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned)),
            Box::new(RowwiseCsr::block(a.clone(), np, DataArrayLayout::ElementBlock)),
            Box::new(RowwiseCsr::with_row_cuts(a.clone(), np, cuts.clone())),
            Box::new(ColwiseOperator {
                inner: ColwiseCsc::block(CscMatrix::from_csr(&a), np),
                variant: CscVariant::Temp2d,
            }),
            Box::new(ColwiseOperator {
                inner: ColwiseCsc::with_col_cuts(CscMatrix::from_csr(&a), np, cuts),
                variant: CscVariant::Serial,
            }),
        ];
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) % 9) as f64 - 4.0).collect();
        let mut scratch = Vec::new();
        for op in &operators {
            let own = op.descriptor();
            let operands = [
                own.clone(),
                ArrayDescriptor::cyclic(n, np),
                ArrayDescriptor::new(n, np, DistSpec::CyclicK(1 + (seed % 3) as usize)),
            ];
            for desc in operands {
                let p = DistVector::from_global(desc, &x);
                let machine = || {
                    let mut m = Machine::new(np, Topology::Hypercube, CostModel::mpp_1995());
                    if armed {
                        m.set_fault_plan(FaultPlan::new().with_bit_flip(0, 0, 40, seed as usize));
                    }
                    m
                };
                let mut m1 = machine();
                let want = op.apply(&mut m1, &p);
                let mut m2 = machine();
                // Laid out as `apply`'s result is: on the rows for a row
                // layout, as `p` is for a column layout.
                let mut q = DistVector::constant(want.descriptor().clone(), f64::NAN);
                op.apply_into(&mut m2, &p, &mut q, &mut scratch);
                let bits = |v: &DistVector| -> Vec<u64> {
                    v.to_global().iter().map(|f| f.to_bits()).collect()
                };
                prop_assert_eq!(bits(&q), bits(&want));
                prop_assert_eq!(q.descriptor(), want.descriptor());
                prop_assert_eq!(m2.trace().to_jsonl(), m1.trace().to_jsonl());
                prop_assert_eq!(m2.elapsed().to_bits(), m1.elapsed().to_bits());
            }
        }
    }
}
