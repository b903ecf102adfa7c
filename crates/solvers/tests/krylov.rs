//! Every [`Krylov`] method through [`solve`], over every layout family
//! and the generator families: against the dense direct solver, and at
//! NP = 4 against the same method on one processor (the serial program);
//! the progress guard and the non-finite check every method shares; and
//! the two input checks that live in `solve` alone.

use hpf_core::{ColwiseCsc, DataArrayLayout, RowwiseCsr};
use hpf_machine::{CostModel, Machine, Topology};
use hpf_solvers::{
    direct, solve, ColwiseOperator, CscVariant, DistOperator, DistPreconditioner,
    JacobiPreconditioner, Krylov, NullObserver, RecoveryConfig, Solution, SolverError,
    StopCriterion,
};
use hpf_sparse::{gen, CooMatrix, CscMatrix, CsrMatrix};

const NP: usize = 4;
const MAX_ITERS: usize = 2000;
const STOP: StopCriterion = StopCriterion::RelativeResidual(1e-9);

/// A method (`jacobi`: precondition CG with the operator's diagonal) and
/// whether it needs an SPD system.
struct Case {
    name: &'static str,
    method: Krylov<'static>,
    jacobi: bool,
    spd_only: bool,
}

fn cases() -> Vec<Case> {
    let protected = Krylov::Cg {
        precond: None,
        recovery: Some(RecoveryConfig::default()),
    };
    let case = |name, method, jacobi, spd_only| Case {
        name,
        method,
        jacobi,
        spd_only,
    };
    vec![
        case("cg", Krylov::cg(), false, true),
        case("pcg-jacobi", Krylov::cg(), true, true),
        case("cg-protected", protected, false, true),
        case("pcg-jacobi-protected", protected, true, true),
        case("bicg", Krylov::Bicg, false, false),
        case("bicgstab", Krylov::Bicgstab, false, false),
        case("cgs", Krylov::Cgs, false, false),
        case("gmres(12)", Krylov::Gmres { restart: 12 }, false, false),
    ]
}

/// The non-symmetric tridiagonal the golden files use.
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

/// Every generator family, and whether it is SPD.
fn systems() -> Vec<(&'static str, CsrMatrix, bool)> {
    vec![
        ("poisson_2d", gen::poisson_2d(8, 8), true),
        ("poisson_3d", gen::poisson_3d(4, 4, 4), true),
        ("banded_spd", gen::banded_spd(60, 3, 5), true),
        ("random_spd", gen::random_spd(60, 4, 7), true),
        ("power_law_spd", gen::power_law_spd(60, 12, 0.9, 3), true),
        (
            "block_irregular_mesh",
            gen::block_irregular_mesh(&[5, 20, 9, 26], 11),
            true,
        ),
        (
            "distinct_eigenvalues",
            gen::distinct_eigenvalues(48, &[1.0, 3.0, 7.0, 12.0], 192, 5),
            true,
        ),
        ("nonsym", nonsymmetric(60), false),
    ]
}

fn layouts(a: &CsrMatrix) -> Vec<(&'static str, Box<dyn DistOperator>)> {
    let n = a.n_rows();
    vec![
        (
            "row block",
            Box::new(RowwiseCsr::block(
                a.clone(),
                NP,
                DataArrayLayout::RowAligned,
            )),
        ),
        (
            // Processor 1 owns nothing.
            "row cuts",
            Box::new(RowwiseCsr::with_row_cuts(
                a.clone(),
                NP,
                vec![0, n / 3, n / 3, 2 * n / 3, n],
            )),
        ),
        (
            "column-wise temp2d",
            Box::new(ColwiseOperator {
                inner: ColwiseCsc::block(CscMatrix::from_csr(a), NP),
                variant: CscVariant::Temp2d,
            }),
        ),
    ]
}

/// `case.method`, preconditioned by `jacobi` where the case says so.
fn method_for<'a>(case: &Case, jacobi: &'a JacobiPreconditioner) -> Krylov<'a> {
    match case.method {
        Krylov::Cg { recovery, .. } if case.jacobi => Krylov::Cg {
            precond: Some(jacobi as &dyn DistPreconditioner),
            recovery,
        },
        other => other,
    }
}

fn machine(np: usize) -> Machine {
    Machine::new(np, Topology::Hypercube, CostModel::mpp_1995())
}

/// `case` over `op` on a fresh machine of `np` processors.
fn run(
    case: &Case,
    op: &dyn DistOperator,
    np: usize,
    b: &[f64],
    stop: StopCriterion,
    max_iters: usize,
) -> Result<Solution, SolverError> {
    let jacobi = JacobiPreconditioner::from_operator(op).unwrap();
    let method = method_for(case, &jacobi);
    solve(
        &mut machine(np),
        op,
        b,
        method,
        stop,
        max_iters,
        &mut NullObserver,
    )
}

/// The serial solver of a method is the method on one processor: each
/// layout at NP = 4 takes its iteration count within one, and every
/// solution agrees with dense LU. CGS breaks down on none of these
/// systems (nor did the serial CGS), so no breakdown is tolerated.
#[test]
fn every_method_and_layout_matches_its_serial_solver() {
    for (sysname, a, spd) in &systems() {
        let (_, b) = gen::rhs_for_known_solution(a);
        let x_lu = direct::solve_lu(&a.to_dense(), &b).unwrap();
        let one = RowwiseCsr::block(a.clone(), 1, DataArrayLayout::RowAligned);
        for case in cases().iter().filter(|c| *spd || !c.spd_only) {
            let serial = run(case, &one, 1, &b, STOP, MAX_ITERS)
                .unwrap_or_else(|e| panic!("{sysname} {}: serial: {e}", case.name));
            assert!(serial.stats.converged, "{sysname} {}: serial", case.name);
            for (lname, op) in layouts(a) {
                let what = format!("{sysname} {} over {lname}", case.name);
                let s = run(case, op.as_ref(), NP, &b, STOP, MAX_ITERS)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert!(s.stats.converged, "{what}: {:?}", s.stats);
                assert!(
                    s.stats.iterations.abs_diff(serial.stats.iterations) <= 1,
                    "{what}: {} iterations, serial {}",
                    s.stats.iterations,
                    serial.stats.iterations
                );
                for x in [&s.x, &serial.x] {
                    for (u, v) in x.to_global().iter().zip(&x_lu) {
                        assert!((u - v).abs() < 1e-7, "{what}: {u} vs LU {v}");
                    }
                }
                assert_eq!(
                    s.recovery.is_some(),
                    matches!(
                        case.method,
                        Krylov::Cg {
                            recovery: Some(_),
                            ..
                        }
                    ),
                    "{what}: recovery stats"
                );
                if matches!(case.method, Krylov::Bicg) {
                    assert_eq!(s.stats.transpose_matvecs, s.stats.matvecs, "{what}");
                } else {
                    assert_eq!(s.stats.transpose_matvecs, 0, "{what}");
                }
            }
        }
    }
}

/// A clean protected solve is the plain solve: protection only reads
/// the iterate and charges its own operations, so wherever its
/// `RecoveryStats` show no detection, it returns the unprotected solve's
/// bits in as many iterations — every SPD family, every layout, plain
/// and Jacobi-preconditioned.
#[test]
fn a_clean_protected_solve_is_the_plain_solve() {
    let mut clean = 0;
    for (sysname, a, _) in systems().iter().filter(|(_, _, spd)| *spd) {
        let (_, b) = gen::rhs_for_known_solution(a);
        for (lname, op) in layouts(a) {
            let jacobi = JacobiPreconditioner::from_operator(op.as_ref()).unwrap();
            for precond in [None, Some(&jacobi as &dyn DistPreconditioner)] {
                let what = format!("{sysname} over {lname}, jacobi {}", precond.is_some());
                let solved = |recovery| {
                    let method = Krylov::Cg { precond, recovery };
                    solve(
                        &mut machine(NP),
                        op.as_ref(),
                        &b,
                        method,
                        STOP,
                        MAX_ITERS,
                        &mut NullObserver,
                    )
                    .unwrap_or_else(|e| panic!("{what}: {e}"))
                };
                let plain = solved(None);
                let protected = solved(Some(RecoveryConfig::default()));
                let rec = protected.recovery.expect("a protected solve reports");
                if rec.faults_detected > 0 {
                    continue;
                }
                let bits = |s: &Solution| -> Vec<u64> {
                    s.x.to_global().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&protected), bits(&plain), "{what}");
                assert_eq!(protected.stats.iterations, plain.stats.iterations, "{what}");
                assert!(protected.stats.converged && plain.stats.converged, "{what}");
                clean += 1;
            }
        }
    }
    assert_eq!(clean, 42, "every case ran clean");
}

/// The progress guard and the non-finite check are the driver's, so
/// every method has them. On a strongly non-normal upper bidiagonal no
/// method makes progress, and `StopCriterion::Stagnation` ends each of
/// them in a typed error well before `max_iters`; a right-hand side with
/// a NaN in it ends each one in `NonFinite`. Both at NP = 1 and NP = 4.
#[test]
fn every_method_stops_with_a_typed_error_where_progress_stops() {
    let n = 30;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 1.0).unwrap();
        if i + 1 < n {
            coo.push(i, i + 1, 2.5).unwrap();
        }
    }
    let a = CsrMatrix::from_coo(&coo);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let mut poisoned = b.clone();
    poisoned[n / 2] = f64::NAN;
    let stall = StopCriterion::Stagnation {
        window: 10,
        min_drop: 0.5,
    };
    let max_iters = 200;
    for np in [1, NP] {
        let op = RowwiseCsr::block(a.clone(), np, DataArrayLayout::RowAligned);
        for case in cases() {
            let what = format!("{} at NP = {np}", case.name);
            match run(&case, &op, np, &b, stall, max_iters) {
                Err(SolverError::Stagnation { iterations, .. }) => {
                    assert!(iterations < max_iters / 4, "{what}: {iterations}")
                }
                other => panic!("{what}: {:?}", other.map(|s| s.stats)),
            }
            let out = run(&case, &op, np, &poisoned, STOP, max_iters);
            assert!(
                matches!(out, Err(SolverError::NonFinite { .. })),
                "{what}: {:?}",
                out.map(|s| s.stats)
            );
        }
    }
}

/// The dimension check is `solve`'s, so one wrong-length right-hand side
/// per method covers it; nothing is charged before it.
#[test]
fn a_wrong_length_rhs_is_rejected_before_any_work() {
    let a = gen::poisson_2d(4, 4);
    let op = RowwiseCsr::block(a, NP, DataArrayLayout::RowAligned);
    let jacobi = JacobiPreconditioner::from_operator(&op).unwrap();
    for case in cases() {
        let mut m = machine(NP);
        let method = method_for(&case, &jacobi);
        let out = solve(&mut m, &op, &[1.0; 15], method, STOP, 10, &mut NullObserver);
        assert!(
            matches!(
                out,
                Err(SolverError::DimensionMismatch {
                    expected: 16,
                    got: 15
                })
            ),
            "{}: {out:?}",
            case.name
        );
        assert_eq!(m.op_index(), 0, "{}", case.name);
        assert_eq!(hpf_machine::span::depth(), 0);
    }
}

/// A restart length of 0 is a typed error (it was an `assert!`).
#[test]
fn gmres_with_a_zero_restart_is_a_typed_error() {
    let a = gen::poisson_2d(4, 4);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let op = RowwiseCsr::block(a, NP, DataArrayLayout::RowAligned);
    let mut m = machine(NP);
    let method = Krylov::Gmres { restart: 0 };
    let out = solve(&mut m, &op, &b, method, STOP, 10, &mut NullObserver);
    assert!(matches!(out, Err(SolverError::ZeroRestart)), "{out:?}");
    assert_eq!(m.op_index(), 0);
}
