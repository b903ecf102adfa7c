//! Every [`Krylov`] method through [`solve`], over every layout family,
//! against the serial solver of the same name; and the two input checks
//! that live in `solve` alone.

use hpf_core::{ColwiseCsc, DataArrayLayout, RowwiseCsr};
use hpf_machine::{CostModel, Machine, Topology};
use hpf_solvers::{
    bicg, bicgstab, cg, gmres, pcg, solve, ColwiseOperator, CscVariant, DistOperator,
    DistPreconditioner, JacobiPrec, JacobiPreconditioner, Krylov, NullObserver, RecoveryConfig,
    SolveStats, SolverError, StopCriterion,
};
use hpf_sparse::{gen, CooMatrix, CscMatrix, CsrMatrix};

const NP: usize = 4;
const MAX_ITERS: usize = 2000;
const STOP: StopCriterion = StopCriterion::RelativeResidual(1e-9);

type Serial = fn(&CsrMatrix, &[f64]) -> (Vec<f64>, SolveStats);

/// A distributed method (`jacobi`: precondition CG with the operator's
/// diagonal), whether it needs an SPD system, and its serial reference.
struct Case {
    name: &'static str,
    method: Krylov<'static>,
    jacobi: bool,
    spd_only: bool,
    serial: Serial,
}

fn cases() -> Vec<Case> {
    let protected = Krylov::Cg {
        precond: None,
        recovery: Some(RecoveryConfig::default()),
    };
    let serial_cg: Serial = |a, b| cg(a, b, STOP, MAX_ITERS).unwrap();
    let serial_pcg: Serial =
        |a, b| pcg(a, &JacobiPrec::new(a).unwrap(), b, STOP, MAX_ITERS).unwrap();
    let case = |name, method, jacobi, spd_only, serial| Case {
        name,
        method,
        jacobi,
        spd_only,
        serial,
    };
    vec![
        case("cg", Krylov::cg(), false, true, serial_cg),
        case("pcg-jacobi", Krylov::cg(), true, true, serial_pcg),
        case("cg-protected", protected, false, true, serial_cg),
        case("pcg-jacobi-protected", protected, true, true, serial_pcg),
        case("bicg", Krylov::Bicg, false, false, |a, b| {
            bicg(a, b, STOP, MAX_ITERS).unwrap()
        }),
        case("bicgstab", Krylov::Bicgstab, false, false, |a, b| {
            bicgstab(a, b, STOP, MAX_ITERS).unwrap()
        }),
        case(
            "gmres(12)",
            Krylov::Gmres { restart: 12 },
            false,
            false,
            |a, b| gmres(a, b, 12, STOP, MAX_ITERS).unwrap(),
        ),
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

fn machine() -> Machine {
    Machine::new(NP, Topology::Hypercube, CostModel::mpp_1995())
}

#[test]
fn every_method_and_layout_matches_its_serial_solver() {
    let systems = [
        ("spd", gen::poisson_2d(8, 8), true),
        ("nonsym", nonsymmetric(60), false),
    ];
    for (sysname, a, spd) in &systems {
        let (_, b) = gen::rhs_for_known_solution(a);
        for case in cases().iter().filter(|c| *spd || !c.spd_only) {
            let (x_serial, s_serial) = (case.serial)(a, &b);
            assert!(s_serial.converged, "{sysname} {}: serial", case.name);
            for (lname, op) in layouts(a) {
                let what = format!("{sysname} {} over {lname}", case.name);
                let jacobi = JacobiPreconditioner::from_operator(op.as_ref()).unwrap();
                let method = method_for(case, &jacobi);
                let mut m = machine();
                let s = solve(
                    &mut m,
                    op.as_ref(),
                    &b,
                    method,
                    STOP,
                    MAX_ITERS,
                    &mut NullObserver,
                )
                .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert!(s.stats.converged, "{what}: {:?}", s.stats);
                assert!(
                    s.stats.iterations.abs_diff(s_serial.iterations) <= 1,
                    "{what}: {} iterations, serial {}",
                    s.stats.iterations,
                    s_serial.iterations
                );
                for (u, v) in s.x.to_global().iter().zip(&x_serial) {
                    assert!((u - v).abs() < 1e-7, "{what}: {u} vs serial {v}");
                }
                assert_eq!(
                    s.recovery.is_some(),
                    matches!(
                        method,
                        Krylov::Cg {
                            recovery: Some(_),
                            ..
                        }
                    ),
                    "{what}: recovery stats"
                );
                if matches!(method, Krylov::Bicg) {
                    assert_eq!(s.stats.transpose_matvecs, s.stats.matvecs, "{what}");
                } else {
                    assert_eq!(s.stats.transpose_matvecs, 0, "{what}");
                }
            }
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
        let mut m = machine();
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
    let mut m = machine();
    let method = Krylov::Gmres { restart: 0 };
    let out = solve(&mut m, &op, &b, method, STOP, 10, &mut NullObserver);
    assert!(matches!(out, Err(SolverError::ZeroRestart)), "{out:?}");
    assert_eq!(m.op_index(), 0);
}
