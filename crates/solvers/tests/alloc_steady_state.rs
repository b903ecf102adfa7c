//! The allocation gate: a steady-state iteration of distributed CG,
//! Jacobi-PCG, BiCG, BiCGSTAB, CGS and GMRES(20) performs **zero** heap
//! allocations when the machine keeps no events — [`TraceLevel::Off`] or
//! [`TraceLevel::Summary`] — with no event sink, and also on a warm
//! machine with a sink (lent the slot of the machine's tail the event
//! was written to), a kept tail of 64 events, or both. So does CG over
//! the column-wise `(*,BLOCK)` layout, both Scenario 2 variants. Every
//! recurrence sizes its vectors, and GMRES its basis and
//! Hessenberg columns, before the first iteration. The counting
//! allocator and the observer that reads it are in `counting`.

use hpf_core::{ColwiseCsc, DataArrayLayout, RowwiseCsr};
use hpf_machine::{CostModel, EventSink, Machine, Topology, TraceLevel};
use hpf_solvers::{
    solve, ColwiseOperator, CscVariant, DistOperator, JacobiPreconditioner, Krylov, SolveStats,
    StopCriterion,
};
use hpf_sparse::{gen, CscMatrix};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

mod counting;
use counting::Tally;

const NP: usize = 8;
const MAX_ITERS: usize = 400;
const STOP: StopCriterion = StopCriterion::RelativeResidual(1e-10);

/// A method for `op`; the Jacobi preconditioner it may borrow is built
/// (and allocated) before the solve.
type Method = for<'a> fn(&'a JacobiPreconditioner) -> Krylov<'a>;

const SOLVES: [(&str, Method); 6] = [
    ("cg", |_| Krylov::cg()),
    ("pcg-jacobi", |jacobi| Krylov::Cg {
        precond: Some(jacobi),
        recovery: None,
    }),
    ("bicg", |_| Krylov::Bicg),
    ("bicgstab", |_| Krylov::Bicgstab),
    ("cgs", |_| Krylov::Cgs),
    ("gmres(20)", |_| Krylov::Gmres { restart: 20 }),
];

fn run(
    m: &mut Machine,
    op: &dyn DistOperator,
    b: &[f64],
    method: Krylov<'_>,
    tally: &mut Tally,
) -> SolveStats {
    solve(m, op, b, method, STOP, MAX_ITERS, tally)
        .unwrap()
        .stats
}

/// `poisson_3d(12,12,12)` at NP = 8 with a right-hand side.
fn problem() -> (RowwiseCsr, Vec<f64>) {
    let a = gen::poisson_3d(12, 12, 12);
    let (_, b) = gen::rhs_for_known_solution(&a);
    (RowwiseCsr::block(a, NP, DataArrayLayout::RowAligned), b)
}

fn machine(level: TraceLevel) -> Machine {
    let mut machine = Machine::new(NP, Topology::Hypercube, CostModel::mpp_1995());
    machine.set_trace_level(level);
    machine
}

/// Reset `machine`, run `solve` on it, and require zero allocations from
/// the end of iteration 2 to the end of the last one.
fn assert_steady_state_is_allocation_free(
    what: &str,
    machine: &mut Machine,
    solve: impl FnOnce(&mut Machine, &mut Tally) -> SolveStats,
) {
    machine.reset();
    let mut tally = Tally(Vec::with_capacity(MAX_ITERS));
    let stats = solve(machine, &mut tally);
    assert!(stats.converged);
    let t = &tally.0;
    assert!(t.len() >= 10, "{what}: only {} iterations ran", t.len());
    assert_eq!(
        t[t.len() - 1] - t[1],
        0,
        "{what}: allocations from iteration 2 to {} (tally per iteration: {t:?})",
        t.len()
    );
}

#[test]
fn steady_state_allocates_nothing_when_no_event_is_kept() {
    let (op, b) = problem();
    let jacobi = JacobiPreconditioner::from_operator(&op).unwrap();
    for (name, method) in SOLVES {
        for level in [TraceLevel::Off, TraceLevel::Summary] {
            let mut machine = machine(level);
            let what = format!("{name} at {level:?}, no sink");
            assert_steady_state_is_allocation_free(&what, &mut machine, |m, tally| {
                run(m, &op, &b, method(&jacobi), tally)
            });
            if level == TraceLevel::Summary {
                assert!(machine.trace().is_empty());
                assert!(
                    machine.digest().events > 10 * 5,
                    "{what}: nothing was folded"
                );
            }
        }
    }
}

/// Who reads the events of a machine that stores none: a sink, a kept
/// tail of 64, or both.
const READERS: [(&str, usize, bool); 3] = [
    ("a sink", 0, true),
    ("a tail of 64", 64, false),
    ("a tail of 64 and a sink", 64, true),
];

#[test]
fn a_warm_machine_lends_events_to_a_sink_without_allocating() {
    let (op, b) = problem();
    let jacobi = JacobiPreconditioner::from_operator(&op).unwrap();
    for ((name, method), (readers, tail, sink)) in SOLVES
        .into_iter()
        .flat_map(|solve| READERS.map(|readers| (solve, readers)))
    {
        for level in [TraceLevel::Off, TraceLevel::Summary] {
            let seen = Arc::new(AtomicUsize::new(0));
            let tap = seen.clone();
            let mut machine = machine(level);
            if tail > 0 {
                machine.keep_tail(tail);
            }
            if sink {
                machine.set_event_sink(EventSink::new(move |event| {
                    // Reads what a real sink copies: span, label, times.
                    let read = event.span.len() + event.label.len() + event.proc_times.len();
                    tap.fetch_add(read.min(1), Ordering::Relaxed);
                }));
            }
            // One solve grows every slot of the tail to the span path,
            // label and per-processor vector it holds in this solve. A
            // job starts on a cleared tail, so the same solve fills the
            // same slots again.
            let mut warm_up = Tally(Vec::with_capacity(MAX_ITERS));
            run(&mut machine, &op, &b, method(&jacobi), &mut warm_up);
            let before = seen.load(Ordering::Relaxed);
            let what = format!("{name} at {level:?}, warm machine with {readers}");
            assert_steady_state_is_allocation_free(&what, &mut machine, |m, tally| {
                m.clear_tail();
                run(m, &op, &b, method(&jacobi), tally)
            });
            let lent = seen.load(Ordering::Relaxed) - before;
            assert_eq!(
                lent > 10 * 5,
                sink,
                "{what}: the sink saw {lent} events of the measured solve"
            );
            let kept = machine.tail();
            assert_eq!(kept.len(), tail.max(1), "{what}");
            assert!(kept.overwritten() > 10 * 5, "{what}");
            assert!(machine.trace().is_empty());
        }
    }
}

/// CG over the column-wise layout: the products write `q` in place and
/// keep their length-`n` partial in the solve's scratch, for both
/// variants, block columns and cuts that leave processor 2 empty.
#[test]
fn colwise_cg_steady_state_allocates_nothing() {
    let a = gen::poisson_3d(12, 12, 12);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let csc = CscMatrix::from_csr(&a);
    let layouts = [
        ("block", ColwiseCsc::block(csc.clone(), NP)),
        (
            "cuts",
            ColwiseCsc::with_col_cuts(csc, NP, vec![0, 150, 400, 400, 700, 1000, 1300, 1500, 1728]),
        ),
    ];
    for (lname, inner) in layouts {
        for variant in [CscVariant::Temp2d, CscVariant::Serial] {
            let op = ColwiseOperator {
                inner: inner.clone(),
                variant,
            };
            for level in [TraceLevel::Off, TraceLevel::Summary] {
                let what = format!("cg_distributed over {lname} columns, {variant:?}, {level:?}");
                assert_steady_state_is_allocation_free(&what, &mut machine(level), |m, tally| {
                    run(m, &op, &b, Krylov::cg(), tally)
                });
            }
        }
    }
}
