//! The allocation gate: a steady-state iteration of distributed CG,
//! Jacobi-PCG, both protected and not, BiCG, BiCGSTAB, CGS and GMRES(20) performs
//! **zero** heap allocations when the machine keeps no events —
//! [`TraceLevel::Off`] or [`TraceLevel::Summary`] — with no event sink,
//! and also on a warm machine with a sink (lent the slot of the machine's
//! tail the event was written to), a kept tail of 64 events, or both —
//! at NP = 64 too, where a compute phase's times spill out of the slot; on
//! the Poisson operator (template product) and on a band of drawn values
//! (pattern product). So does CG over the column-wise `(*,BLOCK)` layout,
//! both Scenario 2 variants. Every recurrence sizes its vectors, GMRES
//! its basis and Hessenberg columns, and protected CG its checkpoint
//! slots, before the first iteration. A machine that keeps every event
//! ([`TraceLevel::Full`]) at NP = 64 stores each as one row, so a whole
//! solve makes fewer allocations than half its events. The counting
//! allocator and the observer that reads it are in `counting`.

use hpf_core::{ColwiseCsc, DataArrayLayout, RowwiseCsr};
use hpf_machine::{CostModel, EventSink, Machine, Topology, TraceLevel};
use hpf_solvers::{
    solve, ColwiseOperator, CscVariant, DistOperator, JacobiPreconditioner, Krylov, NullObserver,
    RecoveryConfig, SolveStats, StopCriterion,
};
use hpf_sparse::{gen, CscMatrix, CsrMatrix, ProductForm};
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

const SOLVES: [(&str, Method); 8] = [
    ("cg", |_| Krylov::cg()),
    ("cg (protected)", |_| Krylov::Cg {
        precond: None,
        recovery: Some(RecoveryConfig::default()),
    }),
    ("pcg-jacobi", |jacobi| Krylov::Cg {
        precond: Some(jacobi),
        recovery: None,
    }),
    ("pcg-jacobi (protected)", |jacobi| Krylov::Cg {
        precond: Some(jacobi),
        recovery: Some(RecoveryConfig::default()),
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
    operator(gen::poisson_3d(12, 12, 12))
}

/// `a` in row blocks at NP = 8 with a right-hand side.
fn operator(a: CsrMatrix) -> (RowwiseCsr, Vec<f64>) {
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

/// The pattern product reads a band's coefficients where the matrix
/// stores them, so its iterations allocate no more than the template
/// product's.
#[test]
fn a_banded_operator_steady_state_allocates_nothing() {
    let (op, b) = operator(gen::banded_spd(768, 3, 11));
    assert_eq!(
        op.product_form(),
        ProductForm::Patterns {
            patterns: 7,
            runs: 7
        }
    );
    let jacobi = JacobiPreconditioner::from_operator(&op).unwrap();
    for (name, method) in SOLVES {
        for level in [TraceLevel::Off, TraceLevel::Summary] {
            let what = format!("{name} on a band at {level:?}");
            assert_steady_state_is_allocation_free(&what, &mut machine(level), |m, tally| {
                run(m, &op, &b, method(&jacobi), tally)
            });
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

/// A kept tail of 64 at NP = 64, where no compute phase's per-processor
/// times fit in a slot and go to its spill buffer, as a label longer
/// than a slot holds does: the first solve grows the buffers, and a
/// protected CG solve on the cleared tail allocates nothing.
#[test]
fn a_tail_that_spills_past_its_slots_allocates_nothing_once_warm() {
    let a = gen::poisson_2d(48, 48);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let op = RowwiseCsr::block(a, 64, DataArrayLayout::RowAligned);
    let protected = || Krylov::Cg {
        precond: None,
        recovery: Some(RecoveryConfig::default()),
    };
    for level in [TraceLevel::Off, TraceLevel::Summary] {
        let mut machine = Machine::new(64, Topology::Hypercube, CostModel::mpp_1995());
        machine.set_trace_level(level);
        machine.keep_tail(64);
        // A job before this one spilled a label; this job starts, as
        // every job does, on a cleared tail.
        machine.barrier("a label longer than a slot keeps in place");
        machine.clear_tail();
        let mut warm_up = Tally(Vec::with_capacity(MAX_ITERS));
        run(&mut machine, &op, &b, protected(), &mut warm_up);
        let what = format!("protected cg at NP = 64, {level:?}, a tail of 64 that spills");
        assert_steady_state_is_allocation_free(&what, &mut machine, |m, tally| {
            m.clear_tail();
            run(m, &op, &b, protected(), tally)
        });
        let spilled = machine.tail().iter().filter(|e| e.proc_times.len() == 64);
        assert!(spilled.count() > 0, "{what}: no event spilled its times");
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

/// `cg_layouts_np64`'s solves: `poisson_2d(48, 48)` at NP = 64, row-wise
/// CSR and column-wise CSC `Temp2d`, tracing `Full` with a counting sink.
/// A `Full` trace stores an operation as one row, its span path and label
/// as ids and its per-processor times as nothing, "uniform", or a range of
/// one arena: each solve makes fewer allocations than half its events and
/// keeps at most 256 KB.
#[test]
fn a_full_trace_at_np_64_allocates_per_solve_not_per_event() {
    let a = gen::poisson_2d(48, 48);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let rows = RowwiseCsr::block(a.clone(), 64, DataArrayLayout::RowAligned);
    let cols = ColwiseOperator {
        inner: ColwiseCsc::block(CscMatrix::from_csr(&a), 64),
        variant: CscVariant::Temp2d,
    };
    let layouts: [(&str, &dyn DistOperator); 2] = [("row-wise", &rows), ("column-wise", &cols)];
    for (name, op) in layouts {
        let seen = Arc::new(AtomicUsize::new(0));
        let tap = seen.clone();
        let mut machine = Machine::new(64, Topology::Hypercube, CostModel::mpp_1995());
        machine.set_event_sink(EventSink::new(move |_| {
            tap.fetch_add(1, Ordering::Relaxed);
        }));
        let stop = StopCriterion::RelativeResidual(1e-8);
        let (allocations, live) = (counting::allocations(), counting::live_bytes());
        let solved = solve(
            &mut machine,
            op,
            &b,
            Krylov::cg(),
            stop,
            5_000,
            &mut NullObserver,
        );
        assert!(solved.unwrap().stats.converged, "{name}");
        let allocations = counting::allocations() - allocations;
        let kept = counting::live_bytes().wrapping_sub(live);
        let events = machine.trace().len();
        assert_eq!(seen.load(Ordering::Relaxed), events, "{name}");
        assert!(
            2 * allocations < events,
            "{name}: {allocations} allocations for {events} events"
        );
        assert!(kept <= 256 << 10, "{name}: the trace keeps {kept} bytes");
    }
}
