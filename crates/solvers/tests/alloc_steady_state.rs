//! The allocation gate of ROADMAP item 2: with tracing off and no event
//! sink, a steady-state iteration of distributed CG and Jacobi-PCG
//! performs **zero** heap allocations. A counting global allocator tallies
//! per thread (the harness runs tests on parallel threads) and an
//! [`IterObserver`] reads the tally at the end of every iteration.

use hpf_core::{DataArrayLayout, RowwiseCsr};
use hpf_machine::{CostModel, Machine, Topology};
use hpf_solvers::{
    cg_distributed_with_observer, pcg_jacobi_distributed_with_observer, IterObserver, IterSample,
    SolveStats, StopCriterion,
};
use hpf_sparse::gen;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers a dtor.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter it bumps first is
// a plain thread-local `Cell` and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed on as they came.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The thread's allocation tally at the end of each iteration. The
/// buffer is sized up front so that recording a sample allocates nothing.
struct Tally(Vec<usize>);

impl IterObserver for Tally {
    fn on_iteration(&mut self, _sample: &IterSample) {
        assert!(self.0.len() < self.0.capacity(), "tally buffer too small");
        self.0.push(allocations());
    }
}

const NP: usize = 8;
const MAX_ITERS: usize = 400;
const STOP: StopCriterion = StopCriterion::RelativeResidual(1e-10);

/// Run `solve` on `poisson_3d(12,12,12)` at NP = 8, tracing off, no
/// sink, and require zero allocations from the end of iteration 2 to the
/// end of the last one.
fn assert_steady_state_is_allocation_free(
    name: &str,
    solve: impl FnOnce(&mut Machine, &RowwiseCsr, &[f64], &mut Tally) -> SolveStats,
) {
    let a = gen::poisson_3d(12, 12, 12);
    let (_, b) = gen::rhs_for_known_solution(&a);
    let op = RowwiseCsr::block(a, NP, DataArrayLayout::RowAligned);
    let mut machine = Machine::new(NP, Topology::Hypercube, CostModel::mpp_1995());
    machine.set_tracing(false);
    let mut tally = Tally(Vec::with_capacity(MAX_ITERS));
    let stats = solve(&mut machine, &op, &b, &mut tally);
    assert!(stats.converged);
    let t = &tally.0;
    assert!(t.len() >= 10, "{name}: only {} iterations ran", t.len());
    assert_eq!(
        t[t.len() - 1] - t[1],
        0,
        "{name}: allocations from iteration 2 to {} (tally per iteration: {t:?})",
        t.len()
    );
}

#[test]
fn cg_distributed_steady_state_allocates_nothing() {
    assert_steady_state_is_allocation_free("cg_distributed", |m, op, b, tally| {
        cg_distributed_with_observer(m, op, b, STOP, MAX_ITERS, tally)
            .unwrap()
            .1
    });
}

#[test]
fn pcg_jacobi_distributed_steady_state_allocates_nothing() {
    assert_steady_state_is_allocation_free("pcg_jacobi_distributed", |m, op, b, tally| {
        pcg_jacobi_distributed_with_observer(m, op, b, STOP, MAX_ITERS, tally)
            .unwrap()
            .1
    });
}
