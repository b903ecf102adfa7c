//! A counting global allocator and the observer that reads it, shared by
//! the allocation gates (`alloc_steady_state.rs` here and in `hpf-mg`,
//! which includes this file by path). The allocator tallies per thread
//! (the harness runs tests on parallel threads) and the [`Tally`]
//! observer reads the tally at the end of every iteration.

use hpf_solvers::{IterObserver, IterSample};
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

pub fn allocations() -> usize {
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
pub struct Tally(pub Vec<usize>);

impl IterObserver for Tally {
    fn on_iteration(&mut self, _sample: &IterSample) {
        assert!(self.0.len() < self.0.capacity(), "tally buffer too small");
        self.0.push(allocations());
    }
}
