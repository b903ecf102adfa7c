//! A counting global allocator and the observer that reads it, shared by
//! the allocation gates (`alloc_steady_state.rs` here and in `hpf-mg`,
//! which includes this file by path). The allocator tallies allocations
//! and live bytes per thread (the harness runs tests on parallel
//! threads) and the [`Tally`] observer reads the tally at the end of
//! every iteration.

use hpf_solvers::{IterObserver, IterSample};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so touching them from
    // inside the allocator neither allocates nor registers a dtor.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    // Bytes allocated minus bytes freed on this thread (wrapping: a block
    // may be freed on another thread than the one that allocated it).
    static LIVE_BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Count one allocation of `grown` bytes more than the block it
/// replaces (`shrunk` fewer, for a block freed or shrunk).
fn count(allocations: usize, grown: usize, shrunk: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + allocations));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get().wrapping_add(grown).wrapping_sub(shrunk)));
}

pub fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes this thread holds; differences of two readings are what it kept.
#[allow(dead_code)] // the solvers' gate reads it, `hpf-mg`'s does not
pub fn live_bytes() -> usize {
    LIVE_BYTES.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter it bumps first is
// a plain thread-local `Cell` and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size(), 0);
        // SAFETY: the caller's obligations are passed on as they came.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size(), 0);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size, layout.size());
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 0, layout.size());
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
