//! The count-level period kernel allocates nothing once a run is set up: a
//! calm `BatchedRuntime::step` (no environment event due) reuses the scratch
//! that `init` sized. A binary of its own, because it installs a counting
//! global allocator.

use dpde::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation per thread (the test
/// harness's own threads do not disturb the count of the thread under test).
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments, so
// `System` upholds the `GlobalAlloc` contract; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn a_calm_width_one_batched_step_allocates_nothing() {
    let params = EndemicParams::from_contact_count(2, 0.1, 0.01).unwrap();
    let runtime = BatchedRuntime::new(params.figure1_protocol().unwrap());
    let n = 1_000_000;
    let scenario = Scenario::new(n, 100).unwrap().with_seed(1);
    let initial = InitialStates::counts(&params.equilibrium_counts(n as u64));
    let mut state = runtime.init(&scenario, &initial).unwrap();
    let before = allocations();
    for _ in 0..100 {
        runtime.step(&mut state).unwrap();
    }
    assert_eq!(allocations() - before, 0, "100 calm steps allocated");
}
