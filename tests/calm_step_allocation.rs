//! The count-level period kernels allocate nothing once a run is set up: a
//! calm `BatchedRuntime::step` or `SsaRuntime::step` (no environment event
//! due) reuses the scratch that `init` sized, and a sample recorded into an
//! existing metrics series allocates only when the series grows. A binary of
//! its own, because it installs a counting global allocator.

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

/// Allocations made by 100 calm steps of a run of `runtime` from `counts`.
fn allocations_of_100_calm_steps<R: Runtime>(runtime: &R, counts: &[u64]) -> u64 {
    let n = counts.iter().sum::<u64>() as usize;
    let scenario = Scenario::new(n, 100).unwrap().with_seed(1);
    let mut state = runtime
        .init(&scenario, &InitialStates::counts(counts))
        .unwrap();
    let before = allocations();
    for _ in 0..100 {
        runtime.step(&mut state).unwrap();
    }
    allocations() - before
}

#[test]
fn a_calm_width_one_batched_step_allocates_nothing() {
    let params = EndemicParams::from_contact_count(2, 0.1, 0.01).unwrap();
    let runtime = BatchedRuntime::new(params.figure1_protocol().unwrap());
    let counts = params.equilibrium_counts(1_000_000);
    assert_eq!(allocations_of_100_calm_steps(&runtime, &counts), 0);
}

#[test]
fn a_calm_many_state_batched_step_allocates_nothing() {
    let params = dpde::protocols::lv::multi::MultiLvParams::new(32).unwrap();
    let runtime = BatchedRuntime::new(params.protocol().unwrap());
    assert_eq!(allocations_of_100_calm_steps(&runtime, &[300_000; 33]), 0);
}

#[test]
fn a_calm_ssa_step_allocates_nothing() {
    let params = EndemicParams::from_contact_count(2, 0.1, 0.01).unwrap();
    let runtime = SsaRuntime::new(params.figure1_protocol().unwrap());
    let counts = params.equilibrium_counts(3_000);
    assert_eq!(allocations_of_100_calm_steps(&runtime, &counts), 0);
}

#[test]
fn recording_into_an_existing_series_allocates_only_to_grow_it() {
    let mut recorder = MetricsRecorder::new();
    recorder.record("alive", 0, 1.0);
    let before = allocations();
    for period in 1..=100 {
        recorder.record("alive", period, 1.0);
    }
    let allocated = allocations() - before;
    assert!(allocated <= 8, "100 records allocated {allocated} times");
}
