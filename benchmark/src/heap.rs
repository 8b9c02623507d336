//! Peak live heap, counted by the allocator.
//!
//! `VmHWM` cannot carry a bound here. The ensemble workloads run their
//! seeds on a scoped worker thread per call, and glibc gives a new thread a
//! fresh malloc arena whenever the previous thread has not finished exiting
//! yet — a scheduling race that makes the resident peak of the *same* binary
//! and seed read 7.6 or 11.3 MiB. Counting requested bytes has no such mode:
//! it is exact, and repeats for a given seed.
//!
//! The counter is off during the timed rounds (one relaxed load and a
//! predictable branch per allocation) and on only inside [`peak_during`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// The system allocator, with an optional live-byte counter in front.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting was switched on. Signed:
/// a block allocated before the switch may be freed after it.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

// The counters only publish statistics, so `Relaxed` suffices; `fetch_*`
// keeps them exact when an ensemble's worker thread and the main thread
// allocate at the same time.
fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as isize, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counters never touch the
// memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if ENABLED.load(Relaxed) && !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if ENABLED.load(Relaxed) && !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            shrank(layout.size());
        }
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`, and every block of this allocator is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`, plus the caller's guarantee on
        // `new_size`, which `System.realloc` requires verbatim.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if ENABLED.load(Relaxed) && !new.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        new
    }
}

/// Runs `body` with the counter on and returns its result with the peak
/// number of bytes that were live at once inside it (blocks allocated
/// before the call are not counted). Not reentrant.
pub fn peak_during<T>(body: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
    let out = body();
    ENABLED.store(false, Relaxed);
    (out, usize::try_from(PEAK.load(Relaxed)).unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the counter is process-wide. Other tests allocate and free
    // on their own threads meanwhile, hence the quarter-MiB slack.
    #[test]
    fn peak_counts_live_bytes_not_total_bytes() {
        let before: Vec<u8> = Vec::with_capacity(1 << 20);
        let ((), peak) = peak_during(|| {
            for _ in 0..8 {
                let block: Vec<u8> = Vec::with_capacity(1 << 20);
                std::hint::black_box(&block);
            }
            drop(before); // allocated outside: must not push the peak
            let mut grown: Vec<u8> = Vec::with_capacity(1 << 18);
            grown.reserve_exact(1 << 19); // realloc: old size out, new size in
            std::hint::black_box(&grown);
        });
        let slack = 1 << 18;
        assert!(
            ((1 << 20) - slack..(1 << 20) + slack).contains(&peak),
            "eight 1 MiB blocks, one at a time: {peak}"
        );
        let ((), idle) = peak_during(|| ());
        assert!(idle < slack, "{idle}");
    }
}
