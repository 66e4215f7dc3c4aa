//! A heap-allocation probe for benchmarks: a wrapping
//! [`GlobalAlloc`] that counts allocations made by
//! *opted-in* threads.
//!
//! The gate's steady-state claim — "keep-alive traffic allocates nothing" —
//! is only provable from inside the allocator. But a process-wide counter
//! would drown the signal in bench-client noise (the load generator
//! allocates freely), so counting is gated on a per-thread flag:
//!
//! 1. A binary that wants the numbers installs
//!    `#[global_allocator] static A: CountingAlloc = CountingAlloc;`
//!    (benchmark and allocation-budget binaries do; production binaries
//!    keep the system allocator untouched).
//! 2. Threads whose allocations matter — the gate's reactor threads — call
//!    [`track_current_thread`]`(true)` at startup. The reactor does this
//!    unconditionally: when the counting allocator is not installed the
//!    flag is a write to a thread-local bool that nothing reads.
//! 3. The bench diffs [`tracked_allocs`] around a traffic window and
//!    divides by requests served. The counter is process-wide on purpose:
//!    the reading thread (a load-generating client) is not the counting
//!    one (a reactor), so a per-thread counter would read zero.
//!
//! Only allocation *events* are counted (alloc, realloc, alloc_zeroed —
//! not dealloc): the claim under test is "the hot path does not go to the
//! allocator", and frees pair with allocations anyway.
//!
//! The flag lives in a `const`-initialized thread-local `Cell` so reading
//! it never allocates (a lazily-initialized TLS slot could recurse into
//! the allocator on first touch), and is read with `try_with` so
//! allocations during thread teardown — after TLS destructors ran — stay
//! safe instead of panicking.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static TRACKED_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TRACKED: Cell<bool> = const { Cell::new(false) };
}

/// Opts the current thread in (or out) of allocation counting. Cheap
/// enough to call unconditionally at thread start.
pub fn track_current_thread(on: bool) {
    let _ = TRACKED.try_with(|t| t.set(on));
}

/// Total allocation events by opted-in threads since process start (zero
/// unless a [`CountingAlloc`] is installed as the global allocator).
pub fn tracked_allocs() -> u64 {
    TRACKED_ALLOCS.load(Ordering::Relaxed)
}

#[inline]
fn count() {
    if TRACKED.try_with(|t| t.get()).unwrap_or(false) {
        TRACKED_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// The counting wrapper around the system allocator. Zero-sized; install
/// with `#[global_allocator]` in binaries that want the numbers.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System` for memory management; the wrapper
// only adds a relaxed counter bump on allocation paths and never touches
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install `CountingAlloc`, so `tracked_allocs`
    // stays flat no matter what — which is itself the documented contract
    // for production binaries. The wrapper itself is callable directly
    // (not as the global allocator) and counts only while the thread is
    // opted in. Both halves share one test: the counter is process-wide,
    // so the second half running on another test thread would move the
    // first half's counter.
    #[test]
    fn counter_is_flat_without_installation_and_counts_only_opted_in_threads() {
        track_current_thread(true);
        let before = tracked_allocs();
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(v.len(), 1000);
        assert_eq!(
            tracked_allocs(),
            before,
            "counter moved without CountingAlloc installed"
        );
        track_current_thread(false);

        let a = CountingAlloc;
        let layout = Layout::from_size_align(64, 8).unwrap();

        track_current_thread(false);
        let before = tracked_allocs();
        // SAFETY: valid layout; the pointer is freed immediately below.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            a.dealloc(p, layout);
        }
        assert_eq!(tracked_allocs(), before, "untracked thread counted");

        track_current_thread(true);
        // SAFETY: as above.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            a.dealloc(p, layout);
            let z = a.alloc_zeroed(layout);
            assert!(!z.is_null());
            let z2 = a.realloc(z, layout, 128);
            assert!(!z2.is_null());
            a.dealloc(z2, Layout::from_size_align(128, 8).unwrap());
        }
        assert_eq!(
            tracked_allocs(),
            before + 3,
            "alloc + alloc_zeroed + realloc each count once; dealloc never"
        );
        track_current_thread(false);
    }
}
