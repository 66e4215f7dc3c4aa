//! Std-only parallelism primitives shared by the sweep-heavy layers
//! (capacity planning, sensitivity analysis, benchmark scenario replay, and
//! the serve tier's batched re-fits and what-if sweeps).
//!
//! Two building blocks:
//!
//! * [`par_map`] — a scoped, borrowing parallel map over a slice with
//!   deterministic output order, used by planning/sensitivity grids, bench
//!   bins, and `cos-serve` (fleet re-fits and what-if sweeps, each from
//!   its caller's thread): results are returned in item order
//!   regardless of which worker computed what, so callers that fold over
//!   the output get **bit-identical** results for any worker count (each
//!   item's computation is single-threaded and the merge is a plain index
//!   sort, never a reduction tree). Its threads are scoped to the call, so
//!   nothing idles between sweeps.
//! * [`ArcCell`] — an atomically swappable `Arc<T>` slot: one writer
//!   publishes immutable snapshots, any number of readers clone the
//!   current one without ever blocking on a mutex. This is the publication
//!   primitive behind the serve-tier lock-free read path.
//!
//! No code dependencies beyond `std` — the build environment is offline and the
//! rest of the workspace is similarly std-only.
//!
//! A third block lives in [`poller`]: a readiness [`Poller`] (epoll on
//! Linux, `poll(2)` elsewhere; level-triggered) plus a pipe-based
//! [`Waker`], the OS surface under the gate's event-driven reactor. Its
//! companion [`alloc_probe`] is the bench-only allocation counter that
//! proves the reactor's "steady state allocates nothing" claim.

pub mod alloc_probe;
pub mod poller;

pub use poller::{
    Backend, Event, Interest, Poller, SyscallCounters, SyscallSnapshot, WakeReader, Waker,
};

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

/// The machine's available parallelism (1 if it cannot be queried) — the
/// conventional worker count for batch sweeps. Safe to use with [`par_map`]
/// without sacrificing reproducibility: results do not depend on the worker
/// count.
pub fn default_workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parallel map over `items` with `workers` threads — the caller and
/// `workers − 1` scoped helpers — returning results **in item order**.
///
/// Work is distributed by an atomic next-index counter, so load balances
/// across uneven per-item costs; each thread accumulates `(index, result)`
/// pairs which are merged into a dense, item-ordered `Vec` at the end.
/// Because each item is computed by exactly one thread with no shared
/// state, the output is bit-identical to the serial map for every worker
/// count — determinism is positional, not scheduling-dependent. The caller
/// takes items from the start instead of sleeping in `join`, so a helper
/// that starts late (or never, on a busy machine) costs only its share.
///
/// Falls back to a plain serial map when `workers <= 1` or there is at most
/// one item. Panics in `f` propagate (the scope unwinds).
pub fn par_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            local.push((i, f(i, &items[i])));
        }
        local
    };
    let helpers = workers.min(items.len()) - 1;
    let mut shards: Vec<Vec<(usize, R)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(drain)).collect();
        let mut shards = vec![drain()];
        shards.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("cos-par worker panicked")),
        );
        shards
    });
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(items.len());
    for shard in shards.drain(..) {
        indexed.extend(shard);
    }
    indexed.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// An atomically swappable `Arc<T>`: a single slot one writer republishes
/// and many readers snapshot, with no mutex on either side.
///
/// The representation is one `AtomicPtr` holding the `Arc`'s raw pointer.
/// Readers and the writer momentarily *check the pointer out* (swap it to
/// null with `Acquire`), act on it, and put it back (`store` with
/// `Release`):
///
/// * [`get`](ArcCell::get) checks out, bumps the strong count, puts the
///   same pointer back, and returns the new `Arc` — a reader can never
///   observe a half-published value, because the only thing ever stored is
///   a pointer to a fully constructed `Arc` allocation, and the
///   `Release`-store / `Acquire`-swap pair orders the allocation's
///   initialization before any access through the checked-out pointer.
/// * [`set`](ArcCell::set) checks out the old pointer, stores the new one,
///   and returns the previous value so its refcount is handed back to the
///   caller (and dropped, usually).
///
/// While one thread has the pointer checked out, others spin (with
/// `yield_now`, so a preempted holder on a loaded box gets rescheduled
/// promptly — important on single-CPU containers). The checked-out window
/// is a handful of instructions with no allocation, I/O, or locking, so
/// the cell is obstruction-free in practice; it trades the unbounded
/// wait-freedom of hazard-pointer schemes for zero dependencies and ~30
/// lines of unsafe that are easy to audit.
///
/// A monotone [`generation`](ArcCell::generation) counter is bumped by
/// every `set` (with `Release`, after the new pointer is in place), so
/// readers that cache an `Arc` can cheaply poll "has anything been
/// republished since?" without touching the pointer slot.
pub struct ArcCell<T> {
    ptr: AtomicPtr<T>,
    generation: AtomicU64,
}

// The cell hands out `Arc<T>` clones across threads, so it is exactly as
// shareable as `Arc<T>` itself.
unsafe impl<T: Send + Sync> Send for ArcCell<T> {}
unsafe impl<T: Send + Sync> Sync for ArcCell<T> {}

impl<T> ArcCell<T> {
    /// Creates a cell holding `value`.
    pub fn new(value: Arc<T>) -> Self {
        ArcCell {
            ptr: AtomicPtr::new(Arc::into_raw(value).cast_mut()),
            generation: AtomicU64::new(0),
        }
    }

    /// Checks the pointer out of the slot, spinning while another thread
    /// has it. `Acquire` pairs with the `Release` in [`put`](Self::put):
    /// everything the previous holder did to publish the pointee is
    /// visible here.
    fn take(&self) -> *const T {
        loop {
            let p = self.ptr.swap(std::ptr::null_mut(), Ordering::Acquire);
            if !p.is_null() {
                return p;
            }
            // Another thread holds the pointer for a few instructions; on a
            // single hardware thread, yielding is the only way it can
            // finish.
            thread::yield_now();
        }
    }

    /// Puts a pointer back into the slot. `Release` publishes every write
    /// made while it was checked out (refcount bumps, or a brand-new
    /// allocation's contents) to the next `Acquire` swap.
    fn put(&self, p: *const T) {
        self.ptr.store(p.cast_mut(), Ordering::Release);
    }

    /// Returns a clone of the current value.
    pub fn get(&self) -> Arc<T> {
        let p = self.take();
        // SAFETY: `p` came out of `Arc::into_raw` and the cell still owns
        // one strong reference to it; bump the count for the clone we are
        // about to hand out, then reconstruct that clone.
        unsafe {
            Arc::increment_strong_count(p);
        }
        self.put(p);
        // SAFETY: the increment above is the reference this Arc owns.
        unsafe { Arc::from_raw(p) }
    }

    /// Replaces the value, returning the previous one.
    pub fn set(&self, value: Arc<T>) -> Arc<T> {
        let old = self.take();
        self.put(Arc::into_raw(value));
        self.generation.fetch_add(1, Ordering::Release);
        // SAFETY: `old` was the cell's owned reference; ownership moves to
        // the caller (typically to be dropped).
        unsafe { Arc::from_raw(old) }
    }

    /// Number of [`set`](ArcCell::set) calls so far. A reader that cached
    /// the result of [`get`](ArcCell::get) can compare generations to skip
    /// re-reading an unchanged cell; observing generation `n` (`Acquire`)
    /// guarantees the `n`-th published pointer is visible.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }
}

impl<T> Drop for ArcCell<T> {
    fn drop(&mut self) {
        let p = *self.ptr.get_mut();
        if !p.is_null() {
            // SAFETY: drop the cell's owned reference.
            unsafe { drop(Arc::from_raw(p)) };
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ArcCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArcCell")
            .field("value", &self.get())
            .field("generation", &self.generation())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..97).collect();
        let got = par_map(4, &items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        let want: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_map_is_bit_identical_across_worker_counts() {
        // A numerically touchy computation: results must match serial
        // bitwise for every worker count.
        let items: Vec<f64> = (1..=64).map(|i| i as f64 * 0.37).collect();
        let work = |_: usize, &x: &f64| -> f64 {
            let mut acc = 0.0f64;
            for k in 1..200 {
                acc += (x / k as f64).sin() / k as f64;
            }
            acc
        };
        let serial: Vec<f64> = par_map(1, &items, work);
        for workers in [2, 3, 4, 7, 16] {
            let par = par_map(workers, &items, work);
            for (a, b) in serial.iter().zip(par.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "workers={workers}");
            }
        }
    }

    #[test]
    fn the_caller_works_a_share_of_the_fan_out() {
        // Each item waits for the other, so two threads must run them at
        // once, and one of the two must be the caller.
        let barrier = std::sync::Barrier::new(2);
        let caller = thread::current().id();
        let ran_on = par_map(2, &[0u8, 1], |_, _| {
            barrier.wait();
            thread::current().id()
        });
        assert_ne!(ran_on[0], ran_on[1]);
        assert!(ran_on.contains(&caller), "{ran_on:?} vs caller {caller:?}");
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn par_map_more_workers_than_items() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map(64, &items, |_, &x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn arc_cell_get_and_set_round_trip() {
        let cell = ArcCell::new(Arc::new(7u64));
        assert_eq!(*cell.get(), 7);
        assert_eq!(cell.generation(), 0);
        let old = cell.set(Arc::new(8));
        assert_eq!(*old, 7);
        assert_eq!(*cell.get(), 8);
        assert_eq!(cell.generation(), 1);
    }

    #[test]
    fn arc_cell_balances_reference_counts() {
        let value = Arc::new(vec![1u8, 2, 3]);
        {
            let cell = ArcCell::new(value.clone());
            for _ in 0..10 {
                let got = cell.get();
                assert_eq!(*got, vec![1, 2, 3]);
            }
            let replaced = cell.set(Arc::new(vec![9]));
            assert!(Arc::ptr_eq(&replaced, &value));
        } // `replaced` and the cell's own reference both dropped here
        assert_eq!(Arc::strong_count(&value), 1, "no leaked references");
    }

    #[test]
    fn arc_cell_concurrent_readers_and_writer_never_tear() {
        // Each published snapshot is internally consistent (both fields
        // equal); readers must never observe a mix of two snapshots, and
        // generations must be monotone per reader.
        let cell = Arc::new(ArcCell::new(Arc::new((0u64, 0u64))));
        let writers = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                for i in 1..=500u64 {
                    cell.set(Arc::new((i, i)));
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    let mut last_gen = 0;
                    for _ in 0..2_000 {
                        let g0 = cell.generation();
                        let snap = cell.get();
                        assert_eq!(snap.0, snap.1, "torn snapshot");
                        assert!(g0 >= last_gen, "generation went backwards");
                        last_gen = g0;
                    }
                })
            })
            .collect();
        writers.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(*cell.get(), (500, 500));
        assert_eq!(cell.generation(), 500);
    }
}
