//! Std-only parallelism primitives shared by the sweep-heavy layers
//! (capacity planning, sensitivity analysis, benchmark scenario replay, and
//! the serve tier's batched re-fits and what-if sweeps).
//!
//! [`par_map`] is a scoped, borrowing parallel map over a slice with
//! deterministic output order, used by planning/sensitivity grids, bench
//! bins, and `cos-serve` (fleet re-fits and what-if sweeps, each from its
//! caller's thread): results are returned in item order regardless of
//! which worker computed what, so callers that fold over the output get
//! **bit-identical** results for any worker count (each item's
//! computation is single-threaded and the merge is a plain index sort,
//! never a reduction tree). Its threads are scoped to the call, so nothing
//! idles between sweeps.
//!
//! No code dependencies beyond `std` — the build environment is offline and the
//! rest of the workspace is similarly std-only.
//!
//! [`poller`] holds a readiness [`Poller`] (epoll on Linux, `poll(2)`
//! elsewhere; level-triggered) plus a socket-pair [`Waker`], the OS
//! surface under the gate's event-driven reactor. Its companion
//! [`alloc_probe`] is the bench-only allocation counter that proves the
//! reactor's "steady state allocates nothing" claim. These two modules
//! hold this crate's `unsafe`: the poller's epoll and `poll(2)` calls,
//! which std has no API for, and the counting allocator.

pub mod alloc_probe;
pub mod poller;

pub use poller::{
    Backend, Event, Interest, Poller, SyscallCounters, SyscallSnapshot, WakeReader, Waker,
};

use std::sync::atomic::{AtomicUsize, Ordering};
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
}
