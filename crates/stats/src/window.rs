//! Event-time sliding windows for online calibration (§IV-B, streaming).
//!
//! The offline pipeline reads each 5-minute window's counters after the
//! run; a live prediction service instead needs *rolling* versions of the
//! same estimators — arrival rates, miss ratios, mean disk service — that
//! decay old observations as the workload shifts. These windows are driven
//! by **event time** (the telemetry timestamps), not wall-clock time, so
//! replayed traces calibrate identically to live streams.
//!
//! A [`WindowBank`] splits the window into `buckets` equal slices, one slot
//! per slice. A slot holds every counter of its bucket — a row of cells
//! whose layout the caller chooses — under a single stamp, and is recycled
//! lazily when its bucket index comes around again. Memory is
//! O(buckets × row), an event costs one stamp check plus one bucket
//! resolution per run of equal timestamps, and moderately out-of-order
//! events (within the window) still land in the right slot.

use std::ops::Range;

#[cfg(any(test, feature = "resolution-count"))]
thread_local! {
    static RESOLUTIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Bucket resolutions (timestamp divisions) made on this thread by every
/// bank's record path. Test-only: compiled under the `resolution-count`
/// feature, which nothing but tests enables.
#[cfg(any(test, feature = "resolution-count"))]
pub fn resolutions() -> u64 {
    RESOLUTIONS.with(|n| n.get())
}

/// A time-bucketed sliding window whose slots each hold one bucket's row
/// of `C` cells.
///
/// Slots are stamped with their bucket index, so stale slots are excluded
/// from reads without any eager expiry work. Each *rate column* also
/// remembers the earliest bucket it has seen, which bounds the event time
/// its rate divides by while the window is still filling.
///
/// Reads are exact at any `now` no earlier than every recorded event, the
/// only clock an event-time service reads at. Then an event is dropped
/// only when its slot already holds a bucket at least one window newer,
/// which puts the dropped event's bucket left of the window; and a slot
/// recycles only for such a newer bucket, so the bucket it gives up is
/// out of the window too. So every in-window bucket's cells count exactly
/// that bucket's events, in arrival order, as one single-column window per
/// cell would.
#[derive(Debug, Clone)]
pub struct WindowBank<C> {
    width: f64,
    /// Cells per slot.
    row: usize,
    /// The bucket each slot holds (`i64::MIN` before any).
    stamps: Vec<i64>,
    /// `row` cells per slot, slot-major.
    cells: Vec<C>,
    /// Earliest bucket each rate column has seen (`i64::MAX` before any).
    first: Vec<i64>,
    /// The last recorded time with its bucket and slot, so a run of equal
    /// timestamps resolves once.
    last: (f64, i64, usize),
}

impl<C: Copy + Default> WindowBank<C> {
    /// Creates a bank covering `window` seconds with `buckets` slots of
    /// `row` cells each, and `rate_columns` coverage starts.
    ///
    /// # Panics
    /// Panics unless `window > 0`, `buckets >= 1` and `row >= 1`.
    pub fn new(window: f64, buckets: usize, row: usize, rate_columns: usize) -> Self {
        assert!(
            window.is_finite() && window > 0.0,
            "window must be positive, got {window}"
        );
        assert!(buckets >= 1, "need at least one bucket");
        assert!(row >= 1, "need at least one cell per slot");
        WindowBank {
            width: window / buckets as f64,
            row,
            stamps: vec![i64::MIN; buckets],
            cells: vec![C::default(); buckets * row],
            first: vec![i64::MAX; rate_columns],
            // NaN equals no time, so the first event resolves.
            last: (f64::NAN, i64::MIN, 0),
        }
    }

    fn bucket_of(&self, t: f64) -> i64 {
        (t / self.width).floor() as i64
    }

    /// `t`'s bucket and slot. Equal times share a bucket (`0.0 == -0.0`
    /// included), so a time equal to the last one reuses its resolution.
    fn resolve(&mut self, t: f64) -> (i64, usize) {
        if t != self.last.0 {
            #[cfg(any(test, feature = "resolution-count"))]
            RESOLUTIONS.with(|n| n.set(n.get() + 1));
            let b = self.bucket_of(t);
            let slot = b.rem_euclid(self.stamps.len() as i64) as usize;
            self.last = (t, b, slot);
        }
        (self.last.1, self.last.2)
    }

    /// The row of bucket `b` in `slot`: recycled (every cell reset) if the
    /// slot holds an older bucket, `None` if it holds a newer one.
    fn claim(&mut self, b: i64, slot: usize) -> Option<&mut [C]> {
        let stamp = &mut self.stamps[slot];
        if *stamp > b {
            return None; // a newer bucket owns this slot; the event expired
        }
        let row = &mut self.cells[slot * self.row..(slot + 1) * self.row];
        if *stamp < b {
            *stamp = b;
            row.fill(C::default());
        }
        Some(row)
    }

    /// The row an event at time `t` counts into, or `None` if the event is
    /// more than one window older than the newest data in its slot.
    pub fn record(&mut self, t: f64) -> Option<&mut [C]> {
        let (b, slot) = self.resolve(t);
        self.claim(b, slot)
    }

    /// [`record`](Self::record) for an event of rate column `column`,
    /// which also counts toward that column's coverage start (even when
    /// the event itself has expired).
    ///
    /// # Panics
    /// Panics if `column` is not below the bank's `rate_columns`.
    pub fn record_rate(&mut self, t: f64, column: usize) -> Option<&mut [C]> {
        let (b, slot) = self.resolve(t);
        let first = &mut self.first[column];
        *first = (*first).min(b);
        self.claim(b, slot)
    }

    /// The in-window bucket range `[lo, hi]` of the window ending at `now`.
    fn edges(&self, now: f64) -> (i64, i64) {
        let hi = self.bucket_of(now);
        // Saturating: a `now` of −∞ is bucket `i64::MIN`.
        (hi.saturating_sub(self.stamps.len() as i64 - 1), hi)
    }

    /// The rows of every slot inside the window ending at `now`, in slot
    /// order.
    pub fn live(&self, now: f64) -> impl Iterator<Item = &[C]> + '_ {
        let (lo, hi) = self.edges(now);
        self.stamps
            .iter()
            .zip(self.cells.chunks_exact(self.row))
            .filter(move |(&b, _)| lo <= b && b <= hi)
            .map(|(_, row)| row)
    }

    /// Events per second over the window ending at `now`: `count` events of
    /// the rate columns `columns`, over the event time from the window's
    /// left edge or the earliest bucket any of those columns has seen,
    /// whichever is later. `None` before any event time has accumulated.
    ///
    /// # Panics
    /// Panics if `columns` reaches past the bank's `rate_columns`.
    pub fn rate(&self, now: f64, columns: Range<usize>, count: u64) -> Option<f64> {
        let (lo, hi) = self.edges(now);
        let first = self.first[columns]
            .iter()
            .copied()
            .min()
            .unwrap_or(i64::MAX);
        let start = self.width * lo.max(first.min(hi)) as f64;
        let covered = (now - start).max(0.0);
        (covered > 0.0).then(|| count as f64 / covered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-column rate bank: each cell counts its bucket's events.
    fn counter(window: f64, buckets: usize) -> WindowBank<u64> {
        WindowBank::new(window, buckets, 1, 1)
    }

    fn arrive(bank: &mut WindowBank<u64>, t: f64) {
        if let Some(row) = bank.record_rate(t, 0) {
            row[0] += 1;
        }
    }

    fn count(bank: &WindowBank<u64>, now: f64) -> u64 {
        bank.live(now).map(|row| row[0]).sum()
    }

    fn rate(bank: &WindowBank<u64>, now: f64) -> Option<f64> {
        bank.rate(now, 0..1, count(bank, now))
    }

    #[test]
    fn reads_at_minus_infinity_are_empty() {
        let mut bank = counter(10.0, 20);
        for i in 0..100 {
            arrive(&mut bank, i as f64 * 0.1);
        }
        assert_eq!(count(&bank, f64::NEG_INFINITY), 0);
        assert_eq!(rate(&bank, f64::NEG_INFINITY), None);
    }

    #[test]
    fn a_rate_column_tracks_uniform_arrivals() {
        let mut bank = counter(10.0, 20);
        // 50 arrivals/s for 30 seconds.
        for i in 0..1500 {
            arrive(&mut bank, i as f64 * 0.02);
        }
        let rate = rate(&bank, 30.0).unwrap();
        assert!((rate - 50.0).abs() < 5.0, "rate {rate}");
    }

    #[test]
    fn old_bursts_leave_the_window() {
        let mut bank = counter(5.0, 10);
        for i in 0..1000 {
            arrive(&mut bank, i as f64 * 0.001); // burst in the first second
        }
        // Quiet until t=20: the burst left the window entirely.
        assert_eq!(count(&bank, 20.0), 0);
        assert_eq!(rate(&bank, 20.0), Some(0.0));
    }

    #[test]
    fn early_coverage_is_elapsed_time() {
        let mut bank = counter(100.0, 50);
        for i in 0..100 {
            arrive(&mut bank, i as f64 * 0.01); // 100/s for one second
        }
        // Only ~1 s elapsed: the rate divides by ~1 s, not the 100 s window.
        let rate = rate(&bank, 1.0).unwrap();
        assert!((rate - 100.0).abs() < 20.0, "rate {rate}");
    }

    #[test]
    fn empty_banks_have_no_rate() {
        assert_eq!(rate(&counter(1.0, 4), 5.0), None);
    }

    #[test]
    fn out_of_order_within_window_is_kept() {
        let mut bank = counter(10.0, 10);
        arrive(&mut bank, 5.0);
        arrive(&mut bank, 3.0); // older but inside the window
        assert_eq!(count(&bank, 5.5), 2);
    }

    #[test]
    fn expired_out_of_order_event_is_dropped() {
        let mut bank = counter(1.0, 2);
        arrive(&mut bank, 10.0);
        arrive(&mut bank, 0.2); // a full window in the past
        assert_eq!(count(&bank, 10.0), 1);
    }

    #[test]
    fn a_recycled_slot_resets_every_cell_of_its_row() {
        let mut bank: WindowBank<u64> = WindowBank::new(2.0, 2, 3, 0);
        bank.record(0.5).unwrap().copy_from_slice(&[1, 2, 3]);
        // Bucket 2 reuses bucket 0's slot.
        bank.record(2.5).unwrap()[1] += 1;
        let rows: Vec<&[u64]> = bank.live(2.5).collect();
        assert_eq!(rows, [&[0, 1, 0][..]]);
    }

    #[test]
    fn a_run_of_equal_times_resolves_its_bucket_once() {
        let mut bank = counter(10.0, 10);
        let before = resolutions();
        for t in [1.0, 1.0, 1.0, 2.5, 2.5, 1.0, -0.0, 0.0] {
            arrive(&mut bank, t);
        }
        assert_eq!(resolutions() - before, 4, "runs 1.0, 2.5, 1.0, ±0");
        assert_eq!(count(&bank, 3.0), 8);
    }

    #[test]
    fn rate_columns_keep_their_own_coverage_start() {
        let mut bank: WindowBank<u64> = WindowBank::new(10.0, 10, 2, 2);
        for i in 0..50 {
            let t = i as f64 / 10.0; // column 0 from t = 0
            bank.record_rate(t, 0).unwrap()[0] += 1;
            if t >= 4.0 {
                bank.record_rate(t, 1).unwrap()[1] += 1; // column 1 from t = 4
            }
        }
        let now = 5.0;
        let [a, b] = bank
            .live(now)
            .fold([0, 0], |acc, row| [acc[0] + row[0], acc[1] + row[1]]);
        assert_eq!(bank.rate(now, 0..1, a), Some(10.0));
        assert_eq!(bank.rate(now, 1..2, b), Some(10.0));
        // The union of both columns starts with the earlier one.
        assert_eq!(bank.rate(now, 0..2, a + b), Some(12.0));
    }
}
