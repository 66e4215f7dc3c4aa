//! Event-time sliding windows for online calibration (§IV-B, streaming).
//!
//! The offline pipeline reads each 5-minute window's counters after the
//! run; a live prediction service instead needs *rolling* versions of the
//! same estimators — arrival rates, miss ratios, mean disk service — that
//! decay old observations as the workload shifts. These windows are driven
//! by **event time** (the telemetry timestamps), not wall-clock time, so
//! replayed traces calibrate identically to live streams.
//!
//! All window types share a time-bucketed ring ([`BucketRing`]): the window
//! is split into `buckets` equal slices and a slot is recycled lazily when
//! its bucket index comes around again. Memory is O(buckets), every
//! operation is O(1) amortized, and moderately out-of-order events (within
//! the window) still land in the right slot.

use crate::percentile::P2Quantile;

/// Aggregate totals over the live portion of a [`BucketRing`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowTotals {
    /// Sum of recorded values.
    pub sum: f64,
    /// Number of recorded events.
    pub count: u64,
    /// Number of events recorded with the flag set.
    pub flagged: u64,
    /// Seconds of event time the live slots span (≤ the window length).
    pub covered: f64,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    bucket: i64,
    sum: f64,
    count: u64,
    flagged: u64,
}

const EMPTY_SLOT: Slot = Slot {
    bucket: i64::MIN,
    sum: 0.0,
    count: 0,
    flagged: 0,
};

/// A time-bucketed sliding-window accumulator.
///
/// Records `(time, value, flag)` triples and aggregates over the trailing
/// window. Slots are stamped with their bucket index, so stale slots are
/// excluded from queries without any eager expiry work.
#[derive(Debug, Clone)]
pub struct BucketRing {
    width: f64,
    slots: Vec<Slot>,
    /// Bucket of the earliest event ever recorded (`i64::MAX` before any).
    first_bucket: i64,
}

impl BucketRing {
    /// Creates a ring covering `window` seconds with `buckets` slots.
    ///
    /// # Panics
    /// Panics unless `window > 0` and `buckets >= 1`.
    pub fn new(window: f64, buckets: usize) -> Self {
        assert!(
            window.is_finite() && window > 0.0,
            "window must be positive, got {window}"
        );
        assert!(buckets >= 1, "need at least one bucket");
        BucketRing {
            width: window / buckets as f64,
            slots: vec![EMPTY_SLOT; buckets],
            first_bucket: i64::MAX,
        }
    }

    /// The window length in seconds.
    pub fn window(&self) -> f64 {
        self.width * self.slots.len() as f64
    }

    fn bucket_of(&self, t: f64) -> i64 {
        (t / self.width).floor() as i64
    }

    /// Records one event at time `t`. Events older than the slot currently
    /// occupying their position (more than one window in the past relative
    /// to the newest data) are dropped.
    pub fn record(&mut self, t: f64, value: f64, flag: bool) {
        let b = self.bucket_of(t);
        self.first_bucket = self.first_bucket.min(b);
        let len = self.slots.len() as i64;
        let slot = &mut self.slots[b.rem_euclid(len) as usize];
        if slot.bucket > b {
            return; // a newer epoch owns this slot; the event expired
        }
        if slot.bucket < b {
            *slot = Slot {
                bucket: b,
                ..EMPTY_SLOT
            };
        }
        slot.sum += value;
        slot.count += 1;
        if flag {
            slot.flagged += 1;
        }
    }

    /// Totals over events in the window ending at `now`.
    pub fn totals(&self, now: f64) -> WindowTotals {
        let now_b = self.bucket_of(now);
        let len = self.slots.len() as i64;
        // Saturating: a `now` of −∞ is bucket `i64::MIN`.
        let lo = now_b.saturating_sub(len - 1);
        let mut out = WindowTotals {
            sum: 0.0,
            count: 0,
            flagged: 0,
            covered: 0.0,
        };
        for slot in &self.slots {
            if slot.bucket >= lo && slot.bucket <= now_b {
                out.sum += slot.sum;
                out.count += slot.count;
                out.flagged += slot.flagged;
            }
        }
        // Event-time coverage: from the window's left edge (or the first
        // observation's bucket, whichever is later) to `now`.
        let start = self.width * lo.max(self.first_bucket.min(now_b)) as f64;
        out.covered = (now - start).max(0.0);
        out
    }
}

/// Windowed arrival-rate estimator: events per second over the trailing
/// window.
#[derive(Debug, Clone)]
pub struct RateWindow {
    ring: BucketRing,
}

impl RateWindow {
    /// Creates a rate window of `window` seconds with `buckets` slots.
    pub fn new(window: f64, buckets: usize) -> Self {
        RateWindow {
            ring: BucketRing::new(window, buckets),
        }
    }

    /// Records one arrival at time `t`.
    pub fn record(&mut self, t: f64) {
        self.ring.record(t, 0.0, false);
    }

    /// Events per second over the window ending at `now` (`None` before any
    /// event time has accumulated).
    pub fn rate(&self, now: f64) -> Option<f64> {
        let totals = self.ring.totals(now);
        if totals.covered <= 0.0 {
            return None;
        }
        Some(totals.count as f64 / totals.covered)
    }

    /// Events currently inside the window ending at `now`.
    pub fn count(&self, now: f64) -> u64 {
        self.ring.totals(now).count
    }
}

/// Windowed flagged-event ratio — the streaming form of the §IV-B
/// latency-threshold miss-ratio estimator (record `flag = latency >
/// threshold`) and of observed SLA attainment (record `flag = latency <=
/// sla`).
#[derive(Debug, Clone)]
pub struct WindowedRatio {
    ring: BucketRing,
}

impl WindowedRatio {
    /// Creates a ratio window of `window` seconds with `buckets` slots.
    pub fn new(window: f64, buckets: usize) -> Self {
        WindowedRatio {
            ring: BucketRing::new(window, buckets),
        }
    }

    /// Records one event at time `t`.
    pub fn record(&mut self, t: f64, flag: bool) {
        self.ring.record(t, 0.0, flag);
    }

    /// Fraction of flagged events in the window ending at `now` (`None`
    /// with no events — an empty window has no ratio, not ratio 0).
    pub fn ratio(&self, now: f64) -> Option<f64> {
        let totals = self.ring.totals(now);
        if totals.count == 0 {
            return None;
        }
        Some(totals.flagged as f64 / totals.count as f64)
    }

    /// Events currently inside the window ending at `now`.
    pub fn count(&self, now: f64) -> u64 {
        self.ring.totals(now).count
    }
}

/// Windowed mean of a recorded value (e.g. per-operation disk service
/// time).
#[derive(Debug, Clone)]
pub struct WindowedMean {
    ring: BucketRing,
}

impl WindowedMean {
    /// Creates a mean window of `window` seconds with `buckets` slots.
    pub fn new(window: f64, buckets: usize) -> Self {
        WindowedMean {
            ring: BucketRing::new(window, buckets),
        }
    }

    /// Records one observation at time `t`.
    pub fn record(&mut self, t: f64, value: f64) {
        self.ring.record(t, value, false);
    }

    /// Mean over the window ending at `now` (`None` with no observations).
    pub fn mean(&self, now: f64) -> Option<f64> {
        let totals = self.ring.totals(now);
        if totals.count == 0 {
            return None;
        }
        Some(totals.sum / totals.count as f64)
    }

    /// Observations currently inside the window ending at `now`.
    pub fn count(&self, now: f64) -> u64 {
        self.ring.totals(now).count
    }
}

/// A windowed quantile built from rotating [`P2Quantile`] epochs.
///
/// P² cannot forget, so a sliding quantile keeps one estimator per epoch of
/// `window` seconds and reads the **previous completed** epoch once the
/// current one is still warming up. Rotation across empty epochs (no
/// observations for one or more whole windows) is guarded: the last
/// completed estimate is retained and flagged stale rather than panicking
/// or reporting `NaN`.
#[derive(Debug, Clone)]
pub struct RotatingQuantile {
    p: f64,
    window: f64,
    min_samples: usize,
    epoch_start: f64,
    current: P2Quantile,
    /// Last completed epoch's estimate and sample count.
    last: Option<(f64, usize)>,
    /// Whole empty epochs skipped since the last completed estimate.
    skipped: u64,
}

impl RotatingQuantile {
    /// Creates a rotating `p`-quantile with epoch length `window` seconds.
    /// The current epoch's estimate is used once it has `min_samples`
    /// observations; before that the previous epoch's estimate is served.
    ///
    /// # Panics
    /// Panics unless `p` is in `(0, 1)` and `window > 0`.
    pub fn new(p: f64, window: f64, min_samples: usize) -> Self {
        assert!(
            window.is_finite() && window > 0.0,
            "window must be positive, got {window}"
        );
        RotatingQuantile {
            p,
            window,
            min_samples: min_samples.max(5),
            epoch_start: 0.0,
            current: P2Quantile::new(p),
            last: None,
            skipped: 0,
        }
    }

    /// Records one observation at event time `t`, rotating epochs as
    /// needed.
    pub fn observe(&mut self, t: f64, x: f64) {
        self.rotate_to(t);
        self.current.observe(x);
    }

    /// Rotates epochs so the epoch containing `t` is current. Empty epochs
    /// in between are skipped without disturbing the last-good estimate.
    pub fn rotate_to(&mut self, t: f64) {
        if t < self.epoch_start + self.window {
            return;
        }
        let elapsed = ((t - self.epoch_start) / self.window).floor().max(1.0);
        // Close out the current epoch if it saw data; otherwise it counts
        // toward the stale-epoch tally.
        if let Some(est) = self.current.estimate() {
            self.last = Some((est, self.current.count()));
            self.skipped = elapsed as u64 - 1;
        } else {
            self.skipped += elapsed as u64;
        }
        self.epoch_start += elapsed * self.window;
        self.current = P2Quantile::new(self.p);
    }

    /// Current quantile estimate: the live epoch once warmed up, else the
    /// last completed epoch, else whatever the live epoch has.
    pub fn estimate(&self) -> Option<f64> {
        if self.current.count() >= self.min_samples {
            return self.current.estimate();
        }
        if let Some((est, _)) = self.last {
            return Some(est);
        }
        self.current.estimate()
    }

    /// Whole empty epochs since the newest completed estimate — nonzero
    /// means [`Self::estimate`] may be serving stale data.
    pub fn stale_epochs(&self) -> u64 {
        self.skipped
    }

    /// Observations in the live epoch.
    pub fn live_count(&self) -> usize {
        self.current.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_at_minus_infinity_are_empty() {
        let mut ring = BucketRing::new(10.0, 20);
        for i in 0..100 {
            ring.record(i as f64 * 0.1, 1.0, i % 2 == 0);
        }
        let totals = ring.totals(f64::NEG_INFINITY);
        assert_eq!((totals.sum, totals.count, totals.flagged), (0.0, 0, 0));
        assert_eq!(totals.covered, 0.0);
    }

    #[test]
    fn rate_window_tracks_uniform_arrivals() {
        let mut w = RateWindow::new(10.0, 20);
        // 50 arrivals/s for 30 seconds.
        for i in 0..1500 {
            w.record(i as f64 * 0.02);
        }
        let rate = w.rate(30.0).unwrap();
        assert!((rate - 50.0).abs() < 5.0, "rate {rate}");
    }

    #[test]
    fn rate_window_forgets_old_bursts() {
        let mut w = RateWindow::new(5.0, 10);
        for i in 0..1000 {
            w.record(i as f64 * 0.001); // burst in the first second
        }
        // Quiet until t=20: the burst left the window entirely.
        assert_eq!(w.count(20.0), 0);
        assert_eq!(w.rate(20.0), Some(0.0));
    }

    #[test]
    fn rate_window_early_coverage_is_elapsed_time() {
        let mut w = RateWindow::new(100.0, 50);
        for i in 0..100 {
            w.record(i as f64 * 0.01); // 100/s for one second
        }
        // Only ~1 s elapsed: rate must divide by ~1 s, not the 100 s window.
        let rate = w.rate(1.0).unwrap();
        assert!((rate - 100.0).abs() < 20.0, "rate {rate}");
    }

    #[test]
    fn empty_windows_return_none() {
        let w = RateWindow::new(1.0, 4);
        assert_eq!(w.rate(5.0), None);
        let r = WindowedRatio::new(1.0, 4);
        assert_eq!(r.ratio(5.0), None);
        let m = WindowedMean::new(1.0, 4);
        assert_eq!(m.mean(5.0), None);
    }

    #[test]
    fn ratio_window_estimates_fraction() {
        let mut r = WindowedRatio::new(10.0, 10);
        for i in 0..1000 {
            r.record(i as f64 * 0.005, i % 4 == 0);
        }
        let got = r.ratio(5.0).unwrap();
        assert!((got - 0.25).abs() < 0.02, "ratio {got}");
    }

    #[test]
    fn ratio_window_follows_a_shift() {
        let mut r = WindowedRatio::new(2.0, 8);
        for i in 0..2000 {
            r.record(i as f64 * 0.005, true); // all flagged until t=10
        }
        for i in 0..2000 {
            r.record(10.0 + i as f64 * 0.005, false); // none after
        }
        let late = r.ratio(20.0).unwrap();
        assert!(
            late < 0.01,
            "ratio {late} should have forgotten the flagged phase"
        );
    }

    #[test]
    fn mean_window_averages_recent_values() {
        let mut m = WindowedMean::new(4.0, 8);
        for i in 0..100 {
            m.record(i as f64 * 0.1, 2.0); // value 2 until t=10
        }
        for i in 0..100 {
            m.record(10.0 + i as f64 * 0.01, 6.0); // value 6 in [10, 11]
        }
        let got = m.mean(11.0).unwrap();
        assert!(got > 5.0, "old values must have decayed, got {got}");
    }

    #[test]
    fn out_of_order_within_window_is_kept() {
        let mut w = RateWindow::new(10.0, 10);
        w.record(5.0);
        w.record(3.0); // older but inside the window
        assert_eq!(w.count(5.5), 2);
    }

    #[test]
    fn expired_out_of_order_event_is_dropped() {
        let mut w = RateWindow::new(1.0, 2);
        w.record(10.0);
        w.record(0.2); // a full window in the past
        assert_eq!(w.count(10.0), 1);
    }

    #[test]
    fn rotating_quantile_converges_then_rotates() {
        let mut q = RotatingQuantile::new(0.9, 10.0, 20);
        let mut state = 7u64;
        for i in 0..5000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 11) as f64 / (1u64 << 53) as f64;
            q.observe(i as f64 * 0.01, x); // 50 s of uniform [0,1) data
        }
        let est = q.estimate().unwrap();
        assert!((est - 0.9).abs() < 0.05, "estimate {est}");
        assert_eq!(q.stale_epochs(), 0);
    }

    #[test]
    fn rotating_quantile_survives_empty_epochs() {
        let mut q = RotatingQuantile::new(0.5, 1.0, 5);
        for i in 0..100 {
            q.observe(i as f64 * 0.01, 42.0); // one busy epoch of constant 42
        }
        // A long silence, then a single late observation.
        q.observe(50.0, 1.0);
        let est = q.estimate().unwrap();
        assert!(est.is_finite());
        assert_eq!(est, 42.0, "last-good estimate served while warming");
        assert!(q.stale_epochs() > 10, "stale epochs {}", q.stale_epochs());
    }

    #[test]
    fn rotating_quantile_tracks_regime_change() {
        let mut q = RotatingQuantile::new(0.5, 5.0, 10);
        for i in 0..1000 {
            q.observe(i as f64 * 0.01, 1.0); // median 1 until t=10
        }
        for i in 0..1000 {
            q.observe(10.0 + i as f64 * 0.01, 9.0); // median 9 after
        }
        assert_eq!(q.estimate(), Some(9.0));
    }

    #[test]
    fn rotating_quantile_all_equal_is_exact() {
        let mut q = RotatingQuantile::new(0.99, 10.0, 5);
        for i in 0..100 {
            q.observe(i as f64 * 0.001, 3.5);
        }
        assert_eq!(q.estimate(), Some(3.5));
    }
}
