//! Property-based tests for the sliding-window banks.

use cos_stats::WindowBank;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A one-column rate bank of `window` seconds over `buckets` slots.
fn rate_bank(window: f64, buckets: usize) -> WindowBank<u64> {
    WindowBank::new(window, buckets, 1, 1)
}

fn arrive(bank: &mut WindowBank<u64>, t: f64) {
    if let Some(row) = bank.record_rate(t, 0) {
        row[0] += 1;
    }
}

/// The bank's rate reader over its in-window count.
fn rate_of(bank: &WindowBank<u64>, now: f64) -> Option<f64> {
    let count = bank.live(now).map(|row| row[0]).sum();
    bank.rate(now, 0..1, count)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The windowed rate estimator converges to the true rate of a Poisson
    /// arrival process: the in-window count is Poisson(λW), so the
    /// estimate's standard deviation is √(λ/W); six of those bound the
    /// error with overwhelming margin.
    #[test]
    fn rate_window_converges_to_poisson_rate(
        rate in 20.0f64..120.0,
        window in 5.0f64..20.0,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut w = rate_bank(window, 25);
        let duration = 3.0 * window;
        let mut t = 0.0;
        while t < duration {
            t += -(1.0 - rng.gen::<f64>()).ln() / rate;
            if t < duration {
                arrive(&mut w, t);
            }
        }
        let est = rate_of(&w, duration).unwrap();
        let sigma = (rate / window).sqrt();
        prop_assert!(
            (est - rate).abs() < 6.0 * sigma + 2.0,
            "estimate {est} vs true rate {rate} (window {window})"
        );
    }

    /// A longer window averages more arrivals, so the estimate from the
    /// long window is (statistically) at least as accurate; assert the weak
    /// deterministic form — both stay inside their own confidence bands.
    #[test]
    fn rate_window_bands_scale_with_window_length(
        rate in 30.0f64..100.0,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (short_len, long_len) = (4.0, 16.0);
        let mut short = rate_bank(short_len, 16);
        let mut long = rate_bank(long_len, 16);
        let duration = 2.0 * long_len;
        let mut t = 0.0;
        while t < duration {
            t += -(1.0 - rng.gen::<f64>()).ln() / rate;
            if t < duration {
                arrive(&mut short, t);
                arrive(&mut long, t);
            }
        }
        for (w, len) in [(&short, short_len), (&long, long_len)] {
            let est = rate_of(w, duration).unwrap();
            let sigma = (rate / len).sqrt();
            prop_assert!((est - rate).abs() < 6.0 * sigma + 2.0, "len {len}: {est} vs {rate}");
        }
    }
}
