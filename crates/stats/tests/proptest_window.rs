//! Property-based tests for the sliding-window estimators.

use cos_stats::{exact_percentile, P2Quantile, RotatingQuantile, WindowBank};
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

    /// Within one epoch the rotating quantile is exactly P², which must
    /// agree with the exact sample percentile to within the usual P²
    /// tolerance on uniform data.
    #[test]
    fn rotating_quantile_tracks_exact_percentile(
        p in 0.10f64..0.90,
        n in 500usize..2000,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let window = 1e6; // no rotation: pure P² over the whole sample
        let mut q = RotatingQuantile::new(p, window, 5);
        let mut reference = P2Quantile::new(p);
        let mut values = Vec::with_capacity(n);
        for i in 0..n {
            let x = rng.gen::<f64>();
            q.observe(i as f64, x);
            reference.observe(x);
            values.push(x);
        }
        let est = q.estimate().unwrap();
        prop_assert_eq!(est.to_bits(), reference.estimate().unwrap().to_bits(),
            "single-epoch rotating quantile must BE P²");
        let exact = exact_percentile(&mut values, p);
        prop_assert!((est - exact).abs() < 0.05, "P² {est} vs exact {exact} at p={p}");
    }

    /// After a regime change and a full epoch of new data, the estimate
    /// reflects the new regime's exact percentile, not the old one's.
    #[test]
    fn rotating_quantile_follows_regime_to_new_exact_percentile(
        p in 0.20f64..0.80,
        offset in 5.0f64..20.0,
        seed in 0u64..1_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let window = 10.0;
        let mut q = RotatingQuantile::new(p, window, 20);
        // Epoch A: uniform [0,1). Epochs B…: uniform [offset, offset+1).
        for i in 0..1000 {
            q.observe(i as f64 * 0.01, rng.gen::<f64>());
        }
        let mut late = Vec::new();
        for i in 0..3000 {
            let x = offset + rng.gen::<f64>();
            q.observe(10.0 + i as f64 * 0.01, x);
            late.push(x);
        }
        let est = q.estimate().unwrap();
        // Compare against the exact percentile of the last full epoch's
        // worth of samples — generous tolerance, the point is regime
        // attachment (old regime was ≥ 4 units away).
        let exact = exact_percentile(&mut late, p);
        prop_assert!((est - exact).abs() < 0.2, "estimate {est} vs late-regime exact {exact}");
    }
}
