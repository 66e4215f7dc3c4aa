//! Arrival processes.
//!
//! The model assumes Poisson arrivals (§III-A, assumption 1), and the
//! paper's modified ssbench issues requests in an open loop; we generate
//! arrivals the same way.

use rand::RngCore;

/// Generates the next inter-arrival gap (seconds).
pub trait ArrivalProcess {
    /// Draws the next gap at the current rate.
    fn next_gap(&mut self, rng: &mut dyn RngCore) -> f64;
    /// Current rate (arrivals per second).
    fn rate(&self) -> f64;
    /// Changes the rate (used between schedule segments).
    fn set_rate(&mut self, rate: f64);
}

/// Poisson process: exponential gaps with mean `1/rate`.
#[derive(Debug, Clone, Copy)]
pub struct PoissonArrivals {
    rate: f64,
}

impl PoissonArrivals {
    /// Creates a Poisson arrival process.
    ///
    /// # Panics
    /// Panics unless `rate` is finite and positive.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be positive, got {rate}"
        );
        PoissonArrivals { rate }
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn next_gap(&mut self, rng: &mut dyn RngCore) -> f64 {
        -cos_distr::traits::open_unit(rng).ln() / self.rate
    }
    fn rate(&self) -> f64 {
        self.rate
    }
    fn set_rate(&mut self, rate: f64) {
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be positive, got {rate}"
        );
        self.rate = rate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_gap_mean() {
        let mut p = PoissonArrivals::new(50.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| p.next_gap(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.02).abs() < 0.001, "mean gap {mean}");
    }

    #[test]
    fn poisson_counts_match_rate() {
        // Count arrivals in 1-second windows: variance ≈ mean (Poisson).
        let mut p = PoissonArrivals::new(20.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut t = 0.0;
        let mut counts = vec![0u32; 2000];
        while t < 2000.0 {
            t += p.next_gap(&mut rng);
            if t < 2000.0 {
                counts[t as usize] += 1;
            }
        }
        let mean = counts.iter().map(|&c| c as f64).sum::<f64>() / counts.len() as f64;
        let var = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / counts.len() as f64;
        assert!((mean - 20.0).abs() < 0.5, "mean {mean}");
        assert!(
            (var / mean - 1.0).abs() < 0.15,
            "index of dispersion {}",
            var / mean
        );
    }

    #[test]
    fn rate_change_takes_effect() {
        let mut p = PoissonArrivals::new(1.0);
        p.set_rate(1000.0);
        assert_eq!(p.rate(), 1000.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mean: f64 = (0..10_000).map(|_| p.next_gap(&mut rng)).sum::<f64>() / 10_000.0;
        assert!(mean < 0.002);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_rate() {
        PoissonArrivals::new(0.0);
    }
}
