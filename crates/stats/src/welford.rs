//! Streaming moments: Welford's algorithm accumulates mean/variance in one
//! pass without catastrophic cancellation.

/// One-pass mean/variance accumulator (Welford).
#[derive(Debug, Clone, Copy, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "observations must be finite, got {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.mean)
        }
    }

    /// Unbiased sample variance (`None` with fewer than 2 observations).
    pub fn variance(&self) -> Option<f64> {
        if self.count < 2 {
            None
        } else {
            Some(self.m2 / (self.count - 1) as f64)
        }
    }

    /// Standard error of the mean (`None` with fewer than 2 observations).
    pub fn stderr(&self) -> Option<f64> {
        self.variance().map(|v| (v / self.count as f64).sqrt())
    }

    /// Merges another accumulator (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_two_pass_statistics() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        assert_eq!(w.mean(), Some(5.0));
        // Two-pass unbiased variance: Σ(x−5)² / 7 = 32/7.
        assert!((w.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn empty_and_single_are_none() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), None);
        w.push(3.0);
        assert_eq!(w.mean(), Some(3.0));
        assert_eq!(w.variance(), None);
        assert_eq!(w.stderr(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        let mut whole = Welford::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
            whole.push(x);
        }
        a.merge(&b);
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-12);
        assert!((a.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
        // Merging an empty accumulator is a no-op.
        let before = a;
        a.merge(&Welford::new());
        assert_eq!(a.mean(), before.mean());
    }

    #[test]
    fn numerical_robustness_with_large_offset() {
        // Naive sum-of-squares fails here; Welford must not.
        let mut w = Welford::new();
        for i in 0..1000 {
            w.push(1e9 + (i % 2) as f64);
        }
        assert!(
            (w.variance().unwrap() - 0.25025).abs() < 1e-3,
            "{:?}",
            w.variance()
        );
    }

    #[test]
    #[should_panic]
    fn rejects_nan() {
        Welford::new().push(f64::NAN);
    }
}
