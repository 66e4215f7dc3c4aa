//! Degenerate (deterministic) distribution.
//!
//! The paper finds request-parsing latency "almost constant (Degenerate
//! distribution)" on its testbed (§IV-A); memory-served operations are also
//! modeled as a unit atom at zero (the Dirac delta in the cache-miss mixture).

use crate::traits::{Distribution, Lst};
use cos_numeric::{lanes, Complex64};
use rand::RngCore;

/// A point mass at `value ≥ 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Degenerate {
    value: f64,
}

impl Degenerate {
    /// Creates a point mass at `value`.
    ///
    /// # Panics
    /// Panics on negative or non-finite `value`.
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "Degenerate requires a finite value >= 0, got {value}"
        );
        Degenerate { value }
    }

    /// The unit atom at zero (the Dirac delta `δ(t)` of the paper).
    pub fn zero() -> Self {
        Degenerate { value: 0.0 }
    }

    /// The location of the atom.
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl Distribution for Degenerate {
    fn mean(&self) -> f64 {
        self.value
    }
    fn variance(&self) -> f64 {
        0.0
    }
    fn pdf(&self, x: f64) -> f64 {
        if x == self.value {
            f64::INFINITY
        } else {
            0.0
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x >= self.value {
            1.0
        } else {
            0.0
        }
    }
    fn sample(&self, _rng: &mut dyn RngCore) -> f64 {
        self.value
    }
}

impl Lst for Degenerate {
    fn lst(&self, s: Complex64) -> Complex64 {
        // E[e^{-sX}] = e^{-s d}; for d = 0 this is identically 1.
        if self.value == 0.0 {
            Complex64::ONE
        } else {
            lanes::exp_scaled(-self.value, s)
        }
    }

    fn lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(s.len(), out.len(), "abscissa/output length mismatch");
        if self.value == 0.0 {
            out.fill(Complex64::ONE);
        } else {
            lanes::exp_scaled_batch(-self.value, s, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn moments() {
        let d = Degenerate::new(3.5);
        assert_eq!(d.mean(), 3.5);
        assert_eq!(d.variance(), 0.0);
        assert_eq!(d.second_moment(), 12.25);
        assert_eq!(d.scv(), 0.0);
    }

    #[test]
    fn cdf_is_step() {
        let d = Degenerate::new(1.0);
        assert_eq!(d.cdf(0.999), 0.0);
        assert_eq!(d.cdf(1.0), 1.0);
        assert_eq!(d.cdf(2.0), 1.0);
    }

    #[test]
    fn sampling_is_constant() {
        let d = Degenerate::new(0.25);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 0.25);
        }
    }

    #[test]
    fn lst_is_exponential_in_s() {
        let d = Degenerate::new(2.0);
        let s = Complex64::new(0.5, 1.0);
        let got = d.lst(s);
        let want = (s * (-2.0)).exp();
        assert!((got - want).abs() < 1e-15);
        // At s = 0 the LST of any distribution is 1.
        assert_eq!(d.lst(Complex64::ZERO), Complex64::ONE);
    }

    #[test]
    fn zero_atom_is_identity() {
        let delta = Degenerate::zero();
        let s = Complex64::new(3.0, -7.0);
        assert_eq!(delta.lst(s), Complex64::ONE);
        assert_eq!(delta.cdf(0.0), 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_negative() {
        Degenerate::new(-1.0);
    }
}
