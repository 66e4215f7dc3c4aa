//! Gamma distribution.
//!
//! The paper fits four candidate distributions to measured disk service times
//! and finds "the Gamma distribution demonstrates the best result" (§IV-A,
//! Fig. 5); the analytic model then uses its closed-form LST
//! `L[B](s) = l^k (s + l)^{−k}`.

use crate::traits::{open_unit, standard_normal, Distribution, Lst};
use cos_numeric::special::{gamma_p, ln_gamma};
use cos_numeric::{lanes, Complex64};
use rand::RngCore;

/// Gamma distribution with shape `k` and **rate** `l` (the paper's
/// parameterization: mean `k/l`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    rate: f64,
}

impl Gamma {
    /// Creates a Gamma distribution from shape and rate.
    ///
    /// # Panics
    /// Panics unless both parameters are finite and positive.
    pub fn new(shape: f64, rate: f64) -> Self {
        assert!(
            shape.is_finite() && shape > 0.0,
            "Gamma requires shape > 0, got {shape}"
        );
        assert!(
            rate.is_finite() && rate > 0.0,
            "Gamma requires rate > 0, got {rate}"
        );
        Gamma { shape, rate }
    }

    /// Erlang convenience constructor: integer shape `k` stages at `rate`
    /// (the M/M/1/K sojourn of §III-B is a mixture of these).
    pub fn erlang(stages: u32, rate: f64) -> Self {
        assert!(stages >= 1, "Erlang requires at least one stage");
        Gamma::new(stages as f64, rate)
    }

    /// Creates a Gamma distribution from its mean and squared coefficient of
    /// variation (`scv = 1/k`): handy when calibrating from two moments.
    pub fn from_mean_scv(mean: f64, scv: f64) -> Self {
        assert!(mean > 0.0 && scv > 0.0, "mean and scv must be positive");
        let shape = 1.0 / scv;
        Gamma {
            shape,
            rate: shape / mean,
        }
    }

    /// Shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Rate parameter `l`.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Distribution for Gamma {
    fn mean(&self) -> f64 {
        self.shape / self.rate
    }
    fn variance(&self) -> f64 {
        self.shape / (self.rate * self.rate)
    }
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        if x == 0.0 {
            return match self.shape.partial_cmp(&1.0).unwrap() {
                std::cmp::Ordering::Less => f64::INFINITY,
                std::cmp::Ordering::Equal => self.rate,
                std::cmp::Ordering::Greater => 0.0,
            };
        }
        ((self.shape - 1.0) * x.ln() + self.shape * self.rate.ln()
            - self.rate * x
            - ln_gamma(self.shape))
        .exp()
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            gamma_p(self.shape, self.rate * x)
        }
    }
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Marsaglia–Tsang squeeze method; boost for shape < 1.
        let (shape, boost) = if self.shape < 1.0 {
            (
                self.shape + 1.0,
                Some(open_unit(rng).powf(1.0 / self.shape)),
            )
        } else {
            (self.shape, None)
        };
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        let raw = loop {
            let x = standard_normal(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = open_unit(rng);
            let x2 = x * x;
            if u < 1.0 - 0.0331 * x2 * x2 {
                break d * v;
            }
            if u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
                break d * v;
            }
        };
        raw * boost.unwrap_or(1.0) / self.rate
    }
}

impl Lst for Gamma {
    /// `(1 + s/l)^{−k}` through the lane kernel
    /// ([`cos_numeric::lanes::gamma_lst`]).
    fn lst(&self, s: Complex64) -> Complex64 {
        lanes::gamma_lst(self.shape, self.rate, s)
    }

    fn lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        lanes::gamma_lst_batch(self.shape, self.rate, s, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn moments() {
        let g = Gamma::new(3.0, 2.0);
        assert_eq!(g.mean(), 1.5);
        assert_eq!(g.variance(), 0.75);
        assert!((g.scv() - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn erlang_constructor() {
        let e = Gamma::erlang(3, 2.0);
        assert_eq!(e.shape(), 3.0);
        assert_eq!(e.mean(), 1.5);
    }

    #[test]
    fn from_mean_scv_roundtrip() {
        let g = Gamma::from_mean_scv(0.012, 0.4);
        assert!((g.mean() - 0.012).abs() < 1e-15);
        assert!((g.scv() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn shape_one_is_exponential() {
        let g = Gamma::new(1.0, 2.0);
        let e = crate::exponential::Exponential::new(2.0);
        for &x in &[0.1, 0.5, 1.0, 3.0] {
            assert!((g.pdf(x) - e.pdf(x)).abs() < 1e-12);
            assert!((g.cdf(x) - e.cdf(x)).abs() < 1e-12);
        }
        assert_eq!(g.pdf(0.0), 2.0);
    }

    #[test]
    fn pdf_integrates_to_one() {
        let g = Gamma::new(2.5, 1.3);
        let total = cos_numeric::quad::integrate_to_infinity(&|x| g.pdf(x), 0.0, 1e-10);
        assert!((total - 1.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn pdf_is_cdf_derivative() {
        let g = Gamma::new(4.2, 0.7);
        let h = 1e-6;
        for &x in &[0.5, 2.0, 6.0, 10.0] {
            let deriv = (g.cdf(x + h) - g.cdf(x - h)) / (2.0 * h);
            assert!((deriv - g.pdf(x)).abs() < 1e-5, "x={x}");
        }
    }

    #[test]
    fn sampling_matches_moments() {
        let g = Gamma::new(2.0, 5.0);
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 0.4).abs() < 0.005, "mean {mean}");
        assert!((var - 0.08).abs() < 0.005, "var {var}");
    }

    #[test]
    fn sampling_small_shape() {
        // shape < 1 exercises the boost path.
        let g = Gamma::new(0.5, 1.0);
        let mut rng = SmallRng::seed_from_u64(13);
        let n = 200_000;
        let mean = (0..n).map(|_| g.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn lst_matches_erlang_product() {
        // Gamma(k=3, l) LST equals the cube of the exponential LST.
        let g = Gamma::new(3.0, 2.0);
        let e = crate::exponential::Exponential::new(2.0);
        let s = Complex64::new(0.7, 1.9);
        let want = e.lst(s).powi(3);
        assert!((g.lst(s) - want).abs() < 1e-12);
    }

    #[test]
    fn lst_inversion_recovers_cdf() {
        let g = Gamma::new(2.3, 4.0);
        let cfg = cos_numeric::InversionConfig::default();
        for &t in &[0.2, 0.5, 1.0, 2.0] {
            let got = cos_numeric::cdf_from_lst(&|s| g.lst(s), t, &cfg);
            assert!((got - g.cdf(t)).abs() < 1e-6, "t={t}");
        }
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_shape() {
        Gamma::new(0.0, 1.0);
    }
}
