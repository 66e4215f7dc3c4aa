//! Property-based tests on the distribution invariants the model relies on.

use cos_distr::traits::Lst;
use cos_distr::{Distribution, Empirical, Exponential, Gamma, LogNormal, Normal, Uniform};
use cos_numeric::Complex64;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn check_basic<D: Distribution>(d: &D, xs: &[f64]) -> Result<(), TestCaseError> {
    for &x in xs {
        let c = d.cdf(x);
        prop_assert!((0.0..=1.0).contains(&c), "cdf({x}) = {c}");
        prop_assert!(d.pdf(x) >= 0.0);
    }
    for w in xs.windows(2) {
        prop_assert!(d.cdf(w[1]) >= d.cdf(w[0]) - 1e-12, "cdf not monotone");
    }
    prop_assert!(d.variance() >= 0.0);
    prop_assert!(d.second_moment() + 1e-12 >= d.mean() * d.mean());
    Ok(())
}

fn grid(max: f64) -> Vec<f64> {
    (0..50).map(|i| i as f64 * max / 49.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gamma_invariants(shape in 0.2f64..20.0, rate in 0.1f64..100.0) {
        let g = Gamma::new(shape, rate);
        check_basic(&g, &grid(5.0 * g.mean()))?;
        // LST at 0 is 1; LST magnitude ≤ 1 on the right half-plane.
        prop_assert!((g.lst(Complex64::ZERO) - Complex64::ONE).abs() < 1e-12);
        let s = Complex64::new(1.0, 3.0);
        prop_assert!(g.lst(s).abs() <= 1.0 + 1e-12);
    }

    #[test]
    fn exponential_invariants(rate in 0.01f64..1000.0) {
        let e = Exponential::new(rate);
        check_basic(&e, &grid(5.0 * e.mean()))?;
        prop_assert!((e.scv() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lognormal_invariants(mu in -3.0f64..3.0, sigma in 0.05f64..2.0) {
        let d = LogNormal::new(mu, sigma);
        check_basic(&d, &grid(5.0 * d.mean()))?;
        prop_assert!((d.cdf(d.median()) - 0.5).abs() < 1e-10);
    }

    #[test]
    fn uniform_invariants(a in 0.0f64..5.0, w in 0.1f64..5.0) {
        let d = Uniform::new(a, a + w);
        check_basic(&d, &grid(a + 2.0 * w))?;
        prop_assert!((d.lst(Complex64::from_real(1e-12)) - Complex64::ONE).abs() < 1e-9);
    }

    #[test]
    fn normal_lst_inverts_to_cdf(mu in 0.5f64..2.0, rel_sigma in 0.01f64..0.15) {
        let sigma = mu * rel_sigma;
        let n = Normal::new(mu, sigma);
        let cfg = cos_numeric::InversionConfig::default();
        for f in [0.8, 1.0, 1.2] {
            let t = mu * f;
            let got = cos_numeric::cdf_from_lst(&|s| n.lst(s), t, &cfg);
            prop_assert!((got - n.cdf(t)).abs() < 1e-3, "t={t}: {got} vs {}", n.cdf(t));
        }
    }

    #[test]
    fn sampling_mean_converges(shape in 0.5f64..8.0, rate in 1.0f64..100.0, seed in 0u64..1000) {
        let g = Gamma::new(shape, rate);
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 8000;
        let mean = (0..n).map(|_| g.sample(&mut rng)).sum::<f64>() / n as f64;
        // 8k samples: mean within ~6 standard errors.
        let se = (g.variance() / n as f64).sqrt();
        prop_assert!((mean - g.mean()).abs() < 6.0 * se + 1e-9, "mean {mean} vs {}", g.mean());
    }

    #[test]
    fn gamma_mle_recovers_on_synthetic(shape in 0.5f64..6.0, rate in 5.0f64..500.0, seed in 0u64..100) {
        let g = Gamma::new(shape, rate);
        let mut rng = SmallRng::seed_from_u64(seed);
        let sample = Empirical::new((0..6000).map(|_| g.sample(&mut rng)).collect());
        let fit = cos_distr::fit_gamma_mle(&sample).unwrap();
        prop_assert!((fit.shape() - shape).abs() / shape < 0.25, "shape {} vs {shape}", fit.shape());
        prop_assert!((fit.mean() - g.mean()).abs() / g.mean() < 0.1);
    }

    #[test]
    fn empirical_quantile_within_range(values in proptest::collection::vec(0.0f64..1e6, 1..200), p in 0.0f64..1.0) {
        let e = Empirical::new(values.clone());
        let q = e.quantile(p);
        prop_assert!(q >= e.min() - 1e-9 && q <= e.max() + 1e-9);
    }

    #[test]
    fn empirical_cdf_matches_quantile(values in proptest::collection::vec(0.0f64..100.0, 5..100)) {
        let e = Empirical::new(values);
        // With linearly interpolated (type-7) quantiles the step CDF can
        // undershoot by at most one sample's mass: F(Q(p)) >= p − 1/n.
        let slack = 1.0 / e.len() as f64 + 1e-9;
        for &p in &[0.1, 0.5, 0.9] {
            let q = e.quantile(p);
            prop_assert!(e.cdf(q + 1e-9) >= p - slack);
        }
    }
}
