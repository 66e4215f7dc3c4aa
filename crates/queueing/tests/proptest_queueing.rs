//! Property-based tests for the queueing layer.

use cos_distr::{Degenerate, Exponential, Gamma};
use cos_numeric::Complex64;
use cos_queueing::{from_distribution, Mg1, Mm1k, ServiceTime, UnionOperation};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mg1_with_exponential_service_matches_mm1(
        lambda in 0.1f64..5.0,
        mu_factor in 1.1f64..10.0,
    ) {
        let mu = lambda * mu_factor;
        let mg1 = Mg1::new(lambda, from_distribution(Exponential::new(mu))).unwrap();
        // M/M/1 closed forms: ρ = λ/μ, W̄ = ρ/(μ − λ), T̄ = 1/(μ − λ).
        let rho = lambda / mu;
        prop_assert!((mg1.mean_waiting() - rho / (mu - lambda)).abs() < 1e-10);
        prop_assert!((mg1.mean_sojourn() - 1.0 / (mu - lambda)).abs() < 1e-10);
        prop_assert!((mg1.utilization() - rho).abs() < 1e-12);
    }

    #[test]
    fn pk_mean_dominates_deterministic_service(
        lambda in 0.1f64..5.0,
        b in 0.01f64..0.15,
    ) {
        prop_assume!(lambda * b < 0.95);
        // Among all service laws with mean b, the deterministic one
        // minimizes E[B²], hence minimizes P-K waiting.
        let det = Mg1::new(lambda, from_distribution(Degenerate::new(b))).unwrap();
        let exp = Mg1::new(lambda, from_distribution(Exponential::with_mean(b))).unwrap();
        prop_assert!(det.mean_waiting() <= exp.mean_waiting() + 1e-12);
    }

    #[test]
    fn waiting_cdf_in_unit_interval_and_monotone(
        lambda in 0.5f64..4.0,
        shape in 0.5f64..5.0,
        mean in 0.02f64..0.2,
    ) {
        prop_assume!(lambda * mean < 0.9);
        let g = Gamma::new(shape, shape / mean);
        let q = Mg1::new(lambda, from_distribution(g)).unwrap();
        let cfg = cos_numeric::InversionConfig::default();
        let mut prev = 0.0;
        for i in 1..=8 {
            let t = i as f64 * 0.1;
            let c = q.waiting_cdf(t, &cfg);
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert!(c >= prev - 1e-6, "not monotone at t={t}");
            prev = c;
        }
    }

    #[test]
    fn mm1k_probabilities_sum_to_one(
        lambda in 0.1f64..50.0,
        mu in 0.1f64..50.0,
        k in 1usize..64,
    ) {
        let q = Mm1k::new(lambda, mu, k);
        let total: f64 = q.state_probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(q.blocking_probability() >= 0.0 && q.blocking_probability() <= 1.0);
        prop_assert!(q.mean_number() <= k as f64 + 1e-9);
    }

    #[test]
    fn mm1k_blocking_monotone_in_load(
        mu in 1.0f64..20.0,
        k in 1usize..32,
        l1 in 0.1f64..10.0,
        dl in 0.1f64..10.0,
    ) {
        let a = Mm1k::new(l1, mu, k);
        let b = Mm1k::new(l1 + dl, mu, k);
        prop_assert!(b.blocking_probability() >= a.blocking_probability() - 1e-12);
    }

    #[test]
    fn mm1k_sojourn_lst_bounded(
        lambda in 0.5f64..20.0,
        mu in 0.5f64..20.0,
        k in 1usize..32,
    ) {
        let q = Mm1k::new(lambda, mu, k);
        for im in [0.0, 5.0, 50.0] {
            let v = q.sojourn_lst(Complex64::new(1.0, im));
            prop_assert!(v.abs() <= 1.0 + 1e-9, "LST magnitude {} at im={im}", v.abs());
        }
        prop_assert!((q.sojourn_lst(Complex64::from_real(1e-12)) - Complex64::ONE).abs() < 1e-8);
    }

    #[test]
    fn union_operation_mean_formula(
        parse in 0.0f64..0.01,
        p in 0.0f64..3.0,
        im in 0.005f64..0.05,
        mm_ in 0.005f64..0.05,
        dm in 0.005f64..0.05,
    ) {
        let u = UnionOperation::new(
            from_distribution(Degenerate::new(parse)),
            from_distribution(Exponential::with_mean(im)),
            from_distribution(Exponential::with_mean(mm_)),
            from_distribution(Exponential::with_mean(dm)),
            p,
        );
        let want = parse + im + mm_ + (1.0 + p) * dm;
        prop_assert!((ServiceTime::mean(&u) - want).abs() < 1e-12);
        // Second moment dominates squared mean.
        prop_assert!(u.second_moment() + 1e-12 >= want * want);
        // LST at the origin is 1.
        prop_assert!((ServiceTime::lst(&u, Complex64::ZERO) - Complex64::ONE).abs() < 1e-12);
    }

    #[test]
    fn union_lst_magnitude_bounded(
        p in 0.0f64..2.0,
        s_re in 0.0f64..100.0,
        s_im in -500.0f64..500.0,
    ) {
        let u = UnionOperation::new(
            from_distribution(Degenerate::new(0.001)),
            from_distribution(Exponential::new(100.0)),
            from_distribution(Exponential::new(150.0)),
            from_distribution(Exponential::new(80.0)),
            p,
        );
        let v = ServiceTime::lst(&u, Complex64::new(s_re, s_im));
        prop_assert!(v.abs() <= 1.0 + 1e-9, "magnitude {}", v.abs());
    }
}
