//! Golden tests: `Lst::lst_batch` must be bit-identical to the scalar
//! `Lst::lst` path for every family that implements the trait.
//!
//! Numerical inversion now routes every contour through `lst_batch`, while
//! moments, calibration diagnostics, and older call sites still use the
//! scalar path — any drift between the two would make memoized predictions
//! disagree with fresh ones.

use std::sync::Arc;

use cos_distr::{Degenerate, Exponential, Gamma, Lst, Mixture, Normal, Shifted, Uniform};
use cos_numeric::Complex64;

/// Euler-style contour (vertical line) plus some real-axis points off it.
fn contour() -> Vec<Complex64> {
    let mut s = Vec::new();
    let x = 18.4 / (2.0 * 0.05);
    s.push(Complex64::from_real(x));
    for k in 1..=48 {
        s.push(Complex64::new(x, k as f64 * std::f64::consts::PI / 0.05));
    }
    for k in 1..=18 {
        s.push(Complex64::from_real(
            k as f64 * std::f64::consts::LN_2 / 0.03,
        ));
    }
    s
}

#[track_caller]
fn assert_batch_matches_scalar(name: &str, lst: &dyn Lst) {
    let s = contour();
    let mut batch = vec![Complex64::ZERO; s.len()];
    lst.lst_batch(&s, &mut batch);
    for (i, (&si, bi)) in s.iter().zip(batch.iter()).enumerate() {
        let want = lst.lst(si);
        assert_eq!(
            bi.re.to_bits(),
            want.re.to_bits(),
            "{name}: re drift at point {i} ({} vs {})",
            bi.re,
            want.re
        );
        assert_eq!(
            bi.im.to_bits(),
            want.im.to_bits(),
            "{name}: im drift at point {i} ({} vs {})",
            bi.im,
            want.im
        );
    }
}

#[test]
fn batch_bit_identical_for_every_family() {
    assert_batch_matches_scalar("exponential", &Exponential::new(2.5));
    assert_batch_matches_scalar("gamma", &Gamma::new(3.3, 410.0));
    assert_batch_matches_scalar("degenerate", &Degenerate::new(0.0007));
    assert_batch_matches_scalar("degenerate-zero", &Degenerate::new(0.0));
    assert_batch_matches_scalar("normal", &Normal::new(0.004, 0.0011));
    assert_batch_matches_scalar("uniform", &Uniform::new(0.001, 0.009));
    assert_batch_matches_scalar(
        "shifted",
        &Shifted::new(0.0004, Arc::new(Exponential::new(900.0))),
    );
}

#[test]
fn batch_bit_identical_for_nested_mixture() {
    // A cache-style mixture of a Gamma disk law and a zero-cost hit, nested
    // inside another mixture — the shape the backend model builds.
    let cache = Mixture::new(vec![
        (0.3, Arc::new(Gamma::new(3.0, 250.0)) as _),
        (0.7, Arc::new(Degenerate::new(0.0)) as _),
    ]);
    assert_batch_matches_scalar("cache-mixture", &cache);
    let nested = Mixture::new(vec![
        (0.6, Arc::new(cache) as _),
        (
            0.4,
            Arc::new(Shifted::new(0.001, Arc::new(Exponential::new(400.0)))) as _,
        ),
    ]);
    assert_batch_matches_scalar("nested-mixture", &nested);
}

/// The Gamma LST is one fused kernel, `e^{−α ln(1 + s/β)}` with the
/// logarithm taken as `½ ln |w|² + i atan(Im w / Re w)`. It must agree
/// with the power form `(β/(β + s))^α` it replaced to within 1e-13
/// relative on every Euler abscissa the model inverts at — `t` from
/// 0.1 ms to 3 s, the default 112-point series (a superset of the served
/// 32) — over rates from 20 to 5,000 and shapes from 0.3 to 20, with the
/// batch path bit-identical to the scalar one.
#[test]
fn gamma_kernel_matches_the_power_form_and_batch_matches_scalar() {
    let log_grid = |lo: f64, hi: f64, points: usize| -> Vec<f64> {
        (0..points)
            .map(|i| lo * (hi / lo).powf(i as f64 / (points - 1) as f64))
            .collect()
    };
    let mut worst = 0.0f64;
    for t in log_grid(1e-4, 3.0, 9) {
        let x = 18.4 / (2.0 * t);
        let s: Vec<Complex64> = (0..112)
            .map(|k| Complex64::new(x, k as f64 * std::f64::consts::PI / t))
            .collect();
        for rate in log_grid(20.0, 5000.0, 7) {
            for shape in log_grid(0.3, 20.0, 7) {
                let g = Gamma::new(shape, rate);
                let mut batch = vec![Complex64::ZERO; s.len()];
                g.lst_batch(&s, &mut batch);
                for (&si, b) in s.iter().zip(&batch) {
                    let fused = g.lst(si);
                    assert_eq!(
                        (fused.re.to_bits(), fused.im.to_bits()),
                        (b.re.to_bits(), b.im.to_bits()),
                        "Gamma({shape}, {rate}) batch drifts at {si:?}"
                    );
                    let power = (Complex64::from_real(rate) / (si + rate)).powf(shape);
                    let rel = (fused - power).abs() / power.abs();
                    assert!(
                        rel <= 1e-13,
                        "Gamma({shape}, {rate}) at t={t}, s={si:?}: {rel:e} relative"
                    );
                    worst = worst.max(rel);
                }
            }
        }
    }
    assert!(worst > 0.0, "the kernels should round apart somewhere");
}
