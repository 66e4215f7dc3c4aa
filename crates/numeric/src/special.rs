//! Special functions used by the distribution and queueing layers.
//!
//! Everything here is implemented from scratch in double precision:
//! log-gamma (Lanczos), digamma/trigamma (recurrence + asymptotic series),
//! the regularized incomplete gamma function (series + Lentz continued
//! fraction), and `erf`/`erfc` derived from it. Accuracy targets are
//! ~1e-12 relative over the parameter ranges exercised by the model
//! (shape parameters 0.01..1e4, arguments 0..1e6).

/// Lanczos approximation coefficients (g = 7, n = 9).
const LANCZOS_G: f64 = 7.0;
#[allow(clippy::excessive_precision, clippy::inconsistent_digit_grouping)]
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the gamma function for `x > 0`.
///
/// # Panics
/// Panics if `x <= 0` (the model never needs the reflection branch and a
/// silent NaN would hide bugs).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection: ln Γ(x) = ln(π / sin(πx)) − ln Γ(1−x).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Binomial coefficient `C(n, k)` as `f64` (exact for all values that fit).
pub fn binomial(n: u32, k: u32) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc.round()
}

/// Digamma function ψ(x) = d/dx ln Γ(x), for `x > 0`.
pub fn digamma(x: f64) -> f64 {
    assert!(x > 0.0, "digamma requires x > 0, got {x}");
    let mut x = x;
    let mut acc = 0.0;
    // Shift into the asymptotic region x >= 10 (series error ~ 2e-14 there).
    while x < 10.0 {
        acc -= 1.0 / x;
        x += 1.0;
    }
    // Asymptotic expansion ψ(x) ~ ln x − 1/(2x) − Σ B_{2n}/(2n x^{2n}).
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    acc + x.ln()
        - 0.5 * inv
        - inv2
            * (1.0 / 12.0
                - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0 - inv2 / 132.0))))
}

/// Trigamma function ψ'(x), for `x > 0`.
pub fn trigamma(x: f64) -> f64 {
    assert!(x > 0.0, "trigamma requires x > 0, got {x}");
    let mut x = x;
    let mut acc = 0.0;
    while x < 10.0 {
        acc += 1.0 / (x * x);
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    acc + inv
        * (1.0
            + 0.5 * inv
            + inv2 * (1.0 / 6.0 - inv2 * (1.0 / 30.0 - inv2 * (1.0 / 42.0 - inv2 / 30.0))))
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x)/Γ(a)`.
///
/// Uses the power series for `x < a + 1` and the Lentz continued fraction for
/// the upper function otherwise. Returns values clamped to `[0, 1]`.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_p requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_q requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_q requires x >= 0, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    // P(a,x) = x^a e^{-x} / Γ(a) Σ_{n>=0} x^n / (a (a+1) ... (a+n))
    let ln_prefix = a * x.ln() - x - ln_gamma(a);
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut n = 1.0;
    for _ in 0..1000 {
        term *= x / (a + n);
        sum += term;
        if term.abs() < sum.abs() * 1e-16 {
            break;
        }
        n += 1.0;
    }
    (ln_prefix.exp() * sum).clamp(0.0, 1.0)
}

fn gamma_q_cf(a: f64, x: f64) -> f64 {
    // Q(a,x) = x^a e^{-x}/Γ(a) * 1/(x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...)))
    let ln_prefix = a * x.ln() - x - ln_gamma(a);
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..1000 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (ln_prefix.exp() * h).clamp(0.0, 1.0)
}

/// Error function, accurate to ~1e-14 via the incomplete gamma function.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else if x > 0.0 {
        gamma_p(0.5, x * x)
    } else {
        -gamma_p(0.5, x * x)
    }
}

/// Complementary error function.
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        gamma_q(0.5, x * x)
    } else {
        1.0 + gamma_p(0.5, x * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(5) = 24, Γ(0.5) = sqrt(pi)
        assert!((ln_gamma(1.0)).abs() < 1e-13);
        assert!((ln_gamma(2.0)).abs() < 1e-13);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    fn gamma_recurrence_property() {
        // Γ(x+1) = x Γ(x) across a wide range.
        for &x in &[0.1, 0.7, 1.3, 2.9, 7.5, 33.3, 101.1] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!((lhs - rhs).abs() < 1e-11, "x={x}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(10, 0), 1.0);
        assert_eq!(binomial(10, 10), 1.0);
        assert_eq!(binomial(3, 5), 0.0);
        assert_eq!(binomial(52, 5), 2598960.0);
    }

    #[test]
    fn digamma_known_values() {
        let euler = 0.577_215_664_901_532_9;
        assert!((digamma(1.0) + euler).abs() < 1e-12);
        // ψ(2) = 1 − γ
        assert!((digamma(2.0) - (1.0 - euler)).abs() < 1e-12);
        // ψ(1/2) = −γ − 2 ln 2
        assert!((digamma(0.5) + euler + 2.0 * 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn digamma_recurrence() {
        for &x in &[0.3, 1.1, 4.5, 9.0, 55.0] {
            assert!((digamma(x + 1.0) - digamma(x) - 1.0 / x).abs() < 1e-11);
        }
    }

    #[test]
    fn trigamma_known_values() {
        let pi2_6 = std::f64::consts::PI.powi(2) / 6.0;
        assert!((trigamma(1.0) - pi2_6).abs() < 1e-11);
        // ψ'(1/2) = π²/2
        assert!((trigamma(0.5) - std::f64::consts::PI.powi(2) / 2.0).abs() < 1e-10);
    }

    #[test]
    fn trigamma_recurrence() {
        for &x in &[0.4, 2.2, 8.8] {
            assert!((trigamma(x) - trigamma(x + 1.0) - 1.0 / (x * x)).abs() < 1e-11);
        }
    }

    #[test]
    fn gamma_p_boundaries() {
        assert_eq!(gamma_p(2.0, 0.0), 0.0);
        assert!((gamma_p(1.0, 1e9) - 1.0).abs() < 1e-12);
        // P(1, x) = 1 − e^{-x}
        for &x in &[0.1, 1.0, 3.0, 10.0] {
            assert!((gamma_p(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-13);
        }
    }

    #[test]
    fn gamma_p_q_complement() {
        for &a in &[0.3, 1.0, 2.5, 10.0, 100.0] {
            for &x in &[0.01, 0.5, 1.0, 5.0, 50.0, 200.0] {
                let p = gamma_p(a, x);
                let q = gamma_q(a, x);
                assert!((p + q - 1.0).abs() < 1e-12, "a={a} x={x}");
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn gamma_p_erlang_identity() {
        // For integer a=n, P(n, x) = 1 − e^{-x} Σ_{k<n} x^k/k!
        let n = 4;
        let x = 3.7;
        let mut s = 0.0;
        let mut term = 1.0;
        for k in 0..n {
            if k > 0 {
                term *= x / k as f64;
            }
            s += term;
        }
        let expected = 1.0 - (-x).exp() * s;
        assert!((gamma_p(n as f64, x) - expected).abs() < 1e-13);
    }

    #[test]
    fn erf_known_values() {
        assert_eq!(erf(0.0), 0.0);
        assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-12);
        assert!((erf(-1.0) + 0.842_700_792_949_714_9).abs() < 1e-12);
        assert!((erf(3.0) - 0.999_977_909_503_001_4).abs() < 1e-12);
        assert!((erfc(1.0) - 0.157_299_207_050_285_13).abs() < 1e-12);
        assert!((erfc(-2.0) - (1.0 + erf(2.0))).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    #[should_panic]
    fn gamma_p_rejects_negative_x() {
        gamma_p(1.0, -1.0);
    }
}
