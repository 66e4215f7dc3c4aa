//! Numerical quadrature: adaptive Simpson, on finite intervals and mapped
//! onto `[a, ∞)`.
//!
//! The exact waiting-time-for-accept law (ablation A1) is an integral over the
//! accept-lifetime density, and several model validation tests integrate
//! densities; both paths go through this module.

/// Adaptive Simpson integration of `f` on `[a, b]` to absolute tolerance `tol`.
pub fn adaptive_simpson<F: Fn(f64) -> f64>(f: &F, a: f64, b: f64, tol: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    let fa = f(a);
    let fb = f(b);
    let m = 0.5 * (a + b);
    let fm = f(m);
    let whole = simpson_rule(a, b, fa, fm, fb);
    simpson_recurse(f, a, b, fa, fm, fb, whole, tol, 50)
}

#[inline]
fn simpson_rule(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

#[allow(clippy::too_many_arguments)]
fn simpson_recurse<F: Fn(f64) -> f64>(
    f: &F,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: usize,
) -> f64 {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = simpson_rule(a, m, fa, flm, fm);
    let right = simpson_rule(m, b, fm, frm, fb);
    let delta = left + right - whole;
    if depth == 0 || delta.abs() <= 15.0 * tol {
        left + right + delta / 15.0
    } else {
        simpson_recurse(f, a, m, fa, flm, fm, left, tol * 0.5, depth - 1)
            + simpson_recurse(f, m, b, fm, frm, fb, right, tol * 0.5, depth - 1)
    }
}

/// Integrates `f` over `[a, ∞)` by mapping through `x = a + u/(1-u)`.
///
/// Suitable for integrable tails (densities, tail expectations).
pub fn integrate_to_infinity<F: Fn(f64) -> f64>(f: &F, a: f64, tol: f64) -> f64 {
    let g = |u: f64| {
        if u >= 1.0 {
            return 0.0;
        }
        let x = a + u / (1.0 - u);
        let jac = 1.0 / ((1.0 - u) * (1.0 - u));
        f(x) * jac
    };
    adaptive_simpson(&g, 0.0, 1.0 - 1e-12, tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simpson_polynomial_exact() {
        // Simpson is exact for cubics.
        let got = adaptive_simpson(&|x| x * x * x - 2.0 * x + 1.0, 0.0, 2.0, 1e-12);
        // ∫ = [x^4/4 − x² + x] 0..2 = 4 − 4 + 2 = 2
        assert!((got - 2.0).abs() < 1e-10);
    }

    #[test]
    fn simpson_trig() {
        let got = adaptive_simpson(&|x| x.sin(), 0.0, std::f64::consts::PI, 1e-12);
        assert!((got - 2.0).abs() < 1e-10);
    }

    #[test]
    fn simpson_zero_width() {
        assert_eq!(adaptive_simpson(&|x| x, 1.0, 1.0, 1e-12), 0.0);
    }

    #[test]
    fn infinite_integral_of_exponential_density() {
        // ∫_0^∞ λ e^{−λx} dx = 1
        let lambda = 2.5;
        let got = integrate_to_infinity(&|x| lambda * (-lambda * x).exp(), 0.0, 1e-10);
        assert!((got - 1.0).abs() < 1e-7, "got {got}");
    }

    #[test]
    fn infinite_integral_tail_expectation() {
        // ∫_1^∞ e^{−x} dx = e^{−1}
        let got = integrate_to_infinity(&|x| (-x).exp(), 1.0, 1e-10);
        assert!((got - (-1.0f64).exp()).abs() < 1e-7);
    }
}
