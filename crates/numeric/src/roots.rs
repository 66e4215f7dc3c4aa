//! Scalar root finding: bisection, Brent's method, Ridders' method, damped
//! Newton, and the log-survival Newton search that inverts CDFs.
//!
//! Used by the calibration layer (Gamma MLE shape equation, service-time
//! decomposition) and by quantile searches.

/// Error conditions for root finding.
#[derive(Debug, Clone, PartialEq)]
pub enum RootError {
    /// `f(a)` and `f(b)` do not bracket a root.
    NoBracket {
        /// Function value at the left endpoint.
        fa: f64,
        /// Function value at the right endpoint.
        fb: f64,
    },
    /// Iteration budget exhausted before the tolerance was met.
    MaxIterations {
        /// Best iterate found.
        best: f64,
        /// Residual `f(best)`.
        residual: f64,
    },
    /// The function returned a non-finite value.
    NonFinite {
        /// Argument at which the function was non-finite.
        at: f64,
    },
}

impl std::fmt::Display for RootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RootError::NoBracket { fa, fb } => {
                write!(f, "interval does not bracket a root (f(a)={fa}, f(b)={fb})")
            }
            RootError::MaxIterations { best, residual } => {
                write!(
                    f,
                    "max iterations reached (best x={best}, residual={residual})"
                )
            }
            RootError::NonFinite { at } => write!(f, "function value not finite at x={at}"),
        }
    }
}

impl std::error::Error for RootError {}

/// Simple bisection on `[a, b]`. Requires a sign change.
pub fn bisect<F: Fn(f64) -> f64>(
    f: F,
    mut a: f64,
    mut b: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64, RootError> {
    let mut fa = f(a);
    let fb = f(b);
    if !fa.is_finite() {
        return Err(RootError::NonFinite { at: a });
    }
    if !fb.is_finite() {
        return Err(RootError::NonFinite { at: b });
    }
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(RootError::NoBracket { fa, fb });
    }
    for _ in 0..max_iter {
        let mid = 0.5 * (a + b);
        let fm = f(mid);
        if !fm.is_finite() {
            return Err(RootError::NonFinite { at: mid });
        }
        if fm == 0.0 || (b - a).abs() <= tol {
            return Ok(mid);
        }
        if fm.signum() == fa.signum() {
            a = mid;
            fa = fm;
        } else {
            b = mid;
        }
    }
    Ok(0.5 * (a + b))
}

/// Brent's method: inverse quadratic interpolation with bisection fallback.
pub fn brent<F: Fn(f64) -> f64>(
    f: F,
    mut a: f64,
    mut b: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64, RootError> {
    let mut fa = f(a);
    let mut fb = f(b);
    if !fa.is_finite() {
        return Err(RootError::NonFinite { at: a });
    }
    if !fb.is_finite() {
        return Err(RootError::NonFinite { at: b });
    }
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(RootError::NoBracket { fa, fb });
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut mflag = true;
    for _ in 0..max_iter {
        if fb == 0.0 || (b - a).abs() <= tol {
            return Ok(b);
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            b - fb * (b - a) / (fb - fa)
        };
        let cond_lo = (3.0 * a + b) / 4.0;
        let (lo, hi) = if cond_lo < b {
            (cond_lo, b)
        } else {
            (b, cond_lo)
        };
        let use_bisect = !(lo < s && s < hi)
            || (mflag && (s - b).abs() >= (b - c).abs() / 2.0)
            || (!mflag && (s - b).abs() >= d.abs() / 2.0)
            || (mflag && (b - c).abs() < tol)
            || (!mflag && d.abs() < tol);
        if use_bisect {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = f(s);
        if !fs.is_finite() {
            return Err(RootError::NonFinite { at: s });
        }
        d = b - c;
        c = b;
        fc = fb;
        if fa.signum() != fs.signum() {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(RootError::MaxIterations {
        best: b,
        residual: fb,
    })
}

/// Ridders' method: exponential-fit false position on a sign-changing
/// bracket. Superlinear (order √2 per function evaluation) and, unlike the
/// secant method, never leaves the bracket.
pub fn ridders<F: FnMut(f64) -> f64>(
    mut f: F,
    mut a: f64,
    mut b: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64, RootError> {
    let mut fa = f(a);
    let mut fb = f(b);
    if !fa.is_finite() {
        return Err(RootError::NonFinite { at: a });
    }
    if !fb.is_finite() {
        return Err(RootError::NonFinite { at: b });
    }
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(RootError::NoBracket { fa, fb });
    }
    for _ in 0..max_iter {
        let m = 0.5 * (a + b);
        let fm = f(m);
        if !fm.is_finite() {
            return Err(RootError::NonFinite { at: m });
        }
        if fm == 0.0 {
            return Ok(m);
        }
        // Ridders update: fit f(x) ≈ g(x) e^{cx} through (a, m, b) and take
        // the root of the fitted linear factor.
        let s = (fm * fm - fa * fb).sqrt();
        if s == 0.0 || !s.is_finite() {
            return Err(RootError::NonFinite { at: m });
        }
        let sign = if fa < fb { -1.0 } else { 1.0 };
        let x = m + (m - a) * sign * fm / s;
        let fx = f(x);
        if !fx.is_finite() {
            return Err(RootError::NonFinite { at: x });
        }
        if fx == 0.0 {
            return Ok(x);
        }
        // Rebuild the tightest sign-changing bracket from {a, m, x, b}.
        if fm.signum() != fx.signum() {
            if m < x {
                (a, fa, b, fb) = (m, fm, x, fx);
            } else {
                (a, fa, b, fb) = (x, fx, m, fm);
            }
        } else if fx.signum() == fa.signum() {
            // m and x both carry fa's sign: advance the left edge.
            if x > m {
                (a, fa) = (x, fx);
            } else {
                (a, fa) = (m, fm);
            }
        } else {
            // Both carry fb's sign: pull in the right edge.
            if x < m {
                (b, fb) = (x, fx);
            } else {
                (b, fb) = (m, fm);
            }
        }
        if (b - a).abs() <= tol {
            return Ok(0.5 * (a + b));
        }
    }
    Err(RootError::MaxIterations {
        best: 0.5 * (a + b),
        residual: f(0.5 * (a + b)),
    })
}

/// Relative Newton step at which [`invert_monotone`] stops. The step just
/// computed is the distance to the root to first order, and Newton's
/// quadratic convergence leaves about its square once it is taken, so the
/// stepped point is accurate to ~1e-14 relative.
const NEWTON_STOP: f64 = 1e-7;

/// Relative bracket width at which [`invert_monotone`] stops when its
/// Newton steps are unusable and it falls back to bisection.
const BRACKET_STOP: f64 = 1e-12;

/// Inverts a CDF: finds `t > 0` with `F(t) = target`, given a probe that
/// returns `(F(t), f(t))` — the CDF and its density — with `F(0) = 0`. This
/// is the quantile-search engine shared by
/// `cos_numeric::laplace::quantile_from_lst` and the model layer's
/// percentile queries, where one probe is one numerical Laplace inversion
/// per transform, so the probe count is the cost.
///
/// Every step is a Newton step on the log-survival `ln(1 − F)`, whose slope
/// is `−f/(1 − F)`:
/// `t ← t + (ln(1 − F) − ln(1 − target))·(1 − F)/f`. A latency law's
/// log-survival is close to linear in its tail (exactly linear for an
/// exponential), so one step from a mean-sized start lands near a tail
/// quantile. Probes below the target raise the bracket's left end and
/// probes at or above it lower the right end. A step the density cannot
/// steer (no positive density, or `F = 1`) doubles `t` while no probe has
/// reached the target, and bisects the bracket after one has — as does a
/// step that would leave the bracket. Bisection is geometric while the
/// bracket spans more than a factor of four, so a far-off start costs a
/// logarithmic number of probes.
///
/// The search returns the stepped point once a Newton step falls below
/// `1e-7·t`, the bracket midpoint once the bracket closes to 1e-12
/// relative, and its next probe point once `budget` probes other than
/// doublings have been spent. Returns `None` when `F` stays below the
/// target up to `2^max_growth * initial_hi`.
pub fn invert_monotone<F: FnMut(f64) -> (f64, f64)>(
    mut probe: F,
    target: f64,
    initial_hi: f64,
    max_growth: usize,
    budget: usize,
) -> Option<f64> {
    let mut t = initial_hi.max(1e-300);
    let ceiling = t * 2f64.powi(max_growth as i32);
    let ln_target = (-target).ln_1p();
    // F(0) = 0 < target gives the left end for free.
    let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
    let mut charged = 0usize;
    let mut doubled = false;
    loop {
        let (cdf, density) = probe(t);
        if !doubled {
            charged += 1;
        }
        if cdf == target {
            return Some(t);
        }
        if cdf < target {
            lo = t;
        } else {
            hi = t;
        }
        let step = if cdf < 1.0 && density > 0.0 {
            ((-cdf).ln_1p() - ln_target) * (1.0 - cdf) / density
        } else {
            f64::NAN
        };
        if step.abs() <= NEWTON_STOP * t {
            return Some((t + step).clamp(lo, hi));
        }
        let newton = t + step;
        let next = if hi == f64::INFINITY {
            if t >= ceiling {
                return None;
            }
            // A NaN step (no usable density) fails this test too.
            doubled = newton <= t || newton.is_nan();
            if doubled {
                (2.0 * t).min(ceiling)
            } else {
                newton.min(ceiling)
            }
        } else {
            if hi - lo <= BRACKET_STOP * hi {
                return Some(0.5 * (lo + hi));
            }
            doubled = false;
            if newton > lo && newton < hi {
                newton
            } else if lo > 0.0 && hi > 4.0 * lo {
                (lo * hi).sqrt()
            } else {
                0.5 * (lo + hi)
            }
        };
        if !doubled && charged >= budget {
            return Some(next);
        }
        t = next;
    }
}

/// Damped Newton iteration with positivity constraint (the MLE shape equation
/// lives on `x > 0`).
///
/// Halves the step until the iterate stays positive. Falls back to returning
/// the best iterate on slow convergence.
pub fn newton_positive<F, G>(
    f: F,
    df: G,
    x0: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64, RootError>
where
    F: Fn(f64) -> f64,
    G: Fn(f64) -> f64,
{
    let mut x = x0.max(1e-12);
    for _ in 0..max_iter {
        let fx = f(x);
        if !fx.is_finite() {
            return Err(RootError::NonFinite { at: x });
        }
        if fx.abs() <= tol {
            return Ok(x);
        }
        let dfx = df(x);
        if dfx == 0.0 || !dfx.is_finite() {
            return Err(RootError::NonFinite { at: x });
        }
        let mut step = fx / dfx;
        // Damping: keep the iterate strictly positive.
        let mut next = x - step;
        let mut halvings = 0;
        while next <= 0.0 && halvings < 60 {
            step *= 0.5;
            next = x - step;
            halvings += 1;
        }
        if (next - x).abs() <= tol * x.abs().max(1.0) {
            return Ok(next);
        }
        x = next;
    }
    let residual = f(x);
    if residual.abs() <= tol * 100.0 {
        Ok(x)
    } else {
        Err(RootError::MaxIterations { best: x, residual })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 200).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_exact_endpoint() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-12, 100).unwrap(), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-12, 100).unwrap(), 1.0);
    }

    #[test]
    fn bisect_requires_bracket() {
        assert!(matches!(
            bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100),
            Err(RootError::NoBracket { .. })
        ));
    }

    #[test]
    fn brent_finds_cos_root() {
        let r = brent(|x| x.cos(), 0.0, 3.0, 1e-14, 100).unwrap();
        assert!((r - std::f64::consts::FRAC_PI_2).abs() < 1e-10, "r={r}");
    }

    #[test]
    fn brent_handles_steep_function() {
        let r = brent(|x| x.exp() - 1e6, 0.0, 30.0, 1e-12, 200).unwrap();
        assert!((r - 1e6f64.ln()).abs() < 1e-8);
    }

    #[test]
    fn brent_requires_bracket() {
        assert!(matches!(
            brent(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100),
            Err(RootError::NoBracket { .. })
        ));
    }

    #[test]
    fn newton_solves_log_equation() {
        // ln x = 1 → x = e
        let r = newton_positive(|x| x.ln() - 1.0, |x| 1.0 / x, 2.0, 1e-13, 100).unwrap();
        assert!((r - std::f64::consts::E).abs() < 1e-10);
    }

    #[test]
    fn newton_stays_positive() {
        // A function whose naive Newton step overshoots negative: 1/x − 10.
        let r = newton_positive(|x| 1.0 / x - 10.0, |x| -1.0 / (x * x), 5.0, 1e-13, 200).unwrap();
        assert!((r - 0.1).abs() < 1e-9, "r={r}");
    }

    #[test]
    fn ridders_finds_sqrt2() {
        let r = ridders(|x| x * x - 2.0, 0.0, 2.0, 1e-14, 60).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-12, "r={r}");
    }

    #[test]
    fn ridders_handles_steep_function() {
        let r = ridders(|x| x.exp() - 1e6, 0.0, 30.0, 1e-12, 60).unwrap();
        assert!((r - 1e6f64.ln()).abs() < 1e-8, "r={r}");
    }

    #[test]
    fn ridders_requires_bracket() {
        assert!(matches!(
            ridders(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 60),
            Err(RootError::NoBracket { .. })
        ));
    }

    #[test]
    fn ridders_converges_faster_than_bisection() {
        // Count evaluations to the same tolerance on a smooth CDF-like curve.
        let count = std::cell::Cell::new(0usize);
        let f = |x: f64| {
            count.set(count.get() + 1);
            1.0 - (-0.7 * x).exp() - 0.95
        };
        let r = ridders(f, 0.0, 40.0, 1e-12, 200).unwrap();
        let ridders_evals = count.get();
        assert!((r - (-(0.05f64).ln()) / 0.7).abs() < 1e-9);
        count.set(0);
        let b = bisect(f, 0.0, 40.0, 1e-12, 200).unwrap();
        let bisect_evals = count.get();
        assert!((b - r).abs() < 1e-9);
        assert!(
            ridders_evals * 2 < bisect_evals,
            "ridders {ridders_evals} vs bisect {bisect_evals}"
        );
    }

    /// `(F, f)` of Exp(λ).
    fn exponential(lambda: f64) -> impl Fn(f64) -> (f64, f64) {
        move |t| (1.0 - (-lambda * t).exp(), lambda * (-lambda * t).exp())
    }

    #[test]
    fn invert_monotone_finds_exponential_quantile() {
        let q = invert_monotone(exponential(2.0), 0.5, 1.0, 40, 16).unwrap();
        assert!((q - std::f64::consts::LN_2 / 2.0).abs() < 1e-12, "q={q}");
    }

    #[test]
    fn invert_monotone_grows_past_a_small_hint() {
        // Hint 2^20 times too small: the first Newton step on the linear
        // log-survival lands on the answer.
        let q = invert_monotone(exponential(0.001), 0.5, 1e-3, 40, 16).unwrap();
        assert!(
            (q - std::f64::consts::LN_2 / 0.001).abs() / q < 1e-12,
            "q={q}"
        );
    }

    #[test]
    fn invert_monotone_doubles_where_the_density_vanishes() {
        // Exp(1) shifted by 8: below the shift F = f = 0, so the search
        // can only double its way there from a hint of 1e-3.
        let probes = std::cell::Cell::new(0usize);
        let shifted = |t: f64| {
            probes.set(probes.get() + 1);
            if t <= 8.0 {
                (0.0, 0.0)
            } else {
                exponential(1.0)(t - 8.0)
            }
        };
        let q = invert_monotone(shifted, 0.9, 1e-3, 40, 16).unwrap();
        assert!((q - (8.0 + 10f64.ln())).abs() < 1e-10, "q={q}");
        // 13 doublings reach the support; Newton needs a few more.
        assert!(probes.get() <= 13 + 6, "{} probes", probes.get());
    }

    #[test]
    fn invert_monotone_converges_in_a_few_probes() {
        for (p, most) in [(0.05, 6), (0.5, 4), (0.95, 5), (0.999, 5)] {
            let probes = std::cell::Cell::new(0usize);
            // Erlang-3 with rate 2: mean 1.5, the hint.
            let erlang = |t: f64| {
                probes.set(probes.get() + 1);
                let x = 2.0 * t;
                let tail = (-x).exp() * (1.0 + x + 0.5 * x * x);
                (1.0 - tail, 2.0 * (-x).exp() * 0.5 * x * x)
            };
            let q = invert_monotone(erlang, p, 1.5, 40, 16).unwrap();
            let x = 2.0 * q;
            let back = 1.0 - (-x).exp() * (1.0 + x + 0.5 * x * x);
            assert!((back - p).abs() < 1e-13, "p={p}: F(q) = {back}");
            assert!(probes.get() <= most, "p={p}: {} probes", probes.get());
        }
    }

    #[test]
    fn invert_monotone_bisects_when_newton_leaves_the_bracket() {
        // A density 1000× too small: Newton steps overshoot the bracket,
        // so the search bisects — geometrically across the huge bracket its
        // first overshoot opens — until the bracket is tight enough for the
        // stretched steps to land inside it. The stop rule trusts the step
        // size, so the answer is 1000× less accurate than with a true
        // density, but still close.
        let q = invert_monotone(
            |t| (1.0 - (-2.0 * t).exp(), 2e-3 * (-2.0 * t).exp()),
            0.95,
            1.0,
            40,
            64,
        )
        .unwrap();
        let want = -(0.05f64).ln() / 2.0;
        assert!((q - want).abs() < 1e-8, "q={q} want {want}");
    }

    #[test]
    fn invert_monotone_respects_the_probe_budget() {
        // With no usable density every step bisects; the budget caps the
        // probes and the answer is the bracket's midpoint so far.
        let probes = std::cell::Cell::new(0usize);
        let q = invert_monotone(
            |t| {
                probes.set(probes.get() + 1);
                (1.0 - (-2.0 * t).exp(), 0.0)
            },
            0.5,
            1.0,
            40,
            16,
        )
        .unwrap();
        assert_eq!(probes.get(), 16);
        assert!((q - std::f64::consts::LN_2 / 2.0).abs() < 1e-4, "q={q}");
    }

    #[test]
    fn invert_monotone_reports_unreachable_target() {
        // A CDF capped at 0.3 never reaches the target.
        let capped = |t: f64| (t.min(0.3), if t < 0.3 { 1.0 } else { 0.0 });
        assert_eq!(invert_monotone(capped, 0.9, 1.0, 10, 16), None);
    }

    #[test]
    fn nonfinite_detected() {
        assert!(matches!(
            bisect(
                |x| if x > 0.5 { f64::NAN } else { x - 1.0 },
                0.0,
                1.0,
                1e-9,
                50
            ),
            Err(RootError::NonFinite { .. })
        ));
    }
}
