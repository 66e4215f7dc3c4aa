//! Numerical inversion of Laplace transforms.
//!
//! The paper's model produces response-latency distributions only as
//! Laplace–Stieltjes transforms (Pollaczek–Khinchin, M/M/1/K sojourn, products
//! of component LSTs). Percentile predictions require evaluating the CDF at
//! the SLA bound, i.e. inverting `L[f](s)/s` numerically.
//!
//! The algorithm is Abate–Whitt Euler summation of the Bromwich
//! trapezoid ([`euler`]): `n` burn-in terms and 11 Euler-averaged ones,
//! `n + 12` evaluations, with an aliasing error of about `e^{−18.4}` ≈
//! 1e-8. The default `n = 100` brute-forces the oscillation that
//! Degenerate (shift) factors put into a transform; a transform without
//! them needs far fewer (the latency model inverts its delay-free
//! transforms with 20).
//!
//! # The hot path
//!
//! An inversion gathers its abscissae up front and evaluates the
//! transform through [`LaplaceFn::eval_batch`] — one call per inversion.
//! Composite model transforms override `eval_batch` to hoist subexpressions
//! shared across the whole abscissa set (utilizations, component LSTs,
//! mixture weights) instead of recomputing them point by point; the default
//! implementation falls back to scalar [`LaplaceFn::eval`] so plain closures
//! keep working unchanged. The Euler binomial weights are a static table.
//!
//! The rule is linear over the transform values at its abscissae, so one
//! batch of `L[f](s)` yields both the density (the rule over `L[f](s)`)
//! and the CDF (the rule over `L[f](s)/s`):
//! [`cdf_and_density_from_lst`] feeds the quantile search a Newton slope
//! at no extra transform evaluations.

use crate::complex::Complex64;
use crate::lanes;
use crate::roots::invert_monotone;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A Laplace transform `F(s)` evaluated at complex `s`.
///
/// All model distributions implement their LST against complex arguments, so
/// inversion just takes a closure.
pub trait LaplaceFn {
    /// Evaluate the transform at `s`.
    fn eval(&self, s: Complex64) -> Complex64;

    /// Evaluate the transform at every abscissa in `s`, writing results to
    /// `out` (same length). The default delegates to [`LaplaceFn::eval`]
    /// point by point; composite transforms override this to hoist shared
    /// subexpressions across the batch. Implementations must be
    /// **bit-identical** to the scalar path — inversion results may be
    /// memoized and compared across paths.
    fn eval_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(s.len(), out.len(), "abscissa/output length mismatch");
        for (s, o) in s.iter().zip(out.iter_mut()) {
            *o = self.eval(*s);
        }
    }
}

impl<T: Fn(Complex64) -> Complex64> LaplaceFn for T {
    #[inline]
    fn eval(&self, s: Complex64) -> Complex64 {
        self(s)
    }
}

/// Instrumented wrapper counting transform evaluations.
///
/// Wrap any [`LaplaceFn`] to observe how much work a query performs:
/// `evals()` counts scalar-equivalent transform evaluations and
/// `batch_calls()` counts `eval_batch` invocations. Since an inversion
/// issues exactly one batch, `batch_calls()` is the
/// number of numerical inversions performed — the metric the quantile
/// solver is budgeted against.
pub struct CountingLaplaceFn<'a, F: LaplaceFn + ?Sized> {
    inner: &'a F,
    evals: AtomicUsize,
    batches: AtomicUsize,
}

impl<'a, F: LaplaceFn + ?Sized> CountingLaplaceFn<'a, F> {
    /// Wraps `inner`, starting all counters at zero.
    pub fn new(inner: &'a F) -> Self {
        CountingLaplaceFn {
            inner,
            evals: AtomicUsize::new(0),
            batches: AtomicUsize::new(0),
        }
    }

    /// Scalar-equivalent transform evaluations so far.
    pub fn evals(&self) -> usize {
        self.evals.load(Ordering::Relaxed)
    }

    /// `eval_batch` calls so far (== numerical inversions performed).
    pub fn batch_calls(&self) -> usize {
        self.batches.load(Ordering::Relaxed)
    }
}

impl<F: LaplaceFn + ?Sized> LaplaceFn for CountingLaplaceFn<'_, F> {
    fn eval(&self, s: Complex64) -> Complex64 {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.eval(s)
    }
    fn eval_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        self.evals.fetch_add(s.len(), Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inner.eval_batch(s, out);
    }
}

/// `(1 − L[f](s))/s` — the tail (CCDF) transform.
struct TailTransform<'a, F: LaplaceFn + ?Sized>(&'a F);

impl<F: LaplaceFn + ?Sized> LaplaceFn for TailTransform<'_, F> {
    #[inline]
    fn eval(&self, s: Complex64) -> Complex64 {
        (Complex64::ONE - self.0.eval(s)) / s
    }
    fn eval_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        self.0.eval_batch(s, out);
        for (o, s) in out.iter_mut().zip(s.iter()) {
            *o = (Complex64::ONE - *o) / *s;
        }
    }
}

/// A term count that is invalid for the Euler algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Euler needs at least one burn-in term.
    EulerTooFewTerms {
        /// The offending count.
        terms: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EulerTooFewTerms { terms } => {
                write!(f, "euler requires at least 1 burn-in term, got {terms}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration for Laplace inversion: the Euler algorithm's burn-in term
/// count.
#[derive(Debug, Clone, Copy)]
pub struct InversionConfig {
    /// Euler burn-in terms `n` (`n + 12` evaluations).
    pub terms: usize,
}

/// Euler with 100 burn-in terms (112 evaluations): enough for transforms
/// that carry shift factors, which an arbitrary closure may hide.
impl Default for InversionConfig {
    fn default() -> Self {
        InversionConfig { terms: 100 }
    }
}

impl InversionConfig {
    /// Checks the term count: [`InversionConfig::invert`] clamps it to at
    /// least 1 silently; call this to surface a zero as a typed error
    /// instead.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self.terms {
            0 => Err(ConfigError::EulerTooFewTerms { terms: 0 }),
            _ => Ok(()),
        }
    }

    /// Invert `transform` at time `t` with this configuration.
    ///
    /// A term count of 0 is clamped to 1; in debug builds it also trips a
    /// debug assertion, so the misconfiguration is caught in development.
    pub fn invert<F: LaplaceFn>(&self, transform: &F, t: f64) -> f64 {
        self.plan(t).invert(transform)
    }

    /// The plan of one inversion at `t` under this configuration: the
    /// abscissae to evaluate a transform at, and the rule that turns the
    /// values there into the inverse (see [`InversionPlan`]). Term counts
    /// are clamped as in [`InversionConfig::invert`].
    ///
    /// # Panics
    /// Panics unless `t > 0`.
    pub fn plan(&self, t: f64) -> InversionPlan {
        debug_assert!(
            self.validate().is_ok(),
            "invalid inversion config (clamped): {:?}",
            self.validate().unwrap_err()
        );
        InversionPlan::euler(t, self.terms.max(1))
    }
}

/// One Euler inversion at a fixed `t`: the abscissae a transform is
/// evaluated at, and the linear rule that maps the values there to the
/// inverse at `t`. The rule is linear in the transform values, so one
/// batch of `L[f](s)` yields both the density (the rule over `L[f](s)`)
/// and the CDF (the same rule over `L[f](s)/s`).
///
/// [`cdf_from_lst`] and [`cdf_and_density_from_lst`] are a plan, one
/// [`LaplaceFn::eval_batch`] at its abscissae, and
/// [`InversionPlan::cdf`] or [`InversionPlan::cdf_and_density`]. A caller
/// that composes its transform from factors shared between several
/// inversions at the same `t` — the latency model's devices share their
/// frontend factor — evaluates them once at [`InversionPlan::abscissae`]
/// and applies the rule to each product, with bit-identical results.
pub struct InversionPlan {
    t: f64,
    /// Burn-in terms.
    n: usize,
    /// The abscissae, then their reciprocals.
    points: Vec<Complex64>,
}

impl InversionPlan {
    /// The points the transform is evaluated at, in the order the rule
    /// reads their values.
    pub fn abscissae(&self) -> &[Complex64] {
        &self.points[..self.points.len() / 2]
    }

    /// `1/s` at each abscissa, bit-identical to [`Complex64::inv`].
    fn reciprocals(&self) -> &[Complex64] {
        &self.points[self.points.len() / 2..]
    }

    /// The CDF at `t` from the values of a density's LST `L[f](s)` at
    /// [`InversionPlan::abscissae`]: the rule over `L[f](s)/s`, clamped to
    /// `[0, 1]`. The rule reads only real parts, and `v/s` is `v · s⁻¹`
    /// exactly (`Complex64`'s `/`), so it takes `Re(v · s⁻¹)` from the
    /// plan's reciprocals as it sums: no division per point.
    pub fn cdf(&self, values: &[Complex64]) -> f64 {
        let over_s = values
            .iter()
            .zip(self.reciprocals())
            .map(|(v, r)| v.re * r.re - v.im * r.im);
        self.euler_sum(over_s).clamp(0.0, 1.0)
    }

    /// The CDF and the density at `t` from the values of `L[f](s)` at
    /// [`InversionPlan::abscissae`]; the CDF is [`InversionPlan::cdf`]'s.
    /// The density is the raw inverse, so inversion noise can leave it a
    /// hair below zero where the true density vanishes.
    pub fn cdf_and_density(&self, values: &[Complex64]) -> (f64, f64) {
        (self.cdf(values), self.apply(values))
    }

    /// Evaluates `transform` at every abscissa in one batch.
    fn values<F: LaplaceFn + ?Sized>(&self, transform: &F) -> Vec<Complex64> {
        let mut values = vec![Complex64::ZERO; self.abscissae().len()];
        transform.eval_batch(self.abscissae(), &mut values);
        values
    }

    /// Inverts `transform` at `t`: one batch, then the rule.
    fn invert<F: LaplaceFn + ?Sized>(&self, transform: &F) -> f64 {
        self.apply(&self.values(transform))
    }

    /// Maps transform values at the abscissae to the inverse at `t`.
    fn apply(&self, values: &[Complex64]) -> f64 {
        self.euler_sum(values.iter().map(|v| v.re))
    }

    /// The rule over the real parts of the transform values, in abscissa
    /// order: the alternating trapezoid sum, Neumaier-compensated, then the
    /// binomial (Euler) average of its last `M_EULER + 1` partial sums.
    #[inline(always)]
    fn euler_sum(&self, mut re: impl ExactSizeIterator<Item = f64>) -> f64 {
        assert_eq!(
            re.len(),
            self.abscissae().len(),
            "abscissa/value length mismatch"
        );
        let n = self.n;
        let mut running = 0.5 * re.next().expect("a plan has abscissae");
        let mut comp = 0.0; // Neumaier compensation for the alternating sum
        let mut partials = [0.0f64; M_EULER + 1];
        for (k, x) in (1..).zip(re) {
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            let term = sign * x;
            let new_sum = running + term;
            // Both error terms computed and one selected: the larger
            // magnitude alternates along the series, a branch mispredicts.
            let big_running = (running - new_sum) + term;
            let big_term = (term - new_sum) + running;
            comp += if running.abs() >= term.abs() {
                big_running
            } else {
                big_term
            };
            running = new_sum;
            if k >= n {
                partials[k - n] = running + comp;
            }
        }
        let mut avg = 0.0;
        for (&w, &p) in EULER_WEIGHTS.iter().zip(partials.iter()) {
            avg += w * p;
        }
        (EULER_A / 2.0).exp() / self.t * avg
    }
}

/// Inverts `F(s)` at `t > 0` with the Euler algorithm and default burn-in.
pub fn euler<F: LaplaceFn>(transform: &F, t: f64) -> f64 {
    euler_m(transform, t, 40)
}

const M_EULER: usize = 11;

/// Binomial (Euler) averaging weights `C(11, j) / 2^11`, precomputed. The
/// numerators are exact in f64 and `2^-11` is a power of two, so each entry
/// is exactly `binomial(11, j) * 0.5^11` as the per-call code used to
/// compute.
const EULER_WEIGHTS: [f64; M_EULER + 1] = [
    1.0 / 2048.0,
    11.0 / 2048.0,
    55.0 / 2048.0,
    165.0 / 2048.0,
    330.0 / 2048.0,
    462.0 / 2048.0,
    462.0 / 2048.0,
    330.0 / 2048.0,
    165.0 / 2048.0,
    55.0 / 2048.0,
    11.0 / 2048.0,
    1.0 / 2048.0,
];

/// Classical Euler algorithm (Abate–Whitt–Choudhury) with `n` burn-in terms.
///
/// Sums the Bromwich trapezoid
/// `f(t) ≈ (e^{A/2}/t) [ F(A/2t)/2 + Σ_{k≥1} (−1)^k Re F(A/2t + ikπ/t) ]`
/// with `A = 18.4` (aliasing error ≈ e^{−A} ≈ 1e-8 for bounded `f`), taking
/// `n` raw terms and then Euler-averaging the next 11 partial sums. The
/// separate burn-in makes this robust to the extra oscillation that
/// Degenerate (time-shift) factors introduce.
///
/// All `n + 12` abscissae are gathered up front and evaluated through one
/// [`LaplaceFn::eval_batch`] call.
pub fn euler_m<F: LaplaceFn + ?Sized>(transform: &F, t: f64, n: usize) -> f64 {
    InversionPlan::euler(t, n).invert(transform)
}

/// Euler's trapezoid parameter `A`.
const EULER_A: f64 = 18.4;

impl InversionPlan {
    fn euler(t: f64, n: usize) -> InversionPlan {
        assert!(t > 0.0, "euler inversion requires t > 0, got {t}");
        assert!(n >= 1, "euler inversion requires at least 1 burn-in term");
        let x = EULER_A / (2.0 * t);
        let total = n + M_EULER;
        let mut points = vec![Complex64::ZERO; 2 * (total + 1)];
        let (abscissae, reciprocals) = points.split_at_mut(total + 1);
        abscissae[0] = Complex64::from_real(x);
        for (k, s) in abscissae.iter_mut().enumerate().skip(1) {
            *s = Complex64::new(x, k as f64 * std::f64::consts::PI / t);
        }
        lanes::inv_batch(abscissae, reciprocals);
        InversionPlan { t, n, points }
    }
}

/// Evaluates the CDF of a nonnegative random variable at `t`, given the LST of
/// its density: `CDF(t) = invert(L[f](s)/s)`, clamped to `[0, 1]`.
///
/// Atoms at the evaluation point converge to the jump midpoint, which is the
/// right behaviour for SLA percentile queries against continuous-latency
/// systems.
pub fn cdf_from_lst<F: LaplaceFn + ?Sized>(lst: &F, t: f64, config: &InversionConfig) -> f64 {
    if t <= 0.0 {
        return 0.0;
    }
    let plan = config.plan(t);
    plan.cdf(&plan.values(lst))
}

/// Evaluates the CDF and the density of a nonnegative random variable at
/// `t` from one transform batch: both are the same linear rule over the
/// same abscissae, applied to `L[f](s)` for the density and to `L[f](s)/s`
/// for the CDF. The CDF is bit-identical to [`cdf_from_lst`] (clamped to
/// `[0, 1]`); the density is the raw inverse, so inversion noise can leave
/// it a hair below zero where the true density vanishes.
pub fn cdf_and_density_from_lst<F: LaplaceFn + ?Sized>(
    lst: &F,
    t: f64,
    config: &InversionConfig,
) -> (f64, f64) {
    if t <= 0.0 {
        return (0.0, 0.0);
    }
    let plan = config.plan(t);
    plan.cdf_and_density(&plan.values(lst))
}

/// Evaluates the complementary CDF (tail) at `t`.
pub fn ccdf_from_lst<F: LaplaceFn + ?Sized>(lst: &F, t: f64, config: &InversionConfig) -> f64 {
    if t <= 0.0 {
        return 1.0;
    }
    // L[1 − F](s) = (1 − L[f](s))/s ; inverting the tail directly is better
    // conditioned when the CDF is close to 1.
    config.invert(&TailTransform(lst), t).clamp(0.0, 1.0)
}

/// Finds the quantile `t` with `CDF(t) = p` by the log-survival Newton
/// search of [`invert_monotone`]. Each probe is one transform batch that
/// yields both the CDF and the density ([`cdf_and_density_from_lst`]), so a
/// probe costs one numerical inversion.
///
/// `upper_hint` seeds the search; it need not bound the quantile (the
/// search grows past it). With a hint of the right order — a mean, say —
/// a quantile costs 4–6 inversions, and never more than
/// [`QUANTILE_INVERSION_BUDGET`] past the growth phase. Returns `None` if
/// the CDF stays below `p` up to `2^40 * upper_hint`.
pub fn quantile_from_lst<F: LaplaceFn + ?Sized>(
    lst: &F,
    p: f64,
    upper_hint: f64,
    config: &InversionConfig,
) -> Option<f64> {
    assert!(
        (0.0..1.0).contains(&p),
        "quantile requires p in [0,1), got {p}"
    );
    if p == 0.0 {
        return Some(0.0);
    }
    invert_monotone(
        |t| cdf_and_density_from_lst(lst, t, config),
        p,
        upper_hint,
        40,
        QUANTILE_INVERSION_BUDGET,
    )
}

/// Probe cap of one quantile search ([`invert_monotone`]'s `budget`):
/// past any pure doublings that grow the search beyond its hint, at most
/// this many probes, each one numerical inversion per transform. The
/// Newton steps converge well inside it — 4–6 probes from a mean-sized
/// hint — so the cap only bounds pathological inputs.
pub const QUANTILE_INVERSION_BUDGET: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::binomial;

    /// LST of Exp(λ) density: λ/(λ+s).
    fn exp_lst(lambda: f64) -> impl Fn(Complex64) -> Complex64 {
        move |s| Complex64::from_real(lambda) / (s + lambda)
    }

    /// LST of Erlang(k, λ): (λ/(λ+s))^k.
    fn erlang_lst(k: i32, lambda: f64) -> impl Fn(Complex64) -> Complex64 {
        move |s| (Complex64::from_real(lambda) / (s + lambda)).powi(k)
    }

    #[test]
    fn euler_recovers_exponential_density() {
        let f = exp_lst(2.0);
        for &t in &[0.1, 0.5, 1.0, 2.0, 4.0] {
            let got = euler(&f, t);
            let want = 2.0 * (-2.0 * t).exp();
            // A = 18.4 caps accuracy at the e^{-A} ≈ 1e-8 aliasing floor.
            assert!((got - want).abs() < 1e-7, "t={t}: got {got}, want {want}");
        }
    }

    #[test]
    fn euler_recovers_erlang_cdf() {
        let lst = erlang_lst(3, 2.0);
        let t = 1.7;
        // Erlang(3,2) CDF via the incomplete gamma function.
        let want = crate::special::gamma_p(3.0, 2.0 * t);
        let got = cdf_from_lst(&lst, t, &InversionConfig { terms: 40 });
        assert!((got - want).abs() < 1e-7, "got {got}, want {want}");
    }

    #[test]
    fn cdf_of_shifted_exponential() {
        // X = d + Exp(λ): LST = e^{-sd} λ/(λ+s). CDF(t) = 1 − e^{−λ(t−d)} for t > d.
        let d = 0.5;
        let lambda = 3.0;
        let lst =
            move |s: Complex64| (s * (-d)).exp() * (Complex64::from_real(lambda) / (s + lambda));
        let cfg = InversionConfig::default();
        for &t in &[0.7, 1.0, 2.0] {
            let got = cdf_from_lst(&lst, t, &cfg);
            let want = 1.0 - (-lambda * (t - d)).exp();
            // The pdf jump at t = d slows trapezoid convergence; ~1e-4 at
            // the default order is the honest accuracy for kinked CDFs.
            assert!((got - want).abs() < 5e-4, "t={t}: got {got} want {want}");
        }
        // Below the shift the CDF is 0.
        let got = cdf_from_lst(&lst, 0.3, &cfg);
        assert!(got.abs() < 5e-4, "got {got}");
    }

    #[test]
    fn ccdf_complements_cdf() {
        let lst = erlang_lst(2, 1.0);
        let cfg = InversionConfig::default();
        for &t in &[0.5, 1.0, 3.0, 8.0] {
            let c = cdf_from_lst(&lst, t, &cfg);
            let cc = ccdf_from_lst(&lst, t, &cfg);
            assert!((c + cc - 1.0).abs() < 1e-7, "t={t}: cdf {c} ccdf {cc}");
        }
    }

    #[test]
    fn tail_inversion_accurate_in_far_tail() {
        // Deep tail of Exp(1): ccdf(20) = e^{-20} ≈ 2e-9. Direct CDF
        // inversion cannot resolve this; the tail transform can.
        let lst = exp_lst(1.0);
        let cfg = InversionConfig::default();
        let cc = ccdf_from_lst(&lst, 20.0, &cfg);
        let want = (-20.0f64).exp();
        assert!((cc - want).abs() < 1e-10, "tail: got {cc}, want {want}");
    }

    #[test]
    fn quantile_inverts_cdf() {
        let lst = exp_lst(2.0);
        let cfg = InversionConfig::default();
        // Median of Exp(2) is ln(2)/2.
        let q = quantile_from_lst(&lst, 0.5, 1.0, &cfg).unwrap();
        assert!(
            (q - std::f64::consts::LN_2 / 2.0).abs() < 1e-6,
            "median {q}"
        );
        let q95 = quantile_from_lst(&lst, 0.95, 1.0, &cfg).unwrap();
        assert!((q95 - (-(0.05f64).ln()) / 2.0).abs() < 1e-6);
    }

    /// `(name, LST, exact CDF, mean)` of the closed-form laws the quantile
    /// tests invert: the M/M/1 sojourn (μ = 10, λ = 7, so Exp(3)),
    /// Erlang-4 with rate 2, and Exp(3) shifted by 0.5 (a kinked CDF).
    #[allow(clippy::type_complexity)]
    fn closed_form_laws() -> Vec<(
        &'static str,
        Box<dyn Fn(Complex64) -> Complex64>,
        Box<dyn Fn(f64) -> f64>,
        f64,
    )> {
        let shift = 0.5;
        vec![
            (
                "mm1",
                Box::new(exp_lst(3.0)),
                Box::new(|t: f64| 1.0 - (-3.0 * t).exp()),
                1.0 / 3.0,
            ),
            (
                "erlang4",
                Box::new(erlang_lst(4, 2.0)),
                Box::new(|t: f64| crate::special::gamma_p(4.0, 2.0 * t)),
                2.0,
            ),
            (
                "shifted",
                Box::new(move |s: Complex64| {
                    (s * (-shift)).exp() * (Complex64::from_real(3.0) / (s + 3.0))
                }),
                Box::new(move |t: f64| {
                    if t <= shift {
                        0.0
                    } else {
                        1.0 - (-3.0 * (t - shift)).exp()
                    }
                }),
                shift + 1.0 / 3.0,
            ),
        ]
    }

    #[test]
    fn quantiles_match_closed_forms() {
        // The inversion's own accuracy — its worst CDF error at the exact
        // quantiles — is capped per law (the kinked law is where Euler
        // loses digits), and the solver may add no more than half of it
        // again: the quantile is as good as the CDF allows.
        let cfg = InversionConfig::default();
        let caps = [2e-8, 2e-8, 5e-4];
        let ps = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999];
        for (law, (name, lst, cdf, mean)) in closed_form_laws().iter().enumerate() {
            let mut own = 0.0f64;
            for &p in &ps {
                let exact = crate::roots::brent(|t| cdf(t) - p, 0.0, 100.0, 1e-15, 200).unwrap();
                own = own.max((cdf_from_lst(lst, exact, &cfg) - p).abs());
            }
            assert!(own <= caps[law], "{name}: own accuracy {own:e}");
            for &p in &ps {
                let counting = CountingLaplaceFn::new(lst);
                let q = quantile_from_lst(&counting, p, *mean, &cfg).unwrap();
                let err = (cdf(q) - p).abs();
                assert!(
                    err <= 1.5 * own + 1e-11,
                    "{name} p={p}: |F(q) - p| = {err:e}, own {own:e}"
                );
                assert!(
                    counting.batch_calls() <= QUANTILE_INVERSION_BUDGET,
                    "{name} p={p}: {} inversions",
                    counting.batch_calls()
                );
            }
        }
    }

    #[test]
    fn cdf_and_density_share_one_batch() {
        let lst = erlang_lst(3, 2.0);
        let cfg = InversionConfig::default();
        for &t in &[0.3, 1.0, 2.5] {
            let counting = CountingLaplaceFn::new(&lst);
            let (cdf, density) = cdf_and_density_from_lst(&counting, t, &cfg);
            assert_eq!(counting.batch_calls(), 1);
            assert_eq!(cdf.to_bits(), cdf_from_lst(&lst, t, &cfg).to_bits());
            assert_eq!(density.to_bits(), cfg.invert(&lst, t).to_bits());
            // Erlang(3, 2) density: 4 t² e^{−2t}.
            let want = 4.0 * t * t * (-2.0 * t).exp();
            assert!((density - want).abs() < 1e-7, "t={t}: {density}");
        }
        assert_eq!(
            cdf_and_density_from_lst(&lst, 0.0, &InversionConfig::default()),
            (0.0, 0.0)
        );
    }

    #[test]
    fn a_plan_inverts_shared_factors_like_the_wrappers() {
        // Two transforms sharing a factor: each product evaluated at the
        // plan's abscissae inverts bit-identically to the wrappers over a
        // closure.
        let shared = exp_lst(3.0);
        let own = [erlang_lst(2, 5.0), erlang_lst(4, 1.5)];
        for terms in [20, 100] {
            let cfg = InversionConfig { terms };
            for &t in &[0.2, 1.0, 4.0] {
                let plan = cfg.plan(t);
                let factor: Vec<Complex64> = plan.abscissae().iter().map(|&s| shared(s)).collect();
                for other in &own {
                    let product = |s: Complex64| shared(s) * other(s);
                    let values: Vec<Complex64> = plan
                        .abscissae()
                        .iter()
                        .zip(&factor)
                        .map(|(&s, &f)| f * other(s))
                        .collect();
                    let cdf = plan.cdf(&values);
                    assert_eq!(cdf.to_bits(), cdf_from_lst(&product, t, &cfg).to_bits());
                    let (c, d) = plan.cdf_and_density(&values);
                    let (want_c, want_d) = cdf_and_density_from_lst(&product, t, &cfg);
                    assert_eq!(
                        (c.to_bits(), d.to_bits()),
                        (want_c.to_bits(), want_d.to_bits()),
                        "terms={terms} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantile_grows_bracket() {
        // upper_hint far too small still converges.
        let lst = exp_lst(0.001);
        let cfg = InversionConfig::default();
        let q = quantile_from_lst(&lst, 0.5, 1e-6, &cfg).unwrap();
        assert!((q - std::f64::consts::LN_2 / 0.001).abs() / q < 1e-5);
    }

    #[test]
    fn quantile_stays_within_inversion_budget() {
        // With a hint in the right ballpark the log-survival of Exp(2) is
        // a straight line: one Newton step lands within inversion noise of
        // the quantile, and a probe or two confirm it.
        let lst = exp_lst(2.0);
        let cfg = InversionConfig::default();
        for &p in &[0.5, 0.9, 0.95, 0.99] {
            let counting = CountingLaplaceFn::new(&lst);
            let q = quantile_from_lst(&counting, p, 1.0, &cfg).unwrap();
            let want = -(1.0 - p).ln() / 2.0;
            assert!((q - want).abs() < 1e-6, "p={p}: {q} vs {want}");
            assert!(
                counting.batch_calls() <= 3,
                "p={p}: {} inversions",
                counting.batch_calls()
            );
        }
    }

    #[test]
    fn counting_wrapper_counts_one_batch_per_inversion() {
        let lst = exp_lst(1.0);
        let counting = CountingLaplaceFn::new(&lst);
        let cfg = InversionConfig::default();
        cdf_from_lst(&counting, 1.0, &cfg);
        assert_eq!(counting.batch_calls(), 1);
        // Euler with n burn-in terms evaluates n + 12 points.
        assert_eq!(counting.evals(), cfg.terms + M_EULER + 1);
    }

    #[test]
    fn batch_default_matches_scalar() {
        let lst = erlang_lst(3, 2.0);
        let abscissae: Vec<Complex64> = (1..=40)
            .map(|k| Complex64::new(1.7, k as f64 * 0.3))
            .collect();
        let mut out = vec![Complex64::ZERO; abscissae.len()];
        lst.eval_batch(&abscissae, &mut out);
        for (s, o) in abscissae.iter().zip(out.iter()) {
            let want = lst.eval(*s);
            assert_eq!(o.re.to_bits(), want.re.to_bits());
            assert_eq!(o.im.to_bits(), want.im.to_bits());
        }
    }

    #[test]
    fn cdf_clamps_to_unit_interval() {
        let lst = exp_lst(1.0);
        let cfg = InversionConfig::default();
        assert_eq!(cdf_from_lst(&lst, -1.0, &cfg), 0.0);
        assert_eq!(cdf_from_lst(&lst, 0.0, &cfg), 0.0);
        let c = cdf_from_lst(&lst, 1e9, &cfg);
        assert!((c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn euler_order_improves_accuracy() {
        // A kinked CDF (shifted exponential) is where burn-in terms matter.
        let d = 0.5;
        let lambda = 3.0;
        let lst =
            move |s: Complex64| (s * (-d)).exp() * (Complex64::from_real(lambda) / (s + lambda));
        let t = 0.7;
        let want = 1.0 - (-lambda * (t - d)).exp();
        let lo = (cdf_from_lst(&lst, t, &InversionConfig { terms: 20 }) - want).abs();
        let hi = (cdf_from_lst(&lst, t, &InversionConfig { terms: 320 }) - want).abs();
        assert!(hi < lo, "lo-order err {lo}, hi-order err {hi}");
        assert!(hi < 1e-4, "hi-order err {hi}");
    }

    #[test]
    fn euler_weights_match_binomial_table() {
        let scale = 0.5f64.powi(M_EULER as i32);
        for (j, &w) in EULER_WEIGHTS.iter().enumerate() {
            let want = binomial(M_EULER as u32, j as u32) * scale;
            assert_eq!(w.to_bits(), want.to_bits(), "weight {j}");
        }
    }

    #[test]
    fn config_validation_catches_a_zero_term_count() {
        assert!(InversionConfig::default().validate().is_ok());
        assert_eq!(
            InversionConfig { terms: 0 }.validate(),
            Err(ConfigError::EulerTooFewTerms { terms: 0 })
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "invalid inversion config")]
    fn invert_trips_debug_assertion_on_invalid_config() {
        InversionConfig { terms: 0 }.invert(&exp_lst(1.0), 1.0);
    }

    #[test]
    #[should_panic]
    fn euler_rejects_nonpositive_time() {
        euler(&exp_lst(1.0), 0.0);
    }
}
