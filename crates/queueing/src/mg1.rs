//! M/G/1 queue via the Pollaczek–Khinchin transform (§III-B of the paper).
//!
//! The backend request-processing queue, once operations are packed into
//! union operations, is an M/G/1 queue: Poisson arrivals at rate `r`,
//! generally distributed (union-operation) service times, one server (the
//! event-driven process), FCFS discipline. The waiting-time LST is
//!
//! `L[W](s) = (1 − ρ) s / (s − r (1 − L[B](s)))`
//!
//! which is the paper's `(1 − B̄ r) s / (r L[B](s) + s − r)` rearranged.

use crate::service::DynServiceTime;
use cos_numeric::laplace::{cdf_from_lst, InversionConfig};
use cos_numeric::{lanes, Complex64};

/// Errors constructing queueing models.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueError {
    /// Arrival rate must be positive and finite.
    InvalidArrivalRate(f64),
    /// Utilization `ρ = λ E[B]` is ≥ 1: no steady state exists.
    Unstable {
        /// The offending utilization.
        utilization: f64,
    },
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::InvalidArrivalRate(r) => write!(f, "invalid arrival rate {r}"),
            QueueError::Unstable { utilization } => {
                write!(f, "queue is unstable (utilization {utilization} >= 1)")
            }
        }
    }
}

impl std::error::Error for QueueError {}

/// An M/G/1 queue.
///
/// The service law's first two moments (and hence the utilization) are
/// computed once at construction — composed laws like the cache-mixed
/// M/M/1/K sojourn pay a traversal per moment query, and the transform hot
/// path asks for `ρ` at every abscissa.
#[derive(Clone)]
pub struct Mg1 {
    arrival_rate: f64,
    service: DynServiceTime,
    service_mean: f64,
    service_second_moment: f64,
    utilization: f64,
}

impl std::fmt::Debug for Mg1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mg1")
            .field("arrival_rate", &self.arrival_rate)
            .field("service_mean", &self.service_mean)
            .field("utilization", &self.utilization)
            .finish()
    }
}

impl Mg1 {
    /// Creates a **stable** M/G/1 queue; rejects `ρ ≥ 1`.
    pub fn new(arrival_rate: f64, service: DynServiceTime) -> Result<Self, QueueError> {
        if !(arrival_rate.is_finite() && arrival_rate > 0.0) {
            return Err(QueueError::InvalidArrivalRate(arrival_rate));
        }
        let service_mean = service.mean();
        let service_second_moment = service.second_moment();
        let utilization = arrival_rate * service_mean;
        if utilization >= 1.0 {
            return Err(QueueError::Unstable { utilization });
        }
        Ok(Mg1 {
            arrival_rate,
            service,
            service_mean,
            service_second_moment,
            utilization,
        })
    }

    /// Arrival rate `λ`.
    pub fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }

    /// The service time law.
    pub fn service(&self) -> &DynServiceTime {
        &self.service
    }

    /// Utilization `ρ = λ E[B]`.
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Mean waiting time (Pollaczek–Khinchin mean formula):
    /// `W̄ = λ E[B²] / (2 (1 − ρ))`.
    pub fn mean_waiting(&self) -> f64 {
        self.arrival_rate * self.service_second_moment / (2.0 * (1.0 - self.utilization))
    }

    /// Mean sojourn (response) time `W̄ + E[B]`.
    pub fn mean_sojourn(&self) -> f64 {
        self.mean_waiting() + self.service_mean
    }

    /// P–K waiting-time transform given an already-evaluated service LST
    /// value `lb = L_B(s)`. Lets callers that have the service transform in
    /// hand (fused composite batches) avoid re-evaluating it; must be fed
    /// exactly `self.service().lst(s)` for the result to equal
    /// [`Mg1::waiting_lst`]. The scalar oracle of
    /// [`Mg1::waiting_lst_given_service_batch`].
    #[inline]
    pub fn waiting_lst_given_service(&self, s: Complex64, lb: Complex64) -> Complex64 {
        // (1 − ρ) s / (s − λ(1 − L_B(s))); the numerator and denominator both
        // vanish linearly as s → 0, giving the proper limit 1.
        let denom = s - self.arrival_rate * (Complex64::ONE - lb);
        if denom.abs() < 1e-300 {
            return Complex64::ONE;
        }
        s * (1.0 - self.utilization) / denom
    }

    /// [`Mg1::waiting_lst_given_service`] at every abscissa, in place over
    /// `values`, which hold the service LST there: one lane-width pass
    /// ([`lanes::pk_waiting_batch`]) with no `hypot` unless a denominator
    /// is within 1e-300 of 0. Bit-identical to the scalar path.
    pub fn waiting_lst_given_service_batch(&self, s: &[Complex64], values: &mut [Complex64]) {
        lanes::pk_waiting_batch(self.arrival_rate, 1.0 - self.utilization, s, values)
    }

    /// LST of the waiting-time distribution (P–K transform).
    pub fn waiting_lst(&self, s: Complex64) -> Complex64 {
        self.waiting_lst_given_service(s, self.service.lst(s))
    }

    /// LST of the sojourn-time distribution `L[W](s) · L[B](s)`.
    pub fn sojourn_lst(&self, s: Complex64) -> Complex64 {
        self.waiting_lst(s) * self.service.lst(s)
    }

    /// Batch [`Mg1::waiting_lst`]: one service-LST batch, then the P–K
    /// transform at lane width. Bit-identical to the scalar path.
    pub fn waiting_lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        self.service.lst_batch(s, out);
        self.waiting_lst_given_service_batch(s, out);
    }

    /// Batch [`Mg1::sojourn_lst`]: evaluates the service LST **once** per
    /// abscissa (the scalar path evaluates it twice — once inside the
    /// waiting transform and once for the convolution factor) and reuses
    /// the value for both factors, the waiting time in 32-point pieces on
    /// the stack. Bit-identical because the service LST is deterministic
    /// in `s`.
    pub fn sojourn_lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        self.service.lst_batch(s, out);
        let mut waiting = [Complex64::ZERO; 32];
        for (s, out) in s.chunks(waiting.len()).zip(out.chunks_mut(waiting.len())) {
            let waiting = &mut waiting[..s.len()];
            waiting.copy_from_slice(out);
            self.waiting_lst_given_service_batch(s, waiting);
            for (o, w) in out.iter_mut().zip(waiting.iter()) {
                *o = *w * *o;
            }
        }
    }

    /// Waiting-time CDF at `t` via numerical inversion.
    pub fn waiting_cdf(&self, t: f64, config: &InversionConfig) -> f64 {
        cdf_from_lst(&|s| self.waiting_lst(s), t, config)
    }

    /// Sojourn-time CDF at `t` via numerical inversion.
    pub fn sojourn_cdf(&self, t: f64, config: &InversionConfig) -> f64 {
        cdf_from_lst(&|s| self.sojourn_lst(s), t, config)
    }

    /// Probability the server is idle when a Poisson arrival comes (PASTA):
    /// also the atom of the waiting-time law at 0.
    pub fn idle_probability(&self) -> f64 {
        1.0 - self.utilization()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::from_distribution;
    use cos_distr::{Degenerate, Exponential};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn mm1(lambda: f64, mu: f64) -> Mg1 {
        Mg1::new(lambda, from_distribution(Exponential::new(mu))).unwrap()
    }

    #[test]
    fn rejects_unstable() {
        let err = Mg1::new(3.0, from_distribution(Exponential::new(2.0))).unwrap_err();
        assert!(matches!(err, QueueError::Unstable { .. }));
        assert!(Mg1::new(f64::NAN, from_distribution(Exponential::new(2.0))).is_err());
    }

    #[test]
    fn mm1_mean_waiting_closed_form() {
        // M/M/1: W̄ = ρ/(μ − λ).
        let q = mm1(1.0, 2.0);
        let want = 0.5 / (2.0 - 1.0);
        assert!((q.mean_waiting() - want).abs() < 1e-12);
        assert!((q.mean_sojourn() - (want + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn md1_mean_waiting_closed_form() {
        // M/D/1: W̄ = ρ b / (2(1 − ρ)).
        let b = 0.4;
        let lambda = 1.5;
        let q = Mg1::new(lambda, from_distribution(Degenerate::new(b))).unwrap();
        let rho = lambda * b;
        let want = rho * b / (2.0 * (1.0 - rho));
        assert!((q.mean_waiting() - want).abs() < 1e-12);
    }

    #[test]
    fn mm1_waiting_cdf_closed_form() {
        // M/M/1 waiting CDF: W(t) = 1 − ρ e^{−(μ−λ)t}.
        let q = mm1(1.0, 2.0);
        let cfg = InversionConfig::default();
        for &t in &[0.1, 0.5, 1.0, 2.0, 5.0] {
            let got = q.waiting_cdf(t, &cfg);
            let want = 1.0 - 0.5 * (-(2.0 - 1.0) * t).exp();
            assert!((got - want).abs() < 1e-5, "t={t}: got {got} want {want}");
        }
    }

    #[test]
    fn mm1_sojourn_is_exponential() {
        // M/M/1 sojourn ~ Exp(μ − λ).
        let q = mm1(2.0, 5.0);
        let cfg = InversionConfig::default();
        for &t in &[0.05, 0.2, 0.5, 1.0] {
            let got = q.sojourn_cdf(t, &cfg);
            let want = 1.0 - (-(5.0 - 2.0) * t).exp();
            assert!((got - want).abs() < 1e-5, "t={t}: got {got} want {want}");
        }
    }

    #[test]
    fn waiting_lst_is_one_at_origin() {
        // Not too small: 1 − L_B(s) loses ~eps/|s·b| relative digits, so
        // s = 1e-8 balances "near origin" against cancellation.
        let q = mm1(1.0, 3.0);
        let near = q.waiting_lst(Complex64::from_real(1e-8));
        assert!((near - Complex64::ONE).abs() < 1e-6, "got {near}");
    }

    #[test]
    fn the_lane_pk_step_is_the_scalar_rule_on_inputs_the_served_path_never_makes() {
        // λ = 1.5, ρ = 0.6. Each pair is an abscissa and a service LST:
        // denominators of exactly 0, below 1e-300, with both parts below
        // 1e-300 but a modulus above it, and NaN or infinite parts, among
        // ordinary lanes on both sides.
        let q = Mg1::new(1.5, from_distribution(Degenerate::new(0.4))).unwrap();
        let ordinary = Complex64::new(920.0, 3.0e4);
        let pairs = [
            (ordinary, q.service().lst(ordinary)),
            (Complex64::ZERO, Complex64::ONE),
            (Complex64::new(2e-301, -5e-302), Complex64::ONE),
            (Complex64::new(9e-301, 9e-301), Complex64::ONE),
            (
                Complex64::new(f64::from_bits(1), -f64::from_bits(3)),
                Complex64::ONE,
            ),
            (ordinary, Complex64::new(f64::NAN, 0.25)),
            (ordinary, Complex64::new(0.5, f64::INFINITY)),
            (
                Complex64::new(f64::NEG_INFINITY, 1.0),
                Complex64::new(0.1, 0.2),
            ),
            (Complex64::new(f64::NAN, f64::NAN), Complex64::ONE),
            (Complex64::new(1e-310, 0.0), Complex64::new(1.0, 0.0)),
            (Complex64::new(4.0, -7.0), Complex64::new(0.3, 0.1)),
        ];
        let s: Vec<Complex64> = pairs.iter().map(|p| p.0).collect();
        let mut got: Vec<Complex64> = pairs.iter().map(|p| p.1).collect();
        q.waiting_lst_given_service_batch(&s, &mut got);
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        for ((s, lb), g) in pairs.iter().zip(&got) {
            let want = q.waiting_lst_given_service(*s, *lb);
            assert!(
                same(g.re, want.re) && same(g.im, want.im),
                "s={s:?} lb={lb:?}: {g:?} vs {want:?}"
            );
        }
        // The limit answers where the modulus is below 1e-300, and only there.
        for (i, limit) in got.iter().map(|&g| g == Complex64::ONE).enumerate() {
            assert_eq!(limit, [1, 2, 4, 9].contains(&i), "lane {i}: {:?}", got[i]);
        }
    }

    #[test]
    fn idle_probability_matches_atom() {
        // CDF of W just above 0 equals P(W = 0) = 1 − ρ.
        let q = mm1(1.0, 2.0);
        let cfg = InversionConfig::default();
        let got = q.waiting_cdf(1e-4, &cfg);
        assert!((got - q.idle_probability()).abs() < 0.01, "got {got}");
    }

    /// Lindley-recursion simulation of an M/G/1 queue: returns sampled
    /// waiting times.
    fn simulate_waiting<F: FnMut(&mut SmallRng) -> f64>(
        lambda: f64,
        mut service: F,
        n: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut w = 0.0f64;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(w);
            let b = service(&mut rng);
            let a = -(1.0 - rng.gen::<f64>()).ln() / lambda;
            w = (w + b - a).max(0.0);
        }
        out
    }

    #[test]
    fn pk_transform_matches_simulation_gamma_service() {
        use cos_distr::{Distribution as _, Gamma};
        let lambda = 20.0;
        let g = Gamma::new(2.0, 80.0); // mean 25 ms → ρ = 0.5
        let q = Mg1::new(lambda, from_distribution(g)).unwrap();
        let waits = simulate_waiting(lambda, |rng| g.sample(rng), 400_000, 99);
        let cfg = InversionConfig::default();
        // Compare CDF at several quantile-ish points.
        for &t in &[0.01, 0.025, 0.05, 0.1] {
            let sim = waits.iter().filter(|&&w| w <= t).count() as f64 / waits.len() as f64;
            let model = q.waiting_cdf(t, &cfg);
            assert!(
                (sim - model).abs() < 0.01,
                "t={t}: sim {sim} vs model {model}"
            );
        }
        // Mean also agrees.
        let sim_mean = waits.iter().sum::<f64>() / waits.len() as f64;
        assert!((sim_mean - q.mean_waiting()).abs() / q.mean_waiting() < 0.05);
    }

    #[test]
    fn high_load_tail_is_heavier() {
        let lo = mm1(0.5, 2.0);
        let hi = mm1(1.8, 2.0);
        let cfg = InversionConfig::default();
        let t = 1.0;
        assert!(lo.waiting_cdf(t, &cfg) > hi.waiting_cdf(t, &cfg));
    }
}
