//! M/M/1 closed forms, used to pin the generic M/G/1 machinery in tests:
//! every quantity here has an elementary formula, so any disagreement is a
//! bug in the generic path.

/// An M/M/1 queue (`λ < μ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mm1 {
    arrival_rate: f64,
    service_rate: f64,
}

impl Mm1 {
    /// Creates a stable M/M/1 queue.
    ///
    /// # Panics
    /// Panics unless `0 < λ < μ` and both are finite.
    pub fn new(arrival_rate: f64, service_rate: f64) -> Self {
        assert!(
            arrival_rate.is_finite() && arrival_rate > 0.0,
            "λ must be positive"
        );
        assert!(
            service_rate.is_finite() && service_rate > 0.0,
            "μ must be positive"
        );
        assert!(
            arrival_rate < service_rate,
            "M/M/1 requires λ < μ for stability"
        );
        Mm1 {
            arrival_rate,
            service_rate,
        }
    }

    /// Utilization `ρ = λ/μ`.
    pub fn utilization(&self) -> f64 {
        self.arrival_rate / self.service_rate
    }

    /// Mean number in system `ρ/(1−ρ)`.
    pub fn mean_number(&self) -> f64 {
        let rho = self.utilization();
        rho / (1.0 - rho)
    }

    /// Mean waiting time `ρ/(μ−λ)`.
    pub fn mean_waiting(&self) -> f64 {
        self.utilization() / (self.service_rate - self.arrival_rate)
    }

    /// Mean sojourn time `1/(μ−λ)`.
    pub fn mean_sojourn(&self) -> f64 {
        1.0 / (self.service_rate - self.arrival_rate)
    }

    /// Waiting-time CDF `1 − ρ e^{−(μ−λ)t}`.
    pub fn waiting_cdf(&self, t: f64) -> f64 {
        if t < 0.0 {
            0.0
        } else {
            1.0 - self.utilization() * (-(self.service_rate - self.arrival_rate) * t).exp()
        }
    }

    /// Sojourn-time CDF `1 − e^{−(μ−λ)t}`.
    pub fn sojourn_cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            1.0 - (-(self.service_rate - self.arrival_rate) * t).exp()
        }
    }

    /// `p`-quantile of the sojourn time.
    pub fn sojourn_quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "p must be in [0,1), got {p}");
        -(1.0 - p).ln() / (self.service_rate - self.arrival_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_textbook_values() {
        let q = Mm1::new(2.0, 4.0);
        assert_eq!(q.utilization(), 0.5);
        assert_eq!(q.mean_number(), 1.0);
        assert_eq!(q.mean_sojourn(), 0.5);
        assert_eq!(q.mean_waiting(), 0.25);
    }

    #[test]
    fn littles_law_consistency() {
        let q = Mm1::new(3.0, 5.0);
        assert!((q.mean_number() - q.arrival_rate * q.mean_sojourn()).abs() < 1e-12);
    }

    #[test]
    fn waiting_cdf_atom_at_zero() {
        let q = Mm1::new(1.0, 4.0);
        assert_eq!(q.waiting_cdf(0.0), 1.0 - 0.25);
        assert_eq!(q.waiting_cdf(-1.0), 0.0);
    }

    #[test]
    fn quantile_roundtrip() {
        let q = Mm1::new(2.0, 6.0);
        for &p in &[0.5, 0.9, 0.95, 0.99] {
            let t = q.sojourn_quantile(p);
            assert!((q.sojourn_cdf(t) - p).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_unstable() {
        Mm1::new(5.0, 5.0);
    }
}
