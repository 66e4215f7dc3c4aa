//! The service-time abstraction consumed by queueing formulas.
//!
//! Queueing results (Pollaczek–Khinchin, M/M/1/K sojourn) need only three
//! things from a service-time law: its LST at complex arguments and its first
//! two moments. This is deliberately weaker than
//! [`cos_distr::ServiceDistribution`] — composed laws like the union
//! operation have a closed-form LST and moments but no tractable pdf/cdf.

use cos_numeric::Complex64;
use std::sync::Arc;

/// Minimal service-time interface: LST plus first two moments.
pub trait ServiceTime: Send + Sync {
    /// Laplace–Stieltjes transform `E[e^{−sB}]` at complex `s`.
    fn lst(&self, s: Complex64) -> Complex64;
    /// Mean `E[B]`.
    fn mean(&self) -> f64;
    /// Second raw moment `E[B²]`.
    fn second_moment(&self) -> f64;
    /// Evaluates the LST at every abscissa in `s`, writing into `out` (same
    /// length). Inversion routes whole contours through this; composed laws
    /// override it to hoist work shared across the batch. Overrides must be
    /// bit-identical to the scalar [`ServiceTime::lst`] path.
    fn lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(s.len(), out.len(), "abscissa/output length mismatch");
        for (s, o) in s.iter().zip(out.iter_mut()) {
            *o = self.lst(*s);
        }
    }
}

/// Every full service distribution is usable as a queueing service time.
impl<T> ServiceTime for T
where
    T: cos_distr::ServiceDistribution + Send + Sync + ?Sized,
{
    fn lst(&self, s: Complex64) -> Complex64 {
        cos_distr::Lst::lst(self, s)
    }
    fn mean(&self) -> f64 {
        cos_distr::Distribution::mean(self)
    }
    fn second_moment(&self) -> f64 {
        cos_distr::Distribution::second_moment(self)
    }
    fn lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        cos_distr::Lst::lst_batch(self, s, out)
    }
}

/// Shared handle to a service time.
pub type DynServiceTime = Arc<dyn ServiceTime>;

/// Adapts a `cos_distr` service distribution into a [`DynServiceTime`].
pub fn from_distribution<T>(d: T) -> DynServiceTime
where
    T: cos_distr::ServiceDistribution + Send + Sync + 'static,
{
    Arc::new(d)
}

/// Adapts an already-boxed `cos_distr` distribution handle. (Unsized
/// cross-trait coercion isn't expressible directly, so this wraps the
/// handle in a zero-cost delegating adapter.)
pub fn from_dyn_service(d: cos_distr::DynService) -> DynServiceTime {
    struct Adapter(cos_distr::DynService);
    impl ServiceTime for Adapter {
        fn lst(&self, s: Complex64) -> Complex64 {
            cos_distr::Lst::lst(&*self.0, s)
        }
        fn mean(&self) -> f64 {
            cos_distr::Distribution::mean(&*self.0)
        }
        fn second_moment(&self) -> f64 {
            cos_distr::Distribution::second_moment(&*self.0)
        }
        fn lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
            cos_distr::Lst::lst_batch(&*self.0, s, out)
        }
    }
    Arc::new(Adapter(d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cos_distr::Exponential;

    #[test]
    fn distribution_adapts_to_service_time() {
        let svc = from_distribution(Exponential::new(2.0));
        assert_eq!(svc.mean(), 0.5);
        assert_eq!(svc.second_moment(), 0.5);
        let s = Complex64::from_real(1.0);
        assert!((svc.lst(s).re - 2.0 / 3.0).abs() < 1e-15);
    }
}
