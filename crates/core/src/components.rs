//! Service-time components shared by the model variants.
//!
//! [`CacheMixed`] is the paper's cache-aware operation law
//! `op(t) = m·op_d(t) + (1 − m)·δ(t)` lifted to the [`ServiceTime`]
//! interface, so it also works when the underlying "disk" law is only
//! available in transform space (the M/M/1/K sojourn of §III-B).

use cos_numeric::{lanes, Complex64};
use cos_queueing::{DynServiceTime, ServiceTime};
use std::sync::Arc;

/// Cache-aware operation: disk-served with probability `miss`, otherwise a
/// zero-latency memory hit.
pub struct CacheMixed {
    miss: f64,
    disk: DynServiceTime,
}

impl CacheMixed {
    /// Builds the mixture `m·disk + (1 − m)·δ`.
    ///
    /// # Panics
    /// Panics unless `miss` is in `[0, 1]`.
    pub fn new(miss: f64, disk: DynServiceTime) -> Self {
        assert!(
            (0.0..=1.0).contains(&miss),
            "miss ratio must be in [0,1], got {miss}"
        );
        CacheMixed { miss, disk }
    }

    /// Shared-handle constructor.
    pub fn shared(miss: f64, disk: DynServiceTime) -> DynServiceTime {
        Arc::new(CacheMixed::new(miss, disk))
    }

    /// The miss ratio.
    pub fn miss(&self) -> f64 {
        self.miss
    }
}

impl std::fmt::Debug for CacheMixed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheMixed")
            .field("miss", &self.miss)
            .field("disk_mean", &self.disk.mean())
            .finish()
    }
}

impl ServiceTime for CacheMixed {
    fn lst(&self, s: Complex64) -> Complex64 {
        // L[op](s) = m·L[op_d](s) + (1 − m)  (δ has LST 1).
        self.disk.lst(s) * self.miss + (1.0 - self.miss)
    }
    fn mean(&self) -> f64 {
        self.miss * self.disk.mean()
    }
    fn second_moment(&self) -> f64 {
        self.miss * self.disk.second_moment()
    }
    fn lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        // One disk batch, then the affine cache mix at lane width — the
        // same expression the scalar path evaluates.
        self.disk.lst_batch(s, out);
        let (miss, hit) = (self.miss, 1.0 - self.miss);
        lanes::at_lane_width(
            #[inline(always)]
            move || {
                for o in out.iter_mut() {
                    *o = *o * miss + hit;
                }
            },
        );
    }
}

/// A zero-latency (identity) service time: the LST is identically 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroService;

impl ZeroService {
    /// Shared-handle constructor.
    pub fn shared() -> DynServiceTime {
        Arc::new(ZeroService)
    }
}

impl ServiceTime for ZeroService {
    fn lst(&self, _s: Complex64) -> Complex64 {
        Complex64::ONE
    }
    fn mean(&self) -> f64 {
        0.0
    }
    fn second_moment(&self) -> f64 {
        0.0
    }
    fn lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(s.len(), out.len(), "abscissa/output length mismatch");
        out.fill(Complex64::ONE);
    }
}

/// The location of `law` if it is an exact point mass — a `Degenerate`,
/// whose second moment equals its squared mean exactly — else `None`. Only
/// such a law is a constant delay the model may factor out of a response
/// transform.
pub(crate) fn point_mass(law: &dyn ServiceTime) -> Option<f64> {
    let mean = law.mean();
    (law.second_moment() == mean * mean).then_some(mean)
}

/// `e^{−sd}`, the LST of a point mass at `d ≥ 0`; exactly 1 at `d = 0`.
pub(crate) fn shift(s: Complex64, d: f64) -> Complex64 {
    if d == 0.0 {
        Complex64::ONE
    } else {
        (s * (-d)).exp()
    }
}

/// The M/M/1/K disk sojourn lifted to a [`ServiceTime`] with precomputed
/// moments — the per-process "disk service time" `S_diskN` of §III-B.
///
/// A named law rather than a closure, so the batch path reaches
/// [`Mm1k::sojourn_lst_batch`](cos_queueing::Mm1k::sojourn_lst_batch) (which hoists the
/// state probabilities out of the per-abscissa loop) instead of falling
/// back to scalar evaluation through an opaque `Fn`.
#[derive(Debug, Clone, Copy)]
pub struct Mm1kSojournService {
    queue: cos_queueing::Mm1k,
    mean: f64,
    second_moment: f64,
}

impl Mm1kSojournService {
    /// Wraps an M/M/1/K queue's accepted-customer sojourn law.
    pub fn new(queue: cos_queueing::Mm1k) -> Self {
        Mm1kSojournService {
            queue,
            mean: queue.mean_sojourn(),
            second_moment: queue.sojourn_second_moment(),
        }
    }
}

impl ServiceTime for Mm1kSojournService {
    fn lst(&self, s: Complex64) -> Complex64 {
        self.queue.sojourn_lst(s)
    }
    fn mean(&self) -> f64 {
        self.mean
    }
    fn second_moment(&self) -> f64 {
        self.second_moment
    }
    fn lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        self.queue.sojourn_lst_batch(s, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cos_distr::Gamma;
    use cos_queueing::from_distribution;

    #[test]
    fn cache_mixed_matches_distr_mixture() {
        let g = Gamma::new(2.0, 100.0);
        let mixed = CacheMixed::new(0.4, from_distribution(g));
        let reference = cos_distr::Mixture::cache_miss(0.4, Arc::new(g));
        let s = Complex64::new(3.0, -5.0);
        assert!((mixed.lst(s) - cos_distr::Lst::lst(&reference, s)).abs() < 1e-14);
        assert!((mixed.mean() - cos_distr::Distribution::mean(&reference)).abs() < 1e-15);
        assert!(
            (mixed.second_moment() - cos_distr::Distribution::second_moment(&reference)).abs()
                < 1e-15
        );
    }

    #[test]
    fn extreme_ratios() {
        let g = from_distribution(Gamma::new(2.0, 100.0));
        let hit = CacheMixed::new(0.0, g.clone());
        assert_eq!(hit.mean(), 0.0);
        assert_eq!(hit.lst(Complex64::new(1.0, 1.0)), Complex64::ONE);
        let miss = CacheMixed::new(1.0, g.clone());
        assert!((miss.mean() - g.mean()).abs() < 1e-15);
    }

    #[test]
    fn zero_service_is_identity() {
        let z = ZeroService;
        assert_eq!(z.mean(), 0.0);
        assert_eq!(z.second_moment(), 0.0);
        assert_eq!(z.lst(Complex64::new(2.0, 3.0)), Complex64::ONE);
    }

    #[test]
    fn only_an_exact_point_mass_is_a_delay() {
        use cos_distr::{Degenerate, Uniform};
        let parse = from_distribution(Degenerate::new(0.0005));
        assert_eq!(point_mass(&*parse), Some(0.0005));
        assert_eq!(point_mass(&ZeroService), Some(0.0));
        // Narrow spread around a large mean is still not a point mass.
        let narrow = from_distribution(Uniform::new(0.000499, 0.000501));
        assert_eq!(point_mass(&*narrow), None);
        assert_eq!(
            point_mass(&*from_distribution(Gamma::new(2.0, 100.0))),
            None
        );
        let s = Complex64::new(40.0, -900.0);
        assert_eq!(shift(s, 0.0), Complex64::ONE);
        assert_eq!(shift(s, 0.0005), parse.lst(s));
    }

    #[test]
    #[should_panic]
    fn rejects_bad_ratio() {
        CacheMixed::new(1.5, ZeroService::shared());
    }
}
