//! Parameter estimation (§IV) — turning benchmark samples and online metrics
//! into [`crate::params::DeviceParams`] inputs.
//!
//! * Fitting benchmarked disk latencies to LST-capable families (Fig. 5);
//! * the **latency-threshold** cache-miss estimator (0.015 ms in the paper's
//!   testbed — "thanks to the huge speed gap between memory and disk");
//! * the **proportional decomposition** of the aggregate disk service time
//!   (Linux only reports a summary value) into per-operation means by
//!   solving `b_i/p_i = b_m/p_m = b_d/p_d` under the weighted-mean
//!   constraint.

use cos_distr::{Empirical, Family, FitReport, Fitted};
use cos_numeric::{lanes, Complex64};
use cos_queueing::{from_distribution, DynServiceTime};
use std::sync::Arc;

/// The paper's hit/miss latency threshold (0.015 ms).
pub const LATENCY_THRESHOLD: f64 = 0.000_015;

/// Estimates a cache miss ratio from observed operation latencies: the
/// fraction exceeding `threshold` (§IV-B).
///
/// # Panics
/// Panics on an empty sample.
pub fn miss_ratio_by_threshold(latencies: &[f64], threshold: f64) -> f64 {
    assert!(
        !latencies.is_empty(),
        "cannot estimate a miss ratio from no samples"
    );
    latencies.iter().filter(|&&l| l > threshold).count() as f64 / latencies.len() as f64
}

/// Incremental form of [`miss_ratio_by_threshold`] for streaming telemetry:
/// feeds one operation latency at a time and keeps only two counters, so a
/// long-running service never buffers samples.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdMissEstimator {
    threshold: f64,
    over: u64,
    total: u64,
}

impl ThresholdMissEstimator {
    /// Creates an estimator with the given hit/miss latency threshold
    /// (use [`LATENCY_THRESHOLD`] for the paper's 0.015 ms).
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "threshold must be positive"
        );
        ThresholdMissEstimator {
            threshold,
            over: 0,
            total: 0,
        }
    }

    /// Records one operation latency.
    pub fn observe(&mut self, latency: f64) {
        self.total += 1;
        if latency > self.threshold {
            self.over += 1;
        }
    }

    /// Estimated miss ratio (`None` before any observation — unlike the
    /// batch form, streaming callers must handle the empty case).
    pub fn ratio(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.over as f64 / self.total as f64)
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }
}

/// Why an online decomposition could not be performed this refit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecomposeError {
    /// The aggregate mean disk service time was non-positive.
    BadOverallMean(f64),
    /// A benchmarked proportion was non-positive.
    BadProportion(f64),
    /// No operations reach the disk (all-hit window): nothing to decompose.
    NoDiskTraffic,
}

impl std::fmt::Display for DecomposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecomposeError::BadOverallMean(b) => {
                write!(f, "overall disk service time must be positive, got {b}")
            }
            DecomposeError::BadProportion(p) => {
                write!(f, "benchmarked proportions must be positive, got {p}")
            }
            DecomposeError::NoDiskTraffic => {
                write!(f, "no operations reach the disk; nothing to decompose")
            }
        }
    }
}

impl std::error::Error for DecomposeError {}

/// Non-panicking [`decompose_disk_service`] for online refits, where an
/// idle or all-hit measurement window is an expected condition (serve the
/// previous epoch) rather than a programming error.
pub fn try_decompose_disk_service(
    b_overall: f64,
    proportions: [f64; 3],
    misses: [f64; 3],
    r: f64,
    r_data: f64,
) -> Result<[f64; 3], DecomposeError> {
    if !(b_overall.is_finite() && b_overall > 0.0) {
        return Err(DecomposeError::BadOverallMean(b_overall));
    }
    if let Some(&p) = proportions.iter().find(|p| !(p.is_finite() && **p > 0.0)) {
        return Err(DecomposeError::BadProportion(p));
    }
    let [mi, mm, md] = misses;
    let op_rate = mi * r + mm * r + md * r_data;
    if !(op_rate.is_finite() && op_rate > 0.0) {
        return Err(DecomposeError::NoDiskTraffic);
    }
    Ok(decompose_disk_service(
        b_overall,
        proportions,
        misses,
        r,
        r_data,
    ))
}

/// Decomposes the aggregate mean disk service time into per-operation means.
///
/// Inputs: overall mean `b`, per-operation proportions `p = [p_i, p_m, p_d]`
/// (from offline benchmarking, assumed stable as disk service times
/// fluctuate, §IV-A), miss ratios `m = [m_i, m_m, m_d]`, request rate `r`,
/// and data-read rate `r_data`. Solves
///
/// `b_i/p_i = b_m/p_m = b_d/p_d` and
/// `m_i b_i r + m_m b_m r + m_d b_d r_data = (m_i r + m_m r + m_d r_data) b`.
///
/// # Panics
/// Panics on non-positive proportions or a zero disk-op rate.
pub fn decompose_disk_service(
    b_overall: f64,
    proportions: [f64; 3],
    misses: [f64; 3],
    r: f64,
    r_data: f64,
) -> [f64; 3] {
    assert!(
        b_overall > 0.0,
        "overall disk service time must be positive"
    );
    assert!(
        proportions.iter().all(|&p| p > 0.0),
        "proportions must be positive"
    );
    let [pi, pm, pd] = proportions;
    let [mi, mm, md] = misses;
    let op_rate = mi * r + mm * r + md * r_data;
    assert!(
        op_rate > 0.0,
        "no operations reach the disk; nothing to decompose"
    );
    // With b_k = c·p_k, the constraint gives c directly.
    let weighted = mi * pi * r + mm * pm * r + md * pd * r_data;
    let c = op_rate * b_overall / weighted;
    [c * pi, c * pm, c * pd]
}

/// A disk law fitted from benchmark samples, with its model-selection
/// report.
pub struct FittedDiskLaw {
    /// The service-time law handed to the model.
    pub law: DynServiceTime,
    /// The winning family.
    pub family: Family,
    /// The full ranked report (for Fig. 5-style output).
    pub report: FitReport,
}

impl std::fmt::Debug for FittedDiskLaw {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FittedDiskLaw")
            .field("family", &self.family)
            .field("mean", &self.law.mean())
            .field("ks", &self.report.best().ks)
            .finish()
    }
}

/// Fits benchmarked disk latencies (§IV-A): runs the four-family selection
/// and converts the winner into a model-ready service law.
pub fn fit_disk_law(samples: &Empirical) -> FittedDiskLaw {
    let report = cos_distr::fit_best(samples);
    let best = report.best().fitted;
    let law: DynServiceTime = match best {
        Fitted::Degenerate(d) => from_distribution(d),
        Fitted::Exponential(e) => from_distribution(e),
        Fitted::Normal(n) => from_distribution(n),
        Fitted::Gamma(g) => from_distribution(g),
    };
    FittedDiskLaw {
        law,
        family: best.family(),
        report,
    }
}

/// Rescales fitted per-operation disk laws so their means match an online
/// decomposition while keeping their shape (the paper assumes the
/// *proportions* of `b_i, b_m, b_d` persist as absolute values drift).
///
/// For the Gamma family this means holding the shape `k` and adjusting the
/// rate `l`; generically we scale time by `target_mean / current_mean`,
/// which is exactly that for Gamma.
pub fn rescale_to_mean(law: &DynServiceTime, target_mean: f64) -> DynServiceTime {
    assert!(target_mean > 0.0, "target mean must be positive");
    let current = law.mean();
    assert!(current > 0.0, "cannot rescale a zero-mean law");
    let factor = target_mean / current;
    Arc::new(Scaled {
        inner: law.clone(),
        factor,
        mean: target_mean,
        second_moment: law.second_moment() * factor * factor,
    })
}

/// A law with time scaled by `factor`: `L[X·c](s) = L[X](c·s)`. Its batch
/// scales the abscissae once and hands them to the inner law's batch, so
/// a fitted Gamma reaches the lane kernel a whole contour at a time.
struct Scaled {
    inner: DynServiceTime,
    factor: f64,
    mean: f64,
    second_moment: f64,
}

impl cos_queueing::ServiceTime for Scaled {
    fn lst(&self, s: Complex64) -> Complex64 {
        self.inner.lst(s * self.factor)
    }
    fn mean(&self) -> f64 {
        self.mean
    }
    fn second_moment(&self) -> f64 {
        self.second_moment
    }
    fn lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(s.len(), out.len(), "abscissa/output length mismatch");
        // Scaled on the stack, a served contour (32 points) at a time.
        let mut scaled = [Complex64::ZERO; 32];
        let factor = self.factor;
        for (s, out) in s.chunks(scaled.len()).zip(out.chunks_mut(scaled.len())) {
            let scaled = &mut scaled[..s.len()];
            let points = &mut *scaled;
            lanes::at_lane_width(
                #[inline(always)]
                move || {
                    for (t, s) in points.iter_mut().zip(s) {
                        *t = *s * factor;
                    }
                },
            );
            self.inner.lst_batch(scaled, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cos_distr::{Distribution as _, Gamma};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn threshold_estimator_exact_on_separated_latencies() {
        // Memory ~3 µs, disk ~12 ms: the 15 µs threshold separates exactly.
        let mut lat = vec![0.000_003; 700];
        lat.extend(vec![0.012; 300]);
        let m = miss_ratio_by_threshold(&lat, LATENCY_THRESHOLD);
        assert!((m - 0.3).abs() < 1e-12);
    }

    #[test]
    fn threshold_estimator_on_noisy_gamma_misses() {
        let g = Gamma::new(3.0, 250.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut lat: Vec<f64> = (0..6000).map(|_| g.sample(&mut rng)).collect();
        lat.extend(vec![0.000_002; 4000]);
        let m = miss_ratio_by_threshold(&lat, LATENCY_THRESHOLD);
        assert!((m - 0.6).abs() < 0.01, "estimated {m}");
    }

    #[test]
    fn decomposition_preserves_proportions_and_constraint() {
        let b = 0.012;
        let proportions = [12.0, 8.0, 14.0];
        let misses = [0.3, 0.3, 0.5];
        let (r, r_data) = (100.0, 110.0);
        let [bi, bm, bd] = decompose_disk_service(b, proportions, misses, r, r_data);
        // Proportions hold.
        assert!((bi / 12.0 - bm / 8.0).abs() < 1e-12);
        assert!((bm / 8.0 - bd / 14.0).abs() < 1e-12);
        // Weighted-mean constraint holds.
        let lhs = misses[0] * bi * r + misses[1] * bm * r + misses[2] * bd * r_data;
        let rhs = (misses[0] * r + misses[1] * r + misses[2] * r_data) * b;
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn decomposition_roundtrip_from_known_components() {
        // Build the aggregate from known b_i, b_m, b_d, then recover them.
        let (bi, bm, bd) = (0.012, 0.008, 0.014);
        let misses = [0.3, 0.3, 0.5];
        let (r, r_data) = (80.0, 96.0);
        let op_rate = misses[0] * r + misses[1] * r + misses[2] * r_data;
        let b = (misses[0] * bi * r + misses[1] * bm * r + misses[2] * bd * r_data) / op_rate;
        let got = decompose_disk_service(b, [bi, bm, bd], misses, r, r_data);
        assert!((got[0] - bi).abs() < 1e-12);
        assert!((got[1] - bm).abs() < 1e-12);
        assert!((got[2] - bd).abs() < 1e-12);
    }

    #[test]
    fn fit_disk_law_selects_gamma_on_gamma_data() {
        let g = Gamma::new(3.0, 250.0);
        let mut rng = SmallRng::seed_from_u64(5);
        let sample = Empirical::new((0..20_000).map(|_| g.sample(&mut rng)).collect());
        let fitted = fit_disk_law(&sample);
        assert_eq!(fitted.family, Family::Gamma);
        assert!((fitted.law.mean() - g.mean()).abs() / g.mean() < 0.05);
        assert!(fitted.report.candidates.len() >= 3);
    }

    #[test]
    fn rescale_preserves_shape() {
        let g = Gamma::new(3.0, 250.0); // mean 12 ms
        let law = from_distribution(g);
        let scaled = rescale_to_mean(&law, 0.024);
        assert!((scaled.mean() - 0.024).abs() < 1e-12);
        // SCV is shape-determined and must be unchanged: E[X²]/E[X]² fixed.
        let scv_old = law.second_moment() / (law.mean() * law.mean());
        let scv_new = scaled.second_moment() / (scaled.mean() * scaled.mean());
        assert!((scv_old - scv_new).abs() < 1e-12);
        // The LST matches the doubled-mean Gamma exactly.
        let g2 = Gamma::new(3.0, 125.0);
        let s = cos_numeric::Complex64::new(3.0, 7.0);
        assert!((scaled.lst(s) - cos_distr::Lst::lst(&g2, s)).abs() < 1e-12);
    }

    #[test]
    fn a_rescaled_batch_is_the_scalar_closure_bit_for_bit() {
        let law = from_distribution(Gamma::new(3.0, 250.0));
        let scaled = rescale_to_mean(&law, 0.0173);
        let k = 0.0173 / law.mean();
        // Past one 32-point chunk of the batch's stack buffer.
        let s: Vec<cos_numeric::Complex64> = (0..70)
            .map(|j| cos_numeric::Complex64::new(920.0, j as f64 * 314.159))
            .collect();
        let mut got = vec![cos_numeric::Complex64::ZERO; s.len()];
        scaled.lst_batch(&s, &mut got);
        for (z, g) in s.iter().zip(&got) {
            // Time scaling in transform space: L[X](k·s).
            let want = law.lst(*z * k);
            assert_eq!(
                (g.re.to_bits(), g.im.to_bits()),
                (want.re.to_bits(), want.im.to_bits())
            );
            assert_eq!(*g, scaled.lst(*z));
        }
    }

    #[test]
    #[should_panic]
    fn decompose_rejects_all_hit_system() {
        decompose_disk_service(0.01, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], 10.0, 11.0);
    }

    #[test]
    fn incremental_threshold_matches_batch() {
        let mut lat = vec![0.000_003; 700];
        lat.extend(vec![0.012; 300]);
        let mut inc = ThresholdMissEstimator::new(LATENCY_THRESHOLD);
        for &l in &lat {
            inc.observe(l);
        }
        let batch = miss_ratio_by_threshold(&lat, LATENCY_THRESHOLD);
        assert_eq!(inc.ratio(), Some(batch));
        assert_eq!(inc.count(), 1000);
        assert_eq!(ThresholdMissEstimator::new(1.0).ratio(), None);
    }

    #[test]
    fn try_decompose_matches_panicking_form_when_valid() {
        let got =
            try_decompose_disk_service(0.012, [12.0, 8.0, 14.0], [0.3, 0.3, 0.5], 100.0, 110.0)
                .unwrap();
        let want = decompose_disk_service(0.012, [12.0, 8.0, 14.0], [0.3, 0.3, 0.5], 100.0, 110.0);
        assert_eq!(got, want);
    }

    #[test]
    fn try_decompose_reports_typed_errors() {
        assert_eq!(
            try_decompose_disk_service(0.01, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], 10.0, 11.0),
            Err(DecomposeError::NoDiskTraffic)
        );
        assert_eq!(
            try_decompose_disk_service(0.0, [1.0, 1.0, 1.0], [0.5, 0.5, 0.5], 10.0, 11.0),
            Err(DecomposeError::BadOverallMean(0.0))
        );
        assert!(matches!(
            try_decompose_disk_service(0.01, [1.0, -2.0, 1.0], [0.5, 0.5, 0.5], 10.0, 11.0),
            Err(DecomposeError::BadProportion(_))
        ));
    }
}
