//! The memoized prediction engine.
//!
//! Answering a percentile query costs a handful of numeric Laplace
//! inversions (Euler summation over ~50 complex LST evaluations per CDF
//! point, more for percentile bisection). A dashboard polling the same
//! SLAs every second would redo identical transforms indefinitely, so the
//! engine memoizes **inversion results** keyed on the calibration epoch and
//! the quantized query: `(epoch, rate, SLA)` → fraction, `(epoch, p)` →
//! percentile, and so on. Quantization is applied to the *computation
//! inputs*, not just the key — two queries that collapse to the same key
//! are answered from the same inversion, bit-identical to an uncached
//! evaluation at the snapped point.
//!
//! Built [`SystemModel`]s (the expensive LST assembly) are cached per
//! `(epoch, rate)` alongside the scalar results, so a what-if query at a
//! new SLA on an already-seen rate only pays the final inversion.
//!
//! The memo itself lives in a shared, sharded
//! [`InversionCache`]: the engine (the service's own queries) and every
//! [`SnapshotReader`](crate::SnapshotReader) (lock-free read path) funnel
//! through the same bounded cache and the same quantized evaluation code,
//! which is what keeps the two bit-identical.
//!
//! Epoch handling degrades gracefully: when a re-fit fails (no traffic, or
//! the fitted point is unstable), the engine keeps serving the last good
//! epoch with [`Prediction::stale`] set, and queries at unstable operating
//! points return the typed [`ServeError::Unstable`] — which is memoized
//! too, so a flapping dashboard does not re-derive the failure.

use std::sync::Arc;

use cos_model::{ModelVariant, SlaGoal, SystemModel, SystemParams};

use crate::cache::{quantize_rate, InversionCache, QueryKind};
use crate::error::ServeError;

/// Rate quantization step (req/s) for what-if queries.
pub const RATE_QUANTUM: f64 = 0.1;
/// SLA quantization step (seconds): 0.1 ms.
pub const SLA_QUANTUM: f64 = 1e-4;
/// Percentile / fraction quantization step.
pub const FRACTION_QUANTUM: f64 = 1e-4;

pub(crate) fn snap(x: f64, quantum: f64) -> (i64, f64) {
    let q = (x / quantum).round().max(1.0) as i64;
    (q, q as f64 * quantum)
}

/// One installed calibration epoch.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// Monotone epoch number (1 = first successful fit).
    pub epoch: u64,
    /// The fitted parameters.
    pub params: Arc<SystemParams>,
    /// Event time of the fit.
    pub fitted_at: f64,
    /// Whether at least one re-fit has failed since this epoch was
    /// installed (the snapshot is being served past its refresh due date).
    pub stale: bool,
}

/// Hit/miss counters of the result memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the memo.
    pub hits: u64,
    /// Queries that ran an inversion (or model build).
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of queries answered from the memo (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Cache counters and fit-failure count in one snapshot, so observability
/// endpoints (`/metrics`) read a consistent pair without two locked
/// round-trips to the service thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineHealth {
    /// Inversion-memo hit/miss counters.
    pub cache: CacheStats,
    /// Re-fits that have failed since startup.
    pub failed_refits: u64,
}

impl EngineHealth {
    /// Fraction of queries answered from the memo (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }
}

/// A memoized answer, tagged with the epoch that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// The predicted value (fraction, seconds, or req/s depending on the
    /// query).
    pub value: f64,
    /// Calibration epoch the answer is based on.
    pub epoch: u64,
    /// Whether the epoch is stale (a newer re-fit failed).
    pub stale: bool,
}

/// The memoizing query engine. See the module docs for the caching scheme.
pub struct PredictionEngine {
    variant: ModelVariant,
    snapshot: Option<EpochSnapshot>,
    next_epoch: u64,
    cache: Arc<InversionCache>,
    failed_refits: u64,
    /// Tenant slot this engine's results are keyed under in the shared
    /// cache (0 = the reserved `default` tenant).
    tenant: u32,
}

impl PredictionEngine {
    /// Creates an engine answering queries under `variant`, with its own
    /// private [`InversionCache`].
    pub fn new(variant: ModelVariant) -> Self {
        PredictionEngine::with_cache(variant, Arc::new(InversionCache::default()))
    }

    /// Creates an engine recording into a shared `cache` — the form the
    /// service uses so snapshot readers and the worker thread share one
    /// bounded memo. Results are keyed under tenant slot 0.
    pub fn with_cache(variant: ModelVariant, cache: Arc<InversionCache>) -> Self {
        PredictionEngine::with_cache_for(variant, cache, 0)
    }

    /// Creates an engine for one tenant shard of a fleet: results are
    /// keyed under `tenant` in the shared cache, so tenants never share
    /// or evict each other's memoized answers.
    pub fn with_cache_for(variant: ModelVariant, cache: Arc<InversionCache>, tenant: u32) -> Self {
        PredictionEngine {
            variant,
            snapshot: None,
            next_epoch: 1,
            cache,
            failed_refits: 0,
            tenant,
        }
    }

    /// The model variant this engine evaluates.
    pub fn variant(&self) -> ModelVariant {
        self.variant
    }

    /// The tenant slot this engine's answers are keyed under.
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// The shared result/model memo.
    pub fn cache(&self) -> &Arc<InversionCache> {
        &self.cache
    }

    /// Installs a new calibration epoch, invalidating all cached results of
    /// previous epochs, and returns its epoch number. Pass the validated
    /// model built during the fit as `model` to pre-warm the native-rate
    /// model slot.
    pub fn install(
        &mut self,
        params: Arc<SystemParams>,
        fitted_at: f64,
        model: Option<Arc<SystemModel>>,
    ) -> u64 {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.snapshot = Some(EpochSnapshot {
            epoch,
            params,
            fitted_at,
            stale: false,
        });
        self.cache.advance_epoch(self.tenant, epoch);
        if let Some(m) = model {
            self.cache.prewarm_model(self.tenant, epoch, m);
        }
        epoch
    }

    /// Marks the current epoch stale: a re-fit failed, so answers keep
    /// flowing from the last good parameters but carry the staleness flag.
    pub fn mark_stale(&mut self) {
        self.failed_refits += 1;
        if let Some(s) = &mut self.snapshot {
            s.stale = true;
        }
    }

    /// The installed epoch, if any.
    pub fn snapshot(&self) -> Option<&EpochSnapshot> {
        self.snapshot.as_ref()
    }

    /// Cache hit/miss counters (shared with every snapshot reader when the
    /// engine was built [`with_cache`](PredictionEngine::with_cache)).
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Resets the hit/miss counters (e.g. between benchmark phases).
    pub fn reset_stats(&self) {
        self.cache.reset_stats();
    }

    /// Re-fits that have failed since startup.
    pub fn failed_refits(&self) -> u64 {
        self.failed_refits
    }

    /// Cache counters and failure count as one merged snapshot.
    pub fn health(&self) -> EngineHealth {
        EngineHealth {
            cache: self.cache.stats(),
            failed_refits: self.failed_refits,
        }
    }

    fn current(&self) -> Result<EpochSnapshot, ServeError> {
        self.snapshot.clone().ok_or(ServeError::NotCalibrated)
    }

    pub(crate) fn answer(
        &self,
        rate_q: Option<i64>,
        kind: QueryKind,
    ) -> Result<Prediction, ServeError> {
        let snap_ = self.current()?;
        let (outcome, _miss) = self
            .cache
            .answer(self.tenant, &snap_, self.variant, rate_q, kind);
        outcome.map(|value| Prediction {
            value,
            epoch: snap_.epoch,
            stale: snap_.stale,
        })
    }

    /// Predicted fraction of requests meeting `sla` at the calibrated rate.
    pub fn fraction_meeting_sla(&self, sla: f64) -> Result<Prediction, ServeError> {
        self.answer(None, QueryKind::fraction(sla))
    }

    /// What-if: fraction meeting `sla` with the system rescaled to
    /// `total_rate` req/s.
    pub fn fraction_at_rate(&self, total_rate: f64, sla: f64) -> Result<Prediction, ServeError> {
        self.answer(Some(quantize_rate(total_rate)), QueryKind::fraction(sla))
    }

    /// Predicted response-latency percentile (seconds) at the calibrated
    /// rate, e.g. `p = 0.95`.
    pub fn latency_percentile(&self, p: f64) -> Result<Prediction, ServeError> {
        self.answer(None, QueryKind::percentile(p))
    }

    /// Predicted mean response time (seconds) at the calibrated rate.
    pub fn mean_response(&self) -> Result<Prediction, ServeError> {
        self.answer(None, QueryKind::MeanResponse)
    }

    /// Predicted fraction of (launched, needed) erasure-coded reads meeting
    /// `sla` at the calibrated rate (fork-join k-of-n over the epoch's
    /// fitted per-device marginals).
    ///
    /// # Panics
    /// Panics unless `1 ≤ needed ≤ launched` — network callers are
    /// validated at the gate.
    pub fn coded_fraction(
        &self,
        launched: u16,
        needed: u16,
        sla: f64,
    ) -> Result<Prediction, ServeError> {
        self.answer(None, QueryKind::coded_fraction(launched, needed, sla))
    }

    /// Predicted latency percentile of (launched, needed) erasure-coded
    /// reads at the calibrated rate.
    ///
    /// # Panics
    /// Panics unless `1 ≤ needed ≤ launched` — network callers are
    /// validated at the gate.
    pub fn coded_percentile(
        &self,
        launched: u16,
        needed: u16,
        p: f64,
    ) -> Result<Prediction, ServeError> {
        self.answer(None, QueryKind::coded_percentile(launched, needed, p))
    }

    /// One device's predicted fraction meeting `sla`.
    pub fn device_fraction(&self, device: usize, sla: f64) -> Result<Prediction, ServeError> {
        self.answer(None, QueryKind::device_fraction(device, sla))
    }

    /// Overload-control headroom: the largest total arrival rate (req/s) at
    /// which `goal` still holds, searched up to `upper`.
    pub fn headroom(&self, goal: SlaGoal, upper: f64) -> Result<Prediction, ServeError> {
        self.answer(None, QueryKind::headroom(goal, upper))
    }

    /// Bottleneck ranking: devices ordered by predicted fraction meeting
    /// `sla`, worst first. Assembled from memoized per-device queries.
    pub fn bottlenecks(&self, sla: f64) -> Result<Vec<(usize, f64)>, ServeError> {
        let n = self.current()?.params.devices.len();
        let mut out = Vec::with_capacity(n);
        for device in 0..n {
            out.push((device, self.device_fraction(device, sla)?.value));
        }
        out.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fractions"));
        Ok(out)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cos_distr::{Degenerate, Gamma};
    use cos_model::{DeviceParams, FrontendParams};
    use cos_queueing::from_distribution;

    pub(crate) fn sample_params(rate: f64, devices: usize) -> SystemParams {
        let per = rate / devices as f64;
        SystemParams {
            frontend: FrontendParams {
                arrival_rate: rate,
                processes: 3,
                parse_fe: from_distribution(Degenerate::new(0.0003)),
            },
            devices: (0..devices)
                .map(|_| DeviceParams {
                    arrival_rate: per,
                    data_read_rate: per * 1.1,
                    miss_index: 0.3,
                    miss_meta: 0.25,
                    miss_data: 0.4,
                    index_disk: from_distribution(Gamma::new(3.0, 250.0)),
                    meta_disk: from_distribution(Gamma::new(2.5, 312.5)),
                    data_disk: from_distribution(Gamma::new(3.5, 245.0)),
                    parse_be: from_distribution(Degenerate::new(0.0005)),
                    processes: 1,
                })
                .collect(),
        }
    }

    fn engine_with(rate: f64) -> PredictionEngine {
        let mut e = PredictionEngine::new(ModelVariant::Full);
        e.install(Arc::new(sample_params(rate, 4)), 0.0, None);
        e
    }

    #[test]
    fn uncalibrated_engine_refuses() {
        let e = PredictionEngine::new(ModelVariant::Full);
        assert_eq!(e.fraction_meeting_sla(0.05), Err(ServeError::NotCalibrated));
    }

    #[test]
    fn repeat_queries_hit_and_are_bit_identical() {
        let e = engine_with(100.0);
        let first = e.fraction_meeting_sla(0.05).unwrap();
        let again = e.fraction_meeting_sla(0.05).unwrap();
        assert_eq!(first.value.to_bits(), again.value.to_bits());
        assert_eq!(e.stats(), CacheStats { hits: 1, misses: 1 });
        // Uncached reference at the snapped SLA.
        let m = SystemModel::new(&sample_params(100.0, 4), ModelVariant::Full).unwrap();
        assert_eq!(
            first.value.to_bits(),
            m.fraction_meeting_sla(0.05).to_bits()
        );
    }

    #[test]
    fn queries_within_a_quantum_share_the_inversion() {
        let e = engine_with(100.0);
        let a = e.fraction_meeting_sla(0.0500).unwrap();
        let b = e.fraction_meeting_sla(0.050_004).unwrap(); // same 0.1 ms cell
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(e.stats().hits, 1);
    }

    #[test]
    fn what_if_rates_reuse_built_models_across_slas() {
        let e = engine_with(100.0);
        e.fraction_at_rate(150.0, 0.05).unwrap();
        e.fraction_at_rate(150.0, 0.10).unwrap(); // same model, new inversion
        assert_eq!(e.cache().model_count(), 1);
        assert_eq!(e.stats(), CacheStats { hits: 0, misses: 2 });
        let again = e.fraction_at_rate(150.0, 0.05).unwrap();
        assert!(again.value > 0.0);
        assert_eq!(e.stats().hits, 1);
    }

    #[test]
    fn new_epoch_invalidates_old_answers() {
        let mut e = engine_with(100.0);
        let slow = e.fraction_meeting_sla(0.05).unwrap();
        e.install(Arc::new(sample_params(40.0, 4)), 10.0, None);
        let fast = e.fraction_meeting_sla(0.05).unwrap();
        assert_eq!(fast.epoch, 2);
        assert!(fast.value > slow.value, "lighter load must meet more SLAs");
        assert_eq!(
            e.stats().hits,
            0,
            "epoch change must not serve stale answers"
        );
    }

    #[test]
    fn unstable_what_if_is_typed_and_memoized() {
        let e = engine_with(100.0);
        let err = e.fraction_at_rate(100_000.0, 0.05).unwrap_err();
        assert!(matches!(err, ServeError::Unstable { .. }));
        let again = e.fraction_at_rate(100_000.0, 0.05).unwrap_err();
        assert_eq!(err, again);
        assert_eq!(e.stats().hits, 1, "the failure itself must be memoized");
    }

    #[test]
    fn staleness_flag_propagates() {
        let mut e = engine_with(100.0);
        assert!(!e.fraction_meeting_sla(0.05).unwrap().stale);
        e.mark_stale();
        assert!(e.fraction_meeting_sla(0.05).unwrap().stale);
        assert_eq!(e.failed_refits(), 1);
    }

    #[test]
    fn health_merges_cache_and_failure_counters() {
        let mut e = engine_with(100.0);
        e.fraction_meeting_sla(0.05).unwrap();
        e.fraction_meeting_sla(0.05).unwrap();
        e.mark_stale();
        let health = e.health();
        assert_eq!(health.cache, e.stats());
        assert_eq!(health.failed_refits, e.failed_refits());
        assert_eq!(health, e.health(), "snapshot is a pure read");
        assert!((health.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_and_mean_are_consistent() {
        let e = engine_with(100.0);
        let p50 = e.latency_percentile(0.50).unwrap().value;
        let p95 = e.latency_percentile(0.95).unwrap().value;
        assert!(p50 < p95, "p50 {p50} vs p95 {p95}");
        let mean = e.mean_response().unwrap().value;
        assert!(mean > 0.0 && mean.is_finite());
    }

    #[test]
    fn headroom_brackets_the_goal() {
        let e = engine_with(100.0);
        let goal = SlaGoal::new(0.100, 0.90);
        let head = e.headroom(goal, 1000.0).unwrap().value;
        assert!(
            head > 100.0,
            "calibrated point meets the goal, headroom {head}"
        );
        let at_head = e.fraction_at_rate(head * 0.98, 0.100).unwrap().value;
        assert!(
            at_head >= 0.90 - 0.01,
            "fraction {at_head} just below headroom"
        );
        // Second ask is a hit.
        let s0 = e.stats();
        e.headroom(goal, 1000.0).unwrap();
        assert_eq!(e.stats().hits, s0.hits + 1);
    }

    #[test]
    fn bottleneck_ranking_matches_planning() {
        let mut params = sample_params(120.0, 4);
        params.devices[2].miss_index = 0.6;
        params.devices[2].miss_data = 0.7;
        let mut e = PredictionEngine::new(ModelVariant::Full);
        e.install(Arc::new(params.clone()), 0.0, None);
        let ranked = e.bottlenecks(0.05).unwrap();
        assert_eq!(ranked[0].0, 2, "hot device must rank worst: {ranked:?}");
        let reference = cos_model::rank_bottlenecks(
            &SystemModel::new(&params, ModelVariant::Full).unwrap(),
            0.05,
        );
        assert_eq!(ranked, reference);
        // Re-ranking is all hits.
        let s0 = e.stats();
        e.bottlenecks(0.05).unwrap();
        assert_eq!(e.stats().misses, s0.misses);
    }
}
