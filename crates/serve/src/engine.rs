//! The value types of the memoized read path.
//!
//! Answering a percentile query costs a handful of numeric Laplace
//! inversions. A dashboard polling the same SLAs every second would redo
//! identical transforms indefinitely, so each installed [`EpochSnapshot`]
//! memoizes its **inversion results** in its own
//! [`EpochMemo`], keyed on the quantized query:
//! `(rate, SLA)` → fraction, `p` → percentile, and so on. Quantization is
//! applied to the *computation inputs*, not just the key — two queries
//! that collapse to the same key are answered from the same inversion,
//! bit-identical to an uncached evaluation at the snapped point. The
//! quanta live here: [`RATE_QUANTUM`], [`SLA_QUANTUM`] and
//! [`FRACTION_QUANTUM`].
//!
//! Each tenant shard of the service holds one installed [`EpochSnapshot`]
//! and publishes it; every [`SnapshotReader`](crate::SnapshotReader)
//! answers against the published epoch through that epoch's memo
//! ([`EpochSnapshot::answer`]) and tags the answer with it
//! ([`Prediction`]).
//!
//! Epoch handling degrades gracefully: when a re-fit fails (no traffic, or
//! the fitted point is unstable), the shard keeps serving the last good
//! epoch, and its memo, with [`Prediction::stale`] set, and queries at
//! unstable operating points return the typed
//! [`ServeError::Unstable`](crate::ServeError) — which is memoized too, so
//! a flapping dashboard does not re-derive the failure.

use std::sync::Arc;

use cos_model::{ModelVariant, SystemParams};

use crate::cache::{CacheCounters, EpochMemo, QueryKey, QueryKind};
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

/// One installed calibration epoch and its memo of answers.
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
    /// The answers on `params`, shared by every clone of the snapshot.
    memo: Arc<EpochMemo>,
}

impl EpochSnapshot {
    /// Epoch `epoch` of `params`, fitted at event time `fitted_at`, with an
    /// empty memo counting its hits and misses into `counters`.
    pub fn new(
        epoch: u64,
        params: Arc<SystemParams>,
        fitted_at: f64,
        counters: Arc<CacheCounters>,
    ) -> EpochSnapshot {
        EpochSnapshot {
            epoch,
            params,
            fitted_at,
            stale: false,
            memo: Arc::new(EpochMemo::new(counters)),
        }
    }

    /// This epoch's memo.
    pub(crate) fn memo(&self) -> &EpochMemo {
        &self.memo
    }

    /// Answers `kind` on this epoch at the optional what-if rate cell
    /// under `variant`, from its memo: the one evaluation funnel of every
    /// query path. Returns the outcome and whether *this call* ran the
    /// computation (`true` = miss; a memoized answer is a hit).
    pub fn answer(
        &self,
        variant: ModelVariant,
        rate_q: Option<i64>,
        kind: QueryKind,
    ) -> (Result<f64, ServeError>, bool) {
        self.memo.get_or_compute(QueryKey { rate_q, kind }, || {
            self.memo.evaluate(&self.params, variant, rate_q, kind)
        })
    }
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
/// endpoints (`/metrics`) read a consistent pair in one call.
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cache::quantize_rate;
    use crate::query::Query;
    use crate::service::tests::{base, events};
    use crate::service::{ServeConfig, SlaService};
    use crate::telemetry::TelemetryEvent;
    use cos_distr::{Degenerate, Gamma};
    use cos_model::{DeviceParams, FrontendParams, SlaGoal, SystemModel};
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

    /// Epoch `epoch` of `params`, as a tenant shard installs it, and the
    /// counters its memo counts into.
    fn epoch_of(params: SystemParams, epoch: u64) -> (Arc<CacheCounters>, EpochSnapshot) {
        let counters = Arc::new(CacheCounters::default());
        let snap = EpochSnapshot::new(epoch, Arc::new(params), 0.0, Arc::clone(&counters));
        (counters, snap)
    }

    /// Asks `snap`, tagged as a reader tags it.
    fn ask(
        snap: &EpochSnapshot,
        rate_q: Option<i64>,
        kind: QueryKind,
    ) -> Result<Prediction, ServeError> {
        let (outcome, _miss) = snap.answer(ModelVariant::Full, rate_q, kind);
        outcome.map(|value| Prediction {
            value,
            epoch: snap.epoch,
            stale: snap.stale,
        })
    }

    /// The bottleneck ranking a reader assembles: every device's memoized
    /// fraction, worst first.
    fn bottlenecks(snap: &EpochSnapshot, sla: f64) -> Result<Vec<(usize, f64)>, ServeError> {
        let mut out = Vec::new();
        for device in 0..snap.params.devices.len() {
            let kind = QueryKind::device_fraction(device, sla);
            out.push((device, ask(snap, None, kind)?.value));
        }
        out.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fractions"));
        Ok(out)
    }

    /// A service calibrated on the standard stream that refits only when
    /// told to, tracking the one SLA `tracked`.
    fn manual_service(tracked: f64) -> SlaService {
        let config = ServeConfig {
            slas: vec![tracked],
            refit_interval: f64::MAX,
            ..ServeConfig::default()
        };
        let mut service = SlaService::new(base(), config);
        for ev in events(40.0, 20.0, 2) {
            service.ingest(ev);
        }
        assert!(service.refit_now(), "deterministic stream must fit");
        service
    }

    /// Makes the next re-fit fail: one lone event far in the future
    /// empties the windows.
    fn starve(service: &mut SlaService) {
        service.ingest(TelemetryEvent::Arrival {
            at: 500.0,
            device: 0,
        });
        assert!(!service.refit_now(), "an empty window cannot fit");
    }

    #[test]
    fn uncalibrated_engine_refuses() {
        let service = SlaService::new(base(), ServeConfig::default());
        assert_eq!(
            service.reader().attainment(&Query::new().sla(0.05)),
            Err(ServeError::NotCalibrated)
        );
    }

    #[test]
    fn repeat_queries_hit_and_are_bit_identical() {
        let (cache, e) = epoch_of(sample_params(100.0, 4), 1);
        let first = ask(&e, None, QueryKind::fraction(0.05)).unwrap();
        let again = ask(&e, None, QueryKind::fraction(0.05)).unwrap();
        assert_eq!(first.value.to_bits(), again.value.to_bits());
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        // Uncached reference at the snapped SLA.
        let m = SystemModel::new(&sample_params(100.0, 4), ModelVariant::Full).unwrap();
        assert_eq!(
            first.value.to_bits(),
            m.fraction_meeting_sla(0.05).to_bits()
        );
    }

    #[test]
    fn queries_within_a_quantum_share_the_inversion() {
        let (cache, e) = epoch_of(sample_params(100.0, 4), 1);
        let a = ask(&e, None, QueryKind::fraction(0.0500)).unwrap();
        // Same 0.1 ms cell.
        let b = ask(&e, None, QueryKind::fraction(0.050_004)).unwrap();
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn what_if_rates_reuse_built_models_across_slas() {
        let (cache, e) = epoch_of(sample_params(100.0, 4), 1);
        let at_150 = Some(quantize_rate(150.0));
        ask(&e, at_150, QueryKind::fraction(0.05)).unwrap();
        // Same model, new inversion.
        ask(&e, at_150, QueryKind::fraction(0.10)).unwrap();
        assert_eq!(e.memo().model_count(), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        let again = ask(&e, at_150, QueryKind::fraction(0.05)).unwrap();
        assert!(again.value > 0.0);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn new_epoch_invalidates_old_answers() {
        let (cache, e1) = epoch_of(sample_params(100.0, 4), 1);
        let slow = ask(&e1, None, QueryKind::fraction(0.05)).unwrap();
        let e2 = EpochSnapshot::new(2, Arc::new(sample_params(40.0, 4)), 0.0, Arc::clone(&cache));
        let fast = ask(&e2, None, QueryKind::fraction(0.05)).unwrap();
        assert_eq!(fast.epoch, 2);
        assert!(fast.value > slow.value, "lighter load must meet more SLAs");
        assert_eq!(
            cache.stats().hits,
            0,
            "epoch change must not serve stale answers"
        );
    }

    #[test]
    fn unstable_what_if_is_typed_and_memoized() {
        let (cache, e) = epoch_of(sample_params(100.0, 4), 1);
        let at = Some(quantize_rate(100_000.0));
        let err = ask(&e, at, QueryKind::fraction(0.05)).unwrap_err();
        assert!(matches!(err, ServeError::Unstable { .. }));
        let again = ask(&e, at, QueryKind::fraction(0.05)).unwrap_err();
        assert_eq!(err, again);
        assert_eq!(cache.stats().hits, 1, "the failure itself must be memoized");
    }

    #[test]
    fn staleness_flag_propagates() {
        let mut service = manual_service(0.05);
        let q = Query::new().sla(0.05);
        assert!(!service.reader().attainment(&q).unwrap().stale);
        starve(&mut service);
        assert!(service.reader().attainment(&q).unwrap().stale);
        assert_eq!(service.status().engine.failed_refits, 1);
    }

    #[test]
    fn health_merges_cache_and_failure_counters() {
        // The refit prewarms the tracked SLA (one miss); the failed refit
        // asks the memo for it again (one hit).
        let mut service = manual_service(0.05);
        let reader = service.reader();
        let q = Query::new().sla(0.07);
        reader.attainment(&q).unwrap();
        reader.attainment(&q).unwrap();
        starve(&mut service);
        let health = reader.status().unwrap().engine;
        assert_eq!(health.cache, CacheStats { hits: 2, misses: 2 });
        assert_eq!(health.failed_refits, reader.state().unwrap().failed_refits);
        assert_eq!(health.failed_refits, 1);
        assert_eq!(
            health,
            reader.status().unwrap().engine,
            "snapshot is a pure read"
        );
        assert!((health.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_and_mean_are_consistent() {
        let (_, e) = epoch_of(sample_params(100.0, 4), 1);
        let p50 = ask(&e, None, QueryKind::percentile(0.50)).unwrap().value;
        let p95 = ask(&e, None, QueryKind::percentile(0.95)).unwrap().value;
        assert!(p50 < p95, "p50 {p50} vs p95 {p95}");
    }

    #[test]
    fn headroom_brackets_the_goal() {
        let (cache, e) = epoch_of(sample_params(100.0, 4), 1);
        let goal = SlaGoal::new(0.100, 0.90);
        let kind = QueryKind::headroom(goal, 1000.0);
        let head = ask(&e, None, kind).unwrap().value;
        assert!(
            head > 100.0,
            "calibrated point meets the goal, headroom {head}"
        );
        let below = Some(quantize_rate(head * 0.98));
        let at_head = ask(&e, below, QueryKind::fraction(0.100)).unwrap().value;
        assert!(
            at_head >= 0.90 - 0.01,
            "fraction {at_head} just below headroom"
        );
        // Second ask is a hit.
        let s0 = cache.stats();
        ask(&e, None, kind).unwrap();
        assert_eq!(cache.stats().hits, s0.hits + 1);
    }

    #[test]
    fn bottleneck_ranking_matches_planning() {
        let mut params = sample_params(120.0, 4);
        params.devices[2].miss_index = 0.6;
        params.devices[2].miss_data = 0.7;
        let (cache, e) = epoch_of(params.clone(), 1);
        let ranked = bottlenecks(&e, 0.05).unwrap();
        assert_eq!(ranked[0].0, 2, "hot device must rank worst: {ranked:?}");
        let reference = cos_model::rank_bottlenecks(
            &SystemModel::new(&params, ModelVariant::Full).unwrap(),
            0.05,
        );
        assert_eq!(ranked, reference);
        // Re-ranking is all hits.
        let s0 = cache.stats();
        bottlenecks(&e, 0.05).unwrap();
        assert_eq!(cache.stats().misses, s0.misses);
    }
}
