//! The service itself: telemetry in, predictions out — for a whole fleet.
//!
//! [`SlaService`] is the synchronous state machine. The fleet dimension is
//! first-class: telemetry arrives tagged with a [`TenantId`]
//! ([`SlaService::ingest_for`]), and each tenant gets an independent shard —
//! its own sliding-window calibrator, drift monitor, and memoized engine
//! keyed under its own slot of the shared [`InversionCache`] (so tenants
//! never share or evict each other's quantized results). Re-fits are
//! **batched**: one sweep fans every dirty tenant's fit over the `cos-par`
//! pool ([`SlaService::refit_now`]), then a single serial pass installs the
//! epochs and publishes one **delta** through the snapshot path — only
//! changed tenants' states are republished (see the
//! [`snapshot`](crate::snapshot) module docs for the protocol).
//!
//! [`SlaService::spawn`] wraps the service in a dedicated thread behind a
//! single command channel (`std::sync::mpsc` has no `select`, so every
//! interaction — telemetry, queries, control — is one `enum` message; FIFO
//! ordering doubles as the flush barrier). Telemetry travels as batches,
//! one command each: a single event from [`TelemetrySender::send`] or
//! [`ServiceClient::ingest_for`] is a batch of one, and
//! [`ServiceClient::ingest_batch_for`] hands over a whole batch and waits
//! for the service to reply once it is ingested. The returned
//! [`ServiceHandle`] is the client side; [`TelemetrySender`] is a cheap
//! cloneable tenant-scoped ingest-only endpoint to hand to a telemetry
//! source.
//!
//! Queries are [`Query`] values (`service.attainment(&Query::tenant(t)
//! .sla(0.05))`); the positional methods of the spawned client surface are
//! kept as deprecated shims that delegate to the `Query` path,
//! bit-identically.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cos_model::{ModelVariant, SlaGoal, SystemModel, SystemParams};
use cos_obs::Registry;

use crate::cache::{InversionCache, QueryKey, QueryKind};
use crate::calibrate::{CalibrationBase, CalibratorConfig, OnlineCalibrator};
use crate::drift::{DriftConfig, DriftMonitor, DriftReport};
use crate::engine::{snap, EngineHealth, Prediction, PredictionEngine, SLA_QUANTUM};
use crate::error::ServeError;
use crate::obs::ServeObs;
use crate::query::Query;
use crate::snapshot::{PublishStats, SnapshotReader, SnapshotShared, SnapshotState};
use crate::telemetry::TelemetryEvent;
use crate::tenant::TenantId;
use crate::worker::{RatePoint, SweepHandle, SweepPool};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// SLA bounds (seconds) tracked for drift detection and dashboards.
    pub slas: Vec<f64>,
    /// Model variant used for every prediction.
    pub variant: ModelVariant,
    /// Sliding-window estimator knobs.
    pub calibrator: CalibratorConfig,
    /// Drift detection knobs.
    pub drift: DriftConfig,
    /// Event-time seconds between automatic re-fits.
    pub refit_interval: f64,
    /// Worker threads of the what-if sweep pool.
    pub sweep_workers: usize,
    /// Worker threads a batched fleet re-fit fans out over (defaults to
    /// the machine's available parallelism). Fit results are
    /// order-preserving and per-tenant independent, so the answer bits
    /// never depend on this knob.
    pub refit_workers: usize,
    /// Instrument registry the service records into (share one registry
    /// between the service and a gate to get a single `/metrics` view).
    pub obs: Registry,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            slas: vec![0.010, 0.050, 0.100],
            variant: ModelVariant::Full,
            calibrator: CalibratorConfig::default(),
            drift: DriftConfig::default(),
            refit_interval: 5.0,
            sweep_workers: 2,
            refit_workers: cos_par::default_workers(),
            obs: Registry::new(),
        }
    }
}

impl ServeConfig {
    /// Starts a validating builder seeded with the defaults.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig::default(),
        }
    }
}

/// A [`ServeConfig`] value the builder refused to produce, with the field
/// and the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfig {
    /// The offending field, as named on [`ServeConfig`].
    pub field: &'static str,
    /// Why the value is nonsensical.
    pub reason: String,
}

impl std::fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid ServeConfig.{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for InvalidConfig {}

/// Builder for [`ServeConfig`] that rejects nonsensical values at
/// [`build`](ServeConfigBuilder::build) time: a non-positive SLA or refit
/// interval would silently disable re-fitting; a zero-bucket window would
/// divide by zero deep inside the calibrator.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// SLA bounds in seconds (each must be finite and positive).
    pub fn slas(mut self, slas: Vec<f64>) -> Self {
        self.config.slas = slas;
        self
    }

    /// Model variant used for every prediction.
    pub fn variant(mut self, variant: ModelVariant) -> Self {
        self.config.variant = variant;
        self
    }

    /// Sliding-window estimator knobs (window > 0, buckets ≥ 1).
    pub fn calibrator(mut self, calibrator: CalibratorConfig) -> Self {
        self.config.calibrator = calibrator;
        self
    }

    /// Drift detection knobs (window > 0, buckets ≥ 1).
    pub fn drift(mut self, drift: DriftConfig) -> Self {
        self.config.drift = drift;
        self
    }

    /// Event-time seconds between automatic re-fits (finite, > 0).
    pub fn refit_interval(mut self, seconds: f64) -> Self {
        self.config.refit_interval = seconds;
        self
    }

    /// Worker threads of the what-if sweep pool (≥ 1).
    pub fn sweep_workers(mut self, workers: usize) -> Self {
        self.config.sweep_workers = workers;
        self
    }

    /// Worker threads of a batched fleet re-fit (≥ 1).
    pub fn refit_workers(mut self, workers: usize) -> Self {
        self.config.refit_workers = workers;
        self
    }

    /// Instrument registry the service records into.
    pub fn obs(mut self, registry: Registry) -> Self {
        self.config.obs = registry;
        self
    }

    /// Validates and produces the config.
    pub fn build(self) -> Result<ServeConfig, InvalidConfig> {
        let err = |field: &'static str, reason: String| Err(InvalidConfig { field, reason });
        let c = &self.config;
        if c.slas.is_empty() {
            return err("slas", "at least one SLA bound is required".into());
        }
        if let Some(bad) = c.slas.iter().find(|s| !s.is_finite() || **s <= 0.0) {
            return err(
                "slas",
                format!("SLA bound {bad} is not finite and positive"),
            );
        }
        if !c.refit_interval.is_finite() || c.refit_interval <= 0.0 {
            return err(
                "refit_interval",
                format!("{} must be finite and positive", c.refit_interval),
            );
        }
        if c.sweep_workers == 0 {
            return err("sweep_workers", "must be at least 1".into());
        }
        if c.refit_workers == 0 {
            return err("refit_workers", "must be at least 1".into());
        }
        if !c.calibrator.window.is_finite() || c.calibrator.window <= 0.0 {
            return err(
                "calibrator.window",
                format!("{} must be finite and positive", c.calibrator.window),
            );
        }
        if c.calibrator.buckets == 0 {
            return err("calibrator.buckets", "must be at least 1".into());
        }
        if !c.drift.window.is_finite() || c.drift.window <= 0.0 {
            return err(
                "drift.window",
                format!("{} must be finite and positive", c.drift.window),
            );
        }
        if c.drift.buckets == 0 {
            return err("drift.buckets", "must be at least 1".into());
        }
        Ok(self.config)
    }
}

/// A point-in-time health summary.
#[derive(Debug, Clone)]
pub struct ServiceStatus {
    /// Latest event time seen on the stream.
    pub event_time: f64,
    /// Installed calibration epoch (`None` while warming up).
    pub epoch: Option<u64>,
    /// Event time of the installed epoch's fit.
    pub fitted_at: Option<f64>,
    /// Whether the epoch is stale (the most recent re-fit failed).
    pub stale: bool,
    /// Why the most recent failed re-fit failed (`None` after a success).
    pub last_fit_error: Option<String>,
    /// Merged engine counters: inversion-memo hits/misses and failed
    /// re-fits, snapshotted together so `/metrics` needs one round-trip.
    pub engine: EngineHealth,
    /// Per-SLA drift verdicts (observed vs predicted attainment).
    pub drift: Vec<DriftReport>,
}

impl ServiceStatus {
    /// Whether any tracked SLA has drifted (observed vs predicted gap over
    /// tolerance with enough samples).
    pub fn any_drifted(&self) -> bool {
        self.drift.iter().any(|d| d.drifted)
    }
}

/// One tenant's independent estimator state: calibrator window, drift
/// monitor, and memoized engine keyed under the tenant's cache slot.
struct TenantShard {
    id: TenantId,
    slot: u32,
    calibrator: OnlineCalibrator,
    drift: DriftMonitor,
    engine: PredictionEngine,
    last_fit_error: Option<String>,
    last_fit_unstable: bool,
    /// Drift verdicts captured at this shard's last re-fit attempt — the
    /// published state reuses them instead of re-evaluating against a
    /// moved clock, which is what makes [`build_state`] a pure function
    /// of the shard (and delta publication provably lossless).
    last_drift: Vec<DriftReport>,
    /// Whether the shard has ingested telemetry since its last re-fit.
    dirty: bool,
    events_total: u64,
}

/// The published [`SnapshotState`] is a pure function of the shard: same
/// shard state in, same bytes out — rebuilding an unchanged shard's state
/// reproduces exactly what is already published, which is the invariant
/// the delta protocol rests on.
fn build_state(shard: &TenantShard) -> SnapshotState {
    SnapshotState {
        snapshot: shard.engine.snapshot().cloned(),
        last_fit_error: shard.last_fit_error.clone(),
        failed_refits: shard.engine.failed_refits(),
        unstable_fit: shard.last_fit_unstable,
        drift: shard.last_drift.clone(),
    }
}

/// Outcome of one tenant's parallel fit attempt: fitted parameters, the
/// validated model, and per-SLA attainment predictions — or the failure
/// message plus whether it was an instability.
type FitOutcome = Result<(SystemParams, Arc<SystemModel>, Vec<Option<f64>>), (String, bool)>;

/// The synchronous prediction service.
pub struct SlaService {
    config: ServeConfig,
    base: CalibrationBase,
    cache: Arc<InversionCache>,
    shards: Vec<TenantShard>,
    index: HashMap<TenantId, u32>,
    pool: SweepPool,
    obs: ServeObs,
    shared: Arc<SnapshotShared>,
    now: f64,
    last_refit: f64,
    last_publish: PublishStats,
}

impl SlaService {
    /// Creates a service over `base`'s topology. The reserved `default`
    /// tenant exists from the start (slot 0); further tenants materialize
    /// on their first [`ingest_for`](SlaService::ingest_for).
    pub fn new(base: CalibrationBase, config: ServeConfig) -> Self {
        let obs = ServeObs::register(&config.obs);
        let cache = Arc::new(InversionCache::default());
        let drift = DriftMonitor::new(config.slas.clone(), config.drift.clone());
        let last_drift = drift.report(0.0, &vec![None; config.slas.len()]);
        let shared = Arc::new(SnapshotShared::new(
            config.variant,
            Arc::clone(&cache),
            obs.clone(),
            SnapshotState {
                snapshot: None,
                last_fit_error: None,
                failed_refits: 0,
                unstable_fit: false,
                drift: last_drift.clone(),
            },
        ));
        let default_shard = TenantShard {
            id: TenantId::default_tenant(),
            slot: 0,
            calibrator: OnlineCalibrator::new(base.clone(), config.calibrator.clone()),
            drift,
            engine: PredictionEngine::with_cache_for(config.variant, Arc::clone(&cache), 0),
            last_fit_error: None,
            last_fit_unstable: false,
            last_drift,
            dirty: false,
            events_total: 0,
        };
        SlaService {
            base,
            cache,
            shards: vec![default_shard],
            index: HashMap::from([(TenantId::default_tenant(), 0)]),
            pool: SweepPool::with_timing(
                config.sweep_workers,
                Some(obs.sweep_queue_wait.clone()),
                Some(obs.sweep_task.clone()),
            ),
            obs,
            shared,
            now: 0.0,
            last_refit: 0.0,
            last_publish: PublishStats::default(),
            config,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Latest event time seen on the stream.
    pub fn event_time(&self) -> f64 {
        self.now
    }

    /// Number of tenants the fleet has materialized (≥ 1: the `default`
    /// tenant always exists).
    pub fn tenants(&self) -> usize {
        self.shards.len()
    }

    /// Every materialized tenant's id, in slot order.
    pub fn tenant_ids(&self) -> impl Iterator<Item = &TenantId> {
        self.shards.iter().map(|s| &s.id)
    }

    /// Accounting of the most recent snapshot publication (delta vs full
    /// bytes).
    pub fn last_publish_stats(&self) -> PublishStats {
        self.last_publish
    }

    fn slot_of(&self, tenant: &TenantId) -> Result<u32, ServeError> {
        self.index
            .get(tenant)
            .copied()
            .ok_or_else(|| ServeError::UnknownTenant {
                tenant: tenant.to_string(),
            })
    }

    /// The tenant's slot, materializing a fresh shard (and registering it
    /// with the snapshot path) on first sight.
    fn slot_or_create(&mut self, tenant: &TenantId) -> u32 {
        if let Some(&slot) = self.index.get(tenant) {
            return slot;
        }
        let slot = self.shards.len() as u32;
        let drift = DriftMonitor::new(self.config.slas.clone(), self.config.drift.clone());
        let shard = TenantShard {
            id: tenant.clone(),
            slot,
            calibrator: OnlineCalibrator::new(self.base.clone(), self.config.calibrator.clone()),
            last_drift: drift.report(0.0, &vec![None; self.config.slas.len()]),
            drift,
            engine: PredictionEngine::with_cache_for(
                self.config.variant,
                Arc::clone(&self.cache),
                slot,
            ),
            last_fit_error: None,
            last_fit_unstable: false,
            dirty: false,
            events_total: 0,
        };
        let registered = self
            .shared
            .register_tenant(tenant.clone(), Arc::new(build_state(&shard)));
        debug_assert_eq!(registered, slot);
        self.index.insert(tenant.clone(), slot);
        self.shards.push(shard);
        slot
    }

    /// Feeds one telemetry event for the `default` tenant, re-fitting
    /// automatically once per [`ServeConfig::refit_interval`] of event
    /// time.
    pub fn ingest(&mut self, event: TelemetryEvent) {
        self.ingest_slot(0, event);
    }

    /// Feeds one telemetry event for `tenant` (materializing its shard on
    /// first sight), re-fitting automatically once per
    /// [`ServeConfig::refit_interval`] of event time — a fleet-wide
    /// cadence: one batched sweep re-fits every tenant that saw traffic.
    pub fn ingest_for(&mut self, tenant: &TenantId, event: TelemetryEvent) {
        let slot = self.slot_or_create(tenant);
        self.ingest_slot(slot, event);
    }

    /// Feeds a batch for `tenant`: the slot resolves once, then every
    /// event ingests exactly as [`ingest_for`](SlaService::ingest_for)
    /// would, so refits fire at the same events. An empty batch
    /// materializes no tenant.
    fn ingest_batch(&mut self, tenant: &TenantId, events: Vec<TelemetryEvent>) {
        if events.is_empty() {
            return;
        }
        let slot = self.slot_or_create(tenant);
        for event in events {
            self.ingest_slot(slot, event);
        }
    }

    fn ingest_slot(&mut self, slot: u32, event: TelemetryEvent) {
        self.obs.ingest_events_total.inc();
        let t = event.time();
        self.now = self.now.max(t);
        self.shared.set_event_time(self.now);
        let shard = &mut self.shards[slot as usize];
        if let TelemetryEvent::Completion { latency, .. } = event {
            shard.drift.record(t, latency);
        }
        shard.calibrator.ingest(&event);
        shard.dirty = true;
        shard.events_total += 1;
        if self.now - self.last_refit >= self.config.refit_interval {
            self.refit_now();
        }
    }

    /// Forces a batched re-fit at the current event time, covering the
    /// `default` tenant plus every tenant that ingested telemetry since
    /// its last re-fit. Fits fan out over [`ServeConfig::refit_workers`]
    /// threads; one delta publish follows. Returns `true` if a new epoch
    /// was installed for the `default` tenant; on failure the previous
    /// epoch (if any) keeps serving, flagged stale.
    pub fn refit_now(&mut self) -> bool {
        let mut slots: Vec<u32> = vec![0];
        slots.extend(
            self.shards
                .iter()
                .filter(|s| s.dirty && s.slot != 0)
                .map(|s| s.slot),
        );
        self.refit_slots(&slots, self.config.refit_workers)
    }

    /// Forces a re-fit of **every** tenant (dirty or not) over `workers`
    /// threads — the full-fleet sweep the benches time. Returns the number
    /// of tenants refitted.
    pub fn refit_fleet(&mut self, workers: usize) -> usize {
        let slots: Vec<u32> = (0..self.shards.len() as u32).collect();
        self.refit_slots(&slots, workers.max(1));
        slots.len()
    }

    /// The batched re-fit: phase 1 fans the pure fit + model build + per-
    /// SLA predictions over the `cos-par` pool (one parallel sweep, not
    /// O(tenants) sequential solves — `try_fit` is `&self`, so shards are
    /// read concurrently); phase 2 serially installs epochs, pre-warms the
    /// cache, and publishes one delta.
    fn refit_slots(&mut self, slots: &[u32], workers: usize) -> bool {
        self.obs.refits_total.inc();
        let _refit_span = self.obs.refit.start_span();
        self.last_refit = self.now;
        let now = self.now;
        let variant = self.config.variant;
        let slas = self.config.slas.clone();

        // Phase 1 — parallel, read-only over the shards.
        let jobs: Vec<(u32, &OnlineCalibrator)> = slots
            .iter()
            .map(|&s| (s, &self.shards[s as usize].calibrator))
            .collect();
        let outcomes: Vec<(u32, FitOutcome)> =
            cos_par::par_map(workers, &jobs, |_, &(slot, cal)| {
                let outcome = match cal.try_fit(now) {
                    Err(e) => Err((e.to_string(), false)),
                    Ok(params) => match SystemModel::new(&params, variant) {
                        Ok(model) => {
                            // Predictions at the snapped SLA — the same value
                            // the cache's evaluation path would produce, so
                            // pre-warming with them is bit-lossless.
                            let preds: Vec<Option<f64>> = slas
                                .iter()
                                .map(|&sla| {
                                    Some(model.fraction_meeting_sla(snap(sla, SLA_QUANTUM).1))
                                })
                                .collect();
                            Ok((params, Arc::new(model), preds))
                        }
                        // Every ModelError is an instability (ρ ≥ 1 in some
                        // queue): the live load exceeds what the last good
                        // epoch can describe.
                        Err(e) => Err((e.to_string(), true)),
                    },
                };
                (slot, outcome)
            });

        // Phase 2 — serial: install epochs (validated-before-install, so
        // an unstable fit never evicts a usable epoch), pre-warm, rebuild
        // changed states, publish one delta.
        let mut installed_default = false;
        let mut changes: Vec<(u32, Arc<SnapshotState>, u64)> = Vec::with_capacity(outcomes.len());
        for (slot, outcome) in outcomes {
            let idx = slot as usize;
            match outcome {
                Ok((params, model, preds)) => {
                    let shard = &mut self.shards[idx];
                    let epoch = shard.engine.install(Arc::new(params), now, Some(model));
                    shard.last_fit_error = None;
                    shard.last_fit_unstable = false;
                    shard.last_drift = shard.drift.report(now, &preds);
                    for (&sla, pred) in slas.iter().zip(&preds) {
                        if let Some(v) = pred {
                            self.cache.prewarm_result(
                                QueryKey {
                                    tenant: slot,
                                    epoch,
                                    rate_q: None,
                                    kind: QueryKind::fraction(sla),
                                },
                                Ok(*v),
                            );
                        }
                    }
                    if slot == 0 {
                        installed_default = true;
                    }
                }
                Err((message, unstable)) => {
                    let shard = &mut self.shards[idx];
                    shard.last_fit_error = Some(message);
                    shard.last_fit_unstable = unstable;
                    shard.engine.mark_stale();
                    let preds: Vec<Option<f64>> = slas
                        .iter()
                        .map(|&sla| shard.engine.fraction_meeting_sla(sla).ok().map(|p| p.value))
                        .collect();
                    shard.last_drift = shard.drift.report(now, &preds);
                }
            }
            let shard = &mut self.shards[idx];
            shard.dirty = false;
            changes.push((slot, Arc::new(build_state(shard)), shard.events_total));
        }
        // Publish on every attempt — success or failure — so snapshot
        // readers observe staleness and fit errors as promptly as the
        // channel path does.
        self.last_publish = self.shared.publish_delta(&changes);
        installed_default
    }

    /// Rebuilds and republishes **every** tenant's state from shard state
    /// alone — no re-fit. Because the internal `build_state` is pure, the result is
    /// bit-identical to the currently published fleet; the property tests
    /// use this to prove delta publication lossless.
    pub fn republish_full(&mut self) -> PublishStats {
        let changes: Vec<(u32, Arc<SnapshotState>, u64)> = self
            .shards
            .iter()
            .map(|s| (s.slot, Arc::new(build_state(s)), s.events_total))
            .collect();
        self.last_publish = self.shared.publish_delta(&changes);
        self.last_publish
    }

    /// A lock-free query endpoint over this service's published fleet.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader::new(Arc::clone(&self.shared))
    }

    /// Predicted fraction of requests meeting the query's SLA (plain,
    /// what-if rate, or erasure-coded), for the query's tenant.
    pub fn attainment(&self, query: &Query) -> Result<Prediction, ServeError> {
        let (rate_q, kind) = query.attainment_question()?;
        let slot = self.slot_of(query.tenant_id())?;
        timed_query(&self.obs, &self.shards[slot as usize].engine, |e| {
            e.answer(rate_q, kind)
        })
    }

    /// Predicted response-latency percentile for the query's tenant.
    pub fn latency_percentile(&self, query: &Query) -> Result<Prediction, ServeError> {
        let (rate_q, kind) = query.percentile_question()?;
        let slot = self.slot_of(query.tenant_id())?;
        timed_query(&self.obs, &self.shards[slot as usize].engine, |e| {
            e.answer(rate_q, kind)
        })
    }

    /// Overload-control headroom (largest admissible rate) for the
    /// query's tenant.
    pub fn admissible_rate(&self, query: &Query) -> Result<Prediction, ServeError> {
        let (rate_q, kind) = query.headroom_question()?;
        let slot = self.slot_of(query.tenant_id())?;
        timed_query(&self.obs, &self.shards[slot as usize].engine, |e| {
            e.answer(rate_q, kind)
        })
    }

    /// Bottleneck ranking for the query's tenant, worst device first.
    pub fn device_ranking(&self, query: &Query) -> Result<Vec<(usize, f64)>, ServeError> {
        let sla = query.ranking_sla()?;
        let slot = self.slot_of(query.tenant_id())?;
        timed_query(&self.obs, &self.shards[slot as usize].engine, |e| {
            e.bottlenecks(sla)
        })
    }

    /// Predicted fraction of requests meeting `sla` at the calibrated
    /// operating point (`default` tenant).
    pub fn predict(&self, sla: f64) -> Result<Prediction, ServeError> {
        timed_query(&self.obs, &self.shards[0].engine, |e| {
            e.fraction_meeting_sla(sla)
        })
    }

    /// What-if: fraction meeting `sla` at a hypothetical total rate
    /// (`default` tenant).
    pub fn predict_at_rate(&self, rate: f64, sla: f64) -> Result<Prediction, ServeError> {
        timed_query(&self.obs, &self.shards[0].engine, |e| {
            e.fraction_at_rate(rate, sla)
        })
    }

    /// Predicted response-latency percentile (e.g. `p = 0.95`), `default`
    /// tenant.
    pub fn percentile(&self, p: f64) -> Result<Prediction, ServeError> {
        timed_query(&self.obs, &self.shards[0].engine, |e| {
            e.latency_percentile(p)
        })
    }

    /// Overload-control headroom up to `upper` req/s (`default` tenant).
    pub fn headroom(&self, goal: SlaGoal, upper: f64) -> Result<Prediction, ServeError> {
        timed_query(&self.obs, &self.shards[0].engine, |e| {
            e.headroom(goal, upper)
        })
    }

    /// Fraction of erasure-coded `(launched, needed)` reads meeting `sla`
    /// (`default` tenant).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= needed <= launched` — network callers are
    /// validated at the gate.
    pub fn coded_fraction(
        &self,
        launched: u16,
        needed: u16,
        sla: f64,
    ) -> Result<Prediction, ServeError> {
        timed_query(&self.obs, &self.shards[0].engine, |e| {
            e.coded_fraction(launched, needed, sla)
        })
    }

    /// Latency percentile of erasure-coded `(launched, needed)` reads
    /// (`default` tenant).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= needed <= launched` — network callers are
    /// validated at the gate.
    pub fn coded_percentile(
        &self,
        launched: u16,
        needed: u16,
        p: f64,
    ) -> Result<Prediction, ServeError> {
        timed_query(&self.obs, &self.shards[0].engine, |e| {
            e.coded_percentile(launched, needed, p)
        })
    }

    /// Bottleneck ranking, worst device first (`default` tenant).
    pub fn bottlenecks(&self, sla: f64) -> Result<Vec<(usize, f64)>, ServeError> {
        timed_query(&self.obs, &self.shards[0].engine, |e| e.bottlenecks(sla))
    }

    /// Submits a batch what-if sweep of the `default` tenant to the worker
    /// pool (non-blocking).
    pub fn sweep(&self, rates: &[f64], slas: Vec<f64>) -> Result<SweepHandle, ServeError> {
        let snap = self.shards[0]
            .engine
            .snapshot()
            .ok_or(ServeError::NotCalibrated)?;
        Ok(self
            .pool
            .submit(snap.params.clone(), self.config.variant, rates, slas))
    }

    /// Direct access to the `default` tenant's memoized engine (e.g. for
    /// cache statistics — the cache is shared fleet-wide).
    pub fn engine(&self) -> &PredictionEngine {
        &self.shards[0].engine
    }

    fn status_slot(&self, slot: u32) -> ServiceStatus {
        let shard = &self.shards[slot as usize];
        let predictions: Vec<Option<f64>> = self
            .config
            .slas
            .iter()
            .map(|&sla| shard.engine.fraction_meeting_sla(sla).ok().map(|p| p.value))
            .collect();
        let snap = shard.engine.snapshot();
        ServiceStatus {
            event_time: self.now,
            epoch: snap.map(|s| s.epoch),
            fitted_at: snap.map(|s| s.fitted_at),
            stale: snap.map(|s| s.stale).unwrap_or(false),
            last_fit_error: shard.last_fit_error.clone(),
            engine: shard.engine.health(),
            drift: shard.drift.report(self.now, &predictions),
        }
    }

    /// Health summary of the `default` tenant: epoch, staleness, cache
    /// counters, drift verdicts.
    pub fn status(&self) -> ServiceStatus {
        self.status_slot(0)
    }

    /// [`status`](SlaService::status) for an arbitrary tenant.
    pub fn status_for(&self, tenant: &TenantId) -> Result<ServiceStatus, ServeError> {
        Ok(self.status_slot(self.slot_of(tenant)?))
    }

    /// Moves the service onto its own thread behind a command channel.
    pub fn spawn(self) -> ServiceHandle {
        let (tx, rx) = channel();
        let reader = self.reader();
        let join = std::thread::Builder::new()
            .name("cos-serve".into())
            .spawn(move || run_service(self, rx))
            .expect("spawn service thread");
        ServiceHandle {
            client: ServiceClient { tx, reader },
            join: Some(join),
        }
    }
}

/// Times one engine query and records its latency into the cache-hit or
/// cache-miss histogram, classified by whether the shared cache's miss
/// counter advanced (i.e. a fresh inversion ran) during the call.
fn timed_query<T>(
    obs: &ServeObs,
    engine: &PredictionEngine,
    query: impl FnOnce(&PredictionEngine) -> T,
) -> T {
    let misses_before = engine.stats().misses;
    let start = Instant::now();
    let out = query(engine);
    let elapsed = start.elapsed();
    if engine.stats().misses > misses_before {
        obs.query_miss.record_duration(elapsed);
    } else {
        obs.query_hit.record_duration(elapsed);
    }
    out
}

enum Command {
    /// A telemetry batch, when it was sent, and who waits for its ingest.
    Ingest(TenantId, Vec<TelemetryEvent>, Instant, Option<Sender<()>>),
    Refit(Sender<bool>),
    Attainment(Query, Sender<Result<Prediction, ServeError>>),
    Percentile(Query, Sender<Result<Prediction, ServeError>>),
    Headroom(Query, Sender<Result<Prediction, ServeError>>),
    Ranking(Query, Sender<Result<Vec<(usize, f64)>, ServeError>>),
    Sweep {
        rates: Vec<f64>,
        slas: Vec<f64>,
        reply: Sender<Result<Vec<RatePoint>, ServeError>>,
    },
    Status(TenantId, Sender<Result<ServiceStatus, ServeError>>),
    Flush(Sender<()>),
    Shutdown,
}

fn run_service(mut service: SlaService, rx: Receiver<Command>) -> SlaService {
    while let Ok(command) = rx.recv() {
        match command {
            Command::Ingest(tenant, events, sent_at, reply) => {
                service.obs.ingest_lag.record_duration(sent_at.elapsed());
                service.ingest_batch(&tenant, events);
                if let Some(reply) = reply {
                    let _ = reply.send(());
                }
            }
            Command::Refit(reply) => {
                let _ = reply.send(service.refit_now());
            }
            Command::Attainment(query, reply) => {
                let _ = reply.send(service.attainment(&query));
            }
            Command::Percentile(query, reply) => {
                let _ = reply.send(service.latency_percentile(&query));
            }
            Command::Headroom(query, reply) => {
                let _ = reply.send(service.admissible_rate(&query));
            }
            Command::Ranking(query, reply) => {
                let _ = reply.send(service.device_ranking(&query));
            }
            Command::Sweep { rates, slas, reply } => {
                // Submit, then collect off-thread work while staying
                // responsive is not possible without select; the pool does
                // the evaluation, this thread only blocks on collection.
                let _ = reply.send(service.sweep(&rates, slas).map(SweepHandle::wait));
            }
            Command::Status(tenant, reply) => {
                let _ = reply.send(service.status_for(&tenant));
            }
            Command::Flush(reply) => {
                let _ = reply.send(());
            }
            Command::Shutdown => break,
        }
    }
    // Snapshot readers outlive the thread; flip them to `Disconnected` so
    // they agree with the now-dead command channel.
    service.shared.close();
    service
}

/// Tenant-scoped ingest-only endpoint for telemetry producers. Sends never
/// fail: once the service is gone, records are dropped (a dead consumer
/// must not crash the producer).
#[derive(Clone)]
pub struct TelemetrySender {
    tx: Sender<Command>,
    tenant: TenantId,
}

impl TelemetrySender {
    /// Feeds one event to the service, tagged with this sender's tenant.
    pub fn send(&self, event: TelemetryEvent) {
        let _ = self.tx.send(Command::Ingest(
            self.tenant.clone(),
            vec![event],
            Instant::now(),
            None,
        ));
    }

    /// The tenant this sender's events are attributed to.
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }
}

/// Cloneable query endpoint to a spawned [`SlaService`]: everything a
/// concurrent consumer (e.g. one `cos-gate` connection per thread) needs —
/// ingest, queries, status — without ownership of the service thread.
/// Cloning shares the one command channel; the service stays single-
/// threaded and FIFO-ordered per sender. Once the owning [`ServiceHandle`]
/// shuts the service down, every call returns
/// [`ServeError::Disconnected`].
#[derive(Clone)]
pub struct ServiceClient {
    tx: Sender<Command>,
    reader: SnapshotReader,
}

impl ServiceClient {
    fn ask<T>(&self, build: impl FnOnce(Sender<T>) -> Command) -> Result<T, ServeError> {
        let (reply, rx) = channel();
        self.tx
            .send(build(reply))
            .map_err(|_| ServeError::Disconnected)?;
        rx.recv().map_err(|_| ServeError::Disconnected)
    }

    /// The lock-free snapshot endpoint: evaluates queries on the calling
    /// thread against the worker's published fleet, bit-identical to the
    /// channel methods below. Prefer it for read-heavy consumers.
    pub fn reader(&self) -> SnapshotReader {
        self.reader.clone()
    }

    /// A cloneable ingest-only endpoint for the `default` tenant.
    pub fn telemetry_sender(&self) -> TelemetrySender {
        self.telemetry_sender_for(TenantId::default_tenant())
    }

    /// A cloneable ingest-only endpoint attributing events to `tenant`.
    pub fn telemetry_sender_for(&self, tenant: TenantId) -> TelemetrySender {
        TelemetrySender {
            tx: self.tx.clone(),
            tenant,
        }
    }

    /// Feeds one telemetry event for the `default` tenant (non-blocking).
    pub fn ingest(&self, event: TelemetryEvent) -> Result<(), ServeError> {
        self.ingest_for(&TenantId::default_tenant(), event)
    }

    /// Feeds one telemetry event for `tenant` (non-blocking). The tenant's
    /// shard materializes on first sight.
    pub fn ingest_for(&self, tenant: &TenantId, event: TelemetryEvent) -> Result<(), ServeError> {
        self.tx
            .send(Command::Ingest(
                tenant.clone(),
                vec![event],
                Instant::now(),
                None,
            ))
            .map_err(|_| ServeError::Disconnected)
    }

    /// Feeds a batch of events for `tenant` as one command and returns
    /// once the service has ingested all of them (re-fitting wherever the
    /// event-time cadence falls inside the batch). Like
    /// [`flush`](ServiceClient::flush), the return is a happens-before
    /// edge for every later query on any client. The tenant's shard
    /// materializes with its first event; an empty batch creates nothing.
    pub fn ingest_batch_for(
        &self,
        tenant: &TenantId,
        events: Vec<TelemetryEvent>,
    ) -> Result<(), ServeError> {
        self.ask(|reply| Command::Ingest(tenant.clone(), events, Instant::now(), Some(reply)))
    }

    /// Waits until every previously sent event has been processed.
    pub fn flush(&self) -> Result<(), ServeError> {
        self.ask(Command::Flush)
    }

    /// Forces a batched re-fit; `Ok(true)` if a new epoch was installed
    /// for the `default` tenant.
    pub fn refit_now(&self) -> Result<bool, ServeError> {
        self.ask(Command::Refit)
    }

    /// Predicted fraction of requests meeting the query's SLA (plain,
    /// what-if rate, or erasure-coded), for the query's tenant.
    pub fn attainment(&self, query: Query) -> Result<Prediction, ServeError> {
        self.ask(|reply| Command::Attainment(query, reply))?
    }

    /// Predicted response-latency percentile for the query's tenant.
    pub fn latency_percentile(&self, query: Query) -> Result<Prediction, ServeError> {
        self.ask(|reply| Command::Percentile(query, reply))?
    }

    /// Overload-control headroom (largest admissible rate) for the
    /// query's tenant.
    pub fn admissible_rate(&self, query: Query) -> Result<Prediction, ServeError> {
        self.ask(|reply| Command::Headroom(query, reply))?
    }

    /// Bottleneck ranking for the query's tenant, worst device first.
    pub fn device_ranking(&self, query: Query) -> Result<Vec<(usize, f64)>, ServeError> {
        self.ask(|reply| Command::Ranking(query, reply))?
    }

    /// Batch what-if sweep of the `default` tenant, evaluated on the
    /// worker pool.
    pub fn sweep(&self, rates: Vec<f64>, slas: Vec<f64>) -> Result<Vec<RatePoint>, ServeError> {
        self.ask(|reply| Command::Sweep { rates, slas, reply })?
    }

    /// Health summary of the `default` tenant.
    pub fn status(&self) -> Result<ServiceStatus, ServeError> {
        self.ask(|reply| Command::Status(TenantId::default_tenant(), reply))?
    }

    /// Health summary of an arbitrary tenant.
    pub fn status_for(&self, tenant: &TenantId) -> Result<ServiceStatus, ServeError> {
        self.ask(|reply| Command::Status(tenant.clone(), reply))?
    }

    /// Snapshot-path [`attainment`](ServiceClient::attainment): evaluated
    /// on the calling thread, no channel round-trip, bit-identical answer.
    pub fn read_attainment(&self, query: &Query) -> Result<Prediction, ServeError> {
        self.reader.attainment(query)
    }

    /// Snapshot-path
    /// [`latency_percentile`](ServiceClient::latency_percentile).
    pub fn read_latency_percentile(&self, query: &Query) -> Result<Prediction, ServeError> {
        self.reader.latency_percentile(query)
    }

    /// Snapshot-path [`admissible_rate`](ServiceClient::admissible_rate).
    pub fn read_admissible_rate(&self, query: &Query) -> Result<Prediction, ServeError> {
        self.reader.admissible_rate(query)
    }

    /// Snapshot-path [`device_ranking`](ServiceClient::device_ranking).
    pub fn read_device_ranking(&self, query: &Query) -> Result<Vec<(usize, f64)>, ServeError> {
        self.reader.device_ranking(query)
    }

    /// Snapshot-path [`status`](ServiceClient::status): assembled from
    /// the published state without a service-thread round-trip. Drift
    /// verdicts are as of the last re-fit attempt.
    pub fn read_status(&self) -> Result<ServiceStatus, ServeError> {
        self.reader.status()
    }

    /// Snapshot-path [`status_for`](ServiceClient::status_for).
    pub fn read_status_for(&self, tenant: &TenantId) -> Result<ServiceStatus, ServeError> {
        self.reader.status_for(tenant)
    }

    /// Predicted fraction meeting `sla` at the calibrated operating point.
    #[deprecated(note = "use attainment(Query::new().sla(sla))")]
    pub fn predict(&self, sla: f64) -> Result<Prediction, ServeError> {
        self.attainment(Query::new().sla(sla))
    }

    /// What-if: fraction meeting `sla` at a hypothetical total rate.
    #[deprecated(note = "use attainment(Query::new().sla(sla).rate(rate))")]
    pub fn predict_at_rate(&self, rate: f64, sla: f64) -> Result<Prediction, ServeError> {
        self.attainment(Query::new().sla(sla).rate(rate))
    }

    /// Predicted response-latency percentile.
    #[deprecated(note = "use latency_percentile(Query::new().p(p))")]
    pub fn percentile(&self, p: f64) -> Result<Prediction, ServeError> {
        self.latency_percentile(Query::new().p(p))
    }

    /// Overload-control headroom up to `upper` req/s.
    #[deprecated(note = "use admissible_rate(Query::new().sla(..).target(..).upper(upper))")]
    pub fn headroom(&self, goal: SlaGoal, upper: f64) -> Result<Prediction, ServeError> {
        self.admissible_rate(
            Query::new()
                .sla(goal.sla)
                .target(goal.target_fraction)
                .upper(upper),
        )
    }

    /// Fraction of erasure-coded `(launched, needed)` reads meeting `sla`.
    #[deprecated(note = "use attainment(Query::new().sla(sla).n_k(launched, needed))")]
    pub fn coded_fraction(
        &self,
        launched: u16,
        needed: u16,
        sla: f64,
    ) -> Result<Prediction, ServeError> {
        self.attainment(Query::new().sla(sla).n_k(launched, needed))
    }

    /// Latency percentile of erasure-coded `(launched, needed)` reads.
    #[deprecated(note = "use latency_percentile(Query::new().p(p).n_k(launched, needed))")]
    pub fn coded_percentile(
        &self,
        launched: u16,
        needed: u16,
        p: f64,
    ) -> Result<Prediction, ServeError> {
        self.latency_percentile(Query::new().p(p).n_k(launched, needed))
    }

    /// Bottleneck ranking, worst device first.
    #[deprecated(note = "use device_ranking(Query::new().sla(sla))")]
    pub fn bottlenecks(&self, sla: f64) -> Result<Vec<(usize, f64)>, ServeError> {
        self.device_ranking(Query::new().sla(sla))
    }

    /// Snapshot-path predict.
    #[deprecated(note = "use read_attainment(&Query::new().sla(sla))")]
    pub fn read_predict(&self, sla: f64) -> Result<Prediction, ServeError> {
        self.reader.attainment(&Query::new().sla(sla))
    }

    /// Snapshot-path predict-at-rate.
    #[deprecated(note = "use read_attainment(&Query::new().sla(sla).rate(rate))")]
    pub fn read_predict_at_rate(&self, rate: f64, sla: f64) -> Result<Prediction, ServeError> {
        self.reader.attainment(&Query::new().sla(sla).rate(rate))
    }

    /// Snapshot-path percentile.
    #[deprecated(note = "use read_latency_percentile(&Query::new().p(p))")]
    pub fn read_percentile(&self, p: f64) -> Result<Prediction, ServeError> {
        self.reader.latency_percentile(&Query::new().p(p))
    }

    /// Snapshot-path headroom.
    #[deprecated(note = "use read_admissible_rate(&Query::new().sla(..).target(..).upper(upper))")]
    pub fn read_headroom(&self, goal: SlaGoal, upper: f64) -> Result<Prediction, ServeError> {
        self.reader.admissible_rate(
            &Query::new()
                .sla(goal.sla)
                .target(goal.target_fraction)
                .upper(upper),
        )
    }

    /// Snapshot-path coded fraction.
    #[deprecated(note = "use read_attainment(&Query::new().sla(sla).n_k(launched, needed))")]
    pub fn read_coded_fraction(
        &self,
        launched: u16,
        needed: u16,
        sla: f64,
    ) -> Result<Prediction, ServeError> {
        self.reader
            .attainment(&Query::new().sla(sla).n_k(launched, needed))
    }

    /// Snapshot-path coded percentile.
    #[deprecated(note = "use read_latency_percentile(&Query::new().p(p).n_k(launched, needed))")]
    pub fn read_coded_percentile(
        &self,
        launched: u16,
        needed: u16,
        p: f64,
    ) -> Result<Prediction, ServeError> {
        self.reader
            .latency_percentile(&Query::new().p(p).n_k(launched, needed))
    }

    /// Snapshot-path bottleneck ranking.
    #[deprecated(note = "use read_device_ranking(&Query::new().sla(sla))")]
    pub fn read_bottlenecks(&self, sla: f64) -> Result<Vec<(usize, f64)>, ServeError> {
        self.reader.device_ranking(&Query::new().sla(sla))
    }
}

/// Owning handle to a spawned [`SlaService`]: a [`ServiceClient`] plus the
/// join handle. Dropping it shuts the service down.
pub struct ServiceHandle {
    client: ServiceClient,
    join: Option<JoinHandle<SlaService>>,
}

impl ServiceHandle {
    /// A cloneable query endpoint sharing this handle's command channel.
    pub fn client(&self) -> ServiceClient {
        self.client.clone()
    }

    /// A cloneable ingest-only endpoint for the `default` tenant.
    pub fn telemetry_sender(&self) -> TelemetrySender {
        self.client.telemetry_sender()
    }

    /// A cloneable ingest-only endpoint attributing events to `tenant`.
    pub fn telemetry_sender_for(&self, tenant: TenantId) -> TelemetrySender {
        self.client.telemetry_sender_for(tenant)
    }

    /// The lock-free snapshot endpoint (see [`ServiceClient::reader`]).
    pub fn reader(&self) -> SnapshotReader {
        self.client.reader()
    }

    /// Feeds one telemetry event for the `default` tenant (non-blocking).
    pub fn ingest(&self, event: TelemetryEvent) -> Result<(), ServeError> {
        self.client.ingest(event)
    }

    /// Feeds one telemetry event for `tenant` (non-blocking).
    pub fn ingest_for(&self, tenant: &TenantId, event: TelemetryEvent) -> Result<(), ServeError> {
        self.client.ingest_for(tenant, event)
    }

    /// Waits until every previously sent event has been processed.
    pub fn flush(&self) -> Result<(), ServeError> {
        self.client.flush()
    }

    /// Forces a batched re-fit; `Ok(true)` if a new epoch was installed
    /// for the `default` tenant.
    pub fn refit_now(&self) -> Result<bool, ServeError> {
        self.client.refit_now()
    }

    /// Predicted fraction of requests meeting the query's SLA, for the
    /// query's tenant.
    pub fn attainment(&self, query: Query) -> Result<Prediction, ServeError> {
        self.client.attainment(query)
    }

    /// Predicted response-latency percentile for the query's tenant.
    pub fn latency_percentile(&self, query: Query) -> Result<Prediction, ServeError> {
        self.client.latency_percentile(query)
    }

    /// Overload-control headroom for the query's tenant.
    pub fn admissible_rate(&self, query: Query) -> Result<Prediction, ServeError> {
        self.client.admissible_rate(query)
    }

    /// Bottleneck ranking for the query's tenant, worst device first.
    pub fn device_ranking(&self, query: Query) -> Result<Vec<(usize, f64)>, ServeError> {
        self.client.device_ranking(query)
    }

    /// Batch what-if sweep of the `default` tenant.
    pub fn sweep(&self, rates: Vec<f64>, slas: Vec<f64>) -> Result<Vec<RatePoint>, ServeError> {
        self.client.sweep(rates, slas)
    }

    /// Health summary of the `default` tenant.
    pub fn status(&self) -> Result<ServiceStatus, ServeError> {
        self.client.status()
    }

    /// Health summary of an arbitrary tenant.
    pub fn status_for(&self, tenant: &TenantId) -> Result<ServiceStatus, ServeError> {
        self.client.status_for(tenant)
    }

    /// Predicted fraction meeting `sla` at the calibrated operating point.
    #[deprecated(note = "use attainment(Query::new().sla(sla))")]
    pub fn predict(&self, sla: f64) -> Result<Prediction, ServeError> {
        self.client.attainment(Query::new().sla(sla))
    }

    /// What-if: fraction meeting `sla` at a hypothetical total rate.
    #[deprecated(note = "use attainment(Query::new().sla(sla).rate(rate))")]
    pub fn predict_at_rate(&self, rate: f64, sla: f64) -> Result<Prediction, ServeError> {
        self.client.attainment(Query::new().sla(sla).rate(rate))
    }

    /// Predicted response-latency percentile.
    #[deprecated(note = "use latency_percentile(Query::new().p(p))")]
    pub fn percentile(&self, p: f64) -> Result<Prediction, ServeError> {
        self.client.latency_percentile(Query::new().p(p))
    }

    /// Overload-control headroom up to `upper` req/s.
    #[deprecated(note = "use admissible_rate(Query::new().sla(..).target(..).upper(upper))")]
    pub fn headroom(&self, goal: SlaGoal, upper: f64) -> Result<Prediction, ServeError> {
        self.client.admissible_rate(
            Query::new()
                .sla(goal.sla)
                .target(goal.target_fraction)
                .upper(upper),
        )
    }

    /// Fraction of erasure-coded `(launched, needed)` reads meeting `sla`.
    #[deprecated(note = "use attainment(Query::new().sla(sla).n_k(launched, needed))")]
    pub fn coded_fraction(
        &self,
        launched: u16,
        needed: u16,
        sla: f64,
    ) -> Result<Prediction, ServeError> {
        self.client
            .attainment(Query::new().sla(sla).n_k(launched, needed))
    }

    /// Latency percentile of erasure-coded `(launched, needed)` reads.
    #[deprecated(note = "use latency_percentile(Query::new().p(p).n_k(launched, needed))")]
    pub fn coded_percentile(
        &self,
        launched: u16,
        needed: u16,
        p: f64,
    ) -> Result<Prediction, ServeError> {
        self.client
            .latency_percentile(Query::new().p(p).n_k(launched, needed))
    }

    /// Bottleneck ranking, worst device first.
    #[deprecated(note = "use device_ranking(Query::new().sla(sla))")]
    pub fn bottlenecks(&self, sla: f64) -> Result<Vec<(usize, f64)>, ServeError> {
        self.client.device_ranking(Query::new().sla(sla))
    }

    /// Stops the service and returns its final state. Outstanding
    /// [`ServiceClient`]s observe [`ServeError::Disconnected`] afterwards.
    pub fn shutdown(mut self) -> Result<SlaService, ServeError> {
        self.client
            .tx
            .send(Command::Shutdown)
            .map_err(|_| ServeError::Disconnected)?;
        self.join
            .take()
            .ok_or(ServeError::Disconnected)?
            .join()
            .map_err(|_| ServeError::Disconnected)
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        let _ = self.client.tx.send(Command::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::OpClass;
    use cos_distr::{Degenerate, Gamma};
    use cos_queueing::from_distribution;

    fn base() -> CalibrationBase {
        CalibrationBase {
            index_law: from_distribution(Gamma::new(3.0, 250.0)),
            meta_law: from_distribution(Gamma::new(2.5, 312.5)),
            data_law: from_distribution(Gamma::new(3.5, 245.0)),
            parse_be: from_distribution(Degenerate::new(0.0005)),
            parse_fe: from_distribution(Degenerate::new(0.0003)),
            devices: 2,
            processes_per_device: 1,
            frontend_processes: 3,
        }
    }

    /// A deterministic steady stream at `rate` req/s per device with ~30%
    /// disk misses and bimodal completion latencies.
    fn events(rate: f64, duration: f64, devices: usize) -> Vec<TelemetryEvent> {
        let dt = 1.0 / rate;
        let mut out = Vec::new();
        let mut i = 0u64;
        let mut t = 0.0;
        while t < duration {
            for d in 0..devices {
                out.push(TelemetryEvent::Arrival { at: t, device: d });
                out.push(TelemetryEvent::DataRead { at: t, device: d });
                for class in OpClass::ALL {
                    let missed = i % 10 < 3;
                    let latency = if missed { 0.010 } else { 0.000_002 };
                    out.push(TelemetryEvent::Op {
                        at: t,
                        device: d,
                        class,
                        latency,
                    });
                    i += 1;
                }
                let slow = i % 10 < 3;
                out.push(TelemetryEvent::Completion {
                    arrival: t,
                    latency: if slow { 0.030 } else { 0.004 },
                    device: d,
                });
            }
            t += dt;
        }
        out
    }

    #[test]
    fn service_calibrates_from_the_stream_and_answers() {
        let mut service = SlaService::new(base(), ServeConfig::default());
        assert_eq!(service.predict(0.05), Err(ServeError::NotCalibrated));
        for ev in events(40.0, 20.0, 2) {
            service.ingest(ev);
        }
        let p = service.predict(0.05).unwrap();
        assert!(p.value > 0.0 && p.value <= 1.0);
        assert!(!p.stale);
        let status = service.status();
        assert!(status.epoch.is_some());
        assert_eq!(status.drift.len(), 3);
        // ~30% of completions at 30 ms: observed attainment of the 10 ms
        // SLA is ~0.7.
        let obs = status.drift[0].observed.unwrap();
        assert!((obs - 0.7).abs() < 0.05, "observed {obs}");
    }

    #[test]
    fn quiet_stream_degrades_to_stale_not_error() {
        let mut service = SlaService::new(base(), ServeConfig::default());
        for ev in events(40.0, 20.0, 2) {
            service.ingest(ev);
        }
        let fresh = service.predict(0.05).unwrap();
        // One lone event far in the future: the windows have emptied, the
        // forced re-fit fails, and the old epoch serves with the flag set.
        service.ingest(TelemetryEvent::Arrival {
            at: 500.0,
            device: 0,
        });
        assert!(!service.refit_now());
        let stale = service.predict(0.05).unwrap();
        assert!(stale.stale);
        assert_eq!(stale.epoch, fresh.epoch);
        let status = service.status();
        assert!(status.stale);
        assert!(status.last_fit_error.is_some());
    }

    #[test]
    fn sweep_and_headroom_run_against_the_live_epoch() {
        let mut service = SlaService::new(base(), ServeConfig::default());
        for ev in events(40.0, 20.0, 2) {
            service.ingest(ev);
        }
        let points = service
            .sweep(&[40.0, 80.0, 160.0], vec![0.05])
            .unwrap()
            .wait();
        assert_eq!(points.len(), 3);
        assert!(points[0].fractions.is_some());
        let goal = SlaGoal::new(0.100, 0.90);
        let head = service.headroom(goal, 2000.0);
        if let Ok(h) = head {
            assert!(h.value > 0.0);
        }
    }

    #[test]
    fn spawned_service_round_trips_over_the_channel() {
        let service = SlaService::new(base(), ServeConfig::default());
        let handle = service.spawn();
        let sender = handle.telemetry_sender();
        let feeder = std::thread::spawn(move || {
            for ev in events(40.0, 20.0, 2) {
                sender.send(ev);
            }
        });
        feeder.join().unwrap();
        handle.flush().unwrap();
        handle.refit_now().unwrap();
        let p = handle.attainment(Query::new().sla(0.05)).unwrap();
        assert!(p.value > 0.0);
        let again = handle.attainment(Query::new().sla(0.05)).unwrap();
        assert_eq!(p.value.to_bits(), again.value.to_bits());
        let status = handle.status().unwrap();
        assert!(status.engine.cache.hits >= 1);
        let points = handle.sweep(vec![40.0, 80.0], vec![0.05, 0.10]).unwrap();
        assert_eq!(points.len(), 2);
        let final_state = handle.shutdown().unwrap();
        assert!(final_state.event_time() >= 19.0);
    }

    #[test]
    fn cloned_clients_share_the_service_and_outlive_queries() {
        let handle = SlaService::new(base(), ServeConfig::default()).spawn();
        let client = handle.client();
        for ev in events(40.0, 20.0, 2) {
            client.ingest(ev).unwrap();
        }
        client.flush().unwrap();
        let answers: Vec<u64> = (0..4)
            .map(|_| {
                let c = client.clone();
                std::thread::spawn(move || {
                    c.attainment(Query::new().sla(0.05))
                        .unwrap()
                        .value
                        .to_bits()
                })
            })
            .map(|j| j.join().unwrap())
            .collect();
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
        let ranked = client.device_ranking(Query::new().sla(0.05)).unwrap();
        assert_eq!(ranked.len(), 2, "one entry per device");
        assert!(ranked[0].1 <= ranked[1].1, "worst device first");
        drop(handle);
        assert_eq!(
            client.attainment(Query::new().sla(0.05)),
            Err(ServeError::Disconnected)
        );
        assert!(matches!(client.status(), Err(ServeError::Disconnected)));
    }

    #[test]
    fn instruments_record_refits_queries_sweeps_and_ingest() {
        let config = ServeConfig::default();
        let registry = config.obs.clone();
        let mut service = SlaService::new(base(), config);
        let events: Vec<_> = events(40.0, 20.0, 2);
        let n_events = events.len() as u64;
        for ev in events {
            service.ingest(ev);
        }
        service.refit_now();
        let first = service.predict(0.05).unwrap();
        let again = service.predict(0.05).unwrap();
        assert_eq!(first.value.to_bits(), again.value.to_bits());
        service.sweep(&[40.0, 80.0], vec![0.05]).unwrap().wait();

        assert!(registry.merged_histogram("cos_serve_refit_seconds").count() >= 1);
        let miss = registry.merged_histogram("cos_serve_query_seconds");
        assert!(miss.count() >= 2, "both queries timed");
        assert_eq!(
            registry
                .merged_histogram("cos_sweep_queue_wait_seconds")
                .count(),
            2
        );
        let text = registry.render();
        assert!(text.contains("cos_serve_ingest_events_total"));
        assert!(text.contains(&format!("cos_serve_ingest_events_total {n_events}")));
        assert!(text.contains("cos_serve_query_seconds_bucket{cache=\"hit\",le="));
        assert!(text.contains("cos_serve_query_seconds_bucket{cache=\"miss\",le="));
    }

    #[test]
    fn spawned_service_records_ingest_lag() {
        let config = ServeConfig::default();
        let registry = config.obs.clone();
        let handle = SlaService::new(base(), config).spawn();
        let client = handle.client();
        let singles = events(40.0, 5.0, 2);
        for &ev in &singles {
            handle.ingest(ev).unwrap();
        }
        handle.telemetry_sender().send(singles[0]);
        client
            .ingest_batch_for(&TenantId::default_tenant(), singles.clone())
            .unwrap();
        let lag = registry.merged_histogram("cos_serve_ingest_lag_seconds");
        assert_eq!(
            lag.count(),
            singles.len() as u64 + 2,
            "one lag sample per ingest command, however many events it carries"
        );
        drop(handle);
    }

    /// What a published fleet says about each tenant, every `f64` as bits.
    fn fleet_fingerprint(reader: &SnapshotReader) -> Vec<(String, Option<u64>, String, u64, u64)> {
        reader
            .fleet()
            .unwrap()
            .entries()
            .iter()
            .map(|e| {
                let snapshot = e.state.snapshot.as_ref();
                (
                    e.tenant.to_string(),
                    snapshot.map(|s| s.epoch),
                    // `Debug` prints every f64 in shortest round-trip form.
                    format!("{:?}", snapshot.map(|s| (&s.params, s.fitted_at))),
                    e.generation,
                    e.events_total,
                )
            })
            .collect()
    }

    #[test]
    fn a_batch_refits_where_per_event_ingest_does() {
        // 12 s of event time crosses the 5 s refit cadence twice inside
        // the one batch.
        let stream = events(40.0, 12.0, 2);
        let blue = TenantId::new("blue").unwrap();

        let batched = SlaService::new(base(), ServeConfig::default()).spawn();
        batched
            .client()
            .ingest_batch_for(&blue, stream.clone())
            .unwrap();
        let per_event = SlaService::new(base(), ServeConfig::default()).spawn();
        for &ev in &stream {
            per_event.ingest_for(&blue, ev).unwrap();
        }
        per_event.flush().unwrap();

        let (a, b) = (batched.reader(), per_event.reader());
        assert_eq!(a.generation(), b.generation(), "same publishes");
        assert!(a.generation() >= 2, "the cadence fired inside the batch");
        let fleet = fleet_fingerprint(&a);
        assert_eq!(fleet, fleet_fingerprint(&b));
        assert!(fleet[1].1.is_some(), "blue calibrated: {fleet:?}");
        let query = Query::tenant(blue).sla(0.05);
        assert_eq!(
            a.attainment(&query).unwrap().value.to_bits(),
            b.attainment(&query).unwrap().value.to_bits()
        );
        let (a, b) = (batched.shutdown().unwrap(), per_event.shutdown().unwrap());
        assert_eq!(a.event_time().to_bits(), b.event_time().to_bits());
    }

    #[test]
    fn an_empty_batch_creates_no_tenant() {
        let handle = SlaService::new(base(), ServeConfig::default()).spawn();
        let ghost = TenantId::new("ghost").unwrap();
        handle
            .client()
            .ingest_batch_for(&ghost, Vec::new())
            .unwrap();
        assert!(handle.reader().fleet().unwrap().get(&ghost).is_none());
        assert!(matches!(
            handle.status_for(&ghost),
            Err(ServeError::UnknownTenant { .. })
        ));
        assert_eq!(handle.shutdown().unwrap().tenants(), 1, "default only");
    }

    #[test]
    fn builder_accepts_defaults_and_rejects_nonsense() {
        let built = ServeConfig::builder().build().unwrap();
        assert_eq!(built.slas, ServeConfig::default().slas);
        assert!(built.refit_workers >= 1);

        let tweaked = ServeConfig::builder()
            .slas(vec![0.020])
            .refit_interval(1.0)
            .sweep_workers(4)
            .refit_workers(3)
            .build()
            .unwrap();
        assert_eq!(tweaked.slas, vec![0.020]);
        assert_eq!(tweaked.sweep_workers, 4);
        assert_eq!(tweaked.refit_workers, 3);

        let cases: &[(ServeConfigBuilder, &str)] = &[
            (ServeConfig::builder().slas(vec![]), "slas"),
            (ServeConfig::builder().slas(vec![0.05, -0.01]), "slas"),
            (ServeConfig::builder().slas(vec![f64::NAN]), "slas"),
            (ServeConfig::builder().refit_interval(0.0), "refit_interval"),
            (
                ServeConfig::builder().refit_interval(f64::INFINITY),
                "refit_interval",
            ),
            (ServeConfig::builder().sweep_workers(0), "sweep_workers"),
            (ServeConfig::builder().refit_workers(0), "refit_workers"),
            (
                ServeConfig::builder().calibrator(CalibratorConfig {
                    window: 0.0,
                    ..CalibratorConfig::default()
                }),
                "calibrator.window",
            ),
            (
                ServeConfig::builder().calibrator(CalibratorConfig {
                    buckets: 0,
                    ..CalibratorConfig::default()
                }),
                "calibrator.buckets",
            ),
            (
                ServeConfig::builder().drift(DriftConfig {
                    window: -1.0,
                    ..DriftConfig::default()
                }),
                "drift.window",
            ),
            (
                ServeConfig::builder().drift(DriftConfig {
                    buckets: 0,
                    ..DriftConfig::default()
                }),
                "drift.buckets",
            ),
        ];
        for (builder, field) in cases {
            let e = builder.clone().build().unwrap_err();
            assert_eq!(e.field, *field);
            assert!(e.to_string().contains("ServeConfig."), "{e}");
        }
    }

    #[test]
    fn coded_queries_agree_across_channel_and_snapshot_paths() {
        let handle = SlaService::new(base(), ServeConfig::default()).spawn();
        let client = handle.client();
        for ev in events(40.0, 20.0, 2) {
            client.ingest(ev).unwrap();
        }
        client.flush().unwrap();
        client.refit_now().unwrap();

        let frac = client.attainment(Query::new().sla(0.05).n_k(4, 2)).unwrap();
        assert!(frac.value > 0.0 && frac.value <= 1.0);
        let via_reader = client
            .read_attainment(&Query::new().sla(0.05).n_k(4, 2))
            .unwrap();
        assert_eq!(frac.value.to_bits(), via_reader.value.to_bits());

        let p99 = client
            .latency_percentile(Query::new().p(0.99).n_k(4, 2))
            .unwrap();
        assert!(p99.value > 0.0);
        let p99_reader = client
            .read_latency_percentile(&Query::new().p(0.99).n_k(4, 2))
            .unwrap();
        assert_eq!(p99.value.to_bits(), p99_reader.value.to_bits());

        // Needing more of the launched chunks (a max-like join) can only
        // slow the read down: p99 of a 4-of-4 join dominates 2-of-4.
        let p99_44 = client
            .latency_percentile(Query::new().p(0.99).n_k(4, 4))
            .unwrap();
        assert!(p99_44.value >= p99.value);
        drop(handle);
    }

    #[test]
    #[allow(deprecated)]
    fn deprecated_shims_are_bit_identical_to_the_query_path() {
        let handle = SlaService::new(base(), ServeConfig::default()).spawn();
        let client = handle.client();
        for ev in events(40.0, 20.0, 2) {
            client.ingest(ev).unwrap();
        }
        client.flush().unwrap();
        client.refit_now().unwrap();

        let bits = |p: Prediction| p.value.to_bits();
        assert_eq!(
            bits(client.predict(0.05).unwrap()),
            bits(client.attainment(Query::new().sla(0.05)).unwrap())
        );
        assert_eq!(
            bits(client.predict_at_rate(150.0, 0.05).unwrap()),
            bits(
                client
                    .attainment(Query::new().sla(0.05).rate(150.0))
                    .unwrap()
            )
        );
        assert_eq!(
            bits(client.percentile(0.95).unwrap()),
            bits(client.latency_percentile(Query::new().p(0.95)).unwrap())
        );
        assert_eq!(
            bits(client.coded_fraction(4, 2, 0.05).unwrap()),
            bits(client.attainment(Query::new().sla(0.05).n_k(4, 2)).unwrap())
        );
        let goal = SlaGoal::new(0.100, 0.90);
        let legacy = client.headroom(goal, 2000.0);
        let new = client.admissible_rate(Query::new().sla(0.100).target(0.90).upper(2000.0));
        assert_eq!(legacy.map(bits), new.map(bits));
        assert_eq!(
            client.bottlenecks(0.05).unwrap(),
            client.device_ranking(Query::new().sla(0.05)).unwrap()
        );
        // Snapshot-path shims.
        assert_eq!(
            bits(client.read_predict(0.05).unwrap()),
            bits(client.read_attainment(&Query::new().sla(0.05)).unwrap())
        );
        assert_eq!(
            bits(client.read_percentile(0.95).unwrap()),
            bits(
                client
                    .read_latency_percentile(&Query::new().p(0.95))
                    .unwrap()
            )
        );
        drop(handle);
    }

    #[test]
    fn tenants_are_sharded_and_auto_vivified() {
        let mut service = SlaService::new(base(), ServeConfig::default());
        let blue = TenantId::new("blue").unwrap();
        let green = TenantId::new("green").unwrap();
        // Distinct per-tenant load: blue light, green heavy.
        let blue_events = events(20.0, 20.0, 2);
        let green_events = events(120.0, 20.0, 2);
        for (b, g) in blue_events.into_iter().zip(green_events) {
            service.ingest_for(&blue, b);
            service.ingest_for(&green, g);
        }
        service.refit_now();
        assert_eq!(service.tenants(), 3, "default + blue + green");

        let pb = service
            .attainment(&Query::tenant(blue.clone()).sla(0.05))
            .unwrap();
        let pg = service
            .attainment(&Query::tenant(green.clone()).sla(0.05))
            .unwrap();
        assert!(
            pb.value > pg.value,
            "lighter tenant meets more SLAs: blue {} vs green {}",
            pb.value,
            pg.value
        );

        // Unknown tenant is a typed refusal; default tenant saw no traffic
        // so it is merely uncalibrated.
        let ghost = TenantId::new("ghost").unwrap();
        assert!(matches!(
            service.attainment(&Query::tenant(ghost.clone()).sla(0.05)),
            Err(ServeError::UnknownTenant { .. })
        ));
        assert!(matches!(
            service.status_for(&ghost),
            Err(ServeError::UnknownTenant { .. })
        ));
        assert_eq!(
            service.attainment(&Query::new().sla(0.05)),
            Err(ServeError::NotCalibrated)
        );

        // The reader agrees bit-for-bit per tenant.
        let reader = service.reader();
        let rb = reader.attainment(&Query::tenant(blue).sla(0.05)).unwrap();
        assert_eq!(pb.value.to_bits(), rb.value.to_bits());
        assert!(matches!(
            reader.attainment(&Query::tenant(ghost).sla(0.05)),
            Err(ServeError::UnknownTenant { .. })
        ));
    }

    #[test]
    fn delta_publish_republishes_only_changed_tenants() {
        let mut service = SlaService::new(base(), ServeConfig::default());
        let blue = TenantId::new("blue").unwrap();
        let green = TenantId::new("green").unwrap();
        for ev in events(40.0, 3.0, 2) {
            // Below the refit cadence: no publish yet.
            service.ingest_for(&blue, ev);
            service.ingest_for(&green, ev);
        }
        service.refit_now();
        let reader = service.reader();
        let gen_blue = reader.generation_for(&blue).unwrap();
        let gen_green = reader.generation_for(&green).unwrap();
        let before = reader.fleet().unwrap();

        // Only blue sees new traffic; the next sweep republishes default
        // (always) + blue, leaving green's entry untouched.
        for ev in events(40.0, 3.0, 2) {
            service.ingest_for(&blue, ev);
        }
        service.refit_now();
        let stats = service.last_publish_stats();
        assert_eq!(stats.tenants, 3);
        assert_eq!(stats.republished, 2, "default + blue only");
        assert!(stats.delta_bytes < stats.full_bytes);

        let after = reader.fleet().unwrap();
        assert_eq!(reader.generation_for(&blue).unwrap(), gen_blue + 1);
        assert_eq!(reader.generation_for(&green).unwrap(), gen_green);
        assert!(
            Arc::ptr_eq(
                &before.get(&green).unwrap().state,
                &after.get(&green).unwrap().state
            ),
            "unchanged tenant keeps the exact same published allocation"
        );
    }

    #[test]
    fn full_republish_is_bit_identical_to_the_delta_state() {
        let mut service = SlaService::new(base(), ServeConfig::default());
        let blue = TenantId::new("blue").unwrap();
        for ev in events(40.0, 8.0, 2) {
            service.ingest_for(&blue, ev);
            service.ingest(ev);
        }
        service.refit_now();
        let reader = service.reader();
        let delta_fleet = reader.fleet().unwrap();
        let stats = service.republish_full();
        assert_eq!(stats.republished, stats.tenants);
        let full_fleet = reader.fleet().unwrap();
        for (d, f) in delta_fleet.entries().iter().zip(full_fleet.entries()) {
            assert_eq!(d.tenant, f.tenant);
            let (ds, fs) = (&d.state, &f.state);
            assert_eq!(
                ds.snapshot.as_ref().map(|s| s.epoch),
                fs.snapshot.as_ref().map(|s| s.epoch)
            );
            assert_eq!(ds.last_fit_error, fs.last_fit_error);
            assert_eq!(ds.failed_refits, fs.failed_refits);
            assert_eq!(ds.unstable_fit, fs.unstable_fit);
            assert_eq!(ds.drift.len(), fs.drift.len());
            for (a, b) in ds.drift.iter().zip(&fs.drift) {
                assert_eq!(a.sla.to_bits(), b.sla.to_bits());
                assert_eq!(a.observed.map(f64::to_bits), b.observed.map(f64::to_bits));
                assert_eq!(a.predicted.map(f64::to_bits), b.predicted.map(f64::to_bits));
                assert_eq!(a.drifted, b.drifted);
            }
        }
    }

    #[test]
    fn tenant_scoped_telemetry_senders_route_to_their_shard() {
        let handle = SlaService::new(base(), ServeConfig::default()).spawn();
        let blue = TenantId::new("blue").unwrap();
        let sender = handle.telemetry_sender_for(blue.clone());
        assert_eq!(sender.tenant(), &blue);
        for ev in events(40.0, 20.0, 2) {
            sender.send(ev);
        }
        handle.flush().unwrap();
        handle.refit_now().unwrap();
        let p = handle
            .attainment(Query::tenant(blue.clone()).sla(0.05))
            .unwrap();
        assert!(p.value > 0.0);
        let status = handle.status_for(&blue).unwrap();
        assert!(status.epoch.is_some());
        // The default tenant saw nothing.
        assert_eq!(
            handle.attainment(Query::new().sla(0.05)),
            Err(ServeError::NotCalibrated)
        );
        drop(handle);
    }

    #[test]
    fn dropped_handle_shuts_the_thread_down() {
        let handle = SlaService::new(base(), ServeConfig::default()).spawn();
        let sender = handle.telemetry_sender();
        drop(handle);
        // The ingest endpoint must not panic after shutdown.
        sender.send(TelemetryEvent::Arrival { at: 0.0, device: 0 });
    }
}
