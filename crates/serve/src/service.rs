//! The service itself: telemetry in, predictions out — for a whole fleet.
//!
//! [`SlaService`] is the synchronous state machine. The fleet dimension is
//! first-class: telemetry arrives tagged with a [`TenantId`]
//! ([`SlaService::ingest_for`]), and each tenant gets an independent shard —
//! its own sliding-window calibrator, drift monitor, and installed epoch,
//! whose answers are memoized under its own slot of the shared
//! [`InversionCache`] (so tenants never share or evict each other's
//! quantized results). Re-fits are **batched**: one sweep fans every dirty
//! tenant's fit over [`cos_par::par_map`] ([`SlaService::refit_now`]),
//! then a single serial pass installs the epochs and publishes one
//! **delta** through the snapshot path — only changed tenants' states are
//! republished (see the
//! [`snapshot`](crate::snapshot) module docs for the protocol).
//!
//! [`SlaService::spawn`] wraps the service in a dedicated thread that owns
//! the write path behind a single command channel: ingest, refit, flush
//! and shutdown (`std::sync::mpsc` has no `select`, so each is one `enum`
//! message; FIFO ordering doubles as the flush barrier). Telemetry travels
//! as batches, one command each: a single event from
//! [`TelemetrySender::send`] or [`ServiceClient::ingest_for`] is a batch of
//! one, and [`ServiceClient::ingest_batch_for`] hands over a whole batch
//! and waits for the service to reply once it is ingested (a batch naming
//! a device the base does not have is refused whole before it is sent,
//! see [`ServeError::UnknownDevice`]). The returned
//! [`ServiceHandle`] owns the thread and derefs to its [`ServiceClient`];
//! [`TelemetrySender`] is a cheap cloneable tenant-scoped ingest-only
//! endpoint to hand to a telemetry source.
//!
//! Every read is a snapshot read. Queries are [`Query`] values
//! (`reader.attainment(&Query::tenant(t).sla(0.05))`), answered by a
//! [`SnapshotReader`] on the calling thread from the published fleet —
//! [`SlaService::reader`] in-process, [`ServiceClient`]'s query methods
//! once spawned — never through the channel, and so are what-if sweeps. A
//! caller that needs its earlier non-blocking ingests to be visible calls
//! [`ServiceClient::flush`] first.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cos_model::{ModelVariant, SystemModel, SystemParams};
use cos_obs::Registry;

use crate::cache::{InversionCache, QueryKey, QueryKind};
use crate::calibrate::{CalibrationBase, CalibratorConfig, OnlineCalibrator};
use crate::drift::{DriftConfig, DriftMonitor, DriftReport};
use crate::engine::{snap, EngineHealth, EpochSnapshot, Prediction, SLA_QUANTUM};
use crate::error::ServeError;
use crate::obs::ServeObs;
use crate::query::Query;
use crate::snapshot::{PublishStats, RatePoint, SnapshotReader, SnapshotShared, SnapshotState};
use crate::telemetry::TelemetryEvent;
use crate::tenant::TenantId;

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
    /// Merged counters: inversion-memo hits/misses and failed re-fits,
    /// snapshotted together so `/metrics` reads them in one call.
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
/// monitor, and installed epoch, answered under the tenant's cache slot.
struct TenantShard {
    id: TenantId,
    slot: u32,
    calibrator: OnlineCalibrator,
    drift: DriftMonitor,
    /// The installed epoch (`None` while warming up).
    snapshot: Option<EpochSnapshot>,
    /// Re-fits that have failed since startup.
    failed_refits: u64,
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

impl TenantShard {
    /// A warming-up shard for `id` at `slot`.
    fn new(id: TenantId, slot: u32, base: &CalibrationBase, config: &ServeConfig) -> Self {
        let drift = DriftMonitor::new(config.slas.clone(), config.drift.clone());
        TenantShard {
            id,
            slot,
            calibrator: OnlineCalibrator::new(base.clone(), config.calibrator.clone()),
            last_drift: drift.report(0.0, &vec![None; config.slas.len()]),
            drift,
            snapshot: None,
            failed_refits: 0,
            last_fit_error: None,
            last_fit_unstable: false,
            dirty: false,
            events_total: 0,
        }
    }

    /// The memo's attainment at each tracked SLA for the installed epoch
    /// (`None` while warming up, or where the epoch cannot answer): what
    /// the drift monitor holds the observed attainment against.
    fn tracked_attainment(
        &self,
        cache: &InversionCache,
        variant: ModelVariant,
        slas: &[f64],
    ) -> Vec<Option<f64>> {
        slas.iter()
            .map(|&sla| {
                let snap = self.snapshot.as_ref()?;
                let kind = QueryKind::fraction(sla);
                cache.answer(self.slot, snap, variant, None, kind).0.ok()
            })
            .collect()
    }
}

/// The published [`SnapshotState`] is a pure function of the shard: same
/// shard state in, same bytes out — rebuilding an unchanged shard's state
/// reproduces exactly what is already published, which is the invariant
/// the delta protocol rests on.
fn build_state(shard: &TenantShard) -> SnapshotState {
    SnapshotState {
        snapshot: shard.snapshot.clone(),
        last_fit_error: shard.last_fit_error.clone(),
        failed_refits: shard.failed_refits,
        unstable_fit: shard.last_fit_unstable,
        drift: shard.last_drift.clone(),
    }
}

/// Outcome of one tenant's parallel fit attempt: fitted parameters, the
/// validated model, and per-SLA attainment predictions — or the failure
/// message plus whether it was an instability.
type FitOutcome = Result<(SystemParams, Arc<SystemModel>, Vec<Option<f64>>), (String, bool)>;

/// One tenant's refit job: the fit, the model build and the predictions
/// at the configured SLAs.
fn fit_tenant(
    calibrator: &OnlineCalibrator,
    now: f64,
    variant: ModelVariant,
    slas: &[f64],
) -> FitOutcome {
    let params = calibrator
        .try_fit(now)
        .map_err(|e| (e.to_string(), false))?;
    // Every ModelError is an instability (ρ ≥ 1 in some queue): the live
    // load exceeds what the last good epoch can describe.
    let model = SystemModel::new(&params, variant).map_err(|e| (e.to_string(), true))?;
    // Predictions at the snapped SLA — the same value the cache's
    // evaluation path would produce, so pre-warming with them is
    // bit-lossless.
    let preds = slas
        .iter()
        .map(|&sla| Some(model.fraction_meeting_sla(snap(sla, SLA_QUANTUM).1)))
        .collect();
    Ok((params, Arc::new(model), preds))
}

/// The text of a panic payload: `panic!`'s message, or a placeholder for
/// a payload that is not a string.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string payload")
}

/// The synchronous prediction service.
pub struct SlaService {
    config: ServeConfig,
    base: CalibrationBase,
    cache: Arc<InversionCache>,
    shards: Vec<TenantShard>,
    index: HashMap<TenantId, u32>,
    /// The tenant `slot_or_create` resolved last, and its slot: per-event
    /// ingest compares one id while the tenant repeats instead of hashing
    /// it into `index`. Exact because slots are append-only: nothing
    /// removes a shard or reassigns a slot.
    last: (TenantId, u32),
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
        let default_shard = TenantShard::new(TenantId::default_tenant(), 0, &base, &config);
        let shared = Arc::new(SnapshotShared::new(
            config.variant,
            Arc::clone(&cache),
            obs.clone(),
            build_state(&default_shard),
        ));
        SlaService {
            base,
            cache,
            shards: vec![default_shard],
            index: HashMap::from([(TenantId::default_tenant(), 0)]),
            last: (TenantId::default_tenant(), 0),
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
    /// with the snapshot path) on first sight. While the tenant repeats,
    /// the last resolved slot answers after one id compare; a switch pays
    /// one `index` lookup.
    fn slot_or_create(&mut self, tenant: &TenantId) -> u32 {
        if self.last.0 == *tenant {
            return self.last.1;
        }
        #[cfg(test)]
        tests::INDEX_LOOKUPS.with(|n| n.set(n.get() + 1));
        let slot = match self.index.get(tenant) {
            Some(&slot) => slot,
            None => {
                let slot = self.shards.len() as u32;
                let shard = TenantShard::new(tenant.clone(), slot, &self.base, &self.config);
                let registered = self
                    .shared
                    .register_tenant(tenant.clone(), Arc::new(build_state(&shard)));
                debug_assert_eq!(registered, slot);
                self.index.insert(tenant.clone(), slot);
                self.shards.push(shard);
                slot
            }
        };
        self.last = (tenant.clone(), slot);
        slot
    }

    /// Feeds one telemetry event for the `default` tenant, re-fitting
    /// automatically once per [`ServeConfig::refit_interval`] of event
    /// time.
    pub fn ingest(&mut self, event: TelemetryEvent) {
        self.obs.ingest_events_total.inc();
        self.ingest_slot(0, event);
    }

    /// Feeds one telemetry event for `tenant` (materializing its shard on
    /// first sight), re-fitting automatically once per
    /// [`ServeConfig::refit_interval`] of event time — a fleet-wide
    /// cadence: one batched sweep re-fits every tenant that saw traffic.
    pub fn ingest_for(&mut self, tenant: &TenantId, event: TelemetryEvent) {
        let slot = self.slot_or_create(tenant);
        self.obs.ingest_events_total.inc();
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
        self.obs.ingest_events_total.add(events.len() as u64);
        for event in events {
            self.ingest_slot(slot, event);
        }
    }

    /// One event into its shard; the caller counts it in
    /// `cos_serve_ingest_events_total`.
    fn ingest_slot(&mut self, slot: u32, event: TelemetryEvent) {
        let t = event.time();
        self.now = self.now.max(t);
        self.shared.set_event_time(self.now);
        let shard = &mut self.shards[slot as usize];
        match event {
            TelemetryEvent::Completion { latency, .. } => shard.drift.record(t, latency),
            _ => shard.calibrator.ingest(&event),
        }
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
        self.refit_slots(&slots)
    }

    /// The batched re-fit: phase 1 fans the pure fit + model build + per-
    /// SLA predictions over [`cos_par::par_map`] (one parallel sweep, not
    /// O(tenants) sequential solves — `try_fit` is `&self`, so shards are
    /// read concurrently); phase 2 serially installs epochs, pre-warms the
    /// cache, and publishes one delta.
    fn refit_slots(&mut self, slots: &[u32]) -> bool {
        self.obs.refits_total.inc();
        let _refit_span = self.obs.refit.start_span();
        self.last_refit = self.now;
        let now = self.now;
        let variant = self.config.variant;
        let workers = self.config.refit_workers;
        let slas = self.config.slas.clone();

        // Phase 1 — parallel, read-only over the shards.
        let jobs: Vec<(u32, &OnlineCalibrator)> = slots
            .iter()
            .map(|&s| (s, &self.shards[s as usize].calibrator))
            .collect();
        let outcomes: Vec<(u32, FitOutcome)> =
            cos_par::par_map(workers, &jobs, |_, &(slot, cal)| {
                // A panic anywhere in the job (a law's transform, a model
                // assertion) is a failed refit like a typed error; the
                // last good epoch keeps serving. It says nothing about
                // load, so it is not flagged unstable.
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| fit_tenant(cal, now, variant, &slas)))
                        .unwrap_or_else(|panic| {
                            Err((format!("refit panicked: {}", panic_message(&*panic)), false))
                        });
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
                    let epoch = shard.snapshot.as_ref().map_or(1, |s| s.epoch + 1);
                    shard.snapshot = Some(EpochSnapshot {
                        epoch,
                        params: Arc::new(params),
                        fitted_at: now,
                        stale: false,
                    });
                    // Also advances the cache past the tenant's old epoch.
                    self.cache.prewarm_model(slot, epoch, model);
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
                    shard.failed_refits += 1;
                    if let Some(s) = &mut shard.snapshot {
                        s.stale = true;
                    }
                    let preds = shard.tracked_attainment(&self.cache, variant, &slas);
                    shard.last_drift = shard.drift.report(now, &preds);
                }
            }
            let shard = &mut self.shards[idx];
            shard.dirty = false;
            changes.push((slot, Arc::new(build_state(shard)), shard.events_total));
        }
        // Publish on every attempt — success or failure — so snapshot
        // readers observe staleness and fit errors at once.
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

    /// A lock-free query endpoint over this service's published fleet:
    /// the one way to ask the service anything, in-process or spawned.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader::new(Arc::clone(&self.shared))
    }

    fn status_slot(&self, slot: u32) -> ServiceStatus {
        let shard = &self.shards[slot as usize];
        let predictions =
            shard.tracked_attainment(&self.cache, self.config.variant, &self.config.slas);
        let snap = shard.snapshot.as_ref();
        ServiceStatus {
            event_time: self.now,
            epoch: snap.map(|s| s.epoch),
            fitted_at: snap.map(|s| s.fitted_at),
            stale: snap.map(|s| s.stale).unwrap_or(false),
            last_fit_error: shard.last_fit_error.clone(),
            engine: EngineHealth {
                cache: self.cache.stats(),
                failed_refits: shard.failed_refits,
            },
            drift: shard.drift.report(self.now, &predictions),
        }
    }

    /// Health summary of the `default` tenant: epoch, staleness, cache
    /// counters, and drift verdicts recomputed at the current event time
    /// (a reader's [`status`](SnapshotReader::status) returns the verdicts
    /// published at the last re-fit attempt instead).
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
        let devices = self.base.devices;
        let join = std::thread::Builder::new()
            .name("cos-serve".into())
            .spawn(move || run_service(self, rx))
            .expect("spawn service thread");
        ServiceHandle {
            client: ServiceClient {
                tx,
                reader,
                devices,
            },
            join: Some(join),
        }
    }
}

enum Command {
    /// A telemetry batch, when it was sent, and who waits for its ingest.
    Ingest(TenantId, Vec<TelemetryEvent>, Instant, Option<Sender<()>>),
    Refit(Sender<bool>),
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

/// Cloneable endpoint to a spawned [`SlaService`]: everything a concurrent
/// consumer (e.g. a `cos-gate` reactor thread) needs — ingest, queries,
/// status — without ownership of the service thread. Writes share the one
/// command channel, FIFO-ordered per sender; queries and status answer on
/// the calling thread from the published snapshot (see
/// [`SnapshotReader`]), so they see every refit published before the call
/// and never wait for the service thread. Once the owning
/// [`ServiceHandle`] shuts the service down, every call returns
/// [`ServeError::Disconnected`], except that
/// [`ingest_batch_for`](ServiceClient::ingest_batch_for) checks a batch's
/// devices first and still refuses one naming a device outside the base
/// with [`ServeError::UnknownDevice`].
#[derive(Clone)]
pub struct ServiceClient {
    tx: Sender<Command>,
    reader: SnapshotReader,
    /// The calibration base's device count: a batch naming a device at or
    /// past it is refused before it is sent.
    devices: usize,
}

impl ServiceClient {
    fn ask<T>(&self, build: impl FnOnce(Sender<T>) -> Command) -> Result<T, ServeError> {
        let (reply, rx) = channel();
        self.tx
            .send(build(reply))
            .map_err(|_| ServeError::Disconnected)?;
        rx.recv().map_err(|_| ServeError::Disconnected)
    }

    /// The lock-free snapshot endpoint the query methods below answer
    /// from, with the published fleet's raw state and generation counters
    /// besides.
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
    /// A batch with an event naming a device outside the calibration base
    /// is refused whole with [`ServeError::UnknownDevice`], on the calling
    /// thread before anything is sent: nothing in it is ingested, and no
    /// tenant is created. The per-event paths send without this check, and
    /// the calibrator drops such an event.
    pub fn ingest_batch_for(
        &self,
        tenant: &TenantId,
        events: Vec<TelemetryEvent>,
    ) -> Result<(), ServeError> {
        let devices = self.devices;
        if let Some((event, device)) = events
            .iter()
            .map(TelemetryEvent::device)
            .enumerate()
            .find(|&(_, device)| device >= devices)
        {
            return Err(ServeError::UnknownDevice {
                event,
                device,
                devices,
            });
        }
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
    pub fn attainment(&self, query: &Query) -> Result<Prediction, ServeError> {
        self.reader.attainment(query)
    }

    /// Predicted response-latency percentile for the query's tenant.
    pub fn latency_percentile(&self, query: &Query) -> Result<Prediction, ServeError> {
        self.reader.latency_percentile(query)
    }

    /// Overload-control headroom (largest admissible rate) for the
    /// query's tenant.
    pub fn admissible_rate(&self, query: &Query) -> Result<Prediction, ServeError> {
        self.reader.admissible_rate(query)
    }

    /// Bottleneck ranking for the query's tenant, worst device first.
    pub fn device_ranking(&self, query: &Query) -> Result<Vec<(usize, f64)>, ServeError> {
        self.reader.device_ranking(query)
    }

    /// Batch what-if sweep of the `default` tenant, evaluated on the
    /// calling thread from the published epoch (see
    /// [`SnapshotReader::sweep`]).
    pub fn sweep(&self, rates: Vec<f64>, slas: Vec<f64>) -> Result<Vec<RatePoint>, ServeError> {
        self.reader.sweep(&rates, &slas)
    }

    /// Health summary of the `default` tenant, as published (drift
    /// verdicts are as of the last re-fit attempt).
    pub fn status(&self) -> Result<ServiceStatus, ServeError> {
        self.reader.status()
    }

    /// Health summary of an arbitrary tenant, as published.
    pub fn status_for(&self, tenant: &TenantId) -> Result<ServiceStatus, ServeError> {
        self.reader.status_for(tenant)
    }
}

/// Owning handle to a spawned [`SlaService`]: its [`ServiceClient`], to
/// which the handle derefs — so `handle.attainment(..)`,
/// `handle.flush()` and every other client method work on it directly —
/// plus the join handle. Dropping it shuts the service down.
pub struct ServiceHandle {
    client: ServiceClient,
    join: Option<JoinHandle<SlaService>>,
}

impl std::ops::Deref for ServiceHandle {
    type Target = ServiceClient;

    fn deref(&self) -> &ServiceClient {
        &self.client
    }
}

impl ServiceHandle {
    /// A cloneable endpoint sharing this handle's command channel and
    /// published snapshot.
    pub fn client(&self) -> ServiceClient {
        self.client.clone()
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
pub(crate) mod tests {
    use super::*;
    use crate::telemetry::OpClass;
    use cos_distr::{Degenerate, Gamma};
    use cos_queueing::from_distribution;

    thread_local! {
        /// `index` lookups `slot_or_create` made on this thread.
        pub(super) static INDEX_LOOKUPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    pub(crate) fn base() -> CalibrationBase {
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
    pub(crate) fn events(rate: f64, duration: f64, devices: usize) -> Vec<TelemetryEvent> {
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
        let reader = service.reader();
        let q = Query::new().sla(0.05);
        assert_eq!(reader.attainment(&q), Err(ServeError::NotCalibrated));
        for ev in events(40.0, 20.0, 2) {
            service.ingest(ev);
        }
        let p = reader.attainment(&q).unwrap();
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
        let q = Query::new().sla(0.05);
        let reader = service.reader();
        let fresh = reader.attainment(&q).unwrap();
        // One lone event far in the future: the windows have emptied, the
        // forced re-fit fails, and the old epoch serves with the flag set.
        service.ingest(TelemetryEvent::Arrival {
            at: 500.0,
            device: 0,
        });
        assert!(!service.refit_now());
        let stale = reader.attainment(&q).unwrap();
        assert!(stale.stale);
        assert_eq!(stale.epoch, fresh.epoch);
        let status = service.status();
        assert!(status.stale);
        assert!(status.last_fit_error.is_some());
    }

    /// A disk law whose transform panics while `armed` is set.
    struct Tripwire {
        law: Gamma,
        armed: Arc<std::sync::atomic::AtomicBool>,
    }

    impl cos_queueing::ServiceTime for Tripwire {
        fn lst(&self, s: cos_numeric::Complex64) -> cos_numeric::Complex64 {
            let armed = self.armed.load(std::sync::atomic::Ordering::SeqCst);
            assert!(!armed, "tripwire law evaluated");
            cos_distr::Lst::lst(&self.law, s)
        }
        fn mean(&self) -> f64 {
            cos_distr::Distribution::mean(&self.law)
        }
        fn second_moment(&self) -> f64 {
            cos_distr::Distribution::second_moment(&self.law)
        }
    }

    #[test]
    fn a_refit_panic_is_a_failed_refit_and_the_service_keeps_answering() {
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut base = base();
        base.data_law = Arc::new(Tripwire {
            law: Gamma::new(3.5, 245.0),
            armed: Arc::clone(&armed),
        });
        let handle = SlaService::new(base, ServeConfig::default()).spawn();
        handle
            .ingest_batch_for(&TenantId::default(), events(40.0, 20.0, 2))
            .unwrap();
        assert!(handle.refit_now().unwrap());
        let q = Query::new().sla(0.05);
        let fresh = handle.attainment(&q).unwrap();

        armed.store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(
            !handle.refit_now().unwrap(),
            "a panicking refit installs nothing"
        );
        let status = handle.status().unwrap();
        let error = status.last_fit_error.expect("the panic is the fit error");
        assert!(
            error.contains("panicked") && error.contains("tripwire"),
            "{error}"
        );
        assert_eq!(status.engine.failed_refits, 1);
        assert!(status.stale);
        let state = handle.reader().state().unwrap();
        assert!(!state.unstable_fit, "a panic is not an overload verdict");
        // The last good epoch keeps answering, flagged stale.
        let stale = handle.attainment(&q).unwrap();
        assert!(stale.stale);
        assert_eq!(stale.epoch, fresh.epoch);
        assert_eq!(stale.value.to_bits(), fresh.value.to_bits());

        armed.store(false, std::sync::atomic::Ordering::SeqCst);
        assert!(handle.refit_now().unwrap());
        let recovered = handle.attainment(&q).unwrap();
        assert_eq!(recovered.epoch, fresh.epoch + 1);
        assert!(!recovered.stale);
        assert_eq!(handle.status().unwrap().last_fit_error, None);
        handle.shutdown().unwrap();
    }

    #[test]
    fn sweep_and_headroom_run_against_the_live_epoch() {
        let mut service = SlaService::new(base(), ServeConfig::default());
        for ev in events(40.0, 20.0, 2) {
            service.ingest(ev);
        }
        let reader = service.reader();
        let points = reader.sweep(&[40.0, 80.0, 160.0], &[0.05]).unwrap();
        assert_eq!(points.len(), 3);
        assert!(points[0].fractions.is_some());
        let head = reader.admissible_rate(&Query::new().sla(0.100).target(0.90).upper(2000.0));
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
        let p = handle.attainment(&Query::new().sla(0.05)).unwrap();
        assert!(p.value > 0.0);
        let again = handle.attainment(&Query::new().sla(0.05)).unwrap();
        assert_eq!(p.value.to_bits(), again.value.to_bits());
        let status = handle.status().unwrap();
        assert!(status.engine.cache.hits >= 1);
        let points = handle.sweep(vec![40.0, 80.0], vec![0.05, 0.10]).unwrap();
        assert_eq!(points.len(), 2);
        let final_state = handle.shutdown().unwrap();
        assert!(final_state.event_time() >= 19.0);
    }

    #[test]
    fn sweeps_refuse_nonpositive_and_nonfinite_inputs() {
        let handle = SlaService::new(base(), ServeConfig::default()).spawn();
        for ev in events(40.0, 20.0, 2) {
            handle.ingest(ev).unwrap();
        }
        handle.flush().unwrap();
        let client = handle.client();
        // Evaluated, a bad rate panics in the model build, a NaN SLA in
        // the inversion, and an SLA of +∞ answers NaN: each is refused.
        for rates in [
            [0.0, 100.0],
            [-5.0, 100.0],
            [f64::NAN, 100.0],
            [f64::INFINITY, 100.0],
        ] {
            let refusal = client.sweep(rates.to_vec(), vec![0.05]);
            assert!(
                matches!(refusal, Err(ServeError::BadQuery { .. })),
                "rates {rates:?}: {refusal:?}"
            );
        }
        for sla in [f64::NAN, f64::INFINITY, 0.0, -0.05] {
            let refusal = client.sweep(vec![100.0], vec![0.05, sla]);
            assert!(
                matches!(refusal, Err(ServeError::BadQuery { .. })),
                "sla {sla}: {refusal:?}"
            );
        }
        let points = client.sweep(vec![100.0, 50.0], vec![0.05]).unwrap();
        assert_eq!(points.len(), 2, "valid inputs still sweep");
        drop(handle);
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
                    c.attainment(&Query::new().sla(0.05))
                        .unwrap()
                        .value
                        .to_bits()
                })
            })
            .map(|j| j.join().unwrap())
            .collect();
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
        let ranked = client.device_ranking(&Query::new().sla(0.05)).unwrap();
        assert_eq!(ranked.len(), 2, "one entry per device");
        assert!(ranked[0].1 <= ranked[1].1, "worst device first");
        drop(handle);
        assert_eq!(
            client.attainment(&Query::new().sla(0.05)),
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
        let reader = service.reader();
        let q = Query::new().sla(0.05);
        let first = reader.attainment(&q).unwrap();
        let again = reader.attainment(&q).unwrap();
        assert_eq!(first.value.to_bits(), again.value.to_bits());
        reader.sweep(&[40.0, 80.0], &[0.05]).unwrap();

        assert!(registry.merged_histogram("cos_serve_refit_seconds").count() >= 1);
        let miss = registry.merged_histogram("cos_serve_query_seconds");
        assert!(miss.count() >= 2, "both queries timed");
        assert_eq!(
            registry.merged_histogram("cos_sweep_task_seconds").count(),
            2,
            "one sample per sweep point"
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

    /// `stream` in runs of 24 events, each run fed in turn to every
    /// tenant that has joined by then: tenants interleaved the way a
    /// tick-ordered fleet history is. A tenant whose flag is set joins at
    /// the middle of the stream.
    fn interleaved_runs(
        stream: &[TelemetryEvent],
        tenants: &[(&TenantId, bool)],
    ) -> Vec<(TenantId, Vec<TelemetryEvent>)> {
        let runs: Vec<&[TelemetryEvent]> = stream.chunks(24).collect();
        let mut out = Vec::new();
        for (i, run) in runs.iter().enumerate() {
            for &(tenant, mid_stream) in tenants {
                if !mid_stream || i >= runs.len() / 2 {
                    out.push((tenant.clone(), run.to_vec()));
                }
            }
        }
        out
    }

    #[test]
    fn a_batch_refits_where_per_event_ingest_does() {
        // 12 s of event time crosses the 5 s refit cadence twice inside
        // the one batch.
        let stream = events(40.0, 12.0, 2);
        let blue = TenantId::new("blue").unwrap();
        let green = TenantId::new("green").unwrap();
        // Each input with the tenants it names: blue alone in one batch,
        // then blue and green interleaved in runs, green first seen
        // mid-stream.
        let inputs = [
            (vec![&blue], vec![(blue.clone(), stream.clone())]),
            (
                vec![&blue, &green],
                interleaved_runs(&stream, &[(&blue, false), (&green, true)]),
            ),
        ];
        for (tenants, batches) in inputs {
            let batched = SlaService::new(base(), ServeConfig::default()).spawn();
            let per_event = SlaService::new(base(), ServeConfig::default()).spawn();
            for (tenant, batch) in &batches {
                batched
                    .client()
                    .ingest_batch_for(tenant, batch.clone())
                    .unwrap();
                for &ev in batch {
                    per_event.ingest_for(tenant, ev).unwrap();
                }
            }
            per_event.flush().unwrap();

            let (a, b) = (batched.reader(), per_event.reader());
            assert_eq!(a.generation(), b.generation(), "same publishes");
            assert!(a.generation() >= 2, "the cadence fired inside a batch");
            let fleet = fleet_fingerprint(&a);
            assert_eq!(fleet, fleet_fingerprint(&b));
            assert_eq!(fleet.len(), 1 + tenants.len(), "{fleet:?}");
            for (i, tenant) in tenants.into_iter().enumerate() {
                assert!(fleet[1 + i].1.is_some(), "{tenant} calibrated: {fleet:?}");
                let query = Query::tenant(tenant.clone()).sla(0.05);
                assert_eq!(
                    a.attainment(&query).unwrap().value.to_bits(),
                    b.attainment(&query).unwrap().value.to_bits()
                );
            }
            let (a, b) = (batched.shutdown().unwrap(), per_event.shutdown().unwrap());
            assert_eq!(a.event_time().to_bits(), b.event_time().to_bits());
            assert_eq!(a.tenants(), b.tenants());
        }
    }

    #[test]
    fn per_event_ingest_looks_a_tenant_up_once_per_switch() {
        // Three tenants tick-interleaved in runs of 24 events, the second
        // first seen mid-stream, each event its own `ingest_for`.
        let stream = events(40.0, 12.0, 2);
        let [blue, red, green] = ["blue", "red", "green"].map(|id| TenantId::new(id).unwrap());
        let runs = interleaved_runs(&stream, &[(&blue, false), (&red, true), (&green, false)]);
        let mut service = SlaService::new(base(), ServeConfig::default());
        INDEX_LOOKUPS.with(|n| n.set(0));
        for (tenant, run) in &runs {
            for &ev in run {
                service.ingest_for(tenant, ev);
            }
        }
        let lookups = INDEX_LOOKUPS.with(|n| n.get());
        // `default` is the tenant resolved before the first call.
        let switches = 1 + runs.windows(2).filter(|w| w[0].0 != w[1].0).count();
        assert_eq!(switches, runs.len(), "every run is one switch");
        assert_eq!(lookups, switches, "one lookup per tenant switch");
        assert_eq!(service.tenants(), 4);
        service.refit_now();
        let fleet = service.reader().fleet().unwrap();
        for tenant in [&blue, &red, &green] {
            let fed: usize = runs
                .iter()
                .filter(|r| r.0 == *tenant)
                .map(|r| r.1.len())
                .sum();
            assert_eq!(
                fleet.get(tenant).unwrap().events_total,
                fed as u64,
                "{tenant}"
            );
        }
    }

    #[test]
    fn each_bank_resolves_a_bucket_once_per_run_of_equal_times() {
        // Three tenants tick-interleaved in runs of 24 events, the second
        // first seen mid-stream, each event its own `ingest_for`. A
        // request's arrival, data read and operations carry its arrival
        // time; its completion carries arrival + latency.
        let stream = events(40.0, 12.0, 2);
        let [blue, red, green] = ["blue", "red", "green"].map(|id| TenantId::new(id).unwrap());
        let runs = interleaved_runs(&stream, &[(&blue, false), (&red, true), (&green, false)]);
        // Per tenant, the calibrator's bank sees every event but the
        // completions, and the drift monitor's bank sees the completions.
        let mut last: HashMap<(&TenantId, bool), f64> = HashMap::new();
        let mut runs_of_equal_times = 0;
        let mut requests = 0;
        for (tenant, run) in &runs {
            for ev in run {
                let drift = matches!(ev, TelemetryEvent::Completion { .. });
                requests += usize::from(matches!(ev, TelemetryEvent::Arrival { .. }));
                if last.insert((tenant, drift), ev.time()) != Some(ev.time()) {
                    runs_of_equal_times += 1;
                }
            }
        }
        let mut service = SlaService::new(base(), ServeConfig::default());
        let before = cos_stats::window::resolutions();
        for (tenant, run) in &runs {
            for &ev in run {
                service.ingest_for(tenant, ev);
            }
        }
        let resolutions = cos_stats::window::resolutions() - before;
        assert_eq!(resolutions, runs_of_equal_times, "one per bank and run");
        // 1.3 per request; the per-counter rings the banks replaced made
        // 23,760 (9.9 per request: two per arrival, one per data read, one
        // or two per operation, one per SLA per completion).
        assert_eq!((requests, resolutions), (2400, 3120));
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
            .refit_workers(3)
            .build()
            .unwrap();
        assert_eq!(tweaked.slas, vec![0.020]);
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
    fn coded_queries_agree_between_the_service_and_its_clients() {
        let mut service = SlaService::new(base(), ServeConfig::default());
        for ev in events(40.0, 20.0, 2) {
            service.ingest(ev);
        }
        service.refit_now();
        let queries = [
            Query::new().sla(0.05).n_k(4, 2),
            Query::new().p(0.99).n_k(4, 2),
            Query::new().p(0.99).n_k(4, 4),
        ];
        let reader = service.reader();
        let direct = [
            reader.attainment(&queries[0]).unwrap(),
            reader.latency_percentile(&queries[1]).unwrap(),
            reader.latency_percentile(&queries[2]).unwrap(),
        ];
        assert!(direct[0].value > 0.0 && direct[0].value <= 1.0);
        assert!(direct[1].value > 0.0);
        // Needing more of the launched chunks (a max-like join) can only
        // slow the read down: p99 of a 4-of-4 join dominates 2-of-4.
        assert!(direct[2].value >= direct[1].value);

        let handle = service.spawn();
        let client = handle.client();
        let via_client = [
            client.attainment(&queries[0]).unwrap(),
            client.latency_percentile(&queries[1]).unwrap(),
            client.latency_percentile(&queries[2]).unwrap(),
        ];
        for (d, c) in direct.iter().zip(&via_client) {
            assert_eq!(d.value.to_bits(), c.value.to_bits());
            assert_eq!(d.epoch, c.epoch);
        }
        drop(handle);
    }

    #[test]
    fn tenants_are_sharded_and_auto_vivified() {
        let mut service = SlaService::new(base(), ServeConfig::default());
        let blue = TenantId::new("blue").unwrap();
        let green = TenantId::new("green").unwrap();
        // Distinct per-tenant load: blue at 20 req/s per device, green at
        // 60, each tenant over its whole 20 s stream.
        for ev in events(20.0, 20.0, 2) {
            service.ingest_for(&blue, ev);
        }
        for ev in events(60.0, 20.0, 2) {
            service.ingest_for(&green, ev);
        }
        service.refit_now();
        assert_eq!(service.tenants(), 3, "default + blue + green");

        let reader = service.reader();
        let pb = reader
            .attainment(&Query::tenant(blue.clone()).sla(0.05))
            .unwrap();
        let pg = reader
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
            reader.attainment(&Query::tenant(ghost.clone()).sla(0.05)),
            Err(ServeError::UnknownTenant { .. })
        ));
        assert!(matches!(
            service.status_for(&ghost),
            Err(ServeError::UnknownTenant { .. })
        ));
        assert_eq!(
            reader.attainment(&Query::new().sla(0.05)),
            Err(ServeError::NotCalibrated)
        );

        // A second reader agrees bit-for-bit per tenant (the memo hit).
        let rb = service
            .reader()
            .attainment(&Query::tenant(blue).sla(0.05))
            .unwrap();
        assert_eq!(pb.value.to_bits(), rb.value.to_bits());
        assert!(matches!(
            service.reader().attainment(&Query::tenant(ghost).sla(0.05)),
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
            .attainment(&Query::tenant(blue.clone()).sla(0.05))
            .unwrap();
        assert!(p.value > 0.0);
        let status = handle.status_for(&blue).unwrap();
        assert!(status.epoch.is_some());
        // The default tenant saw nothing.
        assert_eq!(
            handle.attainment(&Query::new().sla(0.05)),
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
