//! The service itself: telemetry in, predictions out — for a whole fleet.
//!
//! [`SlaService`] is the synchronous state machine. The fleet dimension is
//! first-class: telemetry arrives tagged with a [`TenantId`]
//! ([`SlaService::ingest_for`]), and each tenant gets an independent shard —
//! its own sliding-window calibrator, drift monitor, and installed epoch,
//! which memoizes its own answers (so tenants never share or evict each
//! other's quantized results). Re-fits are **batched**: one sweep fans
//! every dirty tenant's fit over [`cos_par::par_map`]
//! ([`SlaService::refit_now`]), then a single serial pass installs the
//! epochs and publishes one
//! **delta** through the snapshot path — only changed tenants' states are
//! republished (see the
//! [`snapshot`](crate::snapshot) module docs for the protocol).
//!
//! [`SlaService::spawn`] puts the service behind one **writer lock** (a
//! `Mutex`) shared by the returned [`ServiceHandle`] and every
//! [`ServiceClient`] cloned from it. It starts no thread: a write — ingest
//! or refit — runs on the calling thread while it holds the lock, so
//! writes land one at a time, a refit the event-time cadence calls for
//! runs inside the ingest that crossed it, and every write has landed when
//! its call returns. A single event from [`ServiceClient::ingest_for`]
//! takes the lock once; [`ServiceClient::ingest_batch_for`] takes it once
//! for a whole batch (a batch naming a device the base does not have is
//! refused whole before the lock is taken, see
//! [`ServeError::UnknownDevice`]). A write that panics while holding the
//! lock poisons it, and every later write answers
//! [`ServeError::Disconnected`], as after a shutdown. The
//! [`ServiceHandle`] owns the service and derefs to its [`ServiceClient`].
//!
//! Every read is a snapshot read. Queries are [`Query`](crate::Query) values
//! (`reader.attainment(&Query::tenant(t).sla(0.05))`), answered by a
//! [`SnapshotReader`] on the calling thread from the published fleet —
//! [`SlaService::reader`] in-process, [`ServiceClient::reader`] once
//! spawned — without the writer lock, and so are what-if sweeps. A read
//! sees every refit published by a write that returned before it.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use cos_model::{ModelVariant, SystemModel, SystemParams};
use cos_obs::Registry;

use crate::cache::{CacheCounters, QueryKey, QueryKind};
use crate::calibrate::{CalibrationBase, CalibratorConfig, OnlineCalibrator};
use crate::drift::{DriftConfig, DriftMonitor, DriftReport};
use crate::engine::{snap, CacheStats, EngineHealth, EpochSnapshot, SLA_QUANTUM};
use crate::error::ServeError;
use crate::obs::ServeObs;
use crate::snapshot::{PublishStats, SnapshotReader, SnapshotShared, SnapshotState};
use crate::telemetry::TelemetryEvent;
use crate::tenant::TenantId;

/// Service configuration, built as a struct literal over
/// [`Default`]. [`SlaService::new`] refuses a nonsensical value (see its
/// `# Panics`).
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
            obs: Registry::new(),
        }
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
    /// The status of a tenant's `state` at event time `event_time`, with
    /// the fleet's memo counters `cache` and the drift verdicts `drift`.
    pub(crate) fn new(
        state: &SnapshotState,
        event_time: f64,
        cache: CacheStats,
        drift: Vec<DriftReport>,
    ) -> ServiceStatus {
        let snap = state.snapshot.as_ref();
        ServiceStatus {
            event_time,
            epoch: snap.map(|s| s.epoch),
            fitted_at: snap.map(|s| s.fitted_at),
            stale: snap.is_some_and(|s| s.stale),
            last_fit_error: state.last_fit_error.clone(),
            engine: EngineHealth {
                cache,
                failed_refits: state.failed_refits,
            },
            drift,
        }
    }

    /// Whether any tracked SLA has drifted (observed vs predicted gap over
    /// tolerance with enough samples).
    pub fn any_drifted(&self) -> bool {
        self.drift.iter().any(|d| d.drifted)
    }
}

/// One tenant's independent estimator state: calibrator window, drift
/// monitor, and the state it publishes.
struct TenantShard {
    id: TenantId,
    slot: u32,
    calibrator: OnlineCalibrator,
    drift: DriftMonitor,
    /// What the shard last published: installed epoch, fit failures and
    /// the drift verdicts of its last re-fit attempt, kept rather than
    /// re-evaluated against a moved clock, so a full republish ships the
    /// bytes a delta shipped.
    state: SnapshotState,
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
            state: SnapshotState {
                snapshot: None,
                last_fit_error: None,
                failed_refits: 0,
                unstable_fit: false,
                drift: drift.report(0.0, &vec![None; config.slas.len()]),
            },
            drift,
            dirty: false,
            events_total: 0,
        }
    }

    /// The memo's attainment at each tracked SLA for the installed epoch
    /// (`None` while warming up, or where the epoch cannot answer): what
    /// the drift monitor holds the observed attainment against.
    fn tracked_attainment(&self, variant: ModelVariant, slas: &[f64]) -> Vec<Option<f64>> {
        slas.iter()
            .map(|&sla| {
                let snap = self.state.snapshot.as_ref()?;
                snap.answer(variant, None, QueryKind::fraction(sla)).0.ok()
            })
            .collect()
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
    // Predictions at the snapped SLA — the same value the memo's
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
    /// The hit/miss counters every installed epoch's memo counts into.
    counters: Arc<CacheCounters>,
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

/// Whether `x` is finite and positive.
fn finite_positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

impl SlaService {
    /// Creates a service over `base`'s topology. The reserved `default`
    /// tenant exists from the start (slot 0); further tenants materialize
    /// on their first [`ingest_for`](SlaService::ingest_for).
    ///
    /// # Panics
    /// Panics, naming the [`ServeConfig`] field, on a config that would
    /// silently disable re-fitting or divide by zero inside an estimator:
    /// an empty `slas` list, an SLA bound that is not finite and positive,
    /// a `refit_interval`, `calibrator.window` or `drift.window` that is
    /// not finite and positive, or a `calibrator.buckets` or
    /// `drift.buckets` of 0.
    pub fn new(base: CalibrationBase, config: ServeConfig) -> Self {
        assert!(
            !config.slas.is_empty(),
            "ServeConfig.slas: at least one SLA bound is required"
        );
        if let Some(bad) = config.slas.iter().find(|&&s| !finite_positive(s)) {
            panic!("ServeConfig.slas: SLA bound {bad} is not finite and positive");
        }
        for (field, value) in [
            ("refit_interval", config.refit_interval),
            ("calibrator.window", config.calibrator.window),
            ("drift.window", config.drift.window),
        ] {
            assert!(
                finite_positive(value),
                "ServeConfig.{field}: {value} must be finite and positive"
            );
        }
        for (field, buckets) in [
            ("calibrator.buckets", config.calibrator.buckets),
            ("drift.buckets", config.drift.buckets),
        ] {
            assert!(buckets >= 1, "ServeConfig.{field}: must be at least 1");
        }
        let obs = ServeObs::register(&config.obs);
        let counters = Arc::new(CacheCounters::default());
        let default_shard = TenantShard::new(TenantId::default_tenant(), 0, &base, &config);
        let shared = Arc::new(SnapshotShared::new(
            config.variant,
            cos_par::default_workers(),
            Arc::clone(&counters),
            obs.clone(),
            default_shard.state.clone(),
        ));
        SlaService {
            base,
            counters,
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
                    .register_tenant(tenant.clone(), Arc::new(shard.state.clone()));
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
    /// its last re-fit. Fits fan out over the machine's available
    /// parallelism ([`cos_par::default_workers`], read once when the
    /// service is built, for refits and sweeps alike); one delta publish
    /// follows. Returns `true` if a new epoch
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
    /// read concurrently); phase 2 serially installs epochs, each with a
    /// pre-warmed memo, publishes one delta, then retires the memos of the
    /// epochs it replaced.
    fn refit_slots(&mut self, slots: &[u32]) -> bool {
        self.obs.refits_total.inc();
        let _refit_span = self.obs.refit.start_span();
        self.last_refit = self.now;
        let now = self.now;
        let variant = self.config.variant;
        let workers = self.shared.workers;
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
        // an unstable fit never evicts a usable epoch), pre-warm, update
        // changed states, publish one delta.
        let mut installed_default = false;
        let mut changes: Vec<(u32, Arc<SnapshotState>, u64)> = Vec::with_capacity(outcomes.len());
        let mut replaced = Vec::new();
        for (slot, outcome) in outcomes {
            let shard = &mut self.shards[slot as usize];
            let preds = match outcome {
                Ok((params, model, preds)) => {
                    let epoch = shard.state.snapshot.as_ref().map_or(1, |s| s.epoch + 1);
                    let snapshot = EpochSnapshot::new(
                        epoch,
                        Arc::new(params),
                        now,
                        Arc::clone(&self.counters),
                    );
                    let memo = snapshot.memo();
                    memo.insert_model(None, model);
                    for (&sla, pred) in slas.iter().zip(&preds) {
                        if let Some(v) = pred {
                            let kind = QueryKind::fraction(sla);
                            memo.prewarm_result(QueryKey { rate_q: None, kind }, Ok(*v));
                        }
                    }
                    replaced.extend(shard.state.snapshot.replace(snapshot));
                    shard.state.last_fit_error = None;
                    shard.state.unstable_fit = false;
                    installed_default |= slot == 0;
                    preds
                }
                Err((message, unstable)) => {
                    shard.state.last_fit_error = Some(message);
                    shard.state.unstable_fit = unstable;
                    shard.state.failed_refits += 1;
                    if let Some(s) = &mut shard.state.snapshot {
                        s.stale = true;
                    }
                    shard.tracked_attainment(variant, &slas)
                }
            };
            shard.state.drift = shard.drift.report(now, &preds);
            shard.dirty = false;
            changes.push((slot, Arc::new(shard.state.clone()), shard.events_total));
        }
        // Publish on every attempt — success or failure — so snapshot
        // readers observe staleness and fit errors at once.
        self.last_publish = self.shared.publish_delta(&changes);
        // Only now is no replaced epoch published: free its answers. A
        // reader still holding one gets its bits uncached.
        for old in &replaced {
            old.memo().retire();
        }
        installed_default
    }

    /// Republishes **every** tenant's state as its shard holds it — no
    /// re-fit. A shard keeps the state it last published, so the result is
    /// bit-identical to the currently published fleet; the property tests
    /// use this to prove delta publication lossless.
    pub fn republish_full(&mut self) -> PublishStats {
        let changes: Vec<(u32, Arc<SnapshotState>, u64)> = self
            .shards
            .iter()
            .map(|s| (s.slot, Arc::new(s.state.clone()), s.events_total))
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
        let predictions = shard.tracked_attainment(self.config.variant, &self.config.slas);
        let drift = shard.drift.report(self.now, &predictions);
        ServiceStatus::new(&shard.state, self.now, self.counters.stats(), drift)
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

    /// Puts the service behind its writer lock and returns the owning
    /// handle; every [`ServiceClient`] cloned from it shares the lock. No thread is started: each write runs on the
    /// thread that calls it.
    pub fn spawn(self) -> ServiceHandle {
        let reader = self.reader();
        let devices = self.base.devices;
        ServiceHandle {
            client: ServiceClient {
                writer: Arc::new(Mutex::new(Some(self))),
                reader,
                devices,
            },
        }
    }
}

/// A spawned service behind its writer lock, shared by its handle and its
/// clients; `None` once the handle has shut it down.
type Writer = Arc<Mutex<Option<SlaService>>>;

/// Runs `f` on the service under its writer lock, on the calling thread.
/// [`ServeError::Disconnected`] once the service has shut down, or once a
/// write panicked while holding the lock (the lock is poisoned).
fn write<T>(writer: &Writer, f: impl FnOnce(&mut SlaService) -> T) -> Result<T, ServeError> {
    let mut service = writer.lock().map_err(|_| ServeError::Disconnected)?;
    service.as_mut().map(f).ok_or(ServeError::Disconnected)
}

/// Cloneable endpoint to a spawned [`SlaService`]: everything a concurrent
/// consumer (e.g. a `cos-gate` reactor thread) needs — ingest, refits and
/// its [`reader`](ServiceClient::reader) — without ownership of the
/// service. Writes take the service's one writer lock and run on the
/// calling thread, one at a time, so each has landed, with any refit it
/// triggered, when it returns. Queries and status go through the
/// [`SnapshotReader`], which answers on the calling thread from the
/// published snapshot without the lock, so it sees every refit published
/// before the call and never waits for a write. Once the owning
/// [`ServiceHandle`] shuts the service down, every write and read returns
/// [`ServeError::Disconnected`], except that
/// [`ingest_batch_for`](ServiceClient::ingest_batch_for) checks a batch's
/// devices first and still refuses one naming a device outside the base
/// with [`ServeError::UnknownDevice`]. After a write panicked while
/// holding the lock, writes return `Disconnected` and reads keep
/// answering from the last published fleet.
#[derive(Clone)]
pub struct ServiceClient {
    writer: Writer,
    reader: SnapshotReader,
    /// The calibration base's device count: a batch naming a device at or
    /// past it is refused before the writer lock is taken.
    devices: usize,
}

impl ServiceClient {
    /// The lock-free snapshot endpoint every query, sweep and status read
    /// answers from, with the published fleet's raw state and generation
    /// counters besides.
    pub fn reader(&self) -> SnapshotReader {
        self.reader.clone()
    }

    /// Ingests one telemetry event for the `default` tenant.
    pub fn ingest(&self, event: TelemetryEvent) -> Result<(), ServeError> {
        write(&self.writer, |s| s.ingest(event))
    }

    /// Ingests one telemetry event for `tenant`. The tenant's shard
    /// materializes on first sight.
    pub fn ingest_for(&self, tenant: &TenantId, event: TelemetryEvent) -> Result<(), ServeError> {
        write(&self.writer, |s| s.ingest_for(tenant, event))
    }

    /// Ingests a batch of events for `tenant` under one hold of the writer
    /// lock, re-fitting wherever the event-time cadence falls inside the
    /// batch, exactly as per-event ingest would. The return is a
    /// happens-before edge for every later query on any client. The
    /// tenant's shard materializes with its first event; an empty batch
    /// creates nothing. A batch with an event naming a device outside the
    /// calibration base is refused whole with
    /// [`ServeError::UnknownDevice`] before the lock is taken: nothing in
    /// it is ingested, and no tenant is created. The per-event paths skip
    /// this check, and the calibrator drops such an event.
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
        write(&self.writer, |s| s.ingest_batch(tenant, events))
    }

    /// Forces a batched re-fit on the calling thread; `Ok(true)` if a new
    /// epoch was installed for the `default` tenant.
    pub fn refit_now(&self) -> Result<bool, ServeError> {
        write(&self.writer, SlaService::refit_now)
    }
}

/// Owning handle to a spawned [`SlaService`]: its [`ServiceClient`], to
/// which the handle derefs — so `handle.reader()`, `handle.ingest(..)`
/// and every other client method work on it directly.
/// Dropping it shuts the service down.
pub struct ServiceHandle {
    client: ServiceClient,
}

impl std::ops::Deref for ServiceHandle {
    type Target = ServiceClient;

    fn deref(&self) -> &ServiceClient {
        &self.client
    }
}

impl ServiceHandle {
    /// A cloneable endpoint sharing this handle's writer lock and
    /// published snapshot.
    pub fn client(&self) -> ServiceClient {
        self.client.clone()
    }

    /// Stops the service, once any write in progress has landed, and
    /// returns its final state. Outstanding [`ServiceClient`]s observe
    /// [`ServeError::Disconnected`] afterwards. `Disconnected` if a write
    /// panicked while holding the writer lock.
    pub fn shutdown(self) -> Result<SlaService, ServeError> {
        self.close()
    }

    /// Takes the service out from behind its lock and closes its snapshot
    /// readers, so reads answer `Disconnected` as writes now do.
    fn close(&self) -> Result<SlaService, ServeError> {
        let mut writer = self
            .client
            .writer
            .lock()
            .map_err(|_| ServeError::Disconnected)?;
        let service = writer.take().ok_or(ServeError::Disconnected)?;
        service.shared.close();
        Ok(service)
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::query::Query;
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
        let reader = handle.reader();
        let q = Query::new().sla(0.05);
        let fresh = reader.attainment(&q).unwrap();

        armed.store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(
            !handle.refit_now().unwrap(),
            "a panicking refit installs nothing"
        );
        let status = reader.status().unwrap();
        let error = status.last_fit_error.expect("the panic is the fit error");
        assert!(
            error.contains("panicked") && error.contains("tripwire"),
            "{error}"
        );
        assert_eq!(status.engine.failed_refits, 1);
        assert!(status.stale);
        let state = reader.state().unwrap();
        assert!(!state.unstable_fit, "a panic is not an overload verdict");
        // The last good epoch keeps answering, flagged stale.
        let stale = reader.attainment(&q).unwrap();
        assert!(stale.stale);
        assert_eq!(stale.epoch, fresh.epoch);
        assert_eq!(stale.value.to_bits(), fresh.value.to_bits());

        armed.store(false, std::sync::atomic::Ordering::SeqCst);
        assert!(handle.refit_now().unwrap());
        let recovered = reader.attainment(&q).unwrap();
        assert_eq!(recovered.epoch, fresh.epoch + 1);
        assert!(!recovered.stale);
        assert_eq!(reader.status().unwrap().last_fit_error, None);
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
    fn spawned_service_round_trips_through_its_handle() {
        let service = SlaService::new(base(), ServeConfig::default());
        let handle = service.spawn();
        let client = handle.client();
        let feeder = std::thread::spawn(move || {
            for ev in events(40.0, 20.0, 2) {
                client.ingest(ev).unwrap();
            }
        });
        feeder.join().unwrap();
        handle.refit_now().unwrap();
        let reader = handle.reader();
        let p = reader.attainment(&Query::new().sla(0.05)).unwrap();
        assert!(p.value > 0.0);
        let again = reader.attainment(&Query::new().sla(0.05)).unwrap();
        assert_eq!(p.value.to_bits(), again.value.to_bits());
        let status = reader.status().unwrap();
        assert!(status.engine.cache.hits >= 1);
        let points = reader.sweep(&[40.0, 80.0], &[0.05, 0.10]).unwrap();
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
        let reader = handle.reader();
        // Evaluated, a bad rate panics in the model build, a NaN SLA in
        // the inversion, and an SLA of +∞ answers NaN: each is refused.
        for rates in [
            [0.0, 100.0],
            [-5.0, 100.0],
            [f64::NAN, 100.0],
            [f64::INFINITY, 100.0],
        ] {
            let refusal = reader.sweep(&rates, &[0.05]);
            assert!(
                matches!(refusal, Err(ServeError::BadQuery { .. })),
                "rates {rates:?}: {refusal:?}"
            );
        }
        for sla in [f64::NAN, f64::INFINITY, 0.0, -0.05] {
            let refusal = reader.sweep(&[100.0], &[0.05, sla]);
            assert!(
                matches!(refusal, Err(ServeError::BadQuery { .. })),
                "sla {sla}: {refusal:?}"
            );
        }
        let points = reader.sweep(&[100.0, 50.0], &[0.05]).unwrap();
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
        let answers: Vec<u64> = (0..4)
            .map(|_| {
                let c = client.clone();
                std::thread::spawn(move || {
                    c.reader()
                        .attainment(&Query::new().sla(0.05))
                        .unwrap()
                        .value
                        .to_bits()
                })
            })
            .map(|j| j.join().unwrap())
            .collect();
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
        let reader = client.reader();
        let ranked = reader.device_ranking(&Query::new().sla(0.05)).unwrap();
        assert_eq!(ranked.len(), 2, "one entry per device");
        assert!(ranked[0].1 <= ranked[1].1, "worst device first");
        drop(handle);
        assert_eq!(
            reader.attainment(&Query::new().sla(0.05)),
            Err(ServeError::Disconnected)
        );
        assert!(matches!(reader.status(), Err(ServeError::Disconnected)));
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
            handle.reader().status_for(&ghost),
            Err(ServeError::UnknownTenant { .. })
        ));
        assert_eq!(handle.shutdown().unwrap().tenants(), 1, "default only");
    }

    #[test]
    fn a_nonsensical_config_panics_naming_the_field() {
        // The defaults with one field changed.
        let with = |change: fn(&mut ServeConfig)| {
            let mut config = ServeConfig::default();
            change(&mut config);
            config
        };
        let cases: [(ServeConfig, &str); 9] = [
            (with(|c| c.slas = vec![]), "slas"),
            (with(|c| c.slas = vec![0.05, -0.01]), "slas"),
            (with(|c| c.slas = vec![f64::NAN]), "slas"),
            (with(|c| c.refit_interval = 0.0), "refit_interval"),
            (with(|c| c.refit_interval = f64::INFINITY), "refit_interval"),
            (with(|c| c.calibrator.window = 0.0), "calibrator.window"),
            (with(|c| c.calibrator.buckets = 0), "calibrator.buckets"),
            (with(|c| c.drift.window = -1.0), "drift.window"),
            (with(|c| c.drift.buckets = 0), "drift.buckets"),
        ];
        for (config, field) in cases {
            let panic = catch_unwind(AssertUnwindSafe(|| SlaService::new(base(), config)))
                .err()
                .unwrap_or_else(|| panic!("{field}: a nonsensical value was accepted"));
            let message = panic_message(&*panic);
            assert!(
                message.starts_with(&format!("ServeConfig.{field}: ")),
                "{field}: {message}"
            );
        }
        // The defaults and a tweaked literal are accepted.
        SlaService::new(base(), ServeConfig::default());
        let tweaked = with(|c| c.slas = vec![0.020]);
        assert_eq!(SlaService::new(base(), tweaked).config().slas, vec![0.020]);
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
        let client = handle.client().reader();
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
    fn client_ingest_for_routes_to_the_tenants_shard() {
        let handle = SlaService::new(base(), ServeConfig::default()).spawn();
        let blue = TenantId::new("blue").unwrap();
        for ev in events(40.0, 20.0, 2) {
            handle.ingest_for(&blue, ev).unwrap();
        }
        handle.refit_now().unwrap();
        let reader = handle.reader();
        let p = reader
            .attainment(&Query::tenant(blue.clone()).sla(0.05))
            .unwrap();
        assert!(p.value > 0.0);
        let status = reader.status_for(&blue).unwrap();
        assert!(status.epoch.is_some());
        // The default tenant saw nothing.
        assert_eq!(
            reader.attainment(&Query::new().sla(0.05)),
            Err(ServeError::NotCalibrated)
        );
        drop(handle);
    }

    #[test]
    fn dropped_handle_shuts_the_service_down() {
        let handle = SlaService::new(base(), ServeConfig::default()).spawn();
        let client = handle.client();
        drop(handle);
        let event = TelemetryEvent::Arrival { at: 1.0, device: 0 };
        assert_eq!(client.ingest(event), Err(ServeError::Disconnected));
        assert_eq!(client.refit_now(), Err(ServeError::Disconnected));
        assert!(matches!(
            client.reader().status(),
            Err(ServeError::Disconnected)
        ));
    }

    #[test]
    fn a_poisoned_writer_lock_refuses_writes_and_reads_keep_answering() {
        let handle = SlaService::new(base(), ServeConfig::default()).spawn();
        handle
            .ingest_batch_for(&TenantId::default(), events(40.0, 20.0, 2))
            .unwrap();
        let q = Query::new().sla(0.05);
        let reader = handle.reader();
        let before = reader.attainment(&q).unwrap();
        // A write that panics while holding the lock.
        let client = handle.client();
        let panicked =
            std::thread::spawn(move || write(&client.writer, |_| panic!("a write panicked")))
                .join();
        assert!(panicked.is_err());

        let event = TelemetryEvent::Arrival {
            at: 21.0,
            device: 0,
        };
        assert_eq!(handle.ingest(event), Err(ServeError::Disconnected));
        assert_eq!(
            handle.ingest_batch_for(&TenantId::default(), vec![event]),
            Err(ServeError::Disconnected)
        );
        assert_eq!(handle.refit_now(), Err(ServeError::Disconnected));
        // Reads answer from the last published fleet, with the same bits.
        let after = reader.attainment(&q).unwrap();
        assert_eq!(after.value.to_bits(), before.value.to_bits());
        assert_eq!(after.epoch, before.epoch);
        assert!(matches!(handle.shutdown(), Err(ServeError::Disconnected)));
    }
}
