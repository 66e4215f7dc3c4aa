//! The lock-free snapshot read path and the fleet's delta publication
//! protocol.
//!
//! The *write* path — telemetry ingest and calibration re-fits — is the
//! `SlaService`'s `&mut self` methods; a spawned service runs them under
//! its writer lock on whichever thread calls them. After every re-fit
//! attempt the writer publishes an immutable [`FleetState`] (one
//! [`SnapshotState`] per tenant) through an atomic `Arc` swap
//! ([`cos_par::ArcCell`]). Every read is a snapshot read: any number of
//! [`SnapshotReader`]s — one per gate reactor thread, typically — load
//! the current state with one atomic operation and evaluate predictions
//! and what-if sweeps **in place on the calling thread**, without taking
//! the writer lock and so without waiting for a write in progress.
//!
//! ## Delta publication
//!
//! A fleet-sized refit rarely changes every tenant: most windows are
//! quiet, and only the tenants that saw traffic since the last sweep get
//! a new fit. Republishing the whole fleet per refit would make publish
//! cost O(fleet) in *rebuilt states*; instead the service publishes
//! **deltas**: it clones the entry vector (per-entry header copies — the
//! `Arc`s inside are shared, not deep-copied), replaces only the changed
//! tenants' `Arc<SnapshotState>`s, bumps those entries' generation
//! counters, and swaps the new vector in. Unchanged tenants' states are
//! the *same allocation* before and after (`Arc::ptr_eq` holds across the
//! swap).
//!
//! A delta-applied state is **provably identical to a full republish**
//! because each tenant shard holds the one `SnapshotState` it publishes,
//! changed only by that shard's refits (the drift verdicts computed then
//! are kept, not recomputed against a moved clock): republishing an
//! unchanged tenant's state ships the bytes that are already published.
//! `SlaService::republish_full` exercises exactly this in the property
//! tests.
//!
//! ## Consistency and memory ordering
//!
//! * A published fleet state is immutable; readers clone the `Arc`, never
//!   the data. A reader therefore observes either the old fleet or the
//!   new one in full — never a torn mix — because `ArcCell::set` stores
//!   the new pointer with `Release` ordering and `ArcCell::get` loads it
//!   with `Acquire`, so everything written while building the delta
//!   (including the bumped per-entry generations) *happens-before* any
//!   read through the swapped pointer. There is one writer at a time (the
//!   `SlaService`, whose writes `&mut self` or the writer lock serialize,
//!   and the lock's release and acquire order one writer's swap before the
//!   next writer's load), so read-modify-write on the cell needs no CAS
//!   loop.
//! * Answers are **bit-identical** across readers, and to the service's
//!   own drift predictions, by construction: all funnel through the
//!   published epoch's memo ([`EpochSnapshot::answer`]), which
//!   reconstructs every input from the quantized key and runs one
//!   evaluation code path.
//! * The live event clock is a plain `AtomicU64` holding the `f64` bits
//!   of the newest event time (`Relaxed` — it is an independent
//!   monotone scalar, not a synchronization edge).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cos_model::{model_at_rate, ModelVariant};
use cos_par::ArcCell;

use crate::cache::{CacheCounters, QueryKind};
use crate::drift::DriftReport;
use crate::engine::{EpochSnapshot, Prediction};
use crate::error::ServeError;
use crate::obs::ServeObs;
use crate::query::Query;
use crate::service::ServiceStatus;
use crate::tenant::TenantId;

/// One evaluated point of a what-if sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RatePoint {
    /// Total arrival rate of the hypothetical operating point (req/s).
    pub rate: f64,
    /// Fraction meeting each queried SLA, in query order; `None` if the
    /// point has no steady state (ρ ≥ 1).
    pub fractions: Option<Vec<f64>>,
}

/// Everything the service publishes for one tenant after a re-fit attempt:
/// the installed epoch (if any), the most recent fit failure, and the
/// drift verdicts as of that tenant's last refit.
#[derive(Debug, Clone)]
pub struct SnapshotState {
    /// The installed calibration epoch (`None` while warming up).
    pub snapshot: Option<EpochSnapshot>,
    /// Why the most recent failed re-fit failed (`None` after a success).
    pub last_fit_error: Option<String>,
    /// Re-fits that have failed since startup.
    pub failed_refits: u64,
    /// Whether the most recent re-fit failed because the *fitted operating
    /// point itself* was unstable (some queue at ρ ≥ 1) — as opposed to a
    /// data problem like an empty window. An admission controller must
    /// treat this as an overload signal even though the installed (stale)
    /// epoch still answers with healthy-looking predictions.
    pub unstable_fit: bool,
    /// Per-SLA drift verdicts (observed vs predicted attainment) as of
    /// the most recent publication.
    pub drift: Vec<DriftReport>,
}

/// One tenant's slot in the published [`FleetState`].
#[derive(Debug, Clone)]
pub struct TenantEntry {
    /// The tenant this entry belongs to.
    pub tenant: TenantId,
    /// The tenant's stable slot (0 = the reserved `default` tenant): its
    /// index in the fleet's entries.
    pub slot: u32,
    /// The tenant's published state (shared, immutable).
    pub state: Arc<SnapshotState>,
    /// Times this entry's state has been republished — a per-tenant
    /// change detector: unchanged tenants keep their generation (and the
    /// exact same `Arc`) across a delta publish.
    pub generation: u64,
    /// Telemetry events ingested for this tenant so far (drives the
    /// top-K-by-traffic fold on `/metrics`).
    pub events_total: u64,
}

/// The immutable, atomically swapped map of every tenant's published
/// state. Slot 0 is always the reserved `default` tenant.
#[derive(Debug, Clone)]
pub struct FleetState {
    entries: Vec<TenantEntry>,
    index: HashMap<TenantId, u32>,
}

impl FleetState {
    fn new(default_state: Arc<SnapshotState>) -> FleetState {
        let tenant = TenantId::default_tenant();
        FleetState {
            index: HashMap::from([(tenant.clone(), 0)]),
            entries: vec![TenantEntry {
                tenant,
                slot: 0,
                state: default_state,
                generation: 0,
                events_total: 0,
            }],
        }
    }

    /// The entry of `tenant`, if the fleet has seen it.
    pub fn get(&self, tenant: &TenantId) -> Option<&TenantEntry> {
        self.index
            .get(tenant)
            .map(|&slot| &self.entries[slot as usize])
    }

    /// Every tenant's entry, in slot order.
    pub fn entries(&self) -> &[TenantEntry] {
        &self.entries
    }

    /// The reserved `default` tenant's entry (always present).
    pub fn default_entry(&self) -> &TenantEntry {
        &self.entries[0]
    }

    /// Number of tenants in the fleet.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Never true — the `default` tenant always exists. Present for the
    /// conventional `len`/`is_empty` pairing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Accounting of one delta publish: how much was republished versus what
/// a full republish of the fleet would have rebuilt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Entries whose state was replaced by this publish.
    pub republished: usize,
    /// Total entries in the fleet at publish time.
    pub tenants: usize,
    /// Approximate bytes the delta ships: an entry header plus a rebuilt
    /// state for the *changed* tenants only (unchanged entries keep their
    /// published `Arc` and cost nothing to re-publish).
    pub delta_bytes: usize,
    /// Approximate bytes a full republish would materialize: the entry
    /// headers plus a rebuilt state for *every* tenant.
    pub full_bytes: usize,
}

impl PublishStats {
    /// `delta_bytes / full_bytes` (1.0 when the fleet is empty or the
    /// publish was full).
    pub fn delta_ratio(&self) -> f64 {
        if self.full_bytes == 0 {
            1.0
        } else {
            self.delta_bytes as f64 / self.full_bytes as f64
        }
    }
}

/// Approximate heap+inline footprint of one published state. The fitted
/// parameters behind `snapshot.params` are **shared** (`Arc`), not copied,
/// by either a delta or a full republish, so they are deliberately not
/// counted — this measures what a publish actually materializes.
fn state_bytes(state: &SnapshotState) -> usize {
    std::mem::size_of::<SnapshotState>()
        + state.drift.len() * std::mem::size_of::<DriftReport>()
        + state.last_fit_error.as_ref().map_or(0, |s| s.len())
}

/// The write side of the publication protocol, owned by the service.
/// Readers hold it behind an `Arc` via [`SnapshotReader`].
pub(crate) struct SnapshotShared {
    cell: ArcCell<FleetState>,
    /// Set when the spawned service shuts down; readers then answer
    /// [`ServeError::Disconnected`], as its writes do.
    closed: AtomicBool,
    /// `f64` bits of the newest event time, updated on every ingest.
    event_time: AtomicU64,
    /// The hit/miss counters every epoch's memo counts into.
    counters: Arc<CacheCounters>,
    variant: ModelVariant,
    /// Threads a batched re-fit and a what-if sweep fan out over: the
    /// machine's available parallelism, read once when the service is
    /// built, since on Linux each read parses cgroup files (about 20 µs on
    /// a 2-vCPU VM). Both fan-outs are order-preserving, so no answer bit
    /// depends on it.
    pub(crate) workers: usize,
    obs: ServeObs,
}

impl SnapshotShared {
    pub(crate) fn new(
        variant: ModelVariant,
        workers: usize,
        counters: Arc<CacheCounters>,
        obs: ServeObs,
        initial: SnapshotState,
    ) -> SnapshotShared {
        SnapshotShared {
            cell: ArcCell::new(Arc::new(FleetState::new(Arc::new(initial)))),
            closed: AtomicBool::new(false),
            event_time: AtomicU64::new(0f64.to_bits()),
            counters,
            variant,
            workers,
            obs,
        }
    }

    /// Adds a tenant to the fleet (one writer at a time: the service), in
    /// its warming-up state. Returns the assigned slot.
    pub(crate) fn register_tenant(&self, tenant: TenantId, initial: Arc<SnapshotState>) -> u32 {
        let current = self.cell.get();
        let mut entries = current.entries.clone();
        let mut index = current.index.clone();
        let slot = entries.len() as u32;
        index.insert(tenant.clone(), slot);
        entries.push(TenantEntry {
            tenant,
            slot,
            state: initial,
            generation: 0,
            events_total: 0,
        });
        self.cell.set(Arc::new(FleetState { entries, index }));
        slot
    }

    /// Atomically publishes a delta: only the given `(slot, state,
    /// events_total)` entries are replaced (with their generations
    /// bumped); every other tenant keeps its exact current `Arc`. Safe
    /// without a CAS loop because the service publishes from one writer at
    /// a time.
    pub(crate) fn publish_delta(&self, changes: &[(u32, Arc<SnapshotState>, u64)]) -> PublishStats {
        let current = self.cell.get();
        let mut entries = current.entries.clone();
        let mut delta_bytes = changes.len() * std::mem::size_of::<TenantEntry>();
        for (slot, state, events_total) in changes {
            let entry = &mut entries[*slot as usize];
            entry.state = Arc::clone(state);
            entry.generation += 1;
            entry.events_total = *events_total;
            delta_bytes += state_bytes(state);
        }
        let full_bytes = entries.len() * std::mem::size_of::<TenantEntry>()
            + entries.iter().map(|e| state_bytes(&e.state)).sum::<usize>();
        let stats = PublishStats {
            republished: changes.len(),
            tenants: entries.len(),
            delta_bytes,
            full_bytes,
        };
        self.cell.set(Arc::new(FleetState {
            entries,
            index: current.index.clone(),
        }));
        stats
    }

    /// Advances the live event clock (every ingest).
    pub(crate) fn set_event_time(&self, t: f64) {
        self.event_time.store(t.to_bits(), Ordering::Relaxed);
    }

    /// Marks the service gone; every subsequent read answers
    /// [`ServeError::Disconnected`].
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }
}

/// A lock-free query endpoint evaluating predictions **on the calling
/// thread** against the service's most recently published fleet state.
///
/// Obtained from [`SlaService::reader`](crate::SlaService::reader) or
/// [`ServiceClient::reader`](crate::ServiceClient::reader); cloning is
/// cheap (one `Arc`). Every method is a pure read: one atomic load of the
/// published state, then evaluation through the published epoch's memo
/// ([`EpochSnapshot::answer`]) — so every reader answers with the same
/// bits and concurrent readers scale without serializing on the writer
/// lock.
///
/// Tenant-unaware methods are scoped to the reserved `default` tenant;
/// [`Query`]-taking methods reach any tenant.
#[derive(Clone)]
pub struct SnapshotReader {
    shared: Arc<SnapshotShared>,
}

impl SnapshotReader {
    pub(crate) fn new(shared: Arc<SnapshotShared>) -> SnapshotReader {
        SnapshotReader { shared }
    }

    fn fleet_checked(&self) -> Result<Arc<FleetState>, ServeError> {
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(ServeError::Disconnected);
        }
        Ok(self.shared.cell.get())
    }

    /// `read` of a tenant's published entry — or the typed refusal
    /// (`Disconnected` after shutdown, `UnknownTenant` for a tenant the
    /// fleet has never seen).
    fn with_entry<T>(
        &self,
        tenant: &TenantId,
        read: impl FnOnce(&TenantEntry) -> T,
    ) -> Result<T, ServeError> {
        let fleet = self.fleet_checked()?;
        let entry = fleet.get(tenant).ok_or_else(|| ServeError::UnknownTenant {
            tenant: tenant.to_string(),
        })?;
        Ok(read(entry))
    }

    /// A tenant's installed epoch — or the typed refusal of
    /// [`with_entry`](Self::with_entry), or `NotCalibrated` while warming
    /// up.
    fn current_for(&self, tenant: &TenantId) -> Result<EpochSnapshot, ServeError> {
        self.with_entry(tenant, |e| e.state.snapshot.clone())?
            .ok_or(ServeError::NotCalibrated)
    }

    fn answer(
        &self,
        snap: &EpochSnapshot,
        rate_q: Option<i64>,
        kind: QueryKind,
    ) -> Result<Prediction, ServeError> {
        let start = Instant::now();
        let (outcome, miss) = snap.answer(self.shared.variant, rate_q, kind);
        self.record(start, miss);
        outcome.map(|value| Prediction {
            value,
            epoch: snap.epoch,
            stale: snap.stale,
        })
    }

    fn record(&self, start: Instant, miss: bool) {
        let elapsed = start.elapsed();
        if miss {
            self.shared.obs.query_miss.record_duration(elapsed);
        } else {
            self.shared.obs.query_hit.record_duration(elapsed);
        }
    }

    /// Predicted fraction of requests meeting the query's SLA (plain,
    /// what-if rate, or erasure-coded, depending on the query's fields),
    /// for the query's tenant.
    pub fn attainment(&self, query: &Query) -> Result<Prediction, ServeError> {
        let (rate_q, kind) = query.attainment_question()?;
        self.answer(&self.current_for(query.tenant_id())?, rate_q, kind)
    }

    /// Predicted response-latency percentile for the query's tenant.
    pub fn latency_percentile(&self, query: &Query) -> Result<Prediction, ServeError> {
        let (rate_q, kind) = query.percentile_question()?;
        self.answer(&self.current_for(query.tenant_id())?, rate_q, kind)
    }

    /// Overload-control headroom (largest admissible rate) for the
    /// query's tenant.
    pub fn admissible_rate(&self, query: &Query) -> Result<Prediction, ServeError> {
        let (rate_q, kind) = query.headroom_question()?;
        self.answer(&self.current_for(query.tenant_id())?, rate_q, kind)
    }

    /// Bottleneck ranking for the query's tenant, worst device first. All
    /// per-device queries are answered against the *same* epoch view, so
    /// the ranking is internally consistent even if a re-fit lands
    /// mid-call.
    pub fn device_ranking(&self, query: &Query) -> Result<Vec<(usize, f64)>, ServeError> {
        let sla = query.ranking_sla()?;
        let snap = self.current_for(query.tenant_id())?;
        let start = Instant::now();
        let n = snap.params.devices.len();
        let mut any_miss = false;
        let mut out = Vec::with_capacity(n);
        for device in 0..n {
            let (r, miss) = snap.answer(
                self.shared.variant,
                None,
                QueryKind::device_fraction(device, sla),
            );
            any_miss |= miss;
            out.push((device, r?));
        }
        out.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fractions"));
        self.record(start, any_miss);
        Ok(out)
    }

    /// Batch what-if sweep of the `default` tenant: every rate in `rates`
    /// evaluated against every SLA in `slas` on the published epoch, the
    /// rates fanned over [`cos_par::par_map`] from the calling thread, on
    /// as many workers as the service's refits. The inputs are used exactly — neither snapped nor memoized. Returns the
    /// points sorted by rate; a rate with no steady state (ρ ≥ 1) comes back
    /// with [`RatePoint::fractions`] `= None` rather than failing the
    /// sweep, since a sweep that straddles the saturation knee is the
    /// common case.
    ///
    /// A rate or SLA that is not finite and positive is refused with
    /// [`ServeError::BadQuery`] before anything is evaluated.
    pub fn sweep(&self, rates: &[f64], slas: &[f64]) -> Result<Vec<RatePoint>, ServeError> {
        let finite_positive = |xs: &[f64]| xs.iter().all(|x| x.is_finite() && *x > 0.0);
        if !finite_positive(rates) {
            return Err(ServeError::BadQuery {
                reason: "sweep rates must be finite and positive",
            });
        }
        if !finite_positive(slas) {
            return Err(ServeError::BadQuery {
                reason: "sweep SLAs must be finite and positive",
            });
        }
        let fleet = self.fleet_checked()?;
        let snap = fleet
            .default_entry()
            .state
            .snapshot
            .as_ref()
            .ok_or(ServeError::NotCalibrated)?;
        let variant = self.shared.variant;
        let task = &self.shared.obs.sweep_task;
        let mut points = cos_par::par_map(self.shared.workers, rates, |_, &rate| {
            let _span = task.start_span();
            let fractions = model_at_rate(&snap.params, variant, rate).ok().map(|m| {
                slas.iter()
                    .map(|&sla| m.fraction_meeting_sla(sla))
                    .collect()
            });
            RatePoint { rate, fractions }
        });
        points.sort_by(|a, b| a.rate.total_cmp(&b.rate));
        Ok(points)
    }

    fn status_of(&self, state: &SnapshotState) -> ServiceStatus {
        let cache = self.shared.counters.stats();
        ServiceStatus::new(state, self.event_time(), cache, state.drift.clone())
    }

    /// Health summary assembled without the service's writer lock: the
    /// published epoch / fit-failure / drift state, the live event clock,
    /// and the fleet-wide memo counters. The drift verdicts are as of the
    /// most recent publication (the service refreshes them at every re-fit
    /// attempt), not recomputed per call. Scoped to the `default` tenant.
    pub fn status(&self) -> Result<ServiceStatus, ServeError> {
        let fleet = self.fleet_checked()?;
        Ok(self.status_of(&fleet.default_entry().state))
    }

    /// [`status`](SnapshotReader::status) for an arbitrary tenant.
    pub fn status_for(&self, tenant: &TenantId) -> Result<ServiceStatus, ServeError> {
        self.with_entry(tenant, |e| self.status_of(&e.state))
    }

    /// The `default` tenant's raw published state: installed epoch (with
    /// its fitted [`cos_model::SystemParams`]), fit-failure flags, and
    /// drift verdicts in one immutable view. This is the endpoint control
    /// loops poll: one atomic load, no allocation, and every field is
    /// from the same publication instant.
    pub fn state(&self) -> Result<Arc<SnapshotState>, ServeError> {
        Ok(Arc::clone(&self.fleet_checked()?.default_entry().state))
    }

    /// [`state`](SnapshotReader::state) for an arbitrary tenant.
    pub fn state_for(&self, tenant: &TenantId) -> Result<Arc<SnapshotState>, ServeError> {
        self.with_entry(tenant, |e| Arc::clone(&e.state))
    }

    /// The whole published fleet in one immutable view (for metrics
    /// renders and fleet dashboards).
    pub fn fleet(&self) -> Result<Arc<FleetState>, ServeError> {
        self.fleet_checked()
    }

    /// The newest event time seen by the service (bit-exact with the
    /// service's own clock — the bits travel through one atomic).
    pub fn event_time(&self) -> f64 {
        f64::from_bits(self.shared.event_time.load(Ordering::Relaxed))
    }

    /// Number of fleet publications so far — a cheap change detector for
    /// pollers (monotone; bumps on every re-fit attempt and tenant
    /// registration, fleet-wide).
    pub fn generation(&self) -> u64 {
        self.shared.cell.generation()
    }

    /// Times `tenant`'s own entry has been republished — the per-tenant
    /// change detector (unchanged tenants keep their generation across a
    /// delta publish).
    pub fn generation_for(&self, tenant: &TenantId) -> Result<u64, ServeError> {
        self.with_entry(tenant, |e| e.generation)
    }

    /// Whether the owning service has shut down.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for SnapshotReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotReader")
            .field("generation", &self.generation())
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{base, events};
    use crate::service::{ServeConfig, SlaService};
    use cos_model::SystemModel;

    /// An unspawned service calibrated on the standard stream: no service
    /// thread exists, so its reader's sweeps run on the test thread alone.
    fn calibrated() -> SlaService {
        let mut service = SlaService::new(base(), ServeConfig::default());
        for ev in events(40.0, 20.0, 2) {
            service.ingest(ev);
        }
        assert!(service.refit_now(), "deterministic stream must fit");
        service
    }

    #[test]
    fn sweep_matches_sequential_evaluation() {
        let reader = calibrated().reader();
        let params = reader.state().unwrap().snapshot.clone().unwrap().params;
        let rates = [50.0, 100.0, 150.0, 200.0, 250.0];
        let slas = vec![0.05, 0.10];
        // Out of order on purpose: points come back sorted by rate.
        let points = reader
            .sweep(&[150.0, 50.0, 250.0, 100.0, 200.0], &slas)
            .unwrap();
        assert_eq!(points.len(), rates.len());
        for (point, &rate) in points.iter().zip(&rates) {
            assert_eq!(point.rate, rate);
            let reference = SystemModel::new(&params.scaled_to_rate(rate), ModelVariant::Full)
                .ok()
                .map(|m| {
                    slas.iter()
                        .map(|&s| m.fraction_meeting_sla(s))
                        .collect::<Vec<_>>()
                });
            assert_eq!(point.fractions, reference, "rate {rate}");
        }
        // Attainment is non-increasing in load wherever both points are
        // stable.
        for pair in points.windows(2) {
            if let (Some(a), Some(b)) = (&pair[0].fractions, &pair[1].fractions) {
                assert!(b[0] <= a[0] + 1e-9);
            }
        }
    }

    #[test]
    fn saturated_rates_come_back_as_none() {
        let reader = calibrated().reader();
        let points = reader.sweep(&[100.0, 1_000_000.0], &[0.05]).unwrap();
        assert!(points[0].fractions.is_some());
        assert_eq!(points[1].fractions, None, "ρ ≥ 1 must not fail the sweep");
    }
}
