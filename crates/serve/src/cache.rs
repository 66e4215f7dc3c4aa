//! The sharded concurrent inversion cache behind every served answer.
//!
//! One bounded cache answers every query, which is what makes answers
//! **bit-identical by construction**: every query — whichever
//! [`SnapshotReader`](crate::SnapshotReader) asks it, on whichever thread,
//! and the service's own drift predictions — collapses to the same
//! quantized [`QueryKey`] and runs the same [`QueryKind`] evaluation code
//! on the same snapped inputs, so two readers can never disagree on a
//! value's bits.
//!
//! Structure:
//!
//! * **Shards** — results and built models live in `N` mutex-guarded
//!   shards selected by the key's hash, so concurrent readers on distinct
//!   keys rarely contend on the same lock, and no lock is ever held while
//!   an inversion runs.
//! * **Tenant-scoped keys and epochs** — every [`QueryKey`] carries the
//!   owning tenant's slot, and each shard tracks the newest epoch **per
//!   tenant**: tenants calibrate independently, so tenant A installing
//!   epoch 9 must not discard tenant B's still-valid epoch-3 answers, and
//!   two tenants can never share (or collide on) a memoized result.
//! * **Epoch-generational eviction** — a key from a newer epoch of its
//!   tenant drops that tenant's entries from the shard (the old epoch's
//!   answers are unreachable anyway); a key from an *older* epoch — a
//!   reader still holding yesterday's snapshot mid-request — is answered
//!   uncached rather than poisoning the new epoch's entries.
//! * **Bounded capacity** — a shard at capacity first drops the inserting
//!   tenant's own entries, and only clears wholesale if that was not
//!   enough (so one tenant's key sweep cannot evict the whole fleet's hot
//!   set; with a single tenant this degenerates to the old full clear).
//!   This bounds the old engine memo, which grew without limit within an
//!   epoch.
//! * **Single-flight coalescing** — the first thread to miss a key
//!   registers an in-flight marker and computes outside the shard lock;
//!   concurrent requests for the same key block on the flight's condvar
//!   and receive the leader's bits. A leader that panics marks the flight
//!   abandoned (via a drop guard), waking the followers to retry instead
//!   of deadlocking them.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use cos_model::{
    max_admissible_rate, CodedReadModel, CodingSpec, ModelVariant, SlaGoal, SystemModel,
};

use crate::engine::{snap, CacheStats, EpochSnapshot, FRACTION_QUANTUM, RATE_QUANTUM, SLA_QUANTUM};
use crate::error::ServeError;

/// The quantized question of a memoized query: which scalar is being asked
/// for, with every real-valued input snapped to its quantum so queries in
/// the same cell share one inversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Fraction of requests meeting a quantized SLA.
    Fraction {
        /// SLA bound in [`SLA_QUANTUM`] steps.
        sla_q: i64,
    },
    /// Response-latency percentile at a quantized `p`.
    Percentile {
        /// Percentile in [`FRACTION_QUANTUM`] steps.
        p_q: i64,
    },
    /// Largest admissible rate for a quantized goal.
    Headroom {
        /// SLA bound in [`SLA_QUANTUM`] steps.
        sla_q: i64,
        /// Target fraction in [`FRACTION_QUANTUM`] steps.
        frac_q: i64,
        /// Search upper bound in [`RATE_QUANTUM`] steps.
        upper_q: i64,
    },
    /// One device's fraction meeting a quantized SLA.
    DeviceFraction {
        /// Device index.
        device: usize,
        /// SLA bound in [`SLA_QUANTUM`] steps.
        sla_q: i64,
    },
    /// Fraction of (launched, needed) erasure-coded reads meeting a
    /// quantized SLA (fork-join k-of-n over the epoch's fitted marginals).
    CodedFraction {
        /// Sub-requests launched per read (`n` eager, `k` without spares).
        launched: u16,
        /// Completions needed (`k`).
        needed: u16,
        /// SLA bound in [`SLA_QUANTUM`] steps.
        sla_q: i64,
    },
    /// Latency percentile of (launched, needed) erasure-coded reads.
    CodedPercentile {
        /// Sub-requests launched per read.
        launched: u16,
        /// Completions needed.
        needed: u16,
        /// Percentile in [`FRACTION_QUANTUM`] steps.
        p_q: i64,
    },
}

impl QueryKind {
    /// Fraction-meeting-SLA query at `sla` seconds.
    pub fn fraction(sla: f64) -> QueryKind {
        QueryKind::Fraction {
            sla_q: snap(sla, SLA_QUANTUM).0,
        }
    }

    /// Latency-percentile query at `p` (e.g. `0.95`).
    pub fn percentile(p: f64) -> QueryKind {
        QueryKind::Percentile {
            p_q: snap(p, FRACTION_QUANTUM).0,
        }
    }

    /// Headroom query for `goal` searched up to `upper` req/s.
    pub fn headroom(goal: SlaGoal, upper: f64) -> QueryKind {
        QueryKind::Headroom {
            sla_q: snap(goal.sla, SLA_QUANTUM).0,
            frac_q: snap(goal.target_fraction, FRACTION_QUANTUM).0,
            upper_q: snap(upper, RATE_QUANTUM).0,
        }
    }

    /// Per-device fraction-meeting-SLA query.
    pub fn device_fraction(device: usize, sla: f64) -> QueryKind {
        QueryKind::DeviceFraction {
            device,
            sla_q: snap(sla, SLA_QUANTUM).0,
        }
    }

    /// Coded-read fraction-meeting-SLA query for a (launched, needed)
    /// fan-out. Callers validate `1 ≤ needed ≤ launched` (the gate returns
    /// 400 otherwise); [`cos_model::CodingSpec`] re-asserts it.
    pub fn coded_fraction(launched: u16, needed: u16, sla: f64) -> QueryKind {
        QueryKind::CodedFraction {
            launched,
            needed,
            sla_q: snap(sla, SLA_QUANTUM).0,
        }
    }

    /// Coded-read latency-percentile query at `p`.
    pub fn coded_percentile(launched: u16, needed: u16, p: f64) -> QueryKind {
        QueryKind::CodedPercentile {
            launched,
            needed,
            p_q: snap(p, FRACTION_QUANTUM).0,
        }
    }
}

/// Quantizes a what-if rate (req/s) to its [`RATE_QUANTUM`] cell.
pub fn quantize_rate(rate: f64) -> i64 {
    snap(rate, RATE_QUANTUM).0
}

/// Builds the coded-read model for an epoch's parameters at an optional
/// what-if rate. Unlike [`InversionCache::model_for`] the build itself is
/// not cached — constructing a [`CodedReadModel`] runs no inversions, and
/// the expensive part (the query answer) memoizes at the result layer.
fn coded_model(
    snapshot: &EpochSnapshot,
    rate_q: Option<i64>,
    launched: u16,
    needed: u16,
) -> Result<CodedReadModel, ServeError> {
    let spec = CodingSpec::new(launched as usize, needed as usize);
    let built = match rate_q {
        None => CodedReadModel::new(&snapshot.params, spec),
        Some(q) => CodedReadModel::new(
            &snapshot.params.scaled_to_rate(q as f64 * RATE_QUANTUM),
            spec,
        ),
    };
    Ok(built?)
}

/// The full memo key: tenant, epoch, optional what-if rate cell, and the
/// question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Slot of the tenant whose calibration the answer belongs to
    /// (0 = the reserved `default` tenant).
    pub tenant: u32,
    /// Calibration epoch (of that tenant) the answer is valid for.
    pub epoch: u64,
    /// What-if rate in [`RATE_QUANTUM`] steps; `None` for the calibrated
    /// operating point.
    pub rate_q: Option<i64>,
    /// The quantized question.
    pub kind: QueryKind,
}

/// State of one in-flight computation.
enum FlightState {
    /// The leader is still computing.
    Pending,
    /// The leader finished; every waiter receives these bits.
    Done(Result<f64, ServeError>),
    /// The leader panicked mid-compute; waiters must retry.
    Abandoned,
}

struct Flight {
    state: Mutex<FlightState>,
    ready: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: Mutex::new(FlightState::Pending),
            ready: Condvar::new(),
        }
    }

    fn resolve(&self, state: FlightState) {
        *lock(&self.state) = state;
        self.ready.notify_all();
    }
}

struct ResultShard {
    /// Newest epoch seen per tenant slot.
    epochs: HashMap<u32, u64>,
    entries: HashMap<QueryKey, Result<f64, ServeError>>,
    inflight: HashMap<QueryKey, Arc<Flight>>,
}

struct ModelShard {
    /// Newest epoch seen per tenant slot.
    epochs: HashMap<u32, u64>,
    entries: HashMap<(u32, u64, Option<i64>), Arc<SystemModel>>,
}

/// Capacity-bound eviction: drop the inserting tenant's own entries
/// first, and only clear the shard wholesale if that was not enough.
/// A single-tenant cache degenerates to the old full clear.
fn evict_for(
    entries: &mut HashMap<QueryKey, Result<f64, ServeError>>,
    tenant: u32,
    capacity: usize,
) {
    entries.retain(|k, _| k.tenant != tenant);
    if entries.len() >= capacity {
        entries.clear();
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking job never holds a shard lock (computation runs outside
    // it), so poisoning only means some *other* thread panicked while
    // touching plain map state — the data is still structurally sound.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The sharded, bounded, single-flight memo of inversion results and built
/// models. See the module docs for the design; one instance is shared by
/// the service (its drift predictions and refit pre-warming) and every
/// [`SnapshotReader`](crate::SnapshotReader).
///
/// The built-model layer keeps each `(tenant, epoch, rate)`'s
/// [`SystemModel`]: a what-if question at a new SLA on an already-seen rate
/// pays only its inversion, and a bottleneck ranking builds its model once
/// for all of its per-device questions.
pub struct InversionCache {
    shards: Vec<Mutex<ResultShard>>,
    model_shards: Vec<Mutex<ModelShard>>,
    results_per_shard: usize,
    models_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

impl Default for InversionCache {
    /// 8 shards × 512 results (4096 total — the old engine memo's bound)
    /// and 8 × 64 built models.
    fn default() -> Self {
        InversionCache::new(8, 512, 64)
    }
}

impl InversionCache {
    /// Creates a cache with `shards` mutex shards holding at most
    /// `results_per_shard` memoized answers and `models_per_shard` built
    /// models each (every bound is clamped to at least 1).
    pub fn new(shards: usize, results_per_shard: usize, models_per_shard: usize) -> Self {
        let shards = shards.max(1);
        InversionCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(ResultShard {
                        epochs: HashMap::new(),
                        entries: HashMap::new(),
                        inflight: HashMap::new(),
                    })
                })
                .collect(),
            model_shards: (0..shards)
                .map(|_| {
                    Mutex::new(ModelShard {
                        epochs: HashMap::new(),
                        entries: HashMap::new(),
                    })
                })
                .collect(),
            results_per_shard: results_per_shard.max(1),
            models_per_shard: models_per_shard.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_index<K: Hash>(&self, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// Eagerly drops every entry of `tenant` older than `epoch` (called at
    /// install time so the old epoch's memory is released immediately
    /// rather than on first touch). Other tenants' entries are untouched —
    /// tenants calibrate on independent epoch counters.
    pub fn advance_epoch(&self, tenant: u32, epoch: u64) {
        for shard in &self.shards {
            let mut s = lock(shard);
            if s.epochs.get(&tenant).copied().unwrap_or(0) < epoch {
                s.epochs.insert(tenant, epoch);
                s.entries.retain(|k, _| k.tenant != tenant);
            }
        }
        for shard in &self.model_shards {
            let mut s = lock(shard);
            if s.epochs.get(&tenant).copied().unwrap_or(0) < epoch {
                s.epochs.insert(tenant, epoch);
                s.entries.retain(|k, _| k.0 != tenant);
            }
        }
    }

    /// Installs an already-built model for `tenant`'s `epoch` at the
    /// native rate (the model validated during the fit pre-warms the
    /// cache).
    pub fn prewarm_model(&self, tenant: u32, epoch: u64, model: Arc<SystemModel>) {
        self.advance_epoch(tenant, epoch);
        let mkey = (tenant, epoch, None);
        let mut s = lock(&self.model_shards[self.shard_index(&mkey)]);
        if s.epochs.get(&tenant).copied().unwrap_or(0) == epoch {
            s.entries.insert(mkey, model);
        }
    }

    /// Installs an already-computed result for `key` (counted as a miss —
    /// the inversion ran, just not through [`get_or_compute`]). The
    /// batched refit path uses this to publish each tenant's per-SLA
    /// attainment predictions, so the dashboard's hottest keys are
    /// resident before the first reader asks.
    ///
    /// [`get_or_compute`]: InversionCache::get_or_compute
    pub fn prewarm_result(&self, key: QueryKey, result: Result<f64, ServeError>) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let idx = self.shard_index(&key);
        let mut shard = lock(&self.shards[idx]);
        let current = shard.epochs.get(&key.tenant).copied().unwrap_or(0);
        if key.epoch > current {
            shard.epochs.insert(key.tenant, key.epoch);
            shard.entries.retain(|k, _| k.tenant != key.tenant);
        } else if key.epoch < current {
            return; // an older epoch's answer must not enter the memo
        }
        if shard.entries.len() >= self.results_per_shard {
            evict_for(&mut shard.entries, key.tenant, self.results_per_shard);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.entries.insert(key, result);
    }

    /// Hit/miss counters (single-flight waiters count as hits — they did
    /// not run an inversion).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Queries that blocked on another thread's identical in-flight
    /// computation and received its bits (a subset of the hits).
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Wholesale shard clears forced by the capacity bound (epoch
    /// invalidations are not counted).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Memoized results currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).entries.len()).sum()
    }

    /// Whether no results are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Built models currently resident across all shards.
    pub fn model_count(&self) -> usize {
        self.model_shards
            .iter()
            .map(|s| lock(s).entries.len())
            .sum()
    }

    /// Answers `kind` for `tenant` against `snapshot` under `variant`,
    /// memoized on the quantized key. Returns the outcome and whether
    /// *this call* ran the computation (`true` = miss; cached answers and
    /// coalesced waiters are hits).
    ///
    /// This is the single evaluation funnel for every query path — the
    /// inputs are reconstructed from the quantized key, so any two callers
    /// that collapse to the same key run (or reuse) the exact same
    /// floating-point expressions.
    pub fn answer(
        &self,
        tenant: u32,
        snapshot: &EpochSnapshot,
        variant: ModelVariant,
        rate_q: Option<i64>,
        kind: QueryKind,
    ) -> (Result<f64, ServeError>, bool) {
        let key = QueryKey {
            tenant,
            epoch: snapshot.epoch,
            rate_q,
            kind,
        };
        self.get_or_compute(key, || {
            self.evaluate(tenant, snapshot, variant, rate_q, kind)
        })
    }

    /// The uncached evaluation of `kind` at the key's snapped inputs.
    fn evaluate(
        &self,
        tenant: u32,
        snapshot: &EpochSnapshot,
        variant: ModelVariant,
        rate_q: Option<i64>,
        kind: QueryKind,
    ) -> Result<f64, ServeError> {
        if let QueryKind::Headroom {
            sla_q,
            frac_q,
            upper_q,
        } = kind
        {
            // Headroom searches over rates itself; it needs the raw
            // parameters, not a built model.
            let sla_s = sla_q as f64 * SLA_QUANTUM;
            let frac_s = frac_q as f64 * FRACTION_QUANTUM;
            let upper_s = upper_q as f64 * RATE_QUANTUM;
            let goal_s = SlaGoal::new(sla_s, frac_s.min(1.0 - FRACTION_QUANTUM));
            return max_admissible_rate(&snapshot.params, variant, goal_s, upper_s)
                .ok_or(ServeError::GoalUnreachable);
        }
        // Coded queries build their own model from the raw parameters
        // (like headroom); results are memoized at this cache's
        // result layer, which is what keeps both read paths bit-identical.
        match kind {
            QueryKind::CodedFraction {
                launched,
                needed,
                sla_q,
            } => {
                let m = coded_model(snapshot, rate_q, launched, needed)?;
                return Ok(m.fraction_meeting_sla(sla_q as f64 * SLA_QUANTUM));
            }
            QueryKind::CodedPercentile {
                launched,
                needed,
                p_q,
            } => {
                let m = coded_model(snapshot, rate_q, launched, needed)?;
                let p_s = p_q as f64 * FRACTION_QUANTUM;
                return m
                    .latency_percentile(p_s)
                    .ok_or(ServeError::PercentileOutOfRange { p: p_s });
            }
            _ => {}
        }
        let m = self.model_for(tenant, snapshot, variant, rate_q)?;
        match kind {
            QueryKind::Fraction { sla_q } => Ok(m.fraction_meeting_sla(sla_q as f64 * SLA_QUANTUM)),
            QueryKind::Percentile { p_q } => {
                let p_s = p_q as f64 * FRACTION_QUANTUM;
                m.latency_percentile(p_s)
                    .ok_or(ServeError::PercentileOutOfRange { p: p_s })
            }
            QueryKind::DeviceFraction { device, sla_q } => {
                if device >= m.devices().len() {
                    return Err(ServeError::NotCalibrated);
                }
                Ok(m.device_fraction_meeting(device, sla_q as f64 * SLA_QUANTUM))
            }
            QueryKind::Headroom { .. }
            | QueryKind::CodedFraction { .. }
            | QueryKind::CodedPercentile { .. } => {
                unreachable!("handled above")
            }
        }
    }

    /// The (possibly rate-scaled) model of a tenant's epoch, building and
    /// caching it on first use. The build runs outside the shard lock, so
    /// two threads may briefly build the same model concurrently — the
    /// builds are bit-identical, so last-write-wins is harmless and
    /// cheaper than serializing all model construction behind one flight.
    pub fn model_for(
        &self,
        tenant: u32,
        snapshot: &EpochSnapshot,
        variant: ModelVariant,
        rate_q: Option<i64>,
    ) -> Result<Arc<SystemModel>, ServeError> {
        let mkey = (tenant, snapshot.epoch, rate_q);
        let idx = self.shard_index(&mkey);
        {
            let mut s = lock(&self.model_shards[idx]);
            if s.epochs.get(&tenant).copied().unwrap_or(0) < snapshot.epoch {
                s.epochs.insert(tenant, snapshot.epoch);
                s.entries.retain(|k, _| k.0 != tenant);
            }
            if let Some(m) = s.entries.get(&mkey) {
                return Ok(m.clone());
            }
        }
        let built = match rate_q {
            None => SystemModel::new(&snapshot.params, variant),
            Some(q) => SystemModel::new(
                &snapshot.params.scaled_to_rate(q as f64 * RATE_QUANTUM),
                variant,
            ),
        };
        let model = Arc::new(built?);
        let mut s = lock(&self.model_shards[idx]);
        if s.epochs.get(&tenant).copied().unwrap_or(0) == snapshot.epoch {
            if s.entries.len() >= self.models_per_shard {
                s.entries.retain(|k, _| k.0 != tenant);
                if s.entries.len() >= self.models_per_shard {
                    s.entries.clear();
                }
            }
            s.entries.insert(mkey, model.clone());
        }
        Ok(model)
    }

    /// The single-flight memo core: returns the cached result for `key`,
    /// or elects this call the leader to run `compute` (outside the shard
    /// lock) while identical concurrent calls wait for its bits. The
    /// second return value is `true` iff this call ran `compute`.
    pub fn get_or_compute(
        &self,
        key: QueryKey,
        compute: impl FnOnce() -> Result<f64, ServeError>,
    ) -> (Result<f64, ServeError>, bool) {
        enum Role {
            Ready(Result<f64, ServeError>),
            Wait(Arc<Flight>),
            Lead(Arc<Flight>),
            Bypass,
        }
        let idx = self.shard_index(&key);
        let mut compute = Some(compute);
        loop {
            let role = {
                let mut shard = lock(&self.shards[idx]);
                let current = shard.epochs.get(&key.tenant).copied().unwrap_or(0);
                if key.epoch > current {
                    shard.epochs.insert(key.tenant, key.epoch);
                    shard.entries.retain(|k, _| k.tenant != key.tenant);
                }
                if key.epoch < current {
                    Role::Bypass
                } else if let Some(hit) = shard.entries.get(&key) {
                    Role::Ready(hit.clone())
                } else if let Some(flight) = shard.inflight.get(&key) {
                    Role::Wait(flight.clone())
                } else {
                    let flight = Arc::new(Flight::new());
                    shard.inflight.insert(key, flight.clone());
                    Role::Lead(flight)
                }
            };
            match role {
                Role::Ready(r) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (r, false);
                }
                Role::Bypass => {
                    // The cache has moved past this key's epoch (a reader
                    // still holding an old snapshot mid-request): answer
                    // uncached rather than poison the new epoch's entries.
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let f = compute.take().expect("compute consumed only once");
                    return (f(), true);
                }
                Role::Lead(flight) => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let guard = FlightGuard {
                        cache: self,
                        key,
                        shard: idx,
                        flight: &flight,
                        completed: false,
                    };
                    let f = compute.take().expect("compute consumed only once");
                    let result = f();
                    guard.complete(result.clone());
                    return (result, true);
                }
                Role::Wait(flight) => {
                    let mut state = lock(&flight.state);
                    let retry = loop {
                        match &*state {
                            FlightState::Pending => {
                                state = flight.ready.wait(state).unwrap_or_else(|e| e.into_inner());
                            }
                            FlightState::Done(r) => {
                                self.hits.fetch_add(1, Ordering::Relaxed);
                                self.coalesced.fetch_add(1, Ordering::Relaxed);
                                return (r.clone(), false);
                            }
                            FlightState::Abandoned => break true,
                        }
                    };
                    if retry {
                        continue; // leader panicked: re-enter from the top
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for InversionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InversionCache")
            .field("shards", &self.shards.len())
            .field("results_per_shard", &self.results_per_shard)
            .field("models_per_shard", &self.models_per_shard)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Unregisters a leader's flight on every exit path. On the normal path
/// [`complete`](FlightGuard::complete) stores the result and wakes the
/// waiters; if the computation panics, `Drop` marks the flight abandoned
/// so waiters retry instead of blocking forever.
struct FlightGuard<'a> {
    cache: &'a InversionCache,
    key: QueryKey,
    shard: usize,
    flight: &'a Arc<Flight>,
    completed: bool,
}

impl FlightGuard<'_> {
    fn complete(mut self, result: Result<f64, ServeError>) {
        self.completed = true;
        let mut shard = lock(&self.cache.shards[self.shard]);
        shard.inflight.remove(&self.key);
        if shard.epochs.get(&self.key.tenant).copied().unwrap_or(0) == self.key.epoch {
            if shard.entries.len() >= self.cache.results_per_shard {
                evict_for(
                    &mut shard.entries,
                    self.key.tenant,
                    self.cache.results_per_shard,
                );
                self.cache.evictions.fetch_add(1, Ordering::Relaxed);
            }
            shard.entries.insert(self.key, result.clone());
        }
        drop(shard);
        self.flight.resolve(FlightState::Done(result));
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        let mut shard = lock(&self.cache.shards[self.shard]);
        shard.inflight.remove(&self.key);
        drop(shard);
        self.flight.resolve(FlightState::Abandoned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::Duration;

    fn key(epoch: u64, sla_q: i64) -> QueryKey {
        tenant_key(0, epoch, sla_q)
    }

    fn tenant_key(tenant: u32, epoch: u64, sla_q: i64) -> QueryKey {
        QueryKey {
            tenant,
            epoch,
            rate_q: None,
            kind: QueryKind::Fraction { sla_q },
        }
    }

    #[test]
    fn miss_then_hit_and_counters() {
        let cache = InversionCache::default();
        let (r, miss) = cache.get_or_compute(key(1, 500), || Ok(0.75));
        assert_eq!(r, Ok(0.75));
        assert!(miss);
        let (r, miss) = cache.get_or_compute(key(1, 500), || panic!("must not recompute"));
        assert_eq!(r, Ok(0.75));
        assert!(!miss);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn errors_are_memoized_too() {
        let cache = InversionCache::default();
        let (r, _) = cache.get_or_compute(key(1, 500), || Err(ServeError::GoalUnreachable));
        assert_eq!(r, Err(ServeError::GoalUnreachable));
        let (r, miss) = cache.get_or_compute(key(1, 500), || panic!("memoized failure"));
        assert_eq!(r, Err(ServeError::GoalUnreachable));
        assert!(!miss);
    }

    #[test]
    fn newer_epoch_clears_older_epoch_bypasses() {
        let cache = InversionCache::default();
        cache.get_or_compute(key(1, 500), || Ok(1.0)).0.unwrap();
        assert_eq!(cache.len(), 1);
        // Epoch 2 installs (advancing every shard), then caches an answer.
        cache.advance_epoch(0, 2);
        let (r, miss) = cache.get_or_compute(key(2, 500), || Ok(2.0));
        assert_eq!(r, Ok(2.0));
        assert!(miss);
        // A stale reader still on epoch 1 computes uncached.
        let calls = AtomicUsize::new(0);
        for _ in 0..2 {
            let (r, miss) = cache.get_or_compute(key(1, 500), || {
                calls.fetch_add(1, Ordering::SeqCst);
                Ok(1.0)
            });
            assert_eq!(r, Ok(1.0));
            assert!(miss, "old-epoch reads never cache");
        }
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        // And the new epoch's entry survived.
        let (r, miss) = cache.get_or_compute(key(2, 500), || panic!("cached"));
        assert_eq!(r, Ok(2.0));
        assert!(!miss);
    }

    #[test]
    fn advance_epoch_eagerly_empties_everything() {
        let cache = InversionCache::default();
        for i in 0..20 {
            cache.get_or_compute(key(1, i), || Ok(i as f64)).0.unwrap();
        }
        assert_eq!(cache.len(), 20);
        cache.advance_epoch(0, 2);
        assert_eq!(cache.len(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn tenants_have_independent_epochs_and_results() {
        let cache = InversionCache::default();
        // Tenant 0 at epoch 5, tenant 1 at epoch 2, same quantized question.
        cache
            .get_or_compute(tenant_key(0, 5, 500), || Ok(0.1))
            .0
            .unwrap();
        cache
            .get_or_compute(tenant_key(1, 2, 500), || Ok(0.9))
            .0
            .unwrap();
        // Same kind, different tenant: distinct answers, no sharing.
        let (r0, miss0) = cache.get_or_compute(tenant_key(0, 5, 500), || panic!("cached"));
        let (r1, miss1) = cache.get_or_compute(tenant_key(1, 2, 500), || panic!("cached"));
        assert_eq!((r0, miss0), (Ok(0.1), false));
        assert_eq!((r1, miss1), (Ok(0.9), false));
        // Tenant 0 advancing does not touch tenant 1's entries.
        cache.advance_epoch(0, 6);
        let (r1, miss1) = cache.get_or_compute(tenant_key(1, 2, 500), || panic!("survived"));
        assert_eq!((r1, miss1), (Ok(0.9), false));
        let (_, miss0) = cache.get_or_compute(tenant_key(0, 6, 500), || Ok(0.2));
        assert!(miss0, "tenant 0's old epoch was dropped");
    }

    #[test]
    fn capacity_eviction_spares_other_tenants() {
        // One shard so every key contends on the same capacity bound.
        let cache = InversionCache::new(1, 8, 4);
        cache
            .get_or_compute(tenant_key(1, 1, 999), || Ok(42.0))
            .0
            .unwrap();
        // Tenant 0 sweeps far past capacity.
        for i in 0..100 {
            cache
                .get_or_compute(tenant_key(0, 1, i), || Ok(0.0))
                .0
                .unwrap();
        }
        assert!(cache.evictions() > 0);
        // Tenant 1's lone entry was never the eviction victim.
        let (r, miss) = cache.get_or_compute(tenant_key(1, 1, 999), || panic!("evicted"));
        assert_eq!((r, miss), (Ok(42.0), false));
    }

    #[test]
    fn prewarm_result_is_a_hit_for_the_first_reader() {
        let cache = InversionCache::default();
        cache.prewarm_result(key(3, 500), Ok(0.75));
        let (r, miss) = cache.get_or_compute(key(3, 500), || panic!("prewarmed"));
        assert_eq!((r, miss), (Ok(0.75), false));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        // A stale prewarm (older than the tenant's current epoch) is a no-op.
        cache.advance_epoch(0, 4);
        cache.prewarm_result(key(3, 400), Ok(0.5));
        let (_, miss) = cache.get_or_compute(key(3, 400), || Ok(0.0));
        assert!(miss, "old-epoch prewarm must not be served");
    }

    #[test]
    fn capacity_bound_holds_under_high_cardinality() {
        let cache = InversionCache::new(4, 8, 4);
        for i in 0..10_000 {
            cache.get_or_compute(key(1, i), || Ok(0.0)).0.unwrap();
        }
        assert!(
            cache.len() <= 4 * 8,
            "resident {} exceeds the bound",
            cache.len()
        );
        assert!(cache.evictions() > 0, "capacity clears happened");
    }

    #[test]
    fn single_flight_coalesces_identical_concurrent_misses() {
        let cache = Arc::new(InversionCache::default());
        let calls = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let calls = Arc::clone(&calls);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let (r, _) = cache.get_or_compute(key(1, 42), || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough for the others
                        // to pile onto it.
                        std::thread::sleep(Duration::from_millis(50));
                        Ok(0.123_456_789)
                    });
                    r.unwrap().to_bits()
                })
            })
            .collect();
        let bits: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(bits.windows(2).all(|w| w[0] == w[1]), "same bits to all");
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "exactly one computation ran"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.misses, 4);
        assert_eq!(cache.coalesced(), stats.hits);
    }

    #[test]
    fn abandoned_leader_wakes_waiters_to_retry() {
        let cache = Arc::new(InversionCache::default());
        let barrier = Arc::new(Barrier::new(2));
        // Leader: registers the flight, signals, then panics mid-compute.
        let leader = {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let _ = cache.get_or_compute(key(1, 7), || {
                    barrier.wait();
                    std::thread::sleep(Duration::from_millis(30));
                    panic!("leader dies mid-flight");
                });
            })
        };
        // Follower: arrives while the flight is pending, must end up with
        // a real answer (retrying, possibly leading itself) — not a hang.
        let follower = {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let (r, _) = cache.get_or_compute(key(1, 7), || Ok(9.5));
                r.unwrap()
            })
        };
        assert!(leader.join().is_err(), "leader panicked as scripted");
        assert_eq!(follower.join().unwrap(), 9.5);
        // The key is not wedged for later callers either.
        let (r, _) = cache.get_or_compute(key(1, 7), || Ok(9.5));
        assert_eq!(r, Ok(9.5));
    }
}
