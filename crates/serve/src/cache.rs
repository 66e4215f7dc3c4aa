//! Each installed epoch's memo: the evaluation funnel behind every served
//! answer.
//!
//! Every served answer is Eq. 2/3 evaluated on one fitted parameter set,
//! so a memoized answer is valid exactly as long as its epoch is
//! installed. Each [`EpochSnapshot`](crate::EpochSnapshot) therefore owns one [`EpochMemo`] of
//! answers, built models and in-flight computations. The memo is created
//! and pre-warmed when a refit installs the epoch, and every clone of the
//! snapshot shares it, so a failed refit or a stale flip, which keep the
//! epoch, keep its answers. It is retired when the tenant's next epoch
//! replaces it. No code decides an answer's validity from an epoch
//! number: a key is only (what-if rate cell, question).
//!
//! * **Bit-identical by construction** — every query, whichever
//!   [`SnapshotReader`](crate::SnapshotReader) asks it, on whichever
//!   thread, and the service's own drift predictions, collapses to the
//!   same quantized [`QueryKey`] and runs the same [`QueryKind`]
//!   evaluation code on the same snapped inputs, so two readers can never
//!   disagree on a value's bits.
//! * **Bounded per epoch** — a memo holds at most [`RESULTS_PER_EPOCH`]
//!   answers and [`MODELS_PER_EPOCH`] built models; a table at its bound
//!   is cleared wholesale and refills. One tenant's questions fill only
//!   its own epoch's tables, so they never evict another tenant's
//!   answers.
//! * **Retirement** — a retired memo frees its tables and refuses
//!   inserts, and every read on it is answered uncached and counted as a
//!   miss: a reader still holding the superseded epoch mid-request gets
//!   that epoch's bits.
//! * **Single-flight** — the first thread to miss a key registers an
//!   in-flight marker and computes outside the memo's lock; concurrent
//!   requests for the same key block on the flight's condvar and receive
//!   the leader's bits. A leader that panics marks the flight abandoned
//!   (via a drop guard), waking the followers to retry instead of
//!   deadlocking them.
//!
//! Hits and misses count into one [`CacheCounters`] that every epoch of a
//! service shares: the fleet-wide figures of status and `/metrics`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use cos_model::{
    max_admissible_rate, CodedReadModel, CodingSpec, ModelVariant, SlaGoal, SystemModel,
    SystemParams,
};

use crate::engine::{snap, CacheStats, FRACTION_QUANTUM, RATE_QUANTUM, SLA_QUANTUM};
use crate::error::ServeError;

/// Answers one epoch memoizes before its table is cleared: the room one
/// of the eight shards of the fleet-shared cache this memo replaced had,
/// so an 8-tenant fleet keeps that cache's total.
pub const RESULTS_PER_EPOCH: usize = 512;

/// Built models one epoch memoizes before its table is cleared.
pub const MODELS_PER_EPOCH: usize = 64;

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
/// what-if rate. Unlike a [`SystemModel`] the build itself is not
/// memoized — constructing a [`CodedReadModel`] runs no inversions, and
/// the expensive part (the query answer) memoizes as an answer.
fn coded_model(
    params: &SystemParams,
    rate_q: Option<i64>,
    launched: u16,
    needed: u16,
) -> Result<CodedReadModel, ServeError> {
    let spec = CodingSpec::new(launched as usize, needed as usize);
    let built = match rate_q {
        None => CodedReadModel::new(params, spec),
        Some(q) => CodedReadModel::new(&params.scaled_to_rate(q as f64 * RATE_QUANTUM), spec),
    };
    Ok(built?)
}

/// The memo key within one epoch: the optional what-if rate cell and the
/// question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// What-if rate in [`RATE_QUANTUM`] steps; `None` for the calibrated
    /// operating point.
    pub rate_q: Option<i64>,
    /// The quantized question.
    pub kind: QueryKind,
}

/// Hit/miss counters shared by every epoch's memo of one service.
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CacheCounters {
    /// The counts so far. Single-flight waiters count as hits (they ran
    /// no inversion); pre-warmed answers and the uncached reads of a
    /// retired epoch count as misses.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn count(&self, miss: bool) {
        let counter = if miss { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
    }
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

/// A live epoch's tables.
#[derive(Default)]
struct Tables {
    results: HashMap<QueryKey, Result<f64, ServeError>>,
    models: HashMap<Option<i64>, Arc<SystemModel>>,
    inflight: HashMap<QueryKey, Arc<Flight>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking job never holds a memo lock (computation runs outside
    // it), so poisoning only means some *other* thread panicked while
    // touching plain map state — the data is still structurally sound.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One installed epoch's bounded, single-flight memo of answers and
/// built models. See the module docs for the design.
///
/// The built-model table keeps each what-if rate cell's [`SystemModel`]:
/// a what-if question at a new SLA on an already-seen rate pays only its
/// inversion, and a bottleneck ranking builds its model once for all of
/// its per-device questions.
pub struct EpochMemo {
    /// `None` once retired.
    tables: Mutex<Option<Tables>>,
    counters: Arc<CacheCounters>,
    /// Result-table clears forced by [`RESULTS_PER_EPOCH`].
    evictions: AtomicU64,
}

impl EpochMemo {
    /// An empty memo that counts its hits and misses into `counters`.
    pub fn new(counters: Arc<CacheCounters>) -> EpochMemo {
        EpochMemo {
            tables: Mutex::new(Some(Tables::default())),
            counters,
            evictions: AtomicU64::new(0),
        }
    }

    /// Frees the tables: from now on every insert is refused and every
    /// read computes uncached. The service calls it once the tenant's
    /// next epoch has been published in this one's place.
    pub(crate) fn retire(&self) {
        *lock(&self.tables) = None;
    }

    /// Inserts `result` into live `tables`, clearing a full result table
    /// first.
    fn insert_result(&self, tables: &mut Tables, key: QueryKey, result: Result<f64, ServeError>) {
        if tables.results.len() >= RESULTS_PER_EPOCH {
            tables.results.clear();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        tables.results.insert(key, result);
    }

    /// Memoizes `model` for `rate_q`, clearing a full model table first.
    /// A refit pre-warms the native rate's model, validated by the fit.
    pub(crate) fn insert_model(&self, rate_q: Option<i64>, model: Arc<SystemModel>) {
        if let Some(tables) = lock(&self.tables).as_mut() {
            if tables.models.len() >= MODELS_PER_EPOCH {
                tables.models.clear();
            }
            tables.models.insert(rate_q, model);
        }
    }

    /// Installs an already-computed result for `key` (counted as a miss —
    /// the inversion ran, just not through [`get_or_compute`]). The
    /// batched refit path uses this to publish each tenant's per-SLA
    /// attainment predictions, so the dashboard's hottest keys are
    /// resident before the first reader asks.
    ///
    /// [`get_or_compute`]: EpochMemo::get_or_compute
    pub(crate) fn prewarm_result(&self, key: QueryKey, result: Result<f64, ServeError>) {
        self.counters.count(true);
        if let Some(tables) = lock(&self.tables).as_mut() {
            self.insert_result(tables, key, result);
        }
    }

    /// Result-table clears forced by the [`RESULTS_PER_EPOCH`] bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Memoized results currently resident (0 once retired).
    pub fn len(&self) -> usize {
        lock(&self.tables).as_ref().map_or(0, |t| t.results.len())
    }

    /// Whether no results are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Built models currently resident (0 once retired).
    pub fn model_count(&self) -> usize {
        lock(&self.tables).as_ref().map_or(0, |t| t.models.len())
    }

    /// The uncached evaluation of `kind` at the key's snapped inputs on
    /// `params` under `variant`: the inputs are reconstructed from the
    /// quantized key, so any two callers that collapse to the same key run
    /// the exact same floating-point expressions. Only
    /// [`EpochSnapshot::answer`](crate::EpochSnapshot::answer) calls it,
    /// with the parameters of the epoch that owns this memo.
    pub(crate) fn evaluate(
        &self,
        params: &SystemParams,
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
            return max_admissible_rate(params, variant, goal_s, upper_s)
                .ok_or(ServeError::GoalUnreachable);
        }
        // Coded queries build their own model from the raw parameters
        // (like headroom); their answers memoize like any other, which is
        // what keeps both read paths bit-identical.
        match kind {
            QueryKind::CodedFraction {
                launched,
                needed,
                sla_q,
            } => {
                let m = coded_model(params, rate_q, launched, needed)?;
                return Ok(m.fraction_meeting_sla(sla_q as f64 * SLA_QUANTUM));
            }
            QueryKind::CodedPercentile {
                launched,
                needed,
                p_q,
            } => {
                let m = coded_model(params, rate_q, launched, needed)?;
                let p_s = p_q as f64 * FRACTION_QUANTUM;
                return m
                    .latency_percentile(p_s)
                    .ok_or(ServeError::PercentileOutOfRange { p: p_s });
            }
            _ => {}
        }
        let m = self.model_for(params, variant, rate_q)?;
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

    /// The (possibly rate-scaled) model of the epoch, building and
    /// memoizing it on first use. The build runs outside the lock, so two
    /// threads may briefly build the same model concurrently — the builds
    /// are bit-identical, so last-write-wins is harmless and cheaper than
    /// serializing all model construction behind one flight.
    fn model_for(
        &self,
        params: &SystemParams,
        variant: ModelVariant,
        rate_q: Option<i64>,
    ) -> Result<Arc<SystemModel>, ServeError> {
        let cached = lock(&self.tables)
            .as_ref()
            .and_then(|t| t.models.get(&rate_q).cloned());
        if let Some(model) = cached {
            return Ok(model);
        }
        let built = match rate_q {
            None => SystemModel::new(params, variant),
            Some(q) => SystemModel::new(&params.scaled_to_rate(q as f64 * RATE_QUANTUM), variant),
        };
        let model = Arc::new(built?);
        self.insert_model(rate_q, Arc::clone(&model));
        Ok(model)
    }

    /// The single-flight memo core: returns the memoized result for
    /// `key`, or elects this call the leader to run `compute` (outside the
    /// lock) while identical concurrent calls wait for its bits; a retired
    /// memo runs `compute` uncached. The second return value is `true` iff
    /// this call ran `compute`.
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
        let mut compute = Some(compute);
        loop {
            let role = match lock(&self.tables).as_mut() {
                None => Role::Bypass,
                Some(tables) => {
                    if let Some(hit) = tables.results.get(&key) {
                        Role::Ready(hit.clone())
                    } else if let Some(flight) = tables.inflight.get(&key) {
                        Role::Wait(flight.clone())
                    } else {
                        let flight = Arc::new(Flight::new());
                        tables.inflight.insert(key, flight.clone());
                        Role::Lead(flight)
                    }
                }
            };
            match role {
                Role::Ready(r) => {
                    self.counters.count(false);
                    return (r, false);
                }
                Role::Bypass => {
                    // A reader still holding this superseded epoch: its
                    // bits, uncached.
                    self.counters.count(true);
                    let f = compute.take().expect("compute consumed only once");
                    return (f(), true);
                }
                Role::Lead(flight) => {
                    self.counters.count(true);
                    let guard = FlightGuard {
                        memo: self,
                        key,
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
                    loop {
                        match &*state {
                            FlightState::Pending => {
                                state = flight.ready.wait(state).unwrap_or_else(|e| e.into_inner());
                            }
                            FlightState::Done(r) => {
                                self.counters.count(false);
                                return (r.clone(), false);
                            }
                            // The leader panicked: re-enter from the top.
                            FlightState::Abandoned => break,
                        }
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for EpochMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochMemo").finish_non_exhaustive()
    }
}

/// Unregisters a leader's flight on every exit path. On the normal path
/// [`complete`](FlightGuard::complete) stores the result and wakes the
/// waiters; if the computation panics, `Drop` marks the flight abandoned
/// so waiters retry instead of blocking forever.
struct FlightGuard<'a> {
    memo: &'a EpochMemo,
    key: QueryKey,
    flight: &'a Flight,
    completed: bool,
}

impl FlightGuard<'_> {
    fn complete(mut self, result: Result<f64, ServeError>) {
        self.completed = true;
        if let Some(tables) = lock(&self.memo.tables).as_mut() {
            tables.inflight.remove(&self.key);
            self.memo.insert_result(tables, self.key, result.clone());
        }
        self.flight.resolve(FlightState::Done(result));
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        if let Some(tables) = lock(&self.memo.tables).as_mut() {
            tables.inflight.remove(&self.key);
        }
        self.flight.resolve(FlightState::Abandoned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::service::tests::{base, events};
    use crate::service::{ServeConfig, SlaService};
    use crate::tenant::TenantId;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::Duration;

    fn key(sla_q: i64) -> QueryKey {
        QueryKey {
            rate_q: None,
            kind: QueryKind::Fraction { sla_q },
        }
    }

    fn memo() -> (Arc<CacheCounters>, EpochMemo) {
        let counters = Arc::new(CacheCounters::default());
        (Arc::clone(&counters), EpochMemo::new(counters))
    }

    #[test]
    fn miss_then_hit_and_counters() {
        let (counters, cache) = memo();
        let (r, miss) = cache.get_or_compute(key(500), || Ok(0.75));
        assert_eq!(r, Ok(0.75));
        assert!(miss);
        let (r, miss) = cache.get_or_compute(key(500), || panic!("must not recompute"));
        assert_eq!(r, Ok(0.75));
        assert!(!miss);
        assert_eq!(counters.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn errors_are_memoized_too() {
        let (_, cache) = memo();
        let (r, _) = cache.get_or_compute(key(500), || Err(ServeError::GoalUnreachable));
        assert_eq!(r, Err(ServeError::GoalUnreachable));
        let (r, miss) = cache.get_or_compute(key(500), || panic!("memoized failure"));
        assert_eq!(r, Err(ServeError::GoalUnreachable));
        assert!(!miss);
    }

    #[test]
    fn prewarm_result_is_a_hit_for_the_first_reader() {
        let (counters, cache) = memo();
        cache.prewarm_result(key(500), Ok(0.75));
        let (r, miss) = cache.get_or_compute(key(500), || panic!("prewarmed"));
        assert_eq!((r, miss), (Ok(0.75), false));
        assert_eq!(counters.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn capacity_bound_holds_under_high_cardinality() {
        let (_, cache) = memo();
        for i in 0..10_000 {
            cache.get_or_compute(key(i), || Ok(0.0)).0.unwrap();
        }
        assert!(
            cache.len() <= RESULTS_PER_EPOCH,
            "resident {} exceeds the bound",
            cache.len()
        );
        assert!(cache.evictions() > 0, "capacity clears happened");
    }

    #[test]
    fn single_flight_coalesces_identical_concurrent_misses() {
        let (counters, cache) = memo();
        let cache = Arc::new(cache);
        let calls = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let calls = Arc::clone(&calls);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let (r, _) = cache.get_or_compute(key(42), || {
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
        let stats = counters.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.misses, 4);
    }

    /// A service calibrated on the standard stream for each of `tenants`
    /// that refits only when told to.
    fn manual_fleet(tenants: &[&TenantId]) -> SlaService {
        let config = ServeConfig {
            refit_interval: f64::MAX,
            ..ServeConfig::default()
        };
        let mut service = SlaService::new(base(), config);
        for tenant in tenants {
            for ev in events(40.0, 20.0, 2) {
                service.ingest_for(tenant, ev);
            }
        }
        service.refit_now();
        service
    }

    #[test]
    fn a_superseded_epoch_answers_its_own_bits_uncached_from_an_emptied_memo() {
        let tenant = TenantId::default_tenant();
        let mut service = manual_fleet(&[&tenant]);
        let reader = service.reader();
        // A reader mid-request holds epoch 1 across the next refit.
        let old = reader.state().unwrap().snapshot.clone().unwrap();
        let ask = |rate_q| old.answer(ModelVariant::Full, rate_q, QueryKind::fraction(0.05));
        let (fresh, miss) = ask(None);
        let fresh = fresh.unwrap();
        assert!(!miss, "the refit pre-warmed the tracked SLA");
        ask(Some(quantize_rate(60.0))).0.unwrap();
        // Three pre-warmed SLAs and the what-if; the native and 60 req/s
        // models.
        assert_eq!((old.memo().len(), old.memo().model_count()), (4, 2));

        assert!(service.refit_now(), "the same windows fit again");
        let new = reader.attainment(&Query::new().sla(0.05)).unwrap();
        assert_eq!(new.epoch, old.epoch + 1);
        assert_eq!((old.memo().len(), old.memo().model_count()), (0, 0));
        for _ in 0..2 {
            let before = reader.status().unwrap().engine.cache;
            let (again, miss) = ask(None);
            assert_eq!(again.unwrap().to_bits(), fresh.to_bits());
            assert!(miss, "a retired epoch answers uncached");
            let after = reader.status().unwrap().engine.cache;
            assert_eq!(after.misses, before.misses + 1);
            assert_eq!(after.hits, before.hits);
        }
        assert_eq!((old.memo().len(), old.memo().model_count()), (0, 0));
    }

    #[test]
    fn one_tenant_past_its_bound_never_evicts_another_tenants_answers() {
        let (blue, green) = (
            TenantId::new("blue").unwrap(),
            TenantId::new("green").unwrap(),
        );
        let service = manual_fleet(&[&blue, &green]);
        let reader = service.reader();
        let epoch_of = |t: &TenantId| reader.state_for(t).unwrap().snapshot.clone().unwrap();
        let green_resident = epoch_of(&green).memo().len();
        // Blue asks more distinct questions than its epoch can hold.
        for i in 0..RESULTS_PER_EPOCH + 100 {
            let sla = 0.001 + i as f64 * SLA_QUANTUM;
            reader
                .attainment(&Query::tenant(blue.clone()).sla(sla))
                .unwrap();
        }
        assert!(epoch_of(&blue).memo().evictions() > 0, "blue overflowed");
        assert!(epoch_of(&blue).memo().len() <= RESULTS_PER_EPOCH);
        assert_eq!(epoch_of(&green).memo().len(), green_resident);
        // Green's pre-warmed answer is still a hit.
        let before = reader.status().unwrap().engine.cache;
        reader
            .attainment(&Query::tenant(green.clone()).sla(0.05))
            .unwrap();
        let after = reader.status().unwrap().engine.cache;
        assert_eq!((after.hits, after.misses), (before.hits + 1, before.misses));
    }

    #[test]
    fn abandoned_leader_wakes_waiters_to_retry() {
        let (_, cache) = memo();
        let cache = Arc::new(cache);
        let barrier = Arc::new(Barrier::new(2));
        // Leader: registers the flight, signals, then panics mid-compute.
        let leader = {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let _ = cache.get_or_compute(key(7), || {
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
                let (r, _) = cache.get_or_compute(key(7), || Ok(9.5));
                r.unwrap()
            })
        };
        assert!(leader.join().is_err(), "leader panicked as scripted");
        assert_eq!(follower.join().unwrap(), 9.5);
        // The key is not wedged for later callers either.
        let (r, _) = cache.get_or_compute(key(7), || Ok(9.5));
        assert_eq!(r, Ok(9.5));
    }
}
