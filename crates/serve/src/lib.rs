//! # cos-serve
//!
//! An **online SLA-prediction service** over the analytic model: the
//! operational form of the paper's vision (§I) — a system that watches its
//! own telemetry and continuously answers "what fraction of requests will
//! meet this SLA, now and at hypothetical loads?".
//!
//! The pipeline, stream to answer:
//!
//! * [`telemetry`] — the input event format (arrivals, data reads,
//!   operation latencies, completions), deliberately independent of the
//!   simulator so any source can feed it;
//! * [`calibrate`] — sliding-window online estimators (§IV-B): arrival and
//!   data-read rates, latency-threshold miss ratios, proportional disk
//!   service decomposition — re-fitting [`cos_model::SystemParams`] on a
//!   fixed event-time cadence;
//! * [`cache`] — each installed epoch's memo: percentile / attainment /
//!   headroom / bottleneck questions memoized on the quantized
//!   `(rate, question)` key in the epoch that answers them, so a polling
//!   dashboard costs one inversion per distinct question per epoch;
//! * [`engine`] — the value types around it: the quantization steps, the
//!   installed [`EpochSnapshot`] that owns the memo, the epoch-tagged
//!   [`Prediction`], and the cache and health counters;
//! * [`drift`] — observed-vs-predicted attainment monitoring, the signal
//!   that the fitted distribution family itself has gone bad;
//! * [`obs`] — the service's instrument bundle ([`ServeObs`]): refit
//!   duration and count, cache-hit/miss query latency, ingested events,
//!   and per-point sweep time, recorded into a shared
//!   [`cos_obs::Registry`];
//! * [`tenant`] / [`query`] — the fleet dimension: [`TenantId`]-scoped
//!   estimator shards and the builder-style [`Query`] every read endpoint
//!   takes, which alone judges whether a question is valid;
//! * [`snapshot`] — the one read path: [`SnapshotReader`] answers every
//!   query and what-if sweep on the calling thread from the published
//!   fleet, which the service updates by **delta publication** (only
//!   changed tenants republish);
//! * [`service`] — the assembled [`SlaService`] state machine and its
//!   spawned form: the service behind one writer lock that its handle and
//!   clients share, so ingest and re-fits run on the calling thread, one
//!   writer at a time, with no thread of the service's own. Its
//!   [`ServeConfig`] is a struct literal, checked once by
//!   [`SlaService::new`];
//! * [`error`] — typed failure modes (warming up, unstable ρ ≥ 1,
//!   unreachable goals, unknown tenants, malformed queries, shutdown).
//!
//! Degradation is graceful by construction: a failed or unstable re-fit
//! never evicts the last good epoch — answers keep flowing, flagged
//! [`Prediction::stale`], until calibration recovers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod calibrate;
pub mod drift;
pub mod engine;
pub mod error;
pub mod obs;
pub mod query;
pub mod service;
pub mod snapshot;
pub mod telemetry;
pub mod tenant;

pub use cache::{
    quantize_rate, CacheCounters, EpochMemo, QueryKey, QueryKind, MODELS_PER_EPOCH,
    RESULTS_PER_EPOCH,
};
pub use calibrate::{CalibrationBase, CalibratorConfig, FitError, OnlineCalibrator};
pub use drift::{DriftConfig, DriftMonitor, DriftReport};
pub use engine::{
    CacheStats, EngineHealth, EpochSnapshot, Prediction, FRACTION_QUANTUM, RATE_QUANTUM,
    SLA_QUANTUM,
};
pub use error::ServeError;
pub use obs::ServeObs;
pub use query::{Query, DEFAULT_HEADROOM_UPPER};
pub use service::{ServeConfig, ServiceClient, ServiceHandle, ServiceStatus, SlaService};
pub use snapshot::{
    FleetState, PublishStats, RatePoint, SnapshotReader, SnapshotState, TenantEntry,
};
pub use telemetry::{OpClass, TelemetryEvent};
pub use tenant::{InvalidTenant, TenantId, DEFAULT_TENANT};
