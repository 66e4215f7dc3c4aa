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
//! * [`engine`] — the memoized inversion engine: percentile / attainment /
//!   headroom / bottleneck queries cached on the quantized
//!   `(epoch, rate, SLA)` key, so a polling dashboard costs one inversion
//!   per distinct question per epoch;
//! * [`worker`] — a `std::thread` pool fanning batch what-if sweeps across
//!   rates;
//! * [`drift`] — observed-vs-predicted attainment monitoring, the signal
//!   that the fitted distribution family itself has gone bad;
//! * [`obs`] — the service's instrument bundle ([`ServeObs`]): refit
//!   duration, cache-hit/miss query latency, ingest lag, and sweep-pool
//!   timings, recorded into a shared [`cos_obs::Registry`];
//! * [`tenant`] / [`query`] — the fleet dimension: [`TenantId`]-scoped
//!   estimator shards and the builder-style [`Query`] every read endpoint
//!   takes;
//! * [`snapshot`] — the lock-free read path and the fleet's **delta
//!   publication** protocol (only changed tenants republish);
//! * [`service`] — the assembled [`SlaService`] state machine and its
//!   spawned, channel-driven form;
//! * [`error`] — typed failure modes (warming up, unstable ρ ≥ 1,
//!   unreachable goals, unknown tenants, malformed queries, shutdown).
//!
//! Degradation is graceful by construction: a failed or unstable re-fit
//! never evicts the last good epoch — answers keep flowing, flagged
//! [`Prediction::stale`], until calibration recovers.

#![warn(missing_docs)]

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
pub mod worker;

pub use cache::{quantize_rate, InversionCache, QueryKey, QueryKind};
pub use calibrate::{CalibrationBase, CalibratorConfig, FitError, OnlineCalibrator};
pub use drift::{DriftConfig, DriftMonitor, DriftReport};
pub use engine::{
    CacheStats, EngineHealth, EpochSnapshot, Prediction, PredictionEngine, FRACTION_QUANTUM,
    RATE_QUANTUM, SLA_QUANTUM,
};
pub use error::ServeError;
pub use obs::ServeObs;
pub use query::{percentile_in_range, Query, DEFAULT_HEADROOM_UPPER};
pub use service::{
    InvalidConfig, ServeConfig, ServeConfigBuilder, ServiceClient, ServiceHandle, ServiceStatus,
    SlaService, TelemetrySender,
};
pub use snapshot::{FleetState, PublishStats, SnapshotReader, SnapshotState, TenantEntry};
pub use telemetry::{OpClass, TelemetryEvent};
pub use tenant::{InvalidTenant, TenantId, DEFAULT_TENANT};
pub use worker::{RatePoint, SweepHandle, SweepPool};
