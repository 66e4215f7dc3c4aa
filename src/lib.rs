//! # cosmodel
//!
//! A from-scratch Rust reproduction of *"Predicting Response Latency
//! Percentiles for Cloud Object Storage Systems"* (Su, Feng, Hua, Shi —
//! ICPP 2017, DOI 10.1109/ICPP.2017.33).
//!
//! The paper builds an analytic queueing model that predicts the percentile
//! of requests meeting an SLA for event-driven cloud object stores (e.g.
//! OpenStack Swift), packing parse / index lookup / metadata read / chunked
//! data reads into a queueing-friendly **union operation**, quantifying the
//! **waiting time for being accept()-ed**, and approximating the shared
//! disk with an **M/M/1/K** queue when a device has multiple processes.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`model`] (`cos-model`) — the analytic model and baselines;
//! * [`storesim`] (`cos-storesim`) — the simulated Swift-like testbed;
//! * [`workload`] (`cos-workload`) — Wikipedia-like trace synthesis;
//! * [`queueing`] (`cos-queueing`) — M/G/1, M/M/1/K, the union operation;
//! * [`distr`] (`cos-distr`) — distributions, LSTs, fitting;
//! * [`numeric`] (`cos-numeric`) — complex arithmetic + Laplace inversion;
//! * [`simkit`] (`cos-simkit`) — the discrete-event engine;
//! * [`stats`] (`cos-stats`) — percentiles, SLA meters, error summaries;
//! * [`serve`] (`cos-serve`) — the online SLA-prediction service: streaming
//!   calibration, drift detection, and one read path — every query and
//!   what-if sweep answered from the published snapshot through a
//!   memoized inversion cache;
//! * [`gate`] (`cos-gate`) — the hand-rolled HTTP/1.1 front door serving
//!   predictions and `/metrics` over a socket;
//! * [`ctrl`] (`cos-ctrl`) — the control loop: model-driven admission
//!   control (shed via `429` + `Retry-After`) and streaming anomaly
//!   detection over the drift residuals;
//! * [`obs`] (`cos-obs`) — lock-free latency histograms, counters, and
//!   span timers the service and gate record themselves into.
//!
//! Applications should start from [`prelude`] (the tier-1 stable surface)
//! and [`CosError`] (the unified error umbrella); the per-crate facades
//! above are the deeper, semi-stable layer.
//!
//! ## Quickstart
//!
//! ```
//! use cosmodel::model::{DeviceParams, FrontendParams, ModelVariant, SystemModel, SystemParams};
//! use cosmodel::queueing::from_distribution;
//! use cosmodel::distr::{Degenerate, Gamma};
//!
//! // One storage device at 40 req/s with benchmarked Gamma disk laws.
//! let device = DeviceParams {
//!     arrival_rate: 40.0,
//!     data_read_rate: 44.0,
//!     miss_index: 0.3,
//!     miss_meta: 0.3,
//!     miss_data: 0.5,
//!     index_disk: from_distribution(Gamma::new(3.0, 250.0)),
//!     meta_disk: from_distribution(Gamma::new(2.5, 312.5)),
//!     data_disk: from_distribution(Gamma::new(3.5, 245.0)),
//!     parse_be: from_distribution(Degenerate::new(0.0005)),
//!     processes: 1,
//! };
//! let params = SystemParams {
//!     frontend: FrontendParams {
//!         arrival_rate: 40.0,
//!         processes: 3,
//!         parse_fe: from_distribution(Degenerate::new(0.0003)),
//!     },
//!     devices: vec![device],
//! };
//! let model = SystemModel::new(&params, ModelVariant::Full).unwrap();
//! let p = model.fraction_meeting_sla(0.100); // SLA: 100 ms
//! assert!(p > 0.85, "most requests meet 100 ms at this load, got {p}");
//! ```

pub use cos_ctrl as ctrl;
pub use cos_distr as distr;
pub use cos_gate as gate;
pub use cos_model as model;
pub use cos_numeric as numeric;
pub use cos_obs as obs;
pub use cos_par as par;
pub use cos_queueing as queueing;
pub use cos_serve as serve;
pub use cos_simkit as simkit;
pub use cos_stats as stats;
pub use cos_storesim as storesim;
pub use cos_workload as workload;

pub mod error;

pub use error::CosError;

/// The stable, application-facing surface in one import.
///
/// `use cosmodel::prelude::*;` brings in everything needed to calibrate a
/// model, run the online prediction service, put the HTTP gate in front of
/// it, and observe the whole stack — without reaching into the individual
/// workspace crates.
///
/// ## Stability tiers
///
/// * **Tier 1 — stable.** The names re-exported here. They form the query
///   surface the README and DESIGN document; changes go through a
///   deprecation cycle.
/// * **Tier 2 — semi-stable.** Everything else reachable through the
///   per-crate facades ([`crate::model`], [`crate::serve`],
///   [`crate::gate`], [`crate::obs`], …): public and documented, but may
///   be reshaped between minor versions as the reproduction grows.
/// * **Tier 3 — internal.** The numeric/simulation plumbing crates
///   ([`crate::numeric`], [`crate::simkit`], [`crate::queueing`],
///   [`crate::par`]): exported for the benchmark harness and tests; no
///   stability promise at all.
pub mod prelude {
    // Tier 1: the analytic model — parameters in, percentile out.
    pub use cos_model::{
        DeviceParams, FrontendParams, ModelError, ModelVariant, SlaGoal, SystemModel, SystemParams,
    };

    // Tier 1: the online service — telemetry in, predictions out.
    pub use cos_serve::{
        CalibrationBase, CalibratorConfig, InvalidTenant, Prediction, Query, ServeConfig,
        ServeConfigBuilder, ServeError, ServiceClient, ServiceHandle, ServiceStatus, SlaService,
        SnapshotReader, TelemetryEvent, TelemetrySender, TenantId, DEFAULT_TENANT,
    };

    // Tier 1: the HTTP front door.
    pub use cos_gate::{Gate, GateConfig, GateConfigBuilder};

    // Tier 1: the admission controller + anomaly detector.
    pub use cos_ctrl::{
        AdmissionPolicy, Anomaly, AnomalyConfig, Controller, CtrlConfig, Shed, SlaClass, Ticker,
    };

    // Tier 1: the self-measuring instruments shared across the stack.
    pub use cos_obs::{Counter, Gauge, Hist, HistSnapshot, Registry};

    // Tier 1: the unified error umbrella.
    pub use crate::error::CosError;
}
