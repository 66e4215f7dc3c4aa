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
//! * [`stats`] (`cos-stats`) — percentiles, error summaries, window banks;
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
//! Each layer keeps its own error type: the model's [`model::ModelError`],
//! the service's [`serve::ServeError`] (which the gate maps to an HTTP
//! status in one place), the gate parser's [`gate::ParseError`] and the
//! controller's [`ctrl::Shed`].
//!
//! ## Stability tiers
//!
//! * **Stable.** The serving stack's one way in: the model
//!   ([`model::SystemModel`] over [`model::SystemParams`]), the service
//!   ([`serve::SlaService`] with its [`serve::ServeConfig`] literal, its
//!   [`serve::ServiceHandle`] and [`serve::ServiceClient`] writes, and
//!   every question as a [`serve::Query`] to a [`serve::SnapshotReader`]),
//!   the front door ([`gate::Gate`] with its [`gate::GateConfig`] literal),
//!   the controller ([`ctrl::Controller`]) and the instruments
//!   ([`obs::Registry`]). Changes go through a deprecation cycle.
//! * **Semi-stable.** Everything else reachable through the per-crate
//!   facades: public and documented, but may be reshaped between minor
//!   versions as the reproduction grows.
//! * **Internal.** The numeric/simulation plumbing crates ([`numeric`],
//!   [`simkit`], [`queueing`], [`par`]): exported for the benchmark
//!   harness and tests; no stability promise at all.
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

#![forbid(unsafe_code)]

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
