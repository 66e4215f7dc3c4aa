//! # cos-model
//!
//! The analytic latency-percentile model of *"Predicting Response Latency
//! Percentiles for Cloud Object Storage Systems"* (Su, Feng, Hua, Shi —
//! ICPP 2017), implemented end to end:
//!
//! * [`params`] — the model's inputs (device performance properties +
//!   system online metrics, §IV);
//! * [`components`] — cache-aware operation laws `m·op_d + (1−m)·δ`;
//! * [`backend`] — the union-operation M/G/1 backend model, with the
//!   M/M/1/K disk approximation for `N_be > 1` (§III-B);
//! * [`wta`] — waiting time for being accept()-ed: the paper approximation
//!   `W_a = W_be`, the paper's exact integral, and the length-biased
//!   equilibrium form (§III-C, ablation A1);
//! * [`frontend`] — the frontend parse M/G/1 (§III-C);
//! * [`system`] — Eq. 2/Eq. 3 composition and the percentile-prediction
//!   API ([`SystemModel::fraction_meeting_sla`]);
//! * [`variant`] — the Full model and the ODOPR / noWTA baselines (§V-C);
//! * [`estimate`] — parameter estimation (§IV): distribution fitting,
//!   latency-threshold miss ratios, disk service-time decomposition;
//! * [`planning`] — the §I what-if applications: capacity planning,
//!   overload control, bottleneck identification, elastic storage;
//! * [`sensitivity`] — which measured input moves the prediction most;
//! * [`coded`] — (n,k) erasure-coded reads: the k-of-n fork-join combine
//!   over per-device sojourns, with split-merge/Bonferroni and
//!   independence envelopes.

#![warn(missing_docs)]

pub mod backend;
pub mod coded;
pub mod components;
pub mod estimate;
pub mod frontend;
pub mod params;
pub mod planning;
pub mod sensitivity;
pub mod system;
pub mod variant;
pub mod wta;

pub use backend::{BackendModel, ModelError};
pub use coded::{CodedBounds, CodedEnvelope, CodedReadModel, CodingSpec};
pub use estimate::{
    decompose_disk_service, fit_disk_law, miss_ratio_by_threshold, rescale_to_mean,
    try_decompose_disk_service, DecomposeError, FittedDiskLaw, LATENCY_THRESHOLD,
};
pub use frontend::{FrontendModel, FrontendSetParams};
pub use params::{DeviceParams, FrontendParams, SystemParams};
pub use planning::{
    elastic_plan, max_admissible_rate, min_devices, model_at_rate, rank_bottlenecks, SlaGoal,
};
pub use sensitivity::{sla_sensitivities, sla_sensitivities_par, Parameter, Sensitivity};
pub use system::{DeviceModel, SystemModel, DELAY_FREE_INVERSION};
pub use variant::ModelVariant;
