//! # cos-ctrl
//!
//! The control loop over the prediction stack: the piece that *acts* on
//! the paper's predictions instead of only reporting them. The paper's
//! headline use case is capacity planning — "will the SLA hold at this
//! load?" — and the natural operational consequence is admission control:
//! when the fitted Eq. 3 mixture model says attainment is about to fall
//! below target, refuse just enough load (and just the right load) to
//! keep the promise for everyone else.
//!
//! Three pieces, std-only like the rest of the workspace:
//!
//! * [`admission`] — SLA classes with a priority shed ladder, the typed
//!   [`Shed`] refusal, and the hysteresis/AIMD [`AdmissionPolicy`];
//! * [`anomaly`] — a streaming robust z-score detector over the drift
//!   residuals (observed vs model-predicted attainment);
//! * [`controller`] — the [`Controller`] combining both over a
//!   [`cos_serve::SnapshotReader`], off the writer lock: a sub-microsecond per-request
//!   [`decide`](Controller::decide) for the gate's hot path and a
//!   generation-gated [`tick`](Controller::tick) that re-evaluates policy
//!   exactly once per published re-fit.
//!
//! The distinctive design choice is that the controller is **model-driven
//! first, feedback-driven second**: on the first violating epoch it jumps
//! straight to the shed fraction the headroom solver implies
//! (`1 − headroom/λ`) rather than probing its way up, and only then lets
//! the additive-increase / multiplicative-decrease loop correct what the
//! model got wrong. Fault-injection coverage lives in `cos-storesim`'s
//! chaos harness and the repo-level `tests/control_loop.rs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod anomaly;
pub mod controller;

pub use admission::{AdmissionPolicy, InvalidPolicy, Shed, SlaClass};
pub use anomaly::{Anomaly, AnomalyConfig, AnomalyDetector};
pub use controller::{Controller, CtrlConfig, CtrlStats, TickReport, Ticker};
