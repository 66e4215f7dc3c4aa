//! # cos-stats
//!
//! Measurement utilities for the evaluation: percentile estimation
//! ([`percentile`]), latency histograms ([`histogram`]), time-binned SLA
//! meters matching the paper's per-minute bookkeeping ([`sla`]),
//! prediction-error summaries for Tables I/II ([`error`]), plain-text
//! table rendering for the experiment binaries ([`table`]), streaming
//! moments + batch-means confidence intervals ([`welford`]), and
//! event-time sliding windows for online calibration ([`window`]).

#![warn(missing_docs)]

pub mod error;
pub mod histogram;
pub mod percentile;
pub mod sla;
pub mod table;
pub mod welford;
pub mod window;

pub use error::{pooled_summary, ErrorSummary, PredictionPoint};
pub use histogram::Histogram;
pub use percentile::{exact_percentile, fraction_within, P2Quantile};
pub use sla::SlaMeter;
pub use table::{ms, pct, TextTable};
pub use welford::{BatchMeans, Welford};
pub use window::{RotatingQuantile, WindowBank};
