//! # cos-stats
//!
//! Measurement utilities for the evaluation: exact percentiles
//! ([`percentile`]), prediction-error summaries for Tables I/II
//! ([`error`]), plain-text table rendering for the experiment binaries
//! ([`table`]), streaming moments ([`welford`]), and event-time sliding
//! windows for online calibration ([`window`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod percentile;
pub mod table;
pub mod welford;
pub mod window;

pub use error::{ErrorSummary, PredictionPoint};
pub use percentile::exact_percentile;
pub use table::{ms, pct, TextTable};
pub use welford::Welford;
pub use window::WindowBank;
