//! # cos-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§V), plus ablations. See `DESIGN.md` §4 for the
//! experiment index and the `src/bin/` binaries for the entry points:
//!
//! * `fig5` — disk service-time fitting (Fig. 5);
//! * `fig6` / `fig7` — percentile-vs-rate series for S1/S16 (Figs. 6–7);
//! * `table1` / `table2` — prediction-error summaries (Tables I–II);
//! * `ablation_wta` — approximate vs exact waiting-time-for-accept (A1);
//! * `ablation_mm1k` — M/M/1/K disk approximation vs simulation (A2);
//! * `ablation_calibration` — threshold miss-ratio estimator and service
//!   decomposition under an LRU cache (A3);
//! * `ablation_accept` — per-connection vs batched accept disciplines (A5);
//! * `diagnose` — per-component latency decomposition at one operating
//!   point;
//! * `predict` — run the model from a JSON cluster description
//!   ([`config_file`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config_file;
pub mod pretty;
pub mod report;
pub mod scenario;
pub mod summary;

pub use scenario::{
    calibrate, fit_windows, run_scenario, simulate, Cell, Scenario, ScenarioResult, WindowResult,
};
pub use summary::{overall_mean_error, prediction_points, table1_row, table2_row};
