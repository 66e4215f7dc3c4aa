//! # cos-numeric
//!
//! Numerical foundations for the `cosmodel` reproduction of *"Predicting
//! Response Latency Percentiles for Cloud Object Storage Systems"*
//! (Su, Feng, Hua, Shi — ICPP 2017):
//!
//! * [`complex`] — self-contained double-precision complex arithmetic
//!   (the offline crate set has no `num-complex`),
//! * [`special`] — log-gamma, digamma/trigamma, regularized incomplete gamma,
//!   `erf`/`erfc`,
//! * [`lanes`] — the lane kernel: polynomial `exp`/`ln`/`atan`/`sin_cos`
//!   with a fixed per-lane fallback to `std`, batch Gamma and point-mass
//!   transforms, branch-free complex division and the P–K step, all
//!   compiled for baseline x86-64 and AVX-512,
//! * [`laplace`] — numerical Laplace-transform inversion (Abate–Whitt
//!   Euler) and CDF/quantile helpers,
//! * [`roots`] — Brent / damped Newton, and the log-survival Newton search
//!   that inverts CDFs,
//! * [`quad`] — adaptive Simpson quadrature.
//!
//! The model's percentile predictions are produced by evaluating
//! Laplace–Stieltjes transforms along complex contours and inverting
//! `L[f](s)/s`; everything needed for that lives here, implemented from
//! scratch and pinned by tests against closed forms.

#![warn(missing_docs)]

pub mod complex;
pub mod lanes;
pub mod laplace;
pub mod quad;
pub mod roots;
pub mod special;

pub use complex::Complex64;
pub use laplace::{
    ccdf_from_lst, cdf_and_density_from_lst, cdf_from_lst, euler, quantile_from_lst, ConfigError,
    CountingLaplaceFn, InversionConfig, InversionPlan, LaplaceFn, QUANTILE_INVERSION_BUDGET,
};
pub use roots::invert_monotone;
