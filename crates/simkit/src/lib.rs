//! # cos-simkit
//!
//! A small deterministic discrete-event simulation engine:
//!
//! * [`time`] — the `SimTime` newtype with total ordering;
//! * [`calendar`] — the future-event calendar with stable tie-breaking, so a
//!   run is a pure function of seed + configuration;
//! * [`rng`] — labeled per-component `SmallRng` streams derived from one
//!   master seed (components never perturb each other's randomness).
//!
//! `cos-storesim` builds the object-store model on top of these pieces.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calendar;
pub mod rng;
pub mod time;

pub use calendar::Calendar;
pub use rng::RngStreams;
pub use time::SimTime;
