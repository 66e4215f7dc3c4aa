//! # cos-workload
//!
//! Wikipedia-like object-store workload synthesis, replacing the wikibench
//! media trace the paper replays (§V-A): a Zipf/log-normal object
//! [`catalog`], Poisson [`arrivals`], the three-phase rate schedule of §V-B
//! ([`phases`]), [`trace`] synthesis/streaming, and trace files +
//! timestamp rewriting ([`trace_io`], the paper's §V-B transform). All
//! generation is deterministic in the seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrivals;
pub mod catalog;
pub mod phases;
pub mod trace;
pub mod trace_io;

pub use arrivals::{ArrivalProcess, PoissonArrivals};
pub use catalog::{Catalog, CatalogConfig, ObjectId};
pub use phases::{PhaseConfig, PhaseSchedule, Segment};
pub use trace::{synthesize_trace, TraceEvent, TraceStream};
pub use trace_io::{load_trace, rescale_rate, retime_to_schedule, save_trace, TraceIoError};
