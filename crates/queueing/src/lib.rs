//! # cos-queueing
//!
//! Queueing-theory building blocks for the ICPP'17 latency-percentile model:
//!
//! * [`service`] — the minimal service-time interface (LST + two moments)
//!   that composed laws like the union operation can satisfy;
//! * [`mg1`] — M/G/1 via the Pollaczek–Khinchin transform (the backend
//!   request-processing queue and the frontend parse queue);
//! * [`mm1k`] — M/M/1/K (the paper's approximation of the shared disk when
//!   `N_be > 1`);
//! * [`union_op`] — the union operation (§III-B), packing parse / index
//!   lookup / metadata read / chunked data reads into one M/G/1-friendly
//!   service unit;
//! * [`fork_join`] — k-of-n order-statistics primitives for erasure-coded
//!   reads (Poisson-binomial combine + the split-merge hypoexponential).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fork_join;
pub mod mg1;
pub mod mm1k;
pub mod service;
pub mod union_op;

pub use fork_join::{k_of_n_tail, split_merge, KOfNExponential};
pub use mg1::{Mg1, QueueError};
pub use mm1k::Mm1k;
pub use service::{from_distribution, from_dyn_service, DynServiceTime, ServiceTime};
pub use union_op::{UnionFactors, UnionOperation};
