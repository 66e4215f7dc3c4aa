//! A seeded end-to-end benchmark of the serving stack: `SlaService` and
//! `Gate` embedded in-process, driven over loopback HTTP by one client
//! thread on one keep-alive connection with one request in flight.
//!
//! Workloads ([`inputs::Workload`]):
//!
//! * `dashboard_warm` — every tenant's panel plus `/metrics`, all memo
//!   hits: loads the gate transport and the `cos-par` poller, bypasses
//!   `cos-model` and `cos-numeric`.
//! * `whatif_cold` — questions not yet asked in the epoch: loads
//!   `cos-model` and `cos-numeric` through the memo's miss path.
//! * `ingest_refit` — telemetry POSTs interleaved with reads; refits every
//!   tenth round.
//!
//! The untraced run ([`run`]) prints the end-to-end metrics; the traced
//! run ([`trace`]) replays the same inputs through each layer's public
//! entry points and prints per-layer self times and counts.

pub mod check;
pub mod inputs;
pub mod run;
pub mod stack;
pub mod sys;
pub mod trace;
