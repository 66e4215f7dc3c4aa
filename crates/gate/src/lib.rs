//! # cos-gate
//!
//! The **HTTP/1.1 front door** of the online SLA-prediction service: the
//! network surface the paper's operator-facing vision (§I) needs so
//! external dashboards and admission controllers can poll "what fraction
//! of requests will meet this SLA, now?" continuously — without linking
//! against the library.
//!
//! Hand-rolled on `std` alone (the build environment is offline; the
//! ROADMAP forbids new dependencies), and layered so every protocol
//! decision is testable without a socket:
//!
//! * [`http`] — the incremental request parser (a pure state machine:
//!   incremental parse ≡ one-shot parse at every byte split) and the
//!   response writer, with the `400`/`413`/`431` error mapping;
//! * [`json`] — minimal JSON: one lexer with two consumers, a tree parser
//!   and the one-pass telemetry decoder ([`json::decode_telemetry`]) that
//!   `POST /v1/telemetry` uses, held exactly equal to the tree-based
//!   reference ([`decode_events`]); plus a writer whose number encoding
//!   round-trips every finite `f64` bit-identically;
//! * [`query`] — query-string parsing with percent-decoding and typed
//!   parameter accessors;
//! * [`routes`] — the `/v1/*` query surface over a cloned
//!   [`cos_serve::ServiceClient`], plus the telemetry wire format and the
//!   per-request admission check (`429` + `Retry-After`) when the gate
//!   runs with a [`cos_ctrl::Controller`];
//! * [`metrics`] — `GET /metrics` Prometheus-style text exposition;
//! * [`obs`] — the gate's self-measuring instruments ([`GateObs`]):
//!   per-route request latency, parse/dispatch sub-spans, and counters,
//!   recorded into the [`cos_obs::Registry`] carried by [`GateConfig`];
//! * [`server`] — the socket front door: keep-alive, pipelining,
//!   read/write timeouts, per-request deadlines, connection caps, and a
//!   graceful shutdown that drains in-flight responses, in either of two
//!   [`ServerMode`]s;
//! * [`reactor`] — the default event-driven mode: a fixed pool of
//!   reactor threads multiplexing nonblocking connections over an
//!   edge-triggered readiness poller ([`cos_par::poller`]), with sharded
//!   `SO_REUSEPORT` accept, single-`writev` response flushes, pooled
//!   buffers, and per-thread syscall counters ([`Gate::syscalls`]),
//!   dispatching GETs inline through the lock-free snapshot read path.
//!
//! ```no_run
//! use cos_gate::{Gate, GateConfig};
//! # fn base() -> cos_serve::CalibrationBase { unimplemented!() }
//! let service = cos_serve::SlaService::new(base(), Default::default()).spawn();
//! let gate = Gate::bind("127.0.0.1:8080", service.client(), GateConfig::default()).unwrap();
//! println!("serving on {}", gate.local_addr());
//! // ... curl http://127.0.0.1:8080/v1/attainment?sla=0.05 ...
//! gate.shutdown();
//! ```

#![warn(missing_docs)]

pub mod http;
pub mod json;
pub mod metrics;
pub mod obs;
pub mod query;
pub mod reactor;
pub mod routes;
pub mod server;

pub use http::{parse_one, Method, ParseError, ParserLimits, Request, RequestParser, Response};
pub use json::Value;
pub use metrics::{render_ctrl_metrics, render_metrics};
pub use obs::{GateObs, TRACKED_ROUTES};
pub use routes::{
    classify, decode_events, encode_events, handle, handle_ctrl, handle_full, handle_with_obs,
    status_body, ReadPath,
};
pub use server::{AcceptMode, Gate, GateConfig, GateConfigBuilder, InvalidConfig, ServerMode};
