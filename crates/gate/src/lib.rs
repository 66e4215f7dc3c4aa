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
//! * [`json`] — minimal JSON: one lexer and a tree parser on it, and the
//!   telemetry decoder `POST /v1/telemetry` uses
//!   ([`json::decode_telemetry`]): a byte-level fast path for the event
//!   wire format that takes its verdict on every other body, refusals
//!   included, from the tree-based reference ([`decode_events`]); plus a
//!   writer whose number encoding round-trips every finite `f64`
//!   bit-identically;
//! * [`query`] — query-string parsing with percent-decoding and typed
//!   parameter accessors;
//! * [`routes`] — the `/v1/*` query surface over a cloned
//!   [`cos_serve::ServiceClient`], answered from its snapshot reader, off
//!   the writer lock, plus the telemetry wire format and the per-request admission
//!   check (`429` + `Retry-After`) when the gate runs with a
//!   [`cos_ctrl::Controller`]. A route checks a question's wire syntax
//!   only; [`cos_serve::Query`] judges its values;
//! * [`metrics`] — `GET /metrics` Prometheus-style text exposition;
//! * [`obs`] — the gate's self-measuring instruments ([`GateObs`]):
//!   per-route request latency, parse/dispatch sub-spans, and counters,
//!   recorded into the [`cos_obs::Registry`] carried by [`GateConfig`];
//! * [`server`] — the socket front door: keep-alive, pipelining, write
//!   timeouts, per-request deadlines, connection caps, and a graceful
//!   shutdown that drains in-flight responses. Its [`GateConfig`] is a
//!   struct literal, checked by [`Gate::bind`] and [`Gate::serve`] before
//!   they start;
//! * [`reactor`] — the event-driven core: a fixed pool of reactor threads
//!   taking connections from one shared listener and multiplexing them
//!   over a level-triggered readiness poller ([`cos_par::poller`]: epoll
//!   on Linux, `poll(2)` on other Unix targets), with single-`writev`
//!   response flushes, pooled buffers, and per-thread syscall counters
//!   ([`Gate::syscalls`]), dispatching every route inline: GETs through
//!   the snapshot read path, off the writer lock, telemetry POSTs under the
//!   service's writer lock.
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
#![forbid(unsafe_code)]

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
pub use routes::{classify, decode_events, encode_events, handle, handle_ctrl, status_body};
pub use server::{Gate, GateConfig};
