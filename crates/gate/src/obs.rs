//! The gate's instrument bundle: per-route request latency, parse and
//! dispatch sub-spans, and request/error counters.
//!
//! All instruments register idempotently against the registry carried in
//! [`GateConfig::obs`](crate::GateConfig::obs). Pass the *same* registry to
//! [`ServeConfig::obs`](cos_serve::ServeConfig::obs) and `GET /metrics`
//! exposes the whole stack — gate, service, and what-if sweeps — in one
//! Prometheus document.

use cos_obs::{Counter, Hist, HistSnapshot, Registry};

/// The route set with dedicated per-route latency series; anything else
/// lands in the `other` series.
pub const TRACKED_ROUTES: [&str; 9] = [
    "/v1/attainment",
    "/v1/percentile",
    "/v1/headroom",
    "/v1/bottlenecks",
    "/v1/status",
    "/v1/telemetry",
    "/v1/selfcheck",
    "/v1/anomalies",
    "/metrics",
];

/// Handles to every instrument the gate records into. Cloning shares the
/// underlying counters.
#[derive(Debug, Clone)]
pub struct GateObs {
    registry: Registry,
    /// One request-latency series per tracked route (same index order as
    /// [`TRACKED_ROUTES`]).
    routes: Vec<Hist>,
    /// Request latency of untracked paths (404s, probes).
    other: Hist,
    /// Time spent turning buffered bytes into one parsed request.
    pub parse: Hist,
    /// Route dispatch + service round-trip time (everything between a
    /// parsed request and its ready response).
    pub dispatch: Hist,
    /// Total requests answered (any status).
    pub requests_total: Counter,
    /// Total connections dropped for unparseable framing.
    pub parse_errors_total: Counter,
    /// Requests refused `429` by the admission controller.
    pub sheds_total: Counter,
}

impl GateObs {
    /// Registers (or re-resolves) the gate instruments on `registry`.
    pub fn register(registry: &Registry) -> GateObs {
        const REQ_HELP: &str = "End-to-end gate request latency (first byte to response written)";
        GateObs {
            routes: TRACKED_ROUTES
                .iter()
                .map(|route| {
                    registry.histogram_with_label(
                        "cos_gate_request_seconds",
                        "route",
                        route,
                        REQ_HELP,
                    )
                })
                .collect(),
            other: registry.histogram_with_label(
                "cos_gate_request_seconds",
                "route",
                "other",
                REQ_HELP,
            ),
            parse: registry.histogram(
                "cos_gate_parse_seconds",
                "Time to parse one request from buffered bytes",
            ),
            dispatch: registry.histogram(
                "cos_gate_dispatch_seconds",
                "Route dispatch plus service round-trip time per request",
            ),
            requests_total: registry.counter("cos_gate_requests_total", "Total requests answered"),
            parse_errors_total: registry.counter(
                "cos_gate_parse_errors_total",
                "Connections dropped for unparseable framing",
            ),
            sheds_total: registry.counter(
                "cos_gate_sheds_total",
                "Requests refused 429 by the admission controller",
            ),
            registry: registry.clone(),
        }
    }

    /// The registry this bundle records into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The request-latency series for `path` (the `other` series for
    /// untracked paths).
    pub fn request_hist(&self, path: &str) -> &Hist {
        TRACKED_ROUTES
            .iter()
            .position(|&r| r == path)
            .map(|i| &self.routes[i])
            .unwrap_or(&self.other)
    }

    /// Merged snapshot of request latency across every route — the
    /// "observed" side of `GET /v1/selfcheck`. Exact: log-linear bucket
    /// counts add.
    pub fn observed_request_latency(&self) -> HistSnapshot {
        self.registry.merged_histogram("cos_gate_request_seconds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_routes_get_their_own_series() {
        let registry = Registry::new();
        let obs = GateObs::register(&registry);
        obs.request_hist("/v1/status").record_ns(1_000);
        obs.request_hist("/v1/status").record_ns(2_000);
        obs.request_hist("/nope").record_ns(3_000);
        assert_eq!(obs.request_hist("/v1/status").count(), 2);
        assert_eq!(
            obs.request_hist("/definitely/not").count(),
            1,
            "shared other"
        );
        assert_eq!(obs.observed_request_latency().count(), 3);
    }

    #[test]
    fn register_is_idempotent_across_bundles() {
        let registry = Registry::new();
        let a = GateObs::register(&registry);
        let b = GateObs::register(&registry);
        a.requests_total.inc();
        assert_eq!(b.requests_total.get(), 1);
        assert!(a
            .request_hist("/metrics")
            .same_instrument(b.request_hist("/metrics")));
    }

    #[test]
    fn rendering_covers_the_gate_instruments() {
        let registry = Registry::new();
        let obs = GateObs::register(&registry);
        obs.request_hist("/v1/attainment").record_ns(5_000);
        obs.parse.record_ns(900);
        let text = registry.render();
        assert!(text.contains("cos_gate_request_seconds_bucket{route=\"/v1/attainment\",le="));
        assert!(text.contains("# TYPE cos_gate_parse_seconds histogram"));
        assert!(text.contains("cos_gate_requests_total 0"));
    }
}
