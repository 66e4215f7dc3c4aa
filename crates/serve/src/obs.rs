//! The serve tier's instrument bundle.
//!
//! All instruments are registered idempotently against the registry carried
//! in [`ServeConfig::obs`](crate::ServeConfig::obs), so a gate and a service
//! sharing one [`Registry`] expose a single merged `/metrics` document.

use cos_obs::{Counter, Hist, Registry};

/// Handles to every instrument the service records into. Cloning shares
/// the underlying counters (each handle is an `Arc` internally).
#[derive(Debug, Clone)]
pub struct ServeObs {
    /// Wall-clock duration of each re-fit attempt (successful or not).
    pub refit: Hist,
    /// Total re-fit attempts (failures are tracked separately by
    /// [`EngineHealth::failed_refits`](crate::EngineHealth)).
    pub refits_total: Counter,
    /// Latency of queries answered from the inversion memo.
    pub query_hit: Hist,
    /// Latency of queries that had to run a fresh inversion.
    pub query_miss: Hist,
    /// Queue delay between an ingest command being sent to the service
    /// thread and the moment its ingest starts (command-channel lag): one
    /// sample per command, whether it carries one event or a whole POST's
    /// batch.
    pub ingest_lag: Hist,
    /// Total telemetry events ingested.
    pub ingest_events_total: Counter,
    /// Delay between a sweep point being submitted to the worker pool and
    /// a worker picking it up.
    pub sweep_queue_wait: Hist,
    /// Execution time of each sweep point on a worker (queue wait
    /// excluded).
    pub sweep_task: Hist,
}

impl ServeObs {
    /// Registers (or re-resolves) the serve instruments on `registry`.
    pub fn register(registry: &Registry) -> ServeObs {
        ServeObs {
            refit: registry.histogram(
                "cos_serve_refit_seconds",
                "Wall-clock duration of calibration re-fit attempts",
            ),
            refits_total: registry.counter(
                "cos_serve_refits_total",
                "Total re-fit attempts (successful or failed)",
            ),
            query_hit: registry.histogram_with_label(
                "cos_serve_query_seconds",
                "cache",
                "hit",
                "Prediction query latency by inversion-memo outcome",
            ),
            query_miss: registry.histogram_with_label(
                "cos_serve_query_seconds",
                "cache",
                "miss",
                "Prediction query latency by inversion-memo outcome",
            ),
            ingest_lag: registry.histogram(
                "cos_serve_ingest_lag_seconds",
                "Command-channel delay between sending an ingest command (one event or a batch) and its ingest",
            ),
            ingest_events_total: registry.counter(
                "cos_serve_ingest_events_total",
                "Total telemetry events ingested",
            ),
            sweep_queue_wait: registry.histogram(
                "cos_sweep_queue_wait_seconds",
                "Delay between sweep-point submission and worker pickup",
            ),
            sweep_task: registry.histogram(
                "cos_sweep_task_seconds",
                "Per-point sweep evaluation time on a worker",
            ),
        }
    }
}
