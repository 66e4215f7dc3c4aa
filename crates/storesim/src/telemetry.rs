//! Live telemetry export — the feed an online prediction service consumes.
//!
//! The [`crate::metrics::Metrics`] sink aggregates *after* the fact for the
//! offline evaluation pipeline; a long-running SLA predictor instead needs
//! the raw per-request / per-operation stream as it happens, exactly the
//! events a real object store would export to a metrics bus. The simulator
//! emits one [`SimTelemetry`] record per measurement point when a
//! [`TelemetrySink`] is attached via [`crate::sim::Simulation::with_telemetry`];
//! the same four record kinds cover every §IV-B online metric:
//!
//! * per-device arrival rates ← [`SimTelemetry::Routed`];
//! * per-device data-read rates ← [`SimTelemetry::DataRead`];
//! * threshold miss-ratio estimation and disk service means ←
//!   [`SimTelemetry::Op`] latencies;
//! * observed SLA attainment (drift detection) ←
//!   [`SimTelemetry::Completed`] latencies.
//!
//! All timestamps are simulated event time in seconds. Operation and
//! data-read records carry the **owning request's arrival time** (the same
//! attribution the offline window counters use), so backlog drained after a
//! load step does not contaminate the next window's rates.

use crate::config::DiskOpKind;

/// One telemetry record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimTelemetry {
    /// A request finished frontend parsing and was routed to a device.
    Routed {
        /// Attribution time (the request's arrival at the frontend).
        at: f64,
        /// Target device.
        device: u16,
    },
    /// A data chunk read was issued on a device (first chunk or
    /// continuation).
    DataRead {
        /// Attribution time (the owning request's arrival).
        at: f64,
        /// Device issuing the read.
        device: u16,
    },
    /// One backend operation's observed latency — memory-hit or disk
    /// service time, the §IV-B threshold-estimator input.
    Op {
        /// Attribution time (the owning request's arrival).
        at: f64,
        /// Device that served the operation.
        device: u16,
        /// Operation kind.
        kind: DiskOpKind,
        /// Observed latency in seconds.
        latency: f64,
        /// Ground truth: did the operation visit the disk? (A live system
        /// does not know this; it is exported for calibration tests.)
        was_miss: bool,
    },
    /// A request's response started (frontend-measured latency is final).
    Completed {
        /// Arrival time at the frontend.
        arrival: f64,
        /// Time the response started.
        completed_at: f64,
        /// Frontend-measured response latency in seconds.
        latency: f64,
        /// Serving device.
        device: u16,
    },
}

impl SimTelemetry {
    /// The record's event-time ordering key: completion time for
    /// [`SimTelemetry::Completed`], attribution time otherwise.
    pub fn at(&self) -> f64 {
        match *self {
            SimTelemetry::Routed { at, .. }
            | SimTelemetry::DataRead { at, .. }
            | SimTelemetry::Op { at, .. } => at,
            SimTelemetry::Completed { completed_at, .. } => completed_at,
        }
    }
}

impl From<SimTelemetry> for cos_serve::TelemetryEvent {
    /// The record as the online service ingests it, without the fields its
    /// events do not carry: an operation's ground-truth `was_miss` and a
    /// completion's `completed_at`.
    fn from(event: SimTelemetry) -> Self {
        use cos_serve::{OpClass, TelemetryEvent};
        match event {
            SimTelemetry::Routed { at, device } => TelemetryEvent::Arrival {
                at,
                device: usize::from(device),
            },
            SimTelemetry::DataRead { at, device } => TelemetryEvent::DataRead {
                at,
                device: usize::from(device),
            },
            SimTelemetry::Op {
                at,
                device,
                kind,
                latency,
                ..
            } => TelemetryEvent::Op {
                at,
                device: usize::from(device),
                class: match kind {
                    DiskOpKind::Index => OpClass::Index,
                    DiskOpKind::Meta => OpClass::Meta,
                    DiskOpKind::Data => OpClass::Data,
                },
                latency,
            },
            SimTelemetry::Completed {
                arrival,
                latency,
                device,
                ..
            } => TelemetryEvent::Completion {
                arrival,
                latency,
                device: usize::from(device),
            },
        }
    }
}

/// A consumer of the telemetry stream.
///
/// Implemented for closures, `Vec<SimTelemetry>` (buffering), and
/// [`std::sync::mpsc::Sender`] (the channel pipeline a service ingests
/// from; a disconnected receiver drops records silently so a dead consumer
/// cannot crash the simulation).
pub trait TelemetrySink {
    /// Receives one record.
    fn emit(&mut self, event: SimTelemetry);
}

impl<F: FnMut(SimTelemetry)> TelemetrySink for F {
    fn emit(&mut self, event: SimTelemetry) {
        self(event)
    }
}

impl TelemetrySink for Vec<SimTelemetry> {
    fn emit(&mut self, event: SimTelemetry) {
        self.push(event);
    }
}

impl TelemetrySink for std::sync::mpsc::Sender<SimTelemetry> {
    fn emit(&mut self, event: SimTelemetry) {
        let _ = self.send(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_impls_receive_events() {
        let ev = SimTelemetry::Routed { at: 1.0, device: 3 };
        let mut buf: Vec<SimTelemetry> = Vec::new();
        buf.emit(ev);
        assert_eq!(buf, vec![ev]);

        let mut n = 0usize;
        {
            let mut closure = |_e: SimTelemetry| n += 1;
            closure.emit(ev);
        }
        assert_eq!(n, 1);

        let (tx, rx) = std::sync::mpsc::channel();
        let mut tx = tx;
        tx.emit(ev);
        assert_eq!(rx.recv().unwrap(), ev);
        drop(rx);
        tx.emit(ev); // disconnected receiver must not panic
    }

    #[test]
    fn ordering_key_uses_completion_time() {
        let c = SimTelemetry::Completed {
            arrival: 1.0,
            completed_at: 2.5,
            latency: 1.5,
            device: 0,
        };
        assert_eq!(c.at(), 2.5);
        assert_eq!(SimTelemetry::DataRead { at: 4.0, device: 0 }.at(), 4.0);
    }
}
