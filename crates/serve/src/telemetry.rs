//! The service's telemetry input format.
//!
//! `cos-serve` deliberately does **not** depend on the simulator: a live
//! deployment would feed it from a metrics bus, a replayed trace, or the
//! simulator via a thin adapter (see `cos-bench`'s `serve_demo`). The four
//! event kinds carry exactly the §IV-B online-metric inputs:
//!
//! * [`TelemetryEvent::Arrival`] — per-device arrival rates `r`;
//! * [`TelemetryEvent::DataRead`] — per-device data-read rates `r_data`;
//! * [`TelemetryEvent::Op`] — backend operation latencies, feeding the
//!   latency-threshold miss-ratio estimator and the mean disk service time;
//! * [`TelemetryEvent::Completion`] — end-to-end response latencies,
//!   feeding observed SLA attainment (drift detection).
//!
//! All timestamps are event time in seconds, monotone up to the bounded
//! reordering the sliding windows tolerate.

/// The three backend operation classes of the union operation (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Index lookup.
    Index,
    /// Metadata read.
    Meta,
    /// Data chunk read.
    Data,
}

impl OpClass {
    /// All classes, in the `[index, meta, data]` order the estimation API
    /// uses.
    pub const ALL: [OpClass; 3] = [OpClass::Index, OpClass::Meta, OpClass::Data];

    /// Position in `[index, meta, data]` arrays.
    pub fn index(self) -> usize {
        match self {
            OpClass::Index => 0,
            OpClass::Meta => 1,
            OpClass::Data => 2,
        }
    }
}

/// One telemetry record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TelemetryEvent {
    /// A request arrived and was routed to `device`.
    Arrival {
        /// Arrival time (seconds).
        at: f64,
        /// Target device index.
        device: usize,
    },
    /// A data chunk read was issued on `device` (first chunk or
    /// continuation), attributed to the owning request's arrival time.
    DataRead {
        /// Attribution time (seconds).
        at: f64,
        /// Device issuing the read.
        device: usize,
    },
    /// One backend operation's observed latency (memory hit or disk
    /// service).
    Op {
        /// Attribution time (seconds).
        at: f64,
        /// Device that served the operation.
        device: usize,
        /// Operation class.
        class: OpClass,
        /// Observed latency (seconds).
        latency: f64,
    },
    /// A request completed with end-to-end `latency`.
    Completion {
        /// Arrival time at the frontend (seconds).
        arrival: f64,
        /// End-to-end response latency (seconds).
        latency: f64,
        /// Serving device.
        device: usize,
    },
}

impl TelemetryEvent {
    /// The event-time ordering key: completion time for
    /// [`TelemetryEvent::Completion`], attribution time otherwise.
    pub fn time(&self) -> f64 {
        match *self {
            TelemetryEvent::Arrival { at, .. }
            | TelemetryEvent::DataRead { at, .. }
            | TelemetryEvent::Op { at, .. } => at,
            TelemetryEvent::Completion {
                arrival, latency, ..
            } => arrival + latency,
        }
    }

    /// The device the event names.
    pub(crate) fn device(&self) -> usize {
        match *self {
            TelemetryEvent::Arrival { device, .. }
            | TelemetryEvent::DataRead { device, .. }
            | TelemetryEvent::Op { device, .. }
            | TelemetryEvent::Completion { device, .. } => device,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_cover_all() {
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn completion_time_is_arrival_plus_latency() {
        let ev = TelemetryEvent::Completion {
            arrival: 2.0,
            latency: 0.5,
            device: 1,
        };
        assert_eq!(ev.time(), 2.5);
        assert_eq!(TelemetryEvent::Arrival { at: 3.0, device: 0 }.time(), 3.0);
    }
}
