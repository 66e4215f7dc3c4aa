//! Typed errors of the prediction service.

use cos_model::ModelError;

/// Why a query could not be answered.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// No calibration epoch has been fitted yet (the service is still
    /// warming up on the telemetry stream).
    NotCalibrated,
    /// The queried operating point has no steady state (some queue has
    /// utilization ρ ≥ 1) — the model cannot predict percentiles there.
    Unstable {
        /// Which tier saturated and at what utilization.
        cause: ModelError,
    },
    /// The requested percentile lies outside the range the inversion can
    /// bracket (e.g. `p` at or beyond the response CDF's numeric plateau).
    PercentileOutOfRange {
        /// The requested percentile in `(0, 1)`.
        p: f64,
    },
    /// No admissible rate exists for the requested SLA goal: it fails even
    /// as the arrival rate approaches zero.
    GoalUnreachable,
    /// The spawned service is gone: its handle shut it down (every call is
    /// refused from then on), or a write panicked while holding the
    /// service's writer lock, which poisons it (writes are refused from
    /// then on; reads keep answering from the last published fleet).
    Disconnected,
    /// The query names a tenant the service has never seen telemetry for.
    /// Network frontends map this to 404.
    UnknownTenant {
        /// The unknown tenant id.
        tenant: String,
    },
    /// A [`Query`](crate::Query) is missing a required field, carries a
    /// value out of range, or combines fields the endpoint it was handed
    /// to does not take together. Network frontends map this to 400.
    BadQuery {
        /// What is malformed.
        reason: &'static str,
    },
    /// A telemetry batch names a device outside the tenant's calibration
    /// base. The whole batch is refused: none of it is ingested, and no
    /// tenant is created. Network frontends map this to 422.
    UnknownDevice {
        /// Position of the first offending event in the batch.
        event: usize,
        /// The device that event names.
        device: usize,
        /// Devices the calibration base has (valid indices are
        /// `0..devices`).
        devices: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NotCalibrated => {
                f.write_str("no calibration epoch fitted yet (still warming up)")
            }
            ServeError::Unstable { cause } => write!(f, "operating point unstable: {cause}"),
            ServeError::PercentileOutOfRange { p } => {
                write!(f, "percentile {p} outside the invertible range")
            }
            ServeError::GoalUnreachable => {
                f.write_str("SLA goal unreachable at any admissible rate")
            }
            ServeError::Disconnected => f.write_str("prediction service has shut down"),
            ServeError::UnknownTenant { tenant } => write!(f, "unknown tenant `{tenant}`"),
            ServeError::BadQuery { reason } => write!(f, "malformed query: {reason}"),
            ServeError::UnknownDevice {
                event,
                device,
                devices,
            } => write!(
                f,
                "telemetry event {event} names device {device}, but the calibration base has \
                 {devices} devices"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Unstable { cause } => Some(cause),
            _ => None,
        }
    }
}

impl From<ModelError> for ServeError {
    fn from(cause: ModelError) -> Self {
        ServeError::Unstable { cause }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ServeError::from(ModelError::UnstableBackend { utilization: 1.2 });
        assert!(e.to_string().contains("unstable"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&ServeError::NotCalibrated).is_none());
    }
}
