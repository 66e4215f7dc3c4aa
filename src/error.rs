//! The unified error surface of the facade crate.
//!
//! Every fallible layer of the workspace keeps its own precise error type
//! (typed ρ ≥ 1 causes in the model, byte budgets in the gate parser,
//! builder rejections in the configs); [`CosError`] is the umbrella an
//! application links against so one `?`-compatible type spans the whole
//! stack. The conversion is lossless — each variant wraps the layer's own
//! error unchanged — and [`CosError::http_status`] mirrors the wire
//! mapping the gate already answers, so embedders that bypass the gate
//! can classify errors identically.

use cos_ctrl::Shed;
use cos_gate::ParseError;
use cos_model::ModelError;
use cos_numeric::ConfigError as InversionConfigError;
use cos_serve::{FitError, ServeError};

/// Any error the cosmodel stack can produce, one layer per variant.
#[derive(Debug, Clone, PartialEq)]
pub enum CosError {
    /// The online prediction service could not answer a query.
    Serve(ServeError),
    /// The analytic model could not be constructed (some queue has ρ ≥ 1).
    Model(ModelError),
    /// The gate could not parse a request off the wire.
    Parse(ParseError),
    /// A Laplace-inversion term count was invalid for its algorithm.
    Inversion(InversionConfigError),
    /// A streaming re-fit could not produce parameters.
    Fit(FitError),
    /// A [`cos_gate::GateConfig`] builder rejected its values.
    GateConfig(cos_gate::InvalidConfig),
    /// A [`cos_serve::ServeConfig`] builder rejected its values.
    ServeConfig(cos_serve::InvalidConfig),
    /// The admission controller refused the request (predicted SLA
    /// attainment below target at the current load).
    Shed(Shed),
    /// A [`cos_ctrl::AdmissionPolicy`] or [`cos_ctrl::AnomalyConfig`]
    /// value was rejected.
    CtrlConfig(cos_ctrl::InvalidPolicy),
}

impl CosError {
    /// The HTTP status the gate answers (or would answer) for this error,
    /// or `None` for errors that never cross the wire (inversion/builder
    /// configuration, re-fit starvation).
    ///
    /// The mapping is the gate's own: a service that cannot answer *yet*
    /// → `503`; a tenant no telemetry has named → `404`; a well-formed
    /// question with no answer → `422`; a request that never parsed → its
    /// parser status (`400`/`413`/`431`); a request the admission
    /// controller refused → `429`.
    pub fn http_status(&self) -> Option<u16> {
        match self {
            CosError::Serve(ServeError::NotCalibrated | ServeError::Disconnected) => Some(503),
            CosError::Serve(ServeError::UnknownTenant { .. }) => Some(404),
            CosError::Serve(_) => Some(422),
            // A bare model error surfaces over the wire wrapped as
            // `ServeError::Unstable`, hence the same class.
            CosError::Model(_) => Some(422),
            CosError::Parse(e) => Some(e.status()),
            CosError::Shed(_) => Some(429),
            CosError::Inversion(_) | CosError::Fit(_) => None,
            CosError::GateConfig(_) | CosError::ServeConfig(_) | CosError::CtrlConfig(_) => None,
        }
    }
}

impl std::fmt::Display for CosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CosError::Serve(e) => write!(f, "service: {e}"),
            CosError::Model(e) => write!(f, "model: {e}"),
            CosError::Parse(e) => write!(f, "http parse: {} ({})", e.reason(), e.status()),
            CosError::Inversion(e) => write!(f, "inversion config: {e}"),
            CosError::Fit(e) => write!(f, "calibration fit: {e}"),
            CosError::GateConfig(e) => write!(f, "gate config: {e}"),
            CosError::ServeConfig(e) => write!(f, "serve config: {e}"),
            CosError::Shed(e) => write!(f, "admission: {e}"),
            CosError::CtrlConfig(e) => write!(f, "controller config: {e}"),
        }
    }
}

impl std::error::Error for CosError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CosError::Serve(e) => Some(e),
            CosError::Model(e) => Some(e),
            CosError::Inversion(e) => Some(e),
            CosError::Fit(e) => Some(e),
            CosError::GateConfig(e) => Some(e),
            CosError::ServeConfig(e) => Some(e),
            CosError::Shed(e) => Some(e),
            CosError::CtrlConfig(e) => Some(e),
            // ParseError carries only a static reason; no deeper source.
            CosError::Parse(_) => None,
        }
    }
}

impl From<ServeError> for CosError {
    fn from(e: ServeError) -> Self {
        CosError::Serve(e)
    }
}

impl From<ModelError> for CosError {
    fn from(e: ModelError) -> Self {
        CosError::Model(e)
    }
}

impl From<ParseError> for CosError {
    fn from(e: ParseError) -> Self {
        CosError::Parse(e)
    }
}

impl From<InversionConfigError> for CosError {
    fn from(e: InversionConfigError) -> Self {
        CosError::Inversion(e)
    }
}

impl From<FitError> for CosError {
    fn from(e: FitError) -> Self {
        CosError::Fit(e)
    }
}

impl From<cos_gate::InvalidConfig> for CosError {
    fn from(e: cos_gate::InvalidConfig) -> Self {
        CosError::GateConfig(e)
    }
}

impl From<cos_serve::InvalidConfig> for CosError {
    fn from(e: cos_serve::InvalidConfig) -> Self {
        CosError::ServeConfig(e)
    }
}

impl From<Shed> for CosError {
    fn from(e: Shed) -> Self {
        CosError::Shed(e)
    }
}

impl From<cos_ctrl::InvalidPolicy> for CosError {
    fn from(e: cos_ctrl::InvalidPolicy) -> Self {
        CosError::CtrlConfig(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `?` must lift every layer's error without explicit mapping.
    #[test]
    fn question_mark_lifts_each_layer() {
        fn serve() -> Result<(), CosError> {
            Err(ServeError::NotCalibrated)?;
            Ok(())
        }
        fn model() -> Result<(), CosError> {
            Err(ModelError::UnstableBackend { utilization: 1.5 })?;
            Ok(())
        }
        fn parse() -> Result<(), CosError> {
            Err(ParseError::HeadTooLarge)?;
            Ok(())
        }
        fn fit() -> Result<(), CosError> {
            Err(FitError::NoTraffic)?;
            Ok(())
        }
        fn gate_cfg() -> Result<(), CosError> {
            Err(cos_gate::GateConfig::builder()
                .max_connections(0)
                .build()
                .unwrap_err())?;
            Ok(())
        }
        fn serve_cfg() -> Result<(), CosError> {
            Err(cos_serve::ServeConfig::builder()
                .refit_workers(0)
                .build()
                .unwrap_err())?;
            Ok(())
        }
        fn shed() -> Result<(), CosError> {
            Err(Shed {
                class: cos_ctrl::SlaClass::Batch,
                retry_after: 2,
            })?;
            Ok(())
        }
        fn ctrl_cfg() -> Result<(), CosError> {
            cos_ctrl::AdmissionPolicy {
                shed_step: 0.0,
                ..cos_ctrl::AdmissionPolicy::default()
            }
            .validate()?;
            Ok(())
        }
        assert_eq!(
            serve().unwrap_err(),
            CosError::Serve(ServeError::NotCalibrated)
        );
        assert!(matches!(model().unwrap_err(), CosError::Model(_)));
        assert!(matches!(parse().unwrap_err(), CosError::Parse(_)));
        assert!(matches!(fit().unwrap_err(), CosError::Fit(_)));
        assert!(matches!(gate_cfg().unwrap_err(), CosError::GateConfig(_)));
        assert!(matches!(serve_cfg().unwrap_err(), CosError::ServeConfig(_)));
        assert!(matches!(shed().unwrap_err(), CosError::Shed(_)));
        assert!(matches!(ctrl_cfg().unwrap_err(), CosError::CtrlConfig(_)));
    }

    /// The status mapping must mirror the gate's route-level answers.
    #[test]
    fn http_status_mirrors_the_wire() {
        let cases: &[(CosError, Option<u16>)] = &[
            (CosError::Serve(ServeError::NotCalibrated), Some(503)),
            (CosError::Serve(ServeError::Disconnected), Some(503)),
            (
                CosError::Serve(ServeError::Unstable {
                    cause: ModelError::UnstableFrontend { utilization: 1.1 },
                }),
                Some(422),
            ),
            (
                CosError::Serve(ServeError::PercentileOutOfRange { p: 0.999 }),
                Some(422),
            ),
            (CosError::Serve(ServeError::GoalUnreachable), Some(422)),
            (
                CosError::Serve(ServeError::UnknownDevice {
                    event: 0,
                    device: 7,
                    devices: 2,
                }),
                Some(422),
            ),
            (
                CosError::Serve(ServeError::UnknownTenant {
                    tenant: "ghost".into(),
                }),
                Some(404),
            ),
            (
                CosError::Model(ModelError::UnstableBackend { utilization: 2.0 }),
                Some(422),
            ),
            (
                CosError::Parse(ParseError::BadRequest("bad request line")),
                Some(400),
            ),
            (CosError::Parse(ParseError::BodyTooLarge), Some(413)),
            (CosError::Parse(ParseError::HeadTooLarge), Some(431)),
            (
                CosError::Shed(Shed {
                    class: cos_ctrl::SlaClass::Standard,
                    retry_after: 1,
                }),
                Some(429),
            ),
            (CosError::Fit(FitError::NoTraffic), None),
            (
                CosError::Inversion(InversionConfigError::EulerTooFewTerms { terms: 0 }),
                None,
            ),
        ];
        for (e, want) in cases {
            assert_eq!(e.http_status(), *want, "{e}");
        }
    }

    /// Display prefixes the layer; source() exposes the wrapped error.
    #[test]
    fn display_and_source_chain() {
        let e = CosError::from(ServeError::Unstable {
            cause: ModelError::UnstableBackend { utilization: 1.3 },
        });
        assert!(e.to_string().starts_with("service: "));
        let src = std::error::Error::source(&e).expect("serve source");
        assert!(src.to_string().contains("unstable"));
        // Two levels down: ServeError::Unstable → ModelError.
        assert!(std::error::Error::source(src).is_some());

        let p = CosError::from(ParseError::BadRequest("no CRLF"));
        assert!(std::error::Error::source(&p).is_none());
        assert!(p.to_string().contains("400"));
    }
}
