//! The answer check, run after the timed window: every served value is
//! compared against `cos-model` evaluated directly on the published
//! epoch's parameters at the gate's snapped inputs.

use std::collections::HashMap;
use std::sync::Arc;

use cos_gate::json::{self, Value};
use cos_model::{
    max_admissible_rate, CodedReadModel, CodingSpec, ModelVariant, SlaGoal, SystemModel,
    SystemParams,
};
use cos_serve::{EpochSnapshot, FleetState, TenantId, FRACTION_QUANTUM, RATE_QUANTUM, SLA_QUANTUM};

use crate::inputs::{Fnv, Question};

/// Absolute tolerance on fractions: one step of the gate's input grid.
pub const FRACTION_TOL: f64 = 1e-4;
/// Relative tolerance on seconds and req/s.
pub const RELATIVE_TOL: f64 = 1e-3;

/// What the model says a question's answer is.
#[derive(Debug, Clone, PartialEq)]
enum Expected {
    /// A fraction in `[0, 1]`.
    Fraction(f64),
    /// Seconds or req/s.
    Magnitude(f64),
    /// Per-device fractions, indexed by device.
    Devices(Vec<f64>),
    /// The model has no answer; the gate must refuse with 422.
    Refused,
}

/// The model evaluated directly, the way the served answer is defined.
fn evaluate(q: &Question, params: &SystemParams, variant: ModelVariant) -> Expected {
    let at_rate = |rate_q: Option<i64>| match rate_q {
        None => params.clone(),
        Some(r) => params.scaled_to_rate(r as f64 * RATE_QUANTUM),
    };
    let fraction = |v: Option<f64>| v.map_or(Expected::Refused, Expected::Fraction);
    let magnitude = |v: Option<f64>| v.map_or(Expected::Refused, Expected::Magnitude);
    match *q {
        Question::Attainment {
            sla_q,
            rate_q,
            coding,
            ..
        } => {
            let sla = sla_q as f64 * SLA_QUANTUM;
            let p = at_rate(rate_q);
            fraction(match coding {
                None => SystemModel::new(&p, variant)
                    .ok()
                    .map(|m| m.fraction_meeting_sla(sla)),
                Some((n, k)) => CodedReadModel::new(&p, CodingSpec::new(n.into(), k.into()))
                    .ok()
                    .map(|m| m.fraction_meeting_sla(sla)),
            })
        }
        Question::Percentile { p_q, coding, .. } => {
            let p = p_q as f64 * FRACTION_QUANTUM;
            magnitude(match coding {
                None => SystemModel::new(params, variant)
                    .ok()
                    .and_then(|m| m.latency_percentile(p)),
                Some((n, k)) => CodedReadModel::new(params, CodingSpec::new(n.into(), k.into()))
                    .ok()
                    .and_then(|m| m.latency_percentile(p)),
            })
        }
        Question::Headroom { sla_q, frac_q, .. } => {
            let goal = SlaGoal::new(
                sla_q as f64 * SLA_QUANTUM,
                (frac_q as f64 * FRACTION_QUANTUM).min(1.0 - FRACTION_QUANTUM),
            );
            let upper = (cos_serve::DEFAULT_HEADROOM_UPPER / RATE_QUANTUM).round() * RATE_QUANTUM;
            magnitude(max_admissible_rate(params, variant, goal, upper))
        }
        Question::Bottlenecks { sla_q, .. } => match SystemModel::new(params, variant) {
            Ok(m) => Expected::Devices(
                (0..m.devices().len())
                    .map(|d| m.device_fraction_meeting(d, sla_q as f64 * SLA_QUANTUM))
                    .collect(),
            ),
            Err(_) => Expected::Refused,
        },
        Question::Status { .. } | Question::Metrics => {
            unreachable!("status and metrics are checked against the fleet state")
        }
    }
}

fn close_fraction(got: f64, want: f64) -> bool {
    (got - want).abs() <= FRACTION_TOL
}

fn close_magnitude(got: f64, want: f64) -> bool {
    (got - want).abs() <= RELATIVE_TOL * want.abs()
}

/// One answered read to verify.
#[derive(Debug, Clone, Copy)]
pub struct Answer<'a> {
    /// What was asked.
    pub question: &'a Question,
    /// HTTP status.
    pub status: u16,
    /// The response body.
    pub body: &'a [u8],
    /// The fleet as published when the request was sent.
    pub fleet: &'a Arc<FleetState>,
}

/// Digest of a parameter set's value. `Debug` prints every rate, ratio
/// and count exactly but no service-time law, so each law's mean and
/// second moment are folded in as well; they pin down the gamma and
/// degenerate laws the calibrator fits.
fn params_digest(params: &SystemParams) -> u64 {
    let mut h = Fnv::default();
    h.write(format!("{params:?}").as_bytes());
    let laws = std::iter::once(&params.frontend.parse_fe).chain(
        params
            .devices
            .iter()
            .flat_map(|d| [&d.index_disk, &d.meta_disk, &d.data_disk, &d.parse_be]),
    );
    for law in laws {
        h.write(&law.mean().to_bits().to_le_bytes());
        h.write(&law.second_moment().to_bits().to_le_bytes());
    }
    h.0
}

/// Memo key of one reference answer: the question and a digest of the
/// published parameters' value. Every slice of a run replays the same
/// inputs on a fresh service, which publishes equal parameters under new
/// `Arc`s, so keying by value shares one reference across slices (and
/// parameters that differ simply miss).
type RefKey = (Question, u64);

/// Verifies answers against the model, memoizing one reference per
/// (question, published parameters).
pub struct Checker {
    variant: ModelVariant,
    tenant_ids: Vec<TenantId>,
    memo: HashMap<RefKey, Expected>,
    /// Digest of each published parameter set seen, by `Arc` address; the
    /// `Arc` is held so the address is not reused while the checker lives.
    digests: HashMap<usize, (Arc<SystemParams>, u64)>,
    /// The first ten rejection reasons, for the report.
    pub reasons: Vec<String>,
}

impl Checker {
    /// A checker for answers served under `variant`; question tenant
    /// indices resolve through `tenant_ids`.
    pub fn new(variant: ModelVariant, tenant_ids: Vec<TenantId>) -> Checker {
        Checker {
            variant,
            tenant_ids,
            memo: HashMap::new(),
            digests: HashMap::new(),
            reasons: Vec::new(),
        }
    }

    /// Reference answers evaluated so far.
    pub fn references(&self) -> usize {
        self.memo.len()
    }

    /// The published epoch an answer about `question` must come from.
    fn snapshot<'f>(
        &self,
        question: &Question,
        fleet: &'f FleetState,
    ) -> Option<&'f EpochSnapshot> {
        let tenant = question.tenant()?;
        fleet.get(&self.tenant_ids[tenant])?.state.snapshot.as_ref()
    }

    /// [`params_digest`] of `params`, computed once per `Arc`.
    fn digest(&mut self, params: &Arc<SystemParams>) -> u64 {
        self.digests
            .entry(Arc::as_ptr(params) as usize)
            .or_insert_with(|| (Arc::clone(params), params_digest(params)))
            .1
    }

    /// Checks one answer; returns whether it agrees with the model.
    pub fn check(&mut self, a: Answer<'_>) -> bool {
        let verdict = self.verdict(a);
        if let Err(reason) = &verdict {
            if self.reasons.len() < 10 {
                self.reasons.push(format!("{:?}: {reason}", a.question));
            }
        }
        verdict.is_ok()
    }

    fn verdict(&mut self, a: Answer<'_>) -> Result<(), String> {
        let text = std::str::from_utf8(a.body).map_err(|_| "body is not UTF-8".to_string())?;
        if *a.question == Question::Metrics {
            return check_metrics(a.status, text, a.fleet, &self.tenant_ids);
        }
        let snap = self
            .snapshot(a.question, a.fleet)
            .ok_or("tenant missing or never calibrated")?;
        if let Question::Status { .. } = a.question {
            let doc = parse_ok(a.status, text)?;
            let epoch = doc.f64_field("epoch")?;
            if epoch != snap.epoch as f64 {
                return Err(format!("status epoch {epoch}, published {}", snap.epoch));
            }
            return match doc.get("stale") {
                Some(Value::Bool(false)) => Ok(()),
                _ => Err("status is stale or missing `stale`".into()),
            };
        }
        let variant = self.variant;
        let key = (*a.question, self.digest(&snap.params));
        let expected = self
            .memo
            .entry(key)
            .or_insert_with(|| evaluate(a.question, &snap.params, variant));
        if *expected == Expected::Refused {
            return if a.status == 422 {
                Ok(())
            } else {
                Err(format!("model refuses, gate answered {}", a.status))
            };
        }
        let doc = parse_ok(a.status, text)?;
        if let Question::Bottlenecks { .. } = a.question {
            let Expected::Devices(want) = expected else {
                unreachable!("bottlenecks evaluate per device")
            };
            let devices = doc
                .field("devices")?
                .as_array()
                .ok_or("`devices` is not an array")?;
            if devices.len() != want.len() {
                return Err(format!(
                    "{} devices, model has {}",
                    devices.len(),
                    want.len()
                ));
            }
            let mut previous = f64::NEG_INFINITY;
            for d in devices {
                let device = d.usize_field("device")?;
                let fraction = d.f64_field("fraction")?;
                let &w = want.get(device).ok_or("device index out of range")?;
                if !close_fraction(fraction, w) {
                    return Err(format!("device {device}: {fraction} vs model {w}"));
                }
                if fraction < previous {
                    return Err("devices not ranked worst first".into());
                }
                previous = fraction;
            }
            return Ok(());
        }
        let epoch = doc.f64_field("epoch")?;
        if epoch != snap.epoch as f64 {
            return Err(format!("answer epoch {epoch}, published {}", snap.epoch));
        }
        let value = doc.f64_field("value")?;
        let ok = match *expected {
            Expected::Fraction(w) => close_fraction(value, w),
            Expected::Magnitude(w) => close_magnitude(value, w),
            _ => unreachable!("scalar questions evaluate to scalars"),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("value {value} vs model {expected:?}"))
        }
    }
}

fn parse_ok(status: u16, text: &str) -> Result<Value, String> {
    if status != 200 {
        return Err(format!("status {status}: {text}"));
    }
    json::parse(text)
}

/// `/metrics` must report the fleet size and each tenant's ingested event
/// count as published.
fn check_metrics(
    status: u16,
    text: &str,
    fleet: &FleetState,
    tenant_ids: &[TenantId],
) -> Result<(), String> {
    if status != 200 {
        return Err(format!("status {status}"));
    }
    if !text
        .lines()
        .any(|l| l == format!("cos_tenants {}", fleet.len()))
    {
        return Err("missing or wrong `cos_tenants`".into());
    }
    for id in tenant_ids {
        let entry = fleet.get(id).ok_or("tenant missing from the fleet")?;
        let line = format!(
            "cos_tenant_ingest_events_total{{tenant=\"{}\"}} {}",
            entry.tenant, entry.events_total
        );
        if !text.lines().any(|l| l == line) {
            return Err(format!("missing `{line}`"));
        }
    }
    Ok(())
}
