//! Parameter sensitivity of the percentile prediction.
//!
//! Part of the "what-if" toolbox (§I): given an operating point, which
//! measured input moves the predicted SLA percentile the most? Computed by
//! central finite differences on the model inputs — each probe is just a
//! model rebuild plus a few Laplace inversions.

use crate::backend::ModelError;
use crate::params::SystemParams;
use crate::system::SystemModel;
use crate::variant::ModelVariant;

/// Which scalar input is perturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parameter {
    /// A device's request arrival rate (its data-read rate scales along, so
    /// `p` stays fixed).
    ArrivalRate {
        /// Device index.
        device: usize,
    },
    /// A device's index-lookup miss ratio.
    MissIndex {
        /// Device index.
        device: usize,
    },
    /// A device's metadata-read miss ratio.
    MissMeta {
        /// Device index.
        device: usize,
    },
    /// A device's data-read miss ratio.
    MissData {
        /// Device index.
        device: usize,
    },
}

/// One sensitivity result: `d P(meet SLA) / d (relative change)` — the
/// change in predicted percentile per +100% relative change of the input,
/// linearized at the operating point.
#[derive(Debug, Clone, Copy)]
pub struct Sensitivity {
    /// The perturbed input.
    pub parameter: Parameter,
    /// Linearized derivative (negative: increasing the input hurts the SLA).
    pub derivative: f64,
}

fn perturbed(params: &SystemParams, parameter: Parameter, factor: f64) -> SystemParams {
    let mut out = params.clone();
    match parameter {
        Parameter::ArrivalRate { device } => {
            let d = &mut out.devices[device];
            d.arrival_rate *= factor;
            d.data_read_rate *= factor;
        }
        Parameter::MissIndex { device } => {
            let d = &mut out.devices[device];
            d.miss_index = (d.miss_index * factor).min(1.0);
        }
        Parameter::MissMeta { device } => {
            let d = &mut out.devices[device];
            d.miss_meta = (d.miss_meta * factor).min(1.0);
        }
        Parameter::MissData { device } => {
            let d = &mut out.devices[device];
            d.miss_data = (d.miss_data * factor).min(1.0);
        }
    }
    out
}

/// Computes the sensitivity of `P(latency <= sla)` to every device's rate
/// and miss ratios, sorted by magnitude descending. Inputs whose
/// perturbation makes the model unstable are reported with
/// `derivative = -f64::INFINITY` (the strongest possible signal).
pub fn sla_sensitivities(
    params: &SystemParams,
    variant: ModelVariant,
    sla: f64,
    relative_step: f64,
) -> Result<Vec<Sensitivity>, ModelError> {
    assert!(
        relative_step > 0.0 && relative_step < 0.5,
        "relative step must be in (0, 0.5), got {relative_step}"
    );
    // Baseline must be valid.
    SystemModel::new(params, variant)?;
    let eval = |p: &SystemParams| -> Option<f64> {
        SystemModel::new(p, variant)
            .ok()
            .map(|m| m.fraction_meeting_sla(sla))
    };
    let mut out = Vec::new();
    for device in 0..params.devices.len() {
        for parameter in [
            Parameter::ArrivalRate { device },
            Parameter::MissIndex { device },
            Parameter::MissMeta { device },
            Parameter::MissData { device },
        ] {
            let up = eval(&perturbed(params, parameter, 1.0 + relative_step));
            let down = eval(&perturbed(params, parameter, 1.0 - relative_step));
            let derivative = match (up, down) {
                (Some(u), Some(d)) => (u - d) / (2.0 * relative_step),
                // Perturbing upward destabilizes the system: maximal signal.
                (None, Some(_)) => f64::NEG_INFINITY,
                _ => f64::NEG_INFINITY,
            };
            out.push(Sensitivity {
                parameter,
                derivative,
            });
        }
    }
    out.sort_by(|a, b| {
        b.derivative
            .abs()
            .partial_cmp(&a.derivative.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{DeviceParams, FrontendParams};
    use cos_distr::{Degenerate, Gamma};
    use cos_queueing::from_distribution;

    fn params(rate: f64) -> SystemParams {
        let device = |r: f64| DeviceParams {
            arrival_rate: r,
            data_read_rate: r * 1.1,
            miss_index: 0.3,
            miss_meta: 0.25,
            miss_data: 0.4,
            index_disk: from_distribution(Gamma::new(3.0, 250.0)),
            meta_disk: from_distribution(Gamma::new(2.5, 312.5)),
            data_disk: from_distribution(Gamma::new(3.5, 245.0)),
            parse_be: from_distribution(Degenerate::new(0.0005)),
            processes: 1,
        };
        SystemParams {
            frontend: FrontendParams {
                arrival_rate: rate,
                processes: 3,
                parse_fe: from_distribution(Degenerate::new(0.0003)),
            },
            devices: (0..4).map(|_| device(rate / 4.0)).collect(),
        }
    }

    #[test]
    fn all_derivatives_nonpositive() {
        // More load or more misses can only hurt the SLA.
        let s = sla_sensitivities(&params(120.0), ModelVariant::Full, 0.05, 0.05).unwrap();
        assert_eq!(s.len(), 16);
        for x in &s {
            assert!(
                x.derivative <= 1e-6,
                "{:?} has positive derivative {}",
                x.parameter,
                x.derivative
            );
        }
    }

    #[test]
    fn data_miss_dominates_meta_miss() {
        // Data reads are both slower and more frequent (extra chunks), so
        // their miss ratio must matter more than the metadata one.
        let s = sla_sensitivities(&params(120.0), ModelVariant::Full, 0.05, 0.05).unwrap();
        let get = |want: Parameter| {
            s.iter()
                .find(|x| x.parameter == want)
                .unwrap()
                .derivative
                .abs()
        };
        assert!(
            get(Parameter::MissData { device: 0 }) > get(Parameter::MissMeta { device: 0 }),
            "{s:?}"
        );
    }

    #[test]
    fn sensitivities_grow_with_load() {
        let light = sla_sensitivities(&params(60.0), ModelVariant::Full, 0.05, 0.05).unwrap();
        let heavy = sla_sensitivities(&params(200.0), ModelVariant::Full, 0.05, 0.05).unwrap();
        let top = |s: &[Sensitivity]| s[0].derivative.abs();
        assert!(top(&heavy) > top(&light));
    }

    #[test]
    fn near_saturation_reports_instability() {
        // At ~97% utilization a +5% rate bump destabilizes the queue.
        let s = sla_sensitivities(&params(318.0), ModelVariant::Full, 0.05, 0.05).unwrap();
        assert!(
            s.iter().any(|x| x.derivative == f64::NEG_INFINITY),
            "expected an instability flag near saturation: {s:?}"
        );
    }

    #[test]
    fn baseline_instability_is_an_error() {
        assert!(sla_sensitivities(&params(400.0), ModelVariant::Full, 0.05, 0.05).is_err());
    }
}
