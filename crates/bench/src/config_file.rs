//! JSON-serializable model configuration (the `predict` binary's input).
//!
//! [`cos_model::SystemParams`] holds trait objects (arbitrary service-time
//! laws) and cannot be serialized directly; this file format restricts the
//! laws to what the §IV calibration actually produces — Gamma disk
//! service times and (near-)constant parse times — which covers every
//! operational use of the model.

use cos_model::{DeviceParams, FrontendParams, SystemParams};
use cos_queueing::from_distribution;

use cos_gate::json::{self, Value};

use crate::pretty::object;

/// A Gamma law as `{shape, rate}` (the paper's parameterization; mean is
/// `shape/rate` seconds).
#[derive(Debug, Clone, Copy)]
pub struct GammaLaw {
    /// Shape parameter `k`.
    pub shape: f64,
    /// Rate parameter `l` (1/seconds).
    pub rate: f64,
}

impl GammaLaw {
    fn build(&self) -> Result<cos_distr::Gamma, String> {
        if !(self.shape.is_finite() && self.shape > 0.0 && self.rate.is_finite() && self.rate > 0.0)
        {
            return Err(format!(
                "invalid gamma law: shape={} rate={}",
                self.shape, self.rate
            ));
        }
        Ok(cos_distr::Gamma::new(self.shape, self.rate))
    }
}

/// One storage device's online metrics + calibrated laws.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Request arrival rate at this device (req/s).
    pub arrival_rate: f64,
    /// Data chunk read rate (reads/s, ≥ arrival_rate).
    pub data_read_rate: f64,
    /// Cache miss ratios `[index, meta, data]`.
    pub miss_ratios: [f64; 3],
    /// Fitted disk law for index lookups.
    pub index_disk: GammaLaw,
    /// Fitted disk law for metadata reads.
    pub meta_disk: GammaLaw,
    /// Fitted disk law for data reads.
    pub data_disk: GammaLaw,
    /// Backend parse latency (seconds, near-constant).
    pub parse_be: f64,
    /// Processes dedicated to this device (`N_be`).
    pub processes: usize,
}

/// The full model configuration file.
#[derive(Debug, Clone)]
pub struct ModelConfigFile {
    /// Total system arrival rate (req/s).
    pub arrival_rate: f64,
    /// Frontend processes (`N_fe`).
    pub frontend_processes: usize,
    /// Frontend parse latency (seconds).
    pub parse_fe: f64,
    /// SLAs to evaluate (seconds).
    pub slas: Vec<f64>,
    /// Per-device entries.
    pub devices: Vec<DeviceConfig>,
}

impl GammaLaw {
    fn to_json(self) -> Value {
        object(vec![
            ("shape", Value::Number(self.shape)),
            ("rate", Value::Number(self.rate)),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        Ok(GammaLaw {
            shape: v.f64_field("shape")?,
            rate: v.f64_field("rate")?,
        })
    }
}

impl DeviceConfig {
    fn to_json(&self) -> Value {
        object(vec![
            ("arrival_rate", Value::Number(self.arrival_rate)),
            ("data_read_rate", Value::Number(self.data_read_rate)),
            (
                "miss_ratios",
                Value::Array(self.miss_ratios.iter().map(|&m| Value::Number(m)).collect()),
            ),
            ("index_disk", self.index_disk.to_json()),
            ("meta_disk", self.meta_disk.to_json()),
            ("data_disk", self.data_disk.to_json()),
            ("parse_be", Value::Number(self.parse_be)),
            ("processes", Value::Number(self.processes as f64)),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let ratios = v
            .field("miss_ratios")?
            .as_array()
            .ok_or("miss_ratios must be an array")?;
        if ratios.len() != 3 {
            return Err(format!(
                "miss_ratios must have 3 entries, got {}",
                ratios.len()
            ));
        }
        let mut miss_ratios = [0.0; 3];
        for (slot, r) in miss_ratios.iter_mut().zip(ratios) {
            *slot = r.as_f64().ok_or("miss_ratios entries must be numbers")?;
        }
        Ok(DeviceConfig {
            arrival_rate: v.f64_field("arrival_rate")?,
            data_read_rate: v.f64_field("data_read_rate")?,
            miss_ratios,
            index_disk: GammaLaw::from_json(v.field("index_disk")?)?,
            meta_disk: GammaLaw::from_json(v.field("meta_disk")?)?,
            data_disk: GammaLaw::from_json(v.field("data_disk")?)?,
            parse_be: v.f64_field("parse_be")?,
            processes: v.usize_field("processes")?,
        })
    }
}

impl ModelConfigFile {
    /// JSON form of the configuration.
    pub fn to_json(&self) -> Value {
        object(vec![
            ("arrival_rate", Value::Number(self.arrival_rate)),
            (
                "frontend_processes",
                Value::Number(self.frontend_processes as f64),
            ),
            ("parse_fe", Value::Number(self.parse_fe)),
            (
                "slas",
                Value::Array(self.slas.iter().map(|&s| Value::Number(s)).collect()),
            ),
            (
                "devices",
                Value::Array(self.devices.iter().map(DeviceConfig::to_json).collect()),
            ),
        ])
    }

    /// Parses a configuration from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let slas = v
            .field("slas")?
            .as_array()
            .ok_or("slas must be an array")?
            .iter()
            .map(|s| {
                s.as_f64()
                    .ok_or_else(|| "slas entries must be numbers".to_string())
            })
            .collect::<Result<Vec<f64>, String>>()?;
        let devices = v
            .field("devices")?
            .as_array()
            .ok_or("devices must be an array")?
            .iter()
            .enumerate()
            .map(|(i, d)| DeviceConfig::from_json(d).map_err(|e| format!("device {i}: {e}")))
            .collect::<Result<Vec<DeviceConfig>, String>>()?;
        Ok(ModelConfigFile {
            arrival_rate: v.f64_field("arrival_rate")?,
            frontend_processes: v.usize_field("frontend_processes")?,
            parse_fe: v.f64_field("parse_fe")?,
            slas,
            devices,
        })
    }

    /// Converts the file into model parameters.
    pub fn to_params(&self) -> Result<SystemParams, String> {
        if self.devices.is_empty() {
            return Err("at least one device is required".into());
        }
        if !(self.parse_fe.is_finite() && self.parse_fe >= 0.0) {
            return Err(format!("invalid frontend parse latency {}", self.parse_fe));
        }
        let mut devices = Vec::with_capacity(self.devices.len());
        for (i, d) in self.devices.iter().enumerate() {
            if !(d.parse_be.is_finite() && d.parse_be >= 0.0) {
                return Err(format!("device {i}: invalid parse latency {}", d.parse_be));
            }
            if d.arrival_rate <= 0.0 || d.data_read_rate < d.arrival_rate {
                return Err(format!(
                    "device {i}: need 0 < arrival_rate <= data_read_rate, got {} / {}",
                    d.arrival_rate, d.data_read_rate
                ));
            }
            for (k, m) in d.miss_ratios.iter().enumerate() {
                if !(0.0..=1.0).contains(m) {
                    return Err(format!("device {i}: miss ratio {k} out of range: {m}"));
                }
            }
            devices.push(DeviceParams {
                arrival_rate: d.arrival_rate,
                data_read_rate: d.data_read_rate,
                miss_index: d.miss_ratios[0],
                miss_meta: d.miss_ratios[1],
                miss_data: d.miss_ratios[2],
                index_disk: from_distribution(d.index_disk.build()?),
                meta_disk: from_distribution(d.meta_disk.build()?),
                data_disk: from_distribution(d.data_disk.build()?),
                parse_be: from_distribution(cos_distr::Degenerate::new(d.parse_be)),
                processes: d.processes.max(1),
            });
        }
        Ok(SystemParams {
            frontend: FrontendParams {
                arrival_rate: self.arrival_rate,
                processes: self.frontend_processes.max(1),
                parse_fe: from_distribution(cos_distr::Degenerate::new(self.parse_fe)),
            },
            devices,
        })
    }
}

/// A ready-to-edit example configuration (the testbed-like S1 cluster at
/// 150 req/s).
pub fn example_config() -> ModelConfigFile {
    let device = DeviceConfig {
        arrival_rate: 37.5,
        data_read_rate: 41.0,
        miss_ratios: [0.30, 0.25, 0.40],
        index_disk: GammaLaw {
            shape: 3.0,
            rate: 250.0,
        },
        meta_disk: GammaLaw {
            shape: 2.5,
            rate: 312.5,
        },
        data_disk: GammaLaw {
            shape: 3.5,
            rate: 245.0,
        },
        parse_be: 0.0005,
        processes: 1,
    };
    ModelConfigFile {
        arrival_rate: 150.0,
        frontend_processes: 3,
        parse_fe: 0.0003,
        slas: vec![0.010, 0.050, 0.100],
        devices: vec![device; 4],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty::to_string_pretty;
    use cos_model::{ModelVariant, SystemModel};

    #[test]
    fn example_roundtrips_through_json() {
        let config = example_config();
        let json = to_string_pretty(&config.to_json());
        let back = ModelConfigFile::from_json_str(&json).unwrap();
        let params = back.to_params().unwrap();
        let model = SystemModel::new(&params, ModelVariant::Full).unwrap();
        let p = model.fraction_meeting_sla(0.100);
        assert!(p > 0.5 && p <= 1.0, "p = {p}");
    }

    #[test]
    fn validation_errors_are_descriptive() {
        let mut bad = example_config();
        bad.devices[0].miss_ratios[2] = 1.4;
        let err = bad.to_params().unwrap_err();
        assert!(err.contains("miss ratio"), "{err}");

        let mut bad = example_config();
        bad.devices[1].data_read_rate = 1.0;
        assert!(bad.to_params().unwrap_err().contains("data_read_rate"));

        let mut bad = example_config();
        bad.devices.clear();
        assert!(bad.to_params().unwrap_err().contains("at least one device"));

        let mut bad = example_config();
        bad.devices[0].index_disk.rate = -1.0;
        assert!(bad.to_params().unwrap_err().contains("gamma"));
    }

    #[test]
    fn processes_clamped_to_one() {
        let mut c = example_config();
        c.devices[0].processes = 0;
        c.frontend_processes = 0;
        let params = c.to_params().unwrap();
        assert_eq!(params.devices[0].processes, 1);
        assert_eq!(params.frontend.processes, 1);
    }
}
