//! Streaming parameter estimation — the sliding-window form of §IV-B.
//!
//! The offline pipeline estimates each 5-minute window's `SystemParams`
//! after the run; the [`OnlineCalibrator`] maintains the same estimators as
//! rolling windows over the telemetry stream and can re-fit a parameter set
//! at any event time:
//!
//! * per-device arrival and data-read rates;
//! * per-class cache miss ratios from the latency-threshold estimator
//!   (`latency > threshold` ⇒ the operation visited the disk);
//! * the aggregate mean disk service time over the same over-threshold
//!   operations, decomposed into per-operation means by the
//!   proportionality rule `b_i/p_i = b_m/p_m = b_d/p_d` and applied by
//!   rescaling the benchmarked laws (holding the fitted Gamma shape, §IV-A).
//!
//! All of them are counters in one [`WindowBank`]: a slot per time bucket
//! holding every device's counters of that bucket, so an event resolves its
//! bucket once, and a request's events (which share its arrival time) once
//! between them.
//!
//! Devices with too little traffic in the window are left out of the fit
//! (matching the offline pipeline's skip), and a window with no disk
//! traffic falls back to the benchmarked base laws rather than failing.

use cos_model::{
    rescale_to_mean, try_decompose_disk_service, DeviceParams, FrontendParams, SystemParams,
    LATENCY_THRESHOLD,
};
use cos_queueing::DynServiceTime;
use cos_stats::WindowBank;

use crate::telemetry::TelemetryEvent;

/// Workload-independent calibration inputs (§IV-A): the benchmarked
/// service-time laws plus the deployment's process topology.
#[derive(Clone)]
pub struct CalibrationBase {
    /// Benchmarked disk law of index lookups.
    pub index_law: DynServiceTime,
    /// Benchmarked disk law of metadata reads.
    pub meta_law: DynServiceTime,
    /// Benchmarked disk law of data chunk reads.
    pub data_law: DynServiceTime,
    /// Backend request-parsing law.
    pub parse_be: DynServiceTime,
    /// Frontend request-parsing law.
    pub parse_fe: DynServiceTime,
    /// Number of storage devices the stream's `device` indices address.
    pub devices: usize,
    /// Backend processes per device (`N_be`).
    pub processes_per_device: usize,
    /// Frontend processes (`N_fe`).
    pub frontend_processes: usize,
}

/// Tuning knobs of the sliding-window estimators.
#[derive(Debug, Clone)]
pub struct CalibratorConfig {
    /// Sliding-window length in event-time seconds.
    pub window: f64,
    /// Time buckets per window (granularity of forgetting).
    pub buckets: usize,
    /// Latency threshold separating memory hits from disk visits (§IV-B).
    pub miss_threshold: f64,
    /// Minimum in-window requests for a device to enter the fit.
    pub min_device_requests: u64,
}

impl Default for CalibratorConfig {
    fn default() -> Self {
        CalibratorConfig {
            window: 30.0,
            buckets: 30,
            miss_threshold: LATENCY_THRESHOLD,
            min_device_requests: 20,
        }
    }
}

/// Why a re-fit could not produce parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitError {
    /// No device reached the minimum in-window request count.
    NoTraffic,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::NoTraffic => f.write_str("no device has enough in-window traffic to fit"),
        }
    }
}

impl std::error::Error for FitError {}

/// One device's counters in one bucket of the calibrator's bank.
#[derive(Debug, Clone, Copy, Default)]
struct DeviceCells {
    arrivals: u64,
    data_reads: u64,
    /// Operations per class, `[index, meta, data]`.
    ops: [u64; 3],
    /// Over-threshold (disk-visiting) operations per class.
    missed: [u64; 3],
    /// Summed latency of the over-threshold operations.
    disk_sum: f64,
}

impl DeviceCells {
    fn add(&mut self, other: &DeviceCells) {
        self.arrivals += other.arrivals;
        self.data_reads += other.data_reads;
        for c in 0..3 {
            self.ops[c] += other.ops[c];
            self.missed[c] += other.missed[c];
        }
        self.disk_sum += other.disk_sum;
    }
}

/// The streaming estimator bank plus the re-fit procedure.
pub struct OnlineCalibrator {
    base: CalibrationBase,
    config: CalibratorConfig,
    /// One row of [`DeviceCells`] per device in every slot. Rate columns:
    /// device `d`'s arrivals are column `d`, its data reads column
    /// `devices + d`; the frontend's arrivals are columns `0..devices`.
    bank: WindowBank<DeviceCells>,
}

impl OnlineCalibrator {
    /// Creates a calibrator for `base.devices` devices.
    ///
    /// # Panics
    /// Panics if `base.devices == 0`.
    pub fn new(base: CalibrationBase, config: CalibratorConfig) -> Self {
        assert!(base.devices >= 1, "need at least one device");
        OnlineCalibrator {
            bank: WindowBank::new(
                config.window,
                config.buckets,
                base.devices,
                2 * base.devices,
            ),
            base,
            config,
        }
    }

    /// The estimator configuration.
    pub fn config(&self) -> &CalibratorConfig {
        &self.config
    }

    /// The workload-independent calibration inputs.
    pub fn base(&self) -> &CalibrationBase {
        &self.base
    }

    /// Feeds one telemetry event into the window bank. Events addressing an
    /// unknown device index are dropped (a live bus may race a topology
    /// change).
    pub fn ingest(&mut self, event: &TelemetryEvent) {
        let devices = self.base.devices;
        match *event {
            TelemetryEvent::Arrival { at, device } if device < devices => {
                if let Some(row) = self.bank.record_rate(at, device) {
                    row[device].arrivals += 1;
                }
            }
            TelemetryEvent::DataRead { at, device } if device < devices => {
                if let Some(row) = self.bank.record_rate(at, devices + device) {
                    row[device].data_reads += 1;
                }
            }
            TelemetryEvent::Op {
                at,
                device,
                class,
                latency,
            } if device < devices => {
                if let Some(row) = self.bank.record(at) {
                    let cells = &mut row[device];
                    let c = class.index();
                    cells.ops[c] += 1;
                    if latency > self.config.miss_threshold {
                        cells.missed[c] += 1;
                        cells.disk_sum += latency;
                    }
                }
            }
            // Completions feed the drift monitor, not the parameter fit;
            // events for a device outside the base are dropped.
            _ => {}
        }
    }

    /// Every device's counters summed over the window ending at `now`.
    fn totals(&self, now: f64) -> Vec<DeviceCells> {
        let mut totals = vec![DeviceCells::default(); self.base.devices];
        for row in self.bank.live(now) {
            for (total, cells) in totals.iter_mut().zip(row) {
                total.add(cells);
            }
        }
        totals
    }

    /// Requests currently inside device `idx`'s arrival window.
    pub fn device_request_count(&self, idx: usize, now: f64) -> u64 {
        if idx >= self.base.devices {
            return 0;
        }
        self.bank.live(now).map(|row| row[idx].arrivals).sum()
    }

    /// Fits a fresh [`SystemParams`] from the windows ending at `now`.
    ///
    /// Devices below the traffic floor are skipped; if every device is
    /// below it the fit fails with [`FitError::NoTraffic`]. Per-operation
    /// disk laws are the benchmarked base laws rescaled to the decomposed
    /// in-window means; when the window carries no usable disk traffic the
    /// base laws are used as-is.
    pub fn try_fit(&self, now: f64) -> Result<SystemParams, FitError> {
        let proportions = [
            self.base.index_law.mean(),
            self.base.meta_law.mean(),
            self.base.data_law.mean(),
        ];
        let n = self.base.devices;
        let totals = self.totals(now);
        let mut devices = Vec::new();
        for (d, w) in totals.iter().enumerate() {
            if w.arrivals < self.config.min_device_requests.max(1) {
                continue;
            }
            let r = match self.bank.rate(now, d..d + 1, w.arrivals) {
                Some(r) if r > 0.0 => r,
                _ => continue,
            };
            // Every request reads at least one chunk; clamp against window
            // jitter between the two independent estimators.
            let r_data = self
                .bank
                .rate(now, n + d..n + d + 1, w.data_reads)
                .unwrap_or(r)
                .max(r);
            let misses = [0, 1, 2].map(|c| match w.ops[c] {
                0 => 0.0,
                ops => w.missed[c] as f64 / ops as f64,
            });
            let disk_ops: u64 = w.missed.iter().sum();
            let laws = (disk_ops > 0)
                .then(|| w.disk_sum / disk_ops as f64)
                .and_then(|b| try_decompose_disk_service(b, proportions, misses, r, r_data).ok())
                .map(|[bi, bm, bd]| {
                    (
                        rescale_to_mean(&self.base.index_law, bi),
                        rescale_to_mean(&self.base.meta_law, bm),
                        rescale_to_mean(&self.base.data_law, bd),
                    )
                })
                .unwrap_or_else(|| {
                    (
                        self.base.index_law.clone(),
                        self.base.meta_law.clone(),
                        self.base.data_law.clone(),
                    )
                });
            devices.push(DeviceParams {
                arrival_rate: r,
                data_read_rate: r_data,
                miss_index: misses[0],
                miss_meta: misses[1],
                miss_data: misses[2],
                index_disk: laws.0,
                meta_disk: laws.1,
                data_disk: laws.2,
                parse_be: self.base.parse_be.clone(),
                processes: self.base.processes_per_device.max(1),
            });
        }
        if devices.is_empty() {
            return Err(FitError::NoTraffic);
        }
        let device_total: f64 = devices.iter().map(|d| d.arrival_rate).sum();
        // The frontend sees every request, including those routed to
        // below-floor devices; never report less than the fitted devices.
        let arrivals = totals.iter().map(|w| w.arrivals).sum();
        let frontend_rate = self
            .bank
            .rate(now, 0..n, arrivals)
            .unwrap_or(device_total)
            .max(device_total);
        Ok(SystemParams {
            frontend: FrontendParams {
                arrival_rate: frontend_rate,
                processes: self.base.frontend_processes.max(1),
                parse_fe: self.base.parse_fe.clone(),
            },
            devices,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::OpClass;
    use cos_distr::{Degenerate, Gamma};
    use cos_queueing::from_distribution;

    pub(crate) fn test_base(devices: usize) -> CalibrationBase {
        CalibrationBase {
            index_law: from_distribution(Gamma::new(3.0, 250.0)),
            meta_law: from_distribution(Gamma::new(2.5, 312.5)),
            data_law: from_distribution(Gamma::new(3.5, 245.0)),
            parse_be: from_distribution(Degenerate::new(0.0005)),
            parse_fe: from_distribution(Degenerate::new(0.0003)),
            devices,
            processes_per_device: 1,
            frontend_processes: 3,
        }
    }

    fn feed_steady(cal: &mut OnlineCalibrator, rate_per_device: f64, duration: f64, miss: f64) {
        let devices = cal.base.devices;
        let dt = 1.0 / rate_per_device;
        let mut i = 0u64;
        let mut t = 0.0;
        while t < duration {
            for d in 0..devices {
                cal.ingest(&TelemetryEvent::Arrival { at: t, device: d });
                cal.ingest(&TelemetryEvent::DataRead { at: t, device: d });
                for class in OpClass::ALL {
                    // Deterministic interleaving: a `miss` fraction of ops
                    // goes to disk at 12 ms, the rest hit memory at 2 µs.
                    let missed = (i % 100) as f64 / 100.0 < miss;
                    let latency = if missed { 0.012 } else { 0.000_002 };
                    cal.ingest(&TelemetryEvent::Op {
                        at: t,
                        device: d,
                        class,
                        latency,
                    });
                    i += 1;
                }
            }
            t += dt;
        }
    }

    #[test]
    fn steady_stream_fits_expected_rates_and_misses() {
        let mut cal = OnlineCalibrator::new(test_base(2), CalibratorConfig::default());
        feed_steady(&mut cal, 50.0, 40.0, 0.30);
        let params = cal.try_fit(40.0).unwrap();
        assert_eq!(params.devices.len(), 2);
        params.validate();
        for d in &params.devices {
            assert!(
                (d.arrival_rate - 50.0).abs() < 5.0,
                "rate {}",
                d.arrival_rate
            );
            assert!((d.miss_index - 0.30).abs() < 0.05, "miss {}", d.miss_index);
            assert!(d.data_read_rate >= d.arrival_rate);
        }
        assert!((params.frontend.arrival_rate - 100.0).abs() < 10.0);
        // All disk visits took 12 ms, so the decomposed per-op means must
        // average back to ~12 ms under the union weights.
        let d = &params.devices[0];
        let w = [
            d.miss_index,
            d.miss_meta,
            d.miss_data * d.data_read_rate / d.arrival_rate,
        ];
        let agg =
            (w[0] * d.index_disk.mean() + w[1] * d.meta_disk.mean() + w[2] * d.data_disk.mean())
                / (w[0] + w[1] + w[2]);
        assert!((agg - 0.012).abs() < 0.002, "aggregate disk mean {agg}");
    }

    #[test]
    fn empty_stream_reports_no_traffic() {
        let cal = OnlineCalibrator::new(test_base(1), CalibratorConfig::default());
        assert!(matches!(cal.try_fit(10.0), Err(FitError::NoTraffic)));
    }

    #[test]
    fn quiet_device_is_skipped_not_fatal() {
        let mut cal = OnlineCalibrator::new(test_base(3), CalibratorConfig::default());
        // Only device 1 gets traffic.
        for i in 0..2000 {
            let t = i as f64 * 0.02;
            cal.ingest(&TelemetryEvent::Arrival { at: t, device: 1 });
            cal.ingest(&TelemetryEvent::DataRead { at: t, device: 1 });
        }
        let params = cal.try_fit(40.0).unwrap();
        assert_eq!(params.devices.len(), 1);
        // No Op events at all: base laws and zero miss ratios.
        assert_eq!(params.devices[0].miss_data, 0.0);
    }

    #[test]
    fn all_hit_window_falls_back_to_base_laws() {
        let mut cal = OnlineCalibrator::new(test_base(1), CalibratorConfig::default());
        let base_mean = cal.base.data_law.mean();
        for i in 0..3000 {
            let t = i as f64 * 0.01;
            cal.ingest(&TelemetryEvent::Arrival { at: t, device: 0 });
            cal.ingest(&TelemetryEvent::DataRead { at: t, device: 0 });
            cal.ingest(&TelemetryEvent::Op {
                at: t,
                device: 0,
                class: OpClass::Data,
                latency: 0.000_002,
            });
        }
        let params = cal.try_fit(30.0).unwrap();
        assert_eq!(params.devices[0].miss_data, 0.0);
        assert!((params.devices[0].data_disk.mean() - base_mean).abs() < 1e-12);
    }

    #[test]
    fn workload_shift_is_forgotten_within_a_window() {
        let cfg = CalibratorConfig {
            window: 10.0,
            buckets: 20,
            ..CalibratorConfig::default()
        };
        let mut cal = OnlineCalibrator::new(test_base(1), cfg);
        // 100 req/s for 30 s, then 20 req/s for 30 s.
        for i in 0..3000 {
            cal.ingest(&TelemetryEvent::Arrival {
                at: i as f64 * 0.01,
                device: 0,
            });
        }
        for i in 0..600 {
            cal.ingest(&TelemetryEvent::Arrival {
                at: 30.0 + i as f64 * 0.05,
                device: 0,
            });
        }
        let late = cal.try_fit(60.0).unwrap();
        assert!(
            (late.devices[0].arrival_rate - 20.0).abs() < 4.0,
            "rate {} should reflect the post-shift regime",
            late.devices[0].arrival_rate
        );
    }

    #[test]
    fn unknown_device_indices_are_dropped() {
        let mut cal = OnlineCalibrator::new(test_base(1), CalibratorConfig::default());
        cal.ingest(&TelemetryEvent::Arrival { at: 0.0, device: 7 });
        assert_eq!(cal.device_request_count(0, 1.0), 0);
        assert!(matches!(cal.try_fit(1.0), Err(FitError::NoTraffic)));
    }
}
