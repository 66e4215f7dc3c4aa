//! The window banks under `OnlineCalibrator` and `DriftMonitor` against
//! the per-counter rings they replaced. On random fleets of streams, read
//! at the service's clock (the running maximum event time) and later,
//! every fitted rate, miss ratio and disk-law mean, every device request
//! count, and every observed attainment and drift verdict must agree bit
//! for bit.

use cos_model::{
    rescale_to_mean, try_decompose_disk_service, DeviceParams, FrontendParams, SystemParams,
};
use cos_serve::{
    CalibrationBase, CalibratorConfig, DriftConfig, DriftMonitor, DriftReport, FitError,
    OnlineCalibrator, OpClass, TelemetryEvent,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The oracle: one single-column ring per estimator, as the service kept
/// them before the banks.
mod rings {
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct WindowTotals {
        pub sum: f64,
        pub count: u64,
        pub flagged: u64,
        pub covered: f64,
    }

    #[derive(Debug, Clone, Copy)]
    struct Slot {
        bucket: i64,
        sum: f64,
        count: u64,
        flagged: u64,
    }

    const EMPTY_SLOT: Slot = Slot {
        bucket: i64::MIN,
        sum: 0.0,
        count: 0,
        flagged: 0,
    };

    /// A time-bucketed sliding-window accumulator of `(time, value,
    /// flag)` triples.
    #[derive(Debug, Clone)]
    pub struct BucketRing {
        width: f64,
        slots: Vec<Slot>,
        /// Bucket of the earliest event ever recorded (`i64::MAX` before
        /// any).
        first_bucket: i64,
    }

    impl BucketRing {
        pub fn new(window: f64, buckets: usize) -> Self {
            BucketRing {
                width: window / buckets as f64,
                slots: vec![EMPTY_SLOT; buckets],
                first_bucket: i64::MAX,
            }
        }

        fn bucket_of(&self, t: f64) -> i64 {
            (t / self.width).floor() as i64
        }

        pub fn record(&mut self, t: f64, value: f64, flag: bool) {
            let b = self.bucket_of(t);
            self.first_bucket = self.first_bucket.min(b);
            let len = self.slots.len() as i64;
            let slot = &mut self.slots[b.rem_euclid(len) as usize];
            if slot.bucket > b {
                return;
            }
            if slot.bucket < b {
                *slot = Slot {
                    bucket: b,
                    ..EMPTY_SLOT
                };
            }
            slot.sum += value;
            slot.count += 1;
            if flag {
                slot.flagged += 1;
            }
        }

        pub fn totals(&self, now: f64) -> WindowTotals {
            let now_b = self.bucket_of(now);
            let len = self.slots.len() as i64;
            let lo = now_b.saturating_sub(len - 1);
            let mut out = WindowTotals {
                sum: 0.0,
                count: 0,
                flagged: 0,
                covered: 0.0,
            };
            for slot in &self.slots {
                if slot.bucket >= lo && slot.bucket <= now_b {
                    out.sum += slot.sum;
                    out.count += slot.count;
                    out.flagged += slot.flagged;
                }
            }
            let start = self.width * lo.max(self.first_bucket.min(now_b)) as f64;
            out.covered = (now - start).max(0.0);
            out
        }
    }

    /// Events per second over the trailing window.
    #[derive(Debug, Clone)]
    pub struct RateWindow(BucketRing);

    impl RateWindow {
        pub fn new(window: f64, buckets: usize) -> Self {
            RateWindow(BucketRing::new(window, buckets))
        }

        pub fn record(&mut self, t: f64) {
            self.0.record(t, 0.0, false);
        }

        pub fn rate(&self, now: f64) -> Option<f64> {
            let totals = self.0.totals(now);
            if totals.covered <= 0.0 {
                return None;
            }
            Some(totals.count as f64 / totals.covered)
        }

        pub fn count(&self, now: f64) -> u64 {
            self.0.totals(now).count
        }
    }

    /// The share of flagged events in the trailing window.
    #[derive(Debug, Clone)]
    pub struct WindowedRatio(BucketRing);

    impl WindowedRatio {
        pub fn new(window: f64, buckets: usize) -> Self {
            WindowedRatio(BucketRing::new(window, buckets))
        }

        pub fn record(&mut self, t: f64, flag: bool) {
            self.0.record(t, 0.0, flag);
        }

        pub fn ratio(&self, now: f64) -> Option<f64> {
            let totals = self.0.totals(now);
            if totals.count == 0 {
                return None;
            }
            Some(totals.flagged as f64 / totals.count as f64)
        }

        pub fn count(&self, now: f64) -> u64 {
            self.0.totals(now).count
        }
    }

    /// The mean of the values recorded in the trailing window.
    #[derive(Debug, Clone)]
    pub struct WindowedMean(BucketRing);

    impl WindowedMean {
        pub fn new(window: f64, buckets: usize) -> Self {
            WindowedMean(BucketRing::new(window, buckets))
        }

        pub fn record(&mut self, t: f64, value: f64) {
            self.0.record(t, value, false);
        }

        pub fn mean(&self, now: f64) -> Option<f64> {
            let totals = self.0.totals(now);
            if totals.count == 0 {
                return None;
            }
            Some(totals.sum / totals.count as f64)
        }
    }
}

use rings::{RateWindow, WindowedMean, WindowedRatio};

struct DeviceRings {
    arrivals: RateWindow,
    data_reads: RateWindow,
    miss: [WindowedRatio; 3],
    disk_service: WindowedMean,
}

/// The calibrator over one ring per counter: ingest, count and fit as
/// `OnlineCalibrator` did before its bank.
struct RingCalibrator {
    base: CalibrationBase,
    config: CalibratorConfig,
    devices: Vec<DeviceRings>,
    total_arrivals: RateWindow,
}

impl RingCalibrator {
    fn new(base: CalibrationBase, config: CalibratorConfig) -> Self {
        let ratio = || WindowedRatio::new(config.window, config.buckets);
        let devices = (0..base.devices)
            .map(|_| DeviceRings {
                arrivals: RateWindow::new(config.window, config.buckets),
                data_reads: RateWindow::new(config.window, config.buckets),
                miss: [ratio(), ratio(), ratio()],
                disk_service: WindowedMean::new(config.window, config.buckets),
            })
            .collect();
        RingCalibrator {
            total_arrivals: RateWindow::new(config.window, config.buckets),
            devices,
            base,
            config,
        }
    }

    fn ingest(&mut self, event: &TelemetryEvent) {
        match *event {
            TelemetryEvent::Arrival { at, device } => {
                if let Some(w) = self.devices.get_mut(device) {
                    w.arrivals.record(at);
                    self.total_arrivals.record(at);
                }
            }
            TelemetryEvent::DataRead { at, device } => {
                if let Some(w) = self.devices.get_mut(device) {
                    w.data_reads.record(at);
                }
            }
            TelemetryEvent::Op {
                at,
                device,
                class,
                latency,
            } => {
                if let Some(w) = self.devices.get_mut(device) {
                    let missed = latency > self.config.miss_threshold;
                    w.miss[class.index()].record(at, missed);
                    if missed {
                        w.disk_service.record(at, latency);
                    }
                }
            }
            TelemetryEvent::Completion { .. } => {}
        }
    }

    fn device_request_count(&self, idx: usize, now: f64) -> u64 {
        self.devices.get(idx).map_or(0, |w| w.arrivals.count(now))
    }

    fn try_fit(&self, now: f64) -> Result<SystemParams, FitError> {
        let proportions = [
            self.base.index_law.mean(),
            self.base.meta_law.mean(),
            self.base.data_law.mean(),
        ];
        let mut devices = Vec::new();
        for w in &self.devices {
            if w.arrivals.count(now) < self.config.min_device_requests.max(1) {
                continue;
            }
            let r = match w.arrivals.rate(now) {
                Some(r) if r > 0.0 => r,
                _ => continue,
            };
            let r_data = w.data_reads.rate(now).unwrap_or(r).max(r);
            let misses = [
                w.miss[0].ratio(now).unwrap_or(0.0),
                w.miss[1].ratio(now).unwrap_or(0.0),
                w.miss[2].ratio(now).unwrap_or(0.0),
            ];
            let laws = w
                .disk_service
                .mean(now)
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
        let frontend_rate = self
            .total_arrivals
            .rate(now)
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

/// The drift monitor over one ratio ring per SLA.
struct RingDrift {
    slas: Vec<f64>,
    windows: Vec<WindowedRatio>,
    config: DriftConfig,
}

impl RingDrift {
    fn new(slas: Vec<f64>, config: DriftConfig) -> Self {
        let windows = slas
            .iter()
            .map(|_| WindowedRatio::new(config.window, config.buckets))
            .collect();
        RingDrift {
            slas,
            windows,
            config,
        }
    }

    fn record(&mut self, t: f64, latency: f64) {
        for (sla, w) in self.slas.iter().zip(&mut self.windows) {
            w.record(t, latency <= *sla);
        }
    }

    fn observed(&self, idx: usize, now: f64) -> Option<f64> {
        self.windows.get(idx).and_then(|w| w.ratio(now))
    }

    fn report(&self, now: f64, predictions: &[Option<f64>]) -> Vec<DriftReport> {
        self.slas
            .iter()
            .zip(&self.windows)
            .enumerate()
            .map(|(i, (&sla, w))| {
                let observed = w.ratio(now);
                let predicted = predictions.get(i).copied().flatten();
                let samples = w.count(now);
                let drifted = match (observed, predicted) {
                    (Some(o), Some(p)) => {
                        samples >= self.config.min_samples && (o - p).abs() > self.config.tolerance
                    }
                    _ => false,
                };
                DriftReport {
                    sla,
                    observed,
                    predicted,
                    samples,
                    drifted,
                }
            })
            .collect()
    }
}

fn base(devices: usize) -> CalibrationBase {
    use cos_distr::{Degenerate, Gamma};
    use cos_queueing::from_distribution;
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

/// One tenant fed to both sides.
struct Tenant {
    bank: OnlineCalibrator,
    drift: DriftMonitor,
    rings: RingCalibrator,
    ring_drift: RingDrift,
}

impl Tenant {
    fn ingest(&mut self, event: TelemetryEvent) {
        if let TelemetryEvent::Completion { latency, .. } = event {
            self.drift.record(event.time(), latency);
            self.ring_drift.record(event.time(), latency);
        }
        self.bank.ingest(&event);
        self.rings.ingest(&event);
    }
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

/// Every fitted figure, `f64`s as bits.
fn fit_bits(fit: Result<SystemParams, FitError>) -> Result<Vec<u64>, FitError> {
    let params = fit?;
    let mut out = vec![params.frontend.arrival_rate.to_bits()];
    for d in &params.devices {
        out.extend(
            [
                d.arrival_rate,
                d.data_read_rate,
                d.miss_index,
                d.miss_meta,
                d.miss_data,
                d.index_disk.mean(),
                d.meta_disk.mean(),
                d.data_disk.mean(),
            ]
            .map(f64::to_bits),
        );
    }
    Ok(out)
}

/// Checks every read of `tenant` at `now`.
fn agree(tenant: &Tenant, devices: usize, slas: usize, now: f64, predictions: &[Option<f64>]) {
    assert_eq!(
        fit_bits(tenant.bank.try_fit(now)),
        fit_bits(tenant.rings.try_fit(now)),
        "try_fit at {now}"
    );
    for d in 0..devices + 2 {
        assert_eq!(
            tenant.bank.device_request_count(d, now),
            tenant.rings.device_request_count(d, now),
            "device {d} at {now}"
        );
    }
    for i in 0..slas + 1 {
        assert_eq!(
            bits(tenant.drift.observed(i, now)),
            bits(tenant.ring_drift.observed(i, now)),
            "SLA {i} at {now}"
        );
    }
    let report = |r: Vec<DriftReport>| -> Vec<_> {
        r.into_iter()
            .map(|r| {
                (
                    r.sla.to_bits(),
                    bits(r.observed),
                    bits(r.predicted),
                    r.samples,
                    r.drifted,
                )
            })
            .collect()
    };
    assert_eq!(
        report(tenant.drift.report(now, predictions)),
        report(tenant.ring_drift.report(now, predictions)),
        "report at {now}"
    );
}

/// A latency drawn to land on both sides of the miss threshold and of
/// the SLAs, exactly on them included.
fn latency(rng: &mut SmallRng, edges: &[f64]) -> f64 {
    match rng.gen_range(0..4) {
        0 => 0.000_002,
        1 => edges[rng.gen_range(0..edges.len())],
        2 => [0.004, 0.012, 0.030][rng.gen_range(0..3)],
        _ => rng.gen_range(0.000_001..0.080),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn banks_answer_as_the_per_counter_rings_do(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let devices = rng.gen_range(1..=3);
        let slas: Vec<f64> = (0..rng.gen_range(0..=3))
            .map(|_| [0.004, 0.010, 0.030, rng.gen_range(0.001..0.060)][rng.gen_range(0..4)])
            .collect();
        let windows = [0.25, 1.0, 3.0, 10.0];
        let calibrator = CalibratorConfig {
            window: windows[rng.gen_range(0..windows.len())],
            buckets: rng.gen_range(1..=12),
            min_device_requests: rng.gen_range(0..=8),
            ..CalibratorConfig::default()
        };
        // Equal windows half the time, else drawn on their own.
        let drift = if rng.gen_bool(0.5) {
            DriftConfig {
                window: calibrator.window,
                buckets: calibrator.buckets,
                min_samples: rng.gen_range(0..=10),
                ..DriftConfig::default()
            }
        } else {
            DriftConfig {
                window: windows[rng.gen_range(0..windows.len())],
                buckets: rng.gen_range(1..=12),
                min_samples: rng.gen_range(0..=10),
                ..DriftConfig::default()
            }
        };
        let scale = calibrator.window.max(drift.window);
        let mut edges = slas.clone();
        edges.push(calibrator.miss_threshold);
        let mut tenants: Vec<Tenant> = (0..rng.gen_range(1..=3))
            .map(|_| Tenant {
                bank: OnlineCalibrator::new(base(devices), calibrator.clone()),
                drift: DriftMonitor::new(slas.clone(), drift.clone()),
                rings: RingCalibrator::new(base(devices), calibrator.clone()),
                ring_drift: RingDrift::new(slas.clone(), drift.clone()),
            })
            .collect();

        // The service's clock: the running maximum event time from 0.
        let mut now = 0.0f64;
        let mut t = 0.0f64;
        for _ in 0..rng.gen_range(20..240) {
            match rng.gen_range(0..10) {
                0..=3 => {} // the previous request's time again
                4..=8 => t += rng.gen_range(0.0..0.2) * scale,
                _ => t += rng.gen_range(1.0..3.0) * scale, // past the window
            }
            let at = match rng.gen_range(0..10) {
                0 => t - rng.gen_range(0.0..1.0) * scale, // out of order
                1 => t - rng.gen_range(1.0..3.0) * scale, // older than the window
                _ => t,
            };
            let device = if rng.gen_bool(0.1) {
                devices + rng.gen_range(0..2) // not in the base
            } else {
                rng.gen_range(0..devices)
            };
            let mut request = Vec::new();
            if rng.gen_bool(0.9) {
                request.push(TelemetryEvent::Arrival { at, device });
            }
            for _ in 0..rng.gen_range(0..=2) {
                request.push(TelemetryEvent::DataRead { at, device });
            }
            for class in OpClass::ALL {
                if rng.gen_bool(0.8) {
                    let latency = latency(&mut rng, &edges);
                    request.push(TelemetryEvent::Op { at, device, class, latency });
                }
            }
            if rng.gen_bool(0.8) {
                let latency = latency(&mut rng, &edges);
                request.push(TelemetryEvent::Completion { arrival: at, latency, device });
            }
            let k = rng.gen_range(0..tenants.len());
            let tenant = &mut tenants[k];
            for event in request {
                now = now.max(event.time());
                tenant.ingest(event);
            }

            if rng.gen_bool(0.25) {
                let predictions: Vec<Option<f64>> = (0..slas.len())
                    .map(|_| rng.gen_bool(0.7).then(|| rng.gen_range(0.0..1.0)))
                    .collect();
                let later = [
                    0.0,
                    rng.gen_range(0.0..0.1) * scale,
                    rng.gen_range(0.5..1.5) * scale,
                    rng.gen_range(2.0..4.0) * scale,
                ];
                for tenant in &tenants {
                    for dt in later {
                        agree(tenant, devices, slas.len(), now + dt, &predictions);
                    }
                }
            }
        }
    }
}
