//! Scenario presets and the end-to-end experiment harness.
//!
//! One "scenario run" reproduces the paper's §V-B pipeline:
//!
//! 1. calibrate (§IV-A): benchmark the disk with outstanding = 1, fit the
//!    per-operation service-time laws (Fig. 5), and benchmark request
//!    parsing against a cached object;
//! 2. synthesize the Wikipedia-like workload with the three-phase rate
//!    schedule and replay it against the simulated cluster (the testbed
//!    substitute);
//! 3. for every measured 5-minute window (one arrival rate each), read the
//!    online metrics (§IV-B: per-device arrival and data-read rates, cache
//!    miss ratios via the 0.015 ms latency threshold) and predict the
//!    percentile of requests meeting each SLA with the full model and both
//!    baselines;
//! 4. emit `(rate, observed, predictions…)` rows — the series plotted in
//!    Fig. 6/7 and summarized in Tables I/II.

use cos_model::{
    fit_disk_law, miss_ratio_by_threshold, DeviceParams, FrontendParams, ModelVariant, SystemModel,
    SystemParams, LATENCY_THRESHOLD,
};
use cos_queueing::{from_distribution, DynServiceTime};
use cos_simkit::RngStreams;
use cos_storesim::{
    benchmark_disk, benchmark_parse, ClusterConfig, DiskOpKind, Metrics, MetricsConfig,
};
use cos_workload::{Catalog, CatalogConfig, PhaseConfig, PhaseSchedule, TraceStream};

use cos_gate::json::Value;

use crate::pretty::{object, opt_number};

/// A named experiment scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario label ("S1", "S16").
    pub name: &'static str,
    /// Cluster configuration.
    pub cluster: ClusterConfig,
    /// Load schedule.
    pub phases: PhaseConfig,
    /// Object catalog configuration.
    pub catalog: CatalogConfig,
}

impl Scenario {
    /// Scenario S1: one process per storage device, sweep 10→350 req/s.
    pub fn s1() -> Self {
        Scenario {
            name: "S1",
            cluster: ClusterConfig::paper_s1(),
            phases: PhaseConfig::paper_s1(),
            catalog: CatalogConfig::default(),
        }
    }

    /// Scenario S16: sixteen processes per device, sweep 10→600 req/s.
    pub fn s16() -> Self {
        Scenario {
            name: "S16",
            cluster: ClusterConfig::paper_s16(),
            phases: PhaseConfig::paper_s16(),
            catalog: CatalogConfig::default(),
        }
    }

    /// Compresses the schedule by `scale` (rates unchanged) and shrinks the
    /// catalog, for fast test/bench runs.
    pub fn quick(mut self, scale: f64) -> Self {
        self.phases = self.phases.scaled(scale);
        self.catalog.objects = 20_000;
        self
    }
}

/// Model predictions for one (window, SLA) cell; `None` when the model
/// declares the operating point unstable (the paper stops analyzing when
/// timeouts dominate).
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Observed fraction of requests meeting the SLA.
    pub observed: Option<f64>,
    /// Full model prediction.
    pub full: Option<f64>,
    /// ODOPR baseline prediction.
    pub odopr: Option<f64>,
    /// noWTA baseline prediction.
    pub nowta: Option<f64>,
    /// Residual-WTA extension prediction (this reproduction's refinement).
    pub residual: Option<f64>,
}

impl Cell {
    /// Prediction of a given variant.
    pub fn prediction(&self, variant: ModelVariant) -> Option<f64> {
        match variant {
            ModelVariant::Full => self.full,
            ModelVariant::Odopr => self.odopr,
            ModelVariant::NoWta => self.nowta,
            ModelVariant::ResidualWta => self.residual,
        }
    }
}

/// One measured window (one arrival rate) of a scenario run.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Nominal system arrival rate of this window (req/s).
    pub rate: f64,
    /// One cell per SLA (same order as [`ScenarioResult::slas`]).
    pub cells: Vec<Cell>,
}

/// Full result of a scenario run.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Scenario label.
    pub name: String,
    /// SLA bounds in seconds.
    pub slas: Vec<f64>,
    /// Per-window results, in sweep order.
    pub windows: Vec<WindowResult>,
}

impl Cell {
    /// JSON form (one object per SLA cell).
    pub fn to_json(&self) -> Value {
        object(vec![
            ("observed", opt_number(self.observed)),
            ("full", opt_number(self.full)),
            ("odopr", opt_number(self.odopr)),
            ("nowta", opt_number(self.nowta)),
            ("residual", opt_number(self.residual)),
        ])
    }
}

impl WindowResult {
    /// JSON form.
    pub fn to_json(&self) -> Value {
        object(vec![
            ("rate", Value::Number(self.rate)),
            (
                "cells",
                Value::Array(self.cells.iter().map(Cell::to_json).collect()),
            ),
        ])
    }
}

impl ScenarioResult {
    /// JSON form (what `--json PATH` writes).
    pub fn to_json(&self) -> Value {
        object(vec![
            ("name", Value::String(self.name.clone())),
            (
                "slas",
                Value::Array(self.slas.iter().map(|&s| Value::Number(s)).collect()),
            ),
            (
                "windows",
                Value::Array(self.windows.iter().map(WindowResult::to_json).collect()),
            ),
        ])
    }
}

/// Calibrated device performance properties (§IV-A outputs), shared by all
/// devices (the testbed's disks are homogeneous).
pub struct Calibration {
    /// Fitted index-lookup law.
    pub index_law: DynServiceTime,
    /// Fitted metadata-read law.
    pub meta_law: DynServiceTime,
    /// Fitted data-read law.
    pub data_law: DynServiceTime,
    /// Backend parse law.
    pub parse_be: DynServiceTime,
    /// Frontend parse law.
    pub parse_fe: DynServiceTime,
}

/// Runs the §IV-A calibration against a cluster configuration.
pub fn calibrate(cluster: &ClusterConfig, disk_ops: usize) -> Calibration {
    let disk = benchmark_disk(cluster, disk_ops);
    let parse = benchmark_parse(cluster, 200);
    Calibration {
        index_law: fit_disk_law(&disk.index).law,
        meta_law: fit_disk_law(&disk.meta).law,
        data_law: fit_disk_law(&disk.data).law,
        parse_be: from_distribution(cos_distr::Degenerate::new(parse.parse_be_estimate)),
        parse_fe: from_distribution(cos_distr::Degenerate::new(parse.parse_fe_estimate)),
    }
}

/// Estimates per-kind miss ratios from the run's sampled operation
/// latencies using the 0.015 ms threshold (§IV-B). Falls back to the
/// simulator's ground-truth counters when no samples were kept.
pub fn estimate_miss_ratios(metrics: &Metrics, device: usize) -> [f64; 3] {
    let mut per_kind: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for s in metrics.op_samples() {
        let idx = match s.kind {
            DiskOpKind::Index => 0,
            DiskOpKind::Meta => 1,
            DiskOpKind::Data => 2,
        };
        per_kind[idx].push(s.latency);
    }
    let counters = &metrics.devices[device];
    let fallback = [
        counters.miss_ratio(DiskOpKind::Index).unwrap_or(0.0),
        counters.miss_ratio(DiskOpKind::Meta).unwrap_or(0.0),
        counters.miss_ratio(DiskOpKind::Data).unwrap_or(0.0),
    ];
    let mut out = fallback;
    for (i, lats) in per_kind.iter().enumerate() {
        if lats.len() >= 100 {
            out[i] = miss_ratio_by_threshold(lats, LATENCY_THRESHOLD);
        }
    }
    out
}

/// Runs a full scenario: calibrate, simulate, predict. `collect_raw`
/// retains per-request records (needed only by special ablations).
pub fn run_scenario(scenario: &Scenario, slas: &[f64], collect_raw: bool) -> ScenarioResult {
    let schedule = PhaseSchedule::new(&scenario.phases);
    let windows = schedule.measured_windows();

    // §IV-A calibration (workload-independent).
    let calibration = calibrate(&scenario.cluster, 20_000);

    // Workload synthesis + replay.
    let streams = RngStreams::new(scenario.cluster.seed ^ 0x5EED);
    let mut catalog_rng = streams.stream("catalog", 0);
    let catalog = Catalog::synthesize(&scenario.catalog, &mut catalog_rng);
    let trace_rng = streams.stream("trace", 0);
    let trace = TraceStream::new(&catalog, &schedule, trace_rng);
    let metrics_config = MetricsConfig {
        slas: slas.to_vec(),
        windows: windows.clone(),
        collect_raw,
        op_sample_stride: 37,
    };
    let metrics = cos_storesim::run_simulation(scenario.cluster.clone(), metrics_config, trace);

    // Predict per window. Windows are independent (the metrics and
    // calibrated laws are read-only), so they fan out across threads;
    // `par_map` merges positionally, keeping the output bit-identical to a
    // serial loop for any worker count.
    let devices = scenario.cluster.devices;
    let nbe = scenario.cluster.processes_per_device;
    let nfe = scenario.cluster.frontend_processes;
    let out_windows = cos_par::par_map(
        cos_par::default_workers(),
        &windows,
        |w, &(start, end, rate)| {
            let duration = end - start;
            let mut device_params = Vec::with_capacity(devices);
            for dev in 0..devices {
                let r = metrics.window_device_requests(w, dev) as f64 / duration;
                let r_data = metrics.window_device_data_ops(w, dev) as f64 / duration;
                if r <= 0.0 {
                    continue;
                }
                let misses = estimate_miss_ratios(&metrics, dev);
                device_params.push(DeviceParams {
                    arrival_rate: r,
                    data_read_rate: r_data.max(r),
                    miss_index: misses[0],
                    miss_meta: misses[1],
                    miss_data: misses[2],
                    index_disk: calibration.index_law.clone(),
                    meta_disk: calibration.meta_law.clone(),
                    data_disk: calibration.data_law.clone(),
                    parse_be: calibration.parse_be.clone(),
                    processes: nbe,
                });
            }
            let mut cells = Vec::with_capacity(slas.len());
            for (si, &sla) in slas.iter().enumerate() {
                let observed = metrics.observed_fraction(w, si);
                let predict = |variant: ModelVariant| -> Option<f64> {
                    if device_params.is_empty() {
                        return None;
                    }
                    let params = SystemParams {
                        frontend: FrontendParams {
                            arrival_rate: rate
                                .max(device_params.iter().map(|d| d.arrival_rate).sum::<f64>()),
                            processes: nfe,
                            parse_fe: calibration.parse_fe.clone(),
                        },
                        devices: device_params.clone(),
                    };
                    SystemModel::new(&params, variant)
                        .ok()
                        .map(|m| m.fraction_meeting_sla(sla))
                };
                cells.push(Cell {
                    observed,
                    full: predict(ModelVariant::Full),
                    odopr: predict(ModelVariant::Odopr),
                    nowta: predict(ModelVariant::NoWta),
                    residual: predict(ModelVariant::ResidualWta),
                });
            }
            WindowResult { rate, cells }
        },
    );
    ScenarioResult {
        name: scenario.name.to_string(),
        slas: slas.to_vec(),
        windows: out_windows,
    }
}
