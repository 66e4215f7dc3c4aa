//! Scenario presets and the end-to-end experiment harness.
//!
//! One "scenario run" reproduces the paper's §V-B pipeline:
//!
//! 1. calibrate (§IV-A): benchmark the disk with outstanding = 1, fit the
//!    per-operation service-time laws (Fig. 5), and benchmark request
//!    parsing against a cached object;
//! 2. synthesize the Wikipedia-like workload with the three-phase rate
//!    schedule and replay it against the simulated cluster (the testbed
//!    substitute), streaming its telemetry;
//! 3. fit every measured 5-minute window (one arrival rate each) with the
//!    served [`OnlineCalibrator`] (§IV-B: per-device arrival and data-read
//!    rates, cache miss ratios via the 0.015 ms latency threshold, and the
//!    in-window disk time split into per-operation means), and predict the
//!    percentile of requests meeting each SLA with the full model and the
//!    baselines;
//! 4. emit `(rate, observed, predictions…)` rows — the series plotted in
//!    Fig. 6/7 and summarized in Tables I/II.

use std::cell::RefCell;
use std::rc::Rc;

use cos_model::{fit_disk_law, ModelVariant, SystemModel, SystemParams};
use cos_queueing::from_distribution;
use cos_serve::{CalibrationBase, CalibratorConfig, OnlineCalibrator, TelemetryEvent};
use cos_simkit::RngStreams;
use cos_storesim::{
    benchmark_disk, benchmark_parse, ClusterConfig, Metrics, MetricsConfig, SimTelemetry,
    Simulation, TelemetrySink,
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

/// Runs the §IV-A calibration against a cluster configuration: the
/// benchmarked disk and parse laws, with the cluster's process topology.
pub fn calibrate(cluster: &ClusterConfig, disk_ops: usize) -> CalibrationBase {
    let disk = benchmark_disk(cluster, disk_ops);
    let parse = benchmark_parse(cluster, 200);
    CalibrationBase {
        index_law: fit_disk_law(&disk.index).law,
        meta_law: fit_disk_law(&disk.meta).law,
        data_law: fit_disk_law(&disk.data).law,
        parse_be: from_distribution(cos_distr::Degenerate::new(parse.parse_be_estimate)),
        parse_fe: from_distribution(cos_distr::Degenerate::new(parse.parse_fe_estimate)),
        devices: cluster.devices,
        processes_per_device: cluster.processes_per_device,
        frontend_processes: cluster.frontend_processes,
    }
}

/// Synthesizes the scenario's workload from its seed and replays it
/// against its cluster, streaming every telemetry record into `sink`. The
/// returned metrics count each SLA's attainment per measured window.
pub fn simulate(scenario: &Scenario, slas: &[f64], sink: Box<dyn TelemetrySink>) -> Metrics {
    let schedule = PhaseSchedule::new(&scenario.phases);
    let streams = RngStreams::new(scenario.cluster.seed ^ 0x5EED);
    let catalog = Catalog::synthesize(&scenario.catalog, &mut streams.stream("catalog", 0));
    let trace = TraceStream::new(&catalog, &schedule, streams.stream("trace", 0));
    let config = MetricsConfig {
        slas: slas.to_vec(),
        windows: schedule.measured_windows(),
        ..MetricsConfig::default()
    };
    Simulation::new(scenario.cluster.clone(), config)
        .with_telemetry(sink)
        .run(trace)
}

/// Simulates the scenario and fits each measured window with its own
/// [`OnlineCalibrator`], the estimator the service runs (§IV-B: per-device
/// rates, threshold miss ratios, and the in-window disk time split into
/// per-operation means). Returns the run's metrics and one fit per window,
/// `None` where no device saw a request.
///
/// A calibrator's window is its measured phase as one bucket, and one
/// request admits a device. Each event goes to the window holding its
/// attribution time, timed from that window's start, so the phase is
/// exactly the bucket wherever its edges fall on the float grid.
/// Completions and events outside every window feed no fit. Each window is
/// fitted at the last instant of its bucket: at the window's end the
/// calibrator would read the next, empty one.
pub fn fit_windows(scenario: &Scenario, slas: &[f64]) -> (Metrics, Vec<Option<SystemParams>>) {
    let windows = PhaseSchedule::new(&scenario.phases).measured_windows();
    let base = calibrate(&scenario.cluster, 20_000);
    let calibrators: Vec<OnlineCalibrator> = windows
        .iter()
        .map(|&(start, end, _)| {
            let config = CalibratorConfig {
                window: end - start,
                buckets: 1,
                min_device_requests: 1,
                ..CalibratorConfig::default()
            };
            OnlineCalibrator::new(base.clone(), config)
        })
        .collect();
    let calibrators = Rc::new(RefCell::new(calibrators));
    let fitting = calibrators.clone();
    let sink = move |event: SimTelemetry| {
        let mut event = TelemetryEvent::from(event);
        let (TelemetryEvent::Arrival { at, .. }
        | TelemetryEvent::DataRead { at, .. }
        | TelemetryEvent::Op { at, .. }) = &mut event
        else {
            return;
        };
        let w = windows.partition_point(|&(_, end, _)| end <= *at);
        let Some(&(start, _, _)) = windows.get(w).filter(|&&(start, _, _)| *at >= start) else {
            return;
        };
        *at -= start;
        fitting.borrow_mut()[w].ingest(&event);
    };
    let metrics = simulate(scenario, slas, Box::new(sink));
    let fits = calibrators
        .borrow()
        .iter()
        .map(|calibrator| {
            let now = calibrator.config().window.next_down();
            calibrator.try_fit(now).ok()
        })
        .collect();
    (metrics, fits)
}

/// Runs a full scenario: calibrate, simulate, fit each window, predict.
pub fn run_scenario(scenario: &Scenario, slas: &[f64]) -> ScenarioResult {
    let (metrics, fits) = fit_windows(scenario, slas);
    let windows = &metrics.config().windows;
    // Windows are independent (the fits and metrics are read-only), so they
    // fan out across threads; `par_map` merges positionally, keeping the
    // output bit-identical to a serial loop for any worker count.
    let out_windows = cos_par::par_map(cos_par::default_workers(), &fits, |w, fit| {
        let [full, odopr, nowta, residual] = ModelVariant::ALL_EXTENDED
            .map(|variant| fit.as_ref().and_then(|p| SystemModel::new(p, variant).ok()));
        let cells = slas
            .iter()
            .enumerate()
            .map(|(si, &sla)| {
                let predict =
                    |m: &Option<SystemModel>| m.as_ref().map(|m| m.fraction_meeting_sla(sla));
                Cell {
                    observed: metrics.observed_fraction(w, si),
                    full: predict(&full),
                    odopr: predict(&odopr),
                    nowta: predict(&nowta),
                    residual: predict(&residual),
                }
            })
            .collect();
        WindowResult {
            rate: windows[w].2,
            cells,
        }
    });
    ScenarioResult {
        name: scenario.name.to_string(),
        slas: slas.to_vec(),
        windows: out_windows,
    }
}
