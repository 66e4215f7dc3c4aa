//! serve_demo — soak test of the online SLA-prediction service.
//!
//! Runs the S1 simulator as a **live telemetry source**: every routed
//! request, data read, backend operation, and completion streams through
//! a telemetry sender into a spawned [`cos_serve::SlaService`], which
//! ingests it on the simulation's thread, calibrates itself on sliding
//! windows and answers SLA queries while the stepped rate sweep is still
//! running. At each measured-window boundary the demo
//! snapshots the service's online predictions; after the run it computes
//! the offline fig6-style predictions from the same simulation's window
//! counters and prints both against the observed attainment, plus the
//! inversion cache's hit-rate under a polling workload and a
//! what-if sweep.
//!
//! Usage: `cargo run --release -p cos-bench --bin serve_demo [-- --scale X]`
//! (default compresses the paper's schedule 120×, ~1 minute).

use std::sync::Arc;

use cos_bench::report::parse_scale;
use cos_bench::scenario::{calibrate, estimate_miss_ratios, Scenario};
use cos_model::{DeviceParams, FrontendParams, ModelVariant, SystemModel, SystemParams};
use cos_serve::{CalibrationBase, CalibratorConfig, Query, ServeConfig, SlaService};
use cos_simkit::RngStreams;
use cos_storesim::{MetricsConfig, SimTelemetry, Simulation};
use cos_workload::{Catalog, PhaseSchedule, TraceStream};

fn fmt(x: Option<f64>) -> String {
    x.map(|v| format!("{v:.3}"))
        .unwrap_or_else(|| "  -  ".into())
}

fn main() {
    let scale = parse_scale(120.0);
    eprintln!("# serve_demo: scenario S1 as live telemetry, time scale {scale}x");
    let scenario = if scale == 1.0 {
        Scenario::s1()
    } else {
        Scenario::s1().quick(scale)
    };
    let slas = vec![0.010, 0.050, 0.100];

    let schedule = PhaseSchedule::new(&scenario.phases);
    let windows = schedule.measured_windows();
    let window_len = windows
        .first()
        .map(|&(s, e, _)| e - s)
        .expect("nonempty schedule");

    // §IV-A calibration, shared by the online service and the offline
    // reference pipeline.
    let calibration = calibrate(&scenario.cluster, 20_000);
    let base = CalibrationBase {
        index_law: calibration.index_law.clone(),
        meta_law: calibration.meta_law.clone(),
        data_law: calibration.data_law.clone(),
        parse_be: calibration.parse_be.clone(),
        parse_fe: calibration.parse_fe.clone(),
        devices: scenario.cluster.devices,
        processes_per_device: scenario.cluster.processes_per_device,
        frontend_processes: scenario.cluster.frontend_processes,
    };
    let config = ServeConfig {
        slas: slas.clone(),
        variant: ModelVariant::Full,
        calibrator: CalibratorConfig {
            window: window_len * 0.8,
            buckets: 24,
            min_device_requests: 5,
            ..CalibratorConfig::default()
        },
        refit_interval: window_len * 0.25,
        ..ServeConfig::default()
    };
    let handle = Arc::new(SlaService::new(base, config).spawn());

    // Workload synthesis (same streams as the offline pipeline).
    let streams = RngStreams::new(scenario.cluster.seed ^ 0x5EED);
    let mut catalog_rng = streams.stream("catalog", 0);
    let catalog = Catalog::synthesize(&scenario.catalog, &mut catalog_rng);
    let trace = TraceStream::new(&catalog, &schedule, streams.stream("trace", 0));
    let metrics_config = MetricsConfig {
        slas: slas.clone(),
        windows: windows.clone(),
        collect_raw: false,
        op_sample_stride: 37,
    };

    // The telemetry sink: stream every record to the service; at each
    // measured-window boundary, force a re-fit and snapshot the online
    // predictions for that window's rate step.
    let sender = handle.telemetry_sender();
    let boundary_handle = handle.clone();
    let boundary_windows = windows.clone();
    let boundary_slas = slas.clone();
    let mut online: Vec<Vec<Option<f64>>> = Vec::new();
    let online_rows = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink_rows = online_rows.clone();
    let mut next_window = 0usize;
    let sink = move |event: SimTelemetry| {
        let at = event.at();
        sender.send(event.into());
        while next_window < boundary_windows.len() && at >= boundary_windows[next_window].1 {
            let _ = boundary_handle.refit_now();
            let row: Vec<Option<f64>> = boundary_slas
                .iter()
                .map(|&sla| {
                    boundary_handle
                        .attainment(&Query::new().sla(sla))
                        .ok()
                        .map(|p| p.value)
                })
                .collect();
            sink_rows.lock().expect("rows lock").push(row);
            next_window += 1;
        }
    };

    eprintln!("# streaming {} measured windows ...", windows.len());
    let metrics = Simulation::new(scenario.cluster.clone(), metrics_config)
        .with_telemetry(Box::new(sink))
        .run(trace);
    online.extend(online_rows.lock().expect("rows lock").iter().cloned());
    // Windows whose boundary never arrived (tail truncation): no snapshot.
    while online.len() < windows.len() {
        online.push(vec![None; slas.len()]);
    }

    // Offline fig6-style reference predictions from the same run's window
    // counters.
    let devices = scenario.cluster.devices;
    let mut offline: Vec<Vec<Option<f64>>> = Vec::new();
    for (w, &(start, end, rate)) in windows.iter().enumerate() {
        let duration = end - start;
        let mut device_params = Vec::new();
        for dev in 0..devices {
            let r = metrics.window_device_requests(w, dev) as f64 / duration;
            if r <= 0.0 {
                continue;
            }
            let misses = estimate_miss_ratios(&metrics, dev);
            device_params.push(DeviceParams {
                arrival_rate: r,
                data_read_rate: (metrics.window_device_data_ops(w, dev) as f64 / duration).max(r),
                miss_index: misses[0],
                miss_meta: misses[1],
                miss_data: misses[2],
                index_disk: calibration.index_law.clone(),
                meta_disk: calibration.meta_law.clone(),
                data_disk: calibration.data_law.clone(),
                parse_be: calibration.parse_be.clone(),
                processes: scenario.cluster.processes_per_device,
            });
        }
        let row = if device_params.is_empty() {
            vec![None; slas.len()]
        } else {
            let params = SystemParams {
                frontend: FrontendParams {
                    arrival_rate: rate
                        .max(device_params.iter().map(|d| d.arrival_rate).sum::<f64>()),
                    processes: scenario.cluster.frontend_processes,
                    parse_fe: calibration.parse_fe.clone(),
                },
                devices: device_params,
            };
            match SystemModel::new(&params, ModelVariant::Full) {
                Ok(m) => slas
                    .iter()
                    .map(|&s| Some(m.fraction_meeting_sla(s)))
                    .collect(),
                Err(_) => vec![None; slas.len()],
            }
        };
        offline.push(row);
    }

    // Report: per window per SLA, observed vs online vs offline.
    println!("rate_req_s sla_ms observed online offline");
    let mut mae_online = Vec::new();
    let mut mae_offline = Vec::new();
    let mut gap_online_offline = Vec::new();
    for (w, &(_, _, rate)) in windows.iter().enumerate() {
        for (si, &sla) in slas.iter().enumerate() {
            let obs = metrics.observed_fraction(w, si);
            let onl = online[w][si];
            let ofl = offline[w][si];
            println!(
                "{rate:>9.1} {:>6.0} {:>8} {:>6} {:>7}",
                sla * 1000.0,
                fmt(obs),
                fmt(onl),
                fmt(ofl)
            );
            if let (Some(o), Some(p)) = (obs, onl) {
                mae_online.push((o - p).abs());
            }
            if let (Some(o), Some(p)) = (obs, ofl) {
                mae_offline.push((o - p).abs());
            }
            if let (Some(a), Some(b)) = (onl, ofl) {
                gap_online_offline.push((a - b).abs());
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "# MAE online  vs observed: {:.4} ({} cells)",
        mean(&mae_online),
        mae_online.len()
    );
    println!(
        "# MAE offline vs observed: {:.4} ({} cells)",
        mean(&mae_offline),
        mae_offline.len()
    );
    println!(
        "# mean |online - offline|: {:.4}",
        mean(&gap_online_offline)
    );

    // Memoization under a polling dashboard: repeat the same question mix.
    let _ = handle.refit_now();
    let status_before = handle.status().expect("service alive");
    for _ in 0..25 {
        for &sla in &slas {
            let _ = handle.attainment(&Query::new().sla(sla));
        }
        let _ = handle.latency_percentile(&Query::new().p(0.95));
    }
    let status = handle.status().expect("service alive");
    let hits = status.engine.cache.hits - status_before.engine.cache.hits;
    let total = hits + (status.engine.cache.misses - status_before.engine.cache.misses);
    println!(
        "# inversion cache: {hits}/{total} hits ({:.1}%) over the polling phase",
        100.0 * hits as f64 / total as f64
    );

    // What-if sweep + overload headroom on the final epoch.
    let sweep_rates: Vec<f64> = (1..=7).map(|i| i as f64 * 50.0).collect();
    if let Ok(points) = handle.sweep(sweep_rates, vec![0.050]) {
        let knee = points
            .iter()
            .filter(|p| p.fractions.as_ref().is_some_and(|f| f[0] >= 0.90))
            .map(|p| p.rate)
            .fold(f64::NAN, f64::max);
        println!("# what-if sweep (50 ms SLA): stable ≥90% up to ~{knee:.0} req/s");
    }
    if let Ok(head) = handle.admissible_rate(&Query::new().sla(0.050).target(0.90).upper(2000.0)) {
        println!(
            "# overload headroom (90% under 50 ms): {:.1} req/s",
            head.value
        );
    }
    for d in &status.drift {
        println!(
            "# drift sla={:.0}ms observed={} predicted={} samples={} drifted={}",
            d.sla * 1000.0,
            fmt(d.observed),
            fmt(d.predicted),
            d.samples,
            d.drifted
        );
    }

    let handle = Arc::try_unwrap(handle).ok().expect("sole handle owner");
    let service = handle.shutdown().expect("clean shutdown");
    eprintln!(
        "# final event time {:.1}s, epochs ok, shutting down",
        service.event_time()
    );
}
