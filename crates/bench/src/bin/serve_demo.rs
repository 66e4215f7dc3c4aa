//! serve_demo — soak test of the online SLA-prediction service.
//!
//! Runs the S1 simulator as a **live telemetry source**: every routed
//! request, data read, backend operation, and completion streams through
//! the handle of a spawned [`cos_serve::SlaService`], which ingests it on
//! the simulation's thread, calibrates itself on sliding
//! windows and answers SLA queries while the stepped rate sweep is still
//! running. At each measured-window boundary the demo
//! snapshots the service's online predictions; after the run it prints
//! them against the observed attainment, plus the inversion cache's
//! hit-rate under a polling workload and a what-if sweep.
//!
//! Usage: `cargo run --release -p cos-bench --bin serve_demo [-- --scale X]`
//! (default compresses the paper's schedule 120×, ~1 minute).

use std::sync::Arc;

use cos_bench::report::parse_scale;
use cos_bench::scenario::{calibrate, simulate, Scenario};
use cos_model::ModelVariant;
use cos_serve::{CalibratorConfig, Query, ServeConfig, SlaService};
use cos_storesim::SimTelemetry;
use cos_workload::PhaseSchedule;

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

    let windows = PhaseSchedule::new(&scenario.phases).measured_windows();
    let window_len = windows
        .first()
        .map(|&(s, e, _)| e - s)
        .expect("nonempty schedule");

    // §IV-A calibration.
    let base = calibrate(&scenario.cluster, 20_000);
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
    let reader = handle.reader();

    // The telemetry sink: stream every record to the service; at each
    // measured-window boundary, force a re-fit and snapshot the online
    // predictions for that window's rate step.
    let boundary_handle = handle.clone();
    let boundary_reader = reader.clone();
    let boundary_windows = windows.clone();
    let boundary_slas = slas.clone();
    let mut online: Vec<Vec<Option<f64>>> = Vec::new();
    let online_rows = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink_rows = online_rows.clone();
    let mut next_window = 0usize;
    let sink = move |event: SimTelemetry| {
        let at = event.at();
        let _ = boundary_handle.ingest(event.into());
        while next_window < boundary_windows.len() && at >= boundary_windows[next_window].1 {
            let _ = boundary_handle.refit_now();
            let row: Vec<Option<f64>> = boundary_slas
                .iter()
                .map(|&sla| {
                    boundary_reader
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
    let metrics = simulate(&scenario, &slas, Box::new(sink));
    online.extend(online_rows.lock().expect("rows lock").iter().cloned());
    // Windows whose boundary never arrived (tail truncation): no snapshot.
    while online.len() < windows.len() {
        online.push(vec![None; slas.len()]);
    }

    // Report: per window per SLA, observed vs online.
    println!("rate_req_s sla_ms observed online");
    let mut mae_online = Vec::new();
    for (w, &(_, _, rate)) in windows.iter().enumerate() {
        for (si, &sla) in slas.iter().enumerate() {
            let obs = metrics.observed_fraction(w, si);
            let onl = online[w][si];
            println!(
                "{rate:>9.1} {:>6.0} {:>8} {:>6}",
                sla * 1000.0,
                fmt(obs),
                fmt(onl)
            );
            if let (Some(o), Some(p)) = (obs, onl) {
                mae_online.push((o - p).abs());
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "# MAE online  vs observed: {:.4} ({} cells)",
        mean(&mae_online),
        mae_online.len()
    );

    // Memoization under a polling dashboard: repeat the same question mix.
    let _ = handle.refit_now();
    let status_before = reader.status().expect("service alive");
    for _ in 0..25 {
        for &sla in &slas {
            let _ = reader.attainment(&Query::new().sla(sla));
        }
        let _ = reader.latency_percentile(&Query::new().p(0.95));
    }
    let status = reader.status().expect("service alive");
    let hits = status.engine.cache.hits - status_before.engine.cache.hits;
    let total = hits + (status.engine.cache.misses - status_before.engine.cache.misses);
    println!(
        "# inversion cache: {hits}/{total} hits ({:.1}%) over the polling phase",
        100.0 * hits as f64 / total as f64
    );

    // What-if sweep + overload headroom on the final epoch.
    let sweep_rates: Vec<f64> = (1..=7).map(|i| i as f64 * 50.0).collect();
    if let Ok(points) = reader.sweep(&sweep_rates, &[0.050]) {
        let knee = points
            .iter()
            .filter(|p| p.fractions.as_ref().is_some_and(|f| f[0] >= 0.90))
            .map(|p| p.rate)
            .fold(f64::NAN, f64::max);
        println!("# what-if sweep (50 ms SLA): stable ≥90% up to ~{knee:.0} req/s");
    }
    if let Ok(head) = reader.admissible_rate(&Query::new().sla(0.050).target(0.90).upper(2000.0)) {
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
