//! End-to-end validation of the online prediction service: the simulator
//! streams live telemetry into `cos-serve`, whose sliding-window
//! calibration must land within a few points of both the observed SLA
//! attainment and the offline §IV-B pipeline fitted from the same run's
//! window counters.

use std::sync::mpsc::channel;

use cos_bench::scenario::{calibrate, estimate_miss_ratios};
use cosmodel::model::{DeviceParams, FrontendParams, ModelVariant, SystemModel, SystemParams};
use cosmodel::serve::{
    CalibrationBase, CalibratorConfig, DriftConfig, Query, ServeConfig, SlaService,
};
use cosmodel::storesim::{ClusterConfig, MetricsConfig, Simulation};
use cosmodel::workload::TraceEvent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn poisson_trace(rate: f64, duration: f64, chunk: u32, seed: u64) -> Vec<TraceEvent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    while t < duration {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        let size = if rng.gen::<f64>() < 0.10 {
            chunk + 1
        } else {
            chunk / 2
        };
        out.push(TraceEvent {
            at: t,
            object: rng.gen_range(0..100_000),
            size,
        });
    }
    out
}

#[test]
fn online_calibration_matches_offline_pipeline_and_observations() {
    let cluster = ClusterConfig::paper_s1();
    let rate = 60.0;
    let duration = 40.0;
    let slas = vec![0.010, 0.050, 0.100];

    let calibration = calibrate(&cluster, 20_000);
    let base = CalibrationBase {
        index_law: calibration.index_law.clone(),
        meta_law: calibration.meta_law.clone(),
        data_law: calibration.data_law.clone(),
        parse_be: calibration.parse_be.clone(),
        parse_fe: calibration.parse_fe.clone(),
        devices: cluster.devices,
        processes_per_device: cluster.processes_per_device,
        frontend_processes: cluster.frontend_processes,
    };
    let mut service = SlaService::new(
        base,
        ServeConfig {
            slas: slas.clone(),
            calibrator: CalibratorConfig {
                window: 20.0,
                buckets: 40,
                ..CalibratorConfig::default()
            },
            // The paper's own model error at the 10 ms SLA runs to several
            // points; drift should flag model-family breakdown, not normal
            // approximation error.
            drift: DriftConfig {
                tolerance: 0.10,
                ..DriftConfig::default()
            },
            refit_interval: 5.0,
            ..ServeConfig::default()
        },
    );

    // Stream the simulator's telemetry through the channel pipeline into
    // the service (bounded out-of-order arrival is part of the contract).
    let (tx, rx) = channel();
    let trace = poisson_trace(rate, duration, cluster.chunk_size, 0xC0FFEE);
    let windows = vec![(duration * 0.2, duration, rate)];
    let metrics = Simulation::new(
        cluster.clone(),
        MetricsConfig {
            slas: slas.clone(),
            windows: windows.clone(),
            collect_raw: false,
            op_sample_stride: 37,
        },
    )
    .with_telemetry(Box::new(tx))
    .run(trace);
    for ev in rx.iter() {
        service.ingest(ev.into());
    }
    assert!(service.refit_now(), "steady stream must fit");

    // Offline reference from the same run's window counters.
    let (start, end, _) = windows[0];
    let w_duration = end - start;
    let mut device_params = Vec::new();
    for dev in 0..cluster.devices {
        let r = metrics.window_device_requests(0, dev) as f64 / w_duration;
        assert!(r > 0.0, "device {dev} saw no traffic");
        let misses = estimate_miss_ratios(&metrics, dev);
        device_params.push(DeviceParams {
            arrival_rate: r,
            data_read_rate: (metrics.window_device_data_ops(0, dev) as f64 / w_duration).max(r),
            miss_index: misses[0],
            miss_meta: misses[1],
            miss_data: misses[2],
            index_disk: calibration.index_law.clone(),
            meta_disk: calibration.meta_law.clone(),
            data_disk: calibration.data_law.clone(),
            parse_be: calibration.parse_be.clone(),
            processes: cluster.processes_per_device,
        });
    }
    let offline_params = SystemParams {
        frontend: FrontendParams {
            arrival_rate: rate.max(device_params.iter().map(|d| d.arrival_rate).sum()),
            processes: cluster.frontend_processes,
            parse_fe: calibration.parse_fe.clone(),
        },
        devices: device_params,
    };
    let offline = SystemModel::new(&offline_params, ModelVariant::Full).unwrap();

    let status = service.status();
    assert!(status.epoch.is_some(), "service must have calibrated");
    assert!(
        !status.stale,
        "steady traffic must not leave the epoch stale"
    );

    let reader = service.reader();
    for (si, &sla) in slas.iter().enumerate() {
        let online = reader.attainment(&Query::new().sla(sla)).unwrap().value;
        let offline_p = offline.fraction_meeting_sla(sla);
        let observed = metrics.observed_fraction(0, si).unwrap();
        assert!(
            (online - offline_p).abs() < 0.08,
            "sla {sla}: online {online} vs offline {offline_p}"
        );
        assert!(
            (online - observed).abs() < 0.12,
            "sla {sla}: online {online} vs observed {observed}"
        );
    }

    // The drift monitor saw the same completions the metrics did: observed
    // attainment must agree.
    for (report, (si, _)) in status.drift.iter().zip(slas.iter().enumerate()) {
        let meter = metrics.observed_fraction(0, si).unwrap();
        let seen = report.observed.expect("completions recorded");
        // The drift window (30 s) and the metrics window (last 32 s) almost
        // coincide; allow a little slack for the differing edges.
        assert!(
            (seen - meter).abs() < 0.08,
            "sla {}: {seen} vs {meter}",
            report.sla
        );
        assert!(
            !report.drifted,
            "healthy run must not flag drift: {report:?}"
        );
    }

    // A polling dashboard re-asking the same questions is served from the
    // memo at > 80% hit rate.
    let cache_stats = || reader.status().unwrap().engine.cache;
    let before = cache_stats();
    for _ in 0..10 {
        for &sla in &slas {
            reader.attainment(&Query::new().sla(sla)).unwrap();
        }
        reader.latency_percentile(&Query::new().p(0.95)).unwrap();
    }
    let after = cache_stats();
    let hits = (after.hits - before.hits) as f64;
    let total = hits + (after.misses - before.misses) as f64;
    assert!(hits / total > 0.8, "hit rate {} below target", hits / total);

    // What-if sweep on the live epoch straddles the saturation knee.
    let points = reader
        .sweep(&[30.0, 60.0, 120.0, 100_000.0], &[0.050])
        .unwrap();
    assert_eq!(points.len(), 4);
    assert!(points[0].fractions.is_some(), "30 req/s must be stable");
    assert_eq!(
        points[3].fractions, None,
        "100k req/s must be reported unstable"
    );
}
