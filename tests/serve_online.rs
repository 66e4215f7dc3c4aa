//! End-to-end validation of the online prediction service: the simulator
//! streams live telemetry into `cos-serve`, whose sliding-window
//! calibration must land within a few points of the observed SLA
//! attainment.

use std::sync::mpsc::channel;

use cos_bench::scenario::calibrate;
use cosmodel::serve::{CalibratorConfig, DriftConfig, Query, ServeConfig, SlaService};
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
fn online_calibration_matches_observations() {
    let cluster = ClusterConfig::paper_s1();
    let rate = 60.0;
    let duration = 40.0;
    let slas = vec![0.010, 0.050, 0.100];

    let base = calibrate(&cluster, 20_000);
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
    let metrics = Simulation::new(
        cluster.clone(),
        MetricsConfig {
            slas: slas.clone(),
            windows: vec![(duration * 0.2, duration, rate)],
            ..MetricsConfig::default()
        },
    )
    .with_telemetry(Box::new(tx))
    .run(trace);
    for ev in rx.iter() {
        service.ingest(ev.into());
    }
    assert!(service.refit_now(), "steady stream must fit");

    let status = service.status();
    assert!(status.epoch.is_some(), "service must have calibrated");
    assert!(
        !status.stale,
        "steady traffic must not leave the epoch stale"
    );

    let reader = service.reader();
    for (si, &sla) in slas.iter().enumerate() {
        let online = reader.attainment(&Query::new().sla(sla)).unwrap().value;
        let observed = metrics.observed_fraction(0, si).unwrap();
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
