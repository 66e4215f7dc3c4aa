//! End-to-end calibration (§IV): the benchmarking rigs must recover the
//! ground-truth device properties well enough that a model built purely from
//! calibrated parameters matches one built from ground truth.

use cos_bench::{fit_windows, Scenario};
use cosmodel::distr::{fit_best, Family};
use cosmodel::model::{
    decompose_disk_service, fit_disk_law, miss_ratio_by_threshold, LATENCY_THRESHOLD,
};
use cosmodel::storesim::{
    benchmark_disk, benchmark_parse, CacheConfig, ClusterConfig, DiskOpKind, MetricsConfig,
};

/// The configured Bernoulli miss ratios of a cluster config.
fn configured_misses(cfg: &ClusterConfig) -> [f64; 3] {
    match cfg.cache {
        CacheConfig::Bernoulli {
            index_miss,
            meta_miss,
            data_miss,
        } => [index_miss, meta_miss, data_miss],
        _ => panic!("expected a Bernoulli cache"),
    }
}
use cosmodel::workload::TraceEvent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn disk_benchmark_plus_fit_recovers_ground_truth_laws() {
    let cfg = ClusterConfig::paper_s1();
    let bench = benchmark_disk(&cfg, 30_000);
    for (sample, truth) in [
        (&bench.index, &cfg.disk.index),
        (&bench.meta, &cfg.disk.meta),
        (&bench.data, &cfg.disk.data),
    ] {
        let fitted = fit_disk_law(sample);
        assert_eq!(fitted.family, Family::Gamma, "Fig. 5: Gamma must win");
        let truth_mean = cosmodel::distr::Distribution::mean(&**truth);
        assert!(
            (fitted.law.mean() - truth_mean).abs() / truth_mean < 0.03,
            "fitted mean {} vs truth {truth_mean}",
            fitted.law.mean()
        );
        // Second moments agree too (the model needs E[B²] for P–K means).
        let truth_m2 = cosmodel::distr::Distribution::second_moment(&**truth);
        assert!(
            (fitted.law.second_moment() - truth_m2).abs() / truth_m2 < 0.08,
            "fitted m2 {} vs truth {truth_m2}",
            fitted.law.second_moment()
        );
    }
}

#[test]
fn fig5_percentile_curves_are_close() {
    // The visual content of Fig. 5: fitted Gamma percentiles track recorded
    // percentiles across the whole distribution.
    let cfg = ClusterConfig::paper_s1();
    let bench = benchmark_disk(&cfg, 30_000);
    for sample in [&bench.index, &bench.meta, &bench.data] {
        let report = fit_best(sample);
        let best = report.best().fitted;
        for p in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let recorded = sample.quantile(p);
            // Invert the fitted CDF by bisection.
            let mut lo = 0.0;
            let mut hi = sample.max() * 2.0;
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                if best.cdf(mid) < p {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let fitted = 0.5 * (lo + hi);
            assert!(
                (fitted - recorded).abs() / recorded < 0.08,
                "p={p}: fitted {fitted} vs recorded {recorded}"
            );
        }
    }
}

#[test]
fn parse_benchmark_recovers_parse_laws() {
    let cfg = ClusterConfig::paper_s1();
    let parse = benchmark_parse(&cfg, 300);
    assert!((parse.parse_be_estimate - 0.0005).abs() < 2e-5);
    // Dfp − Dbp = parse_fe + accept cost.
    assert!((parse.parse_fe_estimate - (0.0003 + cfg.accept_cost)).abs() < 2e-5);
}

#[test]
fn threshold_miss_ratio_estimation_under_live_traffic() {
    // Run live traffic with known Bernoulli miss ratios; the 0.015 ms
    // threshold estimator applied to sampled operation latencies must
    // recover them.
    let cfg = ClusterConfig::paper_s1();
    let rate = 100.0;
    let mut rng = SmallRng::seed_from_u64(5);
    let mut t = 0.0;
    let mut trace = Vec::new();
    while t < 200.0 {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        trace.push(TraceEvent {
            at: t,
            object: rng.gen_range(0..10_000),
            size: 20_000,
        });
    }
    let metrics = cosmodel::storesim::run_simulation(
        cfg,
        MetricsConfig {
            slas: vec![],
            windows: vec![],
            collect_raw: false,
            op_sample_stride: 1,
        },
        trace,
    );
    let mut per_kind: [Vec<f64>; 3] = Default::default();
    for s in metrics.op_samples() {
        let idx = match s.kind {
            DiskOpKind::Index => 0,
            DiskOpKind::Meta => 1,
            DiskOpKind::Data => 2,
        };
        per_kind[idx].push(s.latency);
    }
    let configured = configured_misses(&ClusterConfig::paper_s1());
    for (lats, want) in per_kind.iter().zip(configured) {
        let got = miss_ratio_by_threshold(lats, LATENCY_THRESHOLD);
        assert!(
            (got - want).abs() < 0.02,
            "estimated {got}, configured {want}"
        );
    }
}

#[test]
fn service_decomposition_recovers_per_kind_means() {
    // Feed the decomposition the aggregate "Linux" number from a live run
    // plus benchmark proportions; per-kind means must come back.
    let cfg = ClusterConfig::paper_s1();
    let rate = 80.0;
    let mut rng = SmallRng::seed_from_u64(9);
    let mut t = 0.0;
    let mut trace = Vec::new();
    while t < 300.0 {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        trace.push(TraceEvent {
            at: t,
            object: rng.gen_range(0..10_000),
            size: 20_000,
        });
    }
    let metrics = cosmodel::storesim::run_simulation(
        cfg.clone(),
        MetricsConfig {
            slas: vec![],
            windows: vec![],
            collect_raw: false,
            op_sample_stride: 0,
        },
        trace,
    );
    let mut service_sum = 0.0;
    let mut ops = 0;
    let mut kind_sums = [0.0; 3];
    let mut kind_ops = [0u64; 3];
    for d in &metrics.devices {
        service_sum += d.disk_service_sum.iter().sum::<f64>();
        ops += d.disk_ops;
        for i in 0..3 {
            kind_sums[i] += d.disk_service_sum[i];
            kind_ops[i] += d.disk_kind_ops[i];
        }
    }
    let b_overall = service_sum / ops as f64;
    let bench = benchmark_disk(&cfg, 20_000);
    let proportions = [bench.index.mean(), bench.meta.mean(), bench.data.mean()];
    let requests: u64 = metrics.devices.iter().map(|d| d.requests).sum();
    let data_ops: u64 = metrics.devices.iter().map(|d| d.data_ops).sum();
    let decomposed = decompose_disk_service(
        b_overall,
        proportions,
        configured_misses(&cfg),
        requests as f64,
        data_ops as f64,
    );
    for i in 0..3 {
        let true_mean = kind_sums[i] / kind_ops[i] as f64;
        assert!(
            (decomposed[i] - true_mean).abs() / true_mean < 0.05,
            "kind {i}: decomposed {} vs true {true_mean}",
            decomposed[i]
        );
    }
}

/// The experiments fit each measured window with the served calibrator
/// (`fit_windows`: the window as its one bucket). On every window of a
/// compressed S1 run the fitted devices are exactly those the simulator
/// routed an in-window request to, and their arrival and data-read rates
/// are its window counters over the window length (a request reads at
/// least one chunk).
#[test]
fn scenario_window_fits_read_the_simulators_window_counters() {
    let scenario = Scenario::s1().quick(1200.0);
    let (metrics, fits) = fit_windows(&scenario, &[0.05]);
    let windows = &metrics.config().windows;
    assert_eq!(fits.len(), windows.len());
    let close = |fitted: f64, counted: f64| (fitted - counted).abs() <= 1e-12 * counted;
    let mut fitted_devices = 0;
    for (w, (&(start, end, _), fit)) in windows.iter().zip(&fits).enumerate() {
        let span = end - start;
        let counted: Vec<(usize, f64, f64)> = (0..scenario.cluster.devices)
            .filter_map(|d| {
                let requests = metrics.window_device_requests(w, d);
                let reads = metrics.window_device_data_ops(w, d).max(requests);
                (requests > 0).then(|| (d, requests as f64 / span, reads as f64 / span))
            })
            .collect();
        let fitted = fit.as_ref().map_or(&[][..], |params| &params.devices[..]);
        assert_eq!(
            fitted.len(),
            counted.len(),
            "window {w}: fitted device count"
        );
        for (device, &(d, r, r_data)) in fitted.iter().zip(&counted) {
            assert!(
                close(device.arrival_rate, r),
                "window {w}, device {d}: arrival rate {} vs {r}",
                device.arrival_rate
            );
            assert!(
                close(device.data_read_rate, r_data),
                "window {w}, device {d}: data-read rate {} vs {r_data}",
                device.data_read_rate
            );
        }
        fitted_devices += fitted.len();
    }
    assert!(
        fitted_devices > windows.len(),
        "{fitted_devices} device fits"
    );
}
