//! Ablation A1 (§III-C / §V-C) — the waiting-time-for-accept approximation.
//!
//! Compares, across backend loads, the paper's approximation
//! (`W_a = W_be`), the paper's exact per-lifetime integral, the
//! length-biased equilibrium form, and the WTA actually measured in the
//! simulator's connection pools. Shows the overestimation growing with
//! load, as §V-B observes.
//!
//! Usage: `cargo run --release -p cos-bench --bin ablation_wta`

use cos_bench::calibrate;
use cos_model::wta::{
    equilibrium_wta_mean, exact_wta_ccdf, exact_wta_mean, paper_wta_ccdf, paper_wta_mean,
};
use cos_model::{BackendModel, DeviceParams, ModelError, ModelVariant};
use cos_numeric::InversionConfig;
use cos_stats::TextTable;
use cos_storesim::{ClusterConfig, MetricsConfig};
use cos_workload::TraceEvent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn device(calib: &cos_serve::CalibrationBase, rate: f64) -> DeviceParams {
    DeviceParams {
        arrival_rate: rate,
        data_read_rate: rate * 1.05,
        miss_index: 0.35,
        miss_meta: 0.30,
        miss_data: 0.55,
        index_disk: calib.index_law.clone(),
        meta_disk: calib.meta_law.clone(),
        data_disk: calib.data_law.clone(),
        parse_be: calib.parse_be.clone(),
        processes: 1,
    }
}

/// Simulates a single device at `rate` req/s and returns the measured mean
/// WTA.
fn simulated_mean_wta(cluster: &ClusterConfig, rate: f64, duration: f64) -> f64 {
    let mut cfg = cluster.clone();
    cfg.devices = 1;
    cfg.frontend_processes = 1;
    let mut rng = SmallRng::seed_from_u64(1234);
    let mut t = 0.0;
    let mut trace = Vec::new();
    while t < duration {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        trace.push(TraceEvent {
            at: t,
            object: rng.gen_range(0..10_000),
            size: 20_000,
        });
    }
    let metrics = cos_storesim::run_simulation(
        cfg,
        MetricsConfig {
            slas: vec![],
            windows: vec![],
            collect_raw: false,
            op_sample_stride: 0,
        },
        trace,
    );
    metrics.devices[0].mean_wta().unwrap_or(0.0)
}

fn main() {
    let cluster = ClusterConfig::paper_s1();
    let calib = calibrate(&cluster, 20_000);
    let inv = InversionConfig::default();
    println!("## Ablation A1 — WTA approximation vs exact forms (single device, N_be = 1)");
    let mut t = TextTable::new(vec![
        "rate",
        "utilization",
        "approx_mean_ms",
        "exact_mean_ms",
        "equilibrium_mean_ms",
        "simulated_mean_ms",
        "P(Wa>10ms)_approx",
        "P(Wa>10ms)_exact",
    ]);
    for rate in [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 65.0] {
        let sim = simulated_mean_wta(&cluster, rate, 400.0);
        let (utilization, model) =
            match BackendModel::new(&device(&calib, rate), ModelVariant::Full) {
                Ok(be) => (
                    be.utilization(),
                    Some([
                        format!("{:.3}", 1000.0 * paper_wta_mean(&be)),
                        format!("{:.3}", 1000.0 * exact_wta_mean(&be)),
                        format!("{:.3}", 1000.0 * equilibrium_wta_mean(&be)),
                        format!("{:.4}", paper_wta_ccdf(&be, 0.010, &inv)),
                        format!("{:.4}", exact_wta_ccdf(&be, 0.010, &inv)),
                    ]),
                ),
                Err(
                    ModelError::UnstableBackend { utilization }
                    | ModelError::UnstableFrontend { utilization },
                ) => (utilization, None),
            };
        let [approx, exact, equilibrium, ccdf_approx, ccdf_exact] =
            model.unwrap_or_else(|| std::array::from_fn(|_| "-".into()));
        t.push_row(vec![
            format!("{rate:.0}"),
            format!("{utilization:.3}"),
            approx,
            exact,
            equilibrium,
            format!("{:.3}", 1000.0 * sim),
            ccdf_approx,
            ccdf_exact,
        ]);
    }
    println!("{}", t.render());
    println!(
        "note: the approximation's mean is 2x the per-lifetime exact mean; the gap \
         (overestimation) grows with load, matching the §V-B discussion."
    );
}
