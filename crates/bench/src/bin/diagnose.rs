//! Diagnostic: decompose simulated vs modeled latency into components
//! (frontend sojourn, WTA, backend queue + service) at one operating point.
//!
//! Usage: `cargo run --release -p cos-bench --bin diagnose [-- --rate R]
//! [--accept-cost C]` (default 240 req/s and the S1 accept cost). Each
//! value must be a finite positive number; anything else exits 2 with a
//! message naming the flag. A value that cannot be computed at a sparse
//! rate (no completed request, no in-window request on any device) prints
//! as `-`.

use cos_bench::calibrate;
use cos_bench::report::parse_positive;
use cos_model::{DeviceParams, FrontendParams, ModelVariant, SystemModel, SystemParams};
use cos_storesim::{ClusterConfig, DiskOpKind, MetricsConfig};
use cos_workload::TraceEvent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `1000·x` to three decimals, or `-` when `x` cannot be computed.
fn ms(x: Option<f64>) -> String {
    x.map_or_else(|| "-".into(), |v| format!("{:.3}", 1000.0 * v))
}

fn main() {
    let rate = parse_positive("--rate").unwrap_or(240.0);
    let mut cfg = ClusterConfig::paper_s1();
    if let Some(ac) = parse_positive("--accept-cost") {
        cfg.accept_cost = ac;
    }
    let duration = 500.0;
    let mut rng = SmallRng::seed_from_u64(77);
    let mut t = 0.0;
    let mut trace = Vec::new();
    while t < duration {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        let size = if rng.gen::<f64>() < 0.10 {
            cfg.chunk_size + 1
        } else {
            cfg.chunk_size / 2
        };
        trace.push(TraceEvent {
            at: t,
            object: rng.gen_range(0..100_000),
            size,
        });
    }
    let metrics = cos_storesim::run_simulation(
        cfg.clone(),
        MetricsConfig {
            slas: vec![0.01, 0.05, 0.1],
            windows: vec![(duration * 0.2, duration, rate)],
            collect_raw: true,
            op_sample_stride: 0,
        },
        trace,
    );
    // The measured window `[0.2·duration, duration)`, which the
    // `P(<= …)` lines count too: the trace's last arrival lands past
    // `duration` and stays out of both.
    let window = duration * 0.2..duration;
    let raw: Vec<_> = metrics
        .raw()
        .iter()
        .filter(|r| window.contains(&r.arrival))
        .collect();
    let n = raw.len() as f64;
    let mean =
        |f: &dyn Fn(&&cos_storesim::CompletedRequest) -> f64| raw.iter().map(f).sum::<f64>() / n;
    // `[latency, wta, backend]`; none without a completed request.
    let sim = (!raw.is_empty()).then(|| {
        [
            mean(&|r| r.latency),
            mean(&|r| r.wta),
            mean(&|r| r.be_latency),
        ]
    });
    println!("SIMULATED @ rate {rate} (per-request means, ms):");
    println!("  total latency      {}", ms(sim.map(|[l, _, _]| l)));
    println!("  wta                {}", ms(sim.map(|[_, w, _]| w)));
    println!("  backend (queue+svc){}", ms(sim.map(|[_, _, b]| b)));
    println!(
        "  frontend share     {}",
        ms(sim.map(|[l, w, b]| l - w - b))
    );
    for (i, sla) in [0.01, 0.05, 0.1].iter().enumerate() {
        println!(
            "  P(<= {:>3.0}ms)       {}",
            sla * 1000.0,
            metrics
                .observed_fraction(0, i)
                .map_or_else(|| "-".into(), |p| format!("{p:.4}"))
        );
    }

    // Model with measured parameters, by the calibrator's rules: a device
    // with no in-window request stays out, and a kind with no operations
    // has miss ratio 0.
    let calib = calibrate(&cfg, 20_000);
    let span = duration * 0.8;
    let devices: Vec<DeviceParams> = (0..cfg.devices)
        .filter(|&d| metrics.window_device_requests(0, d) > 0)
        .map(|d| {
            let r = metrics.window_device_requests(0, d) as f64 / span;
            let rd = metrics.window_device_data_ops(0, d) as f64 / span;
            let c = &metrics.devices[d];
            DeviceParams {
                arrival_rate: r,
                data_read_rate: rd.max(r),
                miss_index: c.miss_ratio(DiskOpKind::Index).unwrap_or(0.0),
                miss_meta: c.miss_ratio(DiskOpKind::Meta).unwrap_or(0.0),
                miss_data: c.miss_ratio(DiskOpKind::Data).unwrap_or(0.0),
                index_disk: calib.index_law.clone(),
                meta_disk: calib.meta_law.clone(),
                data_disk: calib.data_law.clone(),
                parse_be: calib.parse_be.clone(),
                processes: cfg.processes_per_device,
            }
        })
        .collect();
    if devices.is_empty() {
        println!("\nMODEL: - (no device served an in-window request)");
        return;
    }
    let params = SystemParams {
        frontend: FrontendParams {
            arrival_rate: rate,
            processes: cfg.frontend_processes,
            parse_fe: calib.parse_fe.clone(),
        },
        devices,
    };
    for variant in ModelVariant::ALL {
        match SystemModel::new(&params, variant) {
            Ok(m) => {
                let d = &m.devices()[0];
                println!("\nMODEL [{variant}]:");
                println!(
                    "  frontend sojourn   {:.3}",
                    1000.0 * m.frontend().mean_sojourn()
                );
                println!(
                    "  wta (= W_be)       {:.3}",
                    1000.0 * d.backend().mean_waiting()
                );
                println!(
                    "  backend sojourn    {:.3}  (util {:.3})",
                    1000.0 * d.backend().mean_sojourn(),
                    d.backend().utilization()
                );
                println!("  total mean         {:.3}", 1000.0 * m.mean_response());
                for sla in [0.01, 0.05, 0.1] {
                    println!(
                        "  P(<= {:>3.0}ms)       {:.4}",
                        sla * 1000.0,
                        m.fraction_meeting_sla(sla)
                    );
                }
            }
            Err(e) => println!("\nMODEL [{variant}]: {e}"),
        }
    }
}
