//! `predict` — run the analytic model from a JSON description of a cluster,
//! the way an operator (not a Rust programmer) would consume it.
//!
//! Usage:
//!   cargo run --release -p cos-bench --bin predict -- --config cluster.json
//!   cargo run --release -p cos-bench --bin predict -- --example-config
//!
//! The config mirrors the model's §IV inputs: per-device online metrics and
//! benchmarked Gamma disk laws. `--example-config` prints a ready-to-edit
//! template.

use cos_bench::config_file::{example_config, ModelConfigFile};
use cos_bench::pretty::to_string_pretty;
use cos_model::ModelVariant;
use cos_stats::TextTable;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--example-config") {
        println!("{}", to_string_pretty(&example_config().to_json()));
        return;
    }
    let Some(path) = args
        .iter()
        .position(|a| a == "--config")
        .and_then(|i| args.get(i + 1))
    else {
        eprintln!("usage: predict --config <cluster.json> | predict --example-config");
        std::process::exit(2);
    };
    let raw = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let config: ModelConfigFile = match ModelConfigFile::from_json_str(&raw) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("invalid config: {e}");
            std::process::exit(1);
        }
    };
    let params = match config.to_params() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("invalid model parameters: {e}");
            std::process::exit(1);
        }
    };

    println!("# cosmodel prediction for {path}");
    let mut t = TextTable::new(vec![
        "model", "SLA", "P(meet)", "mean_ms", "p95_ms", "p99_ms",
    ]);
    for variant in ModelVariant::ALL_EXTENDED {
        match cos_model::SystemModel::new(&params, variant) {
            Ok(m) => {
                for &sla in &config.slas {
                    let p95 = m
                        .latency_percentile(0.95)
                        .map(|x| format!("{:.1}", 1000.0 * x))
                        .unwrap_or_else(|| "-".into());
                    let p99 = m
                        .latency_percentile(0.99)
                        .map(|x| format!("{:.1}", 1000.0 * x))
                        .unwrap_or_else(|| "-".into());
                    t.push_row(vec![
                        variant.to_string(),
                        format!("{:.0}ms", 1000.0 * sla),
                        format!("{:.4}", m.fraction_meeting_sla(sla)),
                        format!("{:.2}", 1000.0 * m.mean_response()),
                        p95,
                        p99,
                    ]);
                }
            }
            Err(e) => {
                t.push_row(vec![
                    variant.to_string(),
                    "-".into(),
                    format!("{e}"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    println!("{}", t.render());
}
