//! Model-vs-testbed validation in miniature (§V-B): replay a synthetic
//! Wikipedia-like trace against the simulated cluster, measure the observed
//! percentile of requests meeting the SLA at several arrival rates, and
//! compare against the model's predictions.
//!
//! This is the same pipeline as the `fig6` experiment binary, compressed to
//! a handful of rates so it finishes in seconds.
//!
//! Run with: `cargo run --release --example validate_against_simulator`

use cosmodel::model::ModelVariant;

fn main() {
    // A compressed S1 scenario: same rate ladder semantics, 600x shorter.
    let scenario = cos_bench_shim::scenario();
    let slas = [0.050];
    println!("running calibrate -> simulate -> predict (S1, SLA 50 ms)...\n");
    let result = cos_bench_shim::run(&scenario, &slas);
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "rate", "observed", "our model", "error"
    );
    for w in &result.windows {
        let c = &w.cells[0];
        if let (Some(o), Some(p)) = (c.observed, c.prediction(ModelVariant::Full)) {
            println!("{:>8.0} {o:>12.4} {p:>12.4} {:>+12.4}", w.rate, p - o);
        }
    }
}

/// The experiment harness lives in the `cos-bench` crate; a thin shim keeps
/// this example self-contained in what it demonstrates.
mod cos_bench_shim {
    pub use cos_bench::{run_scenario, Scenario, ScenarioResult};

    pub fn scenario() -> Scenario {
        Scenario::s1().quick(600.0)
    }

    pub fn run(scenario: &Scenario, slas: &[f64]) -> ScenarioResult {
        run_scenario(scenario, slas)
    }
}
