//! Fig. 6 — prediction results for scenario S1 (single process per storage
//! device), SLAs 10/50/100 ms, arrival-rate sweep 10→350 req/s.
//!
//! Usage: `cargo run --release -p cos-bench --bin fig6 [-- --scale X | --quick] [--json PATH]`
//!
//! `--scale 1` is paper-faithful (hours of simulated time); the default
//! compresses time 60× which preserves the rate ladder and steady-state
//! windows while keeping the run to a couple of minutes.

use cos_bench::report::{maybe_dump_json, parse_scale, print_figure_series, print_reductions};
use cos_bench::{run_scenario, Scenario};

fn main() {
    let scale = parse_scale(60.0);
    eprintln!("# fig6: scenario S1, time scale {scale}x");
    let scenario = if scale == 1.0 {
        Scenario::s1()
    } else {
        Scenario::s1().quick(scale)
    };
    let slas = [0.010, 0.050, 0.100];
    let result = run_scenario(&scenario, &slas);
    for i in 0..slas.len() {
        print_figure_series(&result, i);
    }
    print_reductions(&result);
    maybe_dump_json(&result);
}
