//! Fig. 7 — prediction results for scenario S16 (16 processes per storage
//! device), SLAs 10/50/100 ms, arrival-rate sweep 10→600 req/s.
//!
//! Usage: `cargo run --release -p cos-bench --bin fig7 [-- --scale X | --quick] [--json PATH]`

use cos_bench::report::{maybe_dump_json, parse_scale, print_figure_series, print_reductions};
use cos_bench::{run_scenario, Scenario};

fn main() {
    let scale = parse_scale(60.0);
    eprintln!("# fig7: scenario S16, time scale {scale}x");
    let scenario = if scale == 1.0 {
        Scenario::s16()
    } else {
        Scenario::s16().quick(scale)
    };
    let slas = [0.010, 0.050, 0.100];
    let result = run_scenario(&scenario, &slas);
    for i in 0..slas.len() {
        print_figure_series(&result, i);
    }
    print_reductions(&result);
    maybe_dump_json(&result);
}
