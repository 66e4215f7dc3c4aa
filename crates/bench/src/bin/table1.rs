//! Table I — summary of prediction errors (best/worst/mean absolute) of the
//! full model, per scenario and SLA, plus the pooled average (the paper's
//! "4.44% on average").
//!
//! Usage: `cargo run --release -p cos-bench --bin table1 [-- --scale X | --quick]`

use cos_bench::report::{parse_scale, print_table1};
use cos_bench::{overall_mean_error, run_scenario, Scenario};
use cos_stats::pct;

fn main() {
    let scale = parse_scale(60.0);
    eprintln!("# table1: scenarios S1 + S16, time scale {scale}x");
    let slas = [0.010, 0.050, 0.100];
    let s1 = run_scenario(&Scenario::s1().quick(scale), &slas);
    let s16 = run_scenario(&Scenario::s16().quick(scale), &slas);
    println!("## Table I — prediction errors of our model");
    print_table1(&s1);
    print_table1(&s16);
    if let Some(mean) = overall_mean_error(&[&s1, &s16]) {
        println!("overall mean prediction error: {}", pct(mean));
    }
}
