//! Table II — mean prediction errors of our model vs the ODOPR and noWTA
//! baselines, per scenario and SLA (§V-C).
//!
//! Usage: `cargo run --release -p cos-bench --bin table2 [-- --scale X | --quick]`

use cos_bench::report::{parse_scale, print_reductions, print_table2};
use cos_bench::{run_scenario, Scenario};

fn main() {
    let scale = parse_scale(60.0);
    eprintln!("# table2: scenarios S1 + S16, time scale {scale}x");
    let slas = [0.010, 0.050, 0.100];
    let s1 = run_scenario(&Scenario::s1().quick(scale), &slas);
    let s16 = run_scenario(&Scenario::s16().quick(scale), &slas);
    println!("## Table II — mean prediction errors of different models");
    print_table2(&s1);
    print_table2(&s16);
    println!("## relative reductions (the paper's 36–73% / 9–61% claims)");
    print_reductions(&s1);
    print_reductions(&s16);
}
