//! Shared output formatting for the figure/table binaries.

use crate::pretty::to_string_pretty;
use crate::scenario::ScenarioResult;
use crate::summary::{prediction_points, table1_row, table2_row};
use cos_model::ModelVariant;
use cos_stats::{pct, TextTable};

/// Prints a Fig. 6/7-style series for one SLA: rate, observed, the three
/// model predictions, and the full model's signed error.
pub fn print_figure_series(result: &ScenarioResult, sla_idx: usize) {
    let sla_ms = result.slas[sla_idx] * 1000.0;
    println!("### {} @ SLA {:.0} ms", result.name, sla_ms);
    let mut t = TextTable::new(vec![
        "rate",
        "observed",
        "our_model",
        "odopr",
        "nowta",
        "residual",
        "our_error",
    ]);
    for w in &result.windows {
        let c = &w.cells[sla_idx];
        let fmt = |v: Option<f64>| v.map(|x| format!("{x:.4}")).unwrap_or_else(|| "-".into());
        let err = match (c.observed, c.full) {
            (Some(o), Some(p)) => format!("{:+.4}", p - o),
            _ => "-".into(),
        };
        t.push_row(vec![
            format!("{:.0}", w.rate),
            fmt(c.observed),
            fmt(c.full),
            fmt(c.odopr),
            fmt(c.nowta),
            fmt(c.residual),
            err,
        ]);
    }
    println!("{}", t.render());
}

/// Prints the Table I rows for one scenario.
pub fn print_table1(result: &ScenarioResult) {
    let mut t = TextTable::new(vec!["Scenario", "SLA", "Best Case", "Worst Case", "Mean"]);
    for (i, &sla) in result.slas.iter().enumerate() {
        if let Some(s) = table1_row(result, i) {
            t.push_row(vec![
                result.name.clone(),
                format!("{:.0}ms", sla * 1000.0),
                pct(s.best),
                pct(s.worst),
                pct(s.mean),
            ]);
        }
    }
    println!("{}", t.render());
}

/// Prints the Table II rows for one scenario.
pub fn print_table2(result: &ScenarioResult) {
    let mut t = TextTable::new(vec![
        "Scenario",
        "SLA",
        "Our Model",
        "ODOPR Model",
        "noWTA Model",
    ]);
    for (i, &sla) in result.slas.iter().enumerate() {
        if let Some(row) = table2_row(result, i) {
            t.push_row(vec![
                result.name.clone(),
                format!("{:.0}ms", sla * 1000.0),
                pct(row[0]),
                pct(row[1]),
                pct(row[2]),
            ]);
        }
    }
    println!("{}", t.render());
}

/// Prints per-variant mean-error reductions, mirroring the paper's
/// "reduces the prediction errors by up to 73%" claims.
pub fn print_reductions(result: &ScenarioResult) {
    for (i, &sla) in result.slas.iter().enumerate() {
        let full = prediction_points(result, i, ModelVariant::Full);
        if full.is_empty() {
            continue;
        }
        let full_mean = cos_stats::ErrorSummary::from_points(&full).mean;
        for baseline in [ModelVariant::Odopr, ModelVariant::NoWta] {
            let pts = prediction_points(result, i, baseline);
            if pts.is_empty() {
                continue;
            }
            let base_mean = cos_stats::ErrorSummary::from_points(&pts).mean;
            let reduction = if base_mean > 0.0 {
                (base_mean - full_mean) / base_mean
            } else {
                0.0
            };
            println!(
                "{} @ {:.0}ms: vs {}: {} -> {} ({:+.0}% reduction)",
                result.name,
                sla * 1000.0,
                baseline,
                pct(base_mean),
                pct(full_mean),
                100.0 * reduction
            );
        }
    }
}

/// Parses `--scale X` and `--quick` command-line options: returns the time
/// compression factor (default `default_scale`; `--quick` forces 600×).
pub fn parse_scale(default_scale: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--quick") {
        return 600.0;
    }
    args.iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_scale)
}

/// Writes a JSON dump of the result next to the console output when
/// `--json PATH` is given.
pub fn maybe_dump_json(result: &ScenarioResult) {
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
    {
        let json = to_string_pretty(&result.to_json());
        std::fs::write(path, json).expect("writable json path");
        eprintln!("# wrote {path}");
    }
}
