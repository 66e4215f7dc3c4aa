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

/// Reads the process's `--scale X` and `--quick` options: returns the time
/// compression factor (default `default_scale`; `--quick` forces 600×).
/// A `--scale` without a finite positive value is refused: its message goes
/// to stderr and the process exits with status 2.
pub fn parse_scale(default_scale: f64) -> f64 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    scale_from_args(&args, default_scale).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2)
    })
}

/// The rule behind [`parse_scale`], over the arguments after the program
/// name. `--scale` must be followed by a finite positive number; a missing
/// or unparsable value, zero, a negative or a non-finite value is refused
/// with a message naming the flag and the value, even beside `--quick`.
fn scale_from_args(args: &[String], default_scale: f64) -> Result<f64, String> {
    let scale = match args.iter().position(|a| a == "--scale") {
        None => default_scale,
        Some(i) => {
            let value = args
                .get(i + 1)
                .ok_or("--scale needs a value (a finite positive number)")?;
            match value.parse::<f64>() {
                Ok(x) if x.is_finite() && x > 0.0 => x,
                _ => return Err(format!("--scale {value:?}: not a finite positive number")),
            }
        }
    };
    Ok(if args.iter().any(|a| a == "--quick") {
        600.0
    } else {
        scale
    })
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

#[cfg(test)]
mod tests {
    use super::scale_from_args;

    fn scale(args: &[&str]) -> Result<f64, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        scale_from_args(&args, 60.0)
    }

    #[test]
    fn a_valid_scale_or_none_is_read() {
        assert_eq!(scale(&[]), Ok(60.0));
        assert_eq!(scale(&["--scale", "240"]), Ok(240.0));
        assert_eq!(scale(&["--json", "out.json", "--scale", "0.5"]), Ok(0.5));
        assert_eq!(scale(&["--quick"]), Ok(600.0));
        assert_eq!(scale(&["--scale", "30", "--quick"]), Ok(600.0));
    }

    #[test]
    fn a_bad_scale_is_refused_with_the_flag_and_its_value() {
        for bad in ["abc", "0", "-5", "-0", "inf", "NaN", "", "--quick"] {
            let err = scale(&["--scale", bad]).unwrap_err();
            assert!(
                err.contains("--scale") && err.contains(&format!("{bad:?}")),
                "{bad:?}: {err}"
            );
        }
        let err = scale(&["--scale"]).unwrap_err();
        assert!(
            err.contains("--scale") && err.contains("needs a value"),
            "{err}"
        );
        assert!(scale(&["--quick", "--scale", "abc"]).is_err());
    }
}
