//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0`, runs the workload over loopback HTTP and prints the
//! end-to-end metrics; with `--trace 1`, runs it again with client-side
//! spans (the difference in p50 is the tracing overhead), replays its
//! inputs through each layer's public entry points, writes every span to
//! `perfbench/out/`, and prints the per-layer metrics. Human-readable
//! lines start with `#`; the last line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

use std::path::PathBuf;
use std::process::ExitCode;

use cos_par::alloc_probe::CountingAlloc;
use perfbench::inputs::{Inputs, Workload};
use perfbench::run::{run, Metric, Outcome, Window};
use perfbench::trace;

/// Counts allocations made by the gate's reactor threads (the only
/// threads that opt in), for `gate.allocs_per_op`.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_line(o: &Outcome, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    trace::since_origin(std::time::Instant::now());
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::generate(args.workload, args.seed, args.seconds);
    println!(
        "# {} seed {}: input digest {:016x}",
        args.workload.name(),
        args.seed,
        inputs.digest
    );
    let window = Window::Seconds(args.seconds);
    let result = (|| -> std::io::Result<(Outcome, Vec<Metric>)> {
        let untraced = run(&inputs, window, false)?;
        for note in &untraced.notes {
            println!("# {note}");
        }
        if !args.trace {
            let metrics = untraced.metrics.clone();
            return Ok((untraced, metrics));
        }
        let traced = run(&inputs, window, true)?;
        let p50 = |o: &Outcome| {
            o.metrics
                .iter()
                .find(|m| m.0 == "p50_us")
                .map_or(f64::NAN, |m| m.1)
        };
        println!(
            "# tracing overhead: traced p50 {:.3} us - untraced p50 {:.3} us = {:.3} us",
            p50(&traced),
            p50(&untraced),
            p50(&traced) - p50(&untraced)
        );
        let replay = trace::replay(&inputs)?;
        for row in replay.table() {
            println!("# {row}");
        }
        let path = PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        replay.write_spans(&traced.spans, &path)?;
        println!("# spans written to {}", path.display());
        let metrics = replay.metrics(&untraced);
        let outcome = Outcome {
            correct: untraced.correct && traced.correct,
            attempted: untraced.attempted + traced.attempted + replay.counts.requests,
            failed: untraced.failed + traced.failed,
            ..Outcome::default()
        };
        Ok((outcome, metrics))
    })();
    match result {
        Ok((_, metrics)) if metrics.iter().any(|m| !m.1.is_finite()) => {
            eprintln!("perfbench: a metric had no samples: {metrics:?}");
            ExitCode::FAILURE
        }
        Ok((outcome, metrics)) => {
            println!("{}", json_line(&outcome, &metrics));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: an answer or a self-check failed (see the # lines)");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
