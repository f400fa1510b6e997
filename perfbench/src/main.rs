//! One workload run of the benchmark, in a process of its own.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--toy] [--xp <path to xp>] [--spans <file>]
//! ```
//!
//! Prints one JSON object: the workload's metrics (each with its unit
//! and sample count), the operations attempted and failed, the failure
//! messages, and every cell's resolved backend. `perfbench/run.py`
//! builds this binary and `xp`, runs it, and prints the benchmark's
//! result; see `perfbench/README.md`.

mod probe;
mod serve;
mod sim;
mod stats;
mod trace;

use stats::{json_string, metrics_json};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    toy: bool,
    xp: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: sim::DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        toy: false,
        xp: None,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--toy" => args.toy = true,
            "--xp" => args.xp = Some(PathBuf::from(value()?)),
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if let Some(w) = sim::SimWorkload::named(&args.workload, args.toy) {
        sim::run(&w, args.seed, args.seconds, args.traced)
    } else if args.workload == "serve_mix" {
        let Some(xp) = &args.xp else {
            eprintln!("perfbench: serve_mix needs --xp");
            return ExitCode::from(2);
        };
        serve::run(&serve::ServeOptions {
            xp,
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            toy: args.toy,
        })
    } else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    if let (Some(path), true) = (&args.spans, args.traced) {
        if let Err(e) = trace::write_spans(path, &report.spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let errors: Vec<String> = report.errors.iter().map(|e| json_string(e)).collect();
    let cells: Vec<String> = report
        .cells
        .iter()
        .map(|(cell, backend)| {
            format!(
                "{{\"cell\":{},\"backend\":{}}}",
                json_string(cell),
                json_string(backend)
            )
        })
        .collect();
    println!(
        "{{\"workload\":{},\"seed\":{},\"attempted\":{},\"failed\":{},\"errors\":[{}],\"cells\":[{}],\"metrics\":{}}}",
        json_string(&args.workload),
        args.seed,
        report.attempted,
        report.failed,
        errors.join(","),
        cells.join(","),
        metrics_json(&report.metrics),
    );
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
