//! `reach-perfbench --workload <build|serve|batch> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name and unit, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A traced run also writes its spans, one JSON
//! object per line, under the cargo target directory.

use reach_perfbench::common::Budget;
use reach_perfbench::{result_json, run, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The documented default seed; `20231` is the held-out seed.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: reach-perfbench --workload <build|serve|batch> [--seed N] [--seconds 1..=60] [--trace 0|1]";

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| bad("not a whole number of seconds in 1..=60"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Budget::Time(Duration::from_secs(args.seconds));
    let report = run(args.workload, args.seed, budget, args.trace);
    let name = args.workload.name();
    for m in &report.metrics {
        println!("{name:<6} {:<36} {:>16} {}", m.name, m.value, m.unit);
    }
    println!(
        "{name:<6} checked ops: {} attempted, {} failed",
        report.attempted, report.failed
    );
    if let Some(tr) = &report.tracer {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
        let path = dir
            .join("perfbench-trace")
            .join(format!("{name}-seed{}.jsonl", args.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => println!(
                "{name:<6} {} spans written to {}",
                tr.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    if report.metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("a metric is not a finite number");
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}
