//! `bench_e2e` — the socket-down benchmark of the hcl serving stack. See
//! `README.md` for the workloads, the metrics and the rules every timing
//! follows.

mod fleet;
mod layers;
mod loadgen;
mod oracle;
mod repeat;
mod report;
mod rng;
mod run;
mod stats;
mod trace;
mod wire;
mod workload;

use std::time::Instant;
use workload::Scale;

const USAGE: &str = "usage: bench_e2e --workload <name> [--seed <u64>] [--seconds <n>] \
[--trace <0|1>] [--scale full|smoke]\n       bench_e2e --repeat-check [--sets <n>] [--runs <n>] \
[--seconds <n>]\n       bench_e2e --list";

/// `--seconds` when the caller gives none: `run_seconds` of BENCHMARK.json.
pub const DEFAULT_SECONDS: f64 = 20.0;

fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args.get(i + 1).map(|v| Some(v.as_str())).ok_or(format!("{name} needs a value")),
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
    }
}

fn real_main(process_start: Instant) -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for spec in workload::SPECS {
            println!("{}", spec.name);
        }
        return Ok(true);
    }
    let seconds: f64 = parsed(&args, "--seconds", DEFAULT_SECONDS)?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=60"));
    }
    if args.iter().any(|a| a == "--repeat-check") {
        let sets: usize = parsed(&args, "--sets", 2)?;
        let runs: usize = parsed(&args, "--runs", 5)?;
        return repeat::check(sets, runs, seconds);
    }
    let name = flag(&args, "--workload")?.ok_or(USAGE)?;
    let spec = workload::spec(name).ok_or(format!("unknown workload {name:?}; try --list"))?;
    let scale = match flag(&args, "--scale")? {
        None | Some("full") => Scale::Full,
        Some("smoke") => Scale::Smoke,
        Some(other) => return Err(format!("--scale: {other:?} is neither full nor smoke")),
    };
    let trace = match flag(&args, "--trace")? {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
    };
    let cfg =
        run::Config { spec, scale, seed: parsed(&args, "--seed", 1u64)?, seconds, process_start };
    let report = if trace { layers::run_traced(&cfg)? } else { run::run_untraced(&cfg)? };
    report.print();
    Ok(report.correct() && report.failed() == 0)
}

fn main() {
    let process_start = Instant::now();
    match real_main(process_start) {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("bench_e2e: the run had failed or wrong operations");
            std::process::exit(1);
        }
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            std::process::exit(2);
        }
    }
}
