//! `--repeat-check`: does the benchmark agree with itself?
//!
//! Runs every workload in interleaved sets of the same binary (set A run 1,
//! set B run 1, set A run 2, …, so a slow drift of the host lands on both
//! sets alike), then prints, per workload and end-to-end metric, each
//! set's median and interquartile range and the relative gap between the
//! medians — the comparison the driver makes before it accepts the
//! benchmark. Exits non-zero when a gap exceeds the metric's bound.

use crate::report::END_TO_END;
use crate::stats::{iqr_share, median};
use crate::workload::SPECS;
use std::process::Command;

/// The value of `name` in a run's JSON result line.
fn json_value(line: &str, name: &str) -> Option<f64> {
    let opening = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&opening)? + opening.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

fn one_run(workload: &str, seed: usize, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("starting a run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .map(str::to_string)
        .ok_or(format!("{workload} seed {seed} printed nothing"))
}

pub fn check(sets: usize, runs: usize, seconds: f64) -> Result<bool, String> {
    if sets < 2 || runs < 2 {
        return Err("--repeat-check needs at least 2 sets of 2 runs".into());
    }
    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; SPECS.len()]; sets];
    for run in 0..runs {
        for (set, of_set) in values.iter_mut().enumerate() {
            for (spec, of_workload) in SPECS.iter().zip(of_set) {
                let line = one_run(spec.name, run + 1, seconds)?;
                for (metric, of_metric) in END_TO_END.iter().zip(of_workload) {
                    of_metric.push(
                        json_value(&line, metric.name)
                            .ok_or(format!("{}: no {} in {line:?}", spec.name, metric.name))?,
                    );
                }
                eprintln!("run {} set {} {} done", run + 1, set + 1, spec.name);
            }
        }
    }
    println!("| workload | metric | median A | IQR A | median B | IQR B | gap | bound |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut ok = true;
    for (w, spec) in SPECS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[0][w][m], &values[sets - 1][w][m]);
            let (ma, mb) = (median(a), median(b));
            // Positive = set B is worse than set A.
            let gap = if metric.higher_is_better { (ma - mb) / ma } else { (mb - ma) / ma };
            let over = gap.abs() > metric.bound;
            ok &= !over;
            println!(
                "| {} | {} | {:.4} | {:.1}% | {:.4} | {:.1}% | {:+.1}% | {:.0}%{} |",
                spec.name,
                metric.name,
                ma,
                iqr_share(a) * 100.0,
                mb,
                iqr_share(b) * 100.0,
                gap * 100.0,
                metric.bound * 100.0,
                if over { " **over**" } else { "" }
            );
        }
    }
    Ok(ok)
}
