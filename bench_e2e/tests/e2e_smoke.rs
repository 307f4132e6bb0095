//! Smoke test of the benchmark itself (`cargo test --manifest-path
//! bench_e2e/Cargo.toml`; not part of the repository's tier-1 suite).
//!
//! Runs all four workloads at `--scale smoke` (n ÷ 50, two windows, the
//! 0.5 s floor waived), untraced and traced, and holds the output to
//! `BENCHMARK.json`: every declared metric printed exactly once, with its
//! declared unit and a finite value; the counts that describe the instance
//! are the same for every seed, and the counts that describe the traffic
//! repeat exactly for one seed and move with another.

use std::collections::BTreeMap;
use std::process::Command;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every object in the array under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let start = MANIFEST
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let body = &MANIFEST[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |object: &str, name: &str| -> String {
        let at =
            object.find(&format!("\"{name}\"")).unwrap_or_else(|| panic!("no {name} in {object}"));
        let rest = &object[at + name.len() + 2..];
        let open = rest.find('"').expect("string value opens");
        let rest = &rest[open + 1..];
        rest[..rest.find('"').expect("string value closes")].to_string()
    };
    body.split('{').skip(1).map(|object| (field(object, "name"), field(object, "unit"))).collect()
}

/// Runs the benchmark binary and returns `name → (value, unit)` from the
/// JSON line it prints last.
fn run(workload: &str, seed: u64, trace: bool) -> BTreeMap<String, (f64, String)> {
    let output = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(["--workload", workload, "--scale", "smoke", "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "unexpected result line {line}"
    );
    assert!(line.contains("\"failed\": 0, "), "failed operations in {line}");
    let metrics = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    let mut out = BTreeMap::new();
    for entry in metrics.split("}, ") {
        let entry = entry.trim_end_matches('}');
        let name = entry.split('"').nth(1).expect("metric name").to_string();
        let value: f64 = entry
            .split("\"value\": ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|number| number.parse().ok())
            .unwrap_or_else(|| panic!("no value in {entry}"));
        let unit =
            entry.split("\"unit\": \"").nth(1).expect("unit").trim_end_matches('"').to_string();
        assert!(out.insert(name.clone(), (value, unit)).is_none(), "{name} printed twice");
    }
    out
}

fn assert_matches(
    printed: &BTreeMap<String, (f64, String)>,
    declared: &[(String, String)],
    what: &str,
) {
    for (name, unit) in declared {
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "metric name {name:?} has characters outside [A-Za-z0-9_.-]"
        );
        let (value, printed_unit) =
            printed.get(name).unwrap_or_else(|| panic!("{what}: {name} declared but not printed"));
        assert_eq!(printed_unit, unit, "{what}: unit of {name}");
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
    assert_eq!(printed.len(), declared.len(), "{what}: printed metrics beyond the declared ones");
}

const WORKLOADS: [&str; 4] = ["serve-uniform", "serve-hot", "serve-churn", "route-uniform"];

#[test]
fn manifest_names_the_four_workloads() {
    for workload in WORKLOADS {
        assert!(
            MANIFEST.contains(&format!("\"name\": \"{workload}\"")),
            "{workload} not in BENCHMARK.json"
        );
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    let end_to_end = declared("end_to_end");
    assert!(end_to_end.iter().any(|(name, unit)| name == "setup_s" && unit == "s"));
    for workload in WORKLOADS {
        let first = run(workload, 1, false);
        assert_matches(&first, &end_to_end, workload);
        // The graph is the same for every seed (`GRAPH_SEED`), so the
        // index size is one number per workload.
        let other = run(workload, 2, false);
        let count = "index_bytes_per_vertex";
        assert_eq!(first[count], other[count], "{workload}: {count} is a property of the instance");
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        let first = run(workload, 1, true);
        assert_matches(&first, &per_layer, workload);
        let again = run(workload, 1, true);
        let other = run(workload, 2, true);
        // Counts of the instance: the same whatever the seed.
        for count in
            ["core.label_entries_per_vertex", "store.bytes_per_vertex", "core.partition_cut_edges"]
        {
            assert_eq!(first[count], again[count], "{workload}: {count} must repeat");
            assert_eq!(
                first[count], other[count],
                "{workload}: {count} is a property of the instance"
            );
        }
        // Counts of the traffic: exact for one seed, different for another.
        for count in ["core.bound_exact_share", "core.partition_cross_share"] {
            assert_eq!(first[count], again[count], "{workload}: {count} must repeat for one seed");
            assert_ne!(first[count], other[count], "{workload}: {count} must move with the seed");
        }
        for zero in
            ["loadgen.failed", "loadgen.wrong", "server.shed", "server.errors", "router.degraded"]
        {
            assert_eq!(first[zero].0, 0.0, "{workload}: {zero}");
        }
    }
}
