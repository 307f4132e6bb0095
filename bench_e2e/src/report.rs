//! What a run prints: every metric by name with its unit, the
//! `sent / ok / failed` count of every phase, and — as the last line of
//! standard output — one JSON object for the driver.

use crate::loadgen::Tally;

/// One end-to-end metric as `BENCHMARK.json` declares it (the package's
/// test holds the two to each other).
pub struct EndToEnd {
    pub name: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, higher_is_better: bool, bound: f64) -> EndToEnd {
    EndToEnd { name, higher_is_better, bound }
}

pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", false, 0.25),
    e2e("build_s", false, 0.25),
    e2e("index_bytes_per_vertex", false, 0.01),
    e2e("resident_mb", false, 0.25),
    e2e("qps_closed", true, 0.25),
    e2e("rtt_p50_us", false, 0.25),
    e2e("reload_ms", false, 0.25),
    e2e("update_ms", false, 0.25),
];

#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    phases: Vec<(&'static str, Tally)>,
    pub wrong: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(!self.metrics.iter().any(|(n, ..)| n == name), "metric {name} reported twice");
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn phase(&mut self, name: &'static str, tally: Tally) {
        self.phases.push((name, tally));
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|(_, t)| t.sent).sum()
    }

    /// Operations that failed outright plus verified-wrong answers.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|(_, t)| t.failed).sum::<u64>() + self.wrong
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// The human-readable table, then the driver's JSON line.
    pub fn print(&self) {
        for (name, t) in &self.phases {
            println!("phase {name:<8} sent={} ok={} failed={}", t.sent, t.ok, t.failed);
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name} {value} {unit}");
        }
        println!("{}", self.json());
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted().max(1),
            self.failed(),
            metrics.join(", ")
        )
    }
}
