//! Order statistics used for every reported number.

/// The median (mean of the two middle values for an even count). Panics
/// on an empty slice: a phase that produced no sample is a bug in the
/// benchmark, not a result.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are finite"));
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Quartiles the way Python's `statistics.quantiles(v, n=4)` computes them
/// (exclusive method), so `--repeat-check` agrees with the driver.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are finite"));
    let n = v.len();
    let at = |i: usize| -> f64 {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median (0 for a single sample,
/// which has no spread to speak of).
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

/// Percentile (nearest rank) of an unsorted sample of nanoseconds, in
/// microseconds. Reorders the sample.
pub fn percentile_us(samples_ns: &mut [u32], p: f64) -> f64 {
    assert!(!samples_ns.is_empty(), "percentile of no samples");
    let rank = ((p * samples_ns.len() as f64).ceil() as usize).clamp(1, samples_ns.len()) - 1;
    *samples_ns.select_nth_unstable(rank).1 as f64 / 1e3
}
