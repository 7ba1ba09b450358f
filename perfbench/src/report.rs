//! Metric collection, percentiles, and the result line.

use std::fmt::Write as _;

/// Median of `samples` (sorts in place); 0 when empty.
pub fn p50(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Nearest-rank percentile (sorts in place); 0 when empty.
pub fn percentile(samples: &mut [f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The highest percentile with at least ten samples beyond it, capped at
/// p99: the tail a run of this length can actually resolve. Below 20
/// samples that percentile would not lie above the median, so the maximum
/// stands in. Returns `(value, percentile)`.
pub fn tail(samples: &mut [f64]) -> (f64, f64) {
    let n = samples.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    samples.sort_by(f64::total_cmp);
    if n < 20 {
        return (samples[n - 1], 100.0);
    }
    let pct = (100.0 * (n - 10) as f64 / n as f64).min(99.0);
    (percentile(samples, pct), pct)
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations the workload attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, shed, or answered degraded.
    pub failed: u64,
    mismatches: Vec<String>,
}

impl Report {
    /// Records a metric (replacing an earlier value of the same name).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records 0 for each listed metric not measured; returns their names.
    pub fn fill_missing(&mut self, all: &[(&str, &'static str)]) -> Vec<String> {
        let mut missing = Vec::new();
        for &(name, unit) in all {
            if !self.metrics.iter().any(|(n, _, _)| n == name) {
                self.put(name, 0.0, unit);
                missing.push(name.to_string());
            }
        }
        missing
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.mismatches.len() < 20 {
            self.mismatches.push(what());
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Prints the readable table, then (as the last line) the result
    /// object carrying every recorded metric.
    pub fn print(&self, note: &str) {
        for m in &self.mismatches {
            println!("CHECK FAILED: {m}");
        }
        println!("{note}");
        for (name, value, unit) in &self.metrics {
            println!("  {name:<34} {value:>16.4} {unit}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&mut v), (90.0, 90.0));
        let mut v: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&mut v), (4950.0, 99.0));
        let mut v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&mut v), (19.0, 100.0));
        assert_eq!(p50(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
