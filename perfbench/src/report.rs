//! The result every run prints: the correctness tally and named metrics,
//! rendered as the one-line JSON object a benchmark run ends with.

use std::fmt::Write as _;

/// One named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Routing updates the run attempted (the unit every failure counts in).
    pub attempted: u64,
    /// Routing updates that failed one of the workload's checks.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result (the Fig. 4
    /// shape report, failure details).
    pub notes: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name: name.into(), unit, value });
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Record `n` failed updates with a reason line.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            self.notes.push(format!("FAIL ({n}): {}", why.into()));
        }
    }

    /// Correct when something was attempted, nothing failed and every
    /// metric is a finite number.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest representation that reads back to
            // the same f64, so no measured digit is lost.
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The level the slowest tenth of a run's repetitions reaches: the first
/// decile of a higher-is-better sample, the ninth of a lower-is-better
/// one. Co-tenants on a shared host switch it between a slow and a fast
/// state within seconds, and the fast state's share of a run varies from
/// run to run, so a run's median moves with that share; the slow state is
/// present in every run and this decile sits in it.
pub fn slow_decile(values: &[f64], higher_is_better: bool) -> f64 {
    quantile(values, if higher_is_better { 0.1 } else { 0.9 })
}

/// Weighted quantile over `(value, weight)` samples: the smallest value
/// whose cumulative weight reaches `q` of the total.
pub fn weighted_quantile(samples: &mut [(f64, u64)], q: f64) -> f64 {
    let total: u64 = samples.iter().map(|s| s.1).sum();
    if total == 0 {
        return f64::NAN;
    }
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let mut acc = 0u64;
    for &(v, w) in samples.iter() {
        acc += w;
        if acc >= target {
            return v;
        }
    }
    samples.last().map_or(f64::NAN, |s| s.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User + system CPU seconds this process has consumed (`/proc/self/stat`).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    // The kernel reports in clock ticks; USER_HZ is 100 on Linux.
    (ticks(11) + ticks(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn weighted_quantile_counts_weights() {
        let mut s = vec![(1.0, 1), (2.0, 8), (10.0, 1)];
        assert_eq!(weighted_quantile(&mut s, 0.5), 2.0);
        assert_eq!(weighted_quantile(&mut s, 0.99), 10.0);
    }

    #[test]
    fn json_has_the_result_keys() {
        let mut r = Report { attempted: 3, ..Default::default() };
        r.push("setup_s", "s", 0.5);
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
