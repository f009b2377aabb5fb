//! Sample summaries and the one-line JSON result the benchmark prints.

use std::fmt::Write as _;

/// Samples a tail percentile should have beyond it.
const TAIL_BEYOND: usize = 10;

/// A set of latency (or other) samples.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

/// Median and tail of a sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
    /// Samples above the tail.
    pub beyond: usize,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile (`p` in 0..=100); 0.0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        rank(&self.sorted(), p)
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Median and the `tail_pct`-th percentile. Each workload fixes its
    /// tail percentile as the highest of p50/p75/p90/p95/p99 that leaves at
    /// least ten samples beyond it at the workload's size, so parent and
    /// change report the same percentile; the count beyond is reported
    /// next to it.
    pub fn summary(&self, tail_pct: f64) -> Summary {
        let sorted = self.sorted();
        let n = sorted.len();
        Summary {
            n,
            p50: rank(&sorted, 50.0),
            tail_pct,
            tail: rank(&sorted, tail_pct),
            beyond: if n == 0 {
                0
            } else {
                n - nearest_rank(n, tail_pct)
            },
        }
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

impl Summary {
    /// `p75 of n=62, 15 beyond` — printed next to every tail.
    pub fn describe_tail(&self) -> String {
        let warn = if self.beyond < TAIL_BEYOND {
            " (fewer than ten beyond: too few samples for this percentile)"
        } else {
            ""
        };
        format!(
            "p{} of n={}, {} beyond{warn}",
            self.tail_pct, self.n, self.beyond
        )
    }
}

/// Metrics in the order they were recorded, each with its unit.
#[derive(Debug, Default)]
pub struct MetricSet {
    entries: Vec<(String, f64, &'static str)>,
}

impl MetricSet {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// One `name = value unit` line per metric, for people reading the log.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "  {name} = {value} {unit}");
        }
        out
    }

    /// The `"metrics"` object of the result line.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A float as JSON, with all its digits (Rust's shortest round-trip form).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        s.strip_suffix(".0").map(str::to_string).unwrap_or(s)
    } else {
        "0".to_string()
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &MetricSet) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

/// High-water resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn tail_counts_the_samples_beyond_it() {
        let s = samples(40).summary(75.0);
        assert_eq!((s.p50, s.tail, s.beyond), (20.0, 30.0, 10));
        assert!(!s.describe_tail().contains("fewer"));
        let s = samples(39).summary(75.0);
        assert_eq!(s.beyond, 9);
        assert!(s.describe_tail().contains("fewer than ten"));
        let s = samples(1000).summary(99.0);
        assert_eq!((s.tail, s.beyond), (990.0, 10));
        assert_eq!(Samples::default().summary(95.0).tail, 0.0);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
