//! What one run found: operations attempted and failed, the metrics it
//! measured, and the run record printed beside them.

use std::collections::BTreeMap;

use v6obs::MetricsSnapshot;

use crate::hist::Hist;

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failed checks, for the log.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Run-record entries, each value already rendered as JSON.
    pub record: Vec<(&'static str, String)>,
}

impl Report {
    /// Counts one checked operation; a false `ok` is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Adds a batch of operations checked elsewhere.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 16 {
            self.failures
                .push(format!("{failed} of {attempted} operations failed"));
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn record(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.record.push((key, value.to_string()));
    }

    /// Sets `read_p50_us` and `read_p99_us` from a histogram of
    /// nanoseconds and records their sample counts.
    pub fn read_percentiles(&mut self, hist: &Hist) {
        self.set("read_p50_us", hist.quantile(0.5) / 1e3);
        self.set("read_p99_us", hist.quantile(0.99) / 1e3);
        self.record(
            "read_percentiles",
            format!(
                "{{\"samples\":{},\"beyond_p99\":{}}}",
                hist.count(),
                hist.beyond(0.99)
            ),
        );
    }

    /// Sets `visible_p50_ms` and `visible_p95_ms` from publish-to-visible
    /// times, recording how many samples lie beyond the p95.
    pub fn visible(&mut self, ms: &[f64]) {
        self.set("visible_p50_ms", median(ms));
        self.set("visible_p95_ms", nearest_rank(ms, 0.95));
        let beyond = ms.len() - (ms.len() as f64 * 0.95).ceil() as usize;
        self.record(
            "visible_p95_ms",
            format!("{{\"samples\":{},\"beyond\":{beyond}}}", ms.len()),
        );
    }
}

/// Median of a list of measurements (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of a few measurements by nearest rank.
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied().unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counter and histogram-sum changes between two snapshots of one
/// registry. Registries are never reset: earlier contents cancel out.
pub struct Delta {
    counters: BTreeMap<String, u64>,
    sums_ns: BTreeMap<String, u64>,
}

impl Delta {
    pub fn between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Delta {
        let counters = after.counter_deltas(before).into_iter().collect();
        let sum_before = |name: &str| {
            before
                .histograms
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, h)| h.sum_ns)
        };
        let sums_ns = after
            .histograms
            .iter()
            .map(|(name, h)| (name.clone(), h.sum_ns.saturating_sub(sum_before(name))))
            .collect();
        Delta { counters, sums_ns }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of every counter whose name ends with `suffix` (per-node
    /// counters of a cluster, `n0.cluster.repl.acks`, ...).
    pub fn counter_suffix(&self, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    pub fn sum_ns(&self, name: &str) -> u64 {
        self.sums_ns.get(name).copied().unwrap_or(0)
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
