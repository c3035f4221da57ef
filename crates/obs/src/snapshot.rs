//! Point-in-time metric snapshots, window deltas, and the two exporters.
//!
//! A [`MetricsSnapshot`] is the flat, serializable form every instrument
//! and [`MetricsSource`](crate::MetricsSource) renders into: named counter
//! samples, gauge samples and histogram snapshots. Snapshots support the
//! **delta arithmetic** benches and watchdogs need —
//! [`MetricsSnapshot::delta_since`] subtracts an earlier snapshot of the
//! same instruments, turning cumulative counters into per-window rates —
//! and export as either JSON ([`MetricsSnapshot::to_json`]) or the
//! Prometheus text exposition format
//! ([`MetricsSnapshot::to_prometheus`]).

use serde::{Deserialize, Serialize};

use crate::hist::HistogramSnapshot;

/// One named counter reading.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name (e.g. `store_snapshot_retries`).
    pub name: String,
    /// Cumulative value at snapshot time.
    pub value: u64,
}

/// One named gauge reading.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name (e.g. `store_len`).
    pub name: String,
    /// Level at snapshot time.
    pub value: i64,
}

/// One named histogram reading.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name (e.g. `op_latency_ns`).
    pub name: String,
    /// The bucket contents at snapshot time.
    pub histogram: HistogramSnapshot,
}

/// A point-in-time reading of a set of named metrics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter readings, in registration order.
    pub counters: Vec<CounterSample>,
    /// Gauge readings, in registration order.
    pub gauges: Vec<GaugeSample>,
    /// Histogram readings, in registration order.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// An empty snapshot (the starting point for
    /// [`MetricsSource::collect_metrics`](crate::MetricsSource::collect_metrics)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a counter sample.
    pub fn push_counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push(CounterSample {
            name: name.into(),
            value,
        });
    }

    /// Appends a gauge sample.
    pub fn push_gauge(&mut self, name: impl Into<String>, value: i64) {
        self.gauges.push(GaugeSample {
            name: name.into(),
            value,
        });
    }

    /// Appends a histogram sample.
    pub fn push_histogram(&mut self, name: impl Into<String>, histogram: HistogramSnapshot) {
        self.histograms.push(HistogramSample {
            name: name.into(),
            histogram,
        });
    }

    /// Appends the counters of `parts` summed by name, each renamed
    /// `{prefix}_{name}`: the fold of several same-shaped sources (a
    /// store's shards) into one set of totals. Names keep their first-seen
    /// order; gauges and histograms are not folded.
    pub fn push_counter_sums(&mut self, prefix: &str, parts: &MetricsSnapshot) {
        let mut sums: Vec<CounterSample> = Vec::new();
        for c in &parts.counters {
            match sums.iter_mut().find(|s| s.name == c.name) {
                Some(sum) => sum.value += c.value,
                None => sums.push(c.clone()),
            }
        }
        for sum in sums {
            self.push_counter(format!("{prefix}_{}", sum.name), sum.value);
        }
    }

    /// Value of the named counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Value of the named gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.histogram)
    }

    /// `true` when no samples are present.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The window from `earlier` to `self`, matched by name: counters
    /// subtract saturating (a metric absent from `earlier` counts from 0),
    /// histograms subtract bucket-wise, and gauges carry the later reading
    /// unchanged — a gauge is a level, not a running total, so the level at
    /// the end of the window is what the window reports. Metrics only
    /// present in `earlier` are dropped — the delta describes what `self`
    /// can still see.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|c| CounterSample {
                    name: c.name.clone(),
                    value: c
                        .value
                        .saturating_sub(earlier.counter(&c.name).unwrap_or(0)),
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|h| HistogramSample {
                    name: h.name.clone(),
                    histogram: match earlier.histogram(&h.name) {
                        Some(prev) => h.histogram.delta_since(prev),
                        None => h.histogram.clone(),
                    },
                })
                .collect(),
        }
    }

    /// Serializes the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("metrics snapshot serializes")
    }

    /// Parses a snapshot back from [`MetricsSnapshot::to_json`] output.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// counters and gauges as single samples, histograms as cumulative
    /// `_bucket{le="…"}` series plus `_sum` and `_count`. Metric names are
    /// sanitized to `[a-zA-Z0-9_:]`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let name = sanitize(&c.name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.value));
        }
        for g in &self.gauges {
            let name = sanitize(&g.name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.value));
        }
        for h in &self.histograms {
            let name = sanitize(&h.name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for b in &h.histogram.buckets {
                cumulative += b.count;
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                    b.le_ns
                ));
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
                h.histogram.count, h.histogram.sum_ns, h.histogram.count
            ));
        }
        out
    }
}

/// Replaces characters outside `[a-zA-Z0-9_:]` with `_` (Prometheus metric
/// name charset).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;

    fn sample() -> MetricsSnapshot {
        let h = LatencyHistogram::new();
        h.record(7);
        h.record(900);
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("tree_inserts", 10);
        snap.push_gauge("store_len", -3);
        snap.push_histogram("op_latency_ns", h.snapshot());
        snap
    }

    #[test]
    fn json_round_trips() {
        let snap = sample();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn delta_subtracts_matched_names() {
        let mut earlier = MetricsSnapshot::new();
        earlier.push_counter("tree_inserts", 4);
        earlier.push_gauge("store_len", -10);
        let delta = sample().delta_since(&earlier);
        assert_eq!(delta.counter("tree_inserts"), Some(6));
        assert_eq!(
            delta.gauge("store_len"),
            Some(-3),
            "a level, not a difference"
        );
        // Histogram absent from `earlier` passes through whole.
        assert_eq!(delta.histogram("op_latency_ns").unwrap().count, 2);
    }

    #[test]
    fn prometheus_format_shape() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE tree_inserts counter"));
        assert!(text.contains("tree_inserts 10"));
        assert!(text.contains("store_len -3"));
        assert!(text.contains("# TYPE op_latency_ns histogram"));
        assert!(text.contains("op_latency_ns_bucket{le=\"7\"} 1"));
        assert!(text.contains("op_latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("op_latency_ns_count 2"));
    }

    #[test]
    fn sanitize_replaces_bad_chars() {
        assert_eq!(sanitize("a.b-c d"), "a_b_c_d");
    }
}
