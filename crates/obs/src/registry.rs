//! The metrics registry and the [`MetricsSource`] capability trait.
//!
//! Two ways metrics reach a [`MetricsSnapshot`]:
//!
//! * **Owned instruments** — [`Registry::counter`] / [`Registry::gauge`] /
//!   [`Registry::histogram`] hand out `Arc` handles to sharded cells.
//!   Get-or-create takes a lock once; the returned handle is then used
//!   lock-free on the hot path. Snapshots read every registered
//!   instrument.
//! * **Pulled sources** — a structure that embeds its own cells (a tree's
//!   `TreeCounters`, the store's front table, the durable layer's
//!   instruments) implements [`MetricsSource`] and is attached with
//!   [`Registry::register_source`]; [`Registry::snapshot`] polls it and
//!   prefixes its sample names. The cells are the only storage, and
//!   [`MetricsSource::collect_metrics`] is the only way to read them, so
//!   the sample name is the API: the same `store_snapshot_retries` reading
//!   feeds the JSON/Prometheus exporters, per-window deltas and
//!   [`MetricsSource::metrics`] in tests.

use std::sync::{Arc, Mutex};

use crate::cell::{Counter, Gauge};
use crate::hist::LatencyHistogram;
use crate::snapshot::MetricsSnapshot;

/// A structure that can report its metrics into a snapshot.
///
/// Implementors append named samples with the `push_*` methods; names
/// should be stable, lowercase `snake_case` identifiers (they become
/// Prometheus metric names). Every backend in the workspace implements
/// this — trees and the store report their operational counters, the
/// baselines report at least their size — so any `ConcurrentSet` in the
/// harness can be asked for a snapshot.
pub trait MetricsSource: Send + Sync {
    /// Appends this structure's current metric readings to `out`.
    fn collect_metrics(&self, out: &mut MetricsSnapshot);

    /// This structure's readings alone, as a fresh snapshot — read a
    /// counter by name with `source.metrics().counter("tree_inserts")`.
    fn metrics(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        self.collect_metrics(&mut out);
        out
    }
}

/// A named collection of live instruments and pulled sources.
///
/// Cloning the returned `Arc` handles is the intended usage: register
/// once at setup, stash the handle next to the hot path, and let the
/// registry own the name → instrument mapping for snapshot/export time.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    counters: Vec<(String, Arc<Counter>)>,
    gauges: Vec<(String, Arc<Gauge>)>,
    histograms: Vec<(String, Arc<LatencyHistogram>)>,
    sources: Vec<(String, Arc<dyn MetricsSource>)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        inner.counters.push((name.to_owned(), Arc::clone(&c)));
        c
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        inner.gauges.push((name.to_owned(), Arc::clone(&g)));
        g
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, h)) = inner.histograms.iter().find(|(n, _)| n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(LatencyHistogram::new());
        inner.histograms.push((name.to_owned(), Arc::clone(&h)));
        h
    }

    /// Attaches a pulled source; every sample it reports is prefixed with
    /// `prefix_` (pass `""` for no prefix). Sources are polled on every
    /// [`Registry::snapshot`].
    pub fn register_source(&self, prefix: &str, source: Arc<dyn MetricsSource>) {
        self.inner
            .lock()
            .unwrap()
            .sources
            .push((prefix.to_owned(), source));
    }

    /// Reads every instrument and polls every source into one snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        let mut out = MetricsSnapshot::new();
        for (name, c) in &inner.counters {
            out.push_counter(name.clone(), c.value());
        }
        for (name, g) in &inner.gauges {
            out.push_gauge(name.clone(), g.value());
        }
        for (name, h) in &inner.histograms {
            out.push_histogram(name.clone(), h.snapshot());
        }
        for (prefix, source) in &inner.sources {
            if prefix.is_empty() {
                source.collect_metrics(&mut out);
            } else {
                let mut scoped = MetricsSnapshot::new();
                source.collect_metrics(&mut scoped);
                for c in scoped.counters {
                    out.push_counter(format!("{prefix}_{}", c.name), c.value);
                }
                for g in scoped.gauges {
                    out.push_gauge(format!("{prefix}_{}", g.name), g.value);
                }
                for h in scoped.histograms {
                    out.push_histogram(format!("{prefix}_{}", h.name), h.histogram);
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .field("sources", &inner.sources.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FixedSource;
    impl MetricsSource for FixedSource {
        fn collect_metrics(&self, out: &mut MetricsSnapshot) {
            out.push_counter("events", 5);
        }
    }

    #[test]
    fn instruments_are_get_or_create() {
        let reg = Registry::new();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.inc();
        b.inc();
        assert_eq!(reg.snapshot().counter("hits"), Some(2));
    }

    #[test]
    fn sources_are_polled_with_prefix() {
        let reg = Registry::new();
        reg.register_source("store", Arc::new(FixedSource));
        reg.register_source("", Arc::new(FixedSource));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("store_events"), Some(5));
        assert_eq!(snap.counter("events"), Some(5));
        assert_eq!(FixedSource.metrics().counter("events"), Some(5));
    }

    #[test]
    fn snapshot_covers_all_instrument_kinds() {
        let reg = Registry::new();
        reg.counter("c").add(3);
        reg.gauge("g").sub(2);
        reg.histogram("h").record(64);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(3));
        assert_eq!(snap.gauge("g"), Some(-2));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
    }
}
