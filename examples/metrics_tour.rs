//! The `wft-obs` observability layer end to end.
//!
//! Run with `cargo run --release --example metrics_tour`.
//!
//! Every backend in this workspace implements [`MetricsSource`], so one
//! [`Registry`] can watch a live structure alongside application-level
//! instruments. This tour runs writers and cross-shard scanners racing on a
//! [`ShardedStore`] and walks the full story:
//!
//! * **registry**: the store registered as a pulled source next to
//!   app-level counter/histogram handles (lock-free sharded cells — the hot
//!   path is one relaxed `fetch_add`, no locks, no contention);
//! * **window deltas**: a [`MetricsSnapshot`] taken before and after the
//!   race, subtracted bucket-wise/counter-wise — per-measurement-window
//!   arithmetic;
//! * **one counter, two views**: `store_snapshot_retries` read by name
//!   from the registry's snapshot (the store's cells are the only storage
//!   of the counter), and as per-shard-attributed `SnapshotRetry` events in
//!   the global [`TraceRing`] timeline, emitted at the same sites that
//!   bump the counter;
//! * **exporters**: the same snapshot rendered as Prometheus text and
//!   round-tripped through the JSON exporter.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wait_free_range_trees::obs::{trace, TraceKind};
use wait_free_range_trees::prelude::*;

const SHARDS: usize = 8;
const KEYSPACE: i64 = 1 << 18;
const WRITERS: usize = 2;
const SCANNERS: usize = 2;

fn main() {
    let store: Arc<ShardedStore<i64>> = Arc::new(ShardedStore::from_entries(
        (0..KEYSPACE).filter(|k| k % 2 == 0).map(|k| (k, ())),
        SHARDS,
    ));

    // One registry watches the store (a pulled source — its `MetricsSource`
    // impl is polled at snapshot time) next to app-level instruments whose
    // handles live on the hot path.
    let registry = Registry::new();
    registry.register_source("", Arc::clone(&store) as Arc<dyn MetricsSource>);
    let queries = registry.counter("app_queries");
    let query_latency = registry.histogram("app_query_latency_ns");

    // The measurement window starts here: deltas against this snapshot
    // isolate what the race below did from the prefill above.
    let window_start = registry.snapshot();

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + w as u64);
                let mut writes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = rng.gen_range(0..KEYSPACE);
                    if rng.gen_bool(0.5) {
                        store.insert(k, ());
                    } else {
                        store.remove(&k);
                    }
                    writes += 1;
                }
                writes
            })
        })
        .collect();

    let scanners: Vec<_> = (0..SCANNERS)
        .map(|s| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let queries = Arc::clone(&queries);
            let query_latency = Arc::clone(&query_latency);
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(200 + s as u64);
                while !stop.load(Ordering::Relaxed) {
                    // Cross-shard aggregate counts and short cursor drains:
                    // exactly the reads whose retries/resumes the store
                    // attributes per shard in the trace ring.
                    let lo = rng.gen_range(0..KEYSPACE / 4);
                    let hi = KEYSPACE - 1 - rng.gen_range(0..KEYSPACE / 4);
                    let at = Instant::now();
                    if rng.gen_bool(0.8) {
                        std::hint::black_box(store.count(lo, hi));
                    } else {
                        let mut cursor = store.scan(RangeSpec::inclusive(lo, lo + 4_096));
                        while !cursor.next_chunk(256).is_empty() {}
                    }
                    query_latency.observe(at.elapsed());
                    queries.inc();
                }
            })
        })
        .collect();

    thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    let writes: u64 = writers.into_iter().map(|h| h.join().unwrap()).sum();
    scanners.into_iter().for_each(|h| h.join().unwrap());

    // -- one counter, two views ------------------------------------------
    let end = registry.snapshot();
    let retries = end
        .counter("store_snapshot_retries")
        .expect("the store reports its front counters by name");
    let events = trace::global().drain();
    let traced_retries = events
        .iter()
        .filter(|e| e.kind == TraceKind::SnapshotRetry)
        .count() as u64;
    println!(
        "store_snapshot_retries: {retries} (registry); {traced_retries} in the trace ring \
         (bounded buffer, so ≤ the counter)"
    );
    assert!(
        traced_retries <= retries + trace::global().dropped(),
        "trace events are a (possibly truncated) subset of the counted retries"
    );

    // -- the window delta -------------------------------------------------
    let window = end.delta_since(&window_start);
    let app_queries = window.counter("app_queries").unwrap_or(0);
    assert!(app_queries > 0, "scanners ran");
    assert_eq!(
        app_queries,
        queries.value(),
        "delta equals the handle's own cumulative value (window started at 0)"
    );
    let lat = window
        .histogram("app_query_latency_ns")
        .expect("histogram sampled in window");
    println!(
        "window: {writes} writes, {app_queries} queries; query latency p50 {} ns, p99 {} ns, \
         p999 {} ns over {} samples",
        lat.quantile(0.50),
        lat.quantile(0.99),
        lat.quantile(0.999),
        lat.count,
    );

    // -- exporters --------------------------------------------------------
    let round_tripped =
        MetricsSnapshot::from_json(&window.to_json()).expect("JSON exporter round-trips");
    assert_eq!(round_tripped, window);
    println!("\n-- Prometheus exposition (window delta) --");
    let text = window.to_prometheus();
    // Histogram series are long; show the counters/gauges and the quantile
    // summary above instead of every bucket line.
    for line in text.lines().filter(|l| !l.contains("_bucket{")) {
        println!("{line}");
    }

    // -- the post-mortem timeline -----------------------------------------
    println!("\n-- trace ring (last {} events) --", events.len().min(12));
    let timeline = trace::global().render_timeline();
    for line in timeline
        .lines()
        .rev()
        .take(12)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        println!("{line}");
    }

    println!("\nmetrics_tour finished successfully");
}
