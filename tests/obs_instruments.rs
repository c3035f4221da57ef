//! Integration tests for the `wft-obs` instruments themselves.
//!
//! The observability layer is only trustworthy if its arithmetic is exact
//! where it claims exactness and bounded where it claims bounds, so:
//!
//! * a proptest checks [`HistogramSnapshot::quantile`] against a
//!   sorted-vector oracle — exact below the linear/log boundary, and an
//!   overestimate by at most one bucket width (≤ 25 %) above it;
//! * counters are monotonic under concurrent increments and their
//!   snapshot/delta arithmetic is exact (per-window metrics depend on
//!   this);
//! * a multi-threaded recorder run shows the sharded cells lose nothing:
//!   concurrent `inc`/`record` sums come out exactly, not approximately;
//! * the [`TraceRing`] keeps exactly the most recent `capacity` events
//!   across wrap-around, with contiguous sequence numbers and an exact
//!   dropped-event count;
//! * every backend's metric names are pinned: a name is the only way to
//!   read a counter, and a reader that looks one up with
//!   `counter(name).unwrap_or(0)` silently reads 0 after a rename;
//! * the store's `store_tree_*` counters are the sums of its shards'
//!   `tree_*` counters;
//! * `epoch_pooled_blocks` sees the blocks the epoch shim keeps for reuse
//!   in the pools of live updater threads.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use proptest::prelude::*;

use wait_free_range_trees::durable::{DurableStore, ScratchDir};
use wait_free_range_trees::obs::hist::LINEAR_MAX;
use wait_free_range_trees::obs::trace::{TraceKind, TraceRing};
use wait_free_range_trees::obs::{Counter, Gauge, MetricsSnapshot, MetricsSource, Registry};
use wait_free_range_trees::persistent::PersistentRangeTree;
use wait_free_range_trees::prelude::{LatencyHistogram, ShardedStore, WaitFreeTree, WaitFreeTrie};

/// The oracle the histogram approximates: the rank-`ceil(p * n)` element of
/// the sorted recordings (matching `HistogramSnapshot::quantile`'s rank
/// definition).
fn oracle_quantile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    /// `quantile(p)` is sandwiched by the oracle: never below it (the
    /// bucket's upper bound is returned), and above it by at most the
    /// width of the bucket holding it — `le <= oracle + oracle/4`, exact
    /// equality below `LINEAR_MAX`.
    #[test]
    fn quantile_tracks_sorted_oracle(
        values in proptest::collection::vec(0u64..20_000_000, 1..400),
        permilles in proptest::collection::vec(0u32..=1000, 1..8),
    ) {
        let hist = LatencyHistogram::new();
        for &v in &values {
            hist.record(v);
        }
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum_ns, values.iter().sum::<u64>());

        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &permille in &permilles {
            let p = permille as f64 / 1000.0;
            let oracle = oracle_quantile(&sorted, p);
            let got = snap.quantile(p);
            prop_assert!(got >= oracle, "p={} got={} oracle={}", p, got, oracle);
            if oracle < LINEAR_MAX {
                prop_assert_eq!(got, oracle, "unit buckets are exact");
            } else {
                prop_assert!(
                    got <= oracle + oracle / 4,
                    "p={} got={} oracle={} (bucket width must stay under 25%)",
                    p, got, oracle
                );
            }
        }
    }

    /// Merging two histograms is the same as recording everything into one,
    /// and a delta against a prefix snapshot recovers exactly the suffix.
    #[test]
    fn histogram_merge_and_delta_are_bucket_exact(
        first in proptest::collection::vec(0u64..1_000_000, 0..200),
        second in proptest::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let a = LatencyHistogram::new();
        for &v in &first {
            a.record(v);
        }
        let prefix = a.snapshot();
        for &v in &second {
            a.record(v);
        }
        let full = a.snapshot();

        let b = LatencyHistogram::new();
        for &v in &second {
            b.record(v);
        }
        prop_assert_eq!(&prefix.merged_with(&b.snapshot()), &full);
        prop_assert_eq!(&full.delta_since(&prefix), &b.snapshot());
    }
}

#[test]
fn counter_is_monotonic_and_deltas_are_exact() {
    let c = Counter::new();
    let mut last = 0;
    for i in 0..1_000u64 {
        if i % 3 == 0 {
            c.add(i);
        } else {
            c.inc();
        }
        let now = c.value();
        assert!(now >= last, "counter went backwards: {last} -> {now}");
        last = now;
    }

    let mut before = MetricsSnapshot::new();
    before.push_counter("x", 5);
    before.push_gauge("depth", 7);
    let mut after = MetricsSnapshot::new();
    after.push_counter("x", 9);
    after.push_counter("y", 3);
    after.push_gauge("depth", 4);
    let delta = after.delta_since(&before);
    assert_eq!(delta.counter("x"), Some(4));
    assert_eq!(delta.counter("y"), Some(3), "new metrics count from zero");
    assert_eq!(
        delta.gauge("depth"),
        Some(4),
        "a gauge carries its later level"
    );

    // Counter deltas saturate rather than wrap if a process restart ever
    // hands delta_since a fresher "earlier".
    assert_eq!(before.delta_since(&after).counter("x"), Some(0));
}

#[test]
fn concurrent_recorders_lose_nothing() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;

    let counter = Arc::new(Counter::new());
    let gauge = Arc::new(Gauge::new());
    let hist = Arc::new(LatencyHistogram::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let counter = Arc::clone(&counter);
            let gauge = Arc::clone(&gauge);
            let hist = Arc::clone(&hist);
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    if i % 2 == 0 {
                        gauge.inc();
                    } else {
                        gauge.dec();
                    }
                    // Distinct values per thread so bucket spread is real.
                    hist.record(t as u64 * 1_000 + (i % 97));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(counter.value(), total, "no increment may be lost");
    assert_eq!(gauge.value(), 0, "balanced inc/dec must cancel exactly");
    let snap = hist.snapshot();
    assert_eq!(snap.count, total);
    let expected_sum: u64 = (0..THREADS as u64)
        .map(|t| (0..PER_THREAD).map(|i| t * 1_000 + (i % 97)).sum::<u64>())
        .sum();
    assert_eq!(snap.sum_ns, expected_sum);

    // The same exactness holds through registry handles (get-or-create
    // returns the same cell for the same name).
    let registry = Registry::new();
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = registry.counter("shared");
            thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    registry.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(registry.snapshot().counter("shared"), Some(total));
}

#[test]
fn trace_ring_wraps_to_most_recent_events() {
    let ring = TraceRing::new(8);
    assert_eq!(ring.capacity(), 8);
    assert!(ring.drain().is_empty(), "fresh ring has no events");

    let kinds = [
        TraceKind::SnapshotRetry,
        TraceKind::ScanResume,
        TraceKind::RangeFallback,
        TraceKind::LenFallback,
        TraceKind::HelpRebuild,
        TraceKind::WalStall,
        TraceKind::CheckpointBegin,
        TraceKind::CheckpointEnd,
        TraceKind::IoRetry,
        TraceKind::DegradedEnter,
        TraceKind::DegradedResume,
    ];
    const EMITTED: u64 = 21;
    for i in 0..EMITTED {
        ring.emit(kinds[i as usize % kinds.len()], i as u16);
    }

    assert_eq!(ring.total(), EMITTED);
    assert_eq!(ring.dropped(), EMITTED - 8);
    let events = ring.drain();
    assert_eq!(events.len(), 8, "exactly the last `capacity` survive");
    for (offset, event) in events.iter().enumerate() {
        let seq = EMITTED - 8 + offset as u64;
        assert_eq!(event.seq, seq, "sequence numbers are contiguous");
        assert_eq!(event.arg, seq as u16, "payload survives the packing");
        assert_eq!(event.kind, kinds[seq as usize % kinds.len()]);
    }
    assert!(
        events.windows(2).all(|w| w[0].micros <= w[1].micros),
        "timestamps are non-decreasing for a single emitter"
    );

    let timeline = ring.render_timeline();
    assert!(timeline.starts_with("... 13 earlier events overwritten ..."));
    assert_eq!(
        timeline.lines().count(),
        9,
        "notice plus one line per event"
    );
}

#[test]
fn trace_ring_survives_concurrent_emitters() {
    let ring = Arc::new(TraceRing::new(64));
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                for i in 0..10_000u16 {
                    ring.emit(TraceKind::SnapshotRetry, i);
                    if i % 1_024 == 0 {
                        thread::sleep(Duration::from_micros(t));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(ring.total(), 40_000, "every claim lands, even when racing");
    let events = ring.drain();
    assert_eq!(events.len(), 64);
    assert!(
        events.windows(2).all(|w| w[1].seq == w[0].seq + 1),
        "a quiescent drain sees a contiguous suffix"
    );
}

/// The tree's counter names, without the shape prefix.
const TREE: &str = "failed_updates fast_failed_updates fast_point_reads fast_range_early_exits \
    fast_range_hits fast_range_retries helped_executions inserts range_fallbacks rebuilds \
    rebuilds_lost rebuilt_items removes replaces";
/// The store's own counter names, without the `store_` prefix.
const STORE: &str = "batch_commits commit_gate_waits len_fallbacks scan_resumes \
    snapshot_acquires snapshot_retries";
/// The durable layer's counter names, without the `durable_` prefix.
const DURABLE: &str = "auto_checkpoints checkpoints degraded_entries io_retries \
    recovery_replayed_ops recovery_replayed_records resumes segments_truncated wal_appends \
    wal_bytes wal_fsyncs wal_rotations wal_stalls";

/// Every sample `source` reports, as sorted `kind name` lines.
fn names(source: &dyn MetricsSource) -> Vec<String> {
    let m = source.metrics();
    let mut names: Vec<String> = (m.counters.iter().map(|c| format!("counter {}", c.name)))
        .chain(m.gauges.iter().map(|g| format!("gauge {}", g.name)))
        .chain(m.histograms.iter().map(|h| format!("histogram {}", h.name)))
        .collect();
    names.sort();
    names
}

/// `kind {prefix}{name}` for each name in the whitespace-separated `names`.
fn expect(kind: &str, prefix: &str, names: &str) -> Vec<String> {
    let names = names.split_whitespace();
    names.map(|n| format!("{kind} {prefix}{n}")).collect()
}

#[test]
fn metric_names_are_a_contract() {
    // The epoch shim's pool is process-wide: one unprefixed gauge, reported
    // by every tree and once by a store.
    let pool = || expect("gauge", "", "epoch_pooled_blocks");
    let tree = |p: &str| {
        let len = expect("gauge", p, "len");
        [expect("counter", p, TREE), len, pool()].concat()
    };
    let store = [
        expect("counter", "store_", STORE),
        expect("counter", "store_tree_", TREE),
        expect("gauge", "store_", "len shards"),
        pool(),
    ]
    .concat();
    let durable_levels = "degraded recovered_through seq_applied seq_durable";
    let durable_histograms = "checkpoint_duration_ns commit_latency_ns group_size";
    let durable = [
        expect("counter", "durable_", DURABLE),
        expect("gauge", "durable_", durable_levels),
        expect("histogram", "durable_", durable_histograms),
        store.clone(),
    ]
    .concat();
    let persistent = [
        expect("counter", "persistent_", "cas_retries versions"),
        expect("gauge", "persistent_", "len"),
    ]
    .concat();

    let dir = ScratchDir::new("metric-names");
    let durable_store = DurableStore::<i64>::open(dir.path()).unwrap();
    let sharded = ShardedStore::<i64>::with_boundaries(vec![0]);
    let sources: [(&dyn MetricsSource, Vec<String>); 5] = [
        (&WaitFreeTree::<i64>::new(), tree("tree_")),
        (&WaitFreeTrie::<i64>::new(), tree("trie_")),
        (&sharded, store),
        (&durable_store, durable),
        (&PersistentRangeTree::<i64>::new(), persistent),
    ];
    for (source, mut want) in sources {
        want.sort();
        assert_eq!(names(source), want);
    }
}

#[test]
fn store_tree_counters_are_the_sums_of_the_shards() {
    // One single-threaded op sequence, run on a four-shard store and, routed
    // by `shard_of`, on four standalone trees: each store op is one op on
    // the owning shard, so the shards count what the standalone trees count.
    let store: ShardedStore<i64> = ShardedStore::with_boundaries(vec![100, 200, 300]);
    let trees: Vec<WaitFreeTree<i64>> = (0..4).map(|_| WaitFreeTree::new()).collect();
    // Ascending inserts first, so every shard rebuilds.
    let ops = (0..400).map(|key| (0, key));
    for (op, key) in ops.chain((0..4_000).map(|i| (i % 6, i * 7_919 % 400))) {
        let tree = &trees[store.shard_of(&key)];
        let hi = key - key % 100 + 99; // a range inside the key's shard
        match op {
            0 | 1 => assert_eq!(store.insert(key, ()), tree.insert(key, ())),
            2 => assert_eq!(
                store.insert_or_replace(key, ()),
                tree.insert_or_replace(key, ())
            ),
            3 => assert_eq!(store.remove(&key), tree.remove(&key)),
            4 => assert_eq!(store.contains(&key), tree.contains(&key)),
            _ => assert_eq!(store.count(key, hi), tree.count(key, hi)),
        }
    }
    let folded = store.metrics();
    let per_tree: Vec<MetricsSnapshot> = trees.iter().map(|t| t.metrics()).collect();
    for name in TREE.split_whitespace() {
        let shards = per_tree.iter().map(|m| m.counter(&format!("tree_{name}")));
        let sum = shards.map(Option::unwrap).sum::<u64>();
        let store_name = format!("store_tree_{name}");
        assert_eq!(folded.counter(&store_name), Some(sum), "{name}");
    }
    // Every shard saw the traffic: the sums are neither 0 = 0 nor one
    // shard's reading.
    for name in ["inserts", "removes", "rebuilds", "fast_range_hits"] {
        let name = format!("tree_{name}");
        let every_shard = per_tree.iter().all(|m| m.counter(&name) > Some(0));
        assert!(every_shard, "{name}");
    }
}

#[test]
fn epoch_pool_gauge_sees_the_updaters_pools() {
    const UPDATERS: usize = 2;
    let tree: Arc<WaitFreeTree<i64>> =
        Arc::new(WaitFreeTree::from_entries((0..4_096).map(|k| (k, ()))));
    let done = Arc::new(std::sync::Barrier::new(UPDATERS + 1));
    let read = Arc::new(std::sync::Barrier::new(UPDATERS + 1));
    let updaters: Vec<_> = (0..UPDATERS as i64)
        .map(|t| {
            let (tree, done, read) = (Arc::clone(&tree), Arc::clone(&done), Arc::clone(&read));
            thread::spawn(move || {
                for i in 0..20_000 {
                    let key = (i * 7_919 + t) % 8_192;
                    if i % 2 == 0 {
                        tree.insert(key, ());
                    } else {
                        tree.remove(&key);
                    }
                }
                // Three flushes reclaim the thread's last bags into its pool.
                for _ in 0..3 {
                    crossbeam_epoch::pin().flush();
                }
                let pooled = crossbeam_epoch::thread_pooled_blocks();
                done.wait();
                read.wait();
                pooled
            })
        })
        .collect();
    done.wait();
    let gauge = tree.metrics().gauge("epoch_pooled_blocks").unwrap();
    read.wait();
    let pooled: usize = updaters.into_iter().map(|u| u.join().unwrap()).sum();
    assert!(
        pooled > 0,
        "20 000 updates per thread left nothing to reuse"
    );
    // Other tests of this binary may keep pools of their own.
    assert!(gauge >= pooled as i64, "gauge {gauge} < {pooled} pooled");
}
