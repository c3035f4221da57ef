//! Consistent cross-shard snapshots with `SnapshotRead`.
//!
//! A sharded store answers every point and range query linearizably, but an
//! *application invariant* often spans several queries: "the shard counts
//! must sum to the total", "the histogram must describe one instant",
//! "count and listing must agree". This example runs concurrent writers
//! that upsert **pairs** of matching keys — a debit at key `k` and a credit
//! at `k + OFFSET`, in different shards, as two separate atomic upserts, so
//! each *pair* has a non-atomic in-flight window — and shows:
//!
//! 1. plain `count` calls taken one after another can disagree about the
//!    world (they are two snapshots);
//! 2. `SnapshotRead::snapshot_counts` answers all ranges from ONE acquired
//!    front, so the invariant "debits == credits modulo the in-flight pair"
//!    becomes checkable;
//! 3. `snapshot_count_and_collect` returns an aggregate and a listing that
//!    provably describe the same instant.
//!
//! Run with `cargo run --release --example snapshot_read`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use wait_free_range_trees::prelude::*;

const PAIRS: i64 = 2_000;
/// Debits live in `[0, PAIRS)`, credits in `[OFFSET, OFFSET + PAIRS)` — the
/// two halves land in different shards.
const OFFSET: i64 = 1_000_000;

fn main() {
    // Four shards; the boundary at OFFSET/2 splits debits from credits.
    let store: Arc<ShardedStore<i64, i64>> = Arc::new(ShardedStore::with_boundaries(vec![
        PAIRS / 2,
        OFFSET / 2,
        OFFSET + PAIRS / 2,
    ]));

    let done = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..PAIRS {
                    if i % 2 == w {
                        // The debit and the credit are two separate atomic
                        // upserts — there is a window where only one exists.
                        store.insert_or_replace(i, -1);
                        store.insert_or_replace(OFFSET + i, 1);
                    }
                }
            })
        })
        .collect();

    // Snapshot readers: count debits and credits FROM ONE FRONT. The two
    // counts may differ by the pairs currently mid-flight (each writer has
    // at most one), but they can never drift apart arbitrarily — and the
    // count of one snapshot always equals its listing's length.
    let reader = {
        let store = Arc::clone(&store);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut snapshots = 0u64;
            let mut max_imbalance = 0i64;
            while !done.load(Ordering::Relaxed) {
                let counts = store.snapshot_counts(&[
                    RangeSpec::from_bounds(0..PAIRS),
                    RangeSpec::from_bounds(OFFSET..OFFSET + PAIRS),
                ]);
                let imbalance = (counts[0] as i64 - counts[1] as i64).abs();
                assert!(
                    imbalance <= 2,
                    "a single-front snapshot can only see the writers' in-flight pairs \
                     (got {} debits vs {} credits)",
                    counts[0],
                    counts[1]
                );
                max_imbalance = max_imbalance.max(imbalance);

                let (count, entries) =
                    store.snapshot_count_and_collect(RangeSpec::from_bounds(0..PAIRS));
                assert_eq!(count as usize, entries.len(), "one snapshot, one answer");
                snapshots += 1;
            }
            (snapshots, max_imbalance)
        })
    };

    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    let (snapshots, max_imbalance) = reader.join().unwrap();

    // Quiescent: every pair committed, the books balance exactly.
    let final_counts = store.snapshot_counts(&[
        RangeSpec::from_bounds(0..PAIRS),
        RangeSpec::from_bounds(OFFSET..OFFSET + PAIRS),
    ]);
    assert_eq!(final_counts, vec![PAIRS as u64, PAIRS as u64]);

    let metrics = store.metrics();
    let counter = |name| metrics.counter(name).unwrap();
    println!("snapshot_read example");
    println!("  pairs written:               {PAIRS}");
    println!("  snapshots taken:             {snapshots}");
    println!("  max observed imbalance:      {max_imbalance} (bounded by in-flight pairs)");
    println!(
        "  front acquires / retries:    {} / {}",
        counter("store_snapshot_acquires"),
        counter("store_snapshot_retries")
    );
    println!(
        "  final debits / credits:      {} / {}",
        final_counts[0], final_counts[1]
    );
    println!("ok: every snapshot described one instant of the sharded store");
}
