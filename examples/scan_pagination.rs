//! Paginated range consumption with `RangeScan` cursors.
//!
//! A client listing a large keyspace slice cannot hold the whole answer in
//! memory — it wants **pages**. This example runs an inventory-style store
//! (order id → quantity) under concurrent writers and serves the classic
//! paginated listing with a streaming cursor:
//!
//! 1. `scan` opens a cursor anchored at a snapshot token; `next_chunk(PAGE)`
//!    yields one bounded page at a time, resuming strictly after the last
//!    key of the previous page — no page ever repeats or reorders a key,
//!    no matter how hard the writers race the reader;
//! 2. a drain that finishes with `ScanConsistency::Snapshot` is provably
//!    equal to one `collect_range_at` of the cursor's token: the pages,
//!    though read far apart in time, form ONE atomic listing;
//! 3. when writers do disturb the scanned suffix, the cursor re-anchors
//!    transparently and reports `ScanConsistency::Resumed` — the caller
//!    decides whether "consistent pages, evolving world" is acceptable or
//!    whether to retry via `scan_snapshot` once traffic allows.
//!
//! Run with `cargo run --release --example scan_pagination`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use wait_free_range_trees::prelude::*;

const ORDERS: i64 = 50_000;
const PAGE: usize = 256;

fn main() {
    // An 8-shard store pre-filled with every even order id.
    let store: Arc<ShardedStore<i64, i64>> = Arc::new(ShardedStore::from_entries(
        (0..ORDERS).filter(|k| k % 2 == 0).map(|k| (k, 1)),
        8,
    ));

    let done = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut writes = 0u64;
                let mut next = 1 + 2 * w; // odd ids, disjoint per writer
                while !done.load(Ordering::Relaxed) {
                    if store.insert(next, 1) {
                        writes += 1;
                    } else {
                        store.remove(&next);
                    }
                    next = (next + 4) % ORDERS;
                }
                writes
            })
        })
        .collect();

    // The reader pages through the whole keyspace over and over, tallying
    // how its drains fared against the write storm.
    let mut pages = 0u64;
    let mut snapshot_drains = 0u64;
    let mut resumed_drains = 0u64;
    let mut drained_entries = 0u64;
    for _ in 0..40 {
        let mut cursor = store.scan(RangeSpec::all());
        let mut last_key = i64::MIN;
        loop {
            let page = cursor.next_chunk(PAGE);
            if page.is_empty() {
                break;
            }
            // Keyset pagination: every page picks up strictly after the
            // previous one, writers or not.
            assert!(page.first().unwrap().0 > last_key, "a page went backwards");
            assert!(
                page.windows(2).all(|p| p[0].0 < p[1].0),
                "a page repeated or reordered keys"
            );
            last_key = page.last().unwrap().0;
            pages += 1;
            drained_entries += page.len() as u64;
        }
        match cursor.consistency() {
            ScanConsistency::Snapshot => snapshot_drains += 1,
            ScanConsistency::Resumed => resumed_drains += 1,
        }
    }

    done.store(true, Ordering::Relaxed);
    let writes: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();

    // Quiescent: the retrying driver produces one atomic listing, and it
    // agrees with the one-shot range read and the front-riding len.
    let listing = store.scan_snapshot(RangeSpec::all(), PAGE);
    assert_eq!(listing.len() as u64, store.len());
    assert_eq!(
        listing,
        RangeRead::collect_range(&*store, RangeSpec::all()),
        "a snapshot drain equals one collect_range"
    );

    let metrics = store.metrics();
    let resumes = metrics.counter("store_scan_resumes").unwrap();
    let exits = metrics
        .counter("store_tree_fast_range_early_exits")
        .unwrap();
    println!("scan_pagination example");
    println!("  page size:                   {PAGE}");
    println!("  pages served:                {pages} ({drained_entries} entries)");
    println!(
        "  drains snapshot / resumed:   {snapshot_drains} / {resumed_drains} (under {writes} writes)"
    );
    println!("  cursor resumes (store):      {resumes}");
    println!("  chunk early exits (shards):  {exits}");
    println!("  final inventory size:        {}", listing.len());
    println!("ok: every page resumed exactly after the last, duplicates impossible");
}
