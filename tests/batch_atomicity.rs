//! Property test: cross-shard batches are all-or-nothing.
//!
//! The sharded store's gated batch commit claims that a batch
//! touching several shards becomes visible **atomically**: any reader
//! whose cut validates sees either every one of the batch's effects or
//! none of them. This suite attacks the claim directly: striped writers
//! keep rewriting a fixed *stripe* of keys — one key per shard, always the
//! same value across the whole stripe within one batch — while concurrent
//! readers snapshot the stripe through every cut-validated read path:
//!
//! * `collect_range` (the native cross-shard cut read),
//! * `collect_range_at` under an acquired [`SnapshotToken`] (a read at
//!   the per-shard cut the token sums),
//! * a [`ScanCursor`] drained to completion, whenever the drain reports
//!   [`ScanConsistency::Snapshot`].
//!
//! A half-applied batch would surface as a stripe whose keys carry two
//! different values inside one validated read. Before the commit gate,
//! that interleaving was reachable (and documented); now any occurrence
//! is a test failure. Each proptest case is a fresh store with its own
//! shard count, writer count, and schedule seed — 256 cases, zero
//! tolerated violations.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use proptest::prelude::*;

use wait_free_range_trees::api::{RangeScan, RangeSpec, ScanConsistency, ScanCursor, SnapshotRead};
use wait_free_range_trees::obs::MetricsSource;
use wait_free_range_trees::{ShardedStore, StoreOp};

/// Key universe the stripe spreads over. Large enough that the store's
/// range partition puts consecutive stripe keys on different shards.
const UNIVERSE: i64 = 1 << 20;

/// Builds a stripe of `width` keys spread uniformly across the universe
/// and verifies (via the store's own router) that it spans every shard.
fn stripe_keys(width: usize) -> Vec<i64> {
    (0..width as i64)
        .map(|i| i * (UNIVERSE / width as i64) + 17)
        .collect()
}

/// One whole-stripe rewrite: every key set to `value` in a single batch.
fn stripe_batch(stripe: &[i64], value: i64) -> Vec<StoreOp<i64, i64>> {
    stripe
        .iter()
        .map(|&key| StoreOp::InsertOrReplace { key, value })
        .collect()
}

/// Returns the number of atomicity violations a slice of observed stripe
/// entries contains: 0 when every key carries the same value (and none is
/// missing), 1 otherwise.
fn torn(entries: &[(i64, i64)], stripe_len: usize) -> u64 {
    if entries.len() != stripe_len {
        return 1;
    }
    let first = entries[0].1;
    u64::from(entries.iter().any(|&(_, v)| v != first))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Striped writers vs snapshot readers: every cut-validated read of
    /// the stripe is all-or-nothing, across shard counts, writer counts,
    /// and schedules.
    #[test]
    fn cross_shard_batches_are_all_or_nothing(
        shards in 2usize..=6,
        writers in 1usize..=3,
        rounds in 8u64..40,
    ) {
        // Two stripe keys per shard: the equi-depth split of the prefill
        // then puts a shard boundary inside the stripe, so every batch is
        // genuinely cross-shard.
        let stripe = stripe_keys(shards * 2);
        let store: ShardedStore<i64, i64> =
            ShardedStore::from_entries(stripe.iter().map(|&k| (k, 0)), shards);
        // The stripe must genuinely cross shards for the test to bite.
        let touched: std::collections::HashSet<usize> =
            stripe.iter().map(|k| store.shard_of(k)).collect();
        prop_assert!(touched.len() >= 2, "stripe spans one shard; widen it");

        let done = AtomicBool::new(false);
        let violations = AtomicU64::new(0);
        let snapshot_reads = AtomicU64::new(0);
        let span = RangeSpec::inclusive(0, UNIVERSE);

        std::thread::scope(|scope| {
            let writer_handles: Vec<_> = (0..writers)
                .map(|w| {
                    let store = &store;
                    let stripe = &stripe;
                    scope.spawn(move || {
                        for round in 0..rounds {
                            // Tag values by writer and round so any torn
                            // read is attributable; the whole stripe is
                            // one value per batch.
                            let value = ((w as i64) << 32) | (round as i64 + 1);
                            store
                                .apply_batch(stripe_batch(stripe, value))
                                .expect("a stripe batch validates");
                        }
                    })
                })
                .collect();

            // One reader hammers all three cut-validated paths until the
            // writers finish, then once more for a quiescent final look.
            let reader_handle = scope.spawn(|| {
                let mut last_pass = false;
                loop {
                    // Native cross-shard cut read.
                    let entries = store.collect_range(0, UNIVERSE);
                    violations.fetch_add(torn(&entries, stripe.len()), Ordering::Relaxed);

                    // Snapshot read at the token's cut; a token expired by
                    // churn reads nothing — only validated reads count.
                    let token = store.acquire_snapshot();
                    if let Some(entries) = store.collect_range_at(&token, span) {
                        violations.fetch_add(torn(&entries, stripe.len()), Ordering::Relaxed);
                        snapshot_reads.fetch_add(1, Ordering::Relaxed);
                    }

                    // Streaming drain: a `Snapshot` drain promises exactly
                    // one instant; a `Resumed` one does not claim
                    // atomicity and is skipped.
                    let mut cursor = store.scan(span);
                    let entries = cursor.drain(3);
                    if cursor.consistency() == ScanConsistency::Snapshot {
                        violations.fetch_add(torn(&entries, stripe.len()), Ordering::Relaxed);
                        snapshot_reads.fetch_add(1, Ordering::Relaxed);
                    }

                    if last_pass {
                        break;
                    }
                    last_pass = done.load(Ordering::Acquire);
                }
            });

            for handle in writer_handles {
                handle.join().expect("writer thread");
            }
            done.store(true, Ordering::Release);
            reader_handle.join().expect("reader thread");
        });

        prop_assert_eq!(
            violations.load(Ordering::Relaxed),
            0,
            "a cut-validated read observed a half-applied stripe batch"
        );
        // The final quiescent pass always validates, so at least one
        // snapshot-consistent read really ran.
        prop_assert!(snapshot_reads.load(Ordering::Relaxed) > 0);
        store.check_invariants();
    }
}

/// The deterministic single-thread complement: interleave stripe batches
/// with reads and assert the stripe is uniform after every commit, through
/// repeated `ScanCursor` drains.
#[test]
fn stripe_is_uniform_through_repeated_scan_drains() {
    let stripe = stripe_keys(6);
    let store: ShardedStore<i64, i64> =
        ShardedStore::from_entries(stripe.iter().map(|&k| (k, 0)), 4);
    for round in 1..=64i64 {
        store
            .apply_batch(stripe_batch(&stripe, round))
            .expect("stripe batch validates");
        for chunk in [1usize, 2, 5] {
            let mut cursor = store.scan(RangeSpec::inclusive(0, UNIVERSE));
            let entries = cursor.drain(chunk);
            assert_eq!(cursor.consistency(), ScanConsistency::Snapshot);
            assert_eq!(entries.len(), stripe.len());
            assert!(
                entries.iter().all(|&(_, v)| v == round),
                "round {round}: drain (chunk {chunk}) saw a torn stripe: {entries:?}"
            );
        }
    }
    assert!(store.metrics().counter("store_batch_commits") >= Some(64));
}
