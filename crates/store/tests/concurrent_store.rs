//! Multi-threaded smoke tests for the sharded store.
//!
//! Writers commit two-phase batches from disjoint key stripes while readers
//! issue cross-shard aggregates; afterwards the quiescent store must equal
//! the union of what the writers committed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wft_api::{RangeScan, RangeSpec, ScanCursor};
use wft_obs::MetricsSource;
use wft_store::{ShardedStore, StoreConfig, StoreOp};

const WRITERS: i64 = 4;
const ROUNDS: i64 = 60;
const BATCH: i64 = 64;
const KEYSPACE: i64 = 1 << 16;

/// Writer `w` owns the keys congruent to `w` modulo [`WRITERS`]; batches of
/// upserts and deletes from each stripe commute with the other writers'.
fn writer_batch(w: i64, round: i64, rng: &mut StdRng) -> Vec<StoreOp<i64, i64>> {
    let mut keys = std::collections::HashSet::new();
    while (keys.len() as i64) < BATCH {
        keys.insert(rng.gen_range(0..KEYSPACE / WRITERS) * WRITERS + w);
    }
    keys.into_iter()
        .map(|key| {
            if (key ^ round) % 3 == 0 {
                StoreOp::Remove { key }
            } else {
                StoreOp::InsertOrReplace { key, value: round }
            }
        })
        .collect()
}

#[test]
fn concurrent_batches_from_disjoint_stripes_merge_correctly() {
    let store: Arc<ShardedStore<i64, i64>> = Arc::new(ShardedStore::from_entries_with_config(
        (0..KEYSPACE).step_by(16).map(|k| (k, -1)),
        8,
        StoreConfig::default(),
    ));
    let stop = Arc::new(AtomicBool::new(false));

    // Readers: cross-shard aggregates must never see impossible states.
    let readers: Vec<_> = (0..2)
        .map(|r| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(77 + r);
                let mut observations = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let lo = rng.gen_range(0..KEYSPACE / 2);
                    let hi = lo + rng.gen_range(0..KEYSPACE / 2);
                    let count = store.count(lo, hi);
                    assert!(count <= KEYSPACE as u64, "count out of bounds: {count}");
                    let narrow = store.collect_range(lo, lo + 256);
                    assert!(
                        narrow.windows(2).all(|w| w[0].0 < w[1].0),
                        "collect_range must stay sorted under concurrency"
                    );
                    observations += 1;
                }
                observations
            })
        })
        .collect();

    // Writers: each replays a deterministic batch stream from its stripe.
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(w as u64);
                for round in 0..ROUNDS {
                    let batch = writer_batch(w, round, &mut rng);
                    let outcomes = store.apply_batch(batch.clone()).unwrap();
                    assert_eq!(outcomes.len(), batch.len());
                }
            })
        })
        .collect();

    for writer in writers {
        writer.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        assert!(reader.join().unwrap() > 0, "readers must make progress");
    }

    // Replay the same deterministic streams sequentially into an oracle.
    let mut oracle: BTreeMap<i64, i64> = (0..KEYSPACE).step_by(16).map(|k| (k, -1)).collect();
    for w in 0..WRITERS {
        let mut rng = StdRng::seed_from_u64(w as u64);
        for round in 0..ROUNDS {
            for op in writer_batch(w, round, &mut rng) {
                match op {
                    StoreOp::InsertOrReplace { key, value } => {
                        oracle.insert(key, value);
                    }
                    StoreOp::Remove { key } => {
                        oracle.remove(&key);
                    }
                    _ => unreachable!("writer batches only upsert/remove"),
                }
            }
        }
    }

    store.check_invariants();
    let entries = store.entries_quiescent();
    let expected: Vec<(i64, i64)> = oracle.into_iter().collect();
    assert_eq!(entries.len(), expected.len());
    assert_eq!(entries, expected, "stripe union must match the oracle");
}

#[test]
fn rejected_batches_leave_concurrent_store_untouched() {
    let store: Arc<ShardedStore<i64>> =
        Arc::new(ShardedStore::from_entries((0..1024).map(|k| (k, ())), 4));
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                for i in 0..200 {
                    // Every batch is invalid: duplicate key 1_000_000 + t.
                    let dup = 1_000_000 + t;
                    let batch = vec![
                        StoreOp::Insert {
                            key: dup,
                            value: (),
                        },
                        StoreOp::Remove { key: i },
                        StoreOp::Insert {
                            key: dup,
                            value: (),
                        },
                    ];
                    assert!(store.apply_batch(batch).is_err());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(store.len(), 1024, "no rejected batch may mutate the store");
    assert_eq!(store.count(0, 2_000_000), 1024);
}

#[test]
fn large_cross_shard_batches_are_correct_under_contention() {
    // Every batch carries BATCH = 64 ops spread over the whole keyspace, so
    // it touches several shards, and the writers' commit windows over them
    // overlap.
    let store: Arc<ShardedStore<i64, i64>> = Arc::new(ShardedStore::from_entries(
        (0..KEYSPACE).step_by(16).map(|k| (k, 0)),
        4,
    ));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(900 + w as u64);
                for round in 0..20 {
                    let batch = writer_batch(w, round, &mut rng);
                    let shards: std::collections::HashSet<usize> =
                        batch.iter().map(|op| store.shard_of(op.key())).collect();
                    assert!(batch.len() >= 64 && shards.len() >= 2, "{shards:?}");
                    store.apply_batch(batch).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    store.check_invariants();
}

#[test]
fn a_reader_expires_at_most_once_per_update() {
    // A cut expires only when an update linearizes on a touched shard, and
    // the re-settled cut lies past that update, so one reader can count at
    // most one scan resume or snapshot retry per update applied. A shard
    // that is merely busy (front unchanged, an update still on its way
    // down) must be re-read at the same cut and count nothing — counted as
    // expiries, those outnumber the updates several times over.
    const UPDATES_PER_WRITER: u64 = 30_000;
    let store: Arc<ShardedStore<i64, i64>> = Arc::new(ShardedStore::from_entries(
        (0..KEYSPACE).step_by(2).map(|k| (k, k)),
        8,
    ));
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xB057 + w);
                for _ in 0..UPDATES_PER_WRITER {
                    // Hits and misses alike: a failed update takes a
                    // timestamp and moves the front too.
                    let key = rng.gen_range(0..KEYSPACE);
                    if rng.gen_bool(0.5) {
                        store.insert(key, key);
                    } else {
                        store.remove(&key);
                    }
                }
            })
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0x5CA9);
    let mut drains = 0u64;
    while writers.iter().any(|w| !w.is_finished()) {
        let lo = rng.gen_range(0..KEYSPACE / 2);
        let count = store.count(lo, lo + KEYSPACE / 4);
        assert!(count <= (KEYSPACE / 4 + 1) as u64);
        let listed = store.collect_range(lo, lo + 2048);
        assert!(listed.windows(2).all(|w| w[0].0 < w[1].0));
        let drained = store.scan(RangeSpec::inclusive(lo, lo + 8192)).drain(256);
        assert!(drained.windows(2).all(|w| w[0].0 < w[1].0));
        drains += 1;
    }
    for w in writers {
        w.join().unwrap();
    }
    let metrics = store.metrics();
    let resumes = metrics.counter("store_scan_resumes").unwrap();
    let retries = metrics.counter("store_snapshot_retries").unwrap();
    assert!(drains > 0);
    assert!(
        resumes + retries <= 2 * UPDATES_PER_WRITER,
        "{resumes} resumes + {retries} retries over {drains} read rounds against {} updates",
        2 * UPDATES_PER_WRITER
    );
    store.check_invariants();
}
