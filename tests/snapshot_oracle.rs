//! Cross-shard snapshot reads against their oracles.
//!
//! PR 4 gave `ShardedStore` a **global timestamp front**: cross-shard
//! `count` / `range_agg` / `collect_range` acquire one settled per-shard
//! watermark cut and read every touched shard at it, and `SnapshotRead`
//! exposes consistent multi-range reads on top. These tests pin the front
//! to three oracles, under both per-shard `ReadPath` settings:
//!
//! * a `BTreeMap` replaying the same operation sequence (sequential
//!   proptest over token acquisition/expiry and `*_at` reads);
//! * under real concurrency, **striped writers**: each writer owns a key
//!   residue class that spans *every* shard and inserts its keys in
//!   ascending order, so any single-front snapshot must see a gap-free
//!   prefix of each writer's sequence — a torn (per-shard stitched) read
//!   shows up as a hole;
//! * internal agreement: each snapshot's `count` equals its
//!   `collect_range` length, and per-reader counts are monotone in an
//!   insert-only workload.
//!
//! (The adversarial interleavings are machine-checked separately by the
//! `SnapshotCounts` mix in `tests/linearizability.rs`.)

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wait_free_range_trees::prelude::*;

mod common;
use common::TreeImpl;

fn store_config(read_path: ReadPath) -> StoreConfig {
    StoreConfig {
        tree: TreeConfig {
            read_path,
            ..TreeConfig::default()
        },
        ..StoreConfig::default()
    }
}

/// One step of the sequential oracle workload.
#[derive(Debug, Clone)]
enum Step {
    Insert(i64, i64),
    Replace(i64, i64),
    Remove(i64),
    Count(i64, i64),
    Collect(i64, i64),
    /// Acquire a token, read `range_agg` and `collect` of the range against
    /// it, and check both against the oracle (the store is quiescent between
    /// steps, so the freshly acquired token never expires here; expiry is
    /// exercised by `front_expiry_is_exact` and the concurrent tests).
    Snapshot(i64, i64),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let key = -60i64..60;
    prop_oneof![
        (key.clone(), any::<i64>()).prop_map(|(k, v)| Step::Insert(k, v)),
        (key.clone(), any::<i64>()).prop_map(|(k, v)| Step::Replace(k, v)),
        key.clone().prop_map(Step::Remove),
        (key.clone(), key.clone()).prop_map(|(a, b)| Step::Count(a, b)),
        (key.clone(), key.clone()).prop_map(|(a, b)| Step::Collect(a, b)),
        (key.clone(), key).prop_map(|(a, b)| Step::Snapshot(a, b)),
    ]
}

fn oracle_count(oracle: &BTreeMap<i64, i64>, a: i64, b: i64) -> u64 {
    if a > b {
        0
    } else {
        oracle.range(a..=b).count() as u64
    }
}

fn oracle_entries(oracle: &BTreeMap<i64, i64>, a: i64, b: i64) -> Vec<(i64, i64)> {
    if a > b {
        Vec::new()
    } else {
        oracle.range(a..=b).map(|(k, v)| (*k, *v)).collect()
    }
}

proptest! {
    /// Front-based cross-shard reads and token `*_at` reads agree with a
    /// `BTreeMap` replay over random operation sequences, on both per-shard
    /// read paths. Boundaries at -20/0/20 put the proptest key domain
    /// `[-60, 60)` across four shards.
    #[test]
    fn snapshot_reads_agree_with_btreemap(
        steps in proptest::collection::vec(step_strategy(), 1..100),
        descriptor_reads in any::<bool>(),
    ) {
        let read_path = if descriptor_reads { ReadPath::Descriptor } else { ReadPath::Fast };
        let store: ShardedStore<i64, i64> =
            ShardedStore::with_boundaries_and_config(vec![-20, 0, 20], store_config(read_path));
        let mut oracle = BTreeMap::new();
        for step in &steps {
            match *step {
                Step::Insert(k, v) => {
                    let expect = !oracle.contains_key(&k);
                    if expect {
                        oracle.insert(k, v);
                    }
                    prop_assert_eq!(store.insert(k, v), expect);
                }
                Step::Replace(k, v) => {
                    let expect = oracle.insert(k, v);
                    prop_assert_eq!(store.insert_or_replace(k, v), expect);
                }
                Step::Remove(k) => {
                    let expect = oracle.remove(&k);
                    prop_assert_eq!(store.remove_entry(&k), expect);
                }
                Step::Count(a, b) => {
                    prop_assert_eq!(store.count(a, b), oracle_count(&oracle, a, b));
                    prop_assert_eq!(
                        store.snapshot_counts(&[RangeSpec::inclusive(a, b)])[0],
                        oracle_count(&oracle, a, b)
                    );
                }
                Step::Collect(a, b) => {
                    prop_assert_eq!(store.collect_range(a, b), oracle_entries(&oracle, a, b));
                }
                Step::Snapshot(a, b) => {
                    let token: SnapshotToken = store.acquire_snapshot();
                    prop_assert!(store.snapshot_valid(&token));
                    prop_assert_eq!(
                        store.range_agg_at(&token, RangeSpec::inclusive(a, b)),
                        Some(oracle_count(&oracle, a, b))
                    );
                    prop_assert_eq!(
                        store.collect_range_at(&token, RangeSpec::inclusive(a, b)),
                        Some(oracle_entries(&oracle, a, b))
                    );
                    // The trait surface sees the same state.
                    let (count, entries) = store
                        .snapshot_count_and_collect(RangeSpec::inclusive(a, b));
                    prop_assert_eq!(count, oracle_count(&oracle, a, b));
                    prop_assert_eq!(entries, oracle_entries(&oracle, a, b));
                }
            }
        }
        store.check_invariants();
    }
}

/// A token expires exactly when a shard linearizes an update that changes
/// it, and a fresh token sees the new state.
#[test]
fn front_expiry_is_exact() {
    let store: ShardedStore<i64> = ShardedStore::from_entries((0..400).map(|k| (k, ())), 4);
    let all = RangeSpec::inclusive(0, 399);
    let token = store.acquire_snapshot();
    assert_eq!(store.range_agg_at(&token, all), Some(400));

    // A *failed* insert or remove is answered at a presence load and takes
    // no timestamp: the token stays valid and still answers.
    assert!(!store.insert(5, ()));
    assert!(!store.remove(&1_000));
    assert!(store.snapshot_valid(&token));
    assert_eq!(store.range_agg_at(&token, all), Some(400));

    let fresh = store.acquire_snapshot();
    store.remove(&5);
    store.remove(&300);
    let newest = store.acquire_snapshot();
    assert_eq!(store.range_agg_at(&newest, all), Some(398));
    assert_eq!(store.range_agg_at(&fresh, all), None);
    assert_eq!(store.range_agg_at(&token, all), None);

    // Under `ReadPath::Descriptor` a failed insert still occupies a
    // timestamp on its shard: the token is conservative and expires.
    let store: ShardedStore<i64> = ShardedStore::from_entries_with_config(
        (0..400).map(|k| (k, ())),
        4,
        store_config(ReadPath::Descriptor),
    );
    let token = store.acquire_snapshot();
    assert_eq!(store.range_agg_at(&token, all), Some(400));
    assert!(!store.insert(5, ()));
    assert_eq!(store.range_agg_at(&token, all), None);
}

/// Striped concurrent writers + snapshot readers: every writer inserts its
/// residue class `{w, w + W, w + 2W, …}` — which spans every shard — in
/// ascending order, so each snapshot must observe, per writer, a gap-free
/// prefix; `count` and `collect_range` of one snapshot must agree; and
/// per-reader total counts must be monotone. Run under both per-shard read
/// paths.
#[test]
fn concurrent_snapshots_see_gap_free_writer_prefixes() {
    const WRITERS: i64 = 3;
    const PER_WRITER: i64 = 400;
    const KEYS: i64 = WRITERS * PER_WRITER;
    for read_path in [ReadPath::Fast, ReadPath::Descriptor] {
        // Boundaries chosen so every residue class crosses all shards.
        let store: Arc<ShardedStore<i64>> = Arc::new(ShardedStore::with_boundaries_and_config(
            vec![KEYS / 4, KEYS / 2, 3 * KEYS / 4],
            store_config(read_path),
        ));
        let done = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        assert!(store.insert(w + i * WRITERS, ()));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let store = Arc::clone(&store);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut rng = StdRng::seed_from_u64(0x5A47 + r as u64);
                    while !done.load(Ordering::Relaxed) {
                        // One snapshot: the full listing plus the total count.
                        let (count, entries) =
                            store.snapshot_count_and_collect(RangeSpec::inclusive(0, KEYS - 1));
                        assert_eq!(
                            count,
                            entries.len() as u64,
                            "count and collect of one snapshot disagree"
                        );
                        assert!(
                            count >= last,
                            "snapshot count went backwards ({last} -> {count}) while insert-only"
                        );
                        last = count;
                        // Per-writer prefixes must be gap-free: a hole means
                        // the read tore across shards.
                        let mut next_expected = [0i64; WRITERS as usize];
                        for (key, ()) in &entries {
                            let w = (key % WRITERS) as usize;
                            let index = key / WRITERS;
                            assert_eq!(
                                index, next_expected[w],
                                "writer {w}'s prefix has a hole before key {key}"
                            );
                            next_expected[w] += 1;
                        }
                        // Also exercise narrower cross-shard snapshots.
                        let lo = rng.gen_range(0..KEYS / 2);
                        let counts = store.snapshot_counts(&[
                            RangeSpec::inclusive(0, KEYS - 1),
                            RangeSpec::inclusive(0, lo),
                            RangeSpec::inclusive(lo + 1, KEYS - 1),
                        ]);
                        assert_eq!(
                            counts[0],
                            counts[1] + counts[2],
                            "subrange counts of one snapshot must sum to the total"
                        );
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(store.len(), KEYS as u64);
        assert_eq!(store.count(0, KEYS - 1), KEYS as u64);
        assert!(
            store.metrics().counter("store_snapshot_acquires") > Some(0),
            "snapshot reads must have acquired fronts"
        );
        store.check_invariants();
    }
}

/// A scalar token keeps reading the cut it was minted at while writers move
/// the store on: every `Some` from `count_at`, `range_agg_at` or
/// `collect_range_at` equals the state at mint, never the state the shards
/// are in when the read runs. Writers insert and remove odd keys and
/// rewrite the values of even ones inside the read ranges on every shard;
/// readers answer one round before the writers start (so `Some` answers
/// are certain) and keep reading until the writers are done, after which
/// the token has expired and every read is `None`.
#[test]
fn token_reads_answer_the_state_at_mint_under_writes() {
    const KEYS: i64 = 4000;
    const WRITERS: i64 = 2;
    const READERS: usize = 2;
    const ROUNDS: usize = 30;
    let store: Arc<ShardedStore<i64, i64, Pair<Size, Sum>>> =
        Arc::new(ShardedStore::with_boundaries(vec![1000, 2000, 3000]));
    let mut oracle = BTreeMap::new();
    for k in (0..KEYS).step_by(2) {
        store.insert(k, k);
        oracle.insert(k, k);
    }
    // All four shards, three of them, and one alone.
    let ranges = [(0, KEYS - 1), (500, 2600), (1100, 1900)];
    // Per range: the count, the `(count, sum)` aggregate and the listing.
    let expected: Vec<_> = ranges
        .iter()
        .map(|&(a, b)| {
            let entries = oracle_entries(&oracle, a, b);
            let sum: i128 = entries.iter().map(|&(_, v)| v as i128).sum();
            (entries.len() as u64, (entries.len() as u64, sum), entries)
        })
        .collect();
    let token = store.acquire_snapshot();
    let read_round = |store: &ShardedStore<i64, i64, Pair<Size, Sum>>| -> (usize, usize) {
        let (mut some, mut none) = (0, 0);
        for (&(a, b), (count, agg, entries)) in ranges.iter().zip(&expected) {
            let range = RangeSpec::inclusive(a, b);
            match store.count_at(&token, range) {
                Some(got) => {
                    assert_eq!(got, *count, "count_at [{a}, {b}] left the minted cut");
                    some += 1;
                }
                None => none += 1,
            }
            match store.range_agg_at(&token, range) {
                Some(got) => {
                    assert_eq!(got, *agg, "range_agg_at [{a}, {b}] left the minted cut");
                    some += 1;
                }
                None => none += 1,
            }
            match store.collect_range_at(&token, range) {
                Some(got) => {
                    assert!(
                        got == *entries,
                        "collect_range_at [{a}, {b}] left the minted cut: {} entries, {} at mint",
                        got.len(),
                        entries.len()
                    );
                    some += 1;
                }
                None => none += 1,
            }
        }
        (some, none)
    };
    let start = std::sync::Barrier::new(READERS + WRITERS as usize);
    let finished = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (store, start, finished) = (&store, &start, &finished);
            scope.spawn(move || {
                start.wait();
                // Writer `w` owns the keys whose pair index is `w` modulo
                // `WRITERS`, spread over every shard by the stride.
                let owned = move |k: &i64| (k / 2) % WRITERS == w;
                for round in 0..ROUNDS as i64 {
                    for k in (1..KEYS).step_by(38).filter(owned) {
                        assert!(store.insert(k, k));
                    }
                    for k in (0..KEYS).step_by(46).filter(owned) {
                        store.insert_or_replace(k, k + round + 1);
                    }
                    for k in (1..KEYS).step_by(38).filter(owned) {
                        assert!(store.remove(&k));
                    }
                }
                // Leave the store in a state unlike the minted one.
                for k in (1..KEYS).step_by(38).filter(owned) {
                    assert!(store.insert(k, k));
                }
                finished.fetch_add(1, Ordering::Release);
            });
        }
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let (store, start, finished, read_round) = (&store, &start, &finished, &read_round);
                scope.spawn(move || {
                    let (first, none) = read_round(store);
                    assert_eq!(none, 0, "no writer has started: every token read answers");
                    start.wait();
                    let mut answered = first;
                    while finished.load(Ordering::Acquire) < WRITERS as usize {
                        answered += read_round(store).0;
                    }
                    answered
                })
            })
            .collect();
        for reader in readers {
            assert!(reader.join().unwrap() >= 3 * ranges.len());
        }
    });
    assert!(!store.snapshot_valid(&token));
    assert_eq!(
        read_round(&store),
        (0, 3 * ranges.len()),
        "the token expired"
    );
    store.check_invariants();
}

/// The tree's own `SnapshotRead` at its timestamp front: token reads are mutually
/// consistent and expire on any update, for tree and trie alike.
#[test]
fn single_tree_snapshot_tokens_expire_on_update() {
    let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..64).map(|k| (k, ())));
    let token = tree.acquire_snapshot();
    assert_eq!(tree.count_at(&token, RangeSpec::all()), Some(64));
    assert_eq!(
        tree.collect_range_at(&token, RangeSpec::from_bounds(0..8))
            .map(|v| v.len()),
        Some(8)
    );
    tree.insert(1000, ());
    assert!(!tree.snapshot_valid(&token));
    assert_eq!(tree.count_at(&token, RangeSpec::all()), None);

    let trie: WaitFreeTrie<u64> = WaitFreeTrie::from_entries((0..64u64).map(|k| (k, ())));
    let token = trie.acquire_snapshot();
    assert_eq!(trie.range_agg_at(&token, RangeSpec::all()), Some(64));
    trie.remove(&5);
    assert_eq!(trie.range_agg_at(&token, RangeSpec::all()), None);
}

/// Every snapshot backend in the workspace answers the snapshot drivers
/// coherently (the timestamp front for the tree and trie, the per-shard cut
/// for the store): halves sum to the total even while quiescent state is
/// all we can assert uniformly.
#[test]
fn all_backends_answer_snapshot_drivers() {
    let prefill: Vec<i64> = (0..100).collect();
    for imp in TreeImpl::ALL {
        let Some(set) = imp.build_snapshot(&prefill, 4) else {
            continue;
        };
        let (a, b) = set.snapshot_count_pair(0, 49, 50, 99);
        assert_eq!(a + b, 100, "{}: halves must sum to the total", imp.name());
    }
}
