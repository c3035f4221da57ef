//! Streaming scan cursors against their oracles.
//!
//! The `RangeScan` API promises three things (see `wft-api::scan`):
//! ascending duplicate-free keyset pagination no matter what writers do, a
//! full `ScanConsistency::Snapshot` drain equal to one `collect_range_at`
//! of the cursor's token, and transparent suffix-only resumption otherwise.
//! These tests pin all three:
//!
//! * a proptest replays random operation sequences against a `BTreeMap`
//!   and drains cursors at varied chunk sizes (including `limit == 1` and
//!   `limit > answer`) on the sharded store under both per-shard read
//!   paths — every quiescent drain must equal the oracle listing and stay
//!   `Snapshot`;
//! * under real concurrency, striped writers insert residue classes that
//!   span every shard while readers page through the whole keyspace: a
//!   torn chunk would surface as a duplicate or a backwards step, and a
//!   drain that claims `Snapshot` must additionally show gap-free
//!   per-writer prefixes (the same oracle the one-shot snapshot reads are
//!   held to);
//! * the `O(log N + limit)` chunk primitive is observed through the new
//!   `fast_range_early_exits` counter on tree and trie.
//!
//! (Adversarial interleavings of whole drains are machine-checked by the
//! `ChunkedScan` op in `tests/linearizability.rs`.)

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wait_free_range_trees::core::scan::READAHEAD_CAP;
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

fn oracle_entries(oracle: &BTreeMap<i64, i64>, a: i64, b: i64) -> Vec<(i64, i64)> {
    if a > b {
        Vec::new()
    } else {
        oracle.range(a..=b).map(|(k, v)| (*k, *v)).collect()
    }
}

/// One step of the sequential oracle workload.
#[derive(Debug, Clone)]
enum Step {
    Insert(i64, i64),
    Replace(i64, i64),
    Remove(i64),
    /// Drain one cursor over `[a, b]` in chunks of the given size.
    Scan(i64, i64, usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let key = -60i64..60;
    prop_oneof![
        (key.clone(), any::<i64>()).prop_map(|(k, v)| Step::Insert(k, v)),
        (key.clone(), any::<i64>()).prop_map(|(k, v)| Step::Replace(k, v)),
        key.clone().prop_map(Step::Remove),
        // Chunk sizes deliberately include 1 (every entry its own page) and
        // 200 (always larger than the 120-key domain: one-page drains).
        (
            key.clone(),
            key,
            prop_oneof![Just(1usize), 2..6usize, Just(200)]
        )
            .prop_map(|(a, b, chunk)| Step::Scan(a, b, chunk)),
    ]
}

proptest! {
    /// Quiescent cursor drains equal the `BTreeMap` listing at every chunk
    /// size, stay `Snapshot` with zero resumes, and agree with
    /// `collect_range_at` of the cursor's own token — on both per-shard
    /// read paths of a four-shard store.
    #[test]
    fn store_drains_agree_with_btreemap(
        steps in proptest::collection::vec(step_strategy(), 1..80),
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
                Step::Scan(a, b, chunk) => {
                    let mut cursor = store.scan(RangeSpec::inclusive(a, b));
                    let token = cursor.token();
                    let mut drained: Vec<(i64, i64)> = Vec::new();
                    loop {
                        let page = cursor.next_chunk(chunk);
                        if page.is_empty() {
                            break;
                        }
                        prop_assert!(page.len() <= chunk, "page exceeded its limit");
                        drained.extend(page);
                    }
                    prop_assert_eq!(&drained, &oracle_entries(&oracle, a, b));
                    prop_assert_eq!(cursor.consistency(), ScanConsistency::Snapshot);
                    prop_assert_eq!(cursor.resumes(), 0);
                    prop_assert!(cursor.is_exhausted());
                    // The acceptance criterion verbatim: a Snapshot drain
                    // equals one collect_range_at of the same token.
                    prop_assert_eq!(
                        store.collect_range_at(&token, RangeSpec::inclusive(a, b)),
                        Some(drained)
                    );
                }
            }
        }
        store.check_invariants();
    }

    /// The same oracle for the single wait-free tree through the shared
    /// front cursor, plus the limited collect primitive directly: the
    /// `limit` smallest entries are always a prefix of the full listing.
    #[test]
    fn tree_drains_and_limited_collects_agree_with_btreemap(
        keys in proptest::collection::vec(-300i64..300, 0..120),
        a in -300i64..300,
        width in 0i64..600,
        chunk in 1usize..8,
        limit in 0usize..140,
    ) {
        let tree: WaitFreeTree<i64, i64> =
            WaitFreeTree::from_entries(keys.iter().map(|&k| (k, k * 3)));
        let oracle: BTreeMap<i64, i64> = keys.iter().map(|&k| (k, k * 3)).collect();
        let b = a.saturating_add(width);

        let (drained, consistency) = tree.scan_collect(RangeSpec::inclusive(a, b), chunk);
        prop_assert_eq!(&drained, &oracle_entries(&oracle, a, b));
        prop_assert_eq!(consistency, ScanConsistency::Snapshot);

        let limited = tree.collect_range_limited(a, b, limit);
        let full = oracle_entries(&oracle, a, b);
        let expect: Vec<(i64, i64)> = full.iter().take(limit).copied().collect();
        prop_assert_eq!(limited, expect);
    }
}

/// Chunk-size edge cases on a single tree: `limit == 0`, `limit == 1`,
/// `limit == answer` and `limit > answer` all paginate correctly.
#[test]
fn chunk_size_edges() {
    let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..10).map(|k| (k, ())));
    let mut cursor = tree.scan(RangeSpec::all());
    assert!(cursor.next_chunk(0).is_empty(), "limit 0 yields nothing");
    assert!(
        !cursor.is_exhausted(),
        "limit 0 must not advance the cursor"
    );
    assert_eq!(cursor.next_chunk(1), vec![(0, ())]);
    // Exactly the remaining answer: the cursor cannot yet prove exhaustion…
    assert_eq!(cursor.next_chunk(9).len(), 9);
    // …so one more (empty) chunk closes it.
    assert!(cursor.next_chunk(4).is_empty());
    assert!(cursor.is_exhausted());
    assert_eq!(cursor.consistency(), ScanConsistency::Snapshot);

    // limit > answer drains in one call and proves exhaustion immediately.
    let mut cursor = tree.scan(RangeSpec::from_bounds(3..7));
    assert_eq!(cursor.next_chunk(1000).len(), 4);
    assert!(cursor.is_exhausted());
}

/// Read-ahead at its cap: a range of more than `2 * READAHEAD_CAP` keys, so
/// the read-ahead doubles up to the cap and then stays there. Quiescent
/// drains at chunk sizes around the store's page (255, 256) and the cap
/// (4095, 4096, 4097), and one cursor whose limit changes on every call —
/// so chunks leave the buffer both whole (by move) and in part (by a slice
/// copy) — equal `collect_range` and `collect_range_at` of the cursor's
/// token, on a store and on a tree.
#[test]
fn read_ahead_edges_past_the_cap() {
    let keys = 2 * READAHEAD_CAP as i64 + 1500;
    let entries = || (0..keys + 100).map(|k| (k, 7 * k));
    let range = RangeSpec::inclusive(50, keys + 49);
    let store: ShardedStore<i64, i64> = ShardedStore::from_entries(entries(), 4);
    drains_past_the_cap("store", &store, range);
    let tree: WaitFreeTree<i64, i64> = WaitFreeTree::from_entries(entries());
    drains_past_the_cap("tree", &tree, range);
}

fn drains_past_the_cap<B>(name: &str, backend: &B, range: RangeSpec<i64>)
where
    B: RangeScan<i64, i64> + SnapshotRead<i64, i64>,
{
    let listed = RangeRead::collect_range(backend, range);
    assert!(listed.len() > 2 * READAHEAD_CAP);
    for chunk in [1, 255, 256, 4095, 4096, 4097] {
        let mut cursor = backend.scan(range);
        let token = cursor.token();
        let drained = cursor.drain(chunk);
        assert_eq!(cursor.consistency(), ScanConsistency::Snapshot);
        assert!(drained == listed, "{name}: chunk-{chunk} drain differs");
        assert!(
            backend.collect_range_at(&token, range).as_ref() == Some(&listed),
            "{name}: chunk-{chunk} token read differs"
        );
    }
    let limits = [1, 4097, 3, 256, 5000, 255, 4096, 2, 10_000, 4095, 7];
    let mut cursor = backend.scan(range);
    let token = cursor.token();
    let mut drained: Vec<(i64, i64)> = Vec::new();
    for &limit in limits.iter().cycle() {
        let page = cursor.next_chunk(limit);
        if page.is_empty() {
            break;
        }
        assert!(
            page.len() == limit || drained.len() + page.len() == listed.len(),
            "{name}: a page of {} entries for a limit of {limit} before the end",
            page.len()
        );
        drained.extend(page);
    }
    assert_eq!(cursor.consistency(), ScanConsistency::Snapshot);
    assert!(drained == listed, "{name}: varying-limit drain differs");
    assert!(
        backend.collect_range_at(&token, range).as_ref() == Some(&listed),
        "{name}: varying-limit token read differs"
    );
}

/// A write between chunks re-anchors the cursor: the drain degrades to
/// `Resumed`, never duplicates or goes backwards, and the suffix reflects
/// the new state.
#[test]
fn writes_between_chunks_resume_without_duplicates() {
    let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..100).map(|k| (k, ())));
    let mut cursor = tree.scan(RangeSpec::all());
    let first = cursor.next_chunk(10);
    assert_eq!(first.len(), 10);
    assert_eq!(cursor.consistency(), ScanConsistency::Snapshot);

    // Mutate ahead of and behind the resume point.
    tree.remove(&50);
    tree.insert(-5, ()); // behind: must NOT appear (keyset pagination)
    tree.insert(200, ()); // ahead: must appear

    let rest = cursor.drain(16);
    assert_eq!(cursor.consistency(), ScanConsistency::Resumed);
    assert!(cursor.resumes() >= 1);
    let keys: Vec<i64> = rest.iter().map(|(k, ())| *k).collect();
    let expect: Vec<i64> = (10..100).filter(|k| *k != 50).chain([200]).collect();
    assert_eq!(keys, expect, "suffix re-read at the fresh front");
}

/// A write landing between `scan()` and the first yielded chunk does not
/// doom the drain: nothing has been yielded, so the cursor re-anchors its
/// *token* at the fresh front and the drain stays `Snapshot` — against the
/// refreshed token — on a tree's one-shard cut and on the store's
/// shards.
#[test]
fn pre_yield_writes_refresh_the_token_instead_of_degrading() {
    let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..50).map(|k| (k, ())));
    let mut cursor = tree.scan(RangeSpec::all());
    let stale_token = cursor.token();
    tree.insert(100, ());
    let drained = cursor.drain(8);
    assert_eq!(cursor.consistency(), ScanConsistency::Snapshot);
    assert_eq!(cursor.resumes(), 0);
    assert_eq!(drained.len(), 51, "the pre-yield write is included");
    assert_ne!(cursor.token(), stale_token, "the token was re-anchored");
    assert_eq!(
        tree.collect_range_at(&cursor.token(), RangeSpec::all()),
        Some(drained)
    );

    // Store cursor: the write must land in the shard the FIRST chunk reads
    // (a later shard expires only after pages were yielded — legitimately
    // `Resumed`), so write below every prefilled key: shard 0.
    let store: ShardedStore<i64> = ShardedStore::from_entries((0..400).map(|k| (k, ())), 4);
    let mut cursor = store.scan(RangeSpec::all());
    store.insert(-100, ());
    let drained = cursor.drain(64);
    assert_eq!(cursor.consistency(), ScanConsistency::Snapshot);
    assert_eq!(drained.len(), 401);
    assert_eq!(drained.first(), Some(&(-100, ())));
    assert_eq!(
        store.metrics().counter("store_scan_resumes"),
        Some(0),
        "a pre-yield re-anchor is not a resume"
    );
    assert_eq!(
        store.collect_range_at(&cursor.token(), RangeSpec::all()),
        Some(drained)
    );
}

/// Driving a drain with a zero chunk is a caller bug, not an empty range:
/// the drivers refuse instead of presenting nothing as a snapshot.
#[test]
#[should_panic(expected = "positive chunk")]
fn zero_chunk_drains_are_rejected() {
    let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..10).map(|k| (k, ())));
    let _ = tree.scan_collect(RangeSpec::all(), 0);
}

/// The cursor's token and the one-shot snapshot reads agree: a quiescent
/// drain of tree, trie and store equals `collect_range_at` of the token.
#[test]
fn snapshot_drain_equals_token_read_for_every_shape() {
    let spec = RangeSpec::from_bounds(10..250);

    let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..300).map(|k| (k, ())));
    let mut cursor = tree.scan(spec);
    let token = cursor.token();
    let drained = cursor.drain(7);
    assert_eq!(cursor.consistency(), ScanConsistency::Snapshot);
    assert_eq!(tree.collect_range_at(&token, spec), Some(drained));

    let trie: WaitFreeTrie<u64> = WaitFreeTrie::from_entries((0..300u64).map(|k| (k, ())));
    let spec_u = RangeSpec::from_bounds(10u64..250);
    let mut cursor = trie.scan(spec_u);
    let token = cursor.token();
    let drained = cursor.drain(64);
    assert_eq!(cursor.consistency(), ScanConsistency::Snapshot);
    assert_eq!(trie.collect_range_at(&token, spec_u), Some(drained));

    let store: ShardedStore<i64> = ShardedStore::from_entries((0..300).map(|k| (k, ())), 4);
    let mut cursor = store.scan(spec);
    let token = cursor.token();
    let drained = cursor.drain(16);
    assert_eq!(cursor.consistency(), ScanConsistency::Snapshot);
    assert_eq!(store.collect_range_at(&token, spec), Some(drained));
}

/// The chunk primitive early-exits instead of collecting the whole answer:
/// observed through `fast_range_early_exits` on both tree and trie.
#[test]
fn limited_collect_early_exit_is_observable() {
    let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..10_000).map(|k| (k, ())));
    let chunk = tree.collect_range_limited(0, 9_999, 100);
    assert_eq!(chunk.len(), 100);
    assert_eq!(chunk.last(), Some(&(99, ())));
    let early_exits = || tree.metrics().counter("tree_fast_range_early_exits");
    assert!(
        early_exits() >= Some(1),
        "a 100-of-10000 chunk must early-exit"
    );
    // An unlimited collect never early-exits.
    let before = early_exits();
    assert_eq!(tree.collect_range(0, 9_999).len(), 10_000);
    assert_eq!(early_exits(), before);

    let trie: WaitFreeTrie<u64> = WaitFreeTrie::from_entries((0..10_000u64).map(|k| (k, ())));
    let chunk = trie.collect_range_limited(0, 9_999, 100);
    assert_eq!(chunk.len(), 100);
    assert!(trie.metrics().counter("trie_fast_range_early_exits") >= Some(1));

    // Paging through the tree via the cursor keeps early-exiting.
    let mut cursor = tree.scan(RangeSpec::all());
    while !cursor.next_chunk(256).is_empty() {}
    assert!(early_exits() > before);
}

/// Striped concurrent writers + paginating readers on the store: every
/// writer inserts its residue class `{w, w + W, …}` (spanning every shard)
/// in ascending order while readers drain full-range cursors in small
/// chunks. A torn chunk would show up as a duplicate or a backwards step;
/// a drain that claims `Snapshot` must additionally show gap-free
/// per-writer prefixes.
#[test]
fn concurrent_cursor_drains_never_tear() {
    const WRITERS: i64 = 3;
    const PER_WRITER: i64 = 300;
    const KEYS: i64 = WRITERS * PER_WRITER;
    for read_path in [ReadPath::Fast, ReadPath::Descriptor] {
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
                    let mut rng = StdRng::seed_from_u64(0x5CA7 + r as u64);
                    let mut snapshot_drains = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        let chunk = [1usize, 7, 32, 1024][rng.gen_range(0..4usize)];
                        let mut cursor = store.scan(RangeSpec::inclusive(0, KEYS - 1));
                        let mut keys: Vec<i64> = Vec::new();
                        loop {
                            let page = cursor.next_chunk(chunk);
                            if page.is_empty() {
                                break;
                            }
                            assert!(page.len() <= chunk);
                            keys.extend(page.into_iter().map(|(k, ())| k));
                        }
                        // Keyset pagination: strictly ascending, no
                        // duplicates, never backwards — even across resumes.
                        assert!(
                            keys.windows(2).all(|p| p[0] < p[1]),
                            "chunked drain yielded a duplicate or went backwards"
                        );
                        if cursor.consistency() == ScanConsistency::Snapshot {
                            snapshot_drains += 1;
                            // A snapshot drain must be gap-free per writer:
                            // a hole means a chunk tore across shards.
                            let mut next_expected = [0i64; WRITERS as usize];
                            for key in &keys {
                                let w = (key % WRITERS) as usize;
                                assert_eq!(
                                    key / WRITERS,
                                    next_expected[w],
                                    "writer {w}'s prefix has a hole before key {key}"
                                );
                                next_expected[w] += 1;
                            }
                        }
                    }
                    snapshot_drains
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
        // Quiescent again: the retrying driver must now produce the whole
        // keyspace as one snapshot, and the front-riding len agrees.
        let all = store.scan_snapshot(RangeSpec::all(), 64);
        assert_eq!(all.len(), KEYS as usize);
        assert_eq!(store.len(), KEYS as u64);
        assert_eq!(store.metrics().gauge("store_len"), Some(KEYS));
        store.check_invariants();
    }
}

/// `ShardedStore::len` rides the global front: it is exact and
/// linearizable (monotone under insert-only writers); the `store_len` gauge
/// reports the cut-free per-shard sum.
#[test]
fn store_len_rides_the_front() {
    let store: Arc<ShardedStore<i64>> =
        Arc::new(ShardedStore::from_entries((0..100).map(|k| (k, ())), 4));
    assert_eq!(store.len(), 100);
    assert_eq!(store.metrics().gauge("store_len"), Some(100));
    let acquires = || store.metrics().counter("store_snapshot_acquires").unwrap();
    let acquires_before = acquires();
    store.len();
    assert!(
        acquires() > acquires_before,
        "a multi-shard len acquires a front cut"
    );

    let writer = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for k in 100..600 {
                store.insert(k, ());
            }
        })
    };
    let mut last = 100u64;
    while last < 600 {
        let len = store.len();
        assert!(
            len >= last,
            "front-riding len went backwards: {last} -> {len}"
        );
        last = len;
    }
    writer.join().unwrap();
    assert_eq!(store.len(), 600);
}

/// Composite `(major, minor)` keys work end to end: lexicographic ranges,
/// carry at component edges, and streaming scans over one major key.
#[test]
fn tuple_keys_scan_lexicographically() {
    let tree: WaitFreeTree<(i32, u8), i64> = WaitFreeTree::from_entries(
        (0..6i32).flat_map(|major| (0..10u8).map(move |minor| ((major, minor), i64::from(minor)))),
    );
    // One major key's whole sub-range, via exclusive upper bound + carry.
    let spec = RangeSpec::from_bounds((2, 0)..(3, 0));
    assert_eq!(RangeRead::count(&tree, spec), 10);
    let (entries, consistency) = tree.scan_collect(spec, 3);
    assert_eq!(consistency, ScanConsistency::Snapshot);
    assert_eq!(entries.len(), 10);
    assert!(entries.iter().all(|((major, _), _)| *major == 2));
    // A range crossing the minor-component edge pages correctly too.
    let crossing = RangeSpec::inclusive((1, 250), (2, 3));
    let keys: Vec<(i32, u8)> = tree
        .scan_snapshot(crossing, 2)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(keys, vec![(2, 0), (2, 1), (2, 2), (2, 3)]);
}

/// Every snapshot backend in the workspace answers the chunked-scan
/// drivers coherently (tree cursor or store cursor alike).
#[test]
fn all_backends_drain_chunked_scans() {
    let prefill: Vec<i64> = (0..100).collect();
    for imp in TreeImpl::ALL {
        let Some(set) = imp.build_snapshot(&prefill, 4) else {
            continue;
        };
        for chunk in [1usize, 7, 100, 1000] {
            assert_eq!(
                set.chunked_scan_snapshot(0, 99, chunk),
                (0..100).collect::<Vec<_>>(),
                "{}: chunk size {chunk}",
                imp.name()
            );
        }
        let (count, snapshot) = set.chunked_scan_count(25, 74, 8);
        assert_eq!(count, 50, "{}", imp.name());
        assert!(snapshot, "{}: quiescent drains stay Snapshot", imp.name());
        assert!(set.chunked_scan_snapshot(50, 10, 4).is_empty());
    }
}
