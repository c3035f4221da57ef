//! Cross-implementation range-semantics regression tests.
//!
//! The `wft-api` contract (see `RangeSpec::to_closed`) says: an empty or
//! inverted range — `min > max`, a half-open range with equal endpoints, an
//! exclusive bound at the edge of the key domain — yields the **identity
//! aggregate, a zero count and an empty listing**, identically on every
//! backend. Before the API redesign this behaviour was per-implementation
//! folklore; this suite pins it across the wait-free tree (both root
//! queues), the trie, all three baselines and the sharded store, through
//! both the trait family and the `tests/common` adapter. The same sweep
//! also drives the adapter's whole surface once per backend.

use std::ops::Bound;

use wait_free_range_trees::prelude::*;

mod common;
use common::{ConcurrentSet, SnapshotSet, TreeImpl};

/// Inverted and degenerate closed ranges, as `(min, max)` pairs.
const INVERTED: [(i64, i64); 4] = [(7, 3), (1, 0), (i64::MAX, i64::MIN), (50, -50)];

#[test]
fn inverted_ranges_are_empty_on_every_implementation() {
    let prefill: Vec<i64> = (0..64).collect();
    for imp in TreeImpl::ALL {
        let set = imp.build(&prefill, 4);
        for (min, max) in INVERTED {
            assert_eq!(
                set.count(min, max),
                0,
                "{}: count({min}, {max}) on an inverted range",
                imp.name()
            );
            assert_eq!(
                set.count_via_collect(min, max),
                0,
                "{}: collect({min}, {max}) on an inverted range",
                imp.name()
            );
        }
        // A degenerate single-key range still answers normally.
        assert_eq!(set.count(5, 5), 1, "{}", imp.name());
    }
}

/// Every backend, driven through the `RangeRead` trait itself with the full
/// `Bound` vocabulary (not just inclusive pairs).
fn assert_range_read_contract<T>(map: &T, label: &str)
where
    T: RangeRead<i64, (), Agg = u64> + PointMap<i64, ()>,
{
    for (min, max) in INVERTED {
        let spec = RangeSpec::inclusive(min, max);
        assert_eq!(map.range_agg(spec), 0, "{label}: identity aggregate");
        assert_eq!(map.count(spec), 0, "{label}: zero count");
        assert!(map.collect_range(spec).is_empty(), "{label}: empty listing");
    }
    // Half-open empty range.
    assert_eq!(map.count(RangeSpec::from_bounds(5..5)), 0, "{label}: 5..5");
    // Exclusive bound at the domain edge leaves no representable key.
    let edge = RangeSpec {
        lo: Bound::Excluded(i64::MAX),
        hi: Bound::Unbounded,
    };
    assert_eq!(map.count(edge), 0, "{label}: (MAX, ..)");
    // Sanity: the non-empty ranges still work through the same path.
    assert_eq!(map.count(RangeSpec::all()), 64, "{label}: all");
    assert_eq!(
        map.count(RangeSpec::from_bounds(0..10)),
        10,
        "{label}: 0..10"
    );
    assert_eq!(map.count(RangeSpec::at_least(60)), 4, "{label}: 60..");
}

#[test]
fn range_read_trait_contract_holds_everywhere() {
    let entries = || (0..64i64).map(|k| (k, ()));
    assert_range_read_contract(&WaitFreeTree::<i64>::from_entries(entries()), "wait-free");
    assert_range_read_contract(&WaitFreeTrie::<i64>::from_entries(entries()), "trie");
    assert_range_read_contract(
        &wait_free_range_trees::persistent::PersistentRangeTree::<i64>::from_entries(entries()),
        "persistent",
    );
    assert_range_read_contract(
        &wait_free_range_trees::lockbased::LockedRangeTree::<i64>::from_entries(entries()),
        "locked",
    );
    assert_range_read_contract(
        &wait_free_range_trees::lockfree::LockFreeBst::<i64>::from_entries(entries()),
        "lock-free-linear",
    );
    // The sharded store: inverted ranges must also short-circuit *before*
    // shard routing, including ranges whose endpoints live in different
    // shards in the "wrong" order.
    assert_range_read_contract(&ShardedStore::<i64>::from_entries(entries(), 4), "sharded");
}

#[test]
fn inverted_cross_shard_ranges_never_touch_shard_queries() {
    let store = ShardedStore::<i64>::from_entries((0..1000).map(|k| (k, ())), 8);
    // Endpoints in the last and first shard, inverted.
    assert_eq!(store.count(999, 0), 0);
    assert_eq!(store.range_agg(999, 0), 0);
    assert!(store.collect_range(999, 0).is_empty());
    // Same through the trait with exclusive bounds.
    let spec = RangeSpec::from_bounds((Bound::Excluded(500i64), Bound::Excluded(501)));
    assert_eq!(RangeRead::count(&store, spec), 0, "(500, 501) holds no key");
}

/// One pass over the whole adapter surface on a set pre-filled with
/// `0..100`; leaves the set as it found it.
fn exercise(set: &dyn ConcurrentSet, label: &str) {
    assert!(set.insert(1_000_001), "{label}");
    assert!(!set.insert(1_000_001), "{label}");
    assert!(set.contains(1_000_001), "{label}");
    assert!(
        set.replace(1_000_001),
        "{label}: replace of a present key overwrote"
    );
    assert!(set.remove(1_000_001), "{label}");
    assert!(!set.remove(1_000_001), "{label}");
    assert!(
        !set.replace(1_000_002),
        "{label}: replace of an absent key inserted"
    );
    assert!(set.remove(1_000_002), "{label}");
    assert_eq!(set.count(0, 9), 10, "{label}");
    assert_eq!(set.count_via_collect(0, 9), 10, "{label}");
    // The transactional surface: cas-insert and toggle.
    assert!(set.cas_insert(1_000_003), "{label}: absent key cas-inserts");
    assert!(
        !set.cas_insert(1_000_003),
        "{label}: present key misses expect=None"
    );
    assert!(
        !set.patch_toggle(1_000_003),
        "{label}: toggle removes a present key"
    );
    assert!(
        set.patch_toggle(1_000_003),
        "{label}: toggle re-inserts an absent key"
    );
    assert!(set.remove(1_000_003), "{label}");
    assert_eq!(set.len(), 100, "{label}");
}

/// One pass over the snapshot half of the adapter on a set pre-filled with
/// `0..100`; leaves the set as it found it.
fn exercise_snapshots(set: &dyn SnapshotSet, label: &str) {
    // Streaming scans: a chunked drain covers the same range, and the
    // retrying driver produces the full sorted listing.
    let (scanned, _snapshot) = set.chunked_scan_count(0, 99, 7);
    assert_eq!(scanned, 100, "{label}");
    assert_eq!(
        set.chunked_scan_snapshot(10, 19, 3),
        (10..=19).collect::<Vec<_>>(),
        "{label}"
    );
    // The atomic move.
    assert!(set.insert(1_000_003), "{label}");
    assert_eq!(
        set.batch_move(1_000_003, 1_000_004),
        (true, true),
        "{label}"
    );
    assert_eq!(
        set.batch_move(1_000_003, 1_000_004),
        (false, false),
        "{label}"
    );
    assert!(set.remove(1_000_004), "{label}");
    assert_eq!(set.len(), 100, "{label}");
}

#[test]
fn all_implementations_expose_identical_behaviour() {
    let prefill: Vec<i64> = (0..100).collect();
    for imp in TreeImpl::ALL {
        match imp.build_snapshot(&prefill, 4) {
            Some(set) => {
                exercise(set.as_ref(), imp.name());
                exercise_snapshots(set.as_ref(), imp.name());
            }
            None => exercise(imp.build(&prefill, 4).as_ref(), imp.name()),
        }
    }
}

#[test]
fn names_are_unique() {
    let mut names: Vec<&str> = TreeImpl::ALL.iter().map(|i| i.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), TreeImpl::ALL.len());
}
