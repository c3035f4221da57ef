//! Sequential specifications.
//!
//! The checker needs an abstract, purely sequential model of the data
//! structure under test: a state type, an initial state, and a transition
//! function that says what each operation returns and how it changes the
//! state. [`RangeSetSpec`] models the API shared by every tree in this
//! workspace — an ordered set of `i64` keys with aggregate and listing range
//! queries.

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;

/// A sequential specification usable by the checker.
pub trait SequentialSpec {
    /// The operations of the data structure.
    type Op: Clone + Debug;
    /// The results operations return.
    type Ret: Clone + Debug + PartialEq;
    /// The abstract state. It must be hashable so the checker can memoise
    /// visited configurations.
    type State: Clone + Debug + Hash + Eq;

    /// The abstract state of a freshly created structure.
    fn initial() -> Self::State;

    /// Applies `op` to `state`, returning the successor state and the result
    /// a sequential execution would observe.
    fn apply(state: &Self::State, op: &Self::Op) -> (Self::State, Self::Ret);
}

/// Operations of the range-set interface evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeSetOp {
    /// `insert(key)`.
    Insert(i64),
    /// `replace(key)` — the atomic upsert; on a set it always ends with the
    /// key present and reports whether the key was there before.
    Replace(i64),
    /// `remove(key)`.
    Remove(i64),
    /// `contains(key)`.
    Contains(i64),
    /// `count(min, max)` — the aggregate range query.
    Count(i64, i64),
    /// `collect(min, max)` — the listing range query.
    Collect(i64, i64),
    /// `snapshot_counts([a_min, a_max], [b_min, b_max])` — two counts from
    /// **one** snapshot (`wft_api::SnapshotRead`). Sequentially both counts
    /// come from the same state; a concurrent execution must produce a pair
    /// that some single state explains, which is exactly the
    /// single-snapshot claim of the global timestamp front.
    SnapshotCounts(i64, i64, i64, i64),
    /// `chunked_scan(min, max, chunk)` — a streaming cursor drained to
    /// completion in `chunk`-sized pages with
    /// `ScanConsistency::Snapshot` (`wft_api::RangeScan::scan_snapshot`).
    /// Sequentially this is exactly `collect(min, max)`; a concurrent
    /// execution must produce a listing that some single state explains,
    /// which is the snapshot-drain claim of the cursor API — the chunks,
    /// though read across many calls, concatenate to one atomic listing.
    ChunkedScan(i64, i64, usize),
    /// `patch(key)` — an atomic read-modify-write (`StoreOp::Patch`) that
    /// *toggles* membership: present → removed, absent → inserted. Returns
    /// whether the key is present afterwards. On a set, toggling is the
    /// strongest patch to check: its result is wrong under any lost-update
    /// interleaving a non-atomic get-then-write would permit.
    Patch(i64),
    /// `compare_and_set(key)` — insert-if-absent
    /// (`StoreOp::CompareAndSet { expect: None }`): succeeds iff the key
    /// was absent at the linearization point, exactly `insert`'s result
    /// but through the transactional conditional-write path.
    CompareAndSet(i64),
    /// `atomic_batch(a, b)` — one two-op cross-shard batch
    /// (`remove(a)` + `insert(b)`, `a != b`) committed atomically:
    /// sequentially both ops apply to one state, and a concurrent
    /// execution must never expose the gap between them — the
    /// all-or-nothing claim of the store's gated batch commit.
    AtomicBatch(i64, i64),
}

/// Results of [`RangeSetOp`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeSetRet {
    /// Result of `insert`, `remove` and `contains`.
    Bool(bool),
    /// Result of `count`.
    Count(u64),
    /// Result of `collect`.
    Keys(Vec<i64>),
    /// Result of `snapshot_counts`: the two counts of one snapshot.
    CountPair(u64, u64),
    /// Result of `atomic_batch`: (`a` was removed, `b` was inserted), both
    /// evaluated against the same pre-batch state.
    Pair(bool, bool),
}

/// The sequential specification of the range-set interface: a sorted set of
/// keys with the paper's `insert`/`remove`/`contains`/`count`/`collect`
/// semantics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RangeSetSpec;

impl SequentialSpec for RangeSetSpec {
    type Op = RangeSetOp;
    type Ret = RangeSetRet;
    type State = BTreeSet<i64>;

    fn initial() -> Self::State {
        BTreeSet::new()
    }

    fn apply(state: &Self::State, op: &Self::Op) -> (Self::State, Self::Ret) {
        match *op {
            RangeSetOp::Insert(key) => {
                let mut next = state.clone();
                let inserted = next.insert(key);
                (next, RangeSetRet::Bool(inserted))
            }
            RangeSetOp::Replace(key) => {
                let mut next = state.clone();
                let was_present = !next.insert(key);
                (next, RangeSetRet::Bool(was_present))
            }
            RangeSetOp::Remove(key) => {
                let mut next = state.clone();
                let removed = next.remove(&key);
                (next, RangeSetRet::Bool(removed))
            }
            RangeSetOp::Contains(key) => (state.clone(), RangeSetRet::Bool(state.contains(&key))),
            RangeSetOp::Count(min, max) => {
                let count = if min > max {
                    0
                } else {
                    state.range(min..=max).count() as u64
                };
                (state.clone(), RangeSetRet::Count(count))
            }
            RangeSetOp::Collect(min, max) => {
                let keys: Vec<i64> = if min > max {
                    Vec::new()
                } else {
                    state.range(min..=max).copied().collect()
                };
                (state.clone(), RangeSetRet::Keys(keys))
            }
            RangeSetOp::ChunkedScan(min, max, _chunk) => {
                // The chunk size is an implementation knob: a snapshot
                // drain yields the full listing regardless of pagination.
                let keys: Vec<i64> = if min > max {
                    Vec::new()
                } else {
                    state.range(min..=max).copied().collect()
                };
                (state.clone(), RangeSetRet::Keys(keys))
            }
            RangeSetOp::Patch(key) => {
                let mut next = state.clone();
                let present_after = if next.remove(&key) {
                    false
                } else {
                    next.insert(key);
                    true
                };
                (next, RangeSetRet::Bool(present_after))
            }
            RangeSetOp::CompareAndSet(key) => {
                let mut next = state.clone();
                let applied = next.insert(key);
                (next, RangeSetRet::Bool(applied))
            }
            RangeSetOp::AtomicBatch(a, b) => {
                let mut next = state.clone();
                let removed = next.remove(&a);
                let inserted = next.insert(b);
                (next, RangeSetRet::Pair(removed, inserted))
            }
            RangeSetOp::SnapshotCounts(a_min, a_max, b_min, b_max) => {
                let count = |min: i64, max: i64| {
                    if min > max {
                        0
                    } else {
                        state.range(min..=max).count() as u64
                    }
                };
                (
                    state.clone(),
                    RangeSetRet::CountPair(count(a_min, a_max), count(b_min, b_max)),
                )
            }
        }
    }
}

impl RangeSetSpec {
    /// An abstract state pre-filled with `keys` — handy when the concurrent
    /// execution starts from a pre-populated tree.
    pub fn prefilled<I: IntoIterator<Item = i64>>(keys: I) -> BTreeSet<i64> {
        keys.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains_follow_set_semantics() {
        let s0 = RangeSetSpec::initial();
        let (s1, r1) = RangeSetSpec::apply(&s0, &RangeSetOp::Insert(5));
        assert_eq!(r1, RangeSetRet::Bool(true));
        let (s2, r2) = RangeSetSpec::apply(&s1, &RangeSetOp::Insert(5));
        assert_eq!(r2, RangeSetRet::Bool(false));
        let (_, r3) = RangeSetSpec::apply(&s2, &RangeSetOp::Contains(5));
        assert_eq!(r3, RangeSetRet::Bool(true));
        let (s4, r4) = RangeSetSpec::apply(&s2, &RangeSetOp::Remove(5));
        assert_eq!(r4, RangeSetRet::Bool(true));
        let (_, r5) = RangeSetSpec::apply(&s4, &RangeSetOp::Remove(5));
        assert_eq!(r5, RangeSetRet::Bool(false));
    }

    #[test]
    fn replace_reports_prior_presence_and_keeps_the_key() {
        let s0 = RangeSetSpec::initial();
        let (s1, r1) = RangeSetSpec::apply(&s0, &RangeSetOp::Replace(5));
        assert_eq!(
            r1,
            RangeSetRet::Bool(false),
            "absent key: nothing displaced"
        );
        assert!(s1.contains(&5));
        let (s2, r2) = RangeSetSpec::apply(&s1, &RangeSetOp::Replace(5));
        assert_eq!(r2, RangeSetRet::Bool(true), "present key: overwrote");
        assert!(s2.contains(&5));
    }

    #[test]
    fn count_and_collect_respect_ranges() {
        let state = RangeSetSpec::prefilled([1, 3, 5, 7, 9]);
        let (_, count) = RangeSetSpec::apply(&state, &RangeSetOp::Count(3, 7));
        assert_eq!(count, RangeSetRet::Count(3));
        let (_, keys) = RangeSetSpec::apply(&state, &RangeSetOp::Collect(4, 100));
        assert_eq!(keys, RangeSetRet::Keys(vec![5, 7, 9]));
        let (_, empty) = RangeSetSpec::apply(&state, &RangeSetOp::Count(7, 3));
        assert_eq!(empty, RangeSetRet::Count(0));
    }

    #[test]
    fn queries_do_not_change_the_state() {
        let state = RangeSetSpec::prefilled([1, 2, 3]);
        for op in [
            RangeSetOp::Contains(2),
            RangeSetOp::Count(0, 10),
            RangeSetOp::Collect(0, 10),
            RangeSetOp::SnapshotCounts(0, 10, 2, 3),
            RangeSetOp::ChunkedScan(0, 10, 2),
        ] {
            let (next, _) = RangeSetSpec::apply(&state, &op);
            assert_eq!(next, state);
        }
    }

    #[test]
    fn patch_toggles_membership_and_reports_the_new_presence() {
        let s0 = RangeSetSpec::initial();
        let (s1, r1) = RangeSetSpec::apply(&s0, &RangeSetOp::Patch(5));
        assert_eq!(r1, RangeSetRet::Bool(true), "absent key toggles in");
        assert!(s1.contains(&5));
        let (s2, r2) = RangeSetSpec::apply(&s1, &RangeSetOp::Patch(5));
        assert_eq!(r2, RangeSetRet::Bool(false), "present key toggles out");
        assert!(!s2.contains(&5));
    }

    #[test]
    fn compare_and_set_is_insert_if_absent() {
        let s0 = RangeSetSpec::initial();
        let (s1, r1) = RangeSetSpec::apply(&s0, &RangeSetOp::CompareAndSet(3));
        assert_eq!(r1, RangeSetRet::Bool(true));
        let (s2, r2) = RangeSetSpec::apply(&s1, &RangeSetOp::CompareAndSet(3));
        assert_eq!(
            r2,
            RangeSetRet::Bool(false),
            "present key: expect None misses"
        );
        assert!(s2.contains(&3));
    }

    #[test]
    fn atomic_batch_moves_in_one_step() {
        let state = RangeSetSpec::prefilled([1, 2]);
        let (next, ret) = RangeSetSpec::apply(&state, &RangeSetOp::AtomicBatch(1, 5));
        assert_eq!(ret, RangeSetRet::Pair(true, true));
        assert_eq!(next, RangeSetSpec::prefilled([2, 5]));
        let (next2, ret2) = RangeSetSpec::apply(&next, &RangeSetOp::AtomicBatch(9, 5));
        assert_eq!(
            ret2,
            RangeSetRet::Pair(false, false),
            "absent remove, present insert"
        );
        assert_eq!(next2, next);
    }

    #[test]
    fn chunked_scan_lists_like_collect() {
        let state = RangeSetSpec::prefilled([1, 3, 5, 7, 9]);
        let (_, ret) = RangeSetSpec::apply(&state, &RangeSetOp::ChunkedScan(2, 8, 2));
        assert_eq!(ret, RangeSetRet::Keys(vec![3, 5, 7]));
        let (_, inverted) = RangeSetSpec::apply(&state, &RangeSetOp::ChunkedScan(8, 2, 1));
        assert_eq!(inverted, RangeSetRet::Keys(Vec::new()));
    }

    #[test]
    fn snapshot_counts_answer_from_one_state() {
        let state = RangeSetSpec::prefilled([1, 3, 5, 7, 9]);
        let (_, ret) = RangeSetSpec::apply(&state, &RangeSetOp::SnapshotCounts(0, 10, 4, 8));
        assert_eq!(ret, RangeSetRet::CountPair(5, 2));
        let (_, inverted) = RangeSetSpec::apply(&state, &RangeSetOp::SnapshotCounts(9, 0, 0, 10));
        assert_eq!(inverted, RangeSetRet::CountPair(0, 5));
    }
}
