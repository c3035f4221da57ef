//! The sequential augmented external BST with subtree-rebuilding balancing.
//!
//! [`SeqRangeTree`] is the direct sequential counterpart of the concurrent
//! wait-free tree in `wft-core`: the same external node layout, the same
//! `Mod_Cnt > K · Init_Sz` rebuilding rule (§II-E) and the same three-mode
//! aggregate range query from the paper's appendix
//! (`count_both_borders` / `count_left_border` / `count_right_border`). It is
//! used as
//!
//! * the linearizability oracle for the concurrent test suites (a concurrent
//!   history is replayed here in linearization order and the results must
//!   match),
//! * the "ideal" single-thread baseline in the benchmark harness,
//! * executable documentation of the algorithm, free of all synchronization
//!   noise.

use crate::augment::{Augmentation, Size};
use crate::key::{Key, Value};
use crate::node::SeqNode;

/// Default rebuilding factor `K` (§II-E): a subtree is rebuilt once the
/// number of modifications applied to it since creation exceeds `K` times its
/// initial size. `1` keeps the tree within a constant factor of perfectly
/// balanced while preserving `O(1)` amortized rebuilding cost.
pub const DEFAULT_REBUILD_FACTOR: f64 = 1.0;

/// Counters describing how much rebuilding work a sequential tree has
/// performed, read through [`SeqRangeTree::rebuild_stats`]: a smaller
/// rebuild factor `K` must rebuild more often, which is how the crate's
/// tests check that the factor is honoured. (The concurrent trees report
/// the same two figures as `tree_rebuilds` / `tree_rebuilt_items` metrics.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebuildStats {
    /// Number of subtree rebuilds triggered.
    pub rebuilds: u64,
    /// Total number of data items copied into rebuilt subtrees.
    pub rebuilt_items: u64,
}

/// A sequential external binary search tree with group augmentation,
/// `O(log N)` aggregate range queries and amortized `O(log N)` updates.
///
/// See the crate-level example for basic usage. The value type defaults to
/// `()` (plain set) and the augmentation defaults to [`Size`], matching the
/// paper's `insert` / `remove` / `contains` / `count` interface.
#[derive(Debug, Clone)]
pub struct SeqRangeTree<K: Key, V: Value = (), A: Augmentation<K, V> = Size> {
    root: SeqNode<K, V, A>,
    len: u64,
    rebuild_factor: f64,
    stats: RebuildStats,
}

impl<K: Key, V: Value, A: Augmentation<K, V>> Default for SeqRangeTree<K, V, A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>> SeqRangeTree<K, V, A> {
    /// Creates an empty tree with the default rebuild factor.
    pub fn new() -> Self {
        Self::with_rebuild_factor(DEFAULT_REBUILD_FACTOR)
    }

    /// Creates an empty tree with an explicit rebuild factor `K` (§II-E).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite.
    pub fn with_rebuild_factor(factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "rebuild factor must be positive and finite"
        );
        SeqRangeTree {
            root: SeqNode::Empty,
            len: 0,
            rebuild_factor: factor,
            stats: RebuildStats::default(),
        }
    }

    /// Builds a tree from an iterator of entries. Duplicate keys keep the
    /// last value. The resulting tree is perfectly balanced.
    pub fn from_entries<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        let mut sorted: Vec<(K, V)> = entries.into_iter().collect();
        sorted.sort_by_key(|a| a.0);
        sorted.dedup_by(|a, b| a.0 == b.0);
        let len = sorted.len() as u64;
        SeqRangeTree {
            root: SeqNode::build_balanced(&sorted),
            len,
            rebuild_factor: DEFAULT_REBUILD_FACTOR,
            stats: RebuildStats::default(),
        }
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the tree stores no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (0 for empty or singleton trees).
    pub fn height(&self) -> usize {
        self.root.height()
    }

    /// Rebuilding statistics accumulated so far.
    pub fn rebuild_stats(&self) -> RebuildStats {
        self.stats
    }

    /// The configured rebuild factor `K`.
    pub fn rebuild_factor(&self) -> f64 {
        self.rebuild_factor
    }

    /// Inserts `key` with `value`. Returns `true` if the key was absent
    /// (successful insert, paper semantics) and `false` otherwise, in which
    /// case the tree is left unmodified (the existing value is kept).
    pub fn insert(&mut self, key: K, value: V) -> bool {
        let root = std::mem::take(&mut self.root);
        let (new_root, inserted) =
            Self::insert_rec(root, key, value, self.rebuild_factor, &mut self.stats);
        self.root = new_root;
        if inserted {
            self.len += 1;
        }
        inserted
    }

    /// Inserts `key → value`, overwriting any existing value; returns the
    /// value it replaced, if any (the upsert; `&mut self` makes it trivially
    /// atomic for the lock-based wrapper).
    pub fn insert_or_replace(&mut self, key: K, value: V) -> Option<V> {
        let prior = self.remove_entry(&key);
        self.insert(key, value);
        prior
    }

    /// Removes `key`. Returns `true` if it was present (successful remove)
    /// together with having removed it, `false` otherwise.
    pub fn remove(&mut self, key: &K) -> bool {
        self.remove_entry(key).is_some()
    }

    /// Removes `key` and returns its value if it was present.
    pub fn remove_entry(&mut self, key: &K) -> Option<V> {
        let root = std::mem::take(&mut self.root);
        let (new_root, removed) = Self::remove_rec(root, key, self.rebuild_factor, &mut self.stats);
        self.root = new_root;
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Returns `true` if `key` is stored in the tree.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Returns a reference to the value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut node = &self.root;
        loop {
            match node {
                SeqNode::Empty => return None,
                SeqNode::Leaf { key: k, value } => return (k == key).then_some(value),
                SeqNode::Inner {
                    rsm, left, right, ..
                } => {
                    node = if key < rsm { left } else { right };
                }
            }
        }
    }

    /// Aggregate of all entries with keys in `[min, max]` (inclusive on both
    /// sides, like the paper's `count(min, max)`), computed in `O(height)`
    /// time via the appendix three-function scheme.
    pub fn range_agg(&self, min: K, max: K) -> A::Agg {
        if min > max {
            return A::identity();
        }
        Self::agg_both_borders(&self.root, &min, &max)
    }

    /// Collects every `(key, value)` pair with key in `[min, max]`, in key
    /// order. Runs in `O(height + |output|)` — this is the linear-time
    /// `collect` range query that prior work supports.
    pub fn collect_range(&self, min: K, max: K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        if min <= max {
            Self::collect_rec(&self.root, &min, &max, &mut out);
        }
        out
    }

    /// All entries in key order.
    pub fn entries(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len as usize);
        self.root.collect_into(&mut out);
        out
    }

    /// Validates every structural invariant (routing intervals, augmentation
    /// freshness, cached length). Intended for tests; panics on violation.
    pub fn check_invariants(&self) {
        let n = self.root.check_invariants(None, None);
        assert_eq!(n, self.len, "cached length diverged from structure");
    }

    // ------------------------------------------------------------------
    // Internal recursive helpers.
    // ------------------------------------------------------------------

    fn needs_rebuild(mod_cnt: u64, init_sz: u64, factor: f64) -> bool {
        // `Mod_Cnt > K * Init_Sz`, with the initial size clamped to 1 so that
        // degenerate subtrees created by single insertions still get rebuilt
        // after a bounded number of modifications.
        (mod_cnt as f64) > factor * (init_sz.max(1) as f64)
    }

    fn rebuild(node: SeqNode<K, V, A>, stats: &mut RebuildStats) -> SeqNode<K, V, A> {
        let mut entries = Vec::new();
        node.collect_into(&mut entries);
        stats.rebuilds += 1;
        stats.rebuilt_items += entries.len() as u64;
        SeqNode::build_balanced(&entries)
    }

    fn maybe_rebuild(
        node: SeqNode<K, V, A>,
        factor: f64,
        stats: &mut RebuildStats,
    ) -> SeqNode<K, V, A> {
        match &node {
            SeqNode::Inner {
                mod_cnt, init_sz, ..
            } if Self::needs_rebuild(*mod_cnt, *init_sz, factor) => Self::rebuild(node, stats),
            _ => node,
        }
    }

    fn insert_rec(
        node: SeqNode<K, V, A>,
        key: K,
        value: V,
        factor: f64,
        stats: &mut RebuildStats,
    ) -> (SeqNode<K, V, A>, bool) {
        match node {
            SeqNode::Empty => (SeqNode::Leaf { key, value }, true),
            SeqNode::Leaf {
                key: existing,
                value: existing_value,
            } => {
                if existing == key {
                    // Unsuccessful insert: key already present, keep the old
                    // value (paper semantics: the tree is left unmodified).
                    (
                        SeqNode::Leaf {
                            key: existing,
                            value: existing_value,
                        },
                        false,
                    )
                } else {
                    // Split the leaf into a routing node over the two keys.
                    let (lo, hi, rsm) = if key < existing {
                        (
                            SeqNode::Leaf { key, value },
                            SeqNode::Leaf {
                                key: existing,
                                value: existing_value,
                            },
                            existing,
                        )
                    } else {
                        (
                            SeqNode::Leaf {
                                key: existing,
                                value: existing_value,
                            },
                            SeqNode::Leaf { key, value },
                            key,
                        )
                    };
                    let agg = A::combine(&lo.agg(), &hi.agg());
                    (
                        SeqNode::Inner {
                            rsm,
                            agg,
                            mod_cnt: 0,
                            init_sz: 2,
                            left: Box::new(lo),
                            right: Box::new(hi),
                        },
                        true,
                    )
                }
            }
            SeqNode::Inner {
                rsm,
                agg,
                mod_cnt,
                init_sz,
                left,
                right,
            } => {
                let go_left = key < rsm;
                let (left, right, inserted) = if go_left {
                    let (l, ins) = Self::insert_rec(*left, key, value, factor, stats);
                    (l, *right, ins)
                } else {
                    let (r, ins) = Self::insert_rec(*right, key, value, factor, stats);
                    (*left, r, ins)
                };
                // On the successful path recompute the aggregate from the
                // children (one O(1) `combine` per level); unsuccessful
                // inserts leave both the aggregate and the modification
                // counter untouched.
                let (agg, mod_cnt) = if inserted {
                    (A::combine(&left.agg(), &right.agg()), mod_cnt + 1)
                } else {
                    (agg, mod_cnt)
                };
                let node = SeqNode::Inner {
                    rsm,
                    agg,
                    mod_cnt,
                    init_sz,
                    left: Box::new(left),
                    right: Box::new(right),
                };
                let node = if inserted {
                    Self::maybe_rebuild(node, factor, stats)
                } else {
                    node
                };
                (node, inserted)
            }
        }
    }

    fn remove_rec(
        node: SeqNode<K, V, A>,
        key: &K,
        factor: f64,
        stats: &mut RebuildStats,
    ) -> (SeqNode<K, V, A>, Option<V>) {
        match node {
            SeqNode::Empty => (SeqNode::Empty, None),
            SeqNode::Leaf { key: k, value } => {
                if &k == key {
                    // Successful remove: the leaf position becomes Empty and
                    // is garbage-collected by the next rebuild above it.
                    (SeqNode::Empty, Some(value))
                } else {
                    (SeqNode::Leaf { key: k, value }, None)
                }
            }
            SeqNode::Inner {
                rsm,
                agg,
                mod_cnt,
                init_sz,
                left,
                right,
            } => {
                let go_left = key < &rsm;
                let (left, right, removed) = if go_left {
                    let (l, rem) = Self::remove_rec(*left, key, factor, stats);
                    (l, *right, rem)
                } else {
                    let (r, rem) = Self::remove_rec(*right, key, factor, stats);
                    (*left, r, rem)
                };
                let (agg, mod_cnt) = if removed.is_some() {
                    (A::combine(&left.agg(), &right.agg()), mod_cnt + 1)
                } else {
                    (agg, mod_cnt)
                };
                let node = SeqNode::Inner {
                    rsm,
                    agg,
                    mod_cnt,
                    init_sz,
                    left: Box::new(left),
                    right: Box::new(right),
                };
                let node = if removed.is_some() {
                    Self::maybe_rebuild(node, factor, stats)
                } else {
                    node
                };
                (node, removed)
            }
        }
    }

    /// `count_both_borders` (appendix Listing 4) generalised to an arbitrary
    /// group augmentation: aggregate of keys in `[min, max]`.
    fn agg_both_borders(node: &SeqNode<K, V, A>, min: &K, max: &K) -> A::Agg {
        match node {
            SeqNode::Empty => A::identity(),
            SeqNode::Leaf { key, value } => {
                if min <= key && key <= max {
                    A::of_entry(key, value)
                } else {
                    A::identity()
                }
            }
            SeqNode::Inner {
                rsm, left, right, ..
            } => {
                if min >= rsm {
                    Self::agg_both_borders(right, min, max)
                } else if max < rsm {
                    Self::agg_both_borders(left, min, max)
                } else {
                    // Fork node: left side only needs the lower border, right
                    // side only the upper border (appendix, "fork node").
                    A::combine(
                        &Self::agg_left_border(left, min),
                        &Self::agg_right_border(right, max),
                    )
                }
            }
        }
    }

    /// `count_left_border`: aggregate of keys `>= min` in the subtree.
    fn agg_left_border(node: &SeqNode<K, V, A>, min: &K) -> A::Agg {
        match node {
            SeqNode::Empty => A::identity(),
            SeqNode::Leaf { key, value } => {
                if key >= min {
                    A::of_entry(key, value)
                } else {
                    A::identity()
                }
            }
            SeqNode::Inner {
                rsm, left, right, ..
            } => {
                if min >= rsm {
                    Self::agg_left_border(right, min)
                } else {
                    A::combine(&right.agg(), &Self::agg_left_border(left, min))
                }
            }
        }
    }

    /// `count_right_border`: aggregate of keys `<= max` in the subtree.
    fn agg_right_border(node: &SeqNode<K, V, A>, max: &K) -> A::Agg {
        match node {
            SeqNode::Empty => A::identity(),
            SeqNode::Leaf { key, value } => {
                if key <= max {
                    A::of_entry(key, value)
                } else {
                    A::identity()
                }
            }
            SeqNode::Inner {
                rsm, left, right, ..
            } => {
                if max < rsm {
                    Self::agg_right_border(left, max)
                } else {
                    A::combine(&left.agg(), &Self::agg_right_border(right, max))
                }
            }
        }
    }

    fn collect_rec(node: &SeqNode<K, V, A>, min: &K, max: &K, out: &mut Vec<(K, V)>) {
        match node {
            SeqNode::Empty => {}
            SeqNode::Leaf { key, value } => {
                if min <= key && key <= max {
                    out.push((*key, value.clone()));
                }
            }
            SeqNode::Inner {
                rsm, left, right, ..
            } => {
                if min < rsm {
                    Self::collect_rec(left, min, max, out);
                }
                if max >= rsm {
                    Self::collect_rec(right, min, max, out);
                }
            }
        }
    }
}

impl<K: Key, V: Value> SeqRangeTree<K, V, Size> {
    /// Number of keys in `[min, max]`: the paper's headline `count` query.
    pub fn count(&self, min: K, max: K) -> u64 {
        self.range_agg(min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::{Pair, Sum};
    use crate::oracle::ReferenceMap;

    #[test]
    fn empty_tree_behaves() {
        let tree: SeqRangeTree<i64> = SeqRangeTree::new();
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 0);
        assert_eq!(tree.count(i64::MIN, i64::MAX), 0);
        assert!(!tree.contains(&5));
        assert!(tree.collect_range(i64::MIN, i64::MAX).is_empty());
        tree.check_invariants();
    }

    #[test]
    fn insert_remove_contains_roundtrip() {
        let mut tree: SeqRangeTree<i64> = SeqRangeTree::new();
        assert!(tree.insert(10, ()));
        assert!(!tree.insert(10, ()));
        assert!(tree.insert(20, ()));
        assert!(tree.insert(5, ()));
        assert_eq!(tree.len(), 3);
        assert!(tree.contains(&10));
        assert!(tree.contains(&20));
        assert!(tree.contains(&5));
        assert!(!tree.contains(&6));
        assert!(tree.remove(&10));
        assert!(!tree.remove(&10));
        assert_eq!(tree.len(), 2);
        assert!(!tree.contains(&10));
        tree.check_invariants();
    }

    #[test]
    fn count_matches_reference_on_fixed_ranges() {
        let keys = [1i64, 4, 9, 16, 25, 36, 49, 64, 81, 100];
        let mut tree: SeqRangeTree<i64> = SeqRangeTree::new();
        let mut oracle: ReferenceMap<i64, ()> = ReferenceMap::new();
        for &k in &keys {
            tree.insert(k, ());
            oracle.insert(k, ());
        }
        for min in -5..110 {
            for max in [min, min + 3, min + 17, min + 120] {
                assert_eq!(
                    tree.count(min, max),
                    oracle.count(min, max),
                    "count({min}, {max})"
                );
            }
        }
    }

    #[test]
    fn inverted_range_is_empty() {
        let mut tree: SeqRangeTree<i64> = SeqRangeTree::new();
        for k in 0..100 {
            tree.insert(k, ());
        }
        assert_eq!(tree.count(50, 10), 0);
        assert!(tree.collect_range(50, 10).is_empty());
    }

    #[test]
    fn collect_range_returns_sorted_slice() {
        let mut tree: SeqRangeTree<i64, i64> = SeqRangeTree::new();
        for k in (0..200).rev() {
            tree.insert(k, k * 2);
        }
        let got = tree.collect_range(42, 61);
        let expect: Vec<(i64, i64)> = (42..=61).map(|k| (k, k * 2)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn get_returns_values_and_insert_keeps_existing() {
        let mut tree: SeqRangeTree<i64, String> = SeqRangeTree::new();
        assert!(tree.insert(1, "one".to_string()));
        assert!(!tree.insert(1, "uno".to_string()));
        assert_eq!(tree.get(&1), Some(&"one".to_string()));
        assert_eq!(tree.remove_entry(&1), Some("one".to_string()));
        assert_eq!(tree.get(&1), None);
    }

    #[test]
    fn tree_stays_balanced_under_sorted_insertions() {
        let mut tree: SeqRangeTree<i64> = SeqRangeTree::new();
        let n = 10_000i64;
        for k in 0..n {
            tree.insert(k, ());
        }
        tree.check_invariants();
        // Height must stay within a small multiple of log2(n) thanks to the
        // rebuilding rule even though the insertion order is adversarial.
        let log = (n as f64).log2().ceil() as usize;
        assert!(
            tree.height() <= 3 * log,
            "height {} too large for n={} (log={})",
            tree.height(),
            n,
            log
        );
        assert!(tree.rebuild_stats().rebuilds > 0);
    }

    #[test]
    fn removals_trigger_cleanup_rebuilds() {
        let mut tree: SeqRangeTree<i64> = SeqRangeTree::new();
        for k in 0..4096 {
            tree.insert(k, ());
        }
        for k in 0..4096 {
            if k % 2 == 0 {
                tree.remove(&k);
            }
        }
        tree.check_invariants();
        assert_eq!(tree.len(), 2048);
        assert_eq!(tree.count(0, 4095), 2048);
    }

    #[test]
    fn from_entries_builds_balanced_tree() {
        let entries: Vec<(i64, u64)> = (0..1000).map(|k| (k, k as u64)).collect();
        let tree: SeqRangeTree<i64, u64> = SeqRangeTree::from_entries(entries.clone());
        assert_eq!(tree.len(), 1000);
        assert_eq!(tree.entries(), entries);
        assert!(tree.height() <= 10);
        tree.check_invariants();
    }

    #[test]
    fn from_entries_deduplicates_keys() {
        let tree: SeqRangeTree<i64, u64> =
            SeqRangeTree::from_entries(vec![(1, 10), (1, 20), (2, 30)]);
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn sum_augmentation_range_queries() {
        let mut tree: SeqRangeTree<i64, i64, Sum> = SeqRangeTree::new();
        for k in 1..=100 {
            tree.insert(k, k);
        }
        // sum of 10..=20
        assert_eq!(tree.range_agg(10, 20), (10..=20).sum::<i64>() as i128);
        tree.remove(&15);
        assert_eq!(
            tree.range_agg(10, 20),
            ((10..=20).sum::<i64>() - 15) as i128
        );
        tree.check_invariants();
    }

    #[test]
    fn pair_augmentation_returns_both_aggregates() {
        let mut tree: SeqRangeTree<i64, i64, Pair<Size, Sum>> = SeqRangeTree::new();
        for k in 0..50 {
            tree.insert(k, 2 * k);
        }
        let (count, sum) = tree.range_agg(10, 19);
        assert_eq!(count, 10);
        assert_eq!(sum, (10..20).map(|k| 2 * k).sum::<i64>() as i128);
    }

    #[test]
    fn rebuild_factor_controls_rebuild_frequency() {
        let mut eager: SeqRangeTree<i64> = SeqRangeTree::with_rebuild_factor(0.25);
        let mut lazy: SeqRangeTree<i64> = SeqRangeTree::with_rebuild_factor(8.0);
        for k in 0..5000 {
            eager.insert(k, ());
            lazy.insert(k, ());
        }
        assert!(
            eager.rebuild_stats().rebuilds > lazy.rebuild_stats().rebuilds,
            "eager {:?} vs lazy {:?}",
            eager.rebuild_stats(),
            lazy.rebuild_stats()
        );
        eager.check_invariants();
        lazy.check_invariants();
    }

    #[test]
    #[should_panic(expected = "rebuild factor")]
    fn invalid_rebuild_factor_is_rejected() {
        let _: SeqRangeTree<i64> = SeqRangeTree::with_rebuild_factor(0.0);
    }

    #[test]
    fn randomized_against_oracle() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut tree: SeqRangeTree<i64, i64> = SeqRangeTree::new();
        let mut oracle: ReferenceMap<i64, i64> = ReferenceMap::new();
        for step in 0..20_000 {
            let key = rng.gen_range(0..500);
            match rng.gen_range(0..5) {
                0 | 1 => {
                    assert_eq!(
                        tree.insert(key, key),
                        oracle.insert(key, key),
                        "step {step}"
                    );
                }
                2 => {
                    assert_eq!(tree.remove(&key), oracle.remove(&key), "step {step}");
                }
                3 => {
                    assert_eq!(tree.contains(&key), oracle.contains(&key), "step {step}");
                }
                _ => {
                    let hi = key + rng.gen_range(0i64..100);
                    assert_eq!(tree.count(key, hi), oracle.count(key, hi), "step {step}");
                }
            }
        }
        tree.check_invariants();
        assert_eq!(tree.entries(), oracle.entries());
    }
}
