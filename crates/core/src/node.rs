//! Concurrent tree nodes.
//!
//! The concurrent tree uses the same *external* (leaf-oriented) layout as the
//! sequential tree in `wft-seq`, enriched with the per-node machinery of the
//! paper (§II):
//!
//! * every inner node owns an operations queue ([`wft_queue::TsQueue`]) whose
//!   dummy timestamp doubles as the node's creation watermark,
//! * the mutable part of an inner node — augmentation value, modification
//!   counter and last-modification timestamp — lives in an **immutable,
//!   heap-allocated [`NodeState`]** swapped atomically by CAS (§II-C), so a
//!   state can be read with one pointer load and modified exactly once per
//!   operation,
//! * child pointers are epoch-managed atomics; all structural changes are
//!   CASes on a *parent's* child slot (an update swaps a leaf for a rewritten
//!   copy, an overflowing insert for a split, a remove of the last entry for
//!   [`Node::Empty`]; rebuilds swap whole subtrees), which keeps the paper's
//!   rule that executing an operation in `v` only modifies `v`'s children,
//! * a leaf is an **immutable sorted run** of up to [`LEAF_CAP`] entries
//!   with its precomputed aggregate, so the tree has one heap leaf per run
//!   instead of a leaf plus a routing node per key. The run arithmetic
//!   (`insert_into_run`, `remove_from_run`, `run_agg`) is kept as free
//!   functions over slices; where an overflowing run is cut is the one
//!   thing the tree's [`Shape`] decides (`split_node`).

use crossbeam_epoch::{Atomic, Guard, Shared};
use std::sync::atomic::{AtomicU64, Ordering};

use wft_queue::{Timestamp, TsQueue};
use wft_seq::{Augmentation, Key, Value};

use crate::descriptor::{OpRef, RangeMode};
use crate::shape::{Balanced, Shape};

/// Unique identifier of an inner node, used as the key of the per-operation
/// `Processed` and mode maps. The fictive root uses id `0`; real nodes get
/// ids `>= 1` from the tree's counter.
pub type NodeId = u64;

/// Reserved [`NodeId`] of the fictive root (§II-B).
pub const FICTIVE_ROOT_ID: NodeId = 0;

/// Allocates unique node identifiers (a fetch-and-add counter, as suggested
/// in §II-B).
#[derive(Debug)]
pub(crate) struct IdAllocator {
    next: AtomicU64,
}

impl IdAllocator {
    pub(crate) fn new() -> Self {
        IdAllocator {
            next: AtomicU64::new(FICTIVE_ROOT_ID + 1),
        }
    }

    pub(crate) fn fresh(&self) -> NodeId {
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

/// The immutable state record of an inner node (§II-C).
///
/// A state is never mutated in place: modifications allocate a new record and
/// CAS the node's state pointer, guarded by `ts_mod` so each operation's
/// effect is applied exactly once no matter how many helpers race.
#[derive(Debug)]
pub struct NodeState<Agg> {
    /// Augmentation value of the node's subtree *as of the last update that
    /// was executed in this node's parent* — i.e. including updates that are
    /// still propagating further down (§II-C: eager top-down maintenance).
    pub agg: Agg,
    /// Number of successful updates applied to this subtree since the node
    /// was created (`Mod_Cnt`, §II-E).
    pub mod_cnt: u64,
    /// Timestamp of the last operation that modified this state (`Ts_Mod`).
    pub ts_mod: Timestamp,
}

/// Most entries one leaf run holds. A run that would grow past it is split
/// under a fresh routing node (`split_node`).
pub const LEAF_CAP: usize = 32;

/// Fill of the runs a rebuild packs: three quarters of [`LEAF_CAP`], so a
/// rebuilt leaf absorbs several inserts before its first split.
const REBUILD_FILL: usize = LEAF_CAP * 3 / 4;

/// A leaf: an immutable run of `1..=LEAF_CAP` entries, strictly ascending by
/// key, with the aggregate of the run precomputed.
///
/// `created_ts` is the timestamp of the operation (or the watermark of the
/// rebuild) that physically installed the leaf. Structural CASes are guarded
/// by it: a stalled helper whose operation is *older* than the node it finds
/// in a child slot must not touch that slot — its own structural change has
/// already been applied by a faster helper, and the slot has since been
/// reused by later-linearized operations (see `execute_at_leaf` /
/// `execute_at_empty`). Because runs are immutable, every update that
/// bottoms out here installs a *fresh* run carrying its own timestamp, so
/// the same guard covers inserts, upserts and removes alike: a run with a
/// smaller `created_ts` predates the update's effect.
#[derive(Debug)]
pub struct LeafNode<K, V, Agg> {
    entries: Box<[(K, V)]>,
    agg: Agg,
    created_ts: Timestamp,
}

impl<K: Key, V: Value, Agg> LeafNode<K, V, Agg> {
    /// A leaf over `run`, created by the operation with timestamp
    /// `created_ts`. `run` must be non-empty, strictly ascending and at most
    /// [`LEAF_CAP`] long; its aggregate is computed here, once.
    pub(crate) fn from_run<A: Augmentation<K, V, Agg = Agg>>(
        run: Run<K, V>,
        created_ts: Timestamp,
    ) -> Self {
        debug_assert!(!run.is_empty() && run.len() <= LEAF_CAP);
        debug_assert!(run.windows(2).all(|w| w[0].0 < w[1].0));
        LeafNode {
            agg: run_agg::<K, V, A>(&run),
            entries: run.into_boxed_slice(),
            created_ts,
        }
    }

    /// The run: `1..=LEAF_CAP` entries, strictly ascending by key.
    pub fn entries(&self) -> &[(K, V)] {
        &self.entries
    }

    /// Aggregate of the whole run.
    pub fn agg(&self) -> &Agg {
        &self.agg
    }

    /// Timestamp of the operation that created this leaf.
    pub fn created_ts(&self) -> Timestamp {
        self.created_ts
    }

    /// The value stored under `key`, if the run holds it.
    pub fn get(&self, key: &K) -> Option<&V> {
        find_in_run(&self.entries, key)
            .ok()
            .map(|i| &self.entries[i].1)
    }
}

/// An owned run under construction: entries strictly ascending by key.
pub(crate) type Run<K, V> = Vec<(K, V)>;

/// Position of `key` in a sorted run (`Ok`), or where it would be inserted
/// (`Err`).
fn find_in_run<K: Key, V>(run: &[(K, V)], key: &K) -> Result<usize, usize> {
    run.binary_search_by(|(k, _)| k.cmp(key))
}

/// Copy of `run` with `key → value` inserted at its sorted position, or with
/// the value replaced when the run already holds the key. The result is at
/// most one entry longer than `run`.
pub(crate) fn insert_into_run<K: Key, V: Value>(run: &[(K, V)], key: K, value: V) -> Run<K, V> {
    match find_in_run(run, &key) {
        Ok(i) => {
            let mut out = run.to_vec();
            out[i].1 = value;
            out
        }
        Err(i) => {
            let mut out = Vec::with_capacity(run.len() + 1);
            out.extend_from_slice(&run[..i]);
            out.push((key, value));
            out.extend_from_slice(&run[i..]);
            out
        }
    }
}

/// Copy of `run` without `key`; `None` when the run does not hold it.
pub(crate) fn remove_from_run<K: Key, V: Value>(run: &[(K, V)], key: &K) -> Option<Run<K, V>> {
    let i = find_in_run(run, key).ok()?;
    let mut out = Vec::with_capacity(run.len() - 1);
    out.extend_from_slice(&run[..i]);
    out.extend_from_slice(&run[i + 1..]);
    Some(out)
}

/// Aggregate of a run, folded entry by entry.
pub(crate) fn run_agg<K: Key, V: Value, A: Augmentation<K, V>>(run: &[(K, V)]) -> A::Agg {
    run.iter()
        .fold(A::identity(), |acc, (k, v)| A::insert_delta(&acc, k, v))
}

/// The part of a sorted run a range mode admits: two binary searches, no
/// per-entry test.
pub(crate) fn admitted<'a, K: Key, V>(run: &'a [(K, V)], mode: &RangeMode<K>) -> &'a [(K, V)] {
    let (min, max) = match mode {
        RangeMode::Both { min, max } => (Some(min), Some(max)),
        RangeMode::LeftBorder { min } => (Some(min), None),
        RangeMode::RightBorder { max } => (None, Some(max)),
    };
    let lo = min.map_or(0, |min| run.partition_point(|(k, _)| k < min));
    let hi = max.map_or(run.len(), |max| run.partition_point(|(k, _)| k <= max));
    &run[lo..hi.max(lo)]
}

/// A removed leaf position (or the empty tree), carrying the timestamp of the
/// operation that created it for the same structural-CAS guard as
/// [`LeafNode::created_ts`].
#[derive(Debug)]
pub struct EmptyNode {
    /// Timestamp of the operation that created this placeholder.
    pub created_ts: Timestamp,
}

/// An inner (routing) node.
pub struct InnerNode<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K> = Balanced> {
    /// Unique node identifier (never reused).
    pub id: NodeId,
    /// `Right_Subtree_Min`: keys `< rsm` route left, keys `>= rsm` right.
    pub rsm: K,
    /// Subtree size at creation (`Init_Sz`, §II-E); immutable.
    pub init_sz: u64,
    /// What the shape records about the key interval this node covers
    /// (zero-sized for [`Balanced`]).
    pub coverage: S::Coverage,
    /// Left child slot.
    pub left: Atomic<Node<K, V, A, S>>,
    /// Right child slot.
    pub right: Atomic<Node<K, V, A, S>>,
    /// Swappable immutable state record.
    pub state: Atomic<NodeState<A::Agg>>,
    /// Per-node operations queue (§II-A). The dummy timestamp equals the
    /// node's creation watermark: descriptors older than the node can never
    /// enter.
    pub queue: TsQueue<OpRef<K, V, A, S>>,
}

/// A node of the concurrent external search tree.
pub enum Node<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K> = Balanced> {
    /// A removed leaf position (or the empty tree); cleaned up by rebuilds,
    /// where the shape has them.
    Empty(EmptyNode),
    /// A run of data items.
    Leaf(LeafNode<K, V, A::Agg>),
    /// A routing node with queue and state.
    Inner(InnerNode<K, V, A, S>),
}

impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> Node<K, V, A, S> {
    /// An empty placeholder created by the operation with timestamp `ts`.
    pub fn empty(ts: Timestamp) -> Self {
        Node::Empty(EmptyNode { created_ts: ts })
    }

    /// [`LeafNode::from_run`] as a node.
    pub(crate) fn leaf(run: Run<K, V>, ts: Timestamp) -> Self {
        Node::Leaf(LeafNode::from_run::<A>(run, ts))
    }

    /// The inner node, if this is one.
    pub fn as_inner(&self) -> Option<&InnerNode<K, V, A, S>> {
        match self {
            Node::Inner(inner) => Some(inner),
            _ => None,
        }
    }

    /// Current augmentation value of this child as seen from its parent:
    /// identity for `Empty`, the stored aggregate of a leaf run, and the
    /// *current state's* aggregate for an inner node — `O(1)` in all three.
    pub fn current_agg(&self, guard: &Guard) -> A::Agg {
        match self {
            Node::Empty(_) => A::identity(),
            Node::Leaf(leaf) => leaf.agg.clone(),
            Node::Inner(inner) => {
                // ORDERING: Acquire pairs with the AcqRel state CAS in
                // `apply_state_delta`, so the record's fields are visible.
                let state = inner.state.load(Ordering::Acquire, guard);
                // Inner nodes always carry a state record.
                // SAFETY: inner nodes always carry a non-null state record (installed at
                // construction, only ever swapped for a successor) and records are retired
                // via `defer_destroy`, so the deref is valid under `guard`.
                unsafe { state.deref() }.agg.clone()
            }
        }
    }
}

/// What a leaf contributes to an aggregate range query in `mode`: the stored
/// aggregate when the whole run is admitted, otherwise a fold over the
/// admitted part (at most [`LEAF_CAP`] entries — only border leaves pay it).
pub(crate) fn leaf_range_agg<K: Key, V: Value, A: Augmentation<K, V>>(
    leaf: &LeafNode<K, V, A::Agg>,
    mode: &RangeMode<K>,
) -> A::Agg {
    let part = admitted(&leaf.entries, mode);
    if part.len() == leaf.entries.len() {
        leaf.agg.clone()
    } else {
        run_agg::<K, V, A>(part)
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> InnerNode<K, V, A, S> {
    /// Loads the current state record.
    pub fn load_state<'g>(&self, guard: &'g Guard) -> &'g NodeState<A::Agg> {
        // ORDERING: Acquire pairs with the AcqRel state CAS in
        // `apply_state_delta`.
        let state = self.state.load(Ordering::Acquire, guard);
        // SAFETY: the state record is non-null by construction and
        // epoch-protected under `guard`; see `current_agg`.
        unsafe { state.deref() }
    }

    /// Loads the current state record as a `Shared` pointer (needed as the
    /// expected value of a CAS).
    pub fn load_state_shared<'g>(&self, guard: &'g Guard) -> Shared<'g, NodeState<A::Agg>> {
        // ORDERING: Acquire pairs with the AcqRel state CAS in
        // `apply_state_delta`.
        self.state.load(Ordering::Acquire, guard)
    }

    /// The left child slot with its coverage.
    pub(crate) fn left_slot(&self) -> Slot<'_, K, V, A, S> {
        Slot {
            cell: &self.left,
            coverage: S::halves(self.coverage, &self.rsm).0,
        }
    }

    /// The right child slot with its coverage.
    pub(crate) fn right_slot(&self) -> Slot<'_, K, V, A, S> {
        Slot {
            cell: &self.right,
            coverage: S::halves(self.coverage, &self.rsm).1,
        }
    }
}

/// A child slot as the update path sees it: the pointer cell plus what the
/// shape knows about the keys routed into it.
pub(crate) struct Slot<'g, K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> {
    pub(crate) cell: &'g Atomic<Node<K, V, A, S>>,
    pub(crate) coverage: S::Coverage,
}

// Manual Clone/Copy: the derived impls would demand `K: Copy, V: Copy, ...`
// bounds, but the struct only holds a shared reference and a `Copy` coverage.
impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> Clone for Slot<'_, K, V, A, S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> Copy for Slot<'_, K, V, A, S> {}

/// Builds a balanced concurrent subtree from sorted, de-duplicated `entries`
/// (the §II-E rebuild): the entries are packed into runs of about
/// `REBUILD_FILL` under a balanced skeleton of routing nodes.
///
/// Every created inner node gets a fresh id, `mod_cnt = 0`,
/// `ts_mod = watermark` and a queue watermark of `watermark`, and every leaf
/// `created_ts = watermark`, where the caller passes
/// `watermark = rebuild_op_timestamp - 1` so the rebuilding operation itself
/// and all later operations can still modify the new subtree while all
/// earlier (already-accounted-for) operations cannot.
pub(crate) fn build_subtree<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>>(
    entries: &[(K, V)],
    coverage: S::Coverage,
    watermark: Timestamp,
    ids: &IdAllocator,
) -> (Node<K, V, A, S>, A::Agg) {
    build_runs(
        entries,
        entries.len().div_ceil(REBUILD_FILL),
        coverage,
        watermark,
        ids,
    )
}

/// [`build_subtree`] over a fixed number of leaf runs: the run count is
/// halved at each routing node and the entries divided in proportion, so
/// the skeleton is balanced and the runs differ in length by at most one.
fn build_runs<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>>(
    entries: &[(K, V)],
    runs: usize,
    coverage: S::Coverage,
    watermark: Timestamp,
    ids: &IdAllocator,
) -> (Node<K, V, A, S>, A::Agg) {
    match runs {
        0 => (Node::empty(watermark), A::identity()),
        1 => {
            let leaf = LeafNode::from_run::<A>(entries.to_vec(), watermark);
            let agg = leaf.agg.clone();
            (Node::Leaf(leaf), agg)
        }
        _ => {
            let left_runs = runs / 2;
            let mid = entries.len() * left_runs / runs;
            let rsm = entries[mid].0;
            let (lo, hi) = S::halves(coverage, &rsm);
            let (left, left_agg) =
                build_runs::<K, V, A, S>(&entries[..mid], left_runs, lo, watermark, ids);
            let (right, right_agg) =
                build_runs::<K, V, A, S>(&entries[mid..], runs - left_runs, hi, watermark, ids);
            let agg = A::combine(&left_agg, &right_agg);
            let inner = InnerNode {
                id: ids.fresh(),
                rsm,
                init_sz: entries.len() as u64,
                coverage,
                left: Atomic::new(left),
                right: Atomic::new(right),
                state: Atomic::new(NodeState {
                    agg: agg.clone(),
                    mod_cnt: 0,
                    ts_mod: watermark,
                }),
                queue: TsQueue::new(watermark),
            };
            (Node::Inner(inner), agg)
        }
    }
}

/// The subtree an overflowing insert installs over `run`, which lies in a
/// slot covering `coverage`: a routing node at the key the shape cuts at,
/// over the two parts of the run. [`Balanced`] cuts at the median, so both
/// parts are leaves. [`Radix`](crate::Radix) cuts at an index boundary of
/// the slot, so a part may be empty (an `Empty` sibling) or still too long,
/// in which case it is split again one level down: the chain of single-child
/// nodes down to where the keys diverge.
///
/// The state of every node created already includes the new key, so its
/// `ts_mod` and queue watermark are `ts` — stalled helpers of this very
/// operation must not apply the delta or enqueue the descriptor again — and
/// its `init_sz` is the run length, so a balanced tree next rebuilds it after
/// about that many updates, not on its third.
pub(crate) fn split_node<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>>(
    mut run: Run<K, V>,
    coverage: S::Coverage,
    ts: Timestamp,
    ids: &IdAllocator,
) -> (Node<K, V, A, S>, A::Agg) {
    let init_sz = run.len() as u64;
    let rsm = S::cut(coverage, &run);
    let upper = run.split_off(run.partition_point(|(k, _)| k < &rsm));
    let (lo, hi) = S::halves(coverage, &rsm);
    let part = |run: Run<K, V>, coverage| match run.len() {
        0 => (Node::empty(ts), A::identity()),
        1..=LEAF_CAP => {
            let leaf = LeafNode::from_run::<A>(run, ts);
            let agg = leaf.agg.clone();
            (Node::Leaf(leaf), agg)
        }
        _ => split_node(run, coverage, ts, ids),
    };
    let (left, left_agg) = part(run, lo);
    let (right, right_agg) = part(upper, hi);
    let agg = A::combine(&left_agg, &right_agg);
    let inner = InnerNode {
        id: ids.fresh(),
        rsm,
        init_sz,
        coverage,
        left: Atomic::new(left),
        right: Atomic::new(right),
        state: Atomic::new(NodeState {
            agg: agg.clone(),
            mod_cnt: 0,
            ts_mod: ts,
        }),
        queue: TsQueue::new(ts),
    };
    (Node::Inner(inner), agg)
}

/// Collects every `(key, value)` stored in the subtree rooted at `node`, in
/// key order, following the *current* child pointers. Used by the rebuild
/// procedure after it has drained every queue in the subtree, and by
/// quiescent diagnostics.
pub(crate) fn collect_subtree<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>>(
    node: Shared<'_, Node<K, V, A, S>>,
    out: &mut Vec<(K, V)>,
    guard: &Guard,
) {
    if node.is_null() {
        return;
    }
    // SAFETY: the caller passes a child pointer loaded under `guard` from a
    // drained, still-reachable subtree; nodes are retired only via
    // `retire_subtree`/`defer_destroy`.
    match unsafe { node.deref() } {
        Node::Empty(_) => {}
        Node::Leaf(leaf) => out.extend_from_slice(&leaf.entries),
        Node::Inner(inner) => {
            // ORDERING: Acquire pairs with the AcqRel child-slot CASes, so both
            // subtrees are fully initialised when walked.
            collect_subtree(inner.left.load(Ordering::Acquire, guard), out, guard);
            // ORDERING: as above.
            collect_subtree(inner.right.load(Ordering::Acquire, guard), out, guard);
        }
    }
}

/// Retires every node of an *unlinked* subtree through the epoch collector.
///
/// Must only be called on a subtree that has just been atomically replaced
/// (rebuild) — i.e. no new references to it can be created, and existing
/// references are protected by their owners' guards.
pub(crate) fn retire_subtree<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>>(
    node: Shared<'_, Node<K, V, A, S>>,
    guard: &Guard,
) {
    if node.is_null() {
        return;
    }
    // SAFETY: the subtree was just unlinked by its replacer (single CAS
    // winner), so no new references can form; existing readers hold epoch
    // guards, which `defer_destroy` waits out.
    if let Node::Inner(inner) = unsafe { node.deref() } {
        // ORDERING: Acquire pairs with the AcqRel child-slot CASes so the walk
        // sees the subtree's final shape.
        retire_subtree(inner.left.load(Ordering::Acquire, guard), guard);
        // ORDERING: as above.
        retire_subtree(inner.right.load(Ordering::Acquire, guard), guard);
        // ORDERING: Acquire pairs with the AcqRel state CAS in `apply_state_delta`.
        let state = inner.state.load(Ordering::Acquire, guard);
        if !state.is_null() {
            // SAFETY: the state record belongs to the unlinked subtree and is retired
            // exactly once (this walk is the only retirement path for it).
            unsafe { guard.defer_destroy(state) };
        }
    }
    // SAFETY: `node` is unlinked (see above); each node of the subtree is
    // retired exactly once by this single post-order walk.
    unsafe { guard.defer_destroy(node) };
}

/// Frees a subtree immediately. Only safe with exclusive access (tree `Drop`
/// or a speculative subtree that was never published).
pub(crate) fn free_subtree_now<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>>(
    node: Shared<'_, Node<K, V, A, S>>,
) {
    if node.is_null() {
        return;
    }
    // SAFETY: the caller guarantees exclusive access (tree `Drop` or a
    // never-published speculative subtree), so freeing in place without epoch
    // protection is sound and each node is freed exactly once.
    unsafe {
        let unprotected = crossbeam_epoch::unprotected();
        if let Node::Inner(inner) = node.deref() {
            free_subtree_now(inner.left.load(Ordering::Relaxed, unprotected));
            free_subtree_now(inner.right.load(Ordering::Relaxed, unprotected));
            let state = inner.state.load(Ordering::Relaxed, unprotected);
            if !state.is_null() {
                drop(state.into_owned());
            }
            // The queue frees its own nodes when the InnerNode is dropped.
        }
        drop(node.into_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Radix;
    use crossbeam_epoch::{self as epoch, Owned};
    use wft_seq::Size;

    type N = Node<i64, (), Size>;

    #[test]
    fn id_allocator_is_monotone_and_skips_fictive_root() {
        let ids = IdAllocator::new();
        let a = ids.fresh();
        let b = ids.fresh();
        assert!(a > FICTIVE_ROOT_ID);
        assert!(b > a);
    }

    #[test]
    fn build_subtree_computes_aggregates_and_watermarks() {
        let ids = IdAllocator::new();
        let entries: Vec<(i64, ())> = (0..100).map(|k| (k, ())).collect();
        let (node, agg) =
            build_subtree::<i64, (), Size, Balanced>(&entries, (), Timestamp(41), &ids);
        assert_eq!(agg, 100);
        let guard = epoch::pin();
        match &node {
            Node::Inner(inner) => {
                assert_eq!(inner.init_sz, 100);
                assert_eq!(inner.load_state(&guard).agg, 100);
                assert_eq!(inner.load_state(&guard).ts_mod, Timestamp(41));
                assert_eq!(inner.load_state(&guard).mod_cnt, 0);
                assert!(inner.queue.is_empty(&guard));
                // The watermark rejects older descriptors; we can't push a
                // real descriptor here without a full tree, but the queue's
                // last timestamp reflects the watermark.
                assert_eq!(inner.queue.last_timestamp(&guard), Timestamp(41));
            }
            _ => panic!("100 entries must build an inner root"),
        }
        entries_of(node);
    }

    #[test]
    fn build_and_collect_roundtrip() {
        let ids = IdAllocator::new();
        for n in [0usize, 1, 2, 3, 7, 64, 101] {
            let entries: Vec<(i64, ())> = (0..n as i64).map(|k| (k * 2, ())).collect();
            let (node, agg) =
                build_subtree::<i64, (), Size, Balanced>(&entries, (), Timestamp::ZERO, &ids);
            assert_eq!(agg, n as u64);
            assert_eq!(entries_of(node), entries);
        }
    }

    #[test]
    fn current_agg_per_node_kind() {
        let guard = epoch::pin();
        let empty: N = Node::empty(Timestamp::ZERO);
        assert_eq!(empty.current_agg(&guard), 0);
        let leaf: N = Node::leaf(vec![(3, ()), (5, ()), (8, ())], Timestamp::ZERO);
        assert_eq!(leaf.current_agg(&guard), 3);
        assert!(leaf.as_inner().is_none());
    }

    #[test]
    fn build_subtree_packs_runs_under_a_balanced_skeleton() {
        let ids = IdAllocator::new();
        for n in [
            1usize,
            REBUILD_FILL,
            REBUILD_FILL + 1,
            LEAF_CAP + 1,
            1000,
            4096,
        ] {
            let entries: Vec<(i64, ())> = (0..n as i64).map(|k| (k, ())).collect();
            let (node, _) =
                build_subtree::<i64, (), Size, Balanced>(&entries, (), Timestamp::ZERO, &ids);
            let runs = leaf_runs(&node);
            assert_eq!(runs.len(), n.div_ceil(REBUILD_FILL), "run count for {n}");
            let lens = runs.iter().map(|r| r.1);
            assert!(lens.clone().max().unwrap() <= REBUILD_FILL);
            assert!(lens.clone().max().unwrap() - lens.min().unwrap() <= 1);
            let depths = runs.iter().map(|r| r.0);
            assert!(depths.clone().max().unwrap() - depths.min().unwrap() <= 1);
            entries_of(node);
        }
    }

    #[test]
    fn insert_into_run_inserts_in_order_and_replaces_in_place() {
        let run = vec![(10, 'a'), (20, 'b'), (30, 'c')];
        assert_eq!(
            insert_into_run(&run, 5, 'x'),
            vec![(5, 'x'), (10, 'a'), (20, 'b'), (30, 'c')]
        );
        assert_eq!(
            insert_into_run(&run, 25, 'x'),
            vec![(10, 'a'), (20, 'b'), (25, 'x'), (30, 'c')]
        );
        assert_eq!(
            insert_into_run(&run, 35, 'x'),
            vec![(10, 'a'), (20, 'b'), (30, 'c'), (35, 'x')]
        );
        assert_eq!(
            insert_into_run(&run, 20, 'x'),
            vec![(10, 'a'), (20, 'x'), (30, 'c')]
        );
        assert_eq!(insert_into_run(&[], 1, 'x'), vec![(1, 'x')]);
    }

    #[test]
    fn remove_from_run_drops_only_the_key() {
        let run = vec![(10, 'a'), (20, 'b'), (30, 'c')];
        assert_eq!(remove_from_run(&run, &10), Some(vec![(20, 'b'), (30, 'c')]));
        assert_eq!(remove_from_run(&run, &30), Some(vec![(10, 'a'), (20, 'b')]));
        assert_eq!(remove_from_run(&run, &15), None);
        assert_eq!(remove_from_run(&run[..1], &10), Some(vec![]));
    }

    #[test]
    fn split_run_halves_an_overflowing_run() {
        // The balanced shape cuts at the median: two leaves, the upper one
        // with the odd entry, under one routing node.
        let ids = IdAllocator::new();
        for n in [LEAF_CAP as i64 + 1, 2] {
            let run: Vec<(i64, ())> = (0..n).map(|k| (k, ())).collect();
            let (node, agg) =
                split_node::<_, _, Size, Balanced>(run.clone(), (), Timestamp(9), &ids);
            assert_eq!(agg, n as u64);
            let inner = node.as_inner().expect("a split installs a routing node");
            assert_eq!((inner.rsm, inner.init_sz), (n / 2, n as u64));
            assert_eq!(
                leaf_runs(&node),
                vec![(1, (n / 2) as usize), (1, (n - n / 2) as usize)]
            );
            assert_eq!(entries_of(node), run);
        }
    }

    /// `(depth, run length)` of every leaf of a test-owned subtree, in key
    /// order.
    fn leaf_runs<K: Key, S: Shape<K>>(node: &Node<K, (), Size, S>) -> Vec<(usize, usize)> {
        fn walk<K: Key, S: Shape<K>>(
            node: &Node<K, (), Size, S>,
            depth: usize,
            out: &mut Vec<(usize, usize)>,
        ) {
            // SAFETY: the subtree was never published; the test owns it exclusively.
            let guard = unsafe { epoch::unprotected() };
            match node {
                Node::Empty(_) => {}
                Node::Leaf(leaf) => out.push((depth, leaf.entries().len())),
                Node::Inner(inner) => {
                    for slot in [&inner.left, &inner.right] {
                        // SAFETY: as above; child slots are never null.
                        let child = unsafe { slot.load(Ordering::Relaxed, guard).deref() };
                        walk(child, depth + 1, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(node, 0, &mut out);
        out
    }

    /// Collects and frees a test-owned subtree.
    fn entries_of<K: Key, S: Shape<K>>(node: Node<K, (), Size, S>) -> Vec<(K, ())> {
        // SAFETY: the subtree was never published; the test owns it exclusively.
        let shared = Owned::new(node).into_shared(unsafe { epoch::unprotected() });
        let mut out = Vec::new();
        collect_subtree(shared, &mut out, &epoch::pin());
        free_subtree_now(shared);
        out
    }

    #[test]
    fn coverage_intervals_and_children() {
        type R = Radix;
        let whole = <R as Shape<u64>>::WHOLE;
        assert_eq!(whole, (0, u64::MAX));
        let (left, right) = <R as Shape<u64>>::halves(whole, &(1 << 63));
        assert_eq!(left, (0, u64::MAX >> 1));
        assert_eq!(right, (1 << 63, u64::MAX));
        // A slot's coverage is what its parent's coverage and routing key
        // leave it, whatever keys it holds.
        let ids = IdAllocator::new();
        let run = vec![(40u64, ()), (42, ())];
        let (node, _) = split_node::<_, _, Size, R>(run, left, Timestamp(1), &ids);
        let inner = node.as_inner().unwrap();
        assert_eq!(inner.rsm, 1 << 62);
        assert_eq!(inner.left_slot().coverage, (0, (1 << 62) - 1));
        assert_eq!(inner.right_slot().coverage, (1 << 62, u64::MAX >> 1));
        entries_of(node);
    }

    #[test]
    fn build_subtrie_roundtrip() {
        // A radix tree is bulk-built on the same balanced skeleton; every
        // routing node records the index interval its position leaves it.
        fn check(node: &Node<u64, (), Size, Radix>, coverage: (u64, u64)) {
            if let Node::Inner(inner) = node {
                assert_eq!(inner.coverage, coverage);
                for slot in [inner.left_slot(), inner.right_slot()] {
                    // SAFETY: never published; the test owns the subtree.
                    let guard = unsafe { epoch::unprotected() };
                    // SAFETY: as above; child slots are never null.
                    check(
                        unsafe { slot.cell.load(Ordering::Relaxed, guard).deref() },
                        slot.coverage,
                    );
                }
            }
        }
        let ids = IdAllocator::new();
        let entries: Vec<(u64, ())> = (0..200u64).map(|k| (k * 3, ())).collect();
        let whole = <Radix as Shape<u64>>::WHOLE;
        let (node, agg) =
            build_subtree::<_, _, Size, Radix>(&entries, whole, Timestamp::ZERO, &ids);
        assert_eq!(agg, 200);
        check(&node, whole);
        assert_eq!(entries_of(node), entries);
    }

    #[test]
    fn divergence_chain_holds_both_keys() {
        let ids = IdAllocator::new();
        let guard = epoch::pin();
        // A full run and the key that overflows it agree on many leading
        // bits: a long chain down to the bit that tells them apart.
        let (first, last) = (1024u64, 1024 + LEAF_CAP as u64);
        let run: Vec<(u64, ())> = (first..=last).map(|k| (k, ())).collect();
        let whole = <Radix as Shape<u64>>::WHOLE;
        let (chain, agg) = split_node::<_, _, Size, Radix>(run.clone(), whole, Timestamp(5), &ids);
        assert_eq!(agg, run.len() as u64);
        assert_eq!(leaf_runs(&chain), vec![(59, LEAF_CAP), (59, 1)]);
        // Every inner node on the chain covers both ends of the run and
        // carries the operation's timestamp and the whole aggregate.
        let mut node = &chain;
        while let Node::Inner(inner) = node {
            assert!(inner.coverage.0 <= first && last <= inner.coverage.1);
            assert_eq!(inner.load_state(&guard).ts_mod, Timestamp(5));
            assert_eq!(inner.load_state(&guard).agg, run.len() as u64);
            assert_eq!(inner.queue.last_timestamp(&guard), Timestamp(5));
            let slot = if inner.rsm > first {
                &inner.left
            } else {
                &inner.right
            };
            // SAFETY: never published; the test owns the chain.
            node = unsafe { slot.load(Ordering::Relaxed, &guard).deref() };
        }
        assert_eq!(entries_of(chain), run);
    }

    #[test]
    fn divergence_chain_length_matches_common_prefix() {
        let ids = IdAllocator::new();
        // Indices diverging at the very first bit produce a single node.
        let run = vec![(0u64, ()), (u64::MAX, ())];
        let whole = <Radix as Shape<u64>>::WHOLE;
        let (node, _) = split_node::<_, _, Size, Radix>(run, whole, Timestamp(1), &ids);
        assert_eq!(leaf_runs(&node), vec![(1, 1), (1, 1)]);
        entries_of(node);
        // Two keys that stay together are one leaf beside an `Empty`: the
        // chain only goes on while a part is too long for a leaf.
        let run = vec![(1024u64, ()), (1025, ())];
        let (node, _) = split_node::<_, _, Size, Radix>(run.clone(), whole, Timestamp(1), &ids);
        assert_eq!(leaf_runs(&node), vec![(1, 2)]);
        assert_eq!(entries_of(node), run);
    }

    #[test]
    fn the_balanced_shape_adds_nothing_to_a_node() {
        // The size of `InnerNode<i64, (), Size>` before the tree had shapes.
        assert_eq!(
            std::mem::size_of::<InnerNode<i64, (), Size, Balanced>>(),
            64
        );
        assert!(
            std::mem::size_of::<InnerNode<i64, (), Size, Radix>>()
                > std::mem::size_of::<InnerNode<i64, (), Size, Balanced>>()
        );
    }

    #[test]
    fn run_agg_and_admitted_agree_with_a_filter() {
        use wft_seq::Sum;
        let run: Vec<(i64, i64)> = (0..10).map(|k| (k * 10, k)).collect();
        assert_eq!(run_agg::<i64, i64, Sum>(&run), 45);
        assert_eq!(run_agg::<i64, i64, Sum>(&[]), 0);
        let modes = [
            RangeMode::Both { min: 15, max: 60 },
            RangeMode::Both { min: 20, max: 20 },
            RangeMode::Both { min: 21, max: 29 },
            RangeMode::Both { min: -5, max: 500 },
            RangeMode::LeftBorder { min: 90 },
            RangeMode::LeftBorder { min: 91 },
            RangeMode::RightBorder { max: 0 },
            RangeMode::RightBorder { max: -1 },
        ];
        for mode in modes {
            let expect: Vec<(i64, i64)> = run
                .iter()
                .filter(|(k, _)| mode.admits(k))
                .cloned()
                .collect();
            assert_eq!(admitted(&run, &mode), &expect[..], "{mode:?}");
            let leaf = LeafNode::from_run::<Sum>(run.clone(), Timestamp::ZERO);
            assert_eq!(
                leaf_range_agg::<i64, i64, Sum>(&leaf, &mode),
                expect.iter().map(|(_, v)| *v as i128).sum::<i128>()
            );
        }
    }
}
