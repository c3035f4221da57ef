//! Operation descriptors (§II-B).
//!
//! A descriptor is the shared record through which an operation is executed
//! cooperatively: it is enqueued at the root, propagated into per-node queues
//! and *helped* by any process that finds it ahead of its own operation. The
//! descriptor carries everything helpers need —
//!
//! * the operation itself ([`OpKind`]),
//! * the write-once [`Decision`] resolved at the linearization point for
//!   updates,
//! * the `Processed` first-write-wins map of per-node partial results of a
//!   read (an update's result is its decision, and it records none),
//! * the per-node [`RangeMode`] map telling helpers which border of a range
//!   query applies at a node,
//! * the `Traverse` queue of nodes the initiator still has to visit.
//!
//! Descriptors are epoch records: `OwnedOp::new` takes one from the epoch
//! shim's pool (`Owned::new`), and queues and announce records hold a plain
//! [`OpRef`] pointer to it, copied without a reference count. The initiator
//! owns the descriptor and retires it through `defer_destroy` when its
//! `OwnedOp` drops, after the result is assembled. That is safe because
//! by then the operation has left every queue it entered and no thread can
//! newly obtain the pointer; DESIGN.md § "What one operation allocates"
//! gives the argument.

use std::ptr::NonNull;
use std::sync::OnceLock;

use crossbeam_epoch::{Guard, Owned, Shared};
use wft_queue::{Decision, FirstWriteMap, TraverseQueue};
use wft_seq::{Augmentation, Key, Value};

use crate::node::{Node, NodeId};
use crate::shape::{Balanced, Shape};

/// A plain pointer to a descriptor: what the root queue's announce records
/// and queue nodes and the node queues hold. Copying one costs
/// nothing; reading through one takes a guard ([`OpRef::deref`]).
pub struct OpRef<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K> = Balanced>(
    NonNull<Descriptor<K, V, A, S>>,
);

// Manual Clone/Copy: the derived impls would demand `K: Copy, V: Copy`.
impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> Clone for OpRef<K, V, A, S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> Copy for OpRef<K, V, A, S> {}

// SAFETY: an `OpRef` is a pointer to a `Descriptor`, which is `Send + Sync`
// (its shared-mutable parts are atomics, `OnceLock`s and first-write maps);
// moving the pointer to another thread only lets that thread read the
// descriptor through `deref`, under its own guard.
unsafe impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> Send for OpRef<K, V, A, S> where
    Descriptor<K, V, A, S>: Send + Sync
{
}
// SAFETY: as for `Send` — sharing the pointer shares only `&Descriptor`,
// and the descriptor is `Sync`.
unsafe impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> Sync for OpRef<K, V, A, S> where
    Descriptor<K, V, A, S>: Send + Sync
{
}

impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> OpRef<K, V, A, S> {
    /// The pointer to a descriptor already borrowed, for handing it on to
    /// a queue.
    pub(crate) fn from_ref(op: &Descriptor<K, V, A, S>) -> Self {
        OpRef(NonNull::from(op))
    }

    /// The descriptor, for as long as `guard` lives.
    ///
    /// # Safety
    ///
    /// `guard` must have been pinned before the descriptor was retired. That
    /// holds for a pointer peeked from a queue under `guard`: the descriptor
    /// is retired only after its operation left every queue. A pointer
    /// copied out of an announce record may already be retired; it only
    /// goes to `push_if`, which rejects it unread.
    pub unsafe fn deref(self, _guard: &Guard) -> &Descriptor<K, V, A, S> {
        // SAFETY: non-null and allocated by `OwnedOp::new`; the caller's
        // guard predates the retirement, so the epoch keeps the block out of
        // every pool and allocator until the guard drops.
        unsafe { self.0.as_ref() }
    }
}

/// The initiator's handle on its descriptor. It pins the guard the whole
/// operation runs under, allocates the descriptor from the epoch pool, reads
/// it without further ceremony and retires it when dropped.
pub(crate) struct OwnedOp<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K> = Balanced> {
    op: OpRef<K, V, A, S>,
    guard: Guard,
}

impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> OwnedOp<K, V, A, S> {
    /// Pins a guard, then allocates a fresh descriptor for `kind` under it,
    /// before the descriptor can become visible to any other thread.
    pub(crate) fn new(kind: OpKind<K, V>) -> Self {
        let guard = crossbeam_epoch::pin();
        let shared = Owned::new(Descriptor::new(kind)).into_shared(&guard);
        let ptr = NonNull::new(shared.as_raw().cast_mut()).expect("a fresh allocation");
        OwnedOp {
            op: OpRef(ptr),
            guard,
        }
    }

    /// The pointer to hand to queues.
    pub(crate) fn op(&self) -> OpRef<K, V, A, S> {
        self.op
    }

    /// The guard pinned before the descriptor was allocated.
    pub(crate) fn guard(&self) -> &Guard {
        &self.guard
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> std::ops::Deref for OwnedOp<K, V, A, S> {
    type Target = Descriptor<K, V, A, S>;

    fn deref(&self) -> &Self::Target {
        // SAFETY: this handle retires the descriptor only in its `Drop`, and
        // its guard was pinned before the allocation.
        unsafe { self.op.deref(&self.guard) }
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> Drop for OwnedOp<K, V, A, S> {
    fn drop(&mut self) {
        // An operation unwinding from a panic may still sit in a queue: leak
        // its descriptor rather than retire it.
        if std::thread::panicking() {
            return;
        }
        let shared = Shared::from(self.op.0.as_ptr().cast_const());
        // SAFETY: the handle is the descriptor's only owner and drops once, so
        // it is retired exactly once. The operation has left every queue it
        // entered, so no thread pinning after this call can obtain the
        // pointer; one that obtained it earlier is waited out by the epoch
        // (DESIGN.md § "What one operation allocates").
        unsafe { self.guard.defer_destroy(shared) };
    }
}

/// The operation a descriptor performs.
#[derive(Debug, Clone)]
pub enum OpKind<K, V> {
    /// `insert(key, value)`: add the key if absent.
    Insert {
        /// Key to insert.
        key: K,
        /// Value to associate.
        value: V,
    },
    /// `replace(key, value)`: add the key or overwrite its value — the
    /// atomic upsert. Unlike `Insert` it always takes effect; its decision
    /// records the overwritten value. One descriptor, one root-queue
    /// timestamp: the operation linearizes exactly like every other update
    /// instead of composing `remove` + `insert`.
    Replace {
        /// Key to insert or overwrite.
        key: K,
        /// Value to associate.
        value: V,
    },
    /// `remove(key)`: delete the key if present.
    Remove {
        /// Key to remove.
        key: K,
    },
    /// `contains(key)` / `get(key)`: look the key up.
    Lookup {
        /// Key to look up.
        key: K,
    },
    /// Aggregate range query over `[min, max]` (`count`, `range_sum`, ...):
    /// logarithmic time thanks to the augmentation.
    RangeAgg {
        /// Lower bound (inclusive).
        min: K,
        /// Upper bound (inclusive).
        max: K,
    },
    /// `collect(min, max)`: list all entries in `[min, max]` (linear in the
    /// output size, like prior work).
    Collect {
        /// Lower bound (inclusive).
        min: K,
        /// Upper bound (inclusive).
        max: K,
    },
}

impl<K: Key, V: Value> OpKind<K, V> {
    /// `true` for operations that may modify the tree.
    pub fn is_update(&self) -> bool {
        matches!(
            self,
            OpKind::Insert { .. } | OpKind::Replace { .. } | OpKind::Remove { .. }
        )
    }
}

/// Which part of a range query applies at a particular node.
///
/// This encodes the three procedures of the paper's appendix: descending with
/// both borders (`count_both_borders`), with only the lower border
/// (`count_left_border`) or with only the upper border
/// (`count_right_border`). The mode of a child is fully determined by the
/// parent's mode and the parent's routing key, so all helpers compute the
/// same value; it is recorded first-write-wins before the descriptor is
/// pushed into the child's queue so helpers executing the descriptor there
/// can find it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeMode<K> {
    /// Keys in `[min, max]` count.
    Both {
        /// Lower bound.
        min: K,
        /// Upper bound.
        max: K,
    },
    /// Keys `>= min` count (right border already satisfied).
    LeftBorder {
        /// Lower bound.
        min: K,
    },
    /// Keys `<= max` count (left border already satisfied).
    RightBorder {
        /// Upper bound.
        max: K,
    },
}

impl<K: Key> RangeMode<K> {
    /// Does `key` fall inside the range described by this mode?
    pub fn admits(&self, key: &K) -> bool {
        match self {
            RangeMode::Both { min, max } => min <= key && key <= max,
            RangeMode::LeftBorder { min } => key >= min,
            RangeMode::RightBorder { max } => key <= max,
        }
    }
}

/// The per-node partial result recorded in the `Processed` map.
///
/// A read records a partial **unconditionally** for every node it is
/// executed in, even when the contribution is empty: claiming the node id in
/// the first-write-wins map is what protects the final result from values
/// computed by stalled helpers at the wrong linearization point (§II-B).
/// An update has no result to protect that way — its outcome is the
/// write-once [`Decision`], fixed at the fictive root before it descends —
/// so it records nothing.
#[derive(Debug, Clone)]
pub enum Partial<K, V, Agg> {
    /// Contribution of a node to an aggregate range query.
    Agg(Agg),
    /// Result of a lookup resolved at this node (`None` if this node was not
    /// the bottom of the search path).
    Lookup(Option<Option<V>>),
    /// Entries contributed by this node's leaf children to a `collect`.
    Entries(Vec<(K, V)>),
}

/// The shared operation descriptor.
pub struct Descriptor<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K> = Balanced> {
    /// The operation to perform.
    pub kind: OpKind<K, V>,
    /// Effect of an update, resolved exactly once at the linearization point
    /// (fictive-root execution) through the presence index.
    pub decision: OnceLock<Decision<V>>,
    /// `Op.Processed`: per-node partial results of a read, first write wins.
    /// Read only by the `assemble_*` functions; updates leave it empty.
    pub processed: FirstWriteMap<NodeId, Partial<K, V, A::Agg>>,
    /// Range-query mode per node, recorded before the descriptor enters the
    /// node's queue.
    pub modes: FirstWriteMap<NodeId, RangeMode<K>>,
    /// `Op.Traverse`: nodes the initiator still has to visit.
    ///
    /// A pointer in it is only dereferenced by the operation's initiator,
    /// while it holds the epoch guard it pinned *before* the operation
    /// entered the root queue. Any node pushed here was loaded from a live
    /// child slot after that point, so its reclamation (if a rebuild
    /// unlinks it) is deferred past the initiator's guard.
    pub traverse: TraverseQueue<Node<K, V, A, S>>,
}

impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> Descriptor<K, V, A, S> {
    /// Creates a fresh descriptor for `kind`.
    pub fn new(kind: OpKind<K, V>) -> Self {
        // Scalar reads and aggregate range queries record `O(height + |P|)`
        // partials, where a single-bucket map is both smallest and fastest
        // (and, like the mode map and the traverse queue, allocates nothing
        // until used); a `collect` records one partial per visited node, so
        // its map is bucketed to keep insertion constant-time over wide
        // ranges.
        let processed = match &kind {
            OpKind::Collect { .. } => FirstWriteMap::with_buckets(256),
            _ => FirstWriteMap::new(),
        };
        Descriptor {
            kind,
            decision: OnceLock::new(),
            processed,
            modes: FirstWriteMap::new(),
            traverse: TraverseQueue::new(),
        }
    }

    /// The resolved decision of an update descriptor.
    ///
    /// # Panics
    ///
    /// Panics if called before the descriptor was executed at the fictive
    /// root (the decision is always resolved there first).
    pub fn resolved_decision(&self) -> &Decision<V> {
        self.decision
            .get()
            .expect("update descriptor executed below the root before being resolved")
    }

    /// Assembles the final aggregate of a range query by combining every
    /// recorded per-node partial. Must only be called after the traverse
    /// queue has drained (the map can no longer change then).
    pub fn assemble_agg(&self) -> A::Agg {
        self.processed.fold(A::identity(), |acc, _, partial| {
            if let Partial::Agg(agg) = partial {
                A::combine(&acc, agg)
            } else {
                acc
            }
        })
    }

    /// Assembles the result of a lookup: the value found at the bottom of
    /// the search path, if any.
    pub fn assemble_lookup(&self) -> Option<V> {
        self.processed.fold(None, |acc, _, partial| {
            if acc.is_some() {
                return acc;
            }
            match partial {
                Partial::Lookup(Some(found)) => found.clone(),
                _ => acc,
            }
        })
    }

    /// Assembles a lookup into a bare presence bit without ever cloning the
    /// value (`contains` on the descriptor read path).
    pub fn assemble_lookup_present(&self) -> bool {
        self.processed.fold(false, |acc, _, partial| {
            acc || matches!(partial, Partial::Lookup(Some(Some(_))))
        })
    }

    /// Assembles a `collect` result: concatenates every node's entries and
    /// sorts them by key.
    pub fn assemble_entries(&self) -> Vec<(K, V)> {
        let mut out = self.processed.fold(Vec::new(), |mut acc, _, partial| {
            if let Partial::Entries(entries) = partial {
                acc.extend(entries.iter().cloned());
            }
            acc
        });
        out.sort_by_key(|a| a.0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wft_seq::Size;

    type D = Descriptor<i64, (), Size>;

    #[test]
    fn op_kind_classification() {
        let ins: OpKind<i64, ()> = OpKind::Insert { key: 1, value: () };
        let rep: OpKind<i64, ()> = OpKind::Replace { key: 1, value: () };
        let rem: OpKind<i64, ()> = OpKind::Remove { key: 1 };
        let look: OpKind<i64, ()> = OpKind::Lookup { key: 1 };
        let agg: OpKind<i64, ()> = OpKind::RangeAgg { min: 1, max: 2 };
        assert!(ins.is_update());
        assert!(rep.is_update());
        assert!(rem.is_update());
        assert!(!look.is_update());
        assert!(!agg.is_update());
    }

    #[test]
    fn range_mode_admits_keys_correctly() {
        let both = RangeMode::Both { min: 10, max: 20 };
        assert!(both.admits(&10) && both.admits(&20) && both.admits(&15));
        assert!(!both.admits(&9) && !both.admits(&21));
        let left = RangeMode::LeftBorder { min: 10 };
        assert!(left.admits(&10) && left.admits(&1000));
        assert!(!left.admits(&9));
        let right = RangeMode::RightBorder { max: 20 };
        assert!(right.admits(&20) && right.admits(&-5));
        assert!(!right.admits(&21));
    }

    #[test]
    fn assemble_agg_combines_partials() {
        let d = D::new(OpKind::RangeAgg { min: 0, max: 100 });
        d.processed.try_insert(1, Partial::Agg(3));
        d.processed.try_insert(2, Partial::Agg(4));
        assert!(!d.processed.try_insert(2, Partial::Agg(100)), "first wins");
        assert_eq!(d.assemble_agg(), 7);
    }

    #[test]
    fn assemble_lookup_takes_the_resolved_entry() {
        let d: Descriptor<i64, i64, Size> = Descriptor::new(OpKind::Lookup { key: 5 });
        d.processed.try_insert(1, Partial::Lookup(None));
        d.processed.try_insert(2, Partial::Lookup(Some(Some(50))));
        d.processed.try_insert(3, Partial::Lookup(None));
        assert_eq!(d.assemble_lookup(), Some(50));

        let miss: Descriptor<i64, i64, Size> = Descriptor::new(OpKind::Lookup { key: 5 });
        miss.processed.try_insert(1, Partial::Lookup(None));
        miss.processed.try_insert(2, Partial::Lookup(Some(None)));
        assert_eq!(miss.assemble_lookup(), None);
    }

    #[test]
    fn assemble_entries_sorts_by_key() {
        let d: Descriptor<i64, i64, Size> = Descriptor::new(OpKind::Collect { min: 0, max: 100 });
        d.processed
            .try_insert(1, Partial::Entries(vec![(5, 50), (1, 10)]));
        d.processed.try_insert(2, Partial::Entries(vec![(3, 30)]));
        d.processed.try_insert(3, Partial::Entries(Vec::new()));
        assert_eq!(d.assemble_entries(), vec![(1, 10), (3, 30), (5, 50)]);
    }

    #[test]
    #[should_panic(expected = "resolved")]
    fn resolved_decision_panics_when_unresolved() {
        let d = D::new(OpKind::Insert { key: 1, value: () });
        let _ = d.resolved_decision();
    }
}
