//! Descriptor-free read fast paths.
//!
//! Every operation of the paper's scheme — including pure reads — allocates
//! a descriptor, enqueues it at the root (a global serialization point) and
//! is helped hand-over-hand down the tree. That machinery is what makes
//! *updates* wait-free and exactly-once, but reads do not need it:
//!
//! * **Point reads** (`get`/`contains`) are answered directly from the
//!   presence index. The index is the tree's resolution authority: every
//!   update's effect is fixed there, exactly once, in strict root-queue
//!   timestamp order, *at* the update's linearization point
//!   ([`wft_queue::PresenceIndex::resolve`]). A snapshot load of a key's
//!   current state therefore linearizes at the load instant — `O(1)`, no
//!   descriptor, no allocation. This lives in
//!   [`wft_queue::PresenceIndex::read_value`] /
//!   [`wft_queue::PresenceIndex::contains_key`]; the tree merely counts the
//!   hits.
//! * **Range reads** (`range_agg`/`count`/`collect_range`) attempt the
//!   **optimistic validated traversal** implemented here, in the style of
//!   lock-free range queries via validated double-collects (Brown & Avni,
//!   arXiv:1712.05101), and fall back to the descriptor slow path when
//!   validation fails.
//!
//! # The optimistic traversal and its validation rule
//!
//! The traversal walks the same pruned paths as the descriptor-based range
//! query (the three-mode scheme of the paper's appendix): it descends
//! through *partially* covered inner nodes, absorbs the stored aggregate of
//! *fully* covered children, and reads bordering leaf runs directly. While
//! doing so it records a **read log**:
//!
//! * every inner node it descended through, with the state-record pointer
//!   observed at the visit (the traversal aborts early if the node's
//!   descriptor queue is non-empty at the visit);
//! * every fully-covered inner child whose aggregate it absorbed, with the
//!   state-record pointer the aggregate was read from;
//! * every leaf/empty child slot it read from, with the observed child
//!   pointer. A leaf is an immutable run of up to `LEAF_CAP` entries
//!   (`crate::node`), so one logged pointer vouches for every entry of the
//!   run: the walk binary-searches the run's borders, takes the admitted
//!   slice (or, for a fully admitted run in an aggregate, the run's stored
//!   aggregate) and logs the slot once.
//!
//! After the walk, the log is **validated**: every recorded state pointer
//! and child pointer must be unchanged, and every descended node's queue
//! must (still) be empty. In addition — both before the walk and at
//! validation — the **root-queue head** must not be a *resolved* successful
//! update: an update is linearized the moment it is resolved through the
//! presence index (fast point reads see it from that instant), but its
//! first state/structural CAS below the fictive root may still be pending,
//! and during that whole window the update sits at the root-queue head
//! (it is only resolved as the head and only popped after its root-level
//! continuation completed). If validation succeeds, the collected result
//! is returned; otherwise the whole attempt is discarded and the caller
//! falls back to the descriptor path.
//!
//! # Linearization argument
//!
//! Claim: a validated result equals the tree's state at the moment
//! validation started. An update `U` with timestamp `t` traverses root →
//! leaf through queue entries, and on each step its effects appear in a
//! fixed order: CAS of the child's state record (the eager aggregate delta
//! of §II-C), *then* insertion into the child's queue, *then* — once `U` is
//! executed in that child — the effects one level further down, *then*
//! removal from the child's queue. Three consequences:
//!
//! 1. `U` cannot be removed from a node's queue before it has been inserted
//!    into the next node's queue (or performed its structural leaf CAS), so
//!    while `U`'s effect on any *logged* location is still pending, `U` is
//!    detectable: it sits at the root-queue head with a resolved decision
//!    (head check), or in a descended node's queue (queue check), or its
//!    state-record CAS on a descended/absorbed node has already replaced a
//!    logged pointer (pointer check), or its leaf CAS has replaced a logged
//!    child pointer (pointer check).
//! 2. An absorbed child's stored aggregate already includes every update
//!    that passed the child's parent (eager top-down maintenance), so
//!    updates still propagating strictly *inside* an absorbed subtree are
//!    correctly counted, not torn.
//! 3. Reads of nodes that a concurrent §II-E rebuild has replaced are still
//!    consistent: a replaced subtree is drained before it is unlinked and is
//!    frozen afterwards (the epoch guard keeps it alive), so a traversal
//!    that slipped into it reads a valid — merely slightly older —
//!    snapshot, and the validation of the logged ancestors decides whether
//!    that snapshot may still be returned.
//!
//! Hence if validation passes, no update changed any logged location between
//! its first read and its validation read; the contributions all correspond
//! to one prefix of the root-queue order, and the read linearizes at the
//! start of validation. Updates whose effects had not reached any logged
//! location by then are ordered after the read. That ordering is legal
//! because no operation can have *observed* such an update before this read
//! completed: the update itself has not returned, and any fast point read
//! (or failed insert) that saw its presence-index resolution implies the
//! update was resolved — in which case it still sat at the root-queue head,
//! which the validation's head check rejects.
//!
//! Runs change none of this, because the argument never looked inside a
//! leaf: an update's last step is still one CAS that replaces the leaf
//! pointer in a logged slot (a rewritten run, a split, or `Empty`), a run is
//! never written after it is published, and "the slot pointer is unchanged"
//! therefore still means "every entry read from it is current". What
//! changes is the **conflict unit**: an update to *any* key of a logged run
//! fails the validation, where before only an update to a key the walk had
//! read did. A read conflicts with more updates per logged location and
//! logs an order of magnitude fewer locations.
//!
//! # Limited collects are prefixes
//!
//! `collect_range_limited` stops the in-order walk once `limit` entries are
//! gathered, possibly in the middle of a run: it takes the first `room`
//! admitted entries of that run and descends no further. Every slot it
//! skipped covers only keys above the run it stopped in, and the entries it
//! left behind in that run are above the last one it took, so the result is
//! a prefix of the full listing. The run it stopped in is logged like any
//! other, so an update to a key at or below the last yielded one must
//! change a logged location; updates beyond it cannot affect a prefix.
//!
//! # Fallback conditions
//!
//! The attempt is abandoned (and the `tree_range_fallbacks` metric
//! incremented) when a resolved successful update sits at the root-queue
//! head, when a descended node's queue is non-empty at the visit, or when
//! any logged pointer/queue/head check fails at validation. One attempt is
//! made per query: the fallback is the pre-existing wait-free descriptor
//! path, so the combined operation keeps its progress and complexity
//! guarantees (fast-path/slow-path discipline).

use crossbeam_epoch::{Atomic, Guard, Shared};
use std::sync::atomic::Ordering::Acquire;

use wft_seq::{Augmentation, Key, Value};

use crate::descriptor::RangeMode;
use crate::node::{admitted, leaf_range_agg, InnerNode, Node, NodeState, LEAF_CAP};
use crate::scan::READAHEAD_CAP;
use crate::shape::Shape;
use crate::tree::WaitFreeTree;

/// A logged `(inner node, observed state pointer)` pair.
type StateObservation<'g, K, V, A, S> = (
    &'g InnerNode<K, V, A, S>,
    Shared<'g, NodeState<<A as Augmentation<K, V>>::Agg>>,
);

/// A logged `(child slot, observed child pointer)` pair.
type SlotObservation<'g, K, V, A, S> = (&'g Atomic<Node<K, V, A, S>>, Shared<'g, Node<K, V, A, S>>);

/// The read log of one optimistic traversal (see the module docs).
struct ReadLog<'g, K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> {
    /// Inner nodes the traversal descended through: the node plus the state
    /// pointer observed at the visit. Queues are re-checked at validation.
    descended: Vec<StateObservation<'g, K, V, A, S>>,
    /// Fully-covered inner children whose stored aggregate was absorbed.
    absorbed: Vec<StateObservation<'g, K, V, A, S>>,
    /// Leaf/empty child slots whose content was read, with the observed
    /// pointer.
    slots: Vec<SlotObservation<'g, K, V, A, S>>,
}

impl<'g, K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> ReadLog<'g, K, V, A, S> {
    /// Sized so that an aggregate walk — two border paths, what they
    /// absorb, two border leaves — never regrows a vector: the regrowth
    /// steps from empty cost about as much as the walk itself.
    fn new() -> Self {
        ReadLog {
            descended: Vec::with_capacity(32),
            absorbed: Vec::with_capacity(32),
            slots: Vec::with_capacity(8),
        }
    }

    /// The log of a collect walk that expects to gather `entries` entries.
    /// A collect walk absorbs nothing, but it logs every run it reads and
    /// every inner node above one — a slot and about one descended node per
    /// run, where a run holds `LEAF_CAP / 2` to `LEAF_CAP` entries (about 24
    /// after a bulk load) — so the aggregate walk's sizes would regrow
    /// several times on a chunk of a few hundred entries. Sized for half-full
    /// runs, it regrows only when they are emptier than that.
    fn for_collect(entries: usize) -> Self {
        let runs = entries / (LEAF_CAP / 2);
        ReadLog {
            descended: Vec::with_capacity(32 + runs),
            absorbed: Vec::new(),
            slots: Vec::with_capacity(8 + runs),
        }
    }

    /// Re-reads every logged location; `true` iff nothing changed since the
    /// traversal observed it (and every descended queue is empty).
    fn validate(&self, guard: &'g Guard) -> bool {
        self.descended.iter().all(|(node, state)| {
            node.load_state_shared(guard) == *state && node.queue.is_empty(guard)
        }) && self
            .absorbed
            .iter()
            .all(|(node, state)| node.load_state_shared(guard) == *state)
            && self
                .slots
                .iter()
                // ORDERING: Acquire pairs with the AcqRel child-slot CASes; an unchanged
                // slot pointer proves no structural change was published in the window.
                .all(|(slot, child)| slot.load(Acquire, guard) == *child)
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> WaitFreeTree<K, V, A, S> {
    /// `true` while an update that has already been **resolved** through the
    /// presence index (i.e. linearized, visible to fast point reads) may not
    /// yet have applied its first state/structural CAS below the fictive
    /// root. Such an update always sits at the *head* of the root queue for
    /// the whole window: it is only executed — and resolved — as the head,
    /// and it is only popped after a helper completed its root-level
    /// continuation. An optimistic range read overlapping this window must
    /// fall back, or it could miss an update that a completed fast `get`
    /// already observed (a real-time ordering violation). Failed updates
    /// (`success == false`) never change observable state and are ignored.
    fn resolved_update_pending(&self, guard: &Guard) -> bool {
        match self.root_queue.peek(guard) {
            None => false,
            Some((_ts, op)) => {
                // SAFETY: peeked from the root queue under `guard` (`OpRef::deref`).
                let op = unsafe { op.deref(guard) };
                op.kind.is_update() && op.decision.get().is_some_and(|d| d.success)
            }
        }
    }

    /// Optimistic descriptor-free `range_agg` over the closed interval
    /// `[min, max]`. Returns `None` when validation fails and the caller
    /// must take the descriptor slow path.
    pub(crate) fn try_fast_range_agg(&self, min: K, max: K, guard: &Guard) -> Option<A::Agg> {
        if self.resolved_update_pending(guard) {
            return None;
        }
        let mut log = ReadLog::new();
        let mut acc = A::identity();
        self.walk_agg_slot(
            &self.root_child,
            RangeMode::Both { min, max },
            &mut acc,
            &mut log,
            guard,
        )?;
        if log.validate(guard) && !self.resolved_update_pending(guard) {
            Some(acc)
        } else {
            None
        }
    }

    /// Optimistic descriptor-free collect of the (up to) `limit` smallest
    /// entries of `[min, max]`, **appended to `out`** in key order: the one
    /// collect walk behind `collect_range` (`limit == usize::MAX`) and the
    /// limited collects that cursors read their chunks with.
    ///
    /// The in-order walk stops as soon as `limit` entries are gathered, in
    /// the middle of a run if need be; the result is a prefix of the full
    /// listing and validating the *visited* log suffices (module docs,
    /// "Limited collects are prefixes"). A walk the limit actually cut
    /// short (the `O(log N + limit)` early exit) is counted in the
    /// `tree_fast_range_early_exits` metric. On validation failure `out`
    /// is truncated back to its length at the call and `None` returned.
    pub(crate) fn try_fast_collect(
        &self,
        min: K,
        max: K,
        limit: usize,
        out: &mut Vec<(K, V)>,
        guard: &Guard,
    ) -> Option<()> {
        if self.resolved_update_pending(guard) {
            return None;
        }
        // A limited walk knows the most it can gather: the entries go
        // straight into their final buffer, which is sized once. An
        // unbounded walk may gather three entries or three million and
        // grows as it goes.
        let expected = if limit == usize::MAX {
            0
        } else {
            limit.min(READAHEAD_CAP)
        };
        out.reserve(expected);
        let mark = out.len();
        let mut log = ReadLog::for_collect(expected);
        let mut early_exit = false;
        let walked = self.walk_collect_slot(
            &self.root_child,
            &min,
            &max,
            mark.saturating_add(limit),
            out,
            &mut early_exit,
            &mut log,
            guard,
        );
        if walked.is_some() && log.validate(guard) && !self.resolved_update_pending(guard) {
            if early_exit {
                self.counters.fast_range_early_exits.inc();
            }
            Some(())
        } else {
            out.truncate(mark);
            None
        }
    }

    /// Aggregate walk continuation into a child slot: descend inner nodes,
    /// fold leaves, log what was read.
    fn walk_agg_slot<'g>(
        &self,
        slot: &'g Atomic<Node<K, V, A, S>>,
        mode: RangeMode<K>,
        acc: &mut A::Agg,
        log: &mut ReadLog<'g, K, V, A, S>,
        guard: &'g Guard,
    ) -> Option<()> {
        // ORDERING: Acquire pairs with the AcqRel child-slot CASes, so the loaded
        // node is fully initialised.
        // SAFETY: `child` is epoch-protected under `guard` (retired only via
        // `defer_destroy` after being unlinked).
        let child = slot.load(Acquire, guard);
        // SAFETY: as above.
        match unsafe { child.deref() } {
            Node::Inner(inner) => self.walk_agg_inner(inner, mode, acc, log, guard),
            Node::Leaf(leaf) => {
                log.slots.push((slot, child));
                *acc = A::combine(acc, &leaf_range_agg::<K, V, A>(leaf, &mode));
                Some(())
            }
            Node::Empty(_) => {
                log.slots.push((slot, child));
                Some(())
            }
        }
    }

    /// Aggregate walk at a descended inner node: the three-mode pruning of
    /// the paper's appendix, absorbing fully covered children.
    fn walk_agg_inner<'g>(
        &self,
        inner: &'g InnerNode<K, V, A, S>,
        mode: RangeMode<K>,
        acc: &mut A::Agg,
        log: &mut ReadLog<'g, K, V, A, S>,
        guard: &'g Guard,
    ) -> Option<()> {
        // A pending descriptor means an update (or a helped read) is mid-
        // flight right here; bail out to the slow path immediately instead
        // of walking data that is about to change.
        if !inner.queue.is_empty(guard) {
            return None;
        }
        log.descended.push((inner, inner.load_state_shared(guard)));
        match mode {
            RangeMode::Both { min, max } => {
                if min >= inner.rsm {
                    self.walk_agg_slot(&inner.right, RangeMode::Both { min, max }, acc, log, guard)
                } else if max < inner.rsm {
                    self.walk_agg_slot(&inner.left, RangeMode::Both { min, max }, acc, log, guard)
                } else {
                    self.walk_agg_slot(
                        &inner.left,
                        RangeMode::LeftBorder { min },
                        acc,
                        log,
                        guard,
                    )?;
                    self.walk_agg_slot(
                        &inner.right,
                        RangeMode::RightBorder { max },
                        acc,
                        log,
                        guard,
                    )
                }
            }
            RangeMode::LeftBorder { min } => {
                if min >= inner.rsm {
                    self.walk_agg_slot(&inner.right, RangeMode::LeftBorder { min }, acc, log, guard)
                } else {
                    self.absorb_child(&inner.right, acc, log, guard);
                    self.walk_agg_slot(&inner.left, RangeMode::LeftBorder { min }, acc, log, guard)
                }
            }
            RangeMode::RightBorder { max } => {
                if max < inner.rsm {
                    self.walk_agg_slot(&inner.left, RangeMode::RightBorder { max }, acc, log, guard)
                } else {
                    self.absorb_child(&inner.left, acc, log, guard);
                    self.walk_agg_slot(
                        &inner.right,
                        RangeMode::RightBorder { max },
                        acc,
                        log,
                        guard,
                    )
                }
            }
        }
    }

    /// Absorbs a fully covered child: its current aggregate joins the
    /// accumulator without descending (what makes the query logarithmic).
    fn absorb_child<'g>(
        &self,
        slot: &'g Atomic<Node<K, V, A, S>>,
        acc: &mut A::Agg,
        log: &mut ReadLog<'g, K, V, A, S>,
        guard: &'g Guard,
    ) {
        // ORDERING: Acquire pairs with the AcqRel child-slot CASes.
        // SAFETY: `child` is epoch-protected under `guard`.
        let child = slot.load(Acquire, guard);
        // SAFETY: as above.
        match unsafe { child.deref() } {
            Node::Inner(inner) => {
                let state = inner.load_state_shared(guard);
                // The stored aggregate is maintained eagerly top-down
                // (§II-C): updates still propagating inside this subtree are
                // already counted, so no queue check is needed here.
                // SAFETY: the state record is non-null by construction and
                // epoch-protected under `guard` (see `load_state`).
                *acc = A::combine(acc, &unsafe { state.deref() }.agg);
                log.absorbed.push((inner, state));
            }
            Node::Leaf(leaf) => {
                log.slots.push((slot, child));
                *acc = A::combine(acc, leaf.agg());
            }
            Node::Empty(_) => {
                log.slots.push((slot, child));
            }
        }
    }

    /// Collect walk continuation into a child slot (no absorption: every
    /// overlapping subtree is descended, like the descriptor-based
    /// `collect`). Once `out` reaches length `end` the walk stops
    /// descending: skipped slots are *not* logged, which is sound because
    /// the in-order walk guarantees they only cover keys beyond the last
    /// collected one (module docs, "Limited collects are prefixes").
    #[allow(clippy::too_many_arguments)]
    fn walk_collect_slot<'g>(
        &self,
        slot: &'g Atomic<Node<K, V, A, S>>,
        min: &K,
        max: &K,
        end: usize,
        out: &mut Vec<(K, V)>,
        early_exit: &mut bool,
        log: &mut ReadLog<'g, K, V, A, S>,
        guard: &'g Guard,
    ) -> Option<()> {
        if out.len() >= end {
            *early_exit = true;
            return Some(());
        }
        // ORDERING: Acquire pairs with the AcqRel child-slot CASes.
        // SAFETY: `child` is epoch-protected under `guard`.
        let child = slot.load(Acquire, guard);
        // SAFETY: as above.
        match unsafe { child.deref() } {
            Node::Inner(inner) => {
                if !inner.queue.is_empty(guard) {
                    return None;
                }
                log.descended.push((inner, inner.load_state_shared(guard)));
                if min < &inner.rsm {
                    self.walk_collect_slot(
                        &inner.left,
                        min,
                        max,
                        end,
                        out,
                        early_exit,
                        log,
                        guard,
                    )?;
                }
                if max >= &inner.rsm {
                    self.walk_collect_slot(
                        &inner.right,
                        min,
                        max,
                        end,
                        out,
                        early_exit,
                        log,
                        guard,
                    )?;
                }
                Some(())
            }
            Node::Leaf(leaf) => {
                log.slots.push((slot, child));
                let part = admitted(
                    leaf.entries(),
                    &RangeMode::Both {
                        min: *min,
                        max: *max,
                    },
                );
                // `out.len() < end` here; a run with more admitted entries
                // than there is room for ends the walk inside the run.
                let room = end - out.len();
                if part.len() > room {
                    *early_exit = true;
                }
                out.extend_from_slice(&part[..part.len().min(room)]);
                Some(())
            }
            Node::Empty(_) => {
                log.slots.push((slot, child));
                Some(())
            }
        }
    }
}
