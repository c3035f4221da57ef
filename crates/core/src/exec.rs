//! The hand-over-hand helping execution engine (§II-B, §II-C, §II-E).
//!
//! Every public tree operation goes through `WaitFreeTree::run_operation`:
//!
//! 1. the descriptor is enqueued at the (fictive) root and receives its
//!    timestamp — this is the linearization point;
//! 2. the initiator *helps* execute every descriptor ahead of it in the root
//!    queue, then its own, exactly as `execute_until_timestamp` (Listing 1)
//!    prescribes;
//! 3. it then walks the descriptor's `Traverse` queue (Listing 2), helping at
//!    every node on the operation's path until the queue drains;
//! 4. finally the result is assembled from the `Processed` map (reads) or
//!    taken from the resolved decision (updates), and the initiator's
//!    `OwnedOp` handle retires the descriptor.
//!
//! Under `ReadPath::Fast` an update whose key's presence state already
//! decides it fails (an insert of a present key, a remove of an absent one)
//! never gets here: it returns from that one load (`tree.rs`).
//!
//! The single function `WaitFreeTree::execute_op_at` implements "executing
//! an operation in a node" (Listing 3) for both the fictive root and regular
//! inner nodes; it is idempotent and may be invoked by any number of helpers
//! concurrently:
//!
//! * update effects are fixed exactly once through the presence index
//!   (fictive root only),
//! * child state changes are guarded by `Ts_Mod`,
//! * descriptor insertion/removal uses the exactly-once `push_if` / `pop_if`,
//! * per-node partial results of reads go through the first-write-wins
//!   `Processed` map,
//! * structural changes (leaf-run rewrite / split / removal, subtree
//!   replacement) are plain pointer CASes whose expected value makes them
//!   exactly-once; they all go through `install`.

use crossbeam_epoch::{Guard, Owned, Shared};
use std::ptr::NonNull;
use std::sync::atomic::Ordering::{AcqRel, Acquire};

use wft_queue::{RootSlot, Timestamp, UpdateKind};
use wft_seq::{Augmentation, Key, Value};

use crate::descriptor::{Descriptor, OpKind, OpRef, OwnedOp, Partial, RangeMode};
use crate::node::{
    admitted, build_subtree, collect_subtree, free_subtree_now, insert_into_run, leaf_range_agg,
    remove_from_run, retire_subtree, split_node, InnerNode, LeafNode, Node, NodeState, Slot,
    FICTIVE_ROOT_ID, LEAF_CAP,
};
use crate::shape::Shape;
use crate::tree::WaitFreeTree;

/// The node an operation is currently being executed *in*: either the
/// fictive root (which owns the root queue and the real-root child slot) or a
/// regular inner node.
pub(crate) enum ParentRef<'g, K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> {
    /// The fictive root (§II-B): no state of its own, one child — the real
    /// root.
    Fictive,
    /// A regular inner node.
    Inner(&'g InnerNode<K, V, A, S>),
}

// Manual Clone/Copy: the derived impls would demand `K: Copy, V: Copy`
// bounds, but the enum only holds a shared reference.
impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> Clone for ParentRef<'_, K, V, A, S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> Copy for ParentRef<'_, K, V, A, S> {}

impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> WaitFreeTree<K, V, A, S> {
    /// Runs one operation end to end and returns the initiator's handle on
    /// its descriptor, with every partial result recorded. Dropping the
    /// handle retires the descriptor.
    pub(crate) fn run_operation(&self, kind: OpKind<K, V>) -> OwnedOp<K, V, A, S> {
        // The handle's guard is pinned before the descriptor becomes visible
        // and held until the handle drops; every node pointer the operation
        // touches (including entries of its traverse queue) stays valid under
        // this single guard (see `Descriptor::traverse`).
        let op = OwnedOp::new(kind);
        let ts = self
            .root_queue
            .enqueue(&RootSlot::current(), op.op(), op.guard());
        self.complete_operation(&op, ts);
        op
    }

    /// Phases 1 and 2 of an operation already enqueued at the root with
    /// timestamp `ts`. Returns once the operation has left every queue it
    /// entered, which is what lets the handle retire the descriptor.
    pub(crate) fn complete_operation(&self, op: &OwnedOp<K, V, A, S>, ts: Timestamp) {
        let guard = op.guard();
        // Phase 1: the fictive root. Helping everything older than us also
        // resolves our own decision / pushes us towards the real root.
        self.help_until(ParentRef::Fictive, ts, guard);

        // Phase 2: walk the traverse queue (Listing 2). Only the initiator
        // pops; helpers merely append.
        while let Some(node_ptr) = op.traverse.peek() {
            // SAFETY: initiator + guard pinned since before enqueue; every pointer in
            // the traverse queue was epoch-protected when pushed.
            if let Node::Inner(inner) = unsafe { node_ptr.as_ref() } {
                self.help_until(ParentRef::Inner(inner), ts, guard);
            }
            op.traverse.pop();
        }
    }

    /// `execute_until_timestamp` (Listing 1): execute every descriptor at the
    /// head of `parent`'s queue whose timestamp does not exceed `ts`.
    pub(crate) fn help_until(
        &self,
        parent: ParentRef<'_, K, V, A, S>,
        ts: Timestamp,
        guard: &Guard,
    ) {
        loop {
            let head = match parent {
                ParentRef::Fictive => self.root_queue.peek(guard),
                ParentRef::Inner(inner) => inner.queue.peek(guard),
            };
            match head {
                None => return,
                Some((head_ts, head_op)) => {
                    if head_ts > ts {
                        return;
                    }
                    if head_ts != ts {
                        self.counters.helped_executions.inc();
                    }
                    // SAFETY: peeked from the queue under `guard`, so `guard` was pinned
                    // before the descriptor's retirement (`OpRef::deref`).
                    let head_op = unsafe { head_op.deref(guard) };
                    self.execute_op_at(head_op, head_ts, parent, guard);
                }
            }
        }
    }

    /// `execute_in_node` (Listing 3): executes `op` (with timestamp `ts`) in
    /// `parent`. Idempotent; safe to call from any number of helpers.
    pub(crate) fn execute_op_at(
        &self,
        op: &Descriptor<K, V, A, S>,
        ts: Timestamp,
        parent: ParentRef<'_, K, V, A, S>,
        guard: &Guard,
    ) {
        // --- Step 0: resolve update effects at the linearization point. ----
        if op.kind.is_update() && matches!(parent, ParentRef::Fictive) {
            self.resolve_update(op, ts, guard);
        }
        // Below the fictive root the decision is always already resolved
        // (the descriptor only enters child queues afterwards).

        let parent_id = match parent {
            ParentRef::Fictive => FICTIVE_ROOT_ID,
            ParentRef::Inner(inner) => inner.id,
        };

        // --- Step 1: work out where the operation continues and what this
        //     node contributes to the result. -------------------------------
        //     An update contributes nothing: its result is its decision.
        let mut partial: Option<Partial<K, V, A::Agg>> = match &op.kind {
            OpKind::Insert { .. } | OpKind::Replace { .. } | OpKind::Remove { .. } => None,
            OpKind::Lookup { .. } => Some(Partial::Lookup(None)),
            OpKind::RangeAgg { .. } => Some(Partial::Agg(A::identity())),
            OpKind::Collect { .. } => Some(Partial::Entries(Vec::new())),
        };

        match parent {
            ParentRef::Fictive => {
                let descend = match &op.kind {
                    // A replace always succeeds, so this also always descends.
                    OpKind::Insert { .. } | OpKind::Replace { .. } | OpKind::Remove { .. } => {
                        op.resolved_decision().success
                    }
                    _ => true,
                };
                if descend {
                    let mode = match &op.kind {
                        OpKind::RangeAgg { min, max } | OpKind::Collect { min, max } => {
                            Some(RangeMode::Both {
                                min: *min,
                                max: *max,
                            })
                        }
                        _ => None,
                    };
                    self.continue_into_child(op, ts, self.root_slot(), mode, &mut partial, guard);
                }
            }
            ParentRef::Inner(inner) => match &op.kind {
                OpKind::Insert { key, .. }
                | OpKind::Replace { key, .. }
                | OpKind::Remove { key }
                | OpKind::Lookup { key } => {
                    let slot = if key < &inner.rsm {
                        inner.left_slot()
                    } else {
                        inner.right_slot()
                    };
                    self.continue_into_child(op, ts, slot, None, &mut partial, guard);
                }
                OpKind::RangeAgg { .. } => {
                    let mode = op
                        .modes
                        .get(&inner.id)
                        .expect("range mode recorded before the descriptor entered this queue");
                    self.continue_range_agg(op, ts, inner, mode, &mut partial, guard);
                }
                OpKind::Collect { min, max } => {
                    let mode = RangeMode::Both {
                        min: *min,
                        max: *max,
                    };
                    if min < &inner.rsm {
                        self.continue_into_child(
                            op,
                            ts,
                            inner.left_slot(),
                            Some(mode),
                            &mut partial,
                            guard,
                        );
                    }
                    if max >= &inner.rsm {
                        self.continue_into_child(
                            op,
                            ts,
                            inner.right_slot(),
                            Some(mode),
                            &mut partial,
                            guard,
                        );
                    }
                }
            },
        }

        // --- Step 2: record a read's partial result (unconditionally, to
        //     claim the node id against stalled helpers — §II-B). -----------
        if let Some(partial) = partial {
            op.processed.try_insert(parent_id, partial);
        }

        // --- Step 3: remove the descriptor from this node's queue. ---------
        match parent {
            ParentRef::Fictive => {
                self.root_queue.pop_if(ts, guard);
            }
            ParentRef::Inner(inner) => {
                inner.queue.pop_if(ts, guard);
            }
        }
    }

    /// Resolves the effect of an update descriptor through the presence
    /// index, exactly once, and maintains the tree's size, counters and the
    /// timestamp front.
    fn resolve_update(&self, op: &Descriptor<K, V, A, S>, ts: Timestamp, guard: &Guard) {
        let (key, update) = match &op.kind {
            OpKind::Insert { key, value } => (key, UpdateKind::Insert(value.clone())),
            OpKind::Replace { key, value } => (key, UpdateKind::Replace(value.clone())),
            OpKind::Remove { key } => (key, UpdateKind::Remove),
            _ => unreachable!("resolve_update called for a read-only operation"),
        };
        // Advertise the timestamp *before* the resolution can make the
        // update visible: a snapshot-front validation that still reads the
        // old advertised watermark afterwards has proof that no part of this
        // update was observable inside its window (monotone max, so a
        // stalled helper re-advertising an old timestamp is a no-op).
        self.advertised_ts
            // ORDERING: must be totally ordered against the SeqCst `advertised_ts` /
            // `resolved_ts` reads of the snapshot-front validation in `read.rs`;
            // Release alone would let a validator miss this update while also missing
            // its effects.
            // wft-lint: allow(seqcst) -- the snapshot-front proof needs the advertise, the update's effects and the validator's reads in one total order.
            .fetch_max(ts.get(), std::sync::atomic::Ordering::SeqCst);
        let (decision, first_application) =
            self.presence.resolve(key, ts, &update, &op.decision, guard);
        if first_application {
            // Exactly one process per descriptor reaches this branch, so the
            // size counter stays exact.
            if decision.success {
                match &op.kind {
                    OpKind::Insert { .. } => {
                        self.len.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        self.counters.inserts.inc();
                    }
                    OpKind::Replace { .. } => {
                        // A replace only grows the tree when the key was
                        // absent; overwrites leave the length unchanged.
                        if decision.prior_value.is_none() {
                            self.len.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        self.counters.replaces.inc();
                    }
                    OpKind::Remove { .. } => {
                        self.len.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
                        self.counters.removes.inc();
                    }
                    _ => unreachable!(),
                }
            } else {
                self.counters.failed_updates.inc();
            }
        }
        // Resolution complete (whether by us or a faster helper — the
        // presence index call above only returns once the decision is
        // fixed): advance the resolved watermark. Every helper performs this
        // bump before it can pop the descriptor from the root queue, so
        // "popped" implies "resolved watermark advanced".
        self.resolved_ts
            // ORDERING: SeqCst for the same total-order reason as the advertise above —
            // the validator's `resolved_ts` read must be ordered against every helper's
            // bump, or "popped implies resolved" breaks.
            // wft-lint: allow(seqcst) -- pairs with the SeqCst resolved_ts reads in the snapshot-front validation; a weaker order could reorder the bump after the pop.
            .fetch_max(ts.get(), std::sync::atomic::Ordering::SeqCst);
    }

    /// Range-aggregate continuation at an inner node: implements the
    /// three-mode scheme of the appendix, adding the aggregates of fully
    /// covered subtrees to the node's partial result instead of descending
    /// into them.
    fn continue_range_agg(
        &self,
        op: &Descriptor<K, V, A, S>,
        ts: Timestamp,
        inner: &InnerNode<K, V, A, S>,
        mode: RangeMode<K>,
        partial: &mut Option<Partial<K, V, A::Agg>>,
        guard: &Guard,
    ) {
        match mode {
            RangeMode::Both { min, max } => {
                if min >= inner.rsm {
                    self.continue_into_child(
                        op,
                        ts,
                        inner.right_slot(),
                        Some(RangeMode::Both { min, max }),
                        partial,
                        guard,
                    );
                } else if max < inner.rsm {
                    self.continue_into_child(
                        op,
                        ts,
                        inner.left_slot(),
                        Some(RangeMode::Both { min, max }),
                        partial,
                        guard,
                    );
                } else {
                    // Fork node: left side keeps only the lower border, right
                    // side only the upper border.
                    self.continue_into_child(
                        op,
                        ts,
                        inner.left_slot(),
                        Some(RangeMode::LeftBorder { min }),
                        partial,
                        guard,
                    );
                    self.continue_into_child(
                        op,
                        ts,
                        inner.right_slot(),
                        Some(RangeMode::RightBorder { max }),
                        partial,
                        guard,
                    );
                }
            }
            RangeMode::LeftBorder { min } => {
                if min >= inner.rsm {
                    self.continue_into_child(
                        op,
                        ts,
                        inner.right_slot(),
                        Some(RangeMode::LeftBorder { min }),
                        partial,
                        guard,
                    );
                } else {
                    // The whole right subtree is inside the range: take its
                    // aggregate from the child state, do not descend.
                    // ORDERING: Acquire pairs with the AcqRel child-slot CASes, so the loaded
                    // subtree (and its state record) is fully initialised.
                    // SAFETY: `right` was loaded from an epoch-protected slot under `guard`;
                    // nodes are retired only via `retire_subtree`/`defer_destroy`.
                    let right = inner.right.load(Acquire, guard);
                    // SAFETY: as above.
                    let contribution = unsafe { right.deref() }.current_agg(guard);
                    merge_agg::<K, V, A>(partial, &contribution);
                    self.continue_into_child(
                        op,
                        ts,
                        inner.left_slot(),
                        Some(RangeMode::LeftBorder { min }),
                        partial,
                        guard,
                    );
                }
            }
            RangeMode::RightBorder { max } => {
                if max < inner.rsm {
                    self.continue_into_child(
                        op,
                        ts,
                        inner.left_slot(),
                        Some(RangeMode::RightBorder { max }),
                        partial,
                        guard,
                    );
                } else {
                    // ORDERING: Acquire pairs with the AcqRel child-slot CASes (see the
                    // symmetric right-border case above).
                    // SAFETY: `left` is epoch-protected under `guard`.
                    let left = inner.left.load(Acquire, guard);
                    // SAFETY: as above.
                    let contribution = unsafe { left.deref() }.current_agg(guard);
                    merge_agg::<K, V, A>(partial, &contribution);
                    self.continue_into_child(
                        op,
                        ts,
                        inner.right_slot(),
                        Some(RangeMode::RightBorder { max }),
                        partial,
                        guard,
                    );
                }
            }
        }
    }

    /// Continues the execution of `op` into the child stored in `slot`
    /// (paper Listing 3, steps 2.1–2.2 plus the §II-E rebuild hook):
    ///
    /// * inner child — possibly rebuild it, register it in the traverse
    ///   queue, record its range mode, apply the update's state delta
    ///   (guarded by `Ts_Mod`) and `push_if` the descriptor into its queue;
    /// * leaf / empty child — the operation bottoms out here: apply the
    ///   structural change (rewrite the run) or fold the run's contribution
    ///   into the node's partial result (lookups and range queries).
    fn continue_into_child(
        &self,
        op: &Descriptor<K, V, A, S>,
        ts: Timestamp,
        slot: Slot<'_, K, V, A, S>,
        mode: Option<RangeMode<K>>,
        partial: &mut Option<Partial<K, V, A::Agg>>,
        guard: &Guard,
    ) {
        // The rebuild threshold is evaluated at most once per continuation:
        // after a rebuild the slot is re-read and execution simply continues
        // in the fresh subtree (§II-E). Re-checking would loop forever for
        // rebuild factors below 1, where a freshly built single-entry subtree
        // immediately satisfies `mod_cnt + 1 > K · init_sz` again.
        let mut rebuild_checked = false;
        loop {
            // ORDERING: Acquire pairs with the AcqRel child-slot CASes (split, remove,
            // rebuild), so the observed node is fully initialised.
            // SAFETY: `child` was loaded from an epoch-protected slot under `guard` and
            // is only retired via `defer_destroy` after being unlinked.
            let child = slot.cell.load(Acquire, guard);
            // SAFETY: as above.
            let node = unsafe { child.deref() };
            match node {
                Node::Inner(c) => {
                    if op.kind.is_update() && !rebuild_checked {
                        rebuild_checked = true;
                        debug_assert!(op.resolved_decision().success);
                        let state = c.load_state(guard);
                        // `mod_cnt == 0 && ts_mod == ts - 1` is exactly the
                        // creation state of a subtree rebuilt *by this
                        // operation* (the §II-E watermark): a helper that
                        // arrives after the rebuild must not rebuild it
                        // again. Without this guard, with rebuild factors
                        // below 1 a second helper re-rebuilds the (tiny,
                        // instantly over-threshold) fresh subtree and retires
                        // it while other helpers of the same operation are
                        // still applying their state delta to it — the
                        // state-record double-free behind the historical
                        // `heavy_rebuilds` SIGSEGV flake.
                        let rebuilt_by_this_op =
                            state.mod_cnt == 0 && state.ts_mod == ts.prev_saturating();
                        if state.ts_mod < ts
                            && !rebuilt_by_this_op
                            && self.needs_rebuild(state.mod_cnt + 1, c.init_sz)
                        {
                            self.rebuild_subtree(slot, child, ts, guard);
                            // Re-read the slot: it now holds the rebuilt
                            // subtree (built by us or by another helper).
                            continue;
                        }
                    }
                    // Make the child reachable for the initiator *before* the
                    // descriptor can be executed (and popped) there.
                    op.traverse.push(NonNull::from(node));
                    if let Some(mode) = mode {
                        op.modes.try_insert(c.id, mode);
                    }
                    if op.kind.is_update() {
                        self.apply_state_delta(op, ts, c, guard);
                    }
                    c.queue.push_if(ts, OpRef::from_ref(op), guard);
                    return;
                }
                Node::Leaf(leaf) => {
                    self.execute_at_leaf(op, ts, slot, child, leaf, mode, partial, guard);
                    return;
                }
                Node::Empty(empty) => {
                    self.execute_at_empty(op, ts, slot.cell, child, empty, partial, guard);
                    return;
                }
            }
        }
    }

    /// Applies the augmentation delta of a successful update to an inner
    /// child's state, exactly once (the `Ts_Mod` CAS guard of §II-C).
    fn apply_state_delta(
        &self,
        op: &Descriptor<K, V, A, S>,
        ts: Timestamp,
        child: &InnerNode<K, V, A, S>,
        guard: &Guard,
    ) {
        let decision = op.resolved_decision();
        if !decision.success {
            return;
        }
        let state_shared = child.load_state_shared(guard);
        // SAFETY: the state record was loaded from an epoch-protected slot under
        // `guard`; it is retired via `defer_destroy` only after the CAS below
        // replaces it.
        let state = unsafe { state_shared.deref() };
        if state.ts_mod >= ts {
            // Already applied by another helper.
            return;
        }
        let new_agg = match &op.kind {
            OpKind::Insert { key, value } => A::insert_delta(&state.agg, key, value),
            OpKind::Replace { key, value } => {
                // Net effect of an overwrite on a commutative-group
                // augmentation: add the new entry, subtract the displaced
                // one (a replace of an absent key is a plain insertion).
                let added = A::insert_delta(&state.agg, key, value);
                match decision.prior_value.as_ref() {
                    Some(prior) => A::remove_delta(&added, key, prior),
                    None => added,
                }
            }
            OpKind::Remove { key } => {
                let prior = decision
                    .prior_value
                    .as_ref()
                    .expect("a successful remove always knows the removed value");
                A::remove_delta(&state.agg, key, prior)
            }
            _ => unreachable!("state deltas only exist for updates"),
        };
        let new_state = Owned::new(NodeState {
            agg: new_agg,
            mod_cnt: state.mod_cnt + 1,
            ts_mod: ts,
        });
        // Whatever the outcome, the state is now updated exactly once: either
        // by us (success) or by the helper that beat us (failure).
        // ORDERING: success AcqRel — Release publishes the new state record's
        // fields to the Acquire `load_state` calls, Acquire orders the swap after
        // the `ts_mod` check above; failure Acquire reads the record a faster
        // helper installed.
        if child
            .state
            .compare_exchange(state_shared, new_state, AcqRel, Acquire, guard)
            .is_ok()
        {
            // SAFETY: our CAS unlinked `state_shared`; only one helper's CAS succeeds
            // for a given predecessor, so the record is retired exactly once, and
            // concurrent readers hold epoch guards.
            unsafe { guard.defer_destroy(state_shared) };
        }
    }

    /// Bottom-of-path handling when the continuation child is a leaf run.
    ///
    /// Updates are the paper's leaf step on a run: copy it with the key
    /// inserted, replaced or removed (an overflowing copy goes under
    /// `split_node`), stamp the copy `created_ts = ts` and CAS the slot
    /// against the observed leaf. Three facts carry over from
    /// the one-key leaf unchanged:
    ///
    /// * **`created_ts >= ts` means done.** Updates reach a slot in
    ///   timestamp order (only a queue head is executed) and each stamps
    ///   what it installs, and a rebuild stamps `rebuilder_ts - 1`, which is
    ///   at least the timestamp of everything it copied. So once this
    ///   update is applied the slot holds `created_ts >= ts` for good, and
    ///   a helper that sees it returns untouched.
    /// * **Helpers agree.** A helper past that guard observed a run no
    ///   later operation has written, i.e. the run this update is due on.
    ///   Runs are immutable, so every such helper computes the same
    ///   replacement from the same pointer, and the expected-pointer CAS
    ///   lets exactly one of them in.
    /// * **Membership decides the no-ops.** A successful `Insert` whose key
    ///   is already in an older run, or a `Remove` whose key is not, has had
    ///   its change carried in by a rebuilt subtree; both return untouched.
    #[allow(clippy::too_many_arguments)]
    fn execute_at_leaf(
        &self,
        op: &Descriptor<K, V, A, S>,
        ts: Timestamp,
        slot: Slot<'_, K, V, A, S>,
        child: Shared<'_, Node<K, V, A, S>>,
        leaf: &LeafNode<K, V, A::Agg>,
        mode: Option<RangeMode<K>>,
        partial: &mut Option<Partial<K, V, A::Agg>>,
        guard: &Guard,
    ) {
        match &op.kind {
            OpKind::Insert { key, value } | OpKind::Replace { key, value } => {
                if leaf.created_ts() >= ts {
                    return;
                }
                if matches!(op.kind, OpKind::Insert { .. }) && leaf.get(key).is_some() {
                    return;
                }
                let run = insert_into_run(leaf.entries(), *key, value.clone());
                let new = if run.len() <= LEAF_CAP {
                    Node::leaf(run, ts)
                } else {
                    split_node(run, slot.coverage, ts, &self.ids).0
                };
                install(slot.cell, child, new, guard);
            }
            OpKind::Remove { key } => {
                if leaf.created_ts() >= ts {
                    return;
                }
                let Some(run) = remove_from_run(leaf.entries(), key) else {
                    return;
                };
                let new = if run.is_empty() {
                    Node::empty(ts)
                } else {
                    Node::leaf(run, ts)
                };
                install(slot.cell, child, new, guard);
            }
            OpKind::Lookup { key } => {
                *partial = Some(Partial::Lookup(Some(leaf.get(key).cloned())));
            }
            OpKind::RangeAgg { .. } => {
                let mode = mode.expect("range queries always carry a mode");
                merge_agg::<K, V, A>(partial, &leaf_range_agg::<K, V, A>(leaf, &mode));
            }
            OpKind::Collect { .. } => {
                let mode = mode.expect("collect always carries its bounds");
                if let Some(Partial::Entries(entries)) = partial {
                    entries.extend_from_slice(admitted(leaf.entries(), &mode));
                }
            }
        }
    }

    /// Bottom-of-path handling when the continuation child is an `Empty`
    /// placeholder.
    #[allow(clippy::too_many_arguments)]
    fn execute_at_empty(
        &self,
        op: &Descriptor<K, V, A, S>,
        ts: Timestamp,
        slot: &crossbeam_epoch::Atomic<Node<K, V, A, S>>,
        child: Shared<'_, Node<K, V, A, S>>,
        empty: &crate::node::EmptyNode,
        partial: &mut Option<Partial<K, V, A::Agg>>,
        guard: &Guard,
    ) {
        match &op.kind {
            OpKind::Insert { key, value } | OpKind::Replace { key, value } => {
                if empty.created_ts >= ts {
                    // The placeholder was created by a later removal: our
                    // insertion has already been applied (and possibly undone
                    // again) by later-linearized operations.
                    return;
                }
                let leaf = Node::leaf(vec![(*key, value.clone())], ts);
                install(slot, child, leaf, guard);
            }
            OpKind::Remove { .. } => {
                // A successful remove never bottoms out at Empty (the key was
                // present at the linearization point and nothing else can
                // remove it before us); a stalled helper may get here after
                // the fact, in which case there is nothing to do.
            }
            OpKind::Lookup { .. } => {
                *partial = Some(Partial::Lookup(Some(None)));
            }
            OpKind::RangeAgg { .. } | OpKind::Collect { .. } => {
                // An empty position contributes nothing.
            }
        }
    }

    /// `Mod_Cnt > K · Init_Sz` check (§II-E); never true for a shape whose
    /// depth does not depend on rebuilding.
    fn needs_rebuild(&self, prospective_mod_cnt: u64, init_sz: u64) -> bool {
        S::REBUILDS
            && (prospective_mod_cnt as f64) > self.config.rebuild_factor * (init_sz.max(1) as f64)
    }

    /// Rebuilds the subtree stored in `slot` (currently `old_child`) into a
    /// perfectly balanced one, as part of executing the operation with
    /// timestamp `op_ts` in the slot's owner (§II-E):
    ///
    /// 1. finish every operation still pending inside the subtree,
    /// 2. collect its entries,
    /// 3. build a balanced replacement whose queues/states carry the
    ///    watermark `op_ts - 1`,
    /// 4. CAS the slot; on failure another helper already installed an
    ///    equivalent replacement.
    pub(crate) fn rebuild_subtree(
        &self,
        slot: Slot<'_, K, V, A, S>,
        old_child: Shared<'_, Node<K, V, A, S>>,
        op_ts: Timestamp,
        guard: &Guard,
    ) {
        // 1. Finish pending work. Only operations older than `op_ts` can be
        // inside (later ones cannot pass us in the parent's queue).
        self.drain_subtree(old_child, guard);

        // 2. Collect the (now physically settled) entries.
        let mut entries = Vec::new();
        collect_subtree(old_child, &mut entries, guard);

        // 3. Build the balanced replacement.
        let watermark = op_ts.prev_saturating();
        let (new_node, _agg) =
            build_subtree::<K, V, A, S>(&entries, slot.coverage, watermark, &self.ids);

        // 4. Swap it in; a loser's replacement is equivalent to the winner's.
        if install(slot.cell, old_child, new_node, guard) {
            self.counters.rebuilds.inc();
            self.counters.rebuilt_items.add(entries.len() as u64);
            // Rebuilds are the update path's heavyweight anomaly; a
            // timestamped timeline of them (arg: items copied, low 16
            // bits) is what distinguishes a helping cascade from a
            // retry storm in a post-mortem.
            wft_obs::trace::emit(
                wft_obs::TraceKind::HelpRebuild,
                u16::try_from(entries.len()).unwrap_or(u16::MAX - 1),
            );
        } else {
            self.counters.rebuilds_lost.inc();
        }
    }

    /// Executes every descriptor still queued anywhere in the subtree rooted
    /// at `node` (pre-order: a node's queue is drained before its children
    /// are visited, so descriptors pushed downwards by the drain are picked
    /// up later in the same pass).
    fn drain_subtree(&self, node: Shared<'_, Node<K, V, A, S>>, guard: &Guard) {
        if node.is_null() {
            return;
        }
        // SAFETY: `node` is a child pointer loaded under `guard` (or the slot value
        // passed in by `rebuild_subtree`, same guard); retirement goes through
        // `retire_subtree`, so the deref is valid.
        if let Node::Inner(inner) = unsafe { node.deref() } {
            loop {
                match inner.queue.peek(guard) {
                    None => break,
                    Some((head_ts, head_op)) => {
                        self.counters.helped_executions.inc();
                        // SAFETY: peeked from the queue under `guard` (`OpRef::deref`).
                        let head_op = unsafe { head_op.deref(guard) };
                        self.execute_op_at(head_op, head_ts, ParentRef::Inner(inner), guard);
                    }
                }
            }
            // ORDERING: Acquire pairs with the AcqRel child-slot CASes, so the drain
            // visits fully initialised children.
            self.drain_subtree(inner.left.load(Acquire, guard), guard);
            // ORDERING: as above, for the right child.
            self.drain_subtree(inner.right.load(Acquire, guard), guard);
        }
    }
}

/// The one structural CAS: swaps `new` into `slot` against the observed
/// `old`. The winner retires what it unlinked (a leaf, a placeholder or
/// a whole drained subtree); a loser frees its never-published `new` —
/// another helper already installed an equivalent one. Returns whether
/// this call won.
fn install<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>>(
    slot: &crossbeam_epoch::Atomic<Node<K, V, A, S>>,
    old: Shared<'_, Node<K, V, A, S>>,
    new: Node<K, V, A, S>,
    guard: &Guard,
) -> bool {
    // ORDERING: success AcqRel — Release publishes the fully built replacement
    // to the Acquire child loads, Acquire orders the swap after the checks
    // (`created_ts`, membership, drain + collect) that produced it; failure
    // Acquire mirrors the success ordering (the result is discarded).
    match slot.compare_exchange(old, Owned::new(new), AcqRel, Acquire, guard) {
        Ok(_) => {
            // Our CAS unlinked `old` (single winner per expected
            // pointer); readers keep it alive through their guards.
            retire_subtree(old, guard);
            true
        }
        Err(e) => {
            // SAFETY: the CAS failed, so `e.new` was never published and this thread
            // still owns it exclusively; freeing it in place is sound.
            free_subtree_now(e.new.into_shared(unsafe { crossbeam_epoch::unprotected() }));
            false
        }
    }
}

/// Folds an aggregate contribution into a `Partial::Agg` accumulator.
fn merge_agg<K: Key, V: Value, A: Augmentation<K, V>>(
    partial: &mut Option<Partial<K, V, A::Agg>>,
    contribution: &A::Agg,
) {
    if let Some(Partial::Agg(acc)) = partial {
        *acc = A::combine(acc, contribution);
    }
}
