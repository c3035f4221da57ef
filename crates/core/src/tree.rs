//! The public concurrent tree type.

use crossbeam_epoch::{Atomic, Guard};
use std::sync::atomic::{AtomicU64, Ordering};

use wft_queue::{PresenceIndex, WaitFreeRootQueue};
use wft_seq::{Augmentation, Key, Size, Value};

use crate::config::{ReadPath, TreeConfig, TreeCounters};
use crate::descriptor::OpKind;
use crate::node::{
    build_subtree, collect_subtree, free_subtree_now, run_agg, IdAllocator, Node, Slot, LEAF_CAP,
};
use crate::shape::{Balanced, Shape};

/// How many optimistic traversals a range read attempts before falling back
/// to the descriptor slow path (under [`ReadPath::Fast`]). A failed
/// validation is usually caused by one in-flight update that the next
/// attempt no longer sees, so a small bounded retry converts most would-be
/// fallbacks into fast hits on bursty write traffic. Extra attempts are
/// counted in the `tree_fast_range_retries` metric.
const FAST_READ_ATTEMPTS: usize = 3;

/// Why a front-anchored read (`WaitFreeTree::*_at_front`) has no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontMiss {
    /// An update began linearizing past the front: it no longer describes
    /// the tree. Settle a fresh front and retry there.
    Expired,
    /// The front still holds, but every optimistic attempt met an operation
    /// mid-flight below the root. Back off and retry the same front.
    Busy,
}

/// A linearizable concurrent ordered set/map with wait-free operations and
/// `O(log N)`-time aggregate range queries.
///
/// This is the data structure of *"Wait-free Trees with
/// Asymptotically-Efficient Range Queries"*: an external binary search tree
/// in which every operation is funnelled through per-node descriptor queues
/// and executed cooperatively ("hand-over-hand helping"), so that
///
/// * scalar operations ([`insert`](WaitFreeTree::insert),
///   [`remove`](WaitFreeTree::remove), [`contains`](WaitFreeTree::contains),
///   [`get`](WaitFreeTree::get)) take amortized `O(log N + |P|)` time,
/// * aggregate range queries ([`count`](WaitFreeTree::count),
///   [`range_agg`](WaitFreeTree::range_agg)) take amortized
///   `O(log N + |P|)` time instead of time linear in the range size,
/// * the linear-time [`collect_range`](WaitFreeTree::collect_range) of prior
///   work is also available,
/// * all operations are linearizable (ordered by their root-queue timestamp)
///   and wait-free: the root queue allocates timestamps by announce,
///   fetch-and-add and helping (Lemma 1, [`WaitFreeRootQueue`]), so every
///   operation completes in a bounded number of steps.
///
/// The tree is generic over the key, the value and the
/// [`Augmentation`] maintained in inner nodes; the defaults (`V = ()`,
/// `A = Size`) give the plain integer-set interface evaluated in the paper.
///
/// # Example
///
/// ```
/// use wft_core::WaitFreeTree;
///
/// let tree: WaitFreeTree<i64> = WaitFreeTree::new();
/// tree.insert(3, ());
/// tree.insert(7, ());
/// tree.insert(40, ());
/// assert!(tree.contains(&7));
/// assert_eq!(tree.count(0, 10), 2);
/// tree.remove(&7);
/// assert_eq!(tree.count(0, 10), 1);
/// ```
pub struct WaitFreeTree<K: Key, V: Value = (), A: Augmentation<K, V> = Size, S: Shape<K> = Balanced>
{
    pub(crate) root_queue: WaitFreeRootQueue<crate::descriptor::OpRef<K, V, A, S>>,
    pub(crate) root_child: Atomic<Node<K, V, A, S>>,
    pub(crate) presence: PresenceIndex<K, V>,
    pub(crate) ids: IdAllocator,
    pub(crate) config: TreeConfig,
    /// The event counters: 13 obs cells (52 KiB), boxed to keep the tree
    /// itself small.
    pub(crate) counters: Box<TreeCounters>,
    pub(crate) len: AtomicU64,
    /// Highest update timestamp whose linearization has *begun*: bumped
    /// (monotone max) before the update is resolved through the presence
    /// index, i.e. before its effect can be observed by any read. See
    /// [`WaitFreeTree::advertised_ts`].
    pub(crate) advertised_ts: AtomicU64,
    /// Highest update timestamp whose linearization has *completed* (the
    /// presence-index resolution returned). Always `<= advertised_ts`;
    /// equality means no update is mid-linearization.
    pub(crate) resolved_ts: AtomicU64,
}

// SAFETY: the tree owns its nodes, queues and presence index; all shared
// mutation goes through atomics/epoch pointers, and the `Key`/`Value`
// bounds require `Send + Sync + 'static` for the payload.
unsafe impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> Send
    for WaitFreeTree<K, V, A, S>
{
}
// SAFETY: same argument as `Send` — shared access only follows
// atomically-published, epoch-protected pointers.
unsafe impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> Sync
    for WaitFreeTree<K, V, A, S>
{
}

impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> Default for WaitFreeTree<K, V, A, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> WaitFreeTree<K, V, A, S> {
    /// Creates an empty tree with the default configuration (rebuild
    /// factor 1, fast reads).
    pub fn new() -> Self {
        Self::with_config(TreeConfig::default())
    }

    /// Creates an empty tree with an explicit [`TreeConfig`].
    pub fn with_config(config: TreeConfig) -> Self {
        config.validate();
        WaitFreeTree {
            // The first announce chunk holds eight threads' slots; more
            // threads are served by later chunks.
            root_queue: WaitFreeRootQueue::new(8),
            root_child: Atomic::new(Node::empty(wft_queue::Timestamp::ZERO)),
            presence: PresenceIndex::new(),
            ids: IdAllocator::new(),
            config,
            counters: Box::default(),
            len: AtomicU64::new(0),
            advertised_ts: AtomicU64::new(0),
            resolved_ts: AtomicU64::new(0),
        }
    }

    /// Builds a tree containing `entries` (duplicates keep the first value),
    /// perfectly balanced, with the default configuration.
    pub fn from_entries<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        Self::from_entries_with_config(entries, TreeConfig::default())
    }

    /// Builds a pre-populated, perfectly balanced tree with an explicit
    /// configuration. This is how the benchmark harness creates the
    /// pre-filled trees of the paper's experiments without paying one queue
    /// round-trip per initial key.
    pub fn from_entries_with_config<I: IntoIterator<Item = (K, V)>>(
        entries: I,
        config: TreeConfig,
    ) -> Self {
        let mut tree = Self::with_config(config);
        let mut sorted: Vec<(K, V)> = entries.into_iter().collect();
        sorted.sort_by_key(|a| a.0);
        sorted.dedup_by(|a, b| a.0 == b.0);
        for (key, value) in &sorted {
            tree.presence.prefill(*key, value.clone());
        }
        let guard = crossbeam_epoch::pin();
        let (root, _agg) =
            build_subtree::<K, V, A, S>(&sorted, S::WHOLE, wft_queue::Timestamp::ZERO, &tree.ids);
        // The tree is still private to this thread: a plain store is fine and
        // the initial Empty placeholder can be freed immediately.
        // ORDERING: AcqRel out of caution only — the tree is still private to this
        // thread (see above), so the swap cannot race; Release publishes the
        // prefilled subtree to whichever thread the tree is moved to.
        let old = tree
            .root_child
            .swap(crossbeam_epoch::Owned::new(root), Ordering::AcqRel, &guard);
        free_subtree_now(old);
        tree.len.store(sorted.len() as u64, Ordering::Relaxed);
        tree
    }

    /// Inserts `key → value`. Returns `true` if the key was absent (the
    /// paper's `insert` semantics: an existing key leaves the tree, and its
    /// value, unmodified).
    ///
    /// Under [`ReadPath::Fast`] an insert of a key that is already present
    /// fails at one presence-index load, like [`contains`](Self::contains),
    /// with no descriptor and no timestamp.
    pub fn insert(&self, key: K, value: V) -> bool {
        if self.fails_fast(&key, true) {
            return false;
        }
        self.run_operation(OpKind::Insert { key, value })
            .resolved_decision()
            .success
    }

    /// Inserts `key → value`, overwriting any existing value; returns the
    /// value it replaced, if any (the atomic upsert).
    ///
    /// This executes as a **single** [`OpKind::Replace`] descriptor: one
    /// root-queue enqueue, one linearization point, helped like any other
    /// update, with the augmentation delta (new entry in, displaced entry
    /// out) applied eagerly top-down. There is no window in which a
    /// concurrent reader can observe the key absent, unlike a
    /// `remove` + `insert` composition.
    pub fn insert_or_replace(&self, key: K, value: V) -> Option<V> {
        self.run_operation(OpKind::Replace { key, value })
            .resolved_decision()
            .prior_value
            .clone()
    }

    /// Removes `key`. Returns `true` if it was present.
    ///
    /// Under [`ReadPath::Fast`] a remove of an absent key fails at one
    /// presence-index load, with no descriptor and no timestamp.
    pub fn remove(&self, key: &K) -> bool {
        if self.fails_fast(key, false) {
            return false;
        }
        self.run_operation(OpKind::Remove { key: *key })
            .resolved_decision()
            .success
    }

    /// Removes `key` and returns the value it was mapped to, if any.
    pub fn remove_entry(&self, key: &K) -> Option<V> {
        if self.fails_fast(key, false) {
            return None;
        }
        let op = self.run_operation(OpKind::Remove { key: *key });
        let decision = op.resolved_decision();
        if decision.success {
            decision.prior_value.clone()
        } else {
            None
        }
    }

    /// Whether an insert (`insert == true`) or a remove of `key` fails at
    /// the presence load of [`fails_at_presence_load`](Self::fails_at_presence_load):
    /// an insert of a present key, a remove of an absent one.
    pub(crate) fn fails_fast(&self, key: &K, insert: bool) -> bool {
        self.fails_at_presence_load(|index, guard| {
            (index.contains_key(key, guard) == insert).then_some(())
        })
        .is_some()
    }

    /// The failure fast path of `insert` and `remove`: under
    /// [`ReadPath::Fast`], loads the key's presence state once through
    /// `fails`, which answers `Some` when that state already decides the
    /// update fails. The update then linearizes at that load, like
    /// [`contains`](Self::contains): the presence index is the resolution
    /// authority, and an update that changes nothing needs no timestamp.
    /// Counted in both `failed_updates` and `fast_failed_updates`. `None`
    /// means the caller runs the descriptor, which may still fail at the
    /// root.
    pub(crate) fn fails_at_presence_load<T>(
        &self,
        fails: impl FnOnce(&PresenceIndex<K, V>, &Guard) -> Option<T>,
    ) -> Option<T> {
        if self.config.read_path != ReadPath::Fast {
            return None;
        }
        let out = fails(&self.presence, &crossbeam_epoch::pin())?;
        self.counters.failed_updates.inc();
        self.counters.fast_failed_updates.inc();
        Some(out)
    }

    /// Returns `true` if `key` is in the tree.
    ///
    /// Presence-only: with [`ReadPath::Fast`] (the default) this is one
    /// presence-index bucket load — `O(1)`, no descriptor, no root-queue
    /// enqueue, and the value is **never cloned**. Under
    /// [`ReadPath::Descriptor`] the lookup runs as a full descriptor but the
    /// result is still assembled without cloning the value.
    pub fn contains(&self, key: &K) -> bool {
        if self.config.read_path == ReadPath::Fast {
            self.counters.fast_point_reads.inc();
            let guard = crossbeam_epoch::pin();
            return self.presence.contains_key(key, &guard);
        }
        self.run_operation(OpKind::Lookup { key: *key })
            .assemble_lookup_present()
    }

    /// Returns the value associated with `key`, if any.
    ///
    /// With [`ReadPath::Fast`] (the default) the value comes straight from
    /// the presence index — the tree's resolution authority, where every
    /// update's effect is fixed at its linearization point — in `O(1)` with
    /// a single clone of the returned value (see `crate::read`).
    pub fn get(&self, key: &K) -> Option<V> {
        if self.config.read_path == ReadPath::Fast {
            self.counters.fast_point_reads.inc();
            let guard = crossbeam_epoch::pin();
            return self.presence.read_value(key, &guard);
        }
        self.run_operation(OpKind::Lookup { key: *key })
            .assemble_lookup()
    }

    /// Aggregate of every entry with key in `[min, max]` under the tree's
    /// augmentation — the paper's asymptotically efficient aggregate range
    /// query (`count`, `range_sum`, ... depending on `A`).
    ///
    /// With [`ReadPath::Fast`] (the default) the query first attempts an
    /// optimistic descriptor-free traversal that validates its read set and
    /// falls back to the descriptor path on contention (see `crate::read`
    /// for the linearization argument and the fallback conditions).
    pub fn range_agg(&self, min: K, max: K) -> A::Agg {
        if min > max {
            return A::identity();
        }
        if self.config.read_path == ReadPath::Fast {
            let fast = self.fast_read(|guard| self.try_fast_range_agg(min, max, guard), || true);
            if let Some(agg) = fast {
                return agg;
            }
            self.note_range_fallback();
        }
        self.run_operation(OpKind::RangeAgg { min, max })
            .assemble_agg()
    }

    /// Every `(key, value)` with key in `[min, max]`, in key order. Linear in
    /// the number of reported entries (the `collect` query of prior work).
    ///
    /// Attempts the same optimistic descriptor-free traversal as
    /// [`range_agg`](WaitFreeTree::range_agg) under [`ReadPath::Fast`].
    pub fn collect_range(&self, min: K, max: K) -> Vec<(K, V)> {
        self.collect_range_limited(min, max, usize::MAX)
    }

    /// The (up to) `limit` smallest entries with key in `[min, max]`, in key
    /// order — the chunk primitive of the streaming scan API
    /// (`wft_api::RangeScan`).
    ///
    /// Under [`ReadPath::Fast`] (the default) the optimistic traversal
    /// **early-exits** once `limit` entries are gathered, so a chunk costs
    /// `O(log N + limit)` instead of `O(answer)`: skipped subtrees only
    /// cover keys beyond the last collected one, so the result is provably
    /// a prefix of the full listing (see `crate::read`). Early exits are
    /// counted in the `tree_fast_range_early_exits` metric. The descriptor
    /// fallback collects the full range and truncates — correct, linear,
    /// and only taken when every optimistic attempt failed validation.
    pub fn collect_range_limited(&self, min: K, max: K, limit: usize) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.collect_range_limited_into(min, max, limit, &mut out);
        out
    }

    /// [`collect_range_limited`](WaitFreeTree::collect_range_limited),
    /// **appended** to `out`: the scan cursor's per-read primitive, which
    /// reads straight into its read-ahead buffer.
    pub(crate) fn collect_range_limited_into(
        &self,
        min: K,
        max: K,
        limit: usize,
        out: &mut Vec<(K, V)>,
    ) {
        if min > max || limit == 0 {
            return;
        }
        if self.config.read_path == ReadPath::Fast {
            let fast = self.fast_read(
                |guard| self.try_fast_collect(min, max, limit, out, guard),
                || true,
            );
            if fast.is_some() {
                return;
            }
            self.note_range_fallback();
        }
        let mut entries = self
            .run_operation(OpKind::Collect { min, max })
            .assemble_entries();
        entries.truncate(limit);
        if out.is_empty() {
            *out = entries;
        } else {
            out.append(&mut entries);
        }
    }

    /// Number of keys in `[min, max]` — the paper's headline `count` query.
    /// `O(log N + |P|)` amortized whenever the augmentation tracks the entry
    /// count ([`Augmentation::counts`]: [`Size`] alone or inside a
    /// `Pair`); otherwise the range is collected and counted, and no
    /// aggregate is read.
    pub fn count(&self, min: K, max: K) -> u64 {
        A::counts()
            .then(|| A::count_of(&self.range_agg(min, max)))
            .flatten()
            .unwrap_or_else(|| self.collect_range(min, max).len() as u64)
    }

    /// Number of keys currently stored (exact once all in-flight updates have
    /// returned; maintained at update linearization points).
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// `true` when the tree stores no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tree's configuration.
    pub fn config(&self) -> &TreeConfig {
        &self.config
    }

    /// The real-root slot: the fictive root's only child covers every key.
    pub(crate) fn root_slot(&self) -> Slot<'_, K, V, A, S> {
        Slot {
            cell: &self.root_child,
            coverage: S::WHOLE,
        }
    }

    /// Counts a descriptor-path fallback and drops a timeline event into
    /// the global trace ring: fallbacks are the tree's per-read anomaly
    /// signal, and a burst of them is exactly what a post-mortem needs to
    /// see with timestamps (cf. `wft_obs::trace`).
    fn note_range_fallback(&self) {
        self.counters.range_fallbacks.inc();
        wft_obs::trace::emit(wft_obs::TraceKind::RangeFallback, wft_obs::NO_SHARD);
    }

    // -- the timestamp front ------------------------------------------------

    /// The **advertised watermark**: the latest update timestamp whose
    /// linearization has *begun*. It is advanced before the update's effect
    /// can be observed by any read, which is what makes "advertised watermark
    /// unchanged across a window" mean "no update became visible inside the
    /// window" — the validation rule of the snapshot front.
    pub fn advertised_ts(&self) -> wft_queue::Timestamp {
        // ORDERING: pairs with the SeqCst `advertised_ts` fetch_max in
        // `resolve_update` (advertise-before-resolve).
        // wft-lint: allow(seqcst) -- the snapshot-front proof needs the advertise bump, the update's effects and this read in one total order.
        wft_queue::Timestamp(self.advertised_ts.load(Ordering::SeqCst))
    }

    /// Acquires a **settled front**: a watermark observed at an instant with
    /// no update mid-linearization (`advertised == resolved`). If an update
    /// is in flight, the caller *helps* execute the root-queue head — the
    /// same helping any descriptor operation performs — so the loop is
    /// lock-free: each iteration either returns or completes a concurrent
    /// update's root-level work.
    ///
    /// A front returned here is the anchor of a snapshot read: as long as
    /// [`advertised_ts`](WaitFreeTree::advertised_ts) still equals it, the
    /// tree's abstract state is unchanged since the acquisition instant.
    pub fn settle_front(&self) -> wft_queue::Timestamp {
        let guard = crossbeam_epoch::pin();
        loop {
            // ORDERING: pairs with the SeqCst advertise bump in `resolve_update`.
            // wft-lint: allow(seqcst) -- the advertised/resolved double-read below is only meaningful in the gauge's single total order.
            let advertised = self.advertised_ts.load(Ordering::SeqCst);
            // ORDERING: pairs with the SeqCst resolve bump in `resolve_update`.
            // wft-lint: allow(seqcst) -- comparing the two watermarks cross-thread requires the single total order of their SeqCst bumps.
            if self.resolved_ts.load(Ordering::SeqCst) >= advertised {
                // Quiescent instant — but only if nothing new was advertised
                // while we looked at `resolved`.
                // ORDERING: re-validates `advertised` in the same total order.
                // wft-lint: allow(seqcst) -- an advertise between the two reads must be impossible to miss, which only the SeqCst total order guarantees.
                if self.advertised_ts.load(Ordering::SeqCst) == advertised {
                    return wft_queue::Timestamp(advertised);
                }
            } else if let Some((head_ts, head_op)) = self.root_queue.peek(&guard) {
                // An update is mid-linearization; it sits at the root-queue
                // head for the whole window (it is only resolved as the head
                // and only popped afterwards). Help it to completion.
                self.counters.helped_executions.inc();
                // SAFETY: peeked from the root queue under `guard` (`OpRef::deref`).
                let head_op = unsafe { head_op.deref(&guard) };
                self.execute_op_at(head_op, head_ts, crate::exec::ParentRef::Fictive, &guard);
            }
            // `resolved < advertised` with an empty queue: the resolving
            // helper is between its two watermark bumps — re-read.
            std::hint::spin_loop();
        }
    }

    /// `true` while no update has begun linearizing past `front` — the
    /// validation half of the snapshot sandwich.
    pub fn front_unchanged(&self, front: wft_queue::Timestamp) -> bool {
        // ORDERING: pairs with the SeqCst advertise bump in `resolve_update` — an
        // unchanged advertised watermark proves no update began linearizing.
        // wft-lint: allow(seqcst) -- the validation must observe every advertise bump that could have made an update visible inside the window; needs the total order.
        self.advertised_ts.load(Ordering::SeqCst) == front.get()
    }

    /// [`range_agg`](WaitFreeTree::range_agg) **at** a settled front: the
    /// aggregate of the tree state at exactly `front`, or why there is none
    /// ([`FrontMiss`]). Named `*_at_front` — not `*_at` — so it cannot shadow
    /// the `SnapshotToken`-typed `wft_api::SnapshotRead::range_agg_at`.
    ///
    /// Under [`ReadPath::Fast`] the read is **optimistic-only**: bounded
    /// descriptor-free attempts, and *never* a fall back to the descriptor
    /// path, whose `O(answer)` work every concurrent updater behind it would
    /// re-do while helping — front-anchored reads must not stall the update
    /// pipeline. The two ways of coming back empty-handed are told apart:
    ///
    /// * [`FrontMiss::Expired`] — an update began linearizing past `front`.
    ///   The caller re-settles and retries at a fresh front.
    /// * [`FrontMiss::Busy`] — every attempt failed validation but the front
    ///   **has not moved**: an older update is still on its way down, a
    ///   rebuild is in progress, or another reader's descriptor sits in a
    ///   queue on the path. The state at `front` is still the current
    ///   state, so the caller backs off and retries the *same* front.
    ///
    /// The front checks before and after the read prove its linearization
    /// instant fell inside a window in which the state was constant and
    /// equal to the state at `front`.
    pub fn range_agg_at_front(
        &self,
        min: K,
        max: K,
        front: wft_queue::Timestamp,
    ) -> Result<A::Agg, FrontMiss> {
        self.front_current(front)?;
        if min > max {
            return Ok(A::identity());
        }
        if self.config.read_path != ReadPath::Fast {
            return self.still_at(front, self.range_agg(min, max));
        }
        self.read_at_front(front, |guard| self.try_fast_range_agg(min, max, guard))
    }

    /// [`collect_range_limited`](WaitFreeTree::collect_range_limited) at a
    /// settled front: **appends** the `limit` smallest entries of
    /// `[min, max]` in the tree state at exactly `front` to `out`, with the
    /// same optimistic-only discipline and the same two misses as
    /// [`range_agg_at_front`](WaitFreeTree::range_agg_at_front). On a miss
    /// `out` is left as it was. This is the per-shard read of the sharded
    /// store's cross-shard collects and of its streaming scan cursor, which
    /// append every shard's entries into the one buffer they return or
    /// hand out from: each entry is copied once, out of its run.
    pub fn collect_range_limited_at_front(
        &self,
        min: K,
        max: K,
        limit: usize,
        front: wft_queue::Timestamp,
        out: &mut Vec<(K, V)>,
    ) -> Result<(), FrontMiss> {
        self.front_current(front)?;
        if min > max || limit == 0 {
            return Ok(());
        }
        let mark = out.len();
        let read = if self.config.read_path == ReadPath::Fast {
            self.read_at_front(front, |guard| {
                self.try_fast_collect(min, max, limit, out, guard)
            })
        } else {
            self.collect_range_limited_into(min, max, limit, out);
            self.still_at(front, ())
        };
        if read.is_err() {
            out.truncate(mark);
        }
        read
    }

    /// Entry check of the front-anchored reads: both watermarks still equal
    /// `front`, i.e. nothing linearized past it and nothing is mid-flight.
    pub(crate) fn front_current(&self, front: wft_queue::Timestamp) -> Result<(), FrontMiss> {
        // ORDERING: pairs with the SeqCst resolve bump in `resolve_update`.
        // wft-lint: allow(seqcst) -- front anchoring compares both SeqCst watermarks; a weaker read could see a stale resolved value and accept an expired front.
        if self.resolved_ts.load(Ordering::SeqCst) == front.get() && self.front_unchanged(front) {
            Ok(())
        } else {
            Err(FrontMiss::Expired)
        }
    }

    /// The tree's read at a cut (`crate::cut`): `read` runs only while the
    /// front is settled at `front` (an update mid-linearization fails this
    /// entry check), and its result counts only if the front is still there
    /// afterwards. `read` is a plain read, so behind a stalled updater it
    /// takes the descriptor fallback and helps.
    pub(crate) fn sandwiched<T>(&self, front: u64, read: impl FnOnce() -> T) -> Option<T> {
        let front = wft_queue::Timestamp(front);
        self.front_current(front).ok()?;
        self.still_at(front, read()).ok()
    }

    /// Exit check of the front-anchored reads: `out` counts only if the
    /// front still holds after it was read.
    pub(crate) fn still_at<T>(&self, front: wft_queue::Timestamp, out: T) -> Result<T, FrontMiss> {
        if self.front_unchanged(front) {
            Ok(out)
        } else {
            Err(FrontMiss::Expired)
        }
    }

    /// The shared body of the `*_at_front` reads under [`ReadPath::Fast`]:
    /// `attempt` is one optimistic traversal (under
    /// [`ReadPath::Descriptor`] the callers read the plain way and apply
    /// [`still_at`](Self::still_at) themselves).
    fn read_at_front<T>(
        &self,
        front: wft_queue::Timestamp,
        attempt: impl FnMut(&crossbeam_epoch::Guard) -> Option<T>,
    ) -> Result<T, FrontMiss> {
        // The front only moves forward, so one look after the attempts tells
        // the two misses apart.
        match self.fast_read(attempt, || self.front_unchanged(front)) {
            Some(out) => self.still_at(front, out),
            None if self.front_unchanged(front) => Err(FrontMiss::Busy),
            None => Err(FrontMiss::Expired),
        }
    }

    /// The bounded optimistic read shared by every range query: up to
    /// [`FAST_READ_ATTEMPTS`] descriptor-free traversals under one pinned
    /// guard. A failed validation usually means one in-flight
    /// update, so a bounded retry beats paying the descriptor slow path;
    /// `worth_retrying` lets a caller stop early once a retry cannot help.
    /// Counts one `fast_range_hits` on success and one `fast_range_retries`
    /// per *extra* attempt actually started — a failed last attempt is a
    /// miss, not a retry.
    fn fast_read<T>(
        &self,
        mut attempt: impl FnMut(&crossbeam_epoch::Guard) -> Option<T>,
        worth_retrying: impl Fn() -> bool,
    ) -> Option<T> {
        let guard = crossbeam_epoch::pin();
        for remaining in (0..FAST_READ_ATTEMPTS).rev() {
            if let Some(out) = attempt(&guard) {
                self.counters.fast_range_hits.inc();
                return Some(out);
            }
            if remaining == 0 || !worth_retrying() {
                break;
            }
            self.counters.fast_range_retries.inc();
        }
        None
    }

    /// All entries in key order.
    ///
    /// **Quiescent only**: the caller must guarantee no concurrent
    /// operations; intended for tests, examples and experiment validation.
    pub fn entries_quiescent(&self) -> Vec<(K, V)> {
        let guard = crossbeam_epoch::pin();
        let mut out = Vec::new();
        collect_subtree(
            // ORDERING: Acquire pairs with the AcqRel child-slot CASes; quiescent use.
            self.root_child.load(Ordering::Acquire, &guard),
            &mut out,
            &guard,
        );
        out
    }

    /// Validates the structural invariants of the tree: routing intervals,
    /// every leaf run sorted, non-empty, at most `LEAF_CAP` long and inside
    /// its interval, augmentation freshness of every run and inner node,
    /// emptiness of every descriptor queue, agreement between the stored
    /// length, the presence index and the physical leaves, every node's
    /// recorded coverage, and — for a shape that never rebuilds — the depth
    /// of every leaf: at most [`Shape::DEPTH_SLACK`] below the bulk-built
    /// skeleton. Inner nodes of such a tree are never unlinked, so a
    /// skeleton of `m` routing nodes, of height `⌈log2(m + 1)⌉`, is bounded
    /// through the number of routing nodes there are now.
    ///
    /// **Quiescent only**; panics on violation. Intended for tests.
    pub fn check_invariants(&self) {
        let guard = crossbeam_epoch::pin();
        // ORDERING: Acquire pairs with the AcqRel child-slot CASes; quiescent use.
        let root = self.root_child.load(Ordering::Acquire, &guard);
        let mut census = Census::default();
        let n = check_node::<K, V, A, S>(root, None, None, S::WHOLE, 0, &mut census, &guard);
        assert_eq!(
            n,
            self.len(),
            "cached length diverged from the physical leaf count"
        );
        if let Some(slack) = S::DEPTH_SLACK {
            let skeleton = (census.inner_nodes + 1)
                .next_power_of_two()
                .trailing_zeros();
            assert!(
                census.deepest_leaf <= skeleton + slack,
                "leaf at depth {} under {} routing nodes",
                census.deepest_leaf,
                census.inner_nodes
            );
        }
        let mut entries = Vec::new();
        collect_subtree(root, &mut entries, &guard);
        for (key, _) in &entries {
            assert!(
                self.presence.is_present(key, &guard),
                "leaf key {key:?} missing from the presence index"
            );
        }
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> Drop for WaitFreeTree<K, V, A, S> {
    fn drop(&mut self) {
        // Exclusive access: free the whole tree. Queues, the presence index
        // and the root queue free themselves through their own Drop impls.
        // SAFETY: `drop` takes `&mut self`, so no other thread can reach the tree;
        // the unprotected guard and immediate free are sound.
        let root = self
            .root_child
            .load(Ordering::Relaxed, unsafe { crossbeam_epoch::unprotected() });
        free_subtree_now(root);
    }
}

/// What `check_node` counts for the depth bound.
#[derive(Default)]
struct Census {
    inner_nodes: u64,
    deepest_leaf: u32,
}

/// Recursive invariant checker (quiescent).
fn check_node<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>>(
    node: crossbeam_epoch::Shared<'_, Node<K, V, A, S>>,
    lo: Option<&K>,
    hi: Option<&K>,
    coverage: S::Coverage,
    depth: u32,
    census: &mut Census,
    guard: &crossbeam_epoch::Guard,
) -> u64 {
    if node.is_null() {
        return 0;
    }
    // SAFETY: quiescent walk — `node` came from the root slot (or a child
    // slot) under `guard` and nothing is being retired concurrently.
    match unsafe { node.deref() } {
        Node::Empty(_) => 0,
        Node::Leaf(leaf) => {
            census.deepest_leaf = census.deepest_leaf.max(depth);
            let run = leaf.entries();
            assert!(
                !run.is_empty() && run.len() <= LEAF_CAP,
                "leaf run of {} entries",
                run.len()
            );
            assert!(
                run.windows(2).all(|w| w[0].0 < w[1].0),
                "leaf run not strictly ascending"
            );
            if let Some(lo) = lo {
                assert!(&run[0].0 >= lo, "leaf key below its routing interval");
            }
            if let Some(hi) = hi {
                assert!(
                    &run[run.len() - 1].0 < hi,
                    "leaf key above its routing interval"
                );
            }
            assert_eq!(
                leaf.agg(),
                &run_agg::<K, V, A>(run),
                "stored run aggregate is stale"
            );
            run.len() as u64
        }
        Node::Inner(inner) => {
            assert!(
                inner.queue.is_empty(guard),
                "descriptor queue not empty in a quiescent tree"
            );
            assert_eq!(
                inner.coverage, coverage,
                "inner node coverage disagrees with its position"
            );
            census.inner_nodes += 1;
            let (left, right) = (inner.left_slot(), inner.right_slot());
            let nl = check_node::<K, V, A, S>(
                // ORDERING: Acquire pairs with the AcqRel child-slot CASes; quiescent use.
                left.cell.load(Ordering::Acquire, guard),
                lo,
                Some(&inner.rsm),
                left.coverage,
                depth + 1,
                census,
                guard,
            );
            let nr = check_node::<K, V, A, S>(
                // ORDERING: as above, for the right child.
                right.cell.load(Ordering::Acquire, guard),
                Some(&inner.rsm),
                hi,
                right.coverage,
                depth + 1,
                census,
                guard,
            );
            // The stored aggregate must equal the aggregate recomputed from
            // the leaves below.
            let mut entries = Vec::new();
            collect_subtree(node, &mut entries, guard);
            let expect = run_agg::<K, V, A>(&entries);
            assert_eq!(
                &inner.load_state(guard).agg,
                &expect,
                "stored augmentation value is stale"
            );
            nl + nr
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wft_obs::MetricsSource;

    #[test]
    fn empty_tree_properties() {
        let tree: WaitFreeTree<i64> = WaitFreeTree::new();
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 0);
        assert!(!tree.contains(&1));
        assert_eq!(tree.count(i64::MIN, i64::MAX), 0);
        assert!(tree.collect_range(i64::MIN, i64::MAX).is_empty());
        assert!(!tree.remove(&1));
        tree.check_invariants();
    }

    #[test]
    fn single_thread_insert_remove_contains() {
        let tree: WaitFreeTree<i64> = WaitFreeTree::new();
        assert!(tree.insert(5, ()));
        assert!(!tree.insert(5, ()));
        assert!(tree.insert(1, ()));
        assert!(tree.insert(9, ()));
        assert_eq!(tree.len(), 3);
        assert!(tree.contains(&5));
        assert!(tree.contains(&1));
        assert!(tree.contains(&9));
        assert!(!tree.contains(&2));
        assert!(tree.remove(&5));
        assert!(!tree.remove(&5));
        assert!(!tree.contains(&5));
        assert_eq!(tree.len(), 2);
        tree.check_invariants();
    }

    #[test]
    fn count_and_collect_agree_single_thread() {
        let tree: WaitFreeTree<i64> = WaitFreeTree::new();
        for k in (0..200).step_by(3) {
            tree.insert(k, ());
        }
        for (min, max) in [(0, 199), (10, 50), (-100, 5), (150, 400), (60, 60), (7, 3)] {
            assert_eq!(
                tree.count(min, max),
                tree.collect_range(min, max).len() as u64,
                "range [{min}, {max}]"
            );
        }
        tree.check_invariants();
    }

    #[test]
    fn get_and_remove_entry_return_values() {
        let tree: WaitFreeTree<i64, String> = WaitFreeTree::new();
        assert!(tree.insert(1, "one".into()));
        assert!(!tree.insert(1, "uno".into()));
        assert_eq!(tree.get(&1), Some("one".to_string()));
        assert_eq!(tree.remove_entry(&1), Some("one".to_string()));
        assert_eq!(tree.remove_entry(&1), None);
        assert_eq!(tree.get(&1), None);
    }

    #[test]
    fn from_entries_builds_working_tree() {
        let tree: WaitFreeTree<i64, i64> =
            WaitFreeTree::from_entries((0..1000).map(|k| (k, k * 2)));
        assert_eq!(tree.len(), 1000);
        assert_eq!(tree.get(&500), Some(1000));
        assert!(!tree.insert(500, 0), "prefilled keys are present");
        assert!(tree.remove(&500));
        assert_eq!(tree.len(), 999);
        tree.check_invariants();
    }

    #[test]
    fn rebuilds_keep_the_tree_usable() {
        let cfg = TreeConfig {
            rebuild_factor: 0.5,
            ..TreeConfig::default()
        };
        let tree: WaitFreeTree<i64> = WaitFreeTree::with_config(cfg);
        for k in 0..2000 {
            tree.insert(k, ());
        }
        let rebuilds = tree.metrics().counter("tree_rebuilds");
        assert!(
            rebuilds > Some(0),
            "sorted insertions must trigger rebuilds"
        );
        for k in 0..2000 {
            assert!(tree.contains(&k), "key {k} lost after rebuilds");
        }
        assert_eq!(tree.count(0, 1999), 2000);
        tree.check_invariants();
    }

    #[test]
    fn a_rebuild_that_loses_the_install_is_counted() {
        let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..1000).map(|k| (k, ())));
        let guard = crossbeam_epoch::pin();
        // ORDERING: Acquire pairs with the Release swap in `from_entries`; quiescent use.
        let old = tree.root_child.load(Ordering::Acquire, &guard);
        // Two helpers of one operation that both saw `old` over threshold:
        // both build the replacement, one installs it.
        let ts = wft_queue::Timestamp(1);
        tree.rebuild_subtree(tree.root_slot(), old, ts, &guard);
        tree.rebuild_subtree(tree.root_slot(), old, ts, &guard);
        let metrics = tree.metrics();
        let count = |name| metrics.counter(name).unwrap();
        assert_eq!(
            (count("tree_rebuilds"), count("tree_rebuilds_lost")),
            (1, 1)
        );
        assert_eq!(count("tree_rebuilt_items"), 1000, "the winner's copy only");
        drop(guard);
        tree.check_invariants();
    }

    #[test]
    fn stats_track_updates() {
        let tree: WaitFreeTree<i64> = WaitFreeTree::new();
        tree.insert(1, ());
        tree.insert(1, ());
        tree.insert(2, ());
        tree.remove(&1);
        tree.remove(&3);
        let metrics = tree.metrics();
        assert_eq!(metrics.counter("tree_inserts"), Some(2));
        assert_eq!(metrics.counter("tree_removes"), Some(1));
        assert_eq!(metrics.counter("tree_failed_updates"), Some(2));
    }

    #[test]
    fn insert_or_replace_single_thread() {
        let tree: WaitFreeTree<i64, String> = WaitFreeTree::new();
        assert_eq!(tree.insert_or_replace(1, "one".into()), None);
        assert_eq!(tree.len(), 1);
        assert_eq!(
            tree.insert_or_replace(1, "uno".into()),
            Some("one".to_string())
        );
        assert_eq!(tree.len(), 1, "an overwrite must not change the length");
        assert_eq!(tree.get(&1), Some("uno".to_string()));
        assert_eq!(tree.remove_entry(&1), Some("uno".to_string()));
        assert_eq!(tree.insert_or_replace(1, "ein".into()), None);
        assert_eq!(tree.metrics().counter("tree_replaces"), Some(3));
        tree.check_invariants();
    }

    #[test]
    fn replace_maintains_augmentations() {
        use wft_seq::{Pair, Sum};
        let tree: WaitFreeTree<i64, i64, Pair<Size, Sum>> =
            WaitFreeTree::from_entries((0..100).map(|k| (k, k)));
        // Overwrite every even key's value with 1000 + k.
        for k in (0..100).step_by(2) {
            assert_eq!(tree.insert_or_replace(k, 1000 + k), Some(k));
        }
        let (count, sum) = tree.range_agg(0, 99);
        assert_eq!(count, 100);
        let expect: i128 = (0..100i64)
            .map(|k| if k % 2 == 0 { 1000 + k } else { k } as i128)
            .sum();
        assert_eq!(sum, expect);
        tree.check_invariants();
    }

    #[test]
    fn replace_survives_rebuilds() {
        let cfg = TreeConfig {
            rebuild_factor: 0.5,
            ..TreeConfig::default()
        };
        let tree: WaitFreeTree<i64, i64> = WaitFreeTree::with_config(cfg);
        for k in 0..1000 {
            tree.insert_or_replace(k, k);
        }
        for k in 0..1000 {
            assert_eq!(tree.insert_or_replace(k, -k), Some(k));
        }
        let rebuilds = tree.metrics().counter("tree_rebuilds");
        assert!(rebuilds > Some(0), "sorted upserts must rebuild");
        assert_eq!(tree.len(), 1000);
        assert_eq!(tree.get(&999), Some(-999));
        tree.check_invariants();
    }

    #[test]
    fn both_read_paths_answer_identically_single_thread() {
        let fast_cfg = TreeConfig::default();
        let desc_cfg = TreeConfig {
            read_path: ReadPath::Descriptor,
            ..TreeConfig::default()
        };
        assert_eq!(fast_cfg.read_path, ReadPath::Fast, "fast is the default");
        let entries: Vec<(i64, i64)> = (0..300).step_by(3).map(|k| (k, k * 10)).collect();
        let fast: WaitFreeTree<i64, i64> =
            WaitFreeTree::from_entries_with_config(entries.clone(), fast_cfg);
        let desc: WaitFreeTree<i64, i64> =
            WaitFreeTree::from_entries_with_config(entries, desc_cfg);
        for tree in [&fast, &desc] {
            tree.insert(1, 11);
            tree.remove(&3);
            tree.insert_or_replace(6, -60);
        }
        for k in [-1, 0, 1, 2, 3, 6, 9, 298, 299, 500] {
            assert_eq!(fast.get(&k), desc.get(&k), "get({k})");
            assert_eq!(fast.contains(&k), desc.contains(&k), "contains({k})");
        }
        for (min, max) in [(0, 299), (10, 50), (-5, 4), (200, 600), (7, 7), (9, 3)] {
            assert_eq!(
                fast.count(min, max),
                desc.count(min, max),
                "count [{min},{max}]"
            );
            assert_eq!(
                fast.collect_range(min, max),
                desc.collect_range(min, max),
                "collect [{min},{max}]"
            );
        }
        fast.check_invariants();
        desc.check_invariants();
    }

    #[test]
    fn a_count_over_sum_reads_the_range_once() {
        use wft_api::{RangeSpec, SnapshotRead};
        let tree: WaitFreeTree<i64, i64, wft_seq::Sum> =
            WaitFreeTree::from_entries((0..100).map(|k| (k, k)));
        let hits = || tree.metrics().counter("tree_fast_range_hits").unwrap();
        // `Sum` does not count, so `count` collects and reads no aggregate.
        assert_eq!(tree.count(10, 19), 10);
        assert_eq!(hits(), 1);
        let token = tree.acquire_snapshot();
        assert_eq!(
            tree.count_at(&token, RangeSpec::inclusive(10, 19)),
            Some(10)
        );
        assert_eq!(hits(), 2);
    }

    #[test]
    fn fast_read_counters_track_hits() {
        let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..100).map(|k| (k, ())));
        assert!(tree.contains(&5));
        assert!(tree.get(&6).is_some());
        assert_eq!(tree.count(0, 99), 100);
        assert_eq!(tree.collect_range(10, 12).len(), 3);
        let metrics = tree.metrics();
        assert_eq!(metrics.counter("tree_fast_point_reads"), Some(2));
        assert_eq!(
            metrics.counter("tree_fast_range_hits"),
            Some(2),
            "quiescent range reads must validate"
        );
        assert_eq!(metrics.counter("tree_range_fallbacks"), Some(0));

        let desc: WaitFreeTree<i64> = WaitFreeTree::with_config(TreeConfig {
            read_path: ReadPath::Descriptor,
            ..TreeConfig::default()
        });
        desc.insert(1, ());
        assert!(desc.contains(&1));
        assert_eq!(desc.get(&2), None);
        assert_eq!(desc.count(0, 10), 1);
        let metrics = desc.metrics();
        let point_reads = metrics.counter("tree_fast_point_reads");
        assert_eq!(point_reads, Some(0), "descriptor path counts nothing");
        assert_eq!(metrics.counter("tree_fast_range_hits"), Some(0));
    }

    #[test]
    fn timestamp_front_tracks_updates() {
        let tree: WaitFreeTree<i64> = WaitFreeTree::new();
        let front = tree.settle_front();
        assert_eq!(front, wft_queue::Timestamp::ZERO);
        assert!(tree.front_unchanged(front));

        tree.insert(1, ());
        assert!(!tree.front_unchanged(front), "an update advances the front");
        // A failed insert or remove is answered at the presence load and
        // takes no timestamp: the front stays exact and still answers.
        let front = tree.settle_front();
        assert!(!tree.insert(1, ()));
        assert!(!tree.remove(&2));
        assert!(tree.front_unchanged(front));
        assert_eq!(tree.range_agg_at_front(0, 10, front), Ok(1));
        // Read-only operations never advance the front.
        tree.contains(&1);
        tree.count(0, 10);
        tree.collect_range(0, 10);
        assert!(tree.front_unchanged(front));
        assert_eq!(tree.settle_front(), tree.advertised_ts());
        assert_eq!(tree.metrics().counter("tree_fast_failed_updates"), Some(2));

        // Under `ReadPath::Descriptor` a failed update still runs its
        // descriptor and occupies a timestamp.
        let desc: WaitFreeTree<i64> = WaitFreeTree::with_config(TreeConfig {
            read_path: ReadPath::Descriptor,
            ..TreeConfig::default()
        });
        desc.insert(1, ());
        let front = desc.settle_front();
        assert!(!desc.insert(1, ()));
        assert!(!desc.front_unchanged(front));
        let front = desc.settle_front();
        assert!(!desc.remove(&2));
        assert!(!desc.front_unchanged(front));
        let metrics = desc.metrics();
        assert_eq!(metrics.counter("tree_failed_updates"), Some(2));
        assert_eq!(metrics.counter("tree_fast_failed_updates"), Some(0));
    }

    /// The unlimited front-validated collect of `[min, max]`: how many
    /// entries it read, or its miss.
    fn collected_at<S: Shape<i64>>(
        tree: &WaitFreeTree<i64, (), Size, S>,
        min: i64,
        max: i64,
        front: wft_queue::Timestamp,
    ) -> Result<usize, FrontMiss> {
        let mut out = Vec::new();
        tree.collect_range_limited_at_front(min, max, usize::MAX, front, &mut out)
            .map(|()| out.len())
    }

    #[test]
    fn front_bounded_reads_succeed_then_expire() {
        let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..50).map(|k| (k, ())));
        let front = tree.settle_front();
        assert_eq!(tree.range_agg_at_front(0, 49, front), Ok(50));
        assert_eq!(collected_at(&tree, 10, 12, front), Ok(3));
        // A limited read appends behind what the buffer already holds.
        let mut out = vec![(-1, ())];
        assert_eq!(
            tree.collect_range_limited_at_front(20, 49, 2, front, &mut out),
            Ok(())
        );
        assert_eq!(out, vec![(-1, ()), (20, ()), (21, ())]);
        tree.remove(&25);
        assert_eq!(
            tree.range_agg_at_front(0, 49, front),
            Err(FrontMiss::Expired)
        );
        assert_eq!(collected_at(&tree, 0, 49, front), Err(FrontMiss::Expired));
        assert_eq!(
            tree.collect_range_limited_at_front(0, 49, 5, front, &mut out),
            Err(FrontMiss::Expired)
        );
        assert_eq!(out.len(), 3, "a miss leaves the buffer as it was");
        let fresh = tree.settle_front();
        assert_eq!(tree.range_agg_at_front(0, 49, fresh), Ok(49));
    }

    #[test]
    fn a_descriptor_pending_below_the_root_is_busy_not_expired() {
        busy_not_expired::<Balanced>();
        busy_not_expired::<crate::Radix>();
    }

    fn busy_not_expired<S: Shape<i64>>() {
        use crate::descriptor::OwnedOp;
        let tree: WaitFreeTree<i64, (), Size, S> =
            WaitFreeTree::from_entries((0..1000).map(|k| (k, ())));
        let front = tree.settle_front();
        let guard = crossbeam_epoch::pin();
        // ORDERING: Acquire pairs with the Release swap in `from_entries`; quiescent use.
        let root = tree.root_child.load(Ordering::Acquire, &guard);
        // SAFETY: single-threaded test; `root` is the live root under `guard`.
        let inner = unsafe { root.deref() }
            .as_inner()
            .expect("1000 entries build an inner root");
        // Park a read descriptor in the root node's queue, as a concurrent
        // descriptor-path reader would: no update, so the front stands.
        let ts = wft_queue::Timestamp(1);
        let parked = OwnedOp::new(OpKind::Lookup { key: 1 });
        assert!(inner.queue.push_if(ts, parked.op(), &guard));
        assert_eq!(FAST_READ_ATTEMPTS, 3);
        assert_eq!(tree.range_agg_at_front(0, 999, front), Err(FrontMiss::Busy));
        let retries = format!("{}_fast_range_retries", S::METRIC_PREFIX);
        assert_eq!(
            tree.metrics().counter(&retries),
            Some(2),
            "three failed attempts are two retries: the last one is the miss"
        );
        assert_eq!(collected_at(&tree, 0, 999, front), Err(FrontMiss::Busy));
        let mut out = vec![(-1, ())];
        assert_eq!(
            tree.collect_range_limited_at_front(0, 999, 10, front, &mut out),
            Err(FrontMiss::Busy)
        );
        assert_eq!(out, vec![(-1, ())], "a miss leaves the buffer as it was");
        assert!(tree.front_unchanged(front));
        assert!(inner.queue.pop_if(ts, &guard));
        drop(parked);
        assert_eq!(tree.range_agg_at_front(0, 999, front), Ok(1000));
        assert_eq!(collected_at(&tree, 5, 7, front), Ok(3));
    }

    /// A value whose original, and not its clones, counts its drops: the
    /// original of an insert lives in the descriptor alone.
    #[derive(Debug, PartialEq)]
    struct Probe {
        original: bool,
    }

    static PROBE_DROPS: AtomicU64 = AtomicU64::new(0);

    impl Clone for Probe {
        fn clone(&self) -> Self {
            Probe { original: false }
        }
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            if self.original {
                PROBE_DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn a_descriptor_outlives_its_initiator_for_an_earlier_guard() {
        use crate::descriptor::OwnedOp;
        use std::sync::{mpsc, Barrier};

        let drops = || PROBE_DROPS.load(Ordering::Relaxed);
        let flush = || crossbeam_epoch::pin().flush();
        let tree: WaitFreeTree<i64, Probe> = WaitFreeTree::new();
        // The initiator's first step: its descriptor enters the root queue.
        let op = OwnedOp::new(OpKind::Insert {
            key: 7,
            value: Probe { original: true },
        });
        let ts = tree
            .root_queue
            .enqueue(&wft_queue::RootSlot::current(), op.op(), op.guard());
        let (peeked, returned, released) = (Barrier::new(2), Barrier::new(2), Barrier::new(2));
        let (decision_tx, decision_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // A helper peeks the descriptor under its guard, then stalls
                // across the initiator's return.
                let guard = crossbeam_epoch::pin();
                let (head_ts, head) = tree.root_queue.peek(&guard).expect("the op is queued");
                assert_eq!(head_ts, ts);
                peeked.wait();
                returned.wait();
                // SAFETY: peeked from the root queue under `guard`, pinned
                // before the initiator retired the descriptor.
                let op = unsafe { head.deref(&guard) };
                decision_tx.send(op.decision.get().cloned()).unwrap();
                assert_eq!(drops(), 0, "read through a retired descriptor");
                released.wait();
                drop(guard);
                released.wait();
            });
            peeked.wait();
            tree.complete_operation(&op, ts);
            assert!(op.resolved_decision().success);
            drop(op); // The initiator returns and retires its descriptor.
            returned.wait();
            let seen = decision_rx.recv().unwrap().expect("resolved");
            assert!(seen.success && seen.prior_value.is_none());
            // However often this thread flushes, the helper's guard holds
            // the epoch back.
            for _ in 0..16 {
                flush();
            }
            assert_eq!(drops(), 0, "destroyed under the helper's guard");
            released.wait();
            released.wait();
        });
        // Once the guard is gone the descriptor is destroyed, exactly once.
        // The wait is timed, not counted: a test running beside this one may
        // hold a guard at the old epoch for milliseconds, longer than ten
        // thousand flushes take, and no advance can pass it meanwhile.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while drops() == 0 && std::time::Instant::now() < deadline {
            flush();
            std::thread::yield_now();
        }
        for _ in 0..16 {
            flush();
        }
        assert_eq!(drops(), 1);
        assert!(tree.contains(&7));
    }

    #[test]
    fn concurrent_replaces_of_one_key_form_a_total_order() {
        use std::sync::Arc;
        let tree: Arc<WaitFreeTree<i64, i64>> = Arc::new(WaitFreeTree::new());
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        tree.insert_or_replace(7, t * 1000 + i);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(tree.len(), 1);
        // Exactly one writer's final value survives, and it is a value some
        // thread actually wrote last in its loop.
        let survivor = tree.get(&7).expect("key must be present");
        assert!((0..4).any(|t| survivor == t * 1000 + 249));
        tree.check_invariants();
    }
}
