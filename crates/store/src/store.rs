//! The range-partitioned store: a router over independent [`WaitFreeTree`]
//! shards.
//!
//! # Partitioning
//!
//! A store with split keys `b_0 < b_1 < … < b_{S-2}` owns `S` shards with
//! key ranges
//!
//! ```text
//! shard 0: (-∞, b_0)    shard i: [b_{i-1}, b_i)    shard S-1: [b_{S-2}, ∞)
//! ```
//!
//! Routing is a binary search over the split keys — **not** a hash: range
//! partitioning keeps each aggregate range query confined to the shards its
//! interval actually overlaps, so `count`/`range_agg` stay `O(Σ log n_i)`
//! over the touched shards and `collect_range` concatenates per-shard
//! results already in global key order. This is the contention-adapting
//! insight (Winblad et al.) applied statically: disjoint keyspace slices
//! mean disjoint root queues, so writers to different slices never contend
//! on one tree root.
//!
//! # Consistency
//!
//! Every *single-shard* operation (every point op, and every aggregate whose
//! range falls inside one shard) inherits the linearizability of the
//! underlying `WaitFreeTree`. A *cross-shard* aggregate is executed **at a
//! global timestamp front** (see [`crate::front`]): one settled per-shard
//! watermark cut is acquired, every touched shard is read at its front with
//! front-validated entry points, and the attempt retries on a fresh cut if
//! any shard advanced mid-read — so `count` / `range_agg` / `collect_range`
//! are linearizable across shards. That loop, and the token reads of
//! [`wft_api::SnapshotRead`], are `wft_core::cut`'s, run over the store's
//! [`ScanCut`](wft_core::ScanCut) impl. `len()` takes the same discipline
//! with a **bounded** number of cut attempts, falling back to the stitched
//! sum of per-shard lengths under sustained contention.
//! Streaming reads take the same discipline shard-by-shard: the store's
//! [`wft_api::RangeScan`] cursor (see [`crate::scan`]) drains a range in
//! chunks at one cut.
//!
//! # Atomic batch commit
//!
//! Batches are all-or-nothing with respect to validation, and any batch
//! carrying more than one operation — or any transactional operation
//! ([`StoreOp::Patch`] / [`StoreOp::CompareAndSet`] / [`StoreOp::Get`]) —
//! commits **atomically**: [`ShardedStore::apply_batch`] applies it inside
//! a per-shard *commit window* (the commit gate on [`crate::front`]) that
//! excludes point operations and cut acquisitions on the touched shards.
//! A validated cut reader therefore observes all of a batch or none of it,
//! never a half-applied prefix across shards — the linearization argument
//! lives in `DESIGN.md` ("Atomic cross-shard commit"). Single-operation
//! *classic* batches bypass the gate entirely (one tree op is already
//! atomic).

use wft_api::apply_op;
use wft_core::{cut, ScanCut, Timestamp, WaitFreeTree};
use wft_seq::{Augmentation, Key, Size, Value};

use crate::front::FrontTable;
use crate::op::{BatchError, OpOutcome, StoreConfig, StoreOp};

/// A range-partitioned, wait-free-sharded concurrent ordered map with
/// batched writes and cross-shard aggregate range queries.
pub struct ShardedStore<K: Key, V: Value = (), A: Augmentation<K, V> = Size> {
    pub(crate) shards: Vec<WaitFreeTree<K, V, A>>,
    /// `shards.len() - 1` strictly increasing split keys; `bounds[i]` is the
    /// first key owned by shard `i + 1`.
    pub(crate) bounds: Vec<K>,
    config: StoreConfig,
    /// Global-front bookkeeping: the commit gate and the store's counters
    /// (see [`crate::front`]).
    pub(crate) front: FrontTable,
}

/// The validated, shard-grouped form of a batch: the output of phase one.
///
/// Holding a plan proves the batch passed validation; executing it is
/// phase two.
pub(crate) struct BatchPlan<K: Key, V: Value> {
    /// One group per shard: `(original batch index, operation)`, in batch
    /// order (the grouping is stable).
    groups: Vec<Vec<(usize, StoreOp<K, V>)>>,
    len: usize,
}

impl<K: Key, V: Value> BatchPlan<K, V> {
    /// Ascending indices of the shards the plan touches (the commit gate's
    /// required acquisition order).
    fn touched_shards(&self) -> Vec<usize> {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .map(|(i, _)| i)
            .collect()
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>> ShardedStore<K, V, A> {
    /// A single-shard store (no split keys): behaves exactly like one
    /// `WaitFreeTree`, which makes it the natural baseline in sweeps.
    pub fn new() -> Self {
        Self::with_boundaries(Vec::new())
    }

    /// A store whose shard ranges are delimited by `bounds` (strictly
    /// increasing split keys; `bounds.len() + 1` shards).
    pub fn with_boundaries(bounds: Vec<K>) -> Self {
        Self::with_boundaries_and_config(bounds, StoreConfig::default())
    }

    /// [`ShardedStore::with_boundaries`] with explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is not strictly increasing.
    pub fn with_boundaries_and_config(bounds: Vec<K>, config: StoreConfig) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "shard boundaries must be strictly increasing"
        );
        let shards: Vec<WaitFreeTree<K, V, A>> = (0..=bounds.len())
            .map(|_| WaitFreeTree::with_config(config.tree))
            .collect();
        let front = FrontTable::new(shards.len());
        ShardedStore {
            shards,
            bounds,
            config,
            front,
        }
    }

    /// Builds a store over `entries` partitioned into (up to) `shards`
    /// balanced shards, with split keys chosen from the observed key
    /// distribution (equi-depth quantiles of the sorted key sample — see
    /// [`split_keys_from_sample`]).
    pub fn from_entries<I: IntoIterator<Item = (K, V)>>(entries: I, shards: usize) -> Self {
        Self::from_entries_with_config(entries, shards, StoreConfig::default())
    }

    /// [`ShardedStore::from_entries`] with explicit configuration.
    pub fn from_entries_with_config<I: IntoIterator<Item = (K, V)>>(
        entries: I,
        shards: usize,
        config: StoreConfig,
    ) -> Self {
        let mut sorted: Vec<(K, V)> = entries.into_iter().collect();
        sorted.sort_by_key(|a| a.0);
        sorted.dedup_by(|a, b| a.0 == b.0);

        let bounds = equi_depth_split_keys(&sorted, shards, |(k, _)| *k);

        // Feed each shard its contiguous slice through the tree's bulk
        // constructor instead of per-key inserts.
        let mut tree_shards = Vec::with_capacity(bounds.len() + 1);
        let mut rest = sorted.as_slice();
        for i in 0..=bounds.len() {
            let split = match bounds.get(i) {
                Some(bound) => rest.partition_point(|(k, _)| k < bound),
                None => rest.len(),
            };
            let (mine, tail) = rest.split_at(split);
            rest = tail;
            tree_shards.push(WaitFreeTree::from_entries_with_config(
                mine.iter().cloned(),
                config.tree,
            ));
        }
        let front = FrontTable::new(tree_shards.len());
        ShardedStore {
            shards: tree_shards,
            bounds,
            config,
            front,
        }
    }

    // -- routing ----------------------------------------------------------

    /// The index of the shard owning `key`.
    pub fn shard_of(&self, key: &K) -> usize {
        self.bounds.partition_point(|b| b <= key)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The split keys delimiting the shard ranges.
    pub fn boundaries(&self) -> &[K] {
        &self.bounds
    }

    // -- point operations -------------------------------------------------

    /// Inserts `key → value`; returns `true` if the key was absent.
    pub fn insert(&self, key: K, value: V) -> bool {
        let shard = self.shard_of(&key);
        self.front
            .gated_write(shard, move || self.shards[shard].insert(key, value))
    }

    /// Inserts `key → value`, returning the value it replaced, if any.
    ///
    /// Atomic: delegates to the owning shard's
    /// [`WaitFreeTree::insert_or_replace`], which executes as a single
    /// `Replace` descriptor — there is no window in which a concurrent
    /// reader can observe the key absent.
    pub fn insert_or_replace(&self, key: K, value: V) -> Option<V> {
        let shard = self.shard_of(&key);
        self.front.gated_write(shard, move || {
            self.shards[shard].insert_or_replace(key, value)
        })
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&self, key: &K) -> bool {
        let shard = self.shard_of(key);
        self.front
            .gated_write(shard, || self.shards[shard].remove(key))
    }

    /// Removes `key` and returns its value, if any.
    pub fn remove_entry(&self, key: &K) -> Option<V> {
        let shard = self.shard_of(key);
        self.front
            .gated_write(shard, || self.shards[shard].remove_entry(key))
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        let shard = self.shard_of(key);
        self.front
            .sandwiched(shard, shard, || self.shards[shard].contains(key))
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<V> {
        let shard = self.shard_of(key);
        self.front
            .sandwiched(shard, shard, || self.shards[shard].get(key))
    }

    /// Atomic read-modify-write: stores `patch(current)` at `key` (`None`
    /// removes the key) and returns the value after the patch. Routed
    /// through the gated batch commit as a one-op transactional batch, so
    /// no concurrent point writer can slip between the read and the write
    /// (unlike the non-atomic [`wft_api::PointMap::patch`] default).
    pub fn patch(&self, key: K, patch: wft_api::PatchFn<V>) -> Option<V> {
        let outcomes = self
            .apply_batch(vec![StoreOp::Patch { key, patch }])
            .expect("a single-op batch always validates");
        match outcomes.into_iter().next() {
            Some(OpOutcome::Patched(after)) => after,
            other => unreachable!("a Patch op reports Patched, got {other:?}"),
        }
    }

    /// Atomically stores `value` at `key` iff the current value equals
    /// `expect` (`None` = "the key is absent"), reporting whether it
    /// applied. Routed through the gated batch commit like
    /// [`ShardedStore::patch`].
    pub fn compare_and_set(&self, key: K, expect: Option<V>, value: V) -> bool {
        let outcomes = self
            .apply_batch(vec![StoreOp::CompareAndSet { key, expect, value }])
            .expect("a single-op batch always validates");
        match outcomes.into_iter().next() {
            Some(OpOutcome::CompareSet(applied)) => applied,
            other => unreachable!("a CompareAndSet op reports CompareSet, got {other:?}"),
        }
    }

    /// Total number of keys, read **at one global front** when the front
    /// holds still long enough — linearizable in that case.
    ///
    /// Every shard's front is settled, every shard length is read, and the
    /// sum is returned only if no shard's advertised watermark moved in
    /// between (per-shard lengths are maintained at update linearization
    /// points, so an unchanged front pins them); otherwise the read retries
    /// on a fresh cut. The retry loop is **bounded**: under sustained
    /// multi-shard write traffic a validated cut may never materialise
    /// (each attempt is lock-free, not wait-free), so after
    /// [`LEN_CUT_ATTEMPTS`](Self::LEN_CUT_ATTEMPTS) expired cuts the read
    /// falls back to the sum of the per-shard lengths — each read
    /// atomically, just not at one linearization point — and records the
    /// degradation in `store_len_fallbacks`. Callers polling a length on a
    /// hot path (metrics, balance probes) should sum
    /// [`ShardedStore::shard_lens`] and skip the cut machinery entirely.
    /// Single-shard stores skip the front (one tree's `len` is already a
    /// single linearization point).
    pub fn len(&self) -> u64 {
        if self.shards.len() == 1 {
            return self.shards[0].len();
        }
        for _ in 0..Self::LEN_CUT_ATTEMPTS {
            let fronts = ScanCut::settle(self, 0, self.shards.len() - 1);
            let sum: u64 = self.shards.iter().map(WaitFreeTree::len).sum();
            match self
                .shards
                .iter()
                .zip(&fronts)
                .position(|(shard, &front)| !shard.front_unchanged(Timestamp(front)))
            {
                None => return sum,
                Some(advanced) => self.note_snapshot_retry(advanced),
            }
            std::hint::spin_loop();
        }
        self.front.len_fallbacks.inc();
        wft_obs::trace::emit(wft_obs::TraceKind::LenFallback, wft_obs::NO_SHARD);
        self.shard_len_sum()
    }

    /// How many settled cuts [`ShardedStore::len`] tries to validate
    /// before giving up on a single linearization point and answering with
    /// the sum of the per-shard lengths — bounds `len()`'s completion time
    /// under write traffic that expires every cut.
    pub const LEN_CUT_ATTEMPTS: usize = 32;

    /// Sum of the per-shard lengths with no global cut: each shard length
    /// is read atomically but the sum is not a single linearization point.
    pub(crate) fn shard_len_sum(&self) -> u64 {
        self.shards.iter().map(WaitFreeTree::len).sum()
    }

    /// `true` when every shard is empty, read through
    /// [`ShardedStore::len`] — so it inherits `len()`'s cut machinery: up
    /// to [`LEN_CUT_ATTEMPTS`](Self::LEN_CUT_ATTEMPTS) settle/validate
    /// rounds under multi-shard write traffic before the stitched
    /// fallback.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // -- cross-shard aggregate queries (global timestamp front) -----------

    /// Aggregate of all entries with keys in `[min, max]`, combined across
    /// the overlapped shards **at one global front** — linearizable.
    ///
    /// The query interval is split at the shard boundaries: shard `i` in
    /// the overlap is asked for `[max(min, b_{i-1}), max]`, which its own
    /// augmented root answers in `O(log n_i)`. Shards outside
    /// `[shard_of(min), shard_of(max)]` are never touched. A range inside
    /// one shard is answered directly (the shard's own read is already
    /// linearizable); a multi-shard range is [`wft_core::cut::range_agg`]:
    /// it acquires a settled per-shard front, reads every touched shard at
    /// it, and retries on a fresh front if any shard advanced mid-read (see
    /// [`crate::front`] for the argument and the progress guarantee;
    /// retries are counted in the `store_snapshot_retries` metric).
    pub fn range_agg(&self, min: K, max: K) -> A::Agg {
        if max < min {
            return A::identity();
        }
        let first = self.shard_of(&min);
        if first == self.shard_of(&max) {
            // One shard's read is linearizable on its own, but it must not
            // land inside a commit window (a multi-op batch group on this
            // shard applies op by op) — the epoch sandwich excludes that.
            return self
                .front
                .sandwiched(first, first, || self.shards[first].range_agg(min, max));
        }
        cut::range_agg(self, min, max)
    }

    /// All entries with keys in `[min, max]`, in ascending key order, read
    /// **at one global front** — linearizable.
    ///
    /// Range partitioning makes the global order free: per-shard results
    /// are already sorted and shard ranges are disjoint and ascending. The
    /// front discipline is the same as [`ShardedStore::range_agg`].
    pub fn collect_range(&self, min: K, max: K) -> Vec<(K, V)> {
        if max < min {
            return Vec::new();
        }
        let first = self.shard_of(&min);
        if first == self.shard_of(&max) {
            // Epoch-sandwiched for the same reason as `range_agg`'s
            // single-shard fast path.
            return self
                .front
                .sandwiched(first, first, || self.shards[first].collect_range(min, max));
        }
        cut::collect_range(self, min, max)
    }

    /// Number of keys in `[min, max]`, the paper's headline aggregate,
    /// answered per overlapped shard at one global front and summed —
    /// linearizable (see [`ShardedStore::range_agg`]). Read off the
    /// aggregate whenever the augmentation tracks the entry count
    /// ([`Augmentation::counts`]: `Size` alone or inside a `Pair`);
    /// otherwise the range is collected and counted, and no aggregate is
    /// read.
    pub fn count(&self, min: K, max: K) -> u64 {
        A::counts()
            .then(|| A::count_of(&self.range_agg(min, max)))
            .flatten()
            .unwrap_or_else(|| self.collect_range(min, max).len() as u64)
    }

    /// Records one discarded cross-shard read attempt: bumps
    /// `store_snapshot_retries` and traces **which shard** expired
    /// the cut ([`wft_obs::TraceKind::SnapshotRetry`]) — the per-shard
    /// attribution the scalar counter cannot carry.
    pub(crate) fn note_snapshot_retry(&self, shard: usize) {
        self.front.retries.inc();
        wft_obs::trace::emit(wft_obs::TraceKind::SnapshotRetry, shard_trace_arg(shard));
    }

    // -- two-phase batches ------------------------------------------------

    /// Phase one: validates `batch` and groups it by destination shard
    /// **without mutating any shard**.
    ///
    /// Validation rejects batches that exceed
    /// [`StoreConfig::max_batch_ops`] and batches addressing any key twice
    /// (per-shard groups execute concurrently, so a batch-internal order
    /// between same-key operations cannot be guaranteed).
    pub(crate) fn plan_batch(
        &self,
        batch: Vec<StoreOp<K, V>>,
    ) -> Result<BatchPlan<K, V>, BatchError<K>> {
        wft_api::validate_batch(&batch, self.config.max_batch_ops)?;
        let mut groups: Vec<Vec<(usize, StoreOp<K, V>)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        let len = batch.len();
        for (index, op) in batch.into_iter().enumerate() {
            let shard = self.shard_of(op.key());
            groups[shard].push((index, op));
        }
        Ok(BatchPlan { groups, len })
    }

    /// Phase two: executes a validated plan op by op on the calling thread,
    /// one shard's group after the other. The caller holds a commit window
    /// over every touched shard, so ops apply raw.
    ///
    /// Returns one [`OpOutcome`] per submitted operation, in submission
    /// order. Transactional operations resolve against the state they find
    /// (same-shard groups run in batch order, so a `Get` observes earlier
    /// same-batch operations on its key — same key means same shard).
    fn run_plan(&self, plan: BatchPlan<K, V>) -> Vec<OpOutcome<V>> {
        let mut results: Vec<Option<OpOutcome<V>>> = (0..plan.len).map(|_| None).collect();
        for (shard_idx, group) in plan.groups.into_iter().enumerate() {
            for (index, op) in group {
                results[index] = Some(apply_op(&self.shards[shard_idx], op));
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every batch index receives an outcome"))
            .collect()
    }

    /// Executes a plan inside one atomic commit window: closes the commit
    /// gate over every touched shard (ascending order, waiting out
    /// in-flight point writers), applies the per-shard groups, and releases
    /// the gate — at which point the whole batch becomes visible to cut
    /// readers at once. The window reopens even if an op panics, so
    /// waiters never deadlock on a poisoned commit.
    fn commit_plan(&self, plan: BatchPlan<K, V>) -> Vec<OpOutcome<V>> {
        let touched = plan.touched_shards();
        if touched.is_empty() {
            return Vec::new();
        }
        let shards_touched = touched.len();
        let window = self.front.commit(touched);
        let outcomes = self.run_plan(plan);
        drop(window);
        self.front.batch_commits.inc();
        wft_obs::trace::emit(
            wft_obs::TraceKind::BatchCommit,
            shard_trace_arg(shards_touched),
        );
        outcomes
    }

    /// Validates and executes `batch`: phase one validates the whole batch
    /// and groups it by shard, phase two applies the groups. On `Err` no
    /// shard was mutated.
    ///
    /// A batch that needs atomicity (more than one operation, or any
    /// `Patch` / `CompareAndSet` / `Get`) commits through the commit
    /// window — concurrent cut readers see all of it or none of it. A
    /// single classic operation is already atomic as one tree op: it runs
    /// as the point write it is, through the point-write gate, with no
    /// plan and no commit traffic. WAL replay, which applies one record
    /// at a time, takes that path for every one-op record.
    pub fn apply_batch(
        &self,
        mut batch: Vec<StoreOp<K, V>>,
    ) -> Result<Vec<OpOutcome<V>>, BatchError<K>> {
        if batch.len() == 1 && batch[0].is_physical() {
            wft_api::validate_batch(&batch, self.config.max_batch_ops)?;
            let op = batch.pop().expect("a one-op batch");
            let shard = self.shard_of(op.key());
            let outcome = self
                .front
                .gated_write(shard, move || apply_op(&self.shards[shard], op));
            return Ok(vec![outcome]);
        }
        let plan = self.plan_batch(batch)?;
        Ok(self.commit_plan(plan))
    }

    // -- introspection ----------------------------------------------------

    /// Per-shard key counts, for balance inspection.
    pub fn shard_lens(&self) -> Vec<u64> {
        self.shards.iter().map(WaitFreeTree::len).collect()
    }

    /// All entries in ascending key order. Callers must guarantee
    /// quiescence (no concurrent updates), like the underlying tree method.
    pub fn entries_quiescent(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.entries_quiescent());
        }
        out
    }

    /// Panics unless every shard's internal invariants hold **and** every
    /// key lives in the shard that owns its range.
    pub fn check_invariants(&self) {
        for (i, shard) in self.shards.iter().enumerate() {
            shard.check_invariants();
            for (key, _) in shard.entries_quiescent() {
                assert_eq!(
                    self.shard_of(&key),
                    i,
                    "key {key:?} stored in shard {i} but routed to {}",
                    self.shard_of(&key)
                );
            }
        }
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>> Default for ShardedStore<K, V, A> {
    fn default() -> Self {
        Self::new()
    }
}

/// Squeezes a shard index into a trace event's 16-bit argument.
/// [`wft_obs::NO_SHARD`] means "no shard attributed", so indices at or past
/// it (never seen in practice — stores have a handful of shards) saturate
/// one below.
pub(crate) fn shard_trace_arg(shard: usize) -> u16 {
    u16::try_from(shard)
        .unwrap_or(wft_obs::NO_SHARD - 1)
        .min(wft_obs::NO_SHARD - 1)
}

/// Picks up to `shards - 1` strictly increasing split keys from a sample of
/// the key distribution: the equi-depth quantiles of the sorted, deduplicated
/// sample. With fewer distinct keys than shards the result simply yields
/// fewer (possibly zero) splits — a store never has more shards than it can
/// fill meaningfully.
pub fn split_keys_from_sample<K: Key>(sample: &mut Vec<K>, shards: usize) -> Vec<K> {
    sample.sort_unstable();
    sample.dedup();
    equi_depth_split_keys(sample, shards, |k| *k)
}

/// [`split_keys_from_sample`] over an already sorted, deduplicated slice
/// (how `from_entries` calls it, sparing the second sort).
fn equi_depth_split_keys<T, K: Key>(
    sorted_unique: &[T],
    shards: usize,
    key_of: impl Fn(&T) -> K,
) -> Vec<K> {
    assert!(shards > 0, "a store needs at least one shard");
    if shards == 1 || sorted_unique.len() < shards {
        return Vec::new();
    }
    let mut bounds = Vec::with_capacity(shards - 1);
    for i in 1..shards {
        // Lower boundary of the i-th equi-depth bucket.
        let idx = i * sorted_unique.len() / shards;
        bounds.push(key_of(&sorted_unique[idx]));
    }
    bounds.dedup();
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BatchError, OpOutcome, StoreConfig, StoreOp};
    use std::thread;
    use wft_api::{PointMap, RangeSpec, SnapshotRead, SnapshotToken};
    use wft_obs::MetricsSource;
    use wft_seq::{Pair, Sum};

    fn store_with_shards(shards: usize, keys: i64) -> ShardedStore<i64> {
        ShardedStore::from_entries((0..keys).map(|k| (k, ())), shards)
    }

    /// Every shard's advertised watermark, in shard order.
    fn advertised(store: &ShardedStore<i64>) -> Vec<u64> {
        store
            .shards
            .iter()
            .map(|s| s.advertised_ts().get())
            .collect()
    }

    #[test]
    fn routing_respects_boundaries() {
        let store: ShardedStore<i64> = ShardedStore::with_boundaries(vec![0, 100]);
        assert_eq!(store.num_shards(), 3);
        assert_eq!(store.shard_of(&-5), 0);
        assert_eq!(store.shard_of(&0), 1);
        assert_eq!(store.shard_of(&99), 1);
        assert_eq!(store.shard_of(&100), 2);
        assert_eq!(store.shard_of(&i64::MAX), 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_boundaries_are_rejected() {
        let _: ShardedStore<i64> = ShardedStore::with_boundaries(vec![10, 10]);
    }

    #[test]
    fn from_entries_balances_shards() {
        let store = store_with_shards(4, 1000);
        assert_eq!(store.num_shards(), 4);
        assert_eq!(store.len(), 1000);
        let lens = store.shard_lens();
        assert!(
            lens.iter().all(|&l| l == 250),
            "uniform keys must split evenly, got {lens:?}"
        );
        store.check_invariants();
    }

    #[test]
    fn more_shards_than_keys_degrades_gracefully() {
        let store = ShardedStore::<i64>::from_entries((0..3).map(|k| (k, ())), 8);
        assert!(store.num_shards() <= 4);
        assert_eq!(store.len(), 3);
        store.check_invariants();
    }

    #[test]
    fn point_ops_route_and_report() {
        let store = store_with_shards(3, 300);
        assert!(!store.insert(5, ()));
        assert!(store.insert(1000, ()));
        assert!(store.contains(&1000));
        assert!(store.remove(&1000));
        assert!(!store.remove(&1000));
        assert_eq!(store.len(), 300);
    }

    #[test]
    fn cross_shard_count_splits_at_boundaries() {
        let store = store_with_shards(4, 1000);
        assert_eq!(store.count(0, 999), 1000);
        assert_eq!(store.count(100, 899), 800);
        assert_eq!(store.count(250, 250), 1);
        assert_eq!(store.count(600, 599), 0, "inverted range is empty");
        assert_eq!(store.count(-100, -1), 0);
    }

    #[test]
    fn cross_shard_collect_is_globally_sorted() {
        let store = store_with_shards(5, 500);
        let collected = store.collect_range(123, 456);
        let keys: Vec<i64> = collected.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (123..=456).collect::<Vec<_>>());
    }

    #[test]
    fn range_agg_combines_shard_aggregates() {
        let store: ShardedStore<i64, i64, Pair<Size, Sum>> =
            ShardedStore::from_entries((0..100).map(|k| (k, k)), 4);
        let (count, sum) = store.range_agg(10, 19);
        assert_eq!(count, 10);
        assert_eq!(sum, (10..=19).sum::<i64>() as i128);
    }

    #[test]
    fn batch_is_rejected_before_any_mutation() {
        let store = store_with_shards(4, 100);
        let batch = vec![
            StoreOp::Insert {
                key: 500,
                value: (),
            },
            StoreOp::Remove { key: 20 },
            StoreOp::Insert {
                key: 500,
                value: (),
            },
        ];
        let err = store.apply_batch(batch).unwrap_err();
        assert_eq!(err, BatchError::DuplicateKey { key: 500 });
        // Phase one failed, so neither the insert nor the remove happened.
        assert!(!store.contains(&500));
        assert!(store.contains(&20));
        assert_eq!(store.len(), 100);
    }

    #[test]
    fn oversized_batch_is_rejected() {
        let config = StoreConfig {
            max_batch_ops: 2,
            ..StoreConfig::default()
        };
        let store: ShardedStore<i64> = ShardedStore::with_boundaries_and_config(vec![50], config);
        let batch = (0..3)
            .map(|k| StoreOp::Insert { key: k, value: () })
            .collect();
        assert_eq!(
            store.apply_batch(batch).unwrap_err(),
            BatchError::TooLarge { len: 3, max: 2 }
        );
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn batch_outcomes_align_with_submission_order() {
        let store = store_with_shards(3, 10);
        let outcomes = store
            .apply_batch(vec![
                StoreOp::Insert {
                    key: 100,
                    value: (),
                },
                StoreOp::Remove { key: 3 },
                StoreOp::Insert { key: 4, value: () },
                StoreOp::RemoveEntry { key: 999 },
            ])
            .unwrap();
        assert_eq!(
            outcomes,
            vec![
                OpOutcome::Inserted(true),
                OpOutcome::Removed(true),
                OpOutcome::Inserted(false),
                OpOutcome::RemovedEntry(None),
            ]
        );
    }

    #[test]
    fn large_batches_commit_across_shards() {
        let store: ShardedStore<i64, i64> = ShardedStore::with_boundaries(vec![100, 200, 300]);
        let batch: Vec<StoreOp<i64, i64>> = (0..400)
            .map(|k| StoreOp::Insert {
                key: k,
                value: k * 2,
            })
            .collect();
        let plan = store.plan_batch(batch).unwrap();
        assert_eq!(plan.touched_shards(), vec![0, 1, 2, 3]);
        let outcomes = store.commit_plan(plan);
        assert!(outcomes.iter().all(|o| *o == OpOutcome::Inserted(true)));
        assert_eq!(store.len(), 400);
        assert_eq!(store.get(&123), Some(246));
        store.check_invariants();
    }

    #[test]
    fn insert_or_replace_reports_previous_value() {
        let store: ShardedStore<i64, i64> = ShardedStore::with_boundaries(vec![10]);
        assert_eq!(store.insert_or_replace(5, 50), None);
        assert_eq!(store.insert_or_replace(5, 51), Some(50));
        assert_eq!(store.get(&5), Some(51));
        let outcomes = store
            .apply_batch(vec![StoreOp::InsertOrReplace { key: 5, value: 52 }])
            .unwrap();
        assert_eq!(outcomes, vec![OpOutcome::Replaced(Some(51))]);
        assert_eq!(store.get(&5), Some(52));
    }

    /// A map of the keys `0..1000`, read through the token protocol until
    /// an insert of 5000 expires the token it returns.
    fn validates_and_expires<M>(map: &M) -> SnapshotToken
    where
        M: SnapshotRead<i64, (), Agg = u64> + PointMap<i64, ()>,
    {
        let span = |min, max| RangeSpec::inclusive(min, max);
        let token = map.acquire_snapshot();
        assert!(map.snapshot_valid(&token));
        assert_eq!(map.range_agg_at(&token, span(0, 999)), Some(1000));
        assert_eq!(
            map.collect_range_at(&token, span(100, 899))
                .map(|v| v.len()),
            Some(800)
        );
        // Inverted ranges answer the identity without touching shards.
        assert_eq!(map.range_agg_at(&token, span(9, 3)), Some(0));
        assert_eq!(map.collect_range_at(&token, span(9, 3)), Some(vec![]));
        // An update to a touched shard expires the token …
        assert!(map.insert(5000, ()).is_applied());
        assert!(!map.snapshot_valid(&token));
        assert_eq!(map.range_agg_at(&token, span(0, 5000)), None);
        token
    }

    #[test]
    fn snapshot_token_validates_and_expires() {
        let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..1000).map(|k| (k, ())));
        validates_and_expires(&tree);
        let store = store_with_shards(4, 1000);
        let token = validates_and_expires(&store);
        // … and so does one to a shard the range avoids: the scalar token
        // names the whole cut.
        let advanced = store.shard_of(&5000);
        assert_ne!(store.shard_of(&0), advanced);
        let hi = store.boundaries()[0] - 1;
        assert_eq!(
            store.range_agg_at(&token, RangeSpec::inclusive(0, hi)),
            None
        );
    }

    #[test]
    fn a_cross_shard_count_over_sum_settles_one_cut() {
        let store: ShardedStore<i64, i64, Sum> =
            ShardedStore::from_entries((0..400).map(|k| (k, k)), 4);
        let acquires = || store.metrics().counter("store_snapshot_acquires").unwrap();
        // `Sum` does not count, so `count` collects and reads no aggregate.
        assert_eq!(store.count(0, 399), 400);
        assert_eq!(acquires(), 1);
        let token = store.acquire_snapshot();
        assert_eq!(
            store.count_at(&token, RangeSpec::inclusive(50, 349)),
            Some(300)
        );
        assert_eq!(acquires(), 2);
    }

    #[test]
    fn settled_fronts_and_counters_advance() {
        let store = store_with_shards(4, 400);
        let acquires = || store.metrics().counter("store_snapshot_acquires").unwrap();
        assert_eq!(acquires(), 0);
        let token = store.acquire_snapshot();
        assert_eq!(token.front(), 0, "prefill does not occupy timestamps");
        assert_eq!(acquires(), 1);
        // A failed insert or remove is answered at a presence load and
        // occupies no timestamp: the token stays valid and still answers.
        assert!(!store.insert(0, ()));
        assert!(!store.remove(&1_000));
        assert!(store.snapshot_valid(&token));
        assert_eq!(
            store.range_agg_at(&token, RangeSpec::inclusive(0, 399)),
            Some(400)
        );
        assert_eq!(store.count(0, 399), 400); // cross-shard: acquires a front
        assert_eq!(acquires(), 2);
        assert_eq!(store.acquire_snapshot(), token, "nothing linearized");
        // A successful update still expires the token and advances the front.
        assert!(store.insert(400, ()));
        assert!(!store.snapshot_valid(&token));
        assert_eq!(store.count(0, 400), 401);
        let last = store.shard_of(&400);
        let after = store.acquire_snapshot();
        let fronts = advertised(&store);
        assert!(
            fronts[last] >= 1,
            "shard {last}'s front advanced: {fronts:?}"
        );
        assert_eq!(after.front(), fronts.iter().sum::<u64>());
        assert_eq!(acquires(), 5);
        assert_eq!(store.metrics().counter("store_snapshot_retries"), Some(0));

        // Under `ReadPath::Descriptor` a failed insert still linearizes on
        // shard 0 through its descriptor, and its front advances.
        let config = StoreConfig {
            tree: wft_core::TreeConfig {
                read_path: wft_core::ReadPath::Descriptor,
                ..wft_core::TreeConfig::default()
            },
            ..StoreConfig::default()
        };
        let store: ShardedStore<i64> =
            ShardedStore::from_entries_with_config((0..400).map(|k| (k, ())), 4, config);
        let before = store.acquire_snapshot();
        store.insert(0, ()); // failed insert still linearizes on shard 0
        assert!(!store.snapshot_valid(&before));
        let after = store.acquire_snapshot();
        let fronts = advertised(&store);
        assert!(
            fronts[0] >= 1,
            "shard 0's settled front advanced: {fronts:?}"
        );
        assert!(after.front() > before.front());
    }

    #[test]
    fn single_shard_ranges_bypass_the_front() {
        let store = store_with_shards(4, 400);
        let hi = store.boundaries()[0] - 1;
        assert_eq!(store.count(0, hi), hi as u64 + 1);
        assert_eq!(
            store.metrics().counter("store_snapshot_acquires"),
            Some(0),
            "a single-shard range needs no global front"
        );
    }

    #[test]
    fn single_classic_ops_bypass_the_gate_and_batches_take_it() {
        let store = store_with_shards(4, 100);
        let commits = || store.metrics().counter("store_batch_commits").unwrap();
        assert_eq!(commits(), 0);
        store
            .apply_batch(vec![StoreOp::Insert {
                key: 500,
                value: (),
            }])
            .unwrap();
        assert_eq!(
            commits(),
            0,
            "a lone classic op is already atomic and skips the commit gate"
        );
        store
            .apply_batch(vec![
                StoreOp::Insert {
                    key: 501,
                    value: (),
                },
                StoreOp::Remove { key: 3 },
            ])
            .unwrap();
        assert_eq!(commits(), 1);
        // A lone transactional op also commits (its read-decide-write span
        // needs the writer drain).
        store.apply_batch(vec![StoreOp::Get { key: 501 }]).unwrap();
        assert_eq!(commits(), 2);
    }

    #[test]
    fn transactional_batch_ops_resolve_against_batch_state() {
        let store: ShardedStore<i64, i64> = ShardedStore::with_boundaries(vec![100]);
        store.insert(5, 50);
        fn double_or_one(current: Option<i64>) -> Option<i64> {
            Some(current.map_or(1, |v| v * 2))
        }
        let outcomes = store
            .apply_batch(vec![
                StoreOp::Get { key: 5 },
                StoreOp::Patch {
                    key: 5,
                    patch: double_or_one,
                },
                // Same key, later in the batch: observes the patch (same
                // key means same shard, and same-shard groups run in
                // batch order).
                StoreOp::Get { key: 5 },
                StoreOp::CompareAndSet {
                    key: 200,
                    expect: None,
                    value: 7,
                },
                StoreOp::CompareAndSet {
                    key: 201,
                    expect: Some(9),
                    value: 8,
                },
            ])
            .unwrap();
        assert_eq!(
            outcomes,
            vec![
                OpOutcome::Got(Some(50)),
                OpOutcome::Patched(Some(100)),
                OpOutcome::Got(Some(100)),
                OpOutcome::CompareSet(true),
                OpOutcome::CompareSet(false),
            ]
        );
        assert_eq!(store.get(&5), Some(100));
        assert_eq!(store.get(&200), Some(7));
        assert_eq!(store.get(&201), None);
    }

    #[test]
    fn point_patch_and_compare_and_set_are_routed_through_the_gate() {
        let store: ShardedStore<i64, i64> = ShardedStore::with_boundaries(vec![10]);
        fn bump(current: Option<i64>) -> Option<i64> {
            Some(current.unwrap_or(0) + 1)
        }
        fn clear(_: Option<i64>) -> Option<i64> {
            None
        }
        assert_eq!(store.patch(5, bump), Some(1));
        assert_eq!(store.patch(5, bump), Some(2));
        assert!(store.compare_and_set(5, Some(2), 9));
        assert!(!store.compare_and_set(5, Some(2), 10));
        assert_eq!(store.get(&5), Some(9));
        assert_eq!(store.patch(5, clear), None);
        assert!(!store.contains(&5));
        assert!(store.metrics().counter("store_batch_commits") >= Some(5));
    }

    #[test]
    fn gated_batches_are_atomic_under_a_concurrent_cut_reader() {
        // Two keys on two shards, always rewritten together to the same
        // round value by one atomic batch per round: a validated cut read
        // must never see the keys disagree.
        let store: ShardedStore<i64, i64> = ShardedStore::with_boundaries(vec![100]);
        store
            .apply_batch(vec![
                StoreOp::InsertOrReplace { key: 10, value: 0 },
                StoreOp::InsertOrReplace { key: 110, value: 0 },
            ])
            .unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        thread::scope(|scope| {
            scope.spawn(|| {
                for round in 1..=2000i64 {
                    store
                        .apply_batch(vec![
                            StoreOp::InsertOrReplace {
                                key: 10,
                                value: round,
                            },
                            StoreOp::InsertOrReplace {
                                key: 110,
                                value: round,
                            },
                        ])
                        .unwrap();
                }
                stop.store(true, std::sync::atomic::Ordering::Release);
            });
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let entries = store.collect_range(0, 200);
                assert_eq!(entries.len(), 2, "both keys always present");
                assert_eq!(
                    entries[0].1, entries[1].1,
                    "a cut read observed a half-applied batch: {entries:?}"
                );
            }
        });
        assert!(store.metrics().counter("store_batch_commits") >= Some(2001));
    }

    #[test]
    fn split_keys_pick_equi_depth_quantiles() {
        let mut sample: Vec<i64> = (0..100).collect();
        assert_eq!(split_keys_from_sample(&mut sample, 4), vec![25, 50, 75]);
        let mut skewed: Vec<i64> = (0..90).map(|_| 7).chain(90..100).collect();
        let bounds = split_keys_from_sample(&mut skewed, 4);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let mut tiny: Vec<i64> = vec![1, 2];
        assert_eq!(split_keys_from_sample(&mut tiny, 4), Vec::<i64>::new());
    }
}
