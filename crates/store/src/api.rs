//! [`wft_api`] trait implementations for [`ShardedStore`].
//!
//! Point operations route to the owning shard and inherit the tree's typed
//! outcomes; range reads resolve their [`RangeSpec`] once and split the
//! closed interval at shard boundaries; [`BatchApply`] is the store's own
//! two-phase pipeline (validation, shard grouping, optional cross-shard
//! fan-out) rather than the serial helper single trees use.

use std::sync::atomic::Ordering;

use wft_api::{
    BatchApply, BatchError, OpOutcome, PatchFn, PointMap, RangeKey, RangeRead, RangeSpec,
    SnapshotRead, SnapshotToken, StoreOp, TimestampFront, UpdateOutcome,
};
use wft_seq::{Augmentation, Key, Value};

use crate::store::ShardedStore;

impl<K: Key, V: Value, A: Augmentation<K, V>> PointMap<K, V> for ShardedStore<K, V, A> {
    fn insert(&self, key: K, value: V) -> UpdateOutcome<V> {
        let shard = self.shard_of(&key);
        self.gated_write(shard, move || {
            PointMap::insert(&self.shards[shard], key, value)
        })
    }

    fn replace(&self, key: K, value: V) -> UpdateOutcome<V> {
        UpdateOutcome::Applied {
            prior: self.insert_or_replace(key, value),
        }
    }

    fn remove(&self, key: &K) -> UpdateOutcome<V> {
        let shard = self.shard_of(key);
        self.gated_write(shard, || PointMap::remove(&self.shards[shard], key))
    }

    fn get(&self, key: &K) -> Option<V> {
        ShardedStore::get(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        // Route to the shard tree's presence-only membership test instead of
        // the trait's `get(key).is_some()` default, which would clone the
        // value just to drop it.
        ShardedStore::contains(self, key)
    }

    fn len(&self) -> u64 {
        ShardedStore::len(self)
    }

    // The trait defaults are non-atomic get-then-write compositions; the
    // store owns a commit protocol, so it overrides both with the atomic
    // single-op-transactional-batch path.
    fn patch(&self, key: K, patch: PatchFn<V>) -> Option<V> {
        ShardedStore::patch(self, key, patch)
    }

    fn compare_and_set(&self, key: K, expect: Option<V>, value: V) -> bool {
        ShardedStore::compare_and_set(self, key, expect, value)
    }
}

impl<K, V, A> RangeRead<K, V> for ShardedStore<K, V, A>
where
    K: RangeKey,
    V: Value,
    A: Augmentation<K, V>,
{
    type Agg = A::Agg;

    fn range_agg(&self, range: RangeSpec<K>) -> A::Agg {
        wft_api::agg_over(range, A::identity, |min, max| {
            ShardedStore::range_agg(self, min, max)
        })
    }

    fn count(&self, range: RangeSpec<K>) -> u64 {
        wft_api::agg_over(range, || 0, |min, max| ShardedStore::count(self, min, max))
    }

    fn collect_range(&self, range: RangeSpec<K>) -> Vec<(K, V)> {
        wft_api::collect_over(range, |min, max| {
            ShardedStore::collect_range(self, min, max)
        })
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>> BatchApply<K, V> for ShardedStore<K, V, A> {
    fn apply_batch(&self, batch: Vec<StoreOp<K, V>>) -> Result<Vec<OpOutcome<V>>, BatchError<K>> {
        ShardedStore::apply_batch(self, batch)
    }
}

/// The store's scalar snapshot front is the **sum** of its per-shard
/// timestamp fronts. Per-shard watermarks are monotone, so the sum is
/// monotone and unchanged exactly when *no* shard advanced — which is all
/// a scalar validation sandwich needs. (Settling settles each shard in
/// turn; a shard that advances after its settle but before the sandwich
/// closes fails the final validation, same as in the vector-valued
/// [`crate::GlobalFront`] used by the store's native cross-shard reads,
/// which validates only the shards a range touches.)
///
/// The store deliberately does **not** take the [`wft_api::FrontSnapshot`]
/// marker, so the blanket [`wft_api::SnapshotRead`] does not apply — see
/// the native impl below for why.
impl<K: Key, V: Value, A: Augmentation<K, V>> TimestampFront for ShardedStore<K, V, A> {
    fn settle_front(&self) -> u64 {
        self.settled_front_sum()
    }

    fn front_advertised(&self) -> u64 {
        self.advertised_sum()
    }

    fn front_resolved(&self) -> u64 {
        self.resolved_sum()
    }
}

/// One scalar-sandwich snapshot read: entry validation (the summed front is
/// settled at — and unchanged since — the token, and no batch commit is in
/// flight), the *stitched* cut-free read, exit validation (sums unchanged
/// **and** no commit window opened across the read). Counts a store
/// snapshot retry when a performed read has to be discarded at the exit
/// check (entry rejection reads nothing and counts nothing).
///
/// The commit stamp closes the one hole watermark sums leave open: a
/// quiescent half-applied commit window (committer stalled between two
/// shards) holds the sums still, so the sum sandwich alone could validate
/// a read of a half-applied batch. No-commit-in-flight at entry plus
/// no-commit-started across the read excludes exactly that.
fn sum_sandwich_read<K, V, A, R>(
    store: &ShardedStore<K, V, A>,
    token: &SnapshotToken,
    read: impl FnOnce() -> R,
) -> Option<R>
where
    K: Key,
    V: Value,
    A: Augmentation<K, V>,
{
    let stamp = store.front.commit_stamp()?;
    if store.resolved_sum() != token.front() || store.advertised_sum() != token.front() {
        return None;
    }
    let out = read();
    if store.advertised_sum() == token.front() && store.front.commit_unchanged(stamp) {
        Some(out)
    } else {
        store.front.retries.inc();
        wft_obs::trace::emit(wft_obs::TraceKind::SnapshotRetry, wft_obs::NO_SHARD);
        None
    }
}

/// The store's **native** [`SnapshotRead`], replacing the blanket impl the
/// store pointedly opts out of (no [`wft_api::FrontSnapshot`] marker).
///
/// Under the blanket, every `*_at` read validated the front **twice**: once
/// in the blanket's scalar sandwich, and once more inside the store's own
/// plain reads, which acquire and validate a per-shard [`crate::GlobalFront`]
/// cut with their own retry loop. The native impl runs the scalar sandwich
/// once, around the **stitched** per-shard reads (no cut machinery at all):
/// the summed advertised watermark is monotone and unchanged iff *no* shard
/// advanced, so an unchanged sum across the window proves every shard was
/// constant — the stitched read observed one global state, exactly the
/// blanket's window argument with the store's second validation layer
/// shaved off.
impl<K, V, A> SnapshotRead<K, V> for ShardedStore<K, V, A>
where
    K: RangeKey,
    V: Value,
    A: Augmentation<K, V>,
{
    fn acquire_snapshot(&self) -> SnapshotToken {
        SnapshotToken::new(self.settled_front_sum())
    }

    fn snapshot_valid(&self, token: &SnapshotToken) -> bool {
        self.advertised_sum() == token.front()
    }

    fn range_agg_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<Self::Agg> {
        sum_sandwich_read(self, token, || {
            wft_api::agg_over(range, A::identity, |min, max| {
                self.per_shard_range_agg(min, max)
            })
        })
    }

    fn count_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<u64> {
        let count = |min, max| {
            A::count_of(&self.per_shard_range_agg(min, max))
                .unwrap_or_else(|| self.per_shard_collect_range(min, max).len() as u64)
        };
        sum_sandwich_read(self, token, || wft_api::agg_over(range, || 0, count))
    }

    fn collect_range_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<Vec<(K, V)>> {
        sum_sandwich_read(self, token, || {
            wft_api::collect_over(range, |min, max| self.per_shard_collect_range(min, max))
        })
    }
}

/// Reports the store's front-table cells under the `store_` prefix, the
/// shards' own tree samples folded by name under `store_tree_` (each
/// `store_tree_*` is the sum of the shards' `tree_*`), and the shard
/// topology as gauges. `store_len` is the stitched (cut-free) length — a
/// metrics poll must not spin the cut machinery. `epoch_pooled_blocks` is
/// process-wide, so it is reported once, not summed over the shards.
impl<K: Key, V: Value, A: Augmentation<K, V>> wft_obs::MetricsSource for ShardedStore<K, V, A> {
    fn collect_metrics(&self, out: &mut wft_obs::MetricsSnapshot) {
        out.push_counter("store_snapshot_acquires", self.front.acquires.value());
        out.push_counter("store_snapshot_retries", self.front.retries.value());
        out.push_counter("store_scan_resumes", self.front.scan_resumes.value());
        out.push_counter("store_len_fallbacks", self.front.len_fallbacks.value());
        let commits_finished = self.front.commits_finished.load(Ordering::Relaxed);
        out.push_counter("store_batch_commits", commits_finished);
        out.push_counter("store_commit_gate_waits", self.front.gate_waits.value());
        let mut shards = wft_obs::MetricsSnapshot::new();
        for shard in &self.shards {
            shard.collect_metrics(&mut shards);
        }
        out.push_counter_sums("store", &shards);
        out.push_gauge("store_shards", self.num_shards() as i64);
        out.push_gauge("store_len", self.shard_len_sum() as i64);
        out.push_gauge(
            "epoch_pooled_blocks",
            crossbeam_epoch::pooled_blocks() as i64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_speaks_the_shared_api() {
        let store: ShardedStore<i64, i64> = ShardedStore::from_entries((0..100).map(|k| (k, k)), 4);
        assert!(!PointMap::insert(&store, 5, 0).is_applied());
        assert_eq!(
            PointMap::replace(&store, 5, 50),
            UpdateOutcome::Applied { prior: Some(5) }
        );
        assert_eq!(
            RangeRead::count(&store, RangeSpec::from_bounds(0..100)),
            100
        );
        assert_eq!(RangeRead::count(&store, RangeSpec::inclusive(50, 10)), 0);
        let outcomes =
            BatchApply::apply_batch(&store, vec![StoreOp::InsertOrReplace { key: 5, value: 51 }])
                .unwrap();
        assert_eq!(outcomes, vec![OpOutcome::Replaced(Some(50))]);
    }
}
