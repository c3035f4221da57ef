//! [`wft_api`] trait implementations for [`ShardedStore`].
//!
//! Point operations route to the owning shard and inherit the tree's typed
//! outcomes; range reads resolve their [`RangeSpec`] once and split the
//! closed interval at shard boundaries; [`BatchApply`] is the store's own
//! two-phase pipeline (validation and shard grouping, then one atomic
//! commit window over the touched shards) rather than the serial helper
//! single trees use.

use wft_api::{
    BatchApply, BatchError, OpOutcome, PatchFn, PointMap, RangeKey, RangeRead, RangeSpec,
    SnapshotRead, SnapshotToken, StoreOp, UpdateOutcome,
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

/// One read at the cut a scalar token sums (see [`crate::front`], "Scalar
/// tokens"): `None` without reading when the shards' advertised watermarks
/// no longer sum to the token, and `None` plus one counted store snapshot
/// retry when a shard advanced past the cut during the read.
fn read_at_token<K, V, A, R>(
    store: &ShardedStore<K, V, A>,
    token: &SnapshotToken,
    read: impl FnOnce(&[u64]) -> Result<R, usize>,
) -> Option<R>
where
    K: Key,
    V: Value,
    A: Augmentation<K, V>,
{
    let cut = store.advertised_fronts();
    if cut.iter().sum::<u64>() != token.front() {
        return None;
    }
    read(&cut)
        .map_err(|advanced| store.note_snapshot_retry(advanced))
        .ok()
}

/// The store's [`SnapshotRead`]: its plain cross-shard reads already
/// validate a per-shard cut, and a token read is one more read at such a
/// cut. The token is the sum of an epoch-stable cut over every shard;
/// a `*_at` read recovers that cut from the current advertised watermarks
/// and reads the touched shards at it with the same front-validated
/// per-shard reads the plain cross-shard reads use.
impl<K, V, A> SnapshotRead<K, V> for ShardedStore<K, V, A>
where
    K: RangeKey,
    V: Value,
    A: Augmentation<K, V>,
{
    fn acquire_snapshot(&self) -> SnapshotToken {
        SnapshotToken::new(self.settle_all_stable().iter().sum())
    }

    fn snapshot_valid(&self, token: &SnapshotToken) -> bool {
        self.advertised_fronts().iter().sum::<u64>() == token.front()
    }

    fn range_agg_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<Self::Agg> {
        read_at_token(self, token, |cut| {
            wft_api::agg_over(
                range,
                || Ok(A::identity()),
                |min, max| self.range_agg_at_cut(cut, min, max),
            )
        })
    }

    fn count_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<u64> {
        read_at_token(self, token, |cut| {
            wft_api::agg_over(
                range,
                || Ok(0),
                |min, max| match A::count_of(&self.range_agg_at_cut(cut, min, max)?) {
                    Some(count) => Ok(count),
                    None => Ok(self.collect_range_at_cut(cut, min, max)?.len() as u64),
                },
            )
        })
    }

    fn collect_range_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<Vec<(K, V)>> {
        read_at_token(self, token, |cut| {
            wft_api::agg_over(
                range,
                || Ok(Vec::new()),
                |min, max| self.collect_range_at_cut(cut, min, max),
            )
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
        out.push_counter("store_batch_commits", self.front.batch_commits.value());
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

    #[test]
    fn a_scalar_token_reads_the_cut_it_sums() {
        use wft_obs::MetricsSource;
        // Shards [0, 100), [100, 200), [200, 300), [300, ∞).
        let store: ShardedStore<i64> = ShardedStore::from_entries((0..400).map(|k| (k, ())), 4);
        let low = RangeSpec::inclusive(0, 250);
        let token = store.acquire_snapshot();
        assert_eq!(store.count_at(&token, low), Some(251));

        // A failed insert or remove takes no timestamp: the token survives.
        assert!(!PointMap::insert(&store, 0, ()).is_applied());
        assert!(!PointMap::remove(&store, &1_000).is_applied());
        assert!(store.snapshot_valid(&token));
        assert_eq!(store.count_at(&token, RangeSpec::all()), Some(400));

        // A write to shard 3, outside `low`, still expires the token: it
        // names a cut over every shard, and that cut is gone.
        assert_eq!(store.shard_of(&399), 3);
        assert!(PointMap::remove(&store, &399).is_applied());
        assert!(!store.snapshot_valid(&token));
        assert_eq!(store.count_at(&token, low), None);
        assert_eq!(store.range_agg_at(&token, low), None);
        assert_eq!(store.collect_range_at(&token, low), None);
        assert_eq!(store.count_at(&token, RangeSpec::inclusive(9, 3)), None);

        // A fresh token reads the new state.
        let fresh = store.acquire_snapshot();
        assert_ne!(fresh, token);
        assert_eq!(store.count_at(&fresh, RangeSpec::all()), Some(399));
        assert_eq!(
            store.collect_range_at(&fresh, RangeSpec::inclusive(398, 1_000)),
            Some(vec![(398, ())])
        );

        // A gated batch commits once and expires the fresh token.
        let commits = || store.metrics().counter("store_batch_commits").unwrap();
        let before = commits();
        let batch = vec![
            StoreOp::Insert { key: 50, value: () },
            StoreOp::Insert {
                key: 1_000,
                value: (),
            },
        ];
        assert_eq!(
            BatchApply::apply_batch(&store, batch).unwrap(),
            vec![OpOutcome::Inserted(false), OpOutcome::Inserted(true)]
        );
        assert_eq!(commits(), before + 1);
        assert_eq!(store.count_at(&fresh, RangeSpec::all()), None);
        let last = store.acquire_snapshot();
        assert_eq!(store.count_at(&last, RangeSpec::all()), Some(400));
    }
}
