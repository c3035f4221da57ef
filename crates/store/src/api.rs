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
use wft_core::cut;
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
        wft_api::agg_over(range, Vec::new, |min, max| {
            ShardedStore::collect_range(self, min, max)
        })
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>> BatchApply<K, V> for ShardedStore<K, V, A> {
    fn apply_batch(&self, batch: Vec<StoreOp<K, V>>) -> Result<Vec<OpOutcome<V>>, BatchError<K>> {
        ShardedStore::apply_batch(self, batch)
    }
}

/// The cut protocol ([`wft_core::cut`]) over the shards, as for a tree: the
/// token sums an epoch-stable cut over every shard ([`crate::front`],
/// "Scalar tokens"), read at with the store's optimistic-only reads.
impl<K, V, A> SnapshotRead<K, V> for ShardedStore<K, V, A>
where
    K: RangeKey,
    V: Value,
    A: Augmentation<K, V>,
{
    fn acquire_snapshot(&self) -> SnapshotToken {
        cut::acquire(self)
    }

    fn snapshot_valid(&self, token: &SnapshotToken) -> bool {
        cut::minted(self, token).is_some()
    }

    fn range_agg_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<Self::Agg> {
        cut::range_agg_at(self, token, range)
    }

    fn count_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<u64> {
        cut::count_at(self, token, range)
    }

    fn collect_range_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<Vec<(K, V)>> {
        cut::collect_range_at(self, token, range)
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
    use wft_core::{ScanCut, WaitFreeTree};

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

    /// A cut that lets an insert of `key` in before each aggregate read of
    /// a shard: an update inside a token read. (Later inserts find the key
    /// present and change nothing.)
    struct Meddled<'a, M> {
        map: &'a M,
        key: i64,
    }

    impl<M: ScanCut<i64, ()> + PointMap<i64, ()>> ScanCut<i64, ()> for Meddled<'_, M> {
        type Aug = M::Aug;

        fn shards(&self) -> usize {
            self.map.shards()
        }

        fn shard_of(&self, key: &i64) -> usize {
            self.map.shard_of(key)
        }

        fn shard_start(&self, i: usize) -> i64 {
            self.map.shard_start(i)
        }

        fn settle(&self, first: usize, last: usize) -> Vec<u64> {
            self.map.settle(first, last)
        }

        fn advertised(&self, i: usize) -> u64 {
            self.map.advertised(i)
        }

        fn read(
            &self,
            i: usize,
            lo: i64,
            hi: i64,
            want: usize,
            front: u64,
            out: &mut Vec<(i64, ())>,
        ) -> bool {
            self.map.read(i, lo, hi, want, front, out)
        }

        fn read_agg(
            &self,
            i: usize,
            lo: i64,
            hi: i64,
            front: u64,
        ) -> Option<<M::Aug as Augmentation<i64, ()>>::Agg> {
            PointMap::insert(self.map, self.key, ());
            self.map.read_agg(i, lo, hi, front)
        }

        fn note_restart(&self, i: usize) {
            self.map.note_restart(i);
        }
    }

    /// A map of the keys `0..10`, read through the token protocol.
    fn checks_the_front_on_entry_and_exit<M>(map: &M)
    where
        M: SnapshotRead<i64, (), Agg = u64> + PointMap<i64, ()> + ScanCut<i64, ()>,
    {
        let token = map.acquire_snapshot();
        assert_eq!(map.count_at(&token, RangeSpec::all()), Some(10));
        // A token forged past the front fails the entry check.
        let forged = SnapshotToken::new(token.front() + 1);
        assert!(!map.snapshot_valid(&forged));
        assert_eq!(map.range_agg_at(&forged, RangeSpec::all()), None);
        // An update inside the read voids its result.
        let meddled = Meddled { map, key: 10 };
        assert_eq!(cut::range_agg_at(&meddled, &token, RangeSpec::all()), None);
        assert!(!map.snapshot_valid(&token));
        let fresh = map.acquire_snapshot();
        assert_eq!(
            map.collect_range_at(&fresh, RangeSpec::at_least(9))
                .map(|v| v.len()),
            Some(2)
        );
    }

    #[test]
    fn token_reads_check_the_front_on_entry_and_exit() {
        use wft_obs::MetricsSource;
        let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..10).map(|k| (k, ())));
        checks_the_front_on_entry_and_exit(&tree);
        let store: ShardedStore<i64> = ShardedStore::from_entries((0..10).map(|k| (k, ())), 4);
        checks_the_front_on_entry_and_exit(&store);
        // The store counts the voided read as one snapshot retry.
        assert_eq!(store.metrics().counter("store_snapshot_retries"), Some(1));
    }

    /// A map of the keys `0..400`: a token reads the state it was minted
    /// at until any update linearizes. Returns a fresh token over the
    /// final state (399 keys).
    fn reads_the_state_at_mint<M>(map: &M) -> SnapshotToken
    where
        M: SnapshotRead<i64, (), Agg = u64> + PointMap<i64, ()>,
    {
        let low = RangeSpec::inclusive(0, 250);
        let token = map.acquire_snapshot();
        assert_eq!(map.count_at(&token, low), Some(251));

        // A failed insert or remove takes no timestamp: the token survives.
        assert!(!map.insert(0, ()).is_applied());
        assert!(!map.remove(&1_000).is_applied());
        assert!(map.snapshot_valid(&token));
        assert_eq!(map.count_at(&token, RangeSpec::all()), Some(400));

        // A write outside `low` still expires the token: it names the
        // state of every shard.
        assert!(map.remove(&399).is_applied());
        assert!(!map.snapshot_valid(&token));
        assert_eq!(map.count_at(&token, low), None);
        assert_eq!(map.range_agg_at(&token, low), None);
        assert_eq!(map.collect_range_at(&token, low), None);
        // Stale is stale, even for an inverted range.
        assert_eq!(map.count_at(&token, RangeSpec::inclusive(9, 3)), None);

        // A fresh token reads the new state.
        let fresh = map.acquire_snapshot();
        assert_ne!(fresh, token);
        assert_eq!(map.count_at(&fresh, RangeSpec::all()), Some(399));
        assert_eq!(
            map.collect_range_at(&fresh, RangeSpec::inclusive(398, 1_000)),
            Some(vec![(398, ())])
        );
        fresh
    }

    #[test]
    fn a_scalar_token_reads_the_cut_it_sums() {
        use wft_obs::MetricsSource;
        let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..400).map(|k| (k, ())));
        reads_the_state_at_mint(&tree);
        // Shards [0, 100), [100, 200), [200, 300), [300, ∞): the write to
        // 399 lands on shard 3, which the low range never touches.
        let store: ShardedStore<i64> = ShardedStore::from_entries((0..400).map(|k| (k, ())), 4);
        assert_eq!((store.shard_of(&250), store.shard_of(&399)), (2, 3));
        let fresh = reads_the_state_at_mint(&store);

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
