//! [`wft_api`] trait implementations for [`WaitFreeTree`].
//!
//! The wait-free tree is the reference implementation of the trait family:
//! every update maps to exactly one descriptor (including
//! [`PointMap::replace`] → [`crate::OpKind::Replace`]), range reads resolve
//! their [`RangeSpec`] once and answer with the native closed-interval
//! query, batches run through the shared serial phase-two helper, and
//! snapshot reads are the cut protocol over the tree as one shard
//! ([`crate::cut`]), anchored at the root-queue timestamp front. Scans are
//! the merge cursor over the same one-shard cut ([`crate::scan`]).

use wft_api::{
    apply_batch_point, BatchApply, BatchError, OpOutcome, PointMap, RangeKey, RangeRead, RangeSpec,
    SnapshotRead, SnapshotToken, StoreOp, UpdateOutcome,
};
use wft_seq::{Augmentation, Key, Value};

use crate::cut;
use crate::shape::Shape;
use crate::tree::WaitFreeTree;

impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> PointMap<K, V>
    for WaitFreeTree<K, V, A, S>
{
    fn insert(&self, key: K, value: V) -> UpdateOutcome<V> {
        // One load answers a failing insert and its current value together.
        let present =
            |index: &wft_queue::PresenceIndex<K, V>, guard: &_| index.read_value(&key, guard);
        if let Some(current) = self.fails_at_presence_load(present) {
            return UpdateOutcome::Unchanged {
                current: Some(current),
            };
        }
        let op = self.run_operation(crate::OpKind::Insert { key, value });
        let decision = op.resolved_decision();
        if decision.success {
            UpdateOutcome::Applied { prior: None }
        } else {
            UpdateOutcome::Unchanged {
                current: decision.prior_value.clone(),
            }
        }
    }

    fn replace(&self, key: K, value: V) -> UpdateOutcome<V> {
        UpdateOutcome::Applied {
            prior: self.insert_or_replace(key, value),
        }
    }

    fn remove(&self, key: &K) -> UpdateOutcome<V> {
        if self.fails_fast(key, false) {
            return UpdateOutcome::Unchanged { current: None };
        }
        let op = self.run_operation(crate::OpKind::Remove { key: *key });
        let decision = op.resolved_decision();
        if decision.success {
            UpdateOutcome::Applied {
                prior: decision.prior_value.clone(),
            }
        } else {
            UpdateOutcome::Unchanged { current: None }
        }
    }

    fn get(&self, key: &K) -> Option<V> {
        WaitFreeTree::get(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        // Presence-only: `O(1)` on the fast read path and never clones the
        // value, unlike the trait's `get(key).is_some()` default.
        WaitFreeTree::contains(self, key)
    }

    fn len(&self) -> u64 {
        WaitFreeTree::len(self)
    }
}

impl<K: RangeKey, V: Value, A: Augmentation<K, V>, S: Shape<K>> RangeRead<K, V>
    for WaitFreeTree<K, V, A, S>
{
    type Agg = A::Agg;

    fn range_agg(&self, range: RangeSpec<K>) -> A::Agg {
        wft_api::agg_over(range, A::identity, |min, max| {
            WaitFreeTree::range_agg(self, min, max)
        })
    }

    fn count(&self, range: RangeSpec<K>) -> u64 {
        wft_api::agg_over(range, || 0, |min, max| WaitFreeTree::count(self, min, max))
    }

    fn collect_range(&self, range: RangeSpec<K>) -> Vec<(K, V)> {
        wft_api::agg_over(range, Vec::new, |min, max| {
            WaitFreeTree::collect_range(self, min, max)
        })
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> BatchApply<K, V>
    for WaitFreeTree<K, V, A, S>
{
    fn apply_batch(&self, batch: Vec<StoreOp<K, V>>) -> Result<Vec<OpOutcome<V>>, BatchError<K>> {
        apply_batch_point(self, batch)
    }
}

/// The cut protocol ([`crate::cut`]) over the tree as one shard: the token
/// is a settled root-queue watermark, and a `*_at` read is the plain read
/// between an entry and an exit check of the front.
impl<K: RangeKey, V: Value, A: Augmentation<K, V>, S: Shape<K>> SnapshotRead<K, V>
    for WaitFreeTree<K, V, A, S>
{
    fn acquire_snapshot(&self) -> SnapshotToken {
        cut::acquire(self)
    }

    fn snapshot_valid(&self, token: &SnapshotToken) -> bool {
        cut::minted(self, token).is_some()
    }

    fn range_agg_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<A::Agg> {
        cut::range_agg_at(self, token, range)
    }

    fn count_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<u64> {
        cut::count_at(self, token, range)
    }

    fn collect_range_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<Vec<(K, V)>> {
        cut::collect_range_at(self, token, range)
    }
}

/// Reports the tree's event cells (`TreeCounters`) plus its size under the
/// shape's prefix (`tree_` for [`crate::Balanced`], `trie_` for
/// [`crate::Radix`]). The cells are the only storage of these counters and
/// this impl is the only way to read them. `epoch_pooled_blocks`, unprefixed,
/// is process-wide: the blocks the epoch shim keeps for reuse, over all
/// threads.
impl<K: Key, V: Value, A: Augmentation<K, V>, S: Shape<K>> wft_obs::MetricsSource
    for WaitFreeTree<K, V, A, S>
{
    fn collect_metrics(&self, out: &mut wft_obs::MetricsSnapshot) {
        let (p, c) = (S::METRIC_PREFIX, &self.counters);
        out.push_counter(format!("{p}_inserts"), c.inserts.value());
        out.push_counter(format!("{p}_replaces"), c.replaces.value());
        out.push_counter(format!("{p}_removes"), c.removes.value());
        out.push_counter(format!("{p}_failed_updates"), c.failed_updates.value());
        out.push_counter(
            format!("{p}_fast_failed_updates"),
            c.fast_failed_updates.value(),
        );
        out.push_counter(
            format!("{p}_helped_executions"),
            c.helped_executions.value(),
        );
        out.push_counter(format!("{p}_rebuilds"), c.rebuilds.value());
        out.push_counter(format!("{p}_rebuilt_items"), c.rebuilt_items.value());
        out.push_counter(format!("{p}_rebuilds_lost"), c.rebuilds_lost.value());
        out.push_counter(format!("{p}_fast_point_reads"), c.fast_point_reads.value());
        out.push_counter(format!("{p}_fast_range_hits"), c.fast_range_hits.value());
        out.push_counter(
            format!("{p}_fast_range_retries"),
            c.fast_range_retries.value(),
        );
        out.push_counter(format!("{p}_range_fallbacks"), c.range_fallbacks.value());
        out.push_counter(
            format!("{p}_fast_range_early_exits"),
            c.fast_range_early_exits.value(),
        );
        out.push_gauge(format!("{p}_len"), self.len() as i64);
        out.push_gauge(
            "epoch_pooled_blocks",
            crossbeam_epoch::pooled_blocks() as i64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wft_seq::Size;

    #[test]
    fn point_map_outcomes_are_typed() {
        let tree: WaitFreeTree<i64, i64> = WaitFreeTree::new();
        assert_eq!(
            PointMap::insert(&tree, 1, 10),
            UpdateOutcome::Applied { prior: None }
        );
        assert_eq!(
            PointMap::insert(&tree, 1, 11),
            UpdateOutcome::Unchanged { current: Some(10) }
        );
        assert_eq!(
            PointMap::replace(&tree, 1, 12),
            UpdateOutcome::Applied { prior: Some(10) }
        );
        assert_eq!(
            PointMap::remove(&tree, &1),
            UpdateOutcome::Applied { prior: Some(12) }
        );
        assert_eq!(
            PointMap::remove(&tree, &1),
            UpdateOutcome::Unchanged { current: None }
        );
    }

    #[test]
    fn trait_surface_matches_inherent_semantics() {
        fn check<S: Shape<u64>>() {
            let tree: WaitFreeTree<u64, u64, Size, S> = WaitFreeTree::new();
            assert!(PointMap::insert(&tree, 1, 10).is_applied());
            assert_eq!(
                PointMap::replace(&tree, 1, 11),
                UpdateOutcome::Applied { prior: Some(10) }
            );
            assert_eq!(RangeRead::count(&tree, RangeSpec::all()), 1);
            assert_eq!(RangeRead::count(&tree, RangeSpec::inclusive(9, 3)), 0);
            let outcomes = tree
                .apply_batch(vec![StoreOp::InsertOrReplace { key: 1, value: 12 }])
                .unwrap();
            assert_eq!(outcomes, vec![OpOutcome::Replaced(Some(11))]);
            // Each shape reports under its own metric prefix.
            let metrics = wft_obs::MetricsSource::metrics(&tree);
            let name = |suffix| format!("{}_{suffix}", S::METRIC_PREFIX);
            assert_eq!(metrics.counter(&name("replaces")), Some(2));
            assert_eq!(metrics.gauge(&name("len")), Some(1));
        }
        check::<crate::Balanced>();
        check::<crate::Radix>();
        assert_eq!(<crate::Radix as Shape<u64>>::METRIC_PREFIX, "trie");
    }

    #[test]
    fn range_read_resolves_specs() {
        let tree: WaitFreeTree<i64, (), Size> =
            WaitFreeTree::from_entries((0..10).map(|k| (k, ())));
        assert_eq!(RangeRead::count(&tree, RangeSpec::from_bounds(2..5)), 3);
        assert_eq!(RangeRead::count(&tree, RangeSpec::all()), 10);
        assert_eq!(RangeRead::count(&tree, RangeSpec::inclusive(5, 2)), 0);
        assert_eq!(RangeRead::range_agg(&tree, RangeSpec::at_least(7)), 3);
        assert!(RangeRead::collect_range(&tree, RangeSpec::from_bounds(4..4)).is_empty());
    }

    #[test]
    fn single_tree_accepts_batches() {
        let tree: WaitFreeTree<i64, i64> = WaitFreeTree::new();
        let outcomes = tree
            .apply_batch(vec![
                StoreOp::Insert { key: 1, value: 10 },
                StoreOp::InsertOrReplace { key: 2, value: 20 },
                StoreOp::Remove { key: 3 },
            ])
            .unwrap();
        assert_eq!(
            outcomes,
            vec![
                OpOutcome::Inserted(true),
                OpOutcome::Replaced(None),
                OpOutcome::Removed(false),
            ]
        );
        let err = tree
            .apply_batch(vec![
                StoreOp::Remove { key: 1 },
                StoreOp::RemoveEntry { key: 1 },
            ])
            .unwrap_err();
        assert_eq!(err, BatchError::DuplicateKey { key: 1 });
        assert!(
            PointMap::contains(&tree, &1),
            "failed batch mutates nothing"
        );
    }
}
