//! [`wft_api`] trait implementations for [`PersistentRangeTree`].
//!
//! Every update (including [`PointMap::replace`]) publishes a whole new
//! version with one CAS, so the typed outcomes fall straight out of the
//! treap's return values.

use wft_api::{
    apply_batch_point, BatchApply, BatchError, ChunkRead, FrontScanCursor, OpOutcome, PointMap,
    RangeKey, RangeRead, RangeScan, RangeSpec, StoreOp, TimestampFront, UpdateOutcome,
};
use wft_seq::{Augmentation, Key, Value};

use crate::treap;
use crate::tree::PersistentRangeTree;

impl<K: Key, V: Value, A: Augmentation<K, V>> PointMap<K, V> for PersistentRangeTree<K, V, A> {
    fn insert(&self, key: K, value: V) -> UpdateOutcome<V> {
        // The decision and the blocking value are read from the same
        // version, so the typed outcome is atomic (a separate `get` after a
        // failed insert could observe a later version).
        let guard = crossbeam_epoch::pin();
        self.update_loop(
            |root| match treap::get::<K, V, A>(root, &key) {
                Some(current) => (
                    None,
                    UpdateOutcome::Unchanged {
                        current: Some(current.clone()),
                    },
                ),
                None => {
                    let (new_root, inserted) = treap::insert::<K, V, A>(root, key, value.clone());
                    debug_assert!(inserted, "the key is absent in this version");
                    (Some(new_root), UpdateOutcome::Applied { prior: None })
                }
            },
            &guard,
        )
    }

    fn replace(&self, key: K, value: V) -> UpdateOutcome<V> {
        UpdateOutcome::Applied {
            prior: self.insert_or_replace(key, value),
        }
    }

    fn remove(&self, key: &K) -> UpdateOutcome<V> {
        match self.remove_entry(key) {
            Some(prior) => UpdateOutcome::Applied { prior: Some(prior) },
            None => UpdateOutcome::Unchanged { current: None },
        }
    }

    fn get(&self, key: &K) -> Option<V> {
        PersistentRangeTree::get(self, key)
    }

    fn len(&self) -> u64 {
        PersistentRangeTree::len(self)
    }
}

impl<K, V, A> RangeRead<K, V> for PersistentRangeTree<K, V, A>
where
    K: RangeKey,
    V: Value,
    A: Augmentation<K, V>,
{
    type Agg = A::Agg;

    fn range_agg(&self, range: RangeSpec<K>) -> A::Agg {
        wft_api::agg_over(range, A::identity, |min, max| {
            PersistentRangeTree::range_agg(self, min, max)
        })
    }

    fn count(&self, range: RangeSpec<K>) -> u64 {
        wft_api::count_over(
            range,
            |min, max| PersistentRangeTree::range_agg(self, min, max),
            A::count_of,
            |min, max| PersistentRangeTree::collect_range(self, min, max).len() as u64,
        )
    }

    fn collect_range(&self, range: RangeSpec<K>) -> Vec<(K, V)> {
        wft_api::collect_over(range, |min, max| {
            PersistentRangeTree::collect_range(self, min, max)
        })
    }
}

/// Chunks through the default collect-and-truncate (`O(answer)` per chunk:
/// the persistent treap reads a whole immutable version anyway, so a
/// limit-bounded walk would save allocation, not consistency work).
impl<K, V, A> ChunkRead<K, V> for PersistentRangeTree<K, V, A>
where
    K: RangeKey,
    V: Value,
    A: Augmentation<K, V>,
{
}

/// Streaming scans through the shared front-sandwich cursor over the
/// version-sequence front.
impl<K, V, A> RangeScan<K, V> for PersistentRangeTree<K, V, A>
where
    K: RangeKey,
    V: Value,
    A: Augmentation<K, V>,
{
    type Cursor<'a>
        = FrontScanCursor<'a, Self, K, V>
    where
        Self: 'a;

    fn scan(&self, range: RangeSpec<K>) -> FrontScanCursor<'_, Self, K, V> {
        FrontScanCursor::new(self, range)
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>> BatchApply<K, V> for PersistentRangeTree<K, V, A> {
    fn apply_batch(&self, batch: Vec<StoreOp<K, V>>) -> Result<Vec<OpOutcome<V>>, BatchError<K>> {
        apply_batch_point(self, batch)
    }
}

/// Opts into the blanket `SnapshotRead`: plain reads here are
/// validation-free linearizable queries, so the blanket's sandwich is the
/// single validation layer.
impl<K: Key, V: Value, A: Augmentation<K, V>> wft_api::FrontSnapshot
    for PersistentRangeTree<K, V, A>
{
}

/// The persistent tree's snapshot front is its version sequence number:
/// every update commits a whole new version (with `seq + 1` inside the same
/// CAS-swapped cell) at one atomic instant, so announcement, visibility and
/// resolution coincide — the [`TimestampFront::front_resolved`] default is
/// exact and [`TimestampFront::settle_front`] never waits.
impl<K: Key, V: Value, A: Augmentation<K, V>> TimestampFront for PersistentRangeTree<K, V, A> {
    fn settle_front(&self) -> u64 {
        self.version_seq()
    }

    fn front_advertised(&self) -> u64 {
        self.version_seq()
    }
}

/// The baseline's `wft-obs` surface: the version sequence number (a
/// monotone count of committed updates, one per successful CAS), the CAS
/// races lost, and the current size.
impl<K: Key, V: Value, A: Augmentation<K, V>> wft_obs::MetricsSource
    for PersistentRangeTree<K, V, A>
{
    fn collect_metrics(&self, out: &mut wft_obs::MetricsSnapshot) {
        out.push_counter("persistent_versions", self.version_seq());
        out.push_counter("persistent_cas_retries", self.cas_retries.value());
        out.push_gauge("persistent_len", PointMap::len(self) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_is_a_single_version_swap() {
        let tree: PersistentRangeTree<i64, i64> = PersistentRangeTree::new();
        assert_eq!(tree.insert_or_replace(1, 10), None);
        assert_eq!(tree.insert_or_replace(1, 11), Some(10));
        assert_eq!(tree.len(), 1);
        assert_eq!(PointMap::get(&tree, &1), Some(11));
        tree.check_invariants();
    }

    #[test]
    fn trait_surface_roundtrip() {
        let tree: PersistentRangeTree<i64, i64> =
            PersistentRangeTree::from_entries((0..10).map(|k| (k, k)));
        assert!(!PointMap::insert(&tree, 5, 0).is_applied());
        assert_eq!(
            PointMap::replace(&tree, 5, 50),
            UpdateOutcome::Applied { prior: Some(5) }
        );
        assert_eq!(RangeRead::count(&tree, RangeSpec::from_bounds(0..10)), 10);
        assert_eq!(RangeRead::count(&tree, RangeSpec::inclusive(9, 0)), 0);
    }
}
