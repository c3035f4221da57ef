//! [`wft_api`] trait implementations for [`PersistentRangeTree`].
//!
//! Every update (including [`PointMap::replace`]) publishes a whole new
//! version with one CAS, so the typed outcomes fall straight out of the
//! treap's return values. The baseline is the paper's competitor on point
//! operations and aggregate range reads, and implements only those traits.

use wft_api::{PointMap, RangeKey, RangeRead, RangeSpec, UpdateOutcome};
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
        wft_api::count_over::<K, V, A>(
            range,
            |min, max| PersistentRangeTree::range_agg(self, min, max),
            |min, max| PersistentRangeTree::collect_range(self, min, max).len() as u64,
        )
    }

    fn collect_range(&self, range: RangeSpec<K>) -> Vec<(K, V)> {
        wft_api::agg_over(range, Vec::new, |min, max| {
            PersistentRangeTree::collect_range(self, min, max)
        })
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
