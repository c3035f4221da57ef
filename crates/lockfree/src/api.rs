//! [`wft_api`] trait implementations for [`LockFreeBst`].
//!
//! This baseline has **no augmentation**: [`RangeRead::range_agg`] and
//! [`RangeRead::count`] are answered by collecting the range — time linear
//! in the range width, which is exactly the asymptotic gap the paper closes.
//! Its `Agg` is therefore simply the key count. [`PointMap::replace`] is the
//! composed (non-atomic) upsert; see
//! [`LockFreeBst::insert_or_replace`]. Like the class it stands for, the
//! baseline offers no snapshots, scans or batches: it is measured on point
//! operations and range reads only.

use wft_api::{PointMap, RangeKey, RangeRead, RangeSpec, UpdateOutcome};
use wft_seq::{Key, Value};

use crate::tree::LockFreeBst;

impl<K: Key, V: Value> PointMap<K, V> for LockFreeBst<K, V> {
    fn insert(&self, key: K, value: V) -> UpdateOutcome<V> {
        // `insert_entry` reports the blocking value from the leaf the failed
        // insert linearized against, so the typed outcome is atomic.
        match self.insert_entry(key, value) {
            None => UpdateOutcome::Applied { prior: None },
            Some(current) => UpdateOutcome::Unchanged {
                current: Some(current),
            },
        }
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
        LockFreeBst::get(self, key)
    }

    fn len(&self) -> u64 {
        LockFreeBst::len(self)
    }
}

impl<K: RangeKey, V: Value> RangeRead<K, V> for LockFreeBst<K, V> {
    /// No augmentation: the only aggregate this class supports is the count
    /// obtained by collecting the range.
    type Agg = u64;

    fn range_agg(&self, range: RangeSpec<K>) -> u64 {
        RangeRead::count(self, range)
    }

    fn count(&self, range: RangeSpec<K>) -> u64 {
        RangeRead::collect_range(self, range).len() as u64
    }

    fn collect_range(&self, range: RangeSpec<K>) -> Vec<(K, V)> {
        wft_api::agg_over(range, Vec::new, |min, max| {
            LockFreeBst::collect_range(self, min, max)
        })
    }
}

/// The baseline's `wft-obs` surface: its current size. The class keeps no
/// operational counters.
impl<K: Key, V: Value> wft_obs::MetricsSource for LockFreeBst<K, V> {
    fn collect_metrics(&self, out: &mut wft_obs::MetricsSnapshot) {
        out.push_gauge("lockfree_len", PointMap::len(self) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_replace_and_linear_count() {
        let tree: LockFreeBst<i64, i64> = LockFreeBst::new();
        assert_eq!(tree.insert_or_replace(1, 10), None);
        assert_eq!(tree.insert_or_replace(1, 11), Some(10));
        assert_eq!(PointMap::get(&tree, &1), Some(11));
        assert_eq!(RangeRead::count(&tree, RangeSpec::all()), 1);
        assert_eq!(RangeRead::range_agg(&tree, RangeSpec::inclusive(5, 2)), 0);
    }
}
