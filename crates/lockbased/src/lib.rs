//! Coarse-grained lock baseline.
//!
//! The simplest way to obtain a concurrent tree is to protect the sequential
//! one with a global lock (the paper's related-work §I: "Lock-based
//! solutions"). [`LockedRangeTree`] does exactly that: a `parking_lot` mutex
//! around [`wft_seq::SeqRangeTree`]. It is neither lock-free nor scalable,
//! but it is a useful lower bound in the benchmark harness and a sanity
//! oracle in stress tests (its behaviour is trivially linearizable). From
//! the `wft-api` trait family it implements point operations and range
//! reads, the two things it is measured on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use parking_lot::Mutex;

use wft_seq::{Augmentation, Key, SeqRangeTree, Size, Value};

/// A sequential augmented tree behind one global mutex.
///
/// The interface mirrors `wft_core::WaitFreeTree` so the benchmark harness
/// can swap implementations.
pub struct LockedRangeTree<K: Key, V: Value = (), A: Augmentation<K, V> = Size> {
    inner: Mutex<SeqRangeTree<K, V, A>>,
}

impl<K: Key, V: Value, A: Augmentation<K, V>> Default for LockedRangeTree<K, V, A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>> LockedRangeTree<K, V, A> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        LockedRangeTree {
            inner: Mutex::new(SeqRangeTree::new()),
        }
    }

    /// Builds a pre-populated tree.
    pub fn from_entries<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        LockedRangeTree {
            inner: Mutex::new(SeqRangeTree::from_entries(entries)),
        }
    }

    /// Inserts `key → value`; `true` if the key was absent.
    pub fn insert(&self, key: K, value: V) -> bool {
        self.inner.lock().insert(key, value)
    }

    /// Inserts `key → value`, overwriting any existing value; returns the
    /// value it replaced, if any. Atomic: a single lock acquisition covers
    /// the whole upsert.
    pub fn insert_or_replace(&self, key: K, value: V) -> Option<V> {
        self.inner.lock().insert_or_replace(key, value)
    }

    /// Removes `key`; `true` if it was present.
    pub fn remove(&self, key: &K) -> bool {
        self.inner.lock().remove(key)
    }

    /// Removes `key` and returns its value, if any.
    pub fn remove_entry(&self, key: &K) -> Option<V> {
        self.inner.lock().remove_entry(key)
    }

    /// `true` if `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.inner.lock().contains(key)
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<V> {
        self.inner.lock().get(key).cloned()
    }

    /// Aggregate of entries with keys in `[min, max]`.
    pub fn range_agg(&self, min: K, max: K) -> A::Agg {
        self.inner.lock().range_agg(min, max)
    }

    /// Entries with keys in `[min, max]`, in key order.
    pub fn collect_range(&self, min: K, max: K) -> Vec<(K, V)> {
        self.inner.lock().collect_range(min, max)
    }

    /// Number of keys stored.
    pub fn len(&self) -> u64 {
        self.inner.lock().len()
    }

    /// `true` when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entries in key order.
    pub fn entries(&self) -> Vec<(K, V)> {
        self.inner.lock().entries()
    }

    /// Validates the inner tree's invariants (tests only).
    pub fn check_invariants(&self) {
        self.inner.lock().check_invariants();
    }
}

impl<K: Key, V: Value> LockedRangeTree<K, V, Size> {
    /// Number of keys in `[min, max]`.
    pub fn count(&self, min: K, max: K) -> u64 {
        self.range_agg(min, max)
    }
}

// --- wft-api trait family ------------------------------------------------

impl<K: Key, V: Value, A: Augmentation<K, V>> wft_api::PointMap<K, V> for LockedRangeTree<K, V, A> {
    fn insert(&self, key: K, value: V) -> wft_api::UpdateOutcome<V> {
        let mut inner = self.inner.lock();
        if let Some(current) = inner.get(&key) {
            return wft_api::UpdateOutcome::Unchanged {
                current: Some(current.clone()),
            };
        }
        inner.insert(key, value);
        wft_api::UpdateOutcome::Applied { prior: None }
    }

    fn replace(&self, key: K, value: V) -> wft_api::UpdateOutcome<V> {
        wft_api::UpdateOutcome::Applied {
            prior: self.insert_or_replace(key, value),
        }
    }

    fn remove(&self, key: &K) -> wft_api::UpdateOutcome<V> {
        match self.remove_entry(key) {
            Some(prior) => wft_api::UpdateOutcome::Applied { prior: Some(prior) },
            None => wft_api::UpdateOutcome::Unchanged { current: None },
        }
    }

    fn get(&self, key: &K) -> Option<V> {
        LockedRangeTree::get(self, key)
    }

    fn len(&self) -> u64 {
        LockedRangeTree::len(self)
    }
}

impl<K, V, A> wft_api::RangeRead<K, V> for LockedRangeTree<K, V, A>
where
    K: wft_api::RangeKey,
    V: Value,
    A: Augmentation<K, V>,
{
    type Agg = A::Agg;

    fn range_agg(&self, range: wft_api::RangeSpec<K>) -> A::Agg {
        wft_api::agg_over(range, A::identity, |min, max| {
            LockedRangeTree::range_agg(self, min, max)
        })
    }

    fn count(&self, range: wft_api::RangeSpec<K>) -> u64 {
        wft_api::count_over::<K, V, A>(
            range,
            |min, max| LockedRangeTree::range_agg(self, min, max),
            |min, max| LockedRangeTree::collect_range(self, min, max).len() as u64,
        )
    }

    fn collect_range(&self, range: wft_api::RangeSpec<K>) -> Vec<(K, V)> {
        wft_api::agg_over(range, Vec::new, |min, max| {
            LockedRangeTree::collect_range(self, min, max)
        })
    }
}

/// Minimal `wft-obs` surface for the baseline: its current size. The
/// baseline keeps no operational counters of its own.
impl<K: Key, V: Value, A: Augmentation<K, V>> wft_obs::MetricsSource for LockedRangeTree<K, V, A> {
    fn collect_metrics(&self, out: &mut wft_obs::MetricsSnapshot) {
        out.push_gauge("lockbased_len", wft_api::PointMap::len(self) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_roundtrip() {
        let tree: LockedRangeTree<i64, i64> = LockedRangeTree::new();
        assert!(tree.insert(1, 10));
        assert!(!tree.insert(1, 11));
        assert_eq!(tree.get(&1), Some(10));
        assert_eq!(tree.count(0, 5), 1);
        assert_eq!(tree.remove_entry(&1), Some(10));
        assert!(tree.is_empty());
        tree.check_invariants();
    }

    #[test]
    fn insert_or_replace_roundtrip() {
        let tree: LockedRangeTree<i64, i64> = LockedRangeTree::new();
        assert_eq!(tree.insert_or_replace(1, 10), None);
        assert_eq!(tree.insert_or_replace(1, 11), Some(10));
        assert_eq!(tree.get(&1), Some(11));
        assert_eq!(tree.len(), 1);
        tree.check_invariants();
    }

    #[test]
    fn from_entries_and_ranges() {
        let tree: LockedRangeTree<i64> = LockedRangeTree::from_entries((0..100).map(|k| (k, ())));
        assert_eq!(tree.len(), 100);
        assert_eq!(tree.count(10, 19), 10);
        assert_eq!(tree.collect_range(95, 200).len(), 5);
    }

    #[test]
    fn concurrent_updates_are_serialised_by_the_lock() {
        const THREADS: i64 = 4;
        const PER_THREAD: i64 = 500;
        let tree: Arc<LockedRangeTree<i64>> = Arc::new(LockedRangeTree::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        assert!(tree.insert(t * PER_THREAD + i, ()));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tree.len(), (THREADS * PER_THREAD) as u64);
        assert_eq!(
            tree.count(i64::MIN, i64::MAX),
            (THREADS * PER_THREAD) as u64
        );
        tree.check_invariants();
    }
}
