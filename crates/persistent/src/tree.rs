//! The concurrent persistent tree: a lock-free universal construction over
//! the functional treap.
//!
//! This is the baseline the paper compares against (§III, the orange lines of
//! Figures 7–9): every read-only operation loads the current version pointer
//! and runs on that immutable snapshot; every update computes a new version
//! by path copying and tries to install it with a single CAS, retrying from
//! scratch on failure. The construction is lock-free (some operation always
//! makes progress) but not wait-free (an individual update can be starved),
//! and every successful update copies an `O(log N)` path — the costs the
//! paper's design avoids.

use crossbeam_epoch::{Atomic, Guard, Owned};
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use wft_obs::Counter;
use wft_seq::{Augmentation, Key, Size, Value};

use crate::treap::{self, Link};

/// A heap cell holding one immutable version of the tree.
struct VersionCell<K: Key, V: Value, A: Augmentation<K, V>> {
    root: Link<K, V, A>,
    /// Strictly increasing along the version chain (each committed update
    /// installs `seq + 1` of the cell it replaces). Because the sequence
    /// number travels *inside* the CAS-swapped cell, reading it is always
    /// consistent with the root it describes; it counts committed updates
    /// (the `persistent_versions` metric).
    seq: u64,
}

/// A linearizable concurrent ordered set/map built from a persistent treap
/// and a CAS-retry loop (lock-free universal construction).
///
/// The public interface mirrors `wft_core::WaitFreeTree` so the benchmark
/// harness can swap the two implementations freely.
pub struct PersistentRangeTree<K: Key, V: Value = (), A: Augmentation<K, V> = Size> {
    version: Atomic<VersionCell<K, V, A>>,
    /// Update attempts that lost the CAS race and had to retry (reported
    /// as `persistent_cas_retries`; committed updates are the version
    /// sequence number, `persistent_versions`).
    pub(crate) cas_retries: Counter,
}

// SAFETY: the shared state is the epoch-managed version pointer plus a
// counter; `K`, `V` and the aggregate are `Send + Sync` by bound, so the
// tree moves across threads soundly.
unsafe impl<K: Key, V: Value, A: Augmentation<K, V>> Send for PersistentRangeTree<K, V, A> {}
// SAFETY: same argument as `Send` — shared access goes through the atomic
// version pointer and epoch guards only.
unsafe impl<K: Key, V: Value, A: Augmentation<K, V>> Sync for PersistentRangeTree<K, V, A> {}

impl<K: Key, V: Value, A: Augmentation<K, V>> Default for PersistentRangeTree<K, V, A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>> PersistentRangeTree<K, V, A> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        PersistentRangeTree {
            version: Atomic::new(VersionCell { root: None, seq: 0 }),
            cas_retries: Counter::new(),
        }
    }

    /// Builds a pre-populated tree (duplicates keep the first value).
    pub fn from_entries<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        let mut sorted: Vec<(K, V)> = entries.into_iter().collect();
        sorted.sort_by_key(|a| a.0);
        sorted.dedup_by(|a, b| a.0 == b.0);
        let root = treap::from_sorted::<K, V, A>(&sorted);
        PersistentRangeTree {
            version: Atomic::new(VersionCell { root, seq: 0 }),
            cas_retries: Counter::new(),
        }
    }

    /// Loads the current version's root under `guard`.
    fn snapshot<'g>(&self, guard: &'g Guard) -> &'g Link<K, V, A> {
        // ORDERING: Acquire pairs with the AcqRel version CAS in `update_loop`, so
        // the cell's root is fully visible.
        let cell = self.version.load(Acquire, guard);
        // The version cell is never null.
        // SAFETY: the cell is retired only via `defer_destroy` after being
        // replaced, so the deref is valid under `guard`.
        &unsafe { cell.deref() }.root
    }

    /// Applies `update` to the current version until the CAS succeeds.
    /// `update` returns `None` to signal "no change needed" (unsuccessful
    /// insert/remove), in which case the loop exits immediately — this is
    /// what makes unsuccessful operations cheap for this baseline, exactly as
    /// the paper observes in the insert-delete workload.
    pub(crate) fn update_loop<R>(
        &self,
        mut update: impl FnMut(&Link<K, V, A>) -> (Option<Link<K, V, A>>, R),
        guard: &Guard,
    ) -> R {
        loop {
            // ORDERING: Acquire pairs with the AcqRel version CAS below, so the
            // predecessor cell is fully visible.
            // SAFETY: the version cell is never null and is retired only via
            // `defer_destroy`, so the deref is valid under `guard`.
            let current = self.version.load(Acquire, guard);
            // SAFETY: as above.
            let current_cell = unsafe { current.deref() };
            let current_root = &current_cell.root;
            let (new_root, result) = update(current_root);
            match new_root {
                None => return result,
                Some(root) => {
                    let new_cell = Owned::new(VersionCell {
                        root,
                        seq: current_cell.seq + 1,
                    });
                    // ORDERING: success AcqRel — Release publishes the new version cell to the
                    // Acquire snapshot loads, Acquire orders the install after reading the
                    // predecessor; failure Acquire re-reads the cell a faster updater
                    // installed.
                    match self
                        .version
                        .compare_exchange(current, new_cell, AcqRel, Acquire, guard)
                    {
                        Ok(_) => {
                            // SAFETY: our CAS unlinked `current` (single winner per predecessor), so
                            // it is retired exactly once; readers hold epoch guards.
                            unsafe { guard.defer_destroy(current) };
                            return result;
                        }
                        Err(_) => {
                            // Another update won; retry from the new version
                            // (the whole path copy is recomputed — the cost
                            // the paper's related-work section points out).
                            self.cas_retries.inc();
                        }
                    }
                }
            }
        }
    }

    /// Inserts `key → value`; returns `true` if the key was absent.
    pub fn insert(&self, key: K, value: V) -> bool {
        let guard = crossbeam_epoch::pin();
        self.update_loop(
            |root| {
                let (new_root, inserted) = treap::insert::<K, V, A>(root, key, value.clone());
                if inserted {
                    (Some(new_root), true)
                } else {
                    (None, false)
                }
            },
            &guard,
        )
    }

    /// Inserts `key → value`, overwriting any existing value; returns the
    /// value it replaced, if any. Atomic: the overwritten version is swapped
    /// out by the same single CAS as any other update.
    pub fn insert_or_replace(&self, key: K, value: V) -> Option<V> {
        let guard = crossbeam_epoch::pin();
        self.update_loop(
            |root| {
                let (new_root, prior) = treap::replace::<K, V, A>(root, key, value.clone());
                (Some(new_root), prior)
            },
            &guard,
        )
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&self, key: &K) -> bool {
        self.remove_entry(key).is_some()
    }

    /// Removes `key` and returns its value, if any.
    pub fn remove_entry(&self, key: &K) -> Option<V> {
        let guard = crossbeam_epoch::pin();
        self.update_loop(
            |root| {
                let (new_root, removed) = treap::remove::<K, V, A>(root, key);
                if removed.is_some() {
                    (Some(new_root), removed)
                } else {
                    (None, None)
                }
            },
            &guard,
        )
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Returns the value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<V> {
        let guard = crossbeam_epoch::pin();
        treap::get::<K, V, A>(self.snapshot(&guard), key).cloned()
    }

    /// Aggregate of every entry with key in `[min, max]` (`O(log N)` on the
    /// current snapshot).
    pub fn range_agg(&self, min: K, max: K) -> A::Agg {
        let guard = crossbeam_epoch::pin();
        treap::range_agg::<K, V, A>(self.snapshot(&guard), &min, &max)
    }

    /// Every `(key, value)` with key in `[min, max]`, in key order.
    pub fn collect_range(&self, min: K, max: K) -> Vec<(K, V)> {
        let guard = crossbeam_epoch::pin();
        let mut out = Vec::new();
        treap::collect_range::<K, V, A>(self.snapshot(&guard), &min, &max, &mut out);
        out
    }

    /// Number of keys in the current version.
    pub fn len(&self) -> u64 {
        let guard = crossbeam_epoch::pin();
        treap::size::<K, V, A>(self.snapshot(&guard))
    }

    /// `true` when the current version is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entries of the current version in key order.
    pub fn entries(&self) -> Vec<(K, V)> {
        let guard = crossbeam_epoch::pin();
        let mut out = Vec::new();
        treap::entries::<K, V, A>(self.snapshot(&guard), &mut out);
        out
    }

    /// The current version's sequence number: strictly increasing with every
    /// committed update, constant across reads of one version — the count of
    /// committed updates reported as `persistent_versions`.
    pub fn version_seq(&self) -> u64 {
        let guard = crossbeam_epoch::pin();
        // ORDERING: Acquire pairs with the AcqRel version CAS in `update_loop`.
        // SAFETY: the version cell is never null and is retired only via
        // `defer_destroy`.
        let cell = self.version.load(Acquire, &guard);
        // SAFETY: as above.
        unsafe { cell.deref() }.seq
    }

    /// Validates the invariants of the current version (quiescent; tests
    /// only).
    pub fn check_invariants(&self) {
        let guard = crossbeam_epoch::pin();
        let n = treap::check_invariants::<K, V, A>(self.snapshot(&guard));
        assert_eq!(n, self.len(), "cached size diverged");
    }
}

impl<K: Key, V: Value> PersistentRangeTree<K, V, Size> {
    /// Number of keys in `[min, max]`.
    pub fn count(&self, min: K, max: K) -> u64 {
        self.range_agg(min, max)
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>> Drop for PersistentRangeTree<K, V, A> {
    fn drop(&mut self) {
        // SAFETY: `drop` takes `&mut self`, so this thread has exclusive access;
        // the final version cell is freed exactly once here.
        unsafe {
            let cell = self.version.load(Relaxed, crossbeam_epoch::unprotected());
            if !cell.is_null() {
                drop(cell.into_owned());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_roundtrip() {
        let tree: PersistentRangeTree<i64, i64> = PersistentRangeTree::new();
        assert!(tree.is_empty());
        assert!(tree.insert(1, 10));
        assert!(!tree.insert(1, 11));
        assert!(tree.insert(2, 20));
        assert_eq!(tree.get(&1), Some(10));
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.count(0, 10), 2);
        assert_eq!(tree.remove_entry(&1), Some(10));
        assert_eq!(tree.remove_entry(&1), None);
        assert_eq!(tree.len(), 1);
        tree.check_invariants();
    }

    #[test]
    fn from_entries_and_ranges() {
        let tree: PersistentRangeTree<i64> =
            PersistentRangeTree::from_entries((0..1000).map(|k| (k, ())));
        assert_eq!(tree.len(), 1000);
        assert_eq!(tree.count(100, 199), 100);
        assert_eq!(tree.collect_range(0, 9).len(), 10);
        tree.check_invariants();
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        const THREADS: i64 = 4;
        const PER_THREAD: i64 = 1_000;
        let tree: Arc<PersistentRangeTree<i64>> = Arc::new(PersistentRangeTree::new());
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
        // Racing updates commit one version each, however many CASes lost.
        assert_eq!(tree.version_seq(), (THREADS * PER_THREAD) as u64);
        assert_eq!(
            tree.count(i64::MIN, i64::MAX),
            (THREADS * PER_THREAD) as u64
        );
        tree.check_invariants();
    }

    #[test]
    fn concurrent_same_key_inserts_succeed_once() {
        const KEYS: i64 = 500;
        let tree: Arc<PersistentRangeTree<i64>> = Arc::new(PersistentRangeTree::new());
        let successes = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let tree = Arc::clone(&tree);
                let successes = Arc::clone(&successes);
                std::thread::spawn(move || {
                    for k in 0..KEYS {
                        if tree.insert(k, ()) {
                            successes.fetch_add(1, Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(successes.load(Relaxed), KEYS as u64);
        assert_eq!(tree.len(), KEYS as u64);
    }

    #[test]
    fn update_contention_is_counted() {
        use wft_obs::MetricsSource;
        // Single-threaded updates never retry; every committed update is
        // one version, and an update with no effect commits none.
        let tree: PersistentRangeTree<i64> = PersistentRangeTree::new();
        for k in 0..100 {
            tree.insert(k, ());
        }
        assert!(!tree.insert(7, ()));
        let metrics = tree.metrics();
        assert_eq!(metrics.counter("persistent_cas_retries"), Some(0));
        assert_eq!(metrics.counter("persistent_versions"), Some(100));
    }
}
