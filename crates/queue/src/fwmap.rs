//! The first-write-wins result map (`Op.Processed`, §II-B/§II-C).
//!
//! While an operation is executed in a node `v`, the executing process tries
//! to record the part of the answer contributed by `v` under the key `v.Id`.
//! Crucially, only the *first* recorded value may be kept: a process that
//! stalled and read node state after later operations already modified it
//! would otherwise overwrite a correct partial result with a value from the
//! wrong linearization point (the `⟨v.Id, 5⟩` vs `⟨v.Id, 6⟩` scenario in
//! §II-B). [`FirstWriteMap::try_insert`] therefore implements a linearizable
//! *insert-if-absent*: exactly one writer per key ever succeeds.
//!
//! The map lives inside one operation descriptor and is only read in full
//! once the operation has completed. Scalar operations and aggregate range
//! queries record `O(height + |P|)` entries, so the default configuration is
//! a single CAS-push-front list — optimal for a few dozen entries, and its
//! head is a field of the map, so a descriptor's maps cost no allocation
//! until something is recorded. A `collect` query, however, records one
//! entry per *visited node*, i.e. `O(range)` entries; descriptors for such
//! queries use [`FirstWriteMap::with_buckets`] to spread the entries over a
//! hashed bucket array so insertion stays effectively constant-time instead
//! of degrading quadratically over wide ranges.

use std::hash::{Hash, Hasher};
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

struct FNode<K, V> {
    key: K,
    value: V,
    next: *mut FNode<K, V>,
}

/// A concurrent insert-once ("first write wins") map.
pub struct FirstWriteMap<K, V> {
    /// Bucket 0, held in the map itself: the single bucket of a map made by
    /// [`FirstWriteMap::new`], so creating one allocates nothing.
    first: AtomicPtr<FNode<K, V>>,
    /// Buckets `1..`; empty (and unallocated) unless the map was made by
    /// [`FirstWriteMap::with_buckets`] with more than one bucket.
    rest: Box<[AtomicPtr<FNode<K, V>>]>,
    mask: usize,
}

// SAFETY: the map owns its chain nodes and mutates the bucket heads only
// through atomics; `K: Send`/`V: Send` let the payload move with the map.
unsafe impl<K: Send, V: Send> Send for FirstWriteMap<K, V> {}
// SAFETY: shared access only follows Release-published bucket chains and
// reads `K`/`V` through `&`, which `Sync` on both makes thread-safe.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for FirstWriteMap<K, V> {}

impl<K: Eq + Hash, V> Default for FirstWriteMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash, V> FirstWriteMap<K, V> {
    /// Creates an empty map with a single bucket (the right choice for the
    /// `O(height + |P|)`-entry maps of scalar and aggregate operations).
    pub fn new() -> Self {
        Self::with_buckets(1)
    }

    /// Creates an empty map with at least `buckets` hash buckets (rounded up
    /// to a power of two). Use a larger bucket count for descriptors that
    /// record one entry per visited node (`collect` over wide ranges).
    pub fn with_buckets(buckets: usize) -> Self {
        let n = buckets.next_power_of_two().max(1);
        let mut rest = Vec::with_capacity(n - 1);
        rest.resize_with(n - 1, || AtomicPtr::new(ptr::null_mut()));
        FirstWriteMap {
            first: AtomicPtr::new(ptr::null_mut()),
            rest: rest.into_boxed_slice(),
            mask: n - 1,
        }
    }

    fn bucket(&self, key: &K) -> &AtomicPtr<FNode<K, V>> {
        if self.mask == 0 {
            return &self.first;
        }
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        match (hasher.finish() as usize) & self.mask {
            0 => &self.first,
            i => &self.rest[i - 1],
        }
    }

    fn buckets(&self) -> impl Iterator<Item = &AtomicPtr<FNode<K, V>>> {
        std::iter::once(&self.first).chain(self.rest.iter())
    }

    /// The node holding `key` among the chain nodes from `from` up to, not
    /// including, `until` (null for the whole chain).
    ///
    /// # Safety
    ///
    /// `from` must have been loaded (Acquire) from a bucket of this map, and
    /// `until` must be null or an earlier value of the same bucket.
    unsafe fn find(
        &self,
        from: *mut FNode<K, V>,
        until: *mut FNode<K, V>,
        key: &K,
    ) -> Option<&FNode<K, V>> {
        let mut cur = from;
        while cur != until {
            // SAFETY: `cur` is a bucket head or a `next` link, published by the Release
            // CAS in `try_insert`; nodes are pushed at the head and never unlinked
            // before `Drop`, so the chain is valid for `&self` and runs into `until`.
            let node = unsafe { &*cur };
            if &node.key == key {
                return Some(node);
            }
            cur = node.next;
        }
        None
    }

    /// Inserts `key → value` if `key` is absent. Returns `true` if this call
    /// inserted the value (it "won"), `false` if some value was already
    /// recorded for `key` (the new value is discarded, as required by the
    /// paper's `Processed` semantics). A losing call allocates nothing.
    pub fn try_insert(&self, key: K, value: V) -> bool {
        let bucket = self.bucket(&key);
        // ORDERING: Acquire pairs with the Release bucket CAS below, so every node
        // in the observed chain is fully initialised.
        let mut head = bucket.load(Ordering::Acquire);
        // If the key is already present, some earlier writer won.
        // SAFETY: `head` was just loaded from this map's bucket.
        if unsafe { self.find(head, ptr::null_mut(), &key) }.is_some() {
            return false;
        }
        let node = Box::into_raw(Box::new(FNode {
            key,
            value,
            next: head,
        }));
        loop {
            // ORDERING: success Release publishes the initialised node (key, value,
            // next) to the Acquire bucket loads; failure Acquire re-reads the chain a
            // concurrent winner published so the rescan sees its key.
            match bucket.compare_exchange(head, node, Ordering::Release, Ordering::Acquire) {
                Ok(_) => return true,
                Err(newer) => {
                    // Nodes are only pushed at the head, so the chain from
                    // `newer` runs into `head`: only what is in front of it
                    // is new and may hold our key.
                    // SAFETY: `node` is unpublished — this thread has exclusive access —
                    // and `newer` and `head` are successive values of `bucket`.
                    let lost = unsafe { self.find(newer, head, &(*node).key) }.is_some();
                    if lost {
                        // SAFETY: `node` was never published, so this thread still owns it
                        // and the `Box::into_raw` above is reversed exactly once.
                        drop(unsafe { Box::from_raw(node) });
                        return false;
                    }
                    head = newer;
                    // SAFETY: as above, `node` is still unpublished.
                    unsafe { (*node).next = head };
                }
            }
        }
    }

    /// Returns a clone of the value recorded for `key`, if any.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        // ORDERING: Acquire pairs with the Release bucket CAS in `try_insert`.
        let head = self.bucket(key).load(Ordering::Acquire);
        // SAFETY: `head` was just loaded from this map's bucket.
        unsafe { self.find(head, ptr::null_mut(), key) }.map(|node| node.value.clone())
    }

    /// `true` if a value has been recorded for `key`.
    pub fn contains_key(&self, key: &K) -> bool {
        // ORDERING: Acquire pairs with the Release bucket CAS in `try_insert`.
        let head = self.bucket(key).load(Ordering::Acquire);
        // SAFETY: `head` was just loaded from this map's bucket.
        unsafe { self.find(head, ptr::null_mut(), key) }.is_some()
    }

    /// Number of hash buckets (diagnostics).
    pub fn bucket_count(&self) -> usize {
        self.mask + 1
    }

    /// Number of recorded entries (linear walk).
    pub fn len(&self) -> usize {
        let mut n = 0;
        for bucket in self.buckets() {
            // ORDERING: Acquire pairs with the Release bucket CAS in `try_insert`.
            let mut cur = bucket.load(Ordering::Acquire);
            while !cur.is_null() {
                n += 1;
                // SAFETY: `cur` was published by the Release CAS in `try_insert` and stays
                // linked until `Drop`.
                cur = unsafe { (*cur).next };
            }
        }
        n
    }

    /// `true` if no entry has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets()
            // ORDERING: Acquire pairs with the Release bucket CAS in `try_insert`.
            .all(|bucket| bucket.load(Ordering::Acquire).is_null())
    }

    /// Folds over all recorded `(key, value)` pairs in unspecified order.
    ///
    /// Intended for assembling the final operation result once the traverse
    /// queue has drained (the map can no longer change at that point, as the
    /// paper notes at the end of §II-B).
    pub fn fold<B, F: FnMut(B, &K, &V) -> B>(&self, init: B, mut f: F) -> B {
        let mut acc = init;
        for bucket in self.buckets() {
            // ORDERING: Acquire pairs with the Release bucket CAS in `try_insert`.
            let mut cur = bucket.load(Ordering::Acquire);
            while !cur.is_null() {
                // SAFETY: `cur` was published by the Release CAS in `try_insert` and stays
                // linked until `Drop`.
                let cur_ref = unsafe { &*cur };
                acc = f(acc, &cur_ref.key, &cur_ref.value);
                cur = cur_ref.next;
            }
        }
        acc
    }

    /// Collects all entries into a vector (unspecified order).
    pub fn entries(&self) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        self.fold(Vec::new(), |mut acc, k, v| {
            acc.push((k.clone(), v.clone()));
            acc
        })
    }
}

impl<K, V> Drop for FirstWriteMap<K, V> {
    fn drop(&mut self) {
        for bucket in std::iter::once(&mut self.first).chain(self.rest.iter_mut()) {
            let mut cur = *bucket.get_mut();
            while !cur.is_null() {
                // SAFETY: `drop` takes `&mut self`, so no other thread can reach the
                // chains; every node was allocated via `Box::into_raw` in `try_insert` and
                // is reclaimed exactly once by this walk.
                let node = unsafe { Box::from_raw(cur) };
                cur = node.next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn first_writer_wins() {
        let m: FirstWriteMap<u64, &str> = FirstWriteMap::new();
        assert!(m.try_insert(1, "first"));
        assert!(!m.try_insert(1, "second"));
        assert_eq!(m.get(&1), Some("first"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.bucket_count(), 1);
    }

    #[test]
    fn distinct_keys_coexist() {
        let m: FirstWriteMap<u64, u64> = FirstWriteMap::new();
        for k in 0..100 {
            assert!(m.try_insert(k, k * 2));
        }
        assert_eq!(m.len(), 100);
        for k in 0..100 {
            assert_eq!(m.get(&k), Some(k * 2));
        }
        assert_eq!(m.get(&100), None);
        assert!(!m.contains_key(&100));
        assert!(m.contains_key(&99));
    }

    #[test]
    fn bucketed_map_behaves_identically() {
        let m: FirstWriteMap<u64, u64> = FirstWriteMap::with_buckets(64);
        assert_eq!(m.bucket_count(), 64);
        for k in 0..10_000u64 {
            assert!(m.try_insert(k, k));
        }
        for k in 0..10_000u64 {
            assert!(!m.try_insert(k, k + 1), "key {k} must already be present");
            assert_eq!(m.get(&k), Some(k));
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.fold(0u64, |acc, _, v| acc + v), (0..10_000).sum::<u64>());
    }

    #[test]
    fn bucket_count_rounds_up_to_powers_of_two() {
        let m: FirstWriteMap<u64, ()> = FirstWriteMap::with_buckets(3);
        assert_eq!(m.bucket_count(), 4);
        let m: FirstWriteMap<u64, ()> = FirstWriteMap::with_buckets(0);
        assert_eq!(m.bucket_count(), 1);
    }

    #[test]
    fn fold_assembles_results() {
        let m: FirstWriteMap<u64, u64> = FirstWriteMap::new();
        for k in 1..=10 {
            m.try_insert(k, k);
        }
        let sum = m.fold(0u64, |acc, _, v| acc + v);
        assert_eq!(sum, 55);
        let mut entries = m.entries();
        entries.sort_unstable();
        assert_eq!(entries, (1..=10).map(|k| (k, k)).collect::<Vec<_>>());
    }

    #[test]
    fn empty_map_behaviour() {
        let m: FirstWriteMap<u64, u64> = FirstWriteMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(&1), None);
        assert_eq!(m.fold(0u64, |acc, _, v| acc + v), 0);
    }

    #[test]
    fn concurrent_racers_exactly_one_wins_per_key() {
        const KEYS: u64 = 200;
        const THREADS: usize = 4;
        let m: Arc<FirstWriteMap<u64, usize>> = Arc::new(FirstWriteMap::with_buckets(8));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let mut wins = Vec::new();
                for k in 0..KEYS {
                    if m.try_insert(k, t) {
                        wins.push(k);
                    }
                }
                wins
            }));
        }
        let all_wins: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let total: usize = all_wins.iter().map(|w| w.len()).sum();
        assert_eq!(total as u64, KEYS, "every key must be won exactly once");
        assert_eq!(m.len() as u64, KEYS);
        // The stored value must belong to the thread that reported the win.
        for (t, wins) in all_wins.iter().enumerate() {
            for k in wins {
                assert_eq!(m.get(k), Some(t));
            }
        }
    }

    #[test]
    fn drop_frees_values() {
        struct CountDrop(Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for CountDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        {
            let m: FirstWriteMap<u64, CountDrop> = FirstWriteMap::new();
            for k in 0..5 {
                m.try_insert(k, CountDrop(Arc::clone(&drops)));
            }
            // A losing insert must also free its value.
            m.try_insert(0, CountDrop(Arc::clone(&drops)));
        }
        assert_eq!(drops.load(Ordering::Relaxed), 6);
    }
}
