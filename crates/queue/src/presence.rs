//! The presence index: fixing update effects at the linearization point.
//!
//! The paper maintains augmentation values **eagerly, top down**: the moment
//! an update descriptor is executed in a node, the augmentation value of the
//! child it descends into is adjusted, so that aggregate queries with larger
//! timestamps already observe the update high up in the tree (§II-C and the
//! `⟨v.Id, 5⟩/⟨v.Id, 6⟩` scenario of §II-B). This only works if the *effect*
//! of the update — did the `insert` succeed? which value does the `remove`
//! delete? — is known by the time the descriptor leaves the root, because
//! that is where the first augmentation adjustment happens.
//!
//! The paper leaves this resolution step implicit. We make it explicit with
//! a dedicated substrate, the **presence index**: a concurrent hash index
//! mapping every key that was ever touched by an update to
//! `(present, value, last_update_timestamp)`. While a descriptor is executed
//! at the fictive root — i.e. still in strict timestamp order — the
//! executing process *resolves* the update against the index:
//!
//! 1. load the entry's state; if its timestamp is already `>= ts`, the
//!    update was resolved by another helper and its published
//!    [`Decision`] is returned;
//! 2. otherwise compute the decision from the state (insert succeeds iff the
//!    key is absent, remove succeeds iff present), publish it in the
//!    descriptor's write-once decision cell (first publisher wins), and
//! 3. advance the entry with a timestamp-guarded CAS.
//!
//! The protocol is idempotent under any number of helpers and stalled
//! processes: a stale helper either observes an already-advanced entry (and
//! reads the published decision) or loses the CAS race, so every update is
//! applied to the index exactly once and every helper returns the same
//! decision. See DESIGN.md §3 for the full argument and why this preserves
//! the paper's linearization order and wait-freedom.
//!
//! The index is insert-only (removed keys stay with `present = false`) and
//! uses a fixed number of buckets chosen at construction; bucket chains are
//! freed on `Drop`, replaced state records are retired through the epoch
//! collector.

use crossbeam_epoch::{Atomic, Guard, Owned};
use std::hash::{Hash, Hasher};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::timestamp::Timestamp;

/// Default number of hash buckets (tuned for the paper's 2·10^6-key
/// workloads; collisions only degrade constants, never correctness).
pub const DEFAULT_BUCKETS: usize = 1 << 16;

/// The kind of update being resolved.
#[derive(Debug, Clone)]
pub enum UpdateKind<V> {
    /// `insert(key, value)`: succeeds iff the key is currently absent.
    Insert(V),
    /// `replace(key, value)`: always succeeds, overwriting any current value
    /// (the decision's `prior_value` reports what was overwritten).
    Replace(V),
    /// `remove(key)`: succeeds iff the key is currently present.
    Remove,
}

/// The resolved effect of an update, fixed at its linearization point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision<V> {
    /// Whether the update succeeds (modifies the set).
    pub success: bool,
    /// The value previously associated with the key (needed to undo its
    /// augmentation contribution on a successful `remove`, and reported for
    /// unsuccessful `insert`s).
    pub prior_value: Option<V>,
}

/// A snapshot of one key's state in the index (diagnostics and tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PresenceSnapshot<V> {
    /// Whether the key is present after all updates up to `last_ts`.
    pub present: bool,
    /// The associated value if present.
    pub value: Option<V>,
    /// Timestamp of the last update applied to this key (zero if none).
    pub last_ts: Timestamp,
}

/// Immutable, epoch-managed state record of one key.
struct KeyState<V> {
    present: bool,
    value: Option<V>,
    ts: Timestamp,
}

/// One key's entry: bucket-chain link plus the swappable state record.
struct KeyEntry<K, V> {
    key: K,
    state: Atomic<KeyState<V>>,
    next: AtomicPtr<KeyEntry<K, V>>,
}

/// Concurrent per-key last-update index. See the module documentation.
pub struct PresenceIndex<K, V> {
    buckets: Box<[AtomicPtr<KeyEntry<K, V>>]>,
    mask: usize,
    entries: AtomicUsize,
}

// SAFETY: the index owns its entries and state records; all shared access
// goes through atomics, and the `K: Send + Sync`, `V: Send + Sync` bounds
// keep the payload thread-safe, so the raw-pointer fields do not impede Send.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for PresenceIndex<K, V> {}
// SAFETY: same argument as `Send` — shared readers only follow atomically
// published pointers to immutable entries/records.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for PresenceIndex<K, V> {}

impl<K, V> PresenceIndex<K, V>
where
    K: Hash + Eq + Clone,
    V: Clone,
{
    /// Creates an index with the default bucket count.
    pub fn new() -> Self {
        Self::with_buckets(DEFAULT_BUCKETS)
    }

    /// Creates an index with at least `buckets` hash buckets (rounded up to
    /// a power of two, minimum 2).
    pub fn with_buckets(buckets: usize) -> Self {
        let n = buckets.next_power_of_two().max(2);
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || AtomicPtr::new(ptr::null_mut()));
        PresenceIndex {
            buckets: v.into_boxed_slice(),
            mask: n - 1,
            entries: AtomicUsize::new(0),
        }
    }

    fn bucket_of(&self, key: &K) -> &AtomicPtr<KeyEntry<K, V>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.buckets[(hasher.finish() as usize) & self.mask]
    }

    /// Finds the entry for `key`, inserting a fresh (absent, ts 0) entry if
    /// none exists. Returns a reference valid for the index's lifetime
    /// (entries are never unlinked before `Drop`).
    fn entry(&self, key: &K) -> &KeyEntry<K, V> {
        let bucket = self.bucket_of(key);
        // Fast path: the key is usually already in the chain.
        // ORDERING: Acquire pairs with the Release bucket-head CAS in the insert
        // loop below, so a found entry's fields (key, initial state) are visible.
        if let Some(found) = Self::find(bucket.load(Ordering::Acquire), key) {
            return found;
        }
        let fresh = Box::into_raw(Box::new(KeyEntry {
            key: key.clone(),
            state: Atomic::new(KeyState {
                present: false,
                value: None,
                ts: Timestamp::ZERO,
            }),
            next: AtomicPtr::new(ptr::null_mut()),
        }));
        loop {
            // ORDERING: Acquire pairs with the Release bucket-head CAS so the chain we
            // re-walk includes every published entry.
            let head = bucket.load(Ordering::Acquire);
            if let Some(found) = Self::find(head, key) {
                // Someone else inserted it; discard our speculative entry.
                // SAFETY: `fresh` was never published.
                unsafe {
                    let boxed = Box::from_raw(fresh);
                    // The unpublished entry owns its initial state record.
                    drop(
                        boxed
                            .state
                            .load(Ordering::Relaxed, crossbeam_epoch::unprotected())
                            .into_owned(),
                    );
                    drop(boxed);
                }
                return found;
            }
            // SAFETY: `fresh` is still unpublished — this thread has exclusive access
            // until the CAS below succeeds.
            unsafe { (*fresh).next.store(head, Ordering::Relaxed) };
            if bucket
                // ORDERING: Release publishes the fully initialised entry (key, state
                // record, next link) to the Acquire bucket loads above; failure re-reads the
                // head with Acquire to re-walk the updated chain.
                .compare_exchange(head, fresh, Ordering::Release, Ordering::Acquire)
                .is_ok()
            {
                self.entries.fetch_add(1, Ordering::Relaxed);
                // SAFETY: the CAS published `fresh` into the bucket chain; entries are never
                // unlinked before `Drop` takes `&mut self`, so the reference is valid for
                // the index's (and hence the caller's borrow) lifetime.
                return unsafe { &*fresh };
            }
        }
    }

    fn find<'a>(mut cur: *mut KeyEntry<K, V>, key: &K) -> Option<&'a KeyEntry<K, V>> {
        while !cur.is_null() {
            // SAFETY: `cur` came from a bucket head or `next` link published by the
            // Release CAS in `entry`; entries are never unlinked before `Drop`.
            let entry = unsafe { &*cur };
            if &entry.key == key {
                return Some(entry);
            }
            // ORDERING: Acquire pairs with the Relaxed store + Release CAS publication
            // ordering in `entry` — the `next` field is written before the entry is
            // published, so a non-null next pointer is always a fully initialised entry.
            cur = entry.next.load(Ordering::Acquire);
        }
        None
    }

    /// Pre-loads the index with an initially present key (used when a tree
    /// is bulk-constructed from existing entries before any concurrent
    /// operation starts).
    pub fn prefill(&self, key: K, value: V, guard: &Guard) {
        let entry = self.entry(&key);
        let new = Owned::new(KeyState {
            present: true,
            value: Some(value),
            ts: Timestamp::ZERO,
        });
        // ORDERING: AcqRel — Release publishes the new state record, Acquire orders
        // the swap after construction-time readers (prefill races no concurrent
        // resolve by contract, but a torn record must still never be observable).
        let old = entry.state.swap(new, Ordering::AcqRel, guard);
        if !old.is_null() {
            // SAFETY: `old` was the published state record; after the swap no new
            // reader can reach it, and current readers hold guards, so `defer_destroy`
            // is the unique retirement (swap returns the old pointer exactly once).
            unsafe { guard.defer_destroy(old) };
        }
    }

    /// Resolves the update `(key, ts, kind)` against the index, publishing
    /// the decision in `decision_cell` (first publisher wins) and advancing
    /// the key's state exactly once. Every helper of the same descriptor
    /// returns the same [`Decision`]; the second element of the returned pair
    /// is `true` for exactly the one caller whose CAS advanced the index
    /// (useful for exactly-once accounting such as size counters).
    ///
    /// Must be called while the descriptor with timestamp `ts` is being
    /// executed at the fictive root, i.e. while every update with a smaller
    /// timestamp has already been resolved — the tree guarantees this by
    /// construction (strict queue order at the root).
    pub fn resolve(
        &self,
        key: &K,
        ts: Timestamp,
        kind: &UpdateKind<V>,
        decision_cell: &OnceLock<Decision<V>>,
        guard: &Guard,
    ) -> (Decision<V>, bool) {
        let entry = self.entry(key);
        loop {
            // ORDERING: Acquire pairs with the Release half of the state CAS below, so
            // the record's fields are visible before we read them.
            let state = entry.state.load(Ordering::Acquire, guard);
            // The entry always carries a state record.
            // SAFETY: a `KeyEntry` always carries a non-null state record (installed at
            // construction, only ever swapped for another record) and records are
            // retired via `defer_destroy`, so the deref is valid under `guard`.
            let state_ref = unsafe { state.deref() };
            if state_ref.ts >= ts {
                // Already applied (possibly by a faster helper of this very
                // descriptor); the decision was published before the index
                // advanced, so it must be available.
                return (
                    decision_cell
                        .get()
                        .expect("presence index advanced past ts before decision was published")
                        .clone(),
                    false,
                );
            }
            // Compute the decision from the (stable) pre-state.
            let computed = match kind {
                UpdateKind::Insert(_) => Decision {
                    success: !state_ref.present,
                    prior_value: state_ref.value.clone(),
                },
                // A replace always takes effect; `prior_value` carries the
                // overwritten value (None when the key was absent), which is
                // both the caller's return value and the augmentation delta's
                // subtrahend.
                UpdateKind::Replace(_) => Decision {
                    success: true,
                    prior_value: state_ref.value.clone(),
                },
                UpdateKind::Remove => Decision {
                    success: state_ref.present,
                    prior_value: state_ref.value.clone(),
                },
            };
            // First publisher wins; everyone uses the published decision.
            let decision = decision_cell.get_or_init(|| computed).clone();
            // Advance the index. Unsuccessful updates still advance the
            // timestamp so stale helpers can detect that resolution is done.
            let new_state = match (&decision.success, kind) {
                (true, UpdateKind::Insert(v)) | (true, UpdateKind::Replace(v)) => KeyState {
                    present: true,
                    value: Some(v.clone()),
                    ts,
                },
                (true, UpdateKind::Remove) => KeyState {
                    present: false,
                    value: None,
                    ts,
                },
                (false, _) => KeyState {
                    present: state_ref.present,
                    value: state_ref.value.clone(),
                    ts,
                },
            };
            // ORDERING: AcqRel — Release publishes the new record's fields to the
            // Acquire load at the top of the loop (and to every reader), Acquire orders
            // the advance after the decision publication in `decision_cell`; failure
            // Acquire re-reads the state another helper installed.
            match entry.state.compare_exchange(
                state,
                Owned::new(new_state),
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            ) {
                Ok(_) => {
                    // SAFETY: our CAS unlinked `state` from the entry; exactly one helper wins
                    // the CAS for a given predecessor record, so it is retired exactly once,
                    // and concurrent readers are protected by their guards.
                    unsafe { guard.defer_destroy(state) };
                    return (decision, true);
                }
                Err(_) => {
                    // Another helper advanced the entry; loop and re-examine
                    // (we will take the `ts >= ts` branch or retry against
                    // the new state).
                }
            }
        }
    }

    /// Current snapshot of `key`'s state (absent keys report `present =
    /// false` with timestamp zero). Primarily for tests and diagnostics.
    pub fn snapshot(&self, key: &K, guard: &Guard) -> PresenceSnapshot<V> {
        let bucket = self.bucket_of(key);
        // ORDERING: Acquire pairs with the Release bucket-head CAS in `entry`.
        match Self::find(bucket.load(Ordering::Acquire), key) {
            None => PresenceSnapshot {
                present: false,
                value: None,
                last_ts: Timestamp::ZERO,
            },
            Some(entry) => {
                // ORDERING: Acquire pairs with the Release state CAS in `resolve`.
                let state = entry.state.load(Ordering::Acquire, guard);
                // SAFETY: state records are non-null by construction and epoch-protected
                // under `guard`; see `resolve`.
                let state_ref = unsafe { state.deref() };
                PresenceSnapshot {
                    present: state_ref.present,
                    value: state_ref.value.clone(),
                    last_ts: state_ref.ts,
                }
            }
        }
    }

    /// Whether `key` is currently marked present.
    pub fn is_present(&self, key: &K, guard: &Guard) -> bool {
        self.contains_key(key, guard)
    }

    /// Lock-free snapshot read of `key`'s current value: one bucket walk and
    /// one state-record load, no allocation, and the value is cloned only
    /// when the key is present (this *is* the caller's return value).
    ///
    /// Linearizes at the atomic load of the state record: updates are applied
    /// to the index exactly once, in strict root-queue timestamp order, at
    /// their linearization point (see [`PresenceIndex::resolve`]), so the
    /// loaded record is the authoritative outcome of the last linearized
    /// update on `key`. This is the tree's `O(1)` read fast path.
    pub fn read_value(&self, key: &K, guard: &Guard) -> Option<V> {
        let bucket = self.bucket_of(key);
        let entry = Self::find(bucket.load(Ordering::Acquire), key)?; // ORDERING: pairs with the Release bucket-head CAS in `entry`.
        let state = entry.state.load(Ordering::Acquire, guard); // ORDERING: pairs with the Release state CAS in `resolve` — this load is the read's linearization point.
                                                                // SAFETY: state records are non-null by construction and epoch-protected
                                                                // under `guard`; see `resolve`.
        let state_ref = unsafe { state.deref() };
        if state_ref.present {
            state_ref.value.clone()
        } else {
            None
        }
    }

    /// Lock-free presence test: like [`PresenceIndex::read_value`] but never
    /// clones the value — the whole read is a bucket walk plus one boolean
    /// field load. Backs the tree's allocation-free `contains`.
    pub fn contains_key(&self, key: &K, guard: &Guard) -> bool {
        let bucket = self.bucket_of(key);
        // ORDERING: pairs with the Release bucket-head CAS in `entry`.
        match Self::find(bucket.load(Ordering::Acquire), key) {
            None => false,
            Some(entry) => {
                let state = entry.state.load(Ordering::Acquire, guard); // ORDERING: pairs with the Release state CAS in `resolve` — the read's linearization point.
                                                                        // SAFETY: state records are non-null by construction and epoch-protected
                                                                        // under `guard`; see `resolve`.
                unsafe { state.deref() }.present
            }
        }
    }

    /// Number of distinct keys ever touched by an update (present or not).
    pub fn tracked_keys(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Number of hash buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }
}

impl<K, V> Default for PresenceIndex<K, V>
where
    K: Hash + Eq + Clone,
    V: Clone,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Drop for PresenceIndex<K, V> {
    fn drop(&mut self) {
        // Exclusive access: free every bucket chain and the state record of
        // every entry.
        for bucket in self.buckets.iter() {
            let mut cur = bucket.load(Ordering::Relaxed);
            while !cur.is_null() {
                // SAFETY: `Drop` takes `&mut self`, so no other thread can reach the chain;
                // each entry was allocated with `Box::into_raw` in `entry` and is reclaimed
                // exactly once by this walk.
                let entry = unsafe { Box::from_raw(cur) };
                // SAFETY: exclusive access (see above); the entry's state record is always
                // non-null and owned solely by the entry at this point.
                unsafe {
                    let state = entry
                        .state
                        .load(Ordering::Relaxed, crossbeam_epoch::unprotected());
                    if !state.is_null() {
                        drop(state.into_owned());
                    }
                }
                cur = entry.next.load(Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_epoch as epoch;
    use std::sync::Arc;

    type Index = PresenceIndex<i64, i64>;

    fn resolve_one(index: &Index, key: i64, ts: u64, kind: UpdateKind<i64>) -> Decision<i64> {
        let cell = OnceLock::new();
        let guard = epoch::pin();
        index.resolve(&key, Timestamp(ts), &kind, &cell, &guard).0
    }

    #[test]
    fn insert_then_remove_then_insert() {
        let index = Index::with_buckets(64);
        let d = resolve_one(&index, 5, 1, UpdateKind::Insert(50));
        assert!(d.success);
        assert_eq!(d.prior_value, None);

        let d = resolve_one(&index, 5, 2, UpdateKind::Insert(51));
        assert!(!d.success, "duplicate insert must fail");
        assert_eq!(d.prior_value, Some(50));

        let d = resolve_one(&index, 5, 3, UpdateKind::Remove);
        assert!(d.success);
        assert_eq!(d.prior_value, Some(50));

        let d = resolve_one(&index, 5, 4, UpdateKind::Remove);
        assert!(!d.success, "removing an absent key must fail");

        let d = resolve_one(&index, 5, 5, UpdateKind::Insert(52));
        assert!(d.success, "re-inserting after removal must succeed");

        let guard = epoch::pin();
        let snap = index.snapshot(&5, &guard);
        assert!(snap.present);
        assert_eq!(snap.value, Some(52));
        assert_eq!(snap.last_ts, Timestamp(5));
    }

    #[test]
    fn replace_always_succeeds_and_reports_the_prior_value() {
        let index = Index::with_buckets(64);
        let d = resolve_one(&index, 8, 1, UpdateKind::Replace(80));
        assert!(d.success, "replace of an absent key applies");
        assert_eq!(d.prior_value, None);

        let d = resolve_one(&index, 8, 2, UpdateKind::Replace(81));
        assert!(d.success, "replace of a present key applies");
        assert_eq!(d.prior_value, Some(80));

        let guard = epoch::pin();
        let snap = index.snapshot(&8, &guard);
        assert!(snap.present);
        assert_eq!(snap.value, Some(81));

        let d = resolve_one(&index, 8, 3, UpdateKind::Remove);
        assert!(d.success);
        assert_eq!(d.prior_value, Some(81));
    }

    #[test]
    fn remove_on_untouched_key_fails() {
        let index = Index::with_buckets(64);
        let d = resolve_one(&index, 99, 1, UpdateKind::Remove);
        assert!(!d.success);
        assert_eq!(d.prior_value, None);
        let guard = epoch::pin();
        assert!(!index.is_present(&99, &guard));
    }

    #[test]
    fn prefill_marks_keys_present() {
        let index = Index::with_buckets(64);
        {
            let guard = epoch::pin();
            index.prefill(7, 70, &guard);
        }
        let d = resolve_one(&index, 7, 1, UpdateKind::Insert(71));
        assert!(!d.success, "prefilled key is already present");
        let d = resolve_one(&index, 7, 2, UpdateKind::Remove);
        assert!(d.success);
        assert_eq!(d.prior_value, Some(70));
    }

    #[test]
    fn helpers_of_the_same_descriptor_agree() {
        // Simulate many helpers racing to resolve the same descriptor: all
        // must return the identical decision and the index must advance once.
        let index = Arc::new(Index::with_buckets(64));
        {
            let guard = epoch::pin();
            index.prefill(1, 10, &guard);
        }
        let cell: Arc<OnceLock<Decision<i64>>> = Arc::new(OnceLock::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let index = Arc::clone(&index);
            let cell = Arc::clone(&cell);
            handles.push(std::thread::spawn(move || {
                let guard = epoch::pin();
                index.resolve(&1, Timestamp(7), &UpdateKind::Remove, &cell, &guard)
            }));
        }
        let results: Vec<(Decision<i64>, bool)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (d, _) in &results {
            assert_eq!(d, &results[0].0);
        }
        assert!(results[0].0.success);
        assert_eq!(
            results.iter().filter(|(_, applied)| *applied).count(),
            1,
            "exactly one helper may report having advanced the index"
        );
        let guard = epoch::pin();
        let snap = index.snapshot(&1, &guard);
        assert_eq!(snap.last_ts, Timestamp(7));
        assert!(!snap.present);
    }

    #[test]
    fn late_helper_observes_published_decision() {
        // A helper that arrives after the index already advanced past its
        // timestamp must return the decision published earlier, not
        // recompute one from the newer state.
        let index = Index::with_buckets(64);
        let guard = epoch::pin();
        let cell_insert = OnceLock::new();
        let (d1, applied) = index.resolve(
            &3,
            Timestamp(1),
            &UpdateKind::Insert(30),
            &cell_insert,
            &guard,
        );
        assert!(d1.success);
        assert!(applied);
        // A later operation removes the key, advancing the index to ts 2.
        let cell_remove = OnceLock::new();
        index.resolve(&3, Timestamp(2), &UpdateKind::Remove, &cell_remove, &guard);
        // A stale helper of the ts-1 insert now arrives.
        let (d_late, applied_late) = index.resolve(
            &3,
            Timestamp(1),
            &UpdateKind::Insert(30),
            &cell_insert,
            &guard,
        );
        assert_eq!(d_late, d1, "stale helper must see the published decision");
        assert!(!applied_late, "a stale helper never advances the index");
    }

    #[test]
    fn distinct_keys_resolve_independently_under_concurrency() {
        // Each thread owns a disjoint key set; the only sharing is the hash
        // buckets (kept deliberately small to force chain collisions). The
        // per-key timestamp-order precondition of `resolve` is respected
        // because no two threads ever touch the same key.
        const KEYS: i64 = 500;
        const THREADS: i64 = 4;
        let index = Arc::new(Index::with_buckets(32)); // force collisions
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let index = Arc::clone(&index);
            handles.push(std::thread::spawn(move || {
                for k in 0..KEYS {
                    let key = t * KEYS + k;
                    let ts = (key as u64) + 1;
                    let cell = OnceLock::new();
                    let guard = epoch::pin();
                    index.resolve(&key, Timestamp(ts), &UpdateKind::Insert(key), &cell, &guard);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let guard = epoch::pin();
        for key in 0..THREADS * KEYS {
            assert!(index.is_present(&key, &guard), "key {key} must be present");
        }
        assert_eq!(index.tracked_keys() as i64, THREADS * KEYS);
    }

    #[test]
    fn read_value_and_contains_key_track_resolutions() {
        let index = Index::with_buckets(64);
        let guard = epoch::pin();
        assert_eq!(index.read_value(&5, &guard), None);
        assert!(!index.contains_key(&5, &guard));

        resolve_one(&index, 5, 1, UpdateKind::Insert(50));
        assert_eq!(index.read_value(&5, &guard), Some(50));
        assert!(index.contains_key(&5, &guard));

        resolve_one(&index, 5, 2, UpdateKind::Replace(51));
        assert_eq!(index.read_value(&5, &guard), Some(51));

        resolve_one(&index, 5, 3, UpdateKind::Remove);
        assert_eq!(index.read_value(&5, &guard), None);
        assert!(!index.contains_key(&5, &guard));

        index.prefill(6, 60, &guard);
        assert_eq!(index.read_value(&6, &guard), Some(60));
    }

    #[test]
    fn bucket_count_is_power_of_two() {
        let index = Index::with_buckets(1000);
        assert_eq!(index.bucket_count(), 1024);
        let index = Index::with_buckets(0);
        assert_eq!(index.bucket_count(), 2);
    }
}
