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
//! 1. load the key's current state; if its timestamp is already `>= ts`,
//!    the update was resolved by another helper and its published
//!    [`Decision`] is returned;
//! 2. otherwise compute the decision from the state (insert succeeds iff the
//!    key is absent, remove succeeds iff present), publish it in the
//!    descriptor's write-once decision cell (first publisher wins), and
//! 3. advance the key with a timestamp-guarded CAS.
//!
//! A key the index has never seen has the absent pre-state; its first
//! update publishes the decision and then links an entry *born* with the
//! resolved state by one bucket-head CAS, so step 3 is that CAS.
//!
//! The protocol is idempotent under any number of helpers and stalled
//! processes: a stale helper either observes an already-advanced key (and
//! reads the published decision) or loses the CAS race, so every update is
//! applied to the index exactly once and every helper returns the same
//! decision. See DESIGN.md §3 for the full argument and why this preserves
//! the paper's linearization order and wait-freedom.
//!
//! The index is insert-only (removed keys stay with `present = false`) and
//! uses a fixed number of buckets chosen at construction. An entry carries
//! the state it was published with inline and is freed on `Drop`; the
//! records of later changes are swapped in beside it and retired through
//! the epoch collector.

use crossbeam_epoch::{Atomic, Guard, Owned, Shared};
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

/// Immutable state of one key: inline in its entry, or an epoch-managed
/// record swapped in by a later change.
struct KeyState<V> {
    present: bool,
    value: Option<V>,
    ts: Timestamp,
}

impl<V: Clone> KeyState<V> {
    /// The state of a key no update has touched.
    const ABSENT: KeyState<V> = KeyState {
        present: false,
        value: None,
        ts: Timestamp::ZERO,
    };

    /// The decision of `kind` against this pre-state, published in `cell`
    /// (first publisher wins); returns the published one.
    fn decide(&self, kind: &UpdateKind<V>, cell: &OnceLock<Decision<V>>) -> Decision<V> {
        let success = match kind {
            UpdateKind::Insert(_) => !self.present,
            // A replace always takes effect; `prior_value` carries the
            // overwritten value (None when the key was absent), which is
            // both the caller's return value and the augmentation delta's
            // subtrahend.
            UpdateKind::Replace(_) => true,
            UpdateKind::Remove => self.present,
        };
        cell.get_or_init(|| Decision {
            success,
            prior_value: self.value.clone(),
        })
        .clone()
    }

    /// The state this one advances to once the update `(ts, kind)` resolves
    /// with `decision`. An unsuccessful update still stamps `ts`, so stale
    /// helpers can detect that resolution is done.
    fn after(&self, decision: &Decision<V>, kind: &UpdateKind<V>, ts: Timestamp) -> Self {
        match (decision.success, kind) {
            (true, UpdateKind::Insert(v) | UpdateKind::Replace(v)) => KeyState {
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
                present: self.present,
                value: self.value.clone(),
                ts,
            },
        }
    }
}

/// One key's entry: bucket-chain link, the state it was published with,
/// and the record of its latest change since.
struct KeyEntry<K, V> {
    key: K,
    /// The state the entry was published with; never changes after
    /// publication.
    first: KeyState<V>,
    /// Null until the key's first change after publication, then the
    /// current state record. The entry owns it.
    state: Atomic<KeyState<V>>,
    next: AtomicPtr<KeyEntry<K, V>>,
}

impl<K, V> KeyEntry<K, V> {
    /// The key's current state: the swapped-in record if there is one, else
    /// `first`. Also returns the record pointer (null while `first` is
    /// current), which `resolve` expects in its CAS.
    fn current<'g>(&'g self, guard: &'g Guard) -> (Shared<'g, KeyState<V>>, &'g KeyState<V>) {
        // ORDERING: Acquire pairs with the Release half of the state CAS in
        // `advance`, so a record's fields are visible before they are read.
        let record = self.state.load(Ordering::Acquire, guard);
        // SAFETY: a non-null record was published by the state CAS in `advance`
        // and is retired only through `defer_destroy` once a later CAS unlinks
        // it, so it stays valid while `guard` is pinned.
        let state = unsafe { record.as_ref() }.unwrap_or(&self.first);
        (record, state)
    }
}

impl<K, V> Drop for KeyEntry<K, V> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` — no thread can still reach the entry, so the
        // record in `state` (if any) is owned solely by it and freed once.
        unsafe {
            let record = self
                .state
                .load(Ordering::Relaxed, crossbeam_epoch::unprotected());
            if !record.is_null() {
                drop(record.into_owned());
            }
        }
    }
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

    fn slot_of(&self, key: &K) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) & self.mask
    }

    fn bucket_of(&self, key: &K) -> &AtomicPtr<KeyEntry<K, V>> {
        &self.buckets[self.slot_of(key)]
    }

    /// The published entry of `key`, if an update has touched it. Entries
    /// are never unlinked before `Drop`, so the reference lives as long as
    /// the index.
    fn lookup(&self, key: &K) -> Option<&KeyEntry<K, V>> {
        // ORDERING: Acquire pairs with the Release bucket-head CAS in `resolve`,
        // so a found entry's fields (key, `first`, next link) are visible.
        Self::find(self.bucket_of(key).load(Ordering::Acquire), key)
    }

    fn find<'a>(mut cur: *mut KeyEntry<K, V>, key: &K) -> Option<&'a KeyEntry<K, V>> {
        while !cur.is_null() {
            // SAFETY: `cur` came from a bucket head or `next` link published by the
            // Release CAS in `resolve` (or by `prefill` under `&mut self`); entries
            // are never unlinked before `Drop`.
            let entry = unsafe { &*cur };
            if &entry.key == key {
                return Some(entry);
            }
            // ORDERING: Acquire pairs with the Relaxed store + Release CAS publication
            // ordering in `resolve` — the `next` field is written before the entry is
            // published, so a non-null next pointer is always a fully initialised entry.
            cur = entry.next.load(Ordering::Acquire);
        }
        None
    }

    /// Bulk-loads an initially present key while the index is still owned
    /// by one thread (a tree being built from existing entries). The key's
    /// entry is born present at timestamp zero: one allocation, no pin and
    /// no atomic read-modify-write. Loading a key twice keeps one entry
    /// holding the later value.
    pub fn prefill(&mut self, key: K, value: V) {
        let born = KeyState {
            present: true,
            value: Some(value),
            ts: Timestamp::ZERO,
        };
        let slot = self.slot_of(&key);
        let head = self.buckets[slot].get_mut();
        let mut cur = *head;
        while !cur.is_null() {
            // SAFETY: `&mut self` — no other thread can reach the chain, and
            // every entry was boxed by this index and stays linked until `Drop`.
            let entry = unsafe { &mut *cur };
            if entry.key == key {
                // Replacing the entry frees any record a resolution swapped in.
                let next = *entry.next.get_mut();
                *entry = KeyEntry {
                    key,
                    first: born,
                    state: Atomic::null(),
                    next: AtomicPtr::new(next),
                };
                return;
            }
            cur = *entry.next.get_mut();
        }
        *head = Box::into_raw(Box::new(KeyEntry {
            key,
            first: born,
            state: Atomic::null(),
            next: AtomicPtr::new(*head),
        }));
        *self.entries.get_mut() += 1;
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
        let bucket = self.bucket_of(key);
        // ORDERING: Acquire pairs with the Release bucket-head CAS below, so a
        // found entry's fields are visible.
        if let Some(entry) = Self::find(bucket.load(Ordering::Acquire), key) {
            return Self::advance(entry, ts, kind, decision_cell, guard);
        }
        // A key no update has touched: every update before `ts` is resolved,
        // so its pre-state is absent. Publish the decision, then link an
        // entry born with the resolved state.
        let decision = KeyState::ABSENT.decide(kind, decision_cell);
        let fresh = Box::into_raw(Box::new(KeyEntry {
            key: key.clone(),
            first: KeyState::ABSENT.after(&decision, kind, ts),
            state: Atomic::null(),
            next: AtomicPtr::new(ptr::null_mut()),
        }));
        loop {
            // ORDERING: Acquire pairs with the Release bucket-head CAS so the chain we
            // re-walk includes every published entry.
            let head = bucket.load(Ordering::Acquire);
            if let Some(found) = Self::find(head, key) {
                // Another helper linked the key first (its entry is stamped
                // `ts` or later), so this resolution is done: discard the
                // unpublished entry and report the published decision.
                // SAFETY: `fresh` was never published; this thread owns it.
                drop(unsafe { Box::from_raw(fresh) });
                return Self::advance(found, ts, kind, decision_cell, guard);
            }
            // SAFETY: `fresh` is still unpublished — this thread has exclusive access
            // until the CAS below succeeds.
            unsafe { (*fresh).next.store(head, Ordering::Relaxed) };
            if bucket
                // ORDERING: Release publishes the fully initialised entry (key, `first`,
                // next link) to the Acquire bucket loads; failure re-reads the head with
                // Acquire to re-walk the updated chain.
                .compare_exchange(head, fresh, Ordering::Release, Ordering::Acquire)
                .is_ok()
            {
                self.entries.fetch_add(1, Ordering::Relaxed);
                return (decision, true);
            }
        }
    }

    /// `resolve` for a key whose entry is published: advances its current
    /// state with a timestamp-guarded CAS of the state record.
    fn advance(
        entry: &KeyEntry<K, V>,
        ts: Timestamp,
        kind: &UpdateKind<V>,
        decision_cell: &OnceLock<Decision<V>>,
        guard: &Guard,
    ) -> (Decision<V>, bool) {
        loop {
            let (record, state) = entry.current(guard);
            if state.ts >= ts {
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
            let decision = state.decide(kind, decision_cell);
            let next = Owned::new(state.after(&decision, kind, ts));
            // ORDERING: AcqRel — Release publishes the new record's fields to the
            // Acquire load in `current` (and to every reader), Acquire orders the
            // advance after the decision publication in `decision_cell`; failure
            // Acquire re-reads the state another helper installed.
            match entry.state.compare_exchange(
                record,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            ) {
                Ok(_) => {
                    if !record.is_null() {
                        // SAFETY: our CAS unlinked `record` from the entry; exactly one helper
                        // wins the CAS for a given predecessor record, so it is retired
                        // exactly once, and concurrent readers are protected by their guards.
                        unsafe { guard.defer_destroy(record) };
                    }
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
        let absent = KeyState::ABSENT;
        let state = match self.lookup(key) {
            Some(entry) => entry.current(guard).1,
            None => &absent,
        };
        PresenceSnapshot {
            present: state.present,
            value: state.value.clone(),
            last_ts: state.ts,
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
    /// Linearizes at the atomic load of the state record (or, for a key not
    /// changed since its entry was linked, of the bucket link that published
    /// the entry): updates are applied to the index exactly once, in strict
    /// root-queue timestamp order, at their linearization point (see
    /// [`PresenceIndex::resolve`]), so the loaded state is the authoritative
    /// outcome of the last linearized update on `key`. This is the tree's
    /// `O(1)` read fast path.
    pub fn read_value(&self, key: &K, guard: &Guard) -> Option<V> {
        let state = self.lookup(key)?.current(guard).1;
        if state.present {
            state.value.clone()
        } else {
            None
        }
    }

    /// Lock-free presence test: like [`PresenceIndex::read_value`] but never
    /// clones the value — the whole read is a bucket walk plus one boolean
    /// field load. Backs the tree's allocation-free `contains`.
    pub fn contains_key(&self, key: &K, guard: &Guard) -> bool {
        self.lookup(key)
            .is_some_and(|entry| entry.current(guard).1.present)
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
        // Exclusive access: free every bucket chain (each entry frees its
        // own state record).
        for bucket in self.buckets.iter_mut() {
            let mut cur = *bucket.get_mut();
            while !cur.is_null() {
                // SAFETY: `Drop` takes `&mut self`, so no other thread can reach the chain;
                // each entry was allocated with `Box::into_raw` in `resolve` or `prefill`
                // and is reclaimed exactly once by this walk.
                let mut entry = unsafe { Box::from_raw(cur) };
                cur = *entry.next.get_mut();
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
        let mut index = Index::with_buckets(64);
        index.prefill(7, 70);
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
        let mut index = Index::with_buckets(64);
        index.prefill(1, 10);
        let index = Arc::new(index);
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
        let mut index = Index::with_buckets(64);
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

        index.prefill(6, 60);
        assert_eq!(index.read_value(&6, &guard), Some(60));
    }

    #[test]
    fn helpers_racing_on_a_never_seen_key_link_one_entry() {
        // Every helper finds no entry, computes the decision from the absent
        // pre-state and races its own born-resolved entry onto the bucket
        // head. Repeated so that the link race itself is exercised.
        const HELPERS: usize = 4;
        for round in 0..256 {
            let index = Arc::new(Index::with_buckets(64));
            let cell: Arc<OnceLock<Decision<i64>>> = Arc::new(OnceLock::new());
            let start = Arc::new(std::sync::Barrier::new(HELPERS));
            let handles: Vec<_> = (0..HELPERS)
                .map(|_| {
                    let (index, cell, start) =
                        (Arc::clone(&index), Arc::clone(&cell), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        let guard = epoch::pin();
                        let kind = UpdateKind::Insert(round);
                        index.resolve(&round, Timestamp(9), &kind, &cell, &guard)
                    })
                })
                .collect();
            let results: Vec<(Decision<i64>, bool)> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            for (d, _) in &results {
                assert_eq!(d, &results[0].0, "round {round}: helpers disagree");
            }
            assert!(results[0].0.success);
            assert_eq!(results[0].0.prior_value, None);
            assert_eq!(
                results.iter().filter(|(_, applied)| *applied).count(),
                1,
                "round {round}: exactly one helper links the entry"
            );
            assert_eq!(index.tracked_keys(), 1, "round {round}: one entry per key");
            let guard = epoch::pin();
            assert_eq!(index.read_value(&round, &guard), Some(round));
            assert_eq!(index.snapshot(&round, &guard).last_ts, Timestamp(9));
        }
    }

    #[test]
    fn failed_remove_of_a_never_seen_key_is_stamped_with_its_ts() {
        let index = Index::with_buckets(64);
        let guard = epoch::pin();
        let remove = OnceLock::new();
        let (d, applied) = index.resolve(&9, Timestamp(3), &UpdateKind::Remove, &remove, &guard);
        assert!(!d.success, "nothing to remove");
        assert!(applied, "the failed remove still links the key's entry");
        assert_eq!(index.tracked_keys(), 1);
        let snap = index.snapshot(&9, &guard);
        assert!(!snap.present);
        assert_eq!(snap.value, None);
        assert_eq!(
            snap.last_ts,
            Timestamp(3),
            "stamped so stale helpers see it resolved"
        );

        resolve_one(&index, 9, 4, UpdateKind::Insert(90));
        // A stale helper of the ts-3 remove returns the published decision,
        // not one recomputed from the key's newer (present) state.
        let (late, applied_late) =
            index.resolve(&9, Timestamp(3), &UpdateKind::Remove, &remove, &guard);
        assert_eq!(late, d);
        assert!(!applied_late);
        assert_eq!(index.read_value(&9, &guard), Some(90));
        assert_eq!(index.tracked_keys(), 1);
    }

    #[test]
    fn prefill_of_a_duplicate_key_replaces_its_value() {
        let mut index = Index::with_buckets(2);
        index.prefill(4, 40);
        index.prefill(6, 60);
        index.prefill(4, 41);
        assert_eq!(index.tracked_keys(), 2);
        let guard = epoch::pin();
        assert_eq!(index.read_value(&4, &guard), Some(41));
        assert_eq!(index.read_value(&6, &guard), Some(60));
        drop(guard);

        // A key changed since it was loaded is loaded afresh too.
        resolve_one(&index, 4, 1, UpdateKind::Remove);
        index.prefill(4, 42);
        assert_eq!(index.tracked_keys(), 2);
        let guard = epoch::pin();
        let snap = index.snapshot(&4, &guard);
        assert!(snap.present);
        assert_eq!(snap.value, Some(42));
        assert_eq!(snap.last_ts, Timestamp::ZERO);
    }

    #[test]
    fn first_update_of_a_loaded_key_swaps_in_a_record_and_retires_nothing() {
        // `Arc` values count who holds them: the entry's inline state, the
        // swapped-in record, or nobody once freed.
        let loaded = Arc::new(70);
        let replacement = Arc::new(71);
        let mut index: PresenceIndex<i64, Arc<i64>> = PresenceIndex::with_buckets(64);
        index.prefill(7, Arc::clone(&loaded));
        let guard = epoch::pin();
        let entry = index.lookup(&7).expect("a loaded key has an entry");
        assert!(
            entry.current(&guard).0.is_null(),
            "born with its state inline"
        );

        let cell = OnceLock::new();
        let kind = UpdateKind::Replace(Arc::clone(&replacement));
        let (d, applied) = index.resolve(&7, Timestamp(1), &kind, &cell, &guard);
        drop(kind);
        assert!(applied && d.success);
        assert_eq!(d.prior_value.as_deref(), Some(&70));
        drop((d, cell));

        // The CAS expected a null record, so there was nothing to retire;
        // the inline state still holds the loaded value.
        let (record, state) = entry.current(&guard);
        assert!(!record.is_null(), "the first change swaps in a record");
        assert_eq!(state.ts, Timestamp(1));
        assert_eq!(state.value.as_deref(), Some(&71));
        assert!(entry.first.present && entry.first.ts == Timestamp::ZERO);
        assert_eq!(
            Arc::strong_count(&loaded),
            2,
            "the inline state keeps its value"
        );
        assert_eq!(
            Arc::strong_count(&replacement),
            2,
            "the record holds the new value"
        );

        // Dropping the index frees both the entry and its record.
        drop(guard);
        drop(index);
        assert_eq!(Arc::strong_count(&loaded), 1);
        assert_eq!(Arc::strong_count(&replacement), 1);
    }

    #[test]
    fn bucket_count_is_power_of_two() {
        let index = Index::with_buckets(1000);
        assert_eq!(index.bucket_count(), 1024);
        let index = Index::with_buckets(0);
        assert_eq!(index.bucket_count(), 2);
    }
}
