//! The timestamped descriptor queue (§II-D).
//!
//! [`TsQueue`] is a Michael–Scott queue in which every node carries the
//! timestamp of the descriptor it holds. Timestamps in a queue are strictly
//! increasing from head to tail (Theorem 1), and the queue exploits this to
//! provide the three operations the helping scheme needs:
//!
//! * [`TsQueue::peek`] — read the head descriptor without removing it;
//! * [`TsQueue::push_if`] — append a descriptor with an externally assigned
//!   timestamp *only if it has not been appended before* (exactly-once
//!   insertion, §II-C); the check is a single comparison against the tail
//!   timestamp;
//! * [`TsQueue::pop_if`] — remove the head descriptor *only if it still is*
//!   the descriptor with the given timestamp (exactly-once removal, §II-C).
//!
//! [`TsQueue::enqueue_assign`] allocates timestamps as well: it reads the
//! tail timestamp, increments it and appends in one CAS loop, the lock-free
//! timestamp allocation of §II-D. A CAS loop can starve an enqueuer, so the
//! trees' root queue is the wait-free one of Lemma 1 in [`crate::root`],
//! which uses this queue for its appends only.
//!
//! The queue is generic over the descriptor handle `T`; the tree uses a
//! plain pointer to an epoch-managed descriptor, which `peek` and `push_if`
//! copy. Nodes unlinked by `pop_if` are retired through `crossbeam-epoch`.

use crossbeam_epoch::{Atomic, Guard, Owned, Shared};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};

use crate::timestamp::Timestamp;

/// One queue node: a descriptor handle plus its timestamp.
struct QNode<T> {
    ts: Timestamp,
    /// `None` only for the initial dummy node; every enqueued node holds a
    /// descriptor. Former descriptor nodes become dummies after `pop_if` and
    /// keep their item until the node is reclaimed; nobody reads a dummy's
    /// item (`peek` reads `head.next`).
    item: Option<T>,
    next: Atomic<QNode<T>>,
}

/// A Michael–Scott queue with per-node timestamps and exactly-once
/// conditional insertion/removal. See the module documentation.
pub struct TsQueue<T> {
    head: Atomic<QNode<T>>,
    tail: Atomic<QNode<T>>,
}

// SAFETY: the queue owns its nodes, all shared mutation goes through
// epoch-protected atomics, and `T: Send + Sync` keeps the carried handles
// thread-safe when the queue moves across threads.
unsafe impl<T: Send + Sync> Send for TsQueue<T> {}
// SAFETY: same argument as `Send` — concurrent access only follows
// Release-published links and clones `T` through `&` (`T: Sync`).
unsafe impl<T: Send + Sync> Sync for TsQueue<T> {}

impl<T> TsQueue<T> {
    /// Creates an empty queue whose dummy node carries `watermark`.
    ///
    /// Descriptors with timestamps `<= watermark` are permanently rejected by
    /// [`TsQueue::push_if`]. Fresh trees use `Timestamp::ZERO`; subtrees
    /// created by a rebuild triggered by operation `Op` use
    /// `Op.timestamp - 1` so that `Op` itself and later operations can enter
    /// while all earlier operations (already accounted for by the rebuild)
    /// cannot (§II-E).
    pub fn new(watermark: Timestamp) -> Self {
        let dummy = Owned::new(QNode {
            ts: watermark,
            item: None,
            next: Atomic::null(),
        })
        // SAFETY: the queue is still being constructed, so no other thread can
        // observe the dummy; `unprotected()` is fine for a single-threaded store.
        .into_shared(unsafe { crossbeam_epoch::unprotected() });
        TsQueue {
            head: Atomic::from(dummy),
            tail: Atomic::from(dummy),
        }
    }

    /// Appends `item`, assigning it the next timestamp after the current
    /// tail, and returns the assigned timestamp. This is the lock-free root
    /// queue enqueue of §II-D: take the tail timestamp, increment, CAS the
    /// new node in; on contention retry from the new tail.
    pub fn enqueue_assign(&self, item: T, guard: &Guard) -> Timestamp {
        let mut new = Owned::new(QNode {
            ts: Timestamp::ZERO,
            item: Some(item),
            next: Atomic::null(),
        });
        loop {
            // ORDERING: Acquire pairs with the Release tail CASes below, so the node
            // `tail` points at is fully initialised.
            let tail = self.tail.load(Acquire, guard);
            // Tail is never null: the queue always contains at least the dummy.
            // SAFETY: `tail` was loaded from an epoch-protected slot under `guard`;
            // nodes are retired only via `defer_destroy` in `pop_if`.
            let tail_ref = unsafe { tail.deref() };
            // ORDERING: Acquire pairs with the Release link CAS below — a non-null
            // `next` is a fully initialised node.
            let next = tail_ref.next.load(Acquire, guard);
            if !next.is_null() {
                // Tail is lagging; help swing it forward and retry.
                let _ = self
                    .tail
                    // ORDERING: Release keeps the helped-forward tail publication consistent
                    // with the enqueuer's own swing; failure only retries (Relaxed).
                    .compare_exchange(tail, next, Release, Relaxed, guard);
                continue;
            }
            let ts = tail_ref.ts.next();
            new.ts = ts;
            // ORDERING: success Release publishes the initialised node (ts, item) to
            // the Acquire `next`/tail loads everywhere; failure only retries (Relaxed).
            match tail_ref
                .next
                .compare_exchange(Shared::null(), new, Release, Relaxed, guard)
            {
                Ok(appended) => {
                    // ORDERING: Release publishes the new tail; losing this race means a peer
                    // already helped, so the result is ignored.
                    let _ = self
                        .tail
                        .compare_exchange(tail, appended, Release, Relaxed, guard);
                    return ts;
                }
                Err(e) => {
                    // Another enqueuer won; recover the allocation and retry.
                    new = e.new;
                }
            }
        }
    }

    /// Appends `item` with the externally assigned timestamp `ts`, unless a
    /// descriptor with timestamp `>= ts` has already been appended (in which
    /// case `item` has been pushed by another helper — or is older than the
    /// queue's watermark — and the queue is left unmodified).
    ///
    /// Returns `true` if this call performed the insertion.
    ///
    /// Correct usage (guaranteed by the tree): `push_if(ts, ..)` is only
    /// called while the parent of this queue's node is executing the
    /// descriptor with timestamp `ts`, so timestamps still arrive in strictly
    /// increasing order and Theorem 1 is preserved.
    pub fn push_if(&self, ts: Timestamp, item: T, guard: &Guard) -> bool {
        // Boxed on the first attempt at the link CAS, not before: a helper
        // that finds the item already pushed allocates nothing.
        let mut item = Some(item);
        let mut new: Option<Owned<QNode<T>>> = None;
        loop {
            // ORDERING: Acquire pairs with the Release tail CASes, so `tail_ref.ts`
            // below reads a fully initialised node.
            let tail = self.tail.load(Acquire, guard);
            // SAFETY: `tail` came from an epoch-protected slot under `guard`; nodes
            // are retired only via `defer_destroy`.
            let tail_ref = unsafe { tail.deref() };
            if tail_ref.ts >= ts {
                // Already inserted by another helper (or pre-dates this
                // queue's watermark). The item (or `new`, holding it) is
                // dropped here.
                return false;
            }
            // ORDERING: Acquire pairs with the Release link CAS below.
            let next = tail_ref.next.load(Acquire, guard);
            if !next.is_null() {
                // ORDERING: Release keeps the helped tail consistent; failure retries.
                let _ = self
                    .tail
                    .compare_exchange(tail, next, Release, Relaxed, guard);
                continue;
            }
            let node = new.take().unwrap_or_else(|| {
                Owned::new(QNode {
                    ts,
                    item: item.take(),
                    next: Atomic::null(),
                })
            });
            // ORDERING: success Release publishes the initialised node to every
            // Acquire load of this link; failure only retries (Relaxed).
            match tail_ref
                .next
                .compare_exchange(Shared::null(), node, Release, Relaxed, guard)
            {
                Ok(appended) => {
                    // ORDERING: Release publishes the new tail; the race loser is ignored.
                    let _ = self
                        .tail
                        .compare_exchange(tail, appended, Release, Relaxed, guard);
                    return true;
                }
                Err(e) => {
                    new = Some(e.new);
                }
            }
        }
    }

    /// Returns the timestamp and a copy of the head descriptor handle, or `None`
    /// if the queue is currently empty.
    pub fn peek(&self, guard: &Guard) -> Option<(Timestamp, T)>
    where
        T: Clone,
    {
        // ORDERING: Acquire pairs with the Release head CAS in `pop_if`.
        let head = self.head.load(Acquire, guard);
        // SAFETY: `head` is epoch-protected under `guard` (retired only via
        // `defer_destroy`).
        // ORDERING: Acquire pairs with the Release link CAS in the enqueue paths —
        // a non-null `next` is a fully initialised node.
        let next = unsafe { head.deref() }.next.load(Acquire, guard);
        if next.is_null() {
            return None;
        }
        // SAFETY: `next` was published by the Release link CAS and is
        // epoch-protected under `guard`.
        let node = unsafe { next.deref() };
        let item = node
            .item
            .as_ref()
            .expect("non-dummy queue node must hold a descriptor")
            .clone();
        Some((node.ts, item))
    }

    /// Removes the head descriptor if (and only if) it still is the
    /// descriptor with timestamp `ts`. Returns `true` if this call performed
    /// the removal, `false` if another helper already removed it.
    ///
    /// Like the paper's `pop_if`, this must only be called for a timestamp
    /// that was at some point observed at the head of this queue; it never
    /// removes from the middle.
    pub fn pop_if(&self, ts: Timestamp, guard: &Guard) -> bool {
        loop {
            // ORDERING: Acquire pairs with the Release head CAS below, so the cursor
            // node (and the unlink that published it) is visible.
            let head = self.head.load(Acquire, guard);
            // SAFETY: `head` is epoch-protected under `guard`; `defer_destroy` waits
            // out all current guards before freeing.
            let head_ref = unsafe { head.deref() };
            // ORDERING: Acquire pairs with the Release link CAS in the enqueue paths.
            let next = head_ref.next.load(Acquire, guard);
            if next.is_null() {
                // Queue drained: the descriptor was already removed.
                return false;
            }
            // ORDERING: Acquire pairs with the Release tail CASes, so the head == tail
            // comparison below sees a tail at least as fresh as `head`.
            let tail = self.tail.load(Acquire, guard);
            if head == tail {
                // Tail lags behind an in-progress enqueue; help it forward so
                // we never unlink the node the tail still points to.
                // ORDERING: Release keeps the helped tail consistent for enqueuers'
                // Acquire loads; failure retries.
                let _ = self
                    .tail
                    .compare_exchange(tail, next, Release, Relaxed, guard);
                continue;
            }
            // SAFETY: `next` was published by the Release link CAS and is
            // epoch-protected under `guard`.
            if unsafe { next.deref() }.ts != ts {
                // Timestamps are strictly increasing, so a different head
                // timestamp means ours was already popped.
                return false;
            }
            // ORDERING: success Release publishes the head advance (making the item
            // removal visible to `peek`'s Acquire head load) and orders it after the
            // `ts` check above; failure re-derives everything, so Relaxed suffices.
            match self
                .head
                .compare_exchange(head, next, Release, Relaxed, guard)
            {
                Ok(_) => {
                    // The old dummy is unreachable for new readers; readers
                    // that still hold it are protected by their epoch guard.
                    // SAFETY: our CAS unlinked `head` — exactly one popper wins for a given
                    // predecessor, so the node is retired exactly once, and readers still
                    // holding it are protected by their epoch guards.
                    unsafe { guard.defer_destroy(head) };
                    return true;
                }
                Err(_) => {
                    // Lost the race; re-check whether our descriptor is still
                    // at the head (it will not be — timestamps increase — but
                    // the loop re-derives that instead of assuming it).
                    continue;
                }
            }
        }
    }

    /// Timestamp carried by the current tail node: the timestamp of the most
    /// recently enqueued descriptor, or the watermark if nothing was ever
    /// enqueued. Monotonically non-decreasing over time.
    pub fn last_timestamp(&self, guard: &Guard) -> Timestamp {
        loop {
            // ORDERING: Acquire pairs with the Release tail CASes, so `tail_ref.ts`
            // is read from an initialised node.
            let tail = self.tail.load(Acquire, guard);
            // SAFETY: `tail` is epoch-protected under `guard`.
            let tail_ref = unsafe { tail.deref() };
            // ORDERING: Acquire pairs with the Release link CAS in the enqueue paths.
            let next = tail_ref.next.load(Acquire, guard);
            if next.is_null() {
                return tail_ref.ts;
            }
            // Help the lagging tail so the answer reflects completed enqueues.
            // ORDERING: Release keeps the helped tail consistent; failure retries.
            let _ = self
                .tail
                .compare_exchange(tail, next, Release, Relaxed, guard);
        }
    }

    /// `true` if no descriptor is currently queued.
    pub fn is_empty(&self, guard: &Guard) -> bool {
        // ORDERING: Acquire pairs with the Release head CAS in `pop_if`.
        let head = self.head.load(Acquire, guard);
        // SAFETY: `head` is epoch-protected under `guard`.
        // ORDERING: Acquire pairs with the Release link CAS in the enqueue paths.
        unsafe { head.deref() }.next.load(Acquire, guard).is_null()
    }

    /// Timestamps of all queued descriptors, head to tail. Only used by
    /// tests and debug assertions (takes a consistent-enough snapshot by
    /// walking `next` pointers under the guard).
    pub fn timestamps(&self, guard: &Guard) -> Vec<Timestamp> {
        let mut out = Vec::new();
        // ORDERING: Acquire pairs with the Release head CAS in `pop_if`.
        let mut cur = self.head.load(Acquire, guard);
        loop {
            // SAFETY: `cur` is epoch-protected under `guard` (head or a published
            // link).
            // ORDERING: Acquire pairs with the Release link CAS in the enqueue paths.
            let next = unsafe { cur.deref() }.next.load(Acquire, guard);
            if next.is_null() {
                return out;
            }
            // SAFETY: `next` was published by the Release link CAS and is
            // epoch-protected under `guard`.
            out.push(unsafe { next.deref() }.ts);
            cur = next;
        }
    }
}

impl<T> Drop for TsQueue<T> {
    fn drop(&mut self) {
        // Exclusive access: walk the list and free every node, including the
        // dummy. Items (descriptor handles) are dropped with their nodes.
        // SAFETY: `drop` takes `&mut self`, so no other thread can touch the
        // queue; walking with the unprotected guard and freeing every node in
        // place (via `into_owned`) is therefore sound.
        unsafe {
            let guard = crossbeam_epoch::unprotected();
            let mut cur = self.head.load(Relaxed, guard);
            while !cur.is_null() {
                let next = cur.deref().next.load(Relaxed, guard);
                drop(cur.into_owned());
                cur = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_epoch as epoch;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn enqueue_assign_allocates_consecutive_timestamps() {
        let q: TsQueue<u32> = TsQueue::new(Timestamp::ZERO);
        let guard = epoch::pin();
        assert_eq!(q.enqueue_assign(10, &guard), Timestamp(1));
        assert_eq!(q.enqueue_assign(20, &guard), Timestamp(2));
        assert_eq!(q.enqueue_assign(30, &guard), Timestamp(3));
        assert_eq!(
            q.timestamps(&guard),
            vec![Timestamp(1), Timestamp(2), Timestamp(3)]
        );
        assert_eq!(q.last_timestamp(&guard), Timestamp(3));
    }

    #[test]
    fn peek_and_pop_if_walk_the_queue_in_order() {
        let q: TsQueue<&str> = TsQueue::new(Timestamp::ZERO);
        let guard = epoch::pin();
        let t1 = q.enqueue_assign("a", &guard);
        let t2 = q.enqueue_assign("b", &guard);
        assert_eq!(q.peek(&guard), Some((t1, "a")));
        assert!(q.pop_if(t1, &guard));
        assert!(!q.pop_if(t1, &guard), "double pop must be a no-op");
        assert_eq!(q.peek(&guard), Some((t2, "b")));
        assert!(q.pop_if(t2, &guard));
        assert_eq!(q.peek(&guard), None);
        assert!(q.is_empty(&guard));
    }

    #[test]
    fn push_if_is_idempotent_per_timestamp() {
        let q: TsQueue<&str> = TsQueue::new(Timestamp::ZERO);
        let guard = epoch::pin();
        assert!(q.push_if(Timestamp(5), "x", &guard));
        assert!(!q.push_if(Timestamp(5), "x-again", &guard));
        assert!(!q.push_if(Timestamp(3), "older", &guard));
        assert!(q.push_if(Timestamp(9), "y", &guard));
        assert_eq!(q.timestamps(&guard), vec![Timestamp(5), Timestamp(9)]);
    }

    #[test]
    fn watermark_rejects_stale_descriptors() {
        let q: TsQueue<&str> = TsQueue::new(Timestamp(100));
        let guard = epoch::pin();
        assert!(!q.push_if(Timestamp(100), "stale", &guard));
        assert!(!q.push_if(Timestamp(42), "staler", &guard));
        assert!(q.push_if(Timestamp(101), "fresh", &guard));
        assert_eq!(q.last_timestamp(&guard), Timestamp(101));
    }

    #[test]
    fn enqueue_assign_after_drain_continues_timestamps() {
        let q: TsQueue<u32> = TsQueue::new(Timestamp::ZERO);
        let guard = epoch::pin();
        let t1 = q.enqueue_assign(1, &guard);
        assert!(q.pop_if(t1, &guard));
        let t2 = q.enqueue_assign(2, &guard);
        assert_eq!(t2, Timestamp(2), "timestamps never repeat after a drain");
    }

    #[test]
    fn pop_if_wrong_timestamp_is_noop() {
        let q: TsQueue<u32> = TsQueue::new(Timestamp::ZERO);
        let guard = epoch::pin();
        let t1 = q.enqueue_assign(1, &guard);
        assert!(!q.pop_if(t1.next(), &guard));
        assert!(!q.pop_if(Timestamp::ZERO, &guard));
        assert_eq!(q.peek(&guard), Some((t1, 1)));
    }

    #[test]
    fn concurrent_enqueue_assign_yields_unique_dense_timestamps() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 500;
        let q: Arc<TsQueue<usize>> = Arc::new(TsQueue::new(Timestamp::ZERO));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::with_capacity(PER_THREAD);
                for i in 0..PER_THREAD {
                    let guard = epoch::pin();
                    got.push(q.enqueue_assign(t * PER_THREAD + i, &guard).get());
                }
                got
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let expect: Vec<u64> = (1..=(THREADS * PER_THREAD) as u64).collect();
        assert_eq!(all, expect, "timestamps must be unique and dense");
        let guard = epoch::pin();
        let ts = q.timestamps(&guard);
        assert!(
            ts.windows(2).all(|w| w[0] < w[1]),
            "queue order must be sorted"
        );
        assert_eq!(ts.len(), THREADS * PER_THREAD);
    }

    #[test]
    fn concurrent_helpers_pop_each_descriptor_exactly_once() {
        const DESCRIPTORS: u64 = 2_000;
        const THREADS: usize = 4;
        let q: Arc<TsQueue<u64>> = Arc::new(TsQueue::new(Timestamp::ZERO));
        {
            let guard = epoch::pin();
            for i in 0..DESCRIPTORS {
                q.enqueue_assign(i, &guard);
            }
        }
        let popped = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let q = Arc::clone(&q);
            let popped = Arc::clone(&popped);
            handles.push(std::thread::spawn(move || loop {
                let guard = epoch::pin();
                match q.peek(&guard) {
                    None => break,
                    Some((ts, _item)) => {
                        if q.pop_if(ts, &guard) {
                            popped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(popped.load(Ordering::Relaxed), DESCRIPTORS);
        let guard = epoch::pin();
        assert!(q.is_empty(&guard));
    }

    #[test]
    fn concurrent_push_if_same_timestamp_inserts_once() {
        const ROUNDS: u64 = 500;
        const THREADS: usize = 4;
        let q: Arc<TsQueue<u64>> = Arc::new(TsQueue::new(Timestamp::ZERO));
        for round in 1..=ROUNDS {
            let mut handles = Vec::new();
            for _ in 0..THREADS {
                let q = Arc::clone(&q);
                handles.push(std::thread::spawn(move || {
                    let guard = epoch::pin();
                    q.push_if(Timestamp(round), round, &guard)
                }));
            }
            let successes = handles
                .into_iter()
                .filter(|_| true)
                .map(|h| h.join().unwrap())
                .filter(|ok| *ok)
                .count();
            assert_eq!(successes, 1, "round {round}: exactly one push_if must win");
        }
        let guard = epoch::pin();
        assert_eq!(q.timestamps(&guard).len() as u64, ROUNDS);
    }

    #[test]
    fn drop_releases_queued_items() {
        struct CountDrop(Arc<AtomicU64>);
        impl Drop for CountDrop {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicU64::new(0));
        {
            let q: TsQueue<Arc<CountDrop>> = TsQueue::new(Timestamp::ZERO);
            let guard = epoch::pin();
            for _ in 0..10 {
                q.enqueue_assign(Arc::new(CountDrop(Arc::clone(&drops))), &guard);
            }
        }
        assert_eq!(drops.load(Ordering::Relaxed), 10);
    }
}
