//! The per-operation traverse queue (`Op.Traverse`, §II-B).
//!
//! While an operation descends the tree, every process executing it in a
//! node appends the children in which execution must continue; only the
//! *initiator* process removes nodes from the head and visits them. The
//! queue therefore is multi-producer / single-consumer, FIFO, and tolerates
//! duplicate entries (a node may be appended several times when several
//! helpers execute the same operation in its parent — the per-node
//! timestamp checks make the extra visits no-ops).
//!
//! The items are pointers to tree nodes, and a scalar operation appends one
//! per level of its path, so the queue holds its first [`INLINE`] items in
//! the descriptor itself: creating a queue allocates nothing, and neither
//! does a push, until an operation has more nodes to visit than that (a wide
//! `collect`, a radix-shaped tree). Only then are items linked into a heap
//! chain.
//!
//! An inline slot is **published by one CAS from null to the item**; no
//! producer ever reserves a slot first. A stalled producer therefore holds
//! nothing: either its CAS has happened and the item is there, or the slot
//! is still null and belongs to whoever gets to it next. That is what keeps
//! the consumer wait-free — a null slot means "nothing appended yet", never
//! "wait for its owner". Producers take the slots in index order, so the
//! non-null slots always form a prefix and FIFO order is index order.
//!
//! Because the queue lives inside a single operation descriptor, nothing is
//! ever unlinked during the descriptor's lifetime: the consumer advances a
//! cursor and the chain is freed when the descriptor (and with it the
//! queue) is dropped. The queue never dereferences an item.

use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

/// Items held in the queue itself before it spills to the heap. A balanced
/// tree of `2^24` leaf runs is 24 levels deep, so a scalar operation on any
/// tree this workspace builds stays inline.
pub const INLINE: usize = 24;

/// One link of the spill chain.
struct TNode<T> {
    item: NonNull<T>,
    next: AtomicPtr<TNode<T>>,
}

/// Multi-producer single-consumer FIFO queue of node pointers, used for
/// `Op.Traverse`.
///
/// `push` may be called from any thread; `peek` / `pop` must only be called
/// by the operation's initiator (single consumer), which is exactly how the
/// traversal algorithm of Listing 2 uses it.
pub struct TraverseQueue<T> {
    /// The first `INLINE` items, in push order; null until published.
    slots: [AtomicPtr<T>; INLINE],
    /// Producer hint: every slot below it is published (more may be).
    published: AtomicUsize,
    /// Consumer cursor: how many inline items have been popped.
    popped: AtomicUsize,
    /// First link of the spill chain; null until the `INLINE + 1`st push.
    spill: AtomicPtr<TNode<T>>,
    /// Producer end of the spill chain (null while the chain is empty).
    spill_tail: AtomicPtr<TNode<T>>,
    /// Consumer cursor into the spill chain: the last node popped.
    spill_popped: AtomicPtr<TNode<T>>,
}

impl<T> Default for TraverseQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TraverseQueue<T> {
    /// Creates an empty queue. Allocates nothing.
    pub fn new() -> Self {
        TraverseQueue {
            slots: [const { AtomicPtr::new(ptr::null_mut()) }; INLINE],
            published: AtomicUsize::new(0),
            popped: AtomicUsize::new(0),
            spill: AtomicPtr::new(ptr::null_mut()),
            spill_tail: AtomicPtr::new(ptr::null_mut()),
            spill_popped: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Appends `item` to the tail. Callable from any thread; wait-free while
    /// the queue is inline (at most `INLINE` CAS attempts, each of which
    /// fails only because another producer published).
    pub fn push(&self, item: NonNull<T>) {
        // ORDERING: Acquire pairs with the Release hint store below. Whoever
        // stored the hint had read (by its own hint load, or by the CASes that
        // failed on them) every slot below it as published, so reading it
        // orders all of them before whatever this producer publishes next —
        // which is what lets the consumer, once it sees one producer's item,
        // see every slot in front of it.
        let mut i = self.published.load(Ordering::Acquire);
        while i < INLINE {
            // ORDERING: Release publishes the item (and the node it points to,
            // which the producer loaded with Acquire) to the consumer's Acquire
            // slot load; a failed CAS only moves on, so Relaxed suffices.
            let won = self.slots[i]
                .compare_exchange(
                    ptr::null_mut(),
                    item.as_ptr(),
                    Ordering::Release,
                    Ordering::Relaxed,
                )
                .is_ok();
            i += 1;
            if won {
                // A plain store: a slower producer may set the hint back, and
                // a hint that is too low only costs failed CASes.
                // ORDERING: Release, for the Acquire hint load above.
                self.published.store(i, Ordering::Release);
                return;
            }
        }
        self.push_spill(item);
    }

    /// The link the spill node after `node` hangs on (`spill` for null).
    ///
    /// # Safety
    ///
    /// `node` must be null or a node of this queue's spill chain.
    unsafe fn link_after(&self, node: *mut TNode<T>) -> &AtomicPtr<TNode<T>> {
        // SAFETY: chain nodes are only freed in `Drop`, which requires
        // exclusive access, so a non-null `node` is valid for `&self`.
        match unsafe { node.as_ref() } {
            None => &self.spill,
            Some(node) => &node.next,
        }
    }

    /// Appends `item` to the spill chain: a Michael–Scott enqueue whose
    /// dummy node is the `spill` link, so an empty chain costs nothing.
    fn push_spill(&self, item: NonNull<T>) {
        let node = Box::into_raw(Box::new(TNode {
            item,
            next: AtomicPtr::new(ptr::null_mut()),
        }));
        loop {
            // ORDERING: Acquire pairs with the Release tail CASes below, so the node
            // `tail` points at is fully initialised before we dereference it.
            let tail = self.spill_tail.load(Ordering::Acquire);
            // SAFETY: `tail` is null or was published as a chain node.
            let link = unsafe { self.link_after(tail) };
            // ORDERING: Acquire pairs with the Release link CAS below — a non-null
            // `next` is always a fully initialised node.
            let next = link.load(Ordering::Acquire);
            if !next.is_null() {
                // Help the lagging tail.
                let _ = self
                    .spill_tail
                    // ORDERING: Release keeps the helped tail publication consistent for other
                    // producers' Acquire tail loads; failure only retries, so Relaxed suffices.
                    .compare_exchange(tail, next, Ordering::Release, Ordering::Relaxed);
                continue;
            }
            // ORDERING: success Release publishes the initialised node to the Acquire
            // link/tail loads; failure only retries, so Relaxed suffices.
            if link
                .compare_exchange(ptr::null_mut(), node, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                let _ = self
                    .spill_tail
                    // ORDERING: Release publishes the new tail node to producers' Acquire tail
                    // loads; losing this race is fine, a peer already helped.
                    .compare_exchange(tail, node, Ordering::Release, Ordering::Relaxed);
                return;
            }
        }
    }

    /// The next item to consume, if it has been published, and the spill
    /// node holding it (null for an inline item). Single-consumer.
    fn head(&self) -> Option<(NonNull<T>, *mut TNode<T>)> {
        // Only the consumer writes the two cursors, so it reads its own
        // values back: Relaxed.
        let popped = self.popped.load(Ordering::Relaxed);
        if popped < INLINE {
            // ORDERING: Acquire pairs with the Release slot CAS in `push`.
            let item = self.slots[popped].load(Ordering::Acquire);
            return Some((NonNull::new(item)?, ptr::null_mut()));
        }
        let last = self.spill_popped.load(Ordering::Relaxed);
        // SAFETY: `last` is null or a chain node this consumer popped.
        // ORDERING: Acquire pairs with the Release link CAS in `push_spill` — a
        // non-null link is a fully initialised node.
        let next = unsafe { self.link_after(last) }.load(Ordering::Acquire);
        // SAFETY: chain nodes stay allocated until `Drop`.
        let node = unsafe { next.as_ref() }?;
        Some((node.item, next))
    }

    /// Returns the item at the head without removing it, or `None` when the
    /// next item has not been published — it never waits for one.
    /// Single-consumer: must only be called by the initiator.
    pub fn peek(&self) -> Option<NonNull<T>> {
        Some(self.head()?.0)
    }

    /// Removes and returns the item at the head. Single-consumer.
    pub fn pop(&self) -> Option<NonNull<T>> {
        let (item, node) = self.head()?;
        // Single consumer: plain stores, nobody else advances the cursors.
        // The consumed slot or node stays where it is.
        if node.is_null() {
            let popped = self.popped.load(Ordering::Relaxed);
            self.popped.store(popped + 1, Ordering::Relaxed);
        } else {
            self.spill_popped.store(node, Ordering::Relaxed);
        }
        Some(item)
    }

    /// `true` if no unconsumed item has been published. Single-consumer.
    pub fn is_empty(&self) -> bool {
        self.head().is_none()
    }
}

impl<T> Drop for TraverseQueue<T> {
    fn drop(&mut self) {
        // Exclusive access: free the whole spill chain, consumed nodes
        // included. The items are not the queue's to free.
        let mut cur = *self.spill.get_mut();
        while !cur.is_null() {
            // SAFETY: `drop` takes `&mut self`, so this thread has exclusive access;
            // each node was allocated via `Box::into_raw` and is freed exactly once.
            let mut node = unsafe { Box::from_raw(cur) };
            cur = *node.next.get_mut();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// `n` distinct addresses to push: the queue only stores pointers.
    fn items(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    fn ptr_to(items: &[usize], i: usize) -> NonNull<usize> {
        NonNull::from(&items[i])
    }

    /// What a popped pointer points at; the tests keep `items` alive.
    fn value(item: Option<NonNull<usize>>) -> Option<usize> {
        // SAFETY: every pointer pushed in these tests points into a `Vec` that
        // outlives the queue.
        item.map(|p| unsafe { *p.as_ref() })
    }

    #[test]
    fn fifo_order_single_thread() {
        let items = items(10);
        let q: TraverseQueue<usize> = TraverseQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        for i in 0..10 {
            q.push(ptr_to(&items, i));
        }
        assert!(!q.is_empty());
        assert_eq!(value(q.peek()), Some(0));
        for i in 0..10 {
            assert_eq!(value(q.pop()), Some(i));
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_does_not_consume() {
        let items = items(1);
        let q: TraverseQueue<usize> = TraverseQueue::new();
        q.push(ptr_to(&items, 0));
        assert_eq!(q.peek(), Some(ptr_to(&items, 0)));
        assert_eq!(q.peek(), Some(ptr_to(&items, 0)));
        assert_eq!(q.pop(), Some(ptr_to(&items, 0)));
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn duplicates_are_preserved() {
        let items = items(1);
        let q: TraverseQueue<usize> = TraverseQueue::new();
        for _ in 0..3 {
            q.push(ptr_to(&items, 0));
        }
        for _ in 0..3 {
            assert_eq!(q.pop(), Some(ptr_to(&items, 0)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_order_across_the_inline_spill_boundary() {
        let n = INLINE + 5;
        let items = items(n);
        let q: TraverseQueue<usize> = TraverseQueue::new();
        for i in 0..n {
            q.push(ptr_to(&items, i));
        }
        // Interleave a late push with the drain: it lands behind the chain.
        for i in 0..n {
            assert_eq!(value(q.peek()), Some(i));
            assert_eq!(value(q.pop()), Some(i));
        }
        assert!(q.is_empty());
        q.push(ptr_to(&items, 0));
        assert_eq!(value(q.pop()), Some(0));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_on_an_unpublished_slot_returns_none_without_spinning() {
        // The state a stalled producer leaves behind: it read the hint, has
        // not done its CAS, and later producers have not arrived. The next
        // slot is null and owned by nobody, so the consumer sees an empty
        // queue at once, before and after the inline slots run out.
        let items = items(INLINE + 1);
        let q: TraverseQueue<usize> = TraverseQueue::new();
        for i in 0..=INLINE {
            assert_eq!(q.peek(), None, "slot {i} is not published yet");
            assert_eq!(q.pop(), None);
            q.push(ptr_to(&items, i));
            assert_eq!(value(q.pop()), Some(i));
        }
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn multi_producer_single_consumer() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 1_000;
        let items = Arc::new(items(PRODUCERS * PER_PRODUCER));
        let q: Arc<TraverseQueue<usize>> = Arc::new(TraverseQueue::new());
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (q, items) = (Arc::clone(&q), Arc::clone(&items));
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        q.push(ptr_to(&items, p * PER_PRODUCER + i));
                    }
                })
            })
            .collect();
        // The consumer (this thread) runs concurrently with the producers.
        let mut seen = Vec::new();
        while seen.len() < PRODUCERS * PER_PRODUCER {
            match value(q.pop()) {
                Some(v) => seen.push(v),
                None => std::thread::yield_now(),
            }
        }
        for p in producers {
            p.join().unwrap();
        }
        // Per-producer FIFO: each producer's items must appear in order.
        for p in 0..PRODUCERS {
            let per: Vec<usize> = seen
                .iter()
                .copied()
                .filter(|v| v / PER_PRODUCER == p)
                .collect();
            let expect: Vec<usize> = (0..PER_PRODUCER).map(|i| p * PER_PRODUCER + i).collect();
            assert_eq!(per, expect, "producer {p} items out of order");
        }
        seen.sort_unstable();
        let expect: Vec<usize> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn overlapping_duplicates_from_four_producers_all_arrive_in_order() {
        // Four helpers of one operation push the same path, as they do when
        // they execute it in the same nodes: every node must reach the
        // consumer at least once, and each helper's pushes in its own order.
        // Short enough that most rounds race inside the inline slots.
        const PRODUCERS: usize = 4;
        const PATH: usize = INLINE / 2;
        for _ in 0..200 {
            let items = Arc::new(items(PATH));
            let q: Arc<TraverseQueue<usize>> = Arc::new(TraverseQueue::new());
            let start = Arc::new(std::sync::Barrier::new(PRODUCERS + 1));
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|_| {
                    let (q, items) = (Arc::clone(&q), Arc::clone(&items));
                    let start = Arc::clone(&start);
                    std::thread::spawn(move || {
                        start.wait();
                        for i in 0..PATH {
                            q.push(ptr_to(&items, i));
                        }
                    })
                })
                .collect();
            start.wait();
            let mut seen = Vec::new();
            while seen.len() < PRODUCERS * PATH {
                match value(q.pop()) {
                    Some(v) => seen.push(v),
                    None => std::thread::yield_now(),
                }
            }
            for p in producers {
                p.join().unwrap();
            }
            assert_eq!(q.pop(), None);
            // Every producer pushed 0, 1, 2, … in order, so the k-th copy of a
            // node cannot arrive before the k-th copy of the node before it.
            let mut copies = [0usize; PATH];
            for v in seen {
                copies[v] += 1;
                assert!(
                    v == 0 || copies[v] <= copies[v - 1],
                    "{v} overtook {}",
                    v - 1
                );
            }
            assert_eq!(copies, [PRODUCERS; PATH]);
        }
    }

    #[test]
    fn drop_frees_the_spill_chain_and_not_the_items() {
        // Consumed and unconsumed spill nodes are freed with the queue (the
        // allocation-budget test counts them); the items must survive it.
        let items = items(INLINE + 8);
        {
            let q: TraverseQueue<usize> = TraverseQueue::new();
            for i in 0..items.len() {
                q.push(ptr_to(&items, i));
            }
            for _ in 0..INLINE + 3 {
                let _ = q.pop();
            }
        }
        assert_eq!(items, (0..INLINE + 8).collect::<Vec<_>>());
    }
}
