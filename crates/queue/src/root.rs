//! The root queue (§II-F, Lemma 1): wait-free timestamp allocation.
//!
//! Every tree operation enters its tree's root queue first, and the
//! timestamp it gets there is its place in the linearization order. Lemma 1
//! of the paper makes that allocation wait-free with an announce array, a
//! fetch-and-add version counter and helping:
//!
//! 1. the enqueuer publishes an *announce record* for its descriptor in its
//!    slot of the announce array;
//! 2. it fetches a fresh version with `fetch_add` and tries to CAS it into
//!    the record's empty timestamp; whether or not the CAS wins, the record
//!    now has a timestamp (possibly assigned by a helper);
//! 3. it scans the announce array, assigning fresh versions to any record
//!    that still lacks one;
//! 4. it appends every announced record whose timestamp is `<=` its own to
//!    the underlying [`TsQueue`], in ascending timestamp order, with the
//!    idempotent `push_if`.
//!
//! Because every enqueuer publishes *before* fetching its version and scans
//! *after*, any record with a smaller timestamp is visible to the scan, so no
//! descriptor can be skipped; `push_if` keeps duplicates out.
//!
//! **Slots.** A thread's slot is its epoch participant index
//! ([`crossbeam_epoch::participant_index`]), so no thread claims or waits
//! for one, however many threads there are. The announce array is a fixed
//! directory of chunks of doubling size, each installed by CAS the first
//! time an index lands in it, so a slot never moves. A scan covers the
//! slots below the high-water mark, one past the highest index that ever
//! announced on this queue.
//!
//! **Steps.** Everything at or below the queue's tail timestamp is
//! appended. An enqueue the tail has passed is done; one whose timestamp
//! directly follows the tail appends its own record without a scan.
//! Otherwise it rescans for the least record still waiting, once per
//! waiting record, instead of collecting them into a vector: with `P` the
//! high-water mark, at most `P` records wait, so an enqueue takes `O(P²)`
//! steps and allocates only its announce record, from the epoch pool.
//! DESIGN.md, "The root queue (Lemma 1)", has the full argument.

use crossbeam_epoch::{Atomic, Guard, Owned};
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize};

use crate::timestamp::Timestamp;
use crate::tsqueue::TsQueue;

/// An announce record: a descriptor waiting for a timestamp.
struct Announce<T> {
    item: T,
    /// Zero until a version is assigned (either by the owner or by a helper).
    ts: AtomicU64,
}

/// One announce slot: the latest record its thread published.
type Slot<T> = Atomic<Announce<T>>;

/// Chunks in the announce directory. Chunk `k` holds `first << k` slots, so
/// this many cover every index a `usize` can hold.
const CHUNKS: usize = usize::BITS as usize;

/// The wait-free timestamp-allocating MPMC root queue, layered over
/// [`TsQueue`]. See the module documentation.
pub struct WaitFreeRootQueue<T> {
    /// Slots in chunk 0, a power of two.
    first: usize,
    /// Chunk `k` covers the indices `first * (2^k - 1) ..` and holds
    /// `first << k` slots; null until an index in it first announces.
    chunks: [AtomicPtr<Slot<T>>; CHUNKS],
    /// The high-water mark: one past the highest index that announced.
    used: AtomicUsize,
    version: AtomicU64,
    queue: TsQueue<T>,
}

// SAFETY: the queue owns its announce records, chunks and the inner
// `TsQueue`; all shared mutation is atomic and `T: Send + Sync` covers the
// payload.
unsafe impl<T: Send + Sync> Send for WaitFreeRootQueue<T> {}
// SAFETY: same argument as `Send` — shared access only follows
// atomically-published records and clones `T` through `&` (`T: Sync`).
unsafe impl<T: Send + Sync> Sync for WaitFreeRootQueue<T> {}

/// A thread's announce slot: its epoch participant index, the same on every
/// root queue. Not `Send`, because the slot belongs to the thread that made
/// the handle.
#[derive(Debug)]
pub struct RootSlot {
    index: usize,
    _thread: PhantomData<*const ()>,
}

impl RootSlot {
    /// The calling thread's slot.
    pub fn current() -> Self {
        RootSlot {
            index: crossbeam_epoch::participant_index(),
            _thread: PhantomData,
        }
    }
}

impl<T: Clone + Send + Sync> WaitFreeRootQueue<T> {
    /// Creates an empty queue whose first announce chunk holds the slots of
    /// `expected_threads` threads (rounded up to a power of two). Any number
    /// of threads may enqueue: later chunks are installed as their indices
    /// first announce. Allocates no chunk yet.
    pub fn new(expected_threads: usize) -> Self {
        WaitFreeRootQueue {
            first: expected_threads.max(1).next_power_of_two(),
            chunks: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
            used: AtomicUsize::new(0),
            version: AtomicU64::new(0),
            queue: TsQueue::new(Timestamp::ZERO),
        }
    }

    /// The calling thread's slot, [`RootSlot::current`]. Never `None`: no
    /// slot is claimed, so none can run out. The `Option` stays for callers
    /// written against an announce array of fixed size.
    pub fn register(&self) -> Option<RootSlot> {
        Some(RootSlot::current())
    }

    /// Gives back a slot handle. The slot itself stays the thread's until
    /// the thread exits, so there is nothing to release.
    pub fn unregister(&self, _slot: RootSlot) {}

    /// Enqueues `item`, allocating and returning its timestamp, in a
    /// bounded number of steps (wait-free). `slot` is the calling thread's
    /// ([`RootSlot::current`] or [`WaitFreeRootQueue::register`]).
    pub fn enqueue(&self, slot: &RootSlot, item: T, guard: &Guard) -> Timestamp {
        // 0. Raise the high-water mark over our slot, the first time only.
        // ORDERING: Relaxed load and raise; `append_through` argues why a
        // scan that must see our slot sees the mark past it.
        if self.used.load(Relaxed) <= slot.index {
            self.used.fetch_max(slot.index + 1, Relaxed);
        }

        // 1. Publish the announce record.
        let record = Owned::new(Announce {
            item,
            ts: AtomicU64::new(0),
        })
        .into_shared(guard);
        // ORDERING: AcqRel — Release publishes the fully initialised record (item,
        // zero ts) to the Acquire scan loads, Acquire orders our publication
        // after the previous record's completed enqueue (ours, or that of the
        // thread that held this participant index before us).
        let previous = self.slot(slot.index).swap(record, AcqRel, guard);
        if !previous.is_null() {
            // The previous announce of this slot was already appended to the
            // queue (its enqueue completed); retire it.
            // SAFETY: a slot's previous record is only replaced by the slot's
            // owner, and only after the previous enqueue completed, so nobody can
            // announce-load it anymore; current readers hold epoch guards, and the
            // swap returns the pointer exactly once, so it is retired exactly once.
            unsafe { guard.defer_destroy(previous) };
        }
        // SAFETY: `record` was just allocated and swapped in under `guard`; it is
        // only retired by a later swap in this same slot, never while we run.
        let record_ref = unsafe { record.deref() };

        // 2. Fetch a fresh version for our record, unless a helper already
        //    gave it one.
        let my_ts = self.timestamp_of(record_ref);

        // 3 and 4.
        self.append_through(record_ref, my_ts, guard);
        Timestamp(my_ts)
    }

    /// The timestamp of an announced record, assigning it a fresh version
    /// first if it has none yet (step 2 for the owner, step 3 for a helper).
    fn timestamp_of(&self, record: &Announce<T>) -> u64 {
        // ORDERING: Acquire pairs with the AcqRel timestamp CAS (the owner's or
        // a helper's) that assigned the record its version.
        let ts = record.ts.load(Acquire);
        if ts != 0 {
            return ts;
        }
        // ORDERING: AcqRel puts every version allocation in one happens-before
        // chain: a fetch that follows another in the counter's modification
        // order happens after it, and after the announce swap (or the record
        // load) that preceded it. `append_through` rests on this.
        let fresh = self.version.fetch_add(1, AcqRel) + 1;
        // ORDERING: AcqRel — Release publishes the assigned timestamp to the
        // Acquire loads, Acquire orders the re-read below after the winning CAS.
        let _ = record.ts.compare_exchange(0, fresh, AcqRel, Acquire);
        // ORDERING: Acquire pairs with the AcqRel timestamp CAS above.
        record.ts.load(Acquire)
    }

    /// Steps 3 and 4: gives every announced record a timestamp, then appends
    /// each one whose timestamp is at most `my_ts`, in ascending order.
    fn append_through(&self, own: &Announce<T>, my_ts: u64, guard: &Guard) {
        // ORDERING: the high-water argument. Take a record with timestamp
        // t <= my_ts. Its owner raised (or found raised) `used` past its slot,
        // then swapped the record in, then learnt t. Whoever fetched t did so
        // after the swap: the owner, or a helper that had loaded the record.
        // Our own timestamp came from a later fetch in the counter's order,
        // made by us or by a helper whose CAS we read. All version fetches and
        // timestamp CASes are AcqRel, so the fetch of t happens before this
        // point, and with it the raise and the swap. Coherence then gives
        // this load a mark past the record's slot, and the scan below the
        // record itself, or a later one of its slot, put there only after the
        // record was appended. Relaxed suffices for that reason.
        let used = self.used.load(Relaxed);
        // Every record at or below `floor` is appended: records are appended
        // in timestamp order, each after every smaller one.
        let mut floor = 0;
        loop {
            floor = floor.max(self.queue.last_timestamp(guard).get());
            if floor >= my_ts {
                // Another enqueuer appended ours, and everything before it.
                return;
            }
            if floor + 1 == my_ts {
                // Ours is the one record left.
                self.queue
                    .push_if(Timestamp(my_ts), own.item.clone(), guard);
                return;
            }
            let mut waiting = 0;
            let mut next: Option<(u64, &Announce<T>)> = None;
            for record in self.announced(used, guard) {
                let ts = self.timestamp_of(record);
                if floor < ts && ts <= my_ts {
                    waiting += 1;
                    if next.is_none_or(|(least, _)| ts < least) {
                        next = Some((ts, record));
                    }
                }
            }
            // Every record at or below `my_ts` got its timestamp in the first
            // scan, so no later scan finds one that this one missed.
            let Some((ts, record)) = next else { return };
            self.queue
                .push_if(Timestamp(ts), record.item.clone(), guard);
            if waiting == 1 {
                return;
            }
            floor = ts;
        }
    }

    /// The records announced in the slots below `used`.
    fn announced<'a>(
        &'a self,
        used: usize,
        guard: &'a Guard,
    ) -> impl Iterator<Item = &'a Announce<T>> + 'a {
        (0..CHUNKS)
            .map(|k| (k, self.base(k)))
            .take_while(move |&(_, base)| base < used)
            .filter_map(move |(k, base)| {
                let chunk = self.chunk(k)?;
                Some(&chunk[..chunk.len().min(used - base)])
            })
            .flatten()
            .filter_map(move |slot| {
                // ORDERING: Acquire pairs with the AcqRel announce swap, so an
                // observed record is fully initialised.
                let announced = slot.load(Acquire, guard);
                // SAFETY: a record is published by the announce swap and only retired
                // through `defer_destroy` after being swapped out; `guard` protects it.
                unsafe { announced.as_ref() }
            })
    }

    /// The slot of `index`, installing its chunk if no index in it has
    /// announced yet.
    fn slot(&self, index: usize) -> &Slot<T> {
        let at = index + self.first;
        let k = (at.ilog2() - self.first.ilog2()) as usize;
        let chunk = match self.chunk(k) {
            Some(chunk) => chunk,
            None => self.install(k),
        };
        &chunk[at - (self.first << k)]
    }

    /// Installs chunk `k`, or finds the chunk another thread installed first.
    fn install(&self, k: usize) -> &[Slot<T>] {
        let fresh: Box<[Slot<T>]> = (0..self.first << k).map(|_| Atomic::null()).collect();
        let fresh = Box::into_raw(fresh).cast::<Slot<T>>();
        // ORDERING: success Release publishes the initialised slots to the
        // Acquire load in `chunk`; on failure that load reads the winner's.
        if self.chunks[k]
            .compare_exchange(ptr::null_mut(), fresh, Release, Relaxed)
            .is_err()
        {
            // SAFETY: `fresh` lost the race, so nobody else ever saw it; it is
            // the boxed slice of `first << k` slots made above.
            drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(fresh, self.first << k)) });
        }
        self.chunk(k).expect("chunk installed")
    }
}

impl<T> WaitFreeRootQueue<T> {
    /// The first index of chunk `k`.
    fn base(&self, k: usize) -> usize {
        (self.first << k) - self.first
    }

    /// Chunk `k`, if an index in it has announced.
    fn chunk(&self, k: usize) -> Option<&[Slot<T>]> {
        // ORDERING: Acquire pairs with the Release install CAS, so the chunk's
        // slots are initialised.
        let chunk = self.chunks[k].load(Acquire);
        // SAFETY: a non-null chunk is the boxed slice of `first << k` slots
        // that `install` published; it is freed only in `Drop`.
        (!chunk.is_null()).then(|| unsafe { std::slice::from_raw_parts(chunk, self.first << k) })
    }

    /// Reads the head descriptor without removing it (delegates to the
    /// underlying [`TsQueue`]).
    pub fn peek(&self, guard: &Guard) -> Option<(Timestamp, T)>
    where
        T: Clone,
    {
        self.queue.peek(guard)
    }

    /// Removes the head descriptor if it still has timestamp `ts`.
    pub fn pop_if(&self, ts: Timestamp, guard: &Guard) -> bool {
        self.queue.pop_if(ts, guard)
    }
}

impl<T> Drop for WaitFreeRootQueue<T> {
    fn drop(&mut self) {
        for (k, chunk) in self.chunks.iter_mut().enumerate() {
            let chunk = *chunk.get_mut();
            if chunk.is_null() {
                continue;
            }
            // SAFETY: `drop` takes `&mut self`, so no enqueuer can touch the
            // chunk; it is the boxed slice of `first << k` slots that `install`
            // published.
            let slots =
                unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(chunk, self.first << k)) };
            for slot in slots.iter() {
                // SAFETY: exclusive access, as above; a record still published
                // is owned by its slot alone, so it is freed exactly once.
                unsafe {
                    let announced = slot.load(Relaxed, crossbeam_epoch::unprotected());
                    if !announced.is_null() {
                        drop(announced.into_owned());
                    }
                }
            }
        }
        // The inner TsQueue frees its own nodes in its Drop.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_epoch as epoch;
    use std::collections::{HashMap, HashSet};
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::sync::{Arc, Barrier};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn single_thread_enqueue_allocates_increasing_timestamps() {
        let q: WaitFreeRootQueue<u32> = WaitFreeRootQueue::new(4);
        let slot = q.register().unwrap();
        let guard = epoch::pin();
        let t1 = q.enqueue(&slot, 1, &guard);
        let t2 = q.enqueue(&slot, 2, &guard);
        let t3 = q.enqueue(&slot, 3, &guard);
        assert!(t1 < t2 && t2 < t3);
        let ts = q.queue.timestamps(&guard);
        assert_eq!(ts, vec![t1, t2, t3]);
        assert_eq!(q.peek(&guard), Some((t1, 1)));
        assert!(q.pop_if(t1, &guard));
        assert_eq!(q.peek(&guard), Some((t2, 2)));
    }

    #[test]
    fn register_hands_out_the_participant_index() {
        let q: WaitFreeRootQueue<u32> = WaitFreeRootQueue::new(1);
        let mine = q.register().unwrap();
        assert_eq!(mine.index, epoch::participant_index());
        assert_eq!(
            q.register().unwrap().index,
            mine.index,
            "one slot per thread"
        );
        // Another live thread gets another slot, also past the one slot the
        // queue was sized for.
        let theirs = thread::spawn(move || {
            let q: WaitFreeRootQueue<u32> = WaitFreeRootQueue::new(1);
            let slot = q.register().unwrap();
            let guard = epoch::pin();
            let ts = q.enqueue(&slot, 7, &guard);
            assert_eq!(q.peek(&guard), Some((ts, 7)));
            slot.index
        })
        .join()
        .unwrap();
        assert_ne!(theirs, mine.index);
    }

    #[test]
    fn concurrent_enqueues_never_lose_or_duplicate_descriptors() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 300;
        let q: Arc<WaitFreeRootQueue<(usize, usize)>> = Arc::new(WaitFreeRootQueue::new(THREADS));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let q = Arc::clone(&q);
            handles.push(thread::spawn(move || {
                let slot = q.register().expect("registration never fails");
                let mut tss = Vec::with_capacity(PER_THREAD);
                for i in 0..PER_THREAD {
                    let guard = epoch::pin();
                    tss.push(q.enqueue(&slot, (t, i), &guard));
                }
                q.unregister(slot);
                tss
            }));
        }
        let per_thread_ts: Vec<Vec<Timestamp>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();

        // Timestamps are unique across all enqueues.
        let mut all: Vec<Timestamp> = per_thread_ts.iter().flatten().copied().collect();
        all.sort();
        let before_dedup = all.len();
        all.dedup();
        assert_eq!(before_dedup, all.len(), "timestamps must be unique");
        assert_eq!(all.len(), THREADS * PER_THREAD);

        // Each thread's own enqueues see strictly increasing timestamps.
        for tss in &per_thread_ts {
            assert!(tss.windows(2).all(|w| w[0] < w[1]));
        }

        // Drain the queue: every enqueued descriptor appears exactly once and
        // in timestamp order.
        let guard = epoch::pin();
        let queued = q.queue.timestamps(&guard);
        assert!(
            queued.windows(2).all(|w| w[0] < w[1]),
            "queue must be sorted"
        );
        assert_eq!(
            queued.len(),
            THREADS * PER_THREAD,
            "no descriptor may be lost"
        );
        let mut drained = Vec::new();
        while let Some((ts, item)) = q.peek(&guard) {
            assert!(q.pop_if(ts, &guard));
            drained.push(item);
        }
        assert_eq!(drained.len(), THREADS * PER_THREAD);
        let mut sorted = drained.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            drained.len(),
            "no descriptor may be duplicated"
        );
    }

    /// Runs `body` on a thread of its own and fails if it has not finished
    /// within `limit`: an enqueue that waits shows as a failure, not a hang.
    fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
        let (done, finished) = channel();
        let worker = thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(limit) {
            Ok(()) => worker.join().unwrap(),
            Err(RecvTimeoutError::Disconnected) => {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("the enqueuers did not finish within {limit:?}")
            }
        }
    }

    #[test]
    fn waves_of_more_threads_than_slots_lose_and_duplicate_nothing() {
        // 16 threads at once on a queue sized for 2, in three waves of
        // short-lived threads, so that later waves reuse the participant
        // indices of earlier ones. Every thread drains beside its enqueues.
        const THREADS: usize = 16;
        const WAVES: usize = 3;
        const PER_THREAD: usize = 400;
        within(Duration::from_secs(120), || {
            let q: Arc<WaitFreeRootQueue<(usize, usize)>> = Arc::new(WaitFreeRootQueue::new(2));
            let mut enqueued: HashMap<(usize, usize), Timestamp> = HashMap::new();
            let mut popped: Vec<(Timestamp, (usize, usize))> = Vec::new();
            for wave in 0..WAVES {
                let start = Arc::new(Barrier::new(THREADS));
                let threads: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let q = Arc::clone(&q);
                        let start = Arc::clone(&start);
                        let id = wave * THREADS + t;
                        thread::spawn(move || {
                            let slot = q.register().expect("registration never fails");
                            start.wait();
                            let mut mine = Vec::with_capacity(PER_THREAD);
                            let mut took = Vec::new();
                            for i in 0..PER_THREAD {
                                let guard = epoch::pin();
                                mine.push(((id, i), q.enqueue(&slot, (id, i), &guard)));
                                if let Some((ts, item)) = q.peek(&guard) {
                                    if q.pop_if(ts, &guard) {
                                        took.push((ts, item));
                                    }
                                }
                            }
                            (mine, took)
                        })
                    })
                    .collect();
                for thread in threads {
                    let (mine, took) = thread.join().unwrap();
                    assert!(
                        mine.windows(2).all(|w| w[0].1 < w[1].1),
                        "a thread's own timestamps increase"
                    );
                    assert!(
                        took.windows(2).all(|w| w[0].0 < w[1].0),
                        "one thread's pops come out in timestamp order"
                    );
                    enqueued.extend(mine);
                    popped.extend(took);
                }
            }
            let guard = epoch::pin();
            let left = q.queue.timestamps(&guard);
            assert!(
                left.windows(2).all(|w| w[0] < w[1]),
                "queue order is timestamp order"
            );
            while let Some((ts, item)) = q.peek(&guard) {
                assert!(q.pop_if(ts, &guard));
                popped.push((ts, item));
            }
            assert_eq!(enqueued.len(), THREADS * WAVES * PER_THREAD);
            assert_eq!(
                popped.len(),
                enqueued.len(),
                "no descriptor lost or duplicated"
            );
            let mut seen = HashSet::new();
            for (ts, item) in &popped {
                assert!(seen.insert(*item), "{item:?} came out twice");
                assert_eq!(
                    enqueued.get(item),
                    Some(ts),
                    "{item:?} came out with its own timestamp"
                );
            }
        });
    }

    #[test]
    fn helping_assigns_timestamps_to_stalled_announcers() {
        // Direct white-box check of step 3: a record announced without a
        // timestamp gets one from a helper's scan. The stalled announcer is
        // simulated by a record published by hand, with an unassigned
        // timestamp, in a slot next to the helper's.
        let q: WaitFreeRootQueue<u32> = WaitFreeRootQueue::new(2);
        let helper = q.register().unwrap();
        let stalled = helper.index + 1;
        let guard = epoch::pin();
        // What a thread suspended inside step 2, between its fetch and its
        // CAS, leaves behind: the mark raised over its slot, its record
        // published, and version 1 taken. Had it stopped before the fetch,
        // the helper's version would directly follow the empty queue's tail,
        // and the helper would append without a scan.
        q.used.fetch_max(stalled + 1, Relaxed);
        q.version.fetch_add(1, Relaxed);
        q.slot(stalled).store(
            Owned::new(Announce {
                item: 999u32,
                ts: AtomicU64::new(0),
            }),
            Release,
        );
        // The helper enqueues with version 2; its scan must settle the
        // stalled record's timestamp before it can tell whether that record
        // goes first. Its fresh version (3) wins the record's CAS, so the
        // helper does not push the record, and the stalled thread's own CAS
        // of version 1 will fail.
        let helper_ts = q.enqueue(&helper, 1, &guard);
        // SAFETY: the record was stored above and is retired only by `Drop`.
        let stalled_ts = unsafe { q.slot(stalled).load(Acquire, &guard).deref() }
            .ts
            .load(Acquire);
        assert_ne!(stalled_ts, 0, "helper must have assigned a timestamp");
        assert!(Timestamp(stalled_ts) > helper_ts);
        assert_eq!(q.queue.timestamps(&guard), vec![helper_ts]);
    }

    #[test]
    fn interleaved_enqueue_and_drain() {
        const THREADS: usize = 3;
        const PER_THREAD: usize = 200;
        let q: Arc<WaitFreeRootQueue<usize>> = Arc::new(WaitFreeRootQueue::new(THREADS));
        let produced = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let q = Arc::clone(&q);
            let produced = Arc::clone(&produced);
            handles.push(thread::spawn(move || {
                let slot = q.register().unwrap();
                for i in 0..PER_THREAD {
                    let guard = epoch::pin();
                    q.enqueue(&slot, t * PER_THREAD + i, &guard);
                    produced.fetch_add(1, Relaxed);
                    // Consumers also drain concurrently, like tree helpers do.
                    if let Some((ts, _)) = q.peek(&guard) {
                        q.pop_if(ts, &guard);
                    }
                }
                q.unregister(slot);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Drain the remainder; total seen by peek/pop plus the leftovers must
        // equal the number produced (no losses).
        let guard = epoch::pin();
        let mut leftovers = 0;
        while let Some((ts, _)) = q.peek(&guard) {
            assert!(q.pop_if(ts, &guard));
            leftovers += 1;
        }
        assert!(leftovers <= THREADS * PER_THREAD);
        assert_eq!(produced.load(Relaxed), THREADS * PER_THREAD);
    }
}
