//! What one tree operation asks of the allocator.
//!
//! An update publishes a record at every level and retires the one it
//! replaces; at one point that was 54 allocations per successful insert,
//! most of them for things nobody read, and after that 2d + 7, until the
//! epoch shim began handing reclaimed blocks back to `Owned::new` (DESIGN.md,
//! "What one operation allocates"). This test counts them,
//! so that the next unread record shows up as a failed budget and not as a
//! slower benchmark. One thread, one test function: the counters belong to
//! the test's own thread and nothing else in this binary may run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wait_free_range_trees::api::{validate_batch, UNBOUNDED_BATCH_OPS};
use wait_free_range_trees::core::node::LEAF_CAP;
use wait_free_range_trees::prelude::{RangeRead, RangeScan, RangeSpec, ScanCursor};
use wait_free_range_trees::queue::WaitFreeRootQueue;
use wait_free_range_trees::{ShardedStore, StoreOp, WaitFreeTree};

thread_local! {
    /// `(allocations, frees)` made by this thread while `COUNTING`.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

fn note(allocated: bool) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = COUNTS.try_with(|c| {
            let (allocs, frees) = c.get();
            c.set(if allocated {
                (allocs + 1, frees)
            } else {
                (allocs, frees + 1)
            });
        });
    }
}

// SAFETY: defers every request to `System` unchanged; the bookkeeping touches
// only const-initialised thread-locals and never allocates. `realloc` is the
// default one: an allocation and a free.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(true);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(false);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn counts() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

/// Blocks allocated and not yet freed since counting began (may be negative:
/// a block from before it can be freed after).
fn live() -> i64 {
    let (allocs, frees) = counts();
    allocs as i64 - frees as i64
}

/// Mean allocations per call of `op` over `keys`.
fn allocations_per_op(keys: impl Iterator<Item = i64>, mut op: impl FnMut(i64)) -> f64 {
    let before = counts().0;
    let mut calls = 0u64;
    for key in keys {
        op(key);
        calls += 1;
    }
    (counts().0 - before) as f64 / calls as f64
}

/// Three rounds move the epoch far enough to reclaim everything retired.
fn flush_epochs() {
    for _ in 0..3 {
        crossbeam_epoch::pin().flush();
    }
}

/// Mean allocations per call of each operation on one tree.
struct Budget {
    depth: f64,
    build_per_key: f64,
    insert: f64,
    failed_insert: f64,
    failed_remove: f64,
    count: f64,
    get: f64,
    contains: f64,
}

/// Builds a tree of `keys` even keys, measures each operation on `SAMPLE`
/// keys, drops the tree and checks that every block allocated since is
/// either freed or held in the thread's epoch pool.
fn measure(keys: i64) -> Budget {
    const SAMPLE: i64 = 256;
    // Even keys are present, odd keys absent; a stride spreads the sample
    // over the key space so that no leaf run overflows and no subtree comes
    // due for a rebuild while it is measured. The sample is the same at
    // every size, so that only the depth differs: each insert of a new key
    // leaves a presence entry behind, a plain `Box` born holding its state,
    // which stays linked and never comes from the pool.
    let stride = keys / SAMPLE;
    let absent = || (0..SAMPLE).map(move |i| 2 * i * stride + 1);
    let present = || (0..SAMPLE).map(move |i| 2 * i * stride);
    // A bulk-built tree packs runs three quarters full under a balanced
    // skeleton.
    let runs = (keys as usize).div_ceil(LEAF_CAP * 3 / 4);
    let depth = runs.next_power_of_two().trailing_zeros() as f64;

    COUNTING.with(|c| c.set(true));
    let baseline = live();
    let pooled_before = crossbeam_epoch::thread_pooled_blocks();

    let before_build = counts().0;
    let tree: WaitFreeTree<i64, i64> = WaitFreeTree::from_entries((0..keys).map(|k| (2 * k, k)));
    let build_per_key = (counts().0 - before_build) as f64 / keys as f64;

    let contains = allocations_per_op(present(), |k| assert!(tree.contains(&k)));
    let get = allocations_per_op(present(), |k| assert_eq!(tree.get(&k), Some(k / 2)));
    let count = allocations_per_op(present(), |k| {
        let hi = (k + 200).min(2 * keys - 2);
        assert_eq!(tree.count(k, k + 200), (hi - k) as u64 / 2 + 1);
    });
    let failed_insert = allocations_per_op(present(), |k| assert!(!tree.insert(k, -1)));
    let failed_remove = allocations_per_op(absent(), |k| assert!(!tree.remove(&k)));
    let insert = allocations_per_op(absent(), |k| assert!(tree.insert(k, -1)));

    drop(tree);
    flush_epochs();
    let leaked = live() - baseline;
    let pooled = crossbeam_epoch::thread_pooled_blocks() as i64 - pooled_before as i64;
    COUNTING.with(|c| c.set(false));

    // A reclaimed record is not freed but kept for reuse; anything else
    // still allocated is a leak.
    assert_eq!(
        leaked, pooled,
        "blocks still allocated after the tree of {keys} keys is gone, beyond those \
         the epoch pool took"
    );
    Budget {
        depth,
        build_per_key,
        insert,
        failed_insert,
        failed_remove,
        count,
        get,
        contains,
    }
}

/// Allocations of the store's listing reads on a quiescent eight-shard
/// store of 2^15 even keys (the benchmark's store): a one-shot
/// `collect_range` of 8192 keys across a shard boundary, and a chunk-256
/// drain of the same range, per yielded chunk. Both are means over ranges
/// at several offsets.
struct ListingBudget {
    collect: f64,
    drain_per_chunk: f64,
}

fn measure_listings() -> ListingBudget {
    const WIDTH: i64 = 8192;
    const OFFSETS: i64 = 16;
    let store: ShardedStore<i64, i64> =
        ShardedStore::from_entries((0..1 << 15).map(|k| (2 * k, k)), 8);
    // Each range straddles the boundary between shards `i % 7` and the
    // next one, at a different offset each time.
    let range = |i: i64| {
        let bound = store.boundaries()[(i % 7) as usize];
        let lo = bound - WIDTH / 2 + (i - OFFSETS / 2) * 97;
        RangeSpec::inclusive(lo, lo + WIDTH - 1)
    };
    let collect = allocations_per_op(0..OFFSETS, |i| {
        assert_eq!(RangeRead::collect_range(&store, range(i)).len(), 4096);
    });
    // 4096 entries are 16 chunks of 256.
    let drain_per_chunk = allocations_per_op(0..OFFSETS, |i| {
        assert_eq!(RangeScan::scan(&store, range(i)).drain(256).len(), 4096);
    }) / 16.0;
    ListingBudget {
        collect,
        drain_per_chunk,
    }
}

/// Allocations of a one-op write batch on the same eight-shard store,
/// against the point write it amounts to, and of validating a 16-op batch.
struct BatchBudget {
    insert: f64,
    one_op_batch: f64,
    validate_16: f64,
}

fn measure_batches() -> BatchBudget {
    const SAMPLE: i64 = 256;
    let store: ShardedStore<i64, i64> =
        ShardedStore::from_entries((0..1 << 15).map(|k| (2 * k, k)), 8);
    // Two interleaved sets of absent odd keys, spread over every shard.
    let stride = (1 << 16) / SAMPLE;
    let insert = allocations_per_op((0..SAMPLE).map(|i| i * stride + 1), |k| {
        assert!(store.insert(k, -1));
    });
    // The batches are built before counting: what is counted is the
    // store's own work, of which the returned vector is one allocation.
    let mut batches = (0..SAMPLE)
        .map(|i| {
            vec![StoreOp::Insert {
                key: i * stride + 3,
                value: -1,
            }]
        })
        .collect::<Vec<_>>()
        .into_iter();
    let one_op_batch = allocations_per_op(0..SAMPLE, |_| {
        let batch = batches.next().expect("one batch per call");
        assert_eq!(store.apply_batch(batch).unwrap().len(), 1);
    });
    let sixteen: Vec<StoreOp<i64, i64>> = (0..16)
        .map(|k| StoreOp::InsertOrReplace { key: k, value: k })
        .collect();
    let validate_16 = allocations_per_op(0..SAMPLE, |_| {
        assert!(validate_batch(&sixteen, UNBOUNDED_BATCH_OPS).is_ok());
    });
    BatchBudget {
        insert,
        one_op_batch,
        validate_16,
    }
}

/// Allocations of one enqueue and pop on a root queue whose announce chunk
/// is installed and whose records the thread's pool has stocked. The
/// warm-up ends in the steady state of the epoch pipeline (two sealed bags
/// in flight); a `flush_epochs` here would reclaim them all and cost one
/// bag buffer to refill the pipeline in the measured rounds.
fn measure_root_queue() -> f64 {
    const SAMPLE: u64 = 256;
    let queue: WaitFreeRootQueue<u64> = WaitFreeRootQueue::new(8);
    let slot = queue.register().expect("registration never fails");
    let enqueue_pop = |item| {
        let guard = crossbeam_epoch::pin();
        let ts = queue.enqueue(&slot, item, &guard);
        assert!(queue.pop_if(ts, &guard));
    };
    (0..SAMPLE).for_each(enqueue_pop);
    let before = counts().0;
    (0..SAMPLE).for_each(enqueue_pop);
    (counts().0 - before) as f64 / SAMPLE as f64
}

#[test]
fn operations_stay_within_their_allocation_budget() {
    // Everything lazy (the thread's epoch record, its buffers, its bag queue
    // and its pool) exists before the baseline is taken.
    let warm_up: WaitFreeTree<i64, i64> = WaitFreeTree::new();
    for round in 0..256 {
        warm_up.insert_or_replace(0, round);
    }
    drop(warm_up);
    flush_epochs();

    let shallow = measure(1 << 12);
    let deep = measure(1 << 15);
    for b in [&shallow, &deep] {
        let depth = b.depth;
        eprintln!(
            "allocations per op at depth {depth}: insert {:.1}, failed insert {:.1}, \
             failed remove {:.1}, count {:.1}, get {:.1}, contains {:.1}; \
             from_entries {:.2} per key",
            b.insert, b.failed_insert, b.failed_remove, b.count, b.get, b.contains, b.build_per_key
        );
        // A bulk load gives each key one presence entry, born present, and
        // shares the rest (the sorted copy, the runs and the skeleton)
        // between the keys of a run.
        assert!(
            b.build_per_key <= 1.25,
            "from_entries made {:.2} allocations per key at depth {depth}, over 1.25",
            b.build_per_key
        );
        assert_eq!(b.contains, 0.0, "contains is a presence-index read");
        assert_eq!(b.get, 0.0, "get clones an i64 out of the presence index");
        assert!(
            b.count <= 3.0,
            "a quiescent count made {} allocations",
            b.count
        );
        // A failing update is answered at the presence load, like
        // `contains`: no descriptor, no root-queue node, no presence record.
        assert_eq!(b.failed_insert, 0.0, "failed insert at depth {depth}");
        assert_eq!(b.failed_remove, 0.0, "failed remove at depth {depth}");
        // The rewritten run and a new key's presence entry (a plain `Box`
        // born with the resolved state, never retired) are 2; every record
        // an insert publishes through `Owned::new` (the descriptor, a state
        // and a queue node per level, the root-queue node, the run's node)
        // comes from the epoch pool once retirements have stocked it.
        assert!(
            b.insert <= 3.0,
            "a successful insert made {} allocations at depth {depth}, over 3",
            b.insert
        );
    }
    COUNTING.with(|c| c.set(true));
    let listings = measure_listings();
    COUNTING.with(|c| c.set(false));
    eprintln!(
        "allocations of a quiescent 8-shard store: collect_range of 4096 entries {:.1}, \
         chunk-256 drain {:.2} per chunk",
        listings.collect, listings.drain_per_chunk
    );
    // Every shard appends into the one vector returned, which grows by
    // doubling; each shard's walk adds its read log and the log's regrowth.
    // An intermediate vector per shard, as the shards once returned, is
    // another dozen.
    assert!(
        listings.collect <= 30.0,
        "a cross-shard collect of 4096 entries made {:.1} allocations, over 30",
        listings.collect
    );
    // A chunk is one slice copy out of the read-ahead buffer (or the buffer
    // itself); a merge pass reserves the buffer once and its walks size
    // their logs from the pass. A per-chunk intermediate vector or an
    // unsized pass shows as one or more extra per chunk.
    assert!(
        listings.drain_per_chunk <= 3.0,
        "a chunk-256 drain made {:.2} allocations per chunk, over 3",
        listings.drain_per_chunk
    );
    COUNTING.with(|c| c.set(true));
    let batches = measure_batches();
    COUNTING.with(|c| c.set(false));
    eprintln!(
        "allocations on the same store: insert {:.2}, one-op apply_batch {:.2}; \
         validate_batch of 16 ops {:.2}",
        batches.insert, batches.one_op_batch, batches.validate_16
    );
    // A one-op physical batch runs as the point write it is: no plan, no
    // per-shard groups, no results vector of options, no hash set.
    assert!(
        batches.one_op_batch <= batches.insert + 1.0,
        "a one-op apply_batch made {:.2} allocations against {:.2} for insert, over one more",
        batches.one_op_batch,
        batches.insert
    );
    // Short batches find duplicate keys by comparing pairs.
    assert_eq!(
        batches.validate_16, 0.0,
        "validate_batch of 16 ops allocated"
    );
    COUNTING.with(|c| c.set(true));
    let root_queue = measure_root_queue();
    COUNTING.with(|c| c.set(false));
    eprintln!("allocations of a warmed root queue: enqueue and pop {root_queue:.2}");
    // The announce record and the queue node come from the epoch pool, and
    // the helping scan picks records one by one instead of collecting them.
    assert_eq!(
        root_queue, 0.0,
        "an enqueue and pop on a warmed root queue allocated"
    );
    // Three more levels would cost at least three more allocations if any
    // per-level record missed the pool.
    assert!(
        deep.insert <= shallow.insert + 0.5,
        "allocations per insert grow with depth: {:.1} at depth {}, {:.1} at depth {}",
        shallow.insert,
        shallow.depth,
        deep.insert,
        deep.depth
    );
}
