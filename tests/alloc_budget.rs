//! What one tree operation asks of the allocator.
//!
//! An update pays for every record it publishes with a `malloc`, and for
//! every record it replaces with a deferred `free`; at one point that was
//! 54 allocations per successful insert, most of them for things nobody
//! read (DESIGN.md, "What one operation allocates"). This test counts them,
//! so that the next unread record shows up as a failed budget and not as a
//! slower benchmark. One thread, one test function: the counters belong to
//! the test's own thread and nothing else in this binary may run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wait_free_range_trees::core::node::LEAF_CAP;
use wait_free_range_trees::WaitFreeTree;

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

/// Three rounds move the epoch far enough to free everything retired.
fn flush_epochs() {
    for _ in 0..3 {
        crossbeam_epoch::pin().flush();
    }
}

#[test]
fn operations_stay_within_their_allocation_budget() {
    const KEYS: i64 = 1 << 15;
    const SAMPLE: i64 = 2_000;
    // Even keys are present, odd keys absent; a stride spreads the sample
    // over the key space so that no leaf run overflows and no subtree comes
    // due for a rebuild while it is measured.
    let stride = KEYS / SAMPLE;
    let absent = || (0..SAMPLE).map(move |i| 2 * i * stride + 1);
    let present = || (0..SAMPLE).map(move |i| 2 * i * stride);
    // A bulk-built tree packs runs three quarters full under a balanced
    // skeleton.
    let runs = (KEYS as usize).div_ceil(LEAF_CAP * 3 / 4);
    let depth = runs.next_power_of_two().trailing_zeros() as f64;

    // Everything lazy (the thread's epoch record, its buffer and its bag
    // queue) exists before the baseline is taken.
    let warm_up: WaitFreeTree<i64, i64> = WaitFreeTree::new();
    for round in 0..256 {
        warm_up.insert_or_replace(0, round);
    }
    drop(warm_up);
    flush_epochs();
    COUNTING.with(|c| c.set(true));
    let baseline = live();

    let tree: WaitFreeTree<i64, i64> = WaitFreeTree::from_entries((0..KEYS).map(|k| (2 * k, k)));

    let contains = allocations_per_op(present(), |k| assert!(tree.contains(&k)));
    let get = allocations_per_op(present(), |k| assert_eq!(tree.get(&k), Some(k / 2)));
    let count = allocations_per_op(present(), |k| {
        assert_eq!(tree.count(k, k + 200), 101);
    });
    let failed_insert = allocations_per_op(present(), |k| assert!(!tree.insert(k, -1)));
    let insert = allocations_per_op(absent(), |k| assert!(tree.insert(k, -1)));

    drop(tree);
    flush_epochs();
    let leaked = live() - baseline;
    COUNTING.with(|c| c.set(false));

    eprintln!(
        "allocations per op at depth {depth}: insert {insert:.1}, failed insert \
         {failed_insert:.1}, count {count:.1}, get {get:.1}, contains {contains:.1}"
    );
    assert_eq!(contains, 0.0, "contains is a presence-index read");
    assert_eq!(get, 0.0, "get clones an i64 out of the presence index");
    assert!(count <= 3.0, "a quiescent count made {count} allocations");
    assert!(
        failed_insert <= 4.0,
        "a failed insert made {failed_insert} allocations: a descriptor, a root-queue \
         node and a presence record are 3"
    );
    // Two records per inner level (the child's state and its queue node),
    // and beside them: descriptor, root-queue node, presence entry + its two
    // records, the rewritten run and its node, one sealed epoch buffer per 64
    // retirements.
    let budget = 2.0 * depth + 8.0;
    assert!(
        insert <= budget,
        "a successful insert made {insert} allocations, over 2 * {depth} + 8"
    );
    assert_eq!(leaked, 0, "blocks still allocated after the tree is gone");
}
