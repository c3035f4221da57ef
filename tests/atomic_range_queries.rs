//! Atomicity of aggregate range queries under concurrent updates.
//!
//! The paper's central semantic claim is that `count(min, max)` is a *single
//! linearizable operation*: it reflects exactly the updates linearized before
//! it, never a partially applied one. These tests maintain an invariant over
//! a key window that every individual update preserves (up to the one update
//! in flight) and assert that concurrent counts never observe a violation —
//! something a collect-and-count implementation over a non-atomic traversal
//! cannot guarantee.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use wait_free_range_trees::core::TreeConfig;
use wait_free_range_trees::WaitFreeTree;

/// Writers swap keys in and out of a window so its population stays within
/// ±1 of the initial value at every linearization point; readers count the
/// window concurrently and must never see a larger deviation.
fn window_population_stays_consistent(config: TreeConfig) {
    const WINDOW: i64 = 2_000;
    const MOVES: i64 = 1_500;
    const WRITERS: i64 = 2;
    const READERS: usize = 2;

    // Pre-fill every even key of each writer's stripe.
    let prefill: Vec<(i64, ())> = (0..WINDOW)
        .filter(|k| k % 2 == 0)
        .map(|k| (k, ()))
        .collect();
    let expected = prefill.len() as u64;
    let tree: Arc<WaitFreeTree<i64>> =
        Arc::new(WaitFreeTree::from_entries_with_config(prefill, config));
    assert_eq!(tree.count(0, WINDOW - 1), expected);

    let stop = Arc::new(AtomicBool::new(false));
    // The writers start once every reader is about to count (and a reader
    // counts at least once): 6000 updates can be over before a thread spawned
    // after them is first scheduled.
    let start = Arc::new(std::sync::Barrier::new(WRITERS as usize + READERS));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let tree = Arc::clone(&tree);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                // Each writer owns a disjoint stripe of the window (keys with
                // k/2 ≡ w mod WRITERS) so writers never fight over the same
                // key and the ±1 envelope holds per linearization.
                for i in 0..MOVES {
                    let slot = (i * WRITERS + w) * 2 % WINDOW;
                    let resident = slot;
                    let vacant = slot + 1;
                    if i % 2 == 0 {
                        // Move resident → vacant: population dips by one
                        // between the two linearization points.
                        tree.remove(&resident);
                        tree.insert(vacant, ());
                    } else {
                        // Move back.
                        tree.remove(&vacant);
                        tree.insert(resident, ());
                    }
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let mut observations = 0u64;
                loop {
                    let n = tree.count(0, WINDOW - 1);
                    assert!(
                        n + WRITERS as u64 >= expected && n <= expected + WRITERS as u64,
                        "count {n} outside the ±{WRITERS} envelope around {expected}",
                    );
                    observations += 1;
                    if stop.load(Ordering::Relaxed) {
                        break observations;
                    }
                }
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0, "readers must have observed counts");
    }
    // Every writer ends on an even number of moves... MOVES is odd per writer,
    // so just re-derive the final population from the physical contents.
    tree.check_invariants();
    assert_eq!(tree.count(0, WINDOW - 1), tree.len());
}

#[test]
fn counts_are_atomic_with_the_wait_free_root_queue() {
    window_population_stays_consistent(TreeConfig::default());
}

#[test]
fn counts_are_atomic_while_rebuilds_fire() {
    // An aggressive rebuild factor makes subtree replacement constant; counts
    // must stay exact through them.
    window_population_stays_consistent(TreeConfig {
        rebuild_factor: 0.5,
        ..TreeConfig::default()
    });
}

#[test]
fn range_sum_is_atomic_under_value_rebalancing() {
    use wait_free_range_trees::core::Sum;

    // Writers repeatedly move "budget" between two accounts by removing a
    // key-value pair and re-inserting it with the complementary value; the
    // total sum over the window is invariant except for the one pair in
    // flight, whose contribution is bounded by the per-account budget.
    const ACCOUNTS: i64 = 256;
    const BUDGET: i64 = 100;
    const MOVES: usize = 1_200;

    let tree: Arc<WaitFreeTree<i64, i64, Sum>> = Arc::new(WaitFreeTree::from_entries(
        (0..ACCOUNTS).map(|k| (k, BUDGET)),
    ));
    let expected: i128 = (ACCOUNTS * BUDGET) as i128;
    let stop = Arc::new(AtomicBool::new(false));
    // As above: the writer waits for the reader, the reader reads at least once.
    let start = Arc::new(std::sync::Barrier::new(2));

    let writer = {
        let tree = Arc::clone(&tree);
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            start.wait();
            for i in 0..MOVES {
                let account = (i as i64 * 7) % ACCOUNTS;
                // Remove and re-insert with the same value: the sum dips by at
                // most BUDGET between the two linearization points.
                tree.remove(&account);
                tree.insert(account, BUDGET);
            }
        })
    };
    let reader = {
        let tree = Arc::clone(&tree);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            start.wait();
            let mut observations = 0u64;
            loop {
                let sum = tree.range_agg(0, ACCOUNTS - 1);
                assert!(
                    sum >= expected - BUDGET as i128 && sum <= expected,
                    "range_sum {sum} outside [{}, {expected}]",
                    expected - BUDGET as i128
                );
                observations += 1;
                if stop.load(Ordering::Relaxed) {
                    break observations;
                }
            }
        })
    };
    writer.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    assert!(reader.join().unwrap() > 0);
    tree.check_invariants();
    assert_eq!(tree.range_agg(0, ACCOUNTS - 1), expected);
}
