//! Concurrent correctness tests for the wait-free tree.
//!
//! These tests exercise the hand-over-hand helping engine under real thread
//! interleavings and check linearizability-derived invariants that do not
//! require knowing the exact linearization order:
//!
//! * per-key alternation: successful inserts and removes of one key must
//!   alternate, so their counts differ by at most one and the difference
//!   equals the key's final presence;
//! * per-thread exactness: a thread that is the only writer of a key range
//!   must observe exact `count` results for that range in its own program
//!   order;
//! * global conservation: once quiescent, `len()`, `count(ALL)`,
//!   `collect(ALL).len()` and the physical leaves all agree, and the
//!   structural invariants hold.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wft_core::{TreeConfig, WaitFreeTree};
use wft_obs::MetricsSource;

/// Number of worker threads used throughout (kept small so the suite stays
/// fast on single-core CI machines while still producing real interleavings
/// through preemption).
const THREADS: usize = 4;

#[test]
fn disjoint_concurrent_inserts_are_all_applied() {
    const PER_THREAD: i64 = 2_000;
    let tree: Arc<WaitFreeTree<i64>> = Arc::new(WaitFreeTree::new());
    let handles: Vec<_> = (0..THREADS as i64)
        .map(|t| {
            let tree = Arc::clone(&tree);
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    assert!(tree.insert(t * PER_THREAD + i, ()), "fresh key must insert");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total = THREADS as i64 * PER_THREAD;
    assert_eq!(tree.len(), total as u64);
    assert_eq!(tree.count(0, total - 1), total as u64);
    assert_eq!(
        tree.collect_range(0, total - 1).len() as i64,
        total,
        "collect must report every inserted key"
    );
    tree.check_invariants();
}

#[test]
fn racing_inserts_of_the_same_keys_succeed_exactly_once() {
    const KEYS: i64 = 1_500;
    let tree: Arc<WaitFreeTree<i64>> = Arc::new(WaitFreeTree::new());
    let successes = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let tree = Arc::clone(&tree);
            let successes = Arc::clone(&successes);
            thread::spawn(move || {
                for k in 0..KEYS {
                    if tree.insert(k, ()) {
                        successes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        successes.load(Ordering::Relaxed),
        KEYS as u64,
        "each key must be successfully inserted exactly once across all racers"
    );
    assert_eq!(tree.len(), KEYS as u64);
    assert_eq!(tree.count(i64::MIN, i64::MAX), KEYS as u64);
    tree.check_invariants();
}

#[test]
fn per_key_insert_remove_alternation_holds_under_contention() {
    const KEYS: i64 = 64; // small key space => heavy per-key contention
    const OPS_PER_THREAD: usize = 3_000;
    let tree: Arc<WaitFreeTree<i64>> = Arc::new(WaitFreeTree::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let tree = Arc::clone(&tree);
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xFEED + t as u64);
                // per-key counters of successful inserts / removes
                let mut ins = vec![0u64; KEYS as usize];
                let mut rem = vec![0u64; KEYS as usize];
                for _ in 0..OPS_PER_THREAD {
                    let k = rng.gen_range(0..KEYS);
                    if rng.gen_bool(0.5) {
                        if tree.insert(k, ()) {
                            ins[k as usize] += 1;
                        }
                    } else if tree.remove(&k) {
                        rem[k as usize] += 1;
                    }
                }
                (ins, rem)
            })
        })
        .collect();
    let mut ins_total = vec![0u64; KEYS as usize];
    let mut rem_total = vec![0u64; KEYS as usize];
    for h in handles {
        let (ins, rem) = h.join().unwrap();
        for k in 0..KEYS as usize {
            ins_total[k] += ins[k];
            rem_total[k] += rem[k];
        }
    }
    let final_entries = tree.entries_quiescent();
    for k in 0..KEYS {
        let present = final_entries.iter().any(|(key, _)| *key == k);
        let diff = ins_total[k as usize] as i64 - rem_total[k as usize] as i64;
        assert!(
            diff == 0 || diff == 1,
            "key {k}: successful inserts ({}) and removes ({}) cannot both win twice in a row",
            ins_total[k as usize],
            rem_total[k as usize]
        );
        assert_eq!(
            diff == 1,
            present,
            "key {k}: final presence must match the update balance"
        );
    }
    assert_eq!(tree.len() as usize, final_entries.len());
    tree.check_invariants();
}

#[test]
fn count_is_exact_for_a_threads_private_range() {
    // Each thread owns a disjoint key range and is its only writer; by
    // linearizability + program order, every count over its own range must be
    // exact, no matter what the other threads do to the rest of the tree.
    const RANGE: i64 = 512;
    const STEPS: usize = 1_500;
    let tree: Arc<WaitFreeTree<i64>> = Arc::new(WaitFreeTree::new());
    let handles: Vec<_> = (0..THREADS as i64)
        .map(|t| {
            let tree = Arc::clone(&tree);
            thread::spawn(move || {
                let lo = t * RANGE;
                let hi = lo + RANGE - 1;
                let mut rng = StdRng::seed_from_u64(0xABCD + t as u64);
                let mut mine = std::collections::BTreeSet::new();
                for step in 0..STEPS {
                    let k = rng.gen_range(lo..=hi);
                    match rng.gen_range(0..4) {
                        0 | 1 => {
                            assert_eq!(tree.insert(k, ()), mine.insert(k), "step {step}");
                        }
                        2 => {
                            assert_eq!(tree.remove(&k), mine.remove(&k), "step {step}");
                        }
                        _ => {
                            let a = rng.gen_range(lo..=hi);
                            let b = rng.gen_range(a..=hi);
                            let expect = mine.range(a..=b).count() as u64;
                            assert_eq!(
                                tree.count(a, b),
                                expect,
                                "step {step}: exact count over privately-owned range [{a}, {b}]"
                            );
                        }
                    }
                }
                mine.len() as u64
            })
        })
        .collect();
    let mut expected_total = 0;
    for h in handles {
        expected_total += h.join().unwrap();
    }
    assert_eq!(tree.len(), expected_total);
    assert_eq!(tree.count(i64::MIN, i64::MAX), expected_total);
    tree.check_invariants();
}

#[test]
fn global_readers_see_consistent_counts_during_updates() {
    // Writers fill the key space; a reader repeatedly counts the whole range
    // and checks monotone-style bounds (counts can never exceed the number of
    // keys whose insertion has started, nor drop below zero, and must be
    // non-decreasing in this insert-only workload).
    const PER_THREAD: i64 = 1_200;
    let tree: Arc<WaitFreeTree<i64>> = Arc::new(WaitFreeTree::new());
    let done = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..(THREADS - 1) as i64)
        .map(|t| {
            let tree = Arc::clone(&tree);
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    tree.insert(t * PER_THREAD + i, ());
                }
            })
        })
        .collect();
    let reader = {
        let tree = Arc::clone(&tree);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let max_possible = (THREADS as i64 - 1) * PER_THREAD;
            let mut last = 0u64;
            let mut observations = 0u64;
            while !done.load(Ordering::Relaxed) {
                let n = tree.count(i64::MIN, i64::MAX);
                assert!(
                    n >= last,
                    "count went backwards ({last} -> {n}) in an insert-only workload"
                );
                assert!(n <= max_possible as u64);
                last = n;
                observations += 1;
            }
            observations
        })
    };
    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    let observations = reader.join().unwrap();
    assert!(observations > 0, "the reader must have run");
    let total = ((THREADS - 1) as i64 * PER_THREAD) as u64;
    assert_eq!(tree.count(i64::MIN, i64::MAX), total);
    tree.check_invariants();
}

#[test]
fn heavy_rebuilds_under_concurrency_preserve_contents() {
    // An aggressive rebuild factor forces frequent subtree rebuilds while
    // other threads are mid-operation.
    const PER_THREAD: i64 = 1_500;
    let cfg = TreeConfig {
        rebuild_factor: 0.25,
        ..TreeConfig::default()
    };
    let tree: Arc<WaitFreeTree<i64>> = Arc::new(WaitFreeTree::with_config(cfg));
    let handles: Vec<_> = (0..THREADS as i64)
        .map(|t| {
            let tree = Arc::clone(&tree);
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x9E3779B9 ^ t as u64);
                let mut mine = std::collections::BTreeSet::new();
                let lo = t * PER_THREAD * 2;
                for _ in 0..PER_THREAD {
                    let k = lo + rng.gen_range(0..PER_THREAD * 2);
                    if rng.gen_bool(0.7) {
                        assert_eq!(tree.insert(k, ()), mine.insert(k));
                    } else {
                        assert_eq!(tree.remove(&k), mine.remove(&k));
                    }
                }
                mine
            })
        })
        .collect();
    let mut expected = std::collections::BTreeSet::new();
    for h in handles {
        expected.extend(h.join().unwrap());
    }
    assert!(
        tree.metrics().counter("tree_rebuilds") > Some(0),
        "the aggressive rebuild factor must trigger rebuilds"
    );
    let got: Vec<i64> = tree
        .entries_quiescent()
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    let want: Vec<i64> = expected.into_iter().collect();
    assert_eq!(
        got, want,
        "tree contents diverged after concurrent rebuilds"
    );
    tree.check_invariants();
}

#[test]
fn wait_free_root_queue_under_concurrency() {
    // Four times as many enqueuers as the other tests, and twice as many as
    // the first chunk of the root queue's announce array holds: every
    // thread announces in its own slot, so none waits for one.
    const ENQUEUERS: usize = 4 * THREADS;
    const PER_THREAD: i64 = 800;
    let tree: Arc<WaitFreeTree<i64>> = Arc::new(WaitFreeTree::new());
    let handles: Vec<_> = (0..ENQUEUERS as i64)
        .map(|t| {
            let tree = Arc::clone(&tree);
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    assert!(tree.insert(t * PER_THREAD + i, ()));
                }
                for i in 0..PER_THREAD {
                    if i % 2 == 0 {
                        assert!(tree.remove(&(t * PER_THREAD + i)));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total = (ENQUEUERS as i64 * PER_THREAD / 2) as u64;
    assert_eq!(tree.len(), total);
    assert_eq!(tree.count(i64::MIN, i64::MAX), total);
    tree.check_invariants();
}

#[test]
fn mixed_workload_with_range_queries_and_prefill() {
    // Mirrors the paper's insert-delete workload shape: a prefilled tree, a
    // 50/50 insert/remove mix, plus concurrent count queries of varying
    // width. Functional checks are per-thread (each thread validates
    // operations on its own prefilled partition).
    const KEYSPACE: i64 = 4_096;
    const OPS: usize = 2_000;
    let prefill: Vec<(i64, ())> = (0..KEYSPACE)
        .filter(|k| k % 2 == 0)
        .map(|k| (k, ()))
        .collect();
    let prefilled_len = prefill.len() as u64;
    let tree: Arc<WaitFreeTree<i64>> = Arc::new(WaitFreeTree::from_entries(prefill));
    assert_eq!(tree.len(), prefilled_len);

    let handles: Vec<_> = (0..THREADS as i64)
        .map(|t| {
            let tree = Arc::clone(&tree);
            thread::spawn(move || {
                let span = KEYSPACE / THREADS as i64;
                let lo = t * span;
                let hi = lo + span - 1;
                let mut rng = StdRng::seed_from_u64(0xD1CE + t as u64);
                let mut mine: std::collections::BTreeSet<i64> =
                    (lo..=hi).filter(|k| k % 2 == 0).collect();
                for _ in 0..OPS {
                    let k = rng.gen_range(lo..=hi);
                    match rng.gen_range(0..5) {
                        0 | 1 => {
                            assert_eq!(tree.insert(k, ()), mine.insert(k));
                        }
                        2 | 3 => {
                            assert_eq!(tree.remove(&k), mine.remove(&k));
                        }
                        _ => {
                            let width = rng.gen_range(1..span);
                            let a = rng.gen_range(lo..=hi - 1);
                            let b = (a + width).min(hi);
                            assert_eq!(
                                tree.count(a, b),
                                mine.range(a..=b).count() as u64,
                                "count over private prefilled range"
                            );
                        }
                    }
                }
                mine.len() as u64
            })
        })
        .collect();
    let mut expected = 0;
    for h in handles {
        expected += h.join().unwrap();
    }
    assert_eq!(tree.len(), expected);
    assert_eq!(tree.count(0, KEYSPACE - 1), expected);
    assert_eq!(tree.collect_range(0, KEYSPACE - 1).len() as u64, expected);
    tree.check_invariants();
}
