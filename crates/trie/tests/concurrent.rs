//! Concurrent tests for the wait-free trie: the same adversarial patterns the
//! core tree is subjected to, adapted to bit-routing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use wft_obs::MetricsSource;
use wft_trie::WaitFreeTrie;

/// Simple xorshift so the tests do not depend on `rand` ordering.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn concurrent_disjoint_inserts_all_land() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 2_000;
    let trie: Arc<WaitFreeTrie<u64>> = Arc::new(WaitFreeTrie::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let trie = Arc::clone(&trie);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    assert!(trie.insert(t * PER_THREAD + i, ()));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(trie.len(), THREADS * PER_THREAD);
    assert_eq!(trie.count(0, u64::MAX), THREADS * PER_THREAD);
    trie.check_invariants();
}

#[test]
fn concurrent_contended_updates_keep_invariants() {
    const THREADS: usize = 4;
    const OPS: usize = 3_000;
    const RANGE: u64 = 128;
    let trie: Arc<WaitFreeTrie<u64>> = Arc::new(WaitFreeTrie::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let trie = Arc::clone(&trie);
            std::thread::spawn(move || {
                let mut state = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                for _ in 0..OPS {
                    let key = xorshift(&mut state) % RANGE;
                    match xorshift(&mut state) % 3 {
                        0 => {
                            trie.insert(key, ());
                        }
                        1 => {
                            trie.remove(&key);
                        }
                        _ => {
                            trie.contains(&key);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    trie.check_invariants();
    assert_eq!(trie.entries_quiescent().len() as u64, trie.len());
    assert_eq!(trie.count(0, u64::MAX), trie.len());
}

#[test]
fn concurrent_counts_are_never_torn() {
    // Writers move one key out of a window while inserting another into it,
    // keeping the number of keys in the window invariant; concurrent counts
    // must always observe that invariant (this is the atomicity property a
    // collect-based count cannot give).
    const WINDOW: u64 = 1_000;
    const MOVES: u64 = 2_000;
    let trie: Arc<WaitFreeTrie<u64>> = Arc::new(WaitFreeTrie::new());
    // Pre-fill every even slot in the window: 500 keys.
    for k in (0..WINDOW).step_by(2) {
        trie.insert(k, ());
    }
    let expected = trie.count(0, WINDOW - 1);
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let trie = Arc::clone(&trie);
        std::thread::spawn(move || {
            // Each iteration removes one resident key and inserts a different
            // absent one — always in a single "swap" of two scalar updates, so
            // the count can momentarily be expected-1 or expected+1 but never
            // drift: we alternate remove-then-insert and insert-then-remove.
            for i in 0..MOVES {
                let out_key = (i * 2) % WINDOW;
                let in_key = (i * 2 + 1) % WINDOW;
                if i % 2 == 0 {
                    trie.remove(&out_key);
                    trie.insert(in_key, ());
                } else {
                    trie.insert(out_key, ());
                    trie.remove(&in_key);
                }
            }
        })
    };
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let trie = Arc::clone(&trie);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut observations = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let n = trie.count(0, WINDOW - 1);
                    // The writer keeps the population within ±1 of the
                    // initial value at every linearization point.
                    assert!(
                        n + 1 >= expected && n <= expected + 1,
                        "count {n} drifted from {expected}"
                    );
                    observations += 1;
                }
                observations
            })
        })
        .collect();
    writer.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0, "readers must have observed counts");
    }
    trie.check_invariants();
}

#[test]
fn helping_counters_register_under_contention() {
    const THREADS: usize = 4;
    const OPS: usize = 1_500;
    let trie: Arc<WaitFreeTrie<u64>> = Arc::new(WaitFreeTrie::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let trie = Arc::clone(&trie);
            std::thread::spawn(move || {
                let mut state = (t as u64 + 7) | 1;
                for _ in 0..OPS {
                    // All threads fight over a handful of keys so descriptors
                    // pile up in the same queues.
                    let key = xorshift(&mut state) % 4;
                    if xorshift(&mut state).is_multiple_of(2) {
                        trie.insert(key, ());
                    } else {
                        trie.remove(&key);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let metrics = trie.metrics();
    let count = |name| metrics.counter(name).unwrap();
    assert_eq!(
        count("trie_inserts") - count("trie_removes"),
        trie.len(),
        "successful updates must account for the final size"
    );
    trie.check_invariants();
}

#[test]
fn mixed_range_queries_and_updates() {
    const THREADS: usize = 3;
    const OPS: usize = 2_000;
    const RANGE: u64 = 512;
    let trie: Arc<WaitFreeTrie<u64>> = Arc::new(WaitFreeTrie::from_entries(
        (0..RANGE).step_by(4).map(|k| (k, ())),
    ));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let trie = Arc::clone(&trie);
            std::thread::spawn(move || {
                let mut state = (t as u64 + 3).wrapping_mul(0xD1B5_4A32_D192_ED03) | 1;
                for _ in 0..OPS {
                    let key = xorshift(&mut state) % RANGE;
                    match xorshift(&mut state) % 4 {
                        0 => {
                            trie.insert(key, ());
                        }
                        1 => {
                            trie.remove(&key);
                        }
                        2 => {
                            let width = xorshift(&mut state) % 64;
                            let n = trie.count(key, (key + width).min(RANGE - 1));
                            assert!(n <= width + 1, "count exceeds the range width");
                        }
                        _ => {
                            let width = xorshift(&mut state) % 16;
                            let hi = (key + width).min(RANGE - 1);
                            for (k, _) in trie.collect_range(key, hi) {
                                assert!(k >= key && k <= hi);
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    trie.check_invariants();
    assert_eq!(trie.count(0, RANGE - 1), trie.len());
}
