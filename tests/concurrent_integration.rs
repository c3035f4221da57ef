//! Concurrent cross-crate integration tests.
//!
//! The unit/stress tests of `wft-core` validate the wait-free tree in
//! isolation; here every backend runs timed multi-threaded traffic behind
//! a stop flag and a watchdog, and the wait-free tree is cross-validated
//! against the trivially correct lock-based baseline under identical
//! concurrent workloads (with per-thread key partitions so the final state
//! is deterministic).

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wait_free_range_trees::core::WaitFreeTree;
use wait_free_range_trees::lockbased::LockedRangeTree;

mod common;
use common::{ConcurrentSet, TreeImpl};

const THREADS: usize = 4;

#[test]
fn wait_free_and_locked_trees_converge_to_the_same_state() {
    const SPAN: i64 = 1_000;
    const OPS: usize = 4_000;
    let wait_free: Arc<WaitFreeTree<i64>> = Arc::new(WaitFreeTree::new());
    let locked: Arc<LockedRangeTree<i64>> = Arc::new(LockedRangeTree::new());

    let handles: Vec<_> = (0..THREADS as i64)
        .map(|t| {
            let wait_free = Arc::clone(&wait_free);
            let locked = Arc::clone(&locked);
            thread::spawn(move || {
                // Each thread owns a disjoint key stripe, so both structures
                // apply exactly the same per-key update sequence even though
                // global interleavings differ.
                let lo = t * SPAN;
                let mut rng = StdRng::seed_from_u64(0xBEEF + t as u64);
                for _ in 0..OPS {
                    let k = lo + rng.gen_range(0..SPAN);
                    if rng.gen_bool(0.6) {
                        let a = wait_free.insert(k, ());
                        let b = locked.insert(k, ());
                        assert_eq!(a, b, "insert({k}) disagreed");
                    } else {
                        let a = wait_free.remove(&k);
                        let b = locked.remove(&k);
                        assert_eq!(a, b, "remove({k}) disagreed");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(wait_free.len(), locked.len());
    assert_eq!(
        wait_free.entries_quiescent(),
        locked.entries(),
        "final contents diverged"
    );
    for (lo, hi) in [(0, THREADS as i64 * SPAN), (100, 900), (1_500, 2_500)] {
        assert_eq!(wait_free.count(lo, hi), locked.count(lo, hi));
    }
    wait_free.check_invariants();
    locked.check_invariants();
}

/// Keys the stress traffic draws from, uniformly: `[1, STRESS_KEYS]`.
const STRESS_KEYS: i64 = 2_000;
/// Workers per backend in the stress test.
const STRESS_WORKERS: usize = 2;
/// Operations a stress worker issues between two checks of the stop flag.
const STOP_CHECK_EVERY: u64 = 32;
/// How long each stress phase runs before the stop flag goes up.
const STRESS_PHASE: Duration = Duration::from_millis(50);
/// How long the watchdog waits for every worker to exit once the stop flag
/// is up.
const WATCHDOG_GRACE: Duration = Duration::from_secs(10);

/// What the workers of one stress phase issue, on uniform keys.
#[derive(Clone, Copy)]
enum Traffic {
    /// 60 % insert, 40 % remove.
    Updates,
    /// `contains` only.
    Reads,
}

/// Runs one stress phase against `set` and returns each worker's operation
/// count. The workers start behind a barrier and check the stop flag every
/// `STOP_CHECK_EVERY` operations. If one is still running `WATCHDOG_GRACE`
/// after the flag, the backend's metrics and the global trace timeline go
/// to stderr and the phase panics without joining, so a livelocked backend
/// fails the test instead of hanging it.
fn stress_phase(
    set: &Arc<dyn ConcurrentSet>,
    imp: TreeImpl,
    seed: u64,
    traffic: Traffic,
) -> Vec<u64> {
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(STRESS_WORKERS + 1));
    let workers: Vec<_> = (0..STRESS_WORKERS as u64)
        .map(|t| {
            let set = Arc::clone(set);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1));
                barrier.wait();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..STOP_CHECK_EVERY {
                        let key = rng.gen_range(1..=STRESS_KEYS);
                        match traffic {
                            Traffic::Reads => black_box(set.contains(key)),
                            Traffic::Updates if rng.gen_bool(0.6) => black_box(set.insert(key)),
                            Traffic::Updates => black_box(set.remove(key)),
                        };
                    }
                    ops += STOP_CHECK_EVERY;
                }
                ops
            })
        })
        .collect();
    barrier.wait();
    thread::sleep(STRESS_PHASE);
    stop.store(true, Ordering::Relaxed);
    let deadline = Instant::now() + WATCHDOG_GRACE;
    while workers.iter().any(|w| !w.is_finished()) && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
    let stuck = workers.iter().filter(|w| !w.is_finished()).count();
    if stuck > 0 {
        eprint!("{}", set.metrics_snapshot().to_prometheus());
        eprint!(
            "{}",
            wait_free_range_trees::obs::trace::global().render_timeline()
        );
        panic!(
            "{}: {stuck}/{STRESS_WORKERS} worker(s) still running {WATCHDOG_GRACE:?} \
             after the stop flag (seed {seed:#x})",
            imp.name()
        );
    }
    workers.into_iter().map(|w| w.join().unwrap()).collect()
}

/// FNV-1a of `name`: a backend's stress seed follows its name, not its
/// position in [`TreeImpl::ALL`], so a seed printed by a failure replays
/// after backends are added, removed or reordered.
fn fnv1a(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn workers_stop_promptly_under_update_then_read_stress() {
    // The traffic under which two workers once kept spinning long after the
    // stop flag: plain inserts and removes on a half-full set, then
    // contains only, two workers, on every in-memory backend.
    for imp in TreeImpl::ALL {
        let seed = 0x5_7E55 ^ fnv1a(imp.name());
        let mut rng = StdRng::seed_from_u64(seed);
        let prefill: Vec<i64> = (1..=STRESS_KEYS).filter(|_| rng.gen_bool(0.5)).collect();
        let set = imp.build(&prefill, STRESS_WORKERS);
        let updates = stress_phase(&set, imp, seed, Traffic::Updates);
        let before = set.len();
        let reads = stress_phase(&set, imp, seed, Traffic::Reads);
        for (phase, ops) in [("update", updates), ("read", reads)] {
            assert!(
                ops.iter().all(|&n| n > 0),
                "{}: a worker made no progress in the {phase} phase: {ops:?} (seed {seed:#x})",
                imp.name()
            );
        }
        assert_eq!(
            set.len(),
            before,
            "{}: contains-only traffic changed the set (seed {seed:#x})",
            imp.name()
        );
    }
}

#[test]
fn concurrent_range_sums_match_between_wait_free_and_persistent() {
    use wait_free_range_trees::core::Sum;
    use wait_free_range_trees::persistent::PersistentRangeTree;

    // Both key-value trees ingest the same per-thread streams (disjoint key
    // stripes); their range sums must agree afterwards.
    const SPAN: i64 = 2_000;
    let wait_free: Arc<WaitFreeTree<i64, i64, Sum>> = Arc::new(WaitFreeTree::new());
    let persistent: Arc<PersistentRangeTree<i64, i64, Sum>> = Arc::new(PersistentRangeTree::new());
    let handles: Vec<_> = (0..THREADS as i64)
        .map(|t| {
            let wait_free = Arc::clone(&wait_free);
            let persistent = Arc::clone(&persistent);
            thread::spawn(move || {
                let lo = t * SPAN;
                let mut rng = StdRng::seed_from_u64(77 + t as u64);
                for i in 0..SPAN {
                    let value = rng.gen_range(-100..100);
                    wait_free.insert(lo + i, value);
                    persistent.insert(lo + i, value);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    for (lo, hi) in [
        (0, THREADS as i64 * SPAN - 1),
        (500, 1_499),
        (3_000, 3_999),
        (7_000, 9_000),
    ] {
        assert_eq!(
            wait_free.range_agg(lo, hi),
            persistent.range_agg(lo, hi),
            "range_sum over [{lo}, {hi}] diverged"
        );
    }
    wait_free.check_invariants();
    persistent.check_invariants();
}
