//! Leaf runs against their oracles.
//!
//! A `wft-core` leaf is an immutable sorted run of up to `LEAF_CAP` entries,
//! so the interesting key spaces are the ones whose live set sits at a run
//! boundary: one key (a run of one, drained to `Empty` and refilled),
//! `LEAF_CAP` keys (a run filled exactly to the cap), `LEAF_CAP + 1` (the
//! first overflow split) and `4 * LEAF_CAP` (several runs under a small
//! skeleton, range borders falling inside runs). Three oracles:
//!
//! * a `BTreeMap` replaying the same sequential operations, on both read
//!   paths (proptest);
//! * the Wing & Gong checker over recorded concurrent histories in which
//!   every update rewrites the same one or two runs;
//! * whole-tree conservation plus `check_invariants` after a stress with
//!   an aggressive rebuild factor on a key space of `2 * LEAF_CAP`.
//!
//! The sequential model and the concurrent histories run on both shapes of
//! the tree: `Balanced` splits an overflowing run at its median, `Radix` at
//! an index boundary of the slot (possibly leaving one side `Empty`), and
//! both must read the same. The last test pins what keeps a `Radix` tree
//! shallow without rebuilds.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wait_free_range_trees::core::node::LEAF_CAP;
use wait_free_range_trees::core::{Balanced, Radix, Shape};
use wait_free_range_trees::lincheck::{
    check_history_with_initial, History, RangeSetOp, RangeSetRet, RangeSetSpec, ThreadRecorder,
};
use wait_free_range_trees::prelude::*;

const CAP: i64 = LEAF_CAP as i64;

/// The key-space sizes under test.
const SPACES: [i64; 4] = [1, CAP, CAP + 1, 4 * CAP];

type Tree<S> = WaitFreeTree<i64, i64, Pair<Size, Sum>, S>;

/// One step of the sequential workload; keys are reduced modulo the key
/// space of the case.
#[derive(Debug, Clone)]
enum Step {
    Insert(i64, i64),
    Replace(i64, i64),
    Remove(i64),
    Get(i64),
    Agg(i64, i64),
    Collect(i64, i64),
    Limited(i64, i64, usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let key = 0i64..4 * CAP;
    let value = -1000i64..1000;
    prop_oneof![
        4 => (key.clone(), value.clone()).prop_map(|(k, v)| Step::Insert(k, v)),
        2 => (key.clone(), value).prop_map(|(k, v)| Step::Replace(k, v)),
        3 => key.clone().prop_map(Step::Remove),
        1 => key.clone().prop_map(Step::Get),
        2 => (key.clone(), key.clone()).prop_map(|(a, b)| Step::Agg(a, b)),
        2 => (key.clone(), key.clone()).prop_map(|(a, b)| Step::Collect(a, b)),
        2 => (key.clone(), key, 1usize..2 * LEAF_CAP).prop_map(|(a, b, n)| Step::Limited(a, b, n)),
    ]
}

fn listing(oracle: &BTreeMap<i64, i64>, lo: i64, hi: i64) -> Vec<(i64, i64)> {
    if lo > hi {
        return Vec::new();
    }
    oracle.range(lo..=hi).map(|(k, v)| (*k, *v)).collect()
}

/// Every read the tree offers over `[lo, hi]`, against the oracle.
fn assert_reads<S: Shape<i64>>(tree: &Tree<S>, oracle: &BTreeMap<i64, i64>, lo: i64, hi: i64) {
    let want = listing(oracle, lo, hi);
    let sum: i128 = want.iter().map(|(_, v)| *v as i128).sum();
    assert_eq!(
        tree.range_agg(lo, hi),
        (want.len() as u64, sum),
        "agg [{lo}, {hi}]"
    );
    assert_eq!(tree.collect_range(lo, hi), want, "collect [{lo}, {hi}]");
}

/// A limited collect is the first `limit` entries of the full listing, and
/// when the limit bites — possibly in the middle of a run — the fast path
/// reports an early exit.
fn assert_limited<S: Shape<i64>>(
    tree: &Tree<S>,
    oracle: &BTreeMap<i64, i64>,
    lo: i64,
    hi: i64,
    limit: usize,
) {
    let want = listing(oracle, lo, hi);
    let exits_name = format!("{}_fast_range_early_exits", S::METRIC_PREFIX);
    let early_exits = || tree.metrics().counter(&exits_name).unwrap();
    let exits_before = early_exits();
    let got = tree.collect_range_limited(lo, hi, limit);
    assert_eq!(got, want[..limit.min(want.len())], "limited [{lo}, {hi}]");
    if tree.config().read_path == ReadPath::Fast && want.len() > limit {
        assert!(
            got.len() < want.len(),
            "a bitten limit yields a strict prefix"
        );
        assert_eq!(
            early_exits(),
            exits_before + 1,
            "limit {limit} cut [{lo}, {hi}] short of {} entries without an early exit",
            want.len()
        );
    }
}

fn run_case<S: Shape<i64>>(space: i64, read_path: ReadPath, steps: &[Step]) {
    let tree: Tree<S> = WaitFreeTree::with_config(TreeConfig {
        read_path,
        ..TreeConfig::default()
    });
    let mut oracle = BTreeMap::new();

    // Fill the key space to its size: a run grown entry by entry to
    // exactly `LEAF_CAP`, then (for the larger spaces) through its split.
    for k in 0..space {
        assert!(tree.insert(k, k));
        oracle.insert(k, k);
    }
    tree.check_invariants();
    assert_reads(&tree, &oracle, 0, space - 1);

    for step in steps {
        match *step {
            Step::Insert(k, v) => {
                let k = k % space;
                let fresh = !oracle.contains_key(&k);
                if fresh {
                    oracle.insert(k, v);
                }
                assert_eq!(tree.insert(k, v), fresh);
            }
            Step::Replace(k, v) => {
                let k = k % space;
                assert_eq!(tree.insert_or_replace(k, v), oracle.insert(k, v));
            }
            Step::Remove(k) => {
                let k = k % space;
                assert_eq!(tree.remove_entry(&k), oracle.remove(&k));
            }
            Step::Get(k) => {
                let k = k % space;
                assert_eq!(tree.get(&k), oracle.get(&k).copied());
            }
            Step::Agg(a, b) | Step::Collect(a, b) => {
                assert_reads(&tree, &oracle, a % space, b % space);
            }
            Step::Limited(a, b, limit) => {
                assert_limited(&tree, &oracle, a % space, b % space, limit);
            }
        }
    }
    tree.check_invariants();
    assert_eq!(tree.len(), oracle.len() as u64);

    // Every border position, inside runs included, and every cut point of
    // a limited collect over the whole space.
    for lo in 0..space.min(CAP + 2) {
        for hi in [lo, lo + 1, space / 2, space - 1] {
            assert_reads(&tree, &oracle, lo, hi);
        }
    }
    for limit in 1..=(oracle.len() + 1).min(LEAF_CAP + 2) {
        assert_limited(&tree, &oracle, 0, space - 1, limit);
    }

    // Drain to `Empty`, one entry at a time.
    for k in 0..space {
        assert_eq!(tree.remove_entry(&k), oracle.remove(&k));
    }
    assert!(tree.is_empty());
    assert_eq!(tree.range_agg(0, space - 1), (0, 0));
    assert!(tree.collect_range(0, space - 1).is_empty());
    tree.check_invariants();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random operation sequences on key spaces at the run boundaries agree
    /// with `BTreeMap` on both read paths and both shapes.
    #[test]
    fn runs_agree_with_btreemap_at_every_boundary(
        steps in proptest::collection::vec(step_strategy(), 1..160)
    ) {
        for space in SPACES {
            run_case::<Balanced>(space, ReadPath::Fast, &steps);
            run_case::<Balanced>(space, ReadPath::Descriptor, &steps);
            run_case::<Radix>(space, ReadPath::Fast, &steps);
            run_case::<Radix>(space, ReadPath::Descriptor, &steps);
        }
    }
}

#[test]
fn a_bulk_built_tree_reads_like_an_inserted_one() {
    bulk_built_reads::<Balanced>();
    bulk_built_reads::<Radix>();
}

fn bulk_built_reads<S: Shape<i64>>() {
    // `from_entries` packs runs of three quarters of the cap; the borders
    // of the ranges below fall inside them.
    let entries: Vec<(i64, i64)> = (0..10 * CAP).map(|k| (k * 3, k)).collect();
    let tree: Tree<S> = WaitFreeTree::from_entries(entries.clone());
    let oracle: BTreeMap<i64, i64> = entries.into_iter().collect();
    tree.check_invariants();
    for lo in (0..30 * CAP).step_by(7) {
        for width in [0, 1, 5, CAP, 3 * CAP, 30 * CAP] {
            assert_reads(&tree, &oracle, lo, lo + width);
            assert_limited(&tree, &oracle, lo, lo + width, LEAF_CAP / 2 + 1);
        }
    }
}

// -- concurrent histories on one or two runs --------------------------------

const THREADS: usize = 3;
const OPS_PER_THREAD: usize = 6;

/// Records one execution of `THREADS x OPS_PER_THREAD` random operations
/// with keys in `0..key_range`.
fn record_round<S: Shape<i64>>(
    tree: Arc<WaitFreeTree<i64, (), Size, S>>,
    key_range: i64,
    seed: u64,
) -> History<RangeSetOp, RangeSetRet> {
    History::record(THREADS, |recorders| {
        let handles: Vec<_> = recorders
            .iter()
            .enumerate()
            .map(|(t, recorder)| {
                let recorder: ThreadRecorder<RangeSetOp, RangeSetRet> = recorder.clone();
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37));
                    for _ in 0..OPS_PER_THREAD {
                        let key = rng.gen_range(0..key_range);
                        let hi = rng.gen_range(key..key_range);
                        match rng.gen_range(0..7) {
                            0 | 1 => {
                                let token = recorder.invoke(RangeSetOp::Insert(key));
                                let ok = tree.insert(key, ());
                                recorder.respond(token, RangeSetRet::Bool(ok));
                            }
                            2 | 3 => {
                                let token = recorder.invoke(RangeSetOp::Remove(key));
                                let ok = tree.remove(&key);
                                recorder.respond(token, RangeSetRet::Bool(ok));
                            }
                            4 => {
                                let token = recorder.invoke(RangeSetOp::Replace(key));
                                let was = tree.insert_or_replace(key, ()).is_some();
                                recorder.respond(token, RangeSetRet::Bool(was));
                            }
                            5 => {
                                let token = recorder.invoke(RangeSetOp::Count(key, hi));
                                let n = tree.count(key, hi);
                                recorder.respond(token, RangeSetRet::Count(n));
                            }
                            _ => {
                                let token = recorder.invoke(RangeSetOp::Collect(key, hi));
                                let keys = tree.collect_range(key, hi);
                                let keys = keys.into_iter().map(|(k, ())| k).collect();
                                recorder.respond(token, RangeSetRet::Keys(keys));
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    })
}

/// Lincheck rounds on a tree whose live set is `prefill` (inserted one by
/// one, so a prefill of `LEAF_CAP` keys is a single run filled to the cap)
/// and whose operations draw keys from `0..key_range`.
fn assert_runs_linearize<S: Shape<i64>>(
    prefill: &[i64],
    key_range: i64,
    read_path: ReadPath,
    rounds: u64,
) {
    for round in 0..rounds {
        let tree: Arc<WaitFreeTree<i64, (), Size, S>> =
            Arc::new(WaitFreeTree::with_config(TreeConfig {
                rebuild_factor: 0.5,
                read_path,
            }));
        for &k in prefill {
            assert!(tree.insert(k, ()));
        }
        let history = record_round(Arc::clone(&tree), key_range, 0x1EAF + round);
        let initial = RangeSetSpec::prefilled(prefill.iter().copied());
        let verdict = check_history_with_initial::<RangeSetSpec>(&history, initial);
        assert!(
            verdict.is_linearizable(),
            "round {round} (prefill {}, keys 0..{key_range}) is not linearizable:\n{verdict:?}\n{history:#?}",
            prefill.len()
        );
        tree.check_invariants();
    }
}

#[test]
fn updates_racing_on_one_run_linearize() {
    // Three keys: every update rewrites the same run, removes drain it to
    // `Empty` and inserts refill it.
    assert_runs_linearize::<Balanced>(&[1], 3, ReadPath::Fast, 30);
    assert_runs_linearize::<Balanced>(&[0, 1, 2], 3, ReadPath::Descriptor, 15);
    assert_runs_linearize::<Radix>(&[1], 3, ReadPath::Fast, 30);
    assert_runs_linearize::<Radix>(&[0, 1, 2], 3, ReadPath::Descriptor, 15);
}

#[test]
fn updates_racing_across_an_overflow_split_linearize() {
    // A single run filled exactly to the cap with the even keys: the first
    // successful insert of an odd key splits it while the other threads'
    // updates and range reads are aimed at the same run. The radix split
    // of these keys is a chain of 58 single-child nodes over the two parts.
    let full: Vec<i64> = (0..CAP).map(|k| k * 2).collect();
    assert_runs_linearize::<Balanced>(&full, 2 * CAP, ReadPath::Fast, 30);
    assert_runs_linearize::<Balanced>(&full, 2 * CAP, ReadPath::Descriptor, 15);
    assert_runs_linearize::<Radix>(&full, 2 * CAP, ReadPath::Fast, 30);
    assert_runs_linearize::<Radix>(&full, 2 * CAP, ReadPath::Descriptor, 15);
}

#[test]
fn heavy_rebuilds_on_two_runs_preserve_contents() {
    // Four threads, each owning a residue class of a key space of
    // `2 * LEAF_CAP`, so all of them rewrite the same one or two runs while
    // the aggressive rebuild factor keeps replacing the subtree above them.
    const WRITERS: i64 = 4;
    const OPS: usize = 4_000;
    let tree: Arc<WaitFreeTree<i64, i64>> = Arc::new(WaitFreeTree::with_config(TreeConfig {
        rebuild_factor: 0.5,
        ..TreeConfig::default()
    }));
    let handles: Vec<_> = (0..WRITERS)
        .map(|t| {
            let tree = Arc::clone(&tree);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x5EED ^ t as u64);
                let mut mine = BTreeMap::new();
                for i in 0..OPS as i64 {
                    let k = rng.gen_range(0..2 * CAP / WRITERS) * WRITERS + t;
                    match rng.gen_range(0..10) {
                        0..=3 => {
                            let fresh = !mine.contains_key(&k);
                            if fresh {
                                mine.insert(k, i);
                            }
                            assert_eq!(tree.insert(k, i), fresh);
                        }
                        4..=5 => assert_eq!(tree.insert_or_replace(k, i), mine.insert(k, i)),
                        6..=8 => assert_eq!(tree.remove_entry(&k), mine.remove(&k)),
                        _ => {
                            // Own keys in a listing carry this thread's
                            // last value, whatever the others do to the run.
                            for (key, value) in tree.collect_range(0, 2 * CAP) {
                                if key % WRITERS == t {
                                    assert_eq!(mine.get(&key), Some(&value));
                                }
                            }
                        }
                    }
                }
                mine
            })
        })
        .collect();
    let mut expected = BTreeMap::new();
    for h in handles {
        expected.extend(h.join().unwrap());
    }
    assert!(
        tree.metrics().counter("tree_rebuilds") > Some(0),
        "rebuild factor 0.5 must rebuild"
    );
    assert_eq!(
        tree.entries_quiescent(),
        expected.into_iter().collect::<Vec<_>>()
    );
    tree.check_invariants();
}

#[test]
fn sequential_inserts_in_either_direction_keep_a_radix_tree_shallow() {
    // 100 k keys in ascending and in descending order: every overflow
    // happens at the edge of the key hull. `check_invariants` bounds every
    // `Radix` leaf at the skeleton height plus twice the index width, which
    // holds because the cut is chosen from the interval the slot covers; a
    // cut chosen from the keys in the run would grow an `N / 32`-deep spine
    // here. The balanced tree takes the same streams through its rebuilds.
    const N: i64 = 100_000;
    fn check<S: Shape<i64>>(keys: impl Iterator<Item = i64>) {
        let tree: WaitFreeTree<i64, (), Size, S> = WaitFreeTree::new();
        for k in keys {
            assert!(tree.insert(k, ()));
        }
        assert_eq!(tree.len(), N as u64);
        assert_eq!(tree.count(i64::MIN, i64::MAX), N as u64);
        tree.check_invariants();
    }
    // Spread over the index so the common prefix, and with it every path,
    // stays short enough for a debug build.
    let spread = |k: i64| (k - N / 2) << 40;
    check::<Radix>((0..N).map(spread));
    check::<Radix>((0..N).rev().map(spread));
    check::<Balanced>((0..N).map(spread));
    check::<Balanced>((0..N).rev().map(spread));
}
