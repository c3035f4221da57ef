//! Cross-crate integration tests: every tree in the workspace must implement
//! the same abstract ordered-set semantics.
//!
//! Sequential equivalence is checked exhaustively: identical random
//! operation sequences applied to every backend of [`TreeImpl::ALL`] (the
//! wait-free tree, the wait-free trie, the persistent, lock-based and
//! lock-free linear baselines and the sharded store), the sequential tree
//! and the `BTreeMap` oracle must produce
//! identical results at every step.

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wait_free_range_trees::core::WaitFreeTree;
use wait_free_range_trees::persistent::PersistentRangeTree;
use wait_free_range_trees::seq::{ReferenceMap, SeqRangeTree};
use wait_free_range_trees::trie::WaitFreeTrie;

mod common;
use common::{ConcurrentSet, TreeImpl};

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(i64),
    Replace(i64),
    Remove(i64),
    Contains(i64),
    Count(i64, i64),
    Collect(i64, i64),
}

/// Keys the backends are built over and drained of before a sequence runs:
/// the sharded store takes its split keys from them, so it starts empty on
/// four shards instead of one.
const SHARD_SEED: [i64; 4] = [0, 50, 100, 150];

fn apply_everywhere(ops: &[Op]) {
    let backends: Vec<(TreeImpl, std::sync::Arc<dyn ConcurrentSet>)> = TreeImpl::ALL
        .iter()
        .map(|&imp| {
            let set = imp.build(&SHARD_SEED, SHARD_SEED.len());
            for k in SHARD_SEED {
                assert!(set.remove(k), "{}: draining seed key {k}", imp.name());
            }
            (imp, set)
        })
        .collect();
    let mut seq: SeqRangeTree<i64> = SeqRangeTree::new();
    let mut oracle: ReferenceMap<i64, ()> = ReferenceMap::new();

    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k) => {
                let expect = oracle.insert(k, ());
                for (imp, set) in &backends {
                    assert_eq!(set.insert(k), expect, "{} insert step {step}", imp.name());
                }
                assert_eq!(seq.insert(k, ()), expect, "seq insert step {step}");
            }
            Op::Replace(k) => {
                // The upsert on a unit-valued set: observable as "was the
                // key present before?" — BTreeMap::insert semantics.
                let expect = oracle.insert_or_replace(k, ()).is_some();
                for (imp, set) in &backends {
                    assert_eq!(set.replace(k), expect, "{} replace step {step}", imp.name());
                }
                assert_eq!(
                    seq.insert_or_replace(k, ()).is_some(),
                    expect,
                    "seq replace step {step}"
                );
            }
            Op::Remove(k) => {
                let expect = oracle.remove(&k);
                for (imp, set) in &backends {
                    assert_eq!(set.remove(k), expect, "{} remove step {step}", imp.name());
                }
                assert_eq!(seq.remove(&k), expect, "seq remove step {step}");
            }
            Op::Contains(k) => {
                let expect = oracle.contains(&k);
                for (imp, set) in &backends {
                    let name = imp.name();
                    assert_eq!(set.contains(k), expect, "{name} contains step {step}");
                }
                assert_eq!(seq.contains(&k), expect, "seq contains step {step}");
            }
            Op::Count(lo, hi) => {
                let expect = oracle.count(lo, hi);
                for (imp, set) in &backends {
                    assert_eq!(
                        set.count(lo, hi),
                        expect,
                        "{} count step {step}",
                        imp.name()
                    );
                }
                assert_eq!(seq.count(lo, hi), expect, "seq count step {step}");
            }
            Op::Collect(lo, hi) => {
                let expect = oracle.collect_range(lo, hi);
                let keys: Vec<i64> = expect.iter().map(|&(k, ())| k).collect();
                for (imp, set) in &backends {
                    let name = imp.name();
                    assert_eq!(set.collect(lo, hi), keys, "{name} collect step {step}");
                }
                assert_eq!(seq.collect_range(lo, hi), expect, "seq collect step {step}");
            }
        }
    }

    // Final-state agreement and structural invariants.
    let expect_entries = oracle.entries();
    let expect_keys: Vec<i64> = expect_entries.iter().map(|&(k, ())| k).collect();
    for (imp, set) in &backends {
        assert_eq!(
            set.collect(i64::MIN, i64::MAX),
            expect_keys,
            "{}",
            imp.name()
        );
        set.check_invariants();
    }
    assert_eq!(seq.entries(), expect_entries);
    seq.check_invariants();
}

#[test]
fn random_sequences_agree_across_all_implementations() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for round in 0..5 {
        let ops: Vec<Op> = (0..1_500)
            .map(|_| {
                let k = rng.gen_range(0..200);
                match rng.gen_range(0..6) {
                    0 | 1 => Op::Insert(k),
                    5 => Op::Replace(k),
                    2 => Op::Remove(k),
                    3 => Op::Contains(k),
                    _ => {
                        let hi = k + rng.gen_range(0i64..100);
                        if rng.gen_bool(0.7) {
                            Op::Count(k, hi)
                        } else {
                            Op::Collect(k, hi)
                        }
                    }
                }
            })
            .collect();
        apply_everywhere(&ops);
        let _ = round;
    }
}

#[test]
fn adversarial_sorted_and_reversed_sequences() {
    // Sorted insertions, full removal, re-insertion in reverse: stresses the
    // balancing logic of every implementation the same way.
    let mut ops = Vec::new();
    for k in 0..400 {
        ops.push(Op::Insert(k));
    }
    ops.push(Op::Count(0, 399));
    for k in 0..400 {
        if k % 2 == 0 {
            ops.push(Op::Remove(k));
        }
    }
    ops.push(Op::Count(0, 399));
    for k in (0..400).rev() {
        ops.push(Op::Insert(k));
        ops.push(Op::Contains(k));
    }
    ops.push(Op::Collect(0, 399));
    apply_everywhere(&ops);
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..150).prop_map(Op::Insert),
        (0i64..150).prop_map(Op::Replace),
        (0i64..150).prop_map(Op::Remove),
        (0i64..150).prop_map(Op::Contains),
        (0i64..150, 0i64..150).prop_map(|(a, b)| Op::Count(a.min(b), a.max(b))),
        (0i64..150, 0i64..150).prop_map(|(a, b)| Op::Collect(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property form of the equivalence check (smaller sequences, many seeds).
    #[test]
    fn proptest_cross_implementation_equivalence(ops in vec(op_strategy(), 1..250)) {
        apply_everywhere(&ops);
    }

    /// Value-carrying oracle for the atomic upsert: `insert_or_replace` on
    /// the descriptor-based trees must behave exactly like
    /// `BTreeMap::insert` — same returned prior value, same final contents.
    #[test]
    fn proptest_insert_or_replace_matches_btreemap_insert(
        steps in vec((0i64..64, -1000i64..1000), 1..200)
    ) {
        use std::collections::BTreeMap;
        let mut oracle: BTreeMap<i64, i64> = BTreeMap::new();
        let wait_free: WaitFreeTree<i64, i64> = WaitFreeTree::new();
        let trie: WaitFreeTrie<i64, i64> = WaitFreeTrie::new();
        let persistent: PersistentRangeTree<i64, i64> = PersistentRangeTree::new();
        for (step, &(k, v)) in steps.iter().enumerate() {
            let expect = oracle.insert(k, v);
            prop_assert_eq!(
                wait_free.insert_or_replace(k, v),
                expect,
                "wait-free upsert step {}",
                step
            );
            prop_assert_eq!(
                trie.insert_or_replace(k, v),
                expect,
                "trie upsert step {}",
                step
            );
            prop_assert_eq!(
                persistent.insert_or_replace(k, v),
                expect,
                "persistent upsert step {}",
                step
            );
        }
        let expect_entries: Vec<(i64, i64)> =
            oracle.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(wait_free.entries_quiescent(), expect_entries.clone());
        prop_assert_eq!(trie.entries_quiescent(), expect_entries.clone());
        prop_assert_eq!(persistent.entries(), expect_entries);
        wait_free.check_invariants();
        trie.check_invariants();
        persistent.check_invariants();
    }
}
