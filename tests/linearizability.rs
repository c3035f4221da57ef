//! Linearizability tests: many short adversarial concurrent executions are
//! recorded and replayed through the Wing & Gong checker against the
//! sequential range-set specification.
//!
//! The paper's central correctness claim (operations linearize in root-queue
//! timestamp order) is checked here empirically for the wait-free tree and
//! trie under both read paths, and for the sharded and durable stores,
//! including snapshot pairs and chunked scans. The same harness is applied
//! to the persistent and lock-based baselines on point operations, range
//! reads and the atomic `replace`. The lock-free external BST baseline is
//! checked on its scalar insert/remove/contains only: its `collect`/`count`
//! is documented as a non-linearizable best-effort traversal and its
//! `replace` is a non-atomic remove+insert composition (weaknesses of the
//! prior-work class that the paper's design closes).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wait_free_range_trees::lincheck::{
    check_history_with_initial, History, RangeSetOp, RangeSetRet, RangeSetSpec, ThreadRecorder,
};
use wait_free_range_trees::prelude::MetricsSnapshot;

mod common;
use common::{ConcurrentSet, SnapshotSet, TreeImpl};

/// Number of worker threads per recorded history.
const THREADS: usize = 3;
/// Operations per thread per history (the checker is exponential, keep it
/// small — 3 × 6 = 18 operations per history).
const OPS_PER_THREAD: usize = 6;
/// Key universe; tiny so operations collide constantly.
const KEY_RANGE: i64 = 8;

/// Which optional operations a recorded execution mixes in.
#[derive(Clone, Copy)]
struct OpMix {
    /// Aggregate/collect counting queries.
    range_queries: bool,
    /// The atomic upsert (excluded for the baseline whose replace is a
    /// documented non-atomic remove+insert composition).
    replace: bool,
    /// Snapshot reads: two subrange counts from one acquired front
    /// (`SnapshotRead`); the checker verifies the pair against a single
    /// abstract state. Snapshot backends only.
    snapshots: bool,
    /// Chunked scans: a streaming cursor drained to completion with
    /// `ScanConsistency::Snapshot` (`RangeScan::scan_snapshot`, chunk size
    /// 2 so nearly every drain spans several chunks); the checker verifies
    /// the concatenated pages against a single abstract state's listing.
    /// Snapshot backends only.
    scans: bool,
    /// Transactional operations: membership-toggling `Patch`,
    /// insert-if-absent `CompareAndSet`, and the two-key `AtomicBatch`
    /// (remove one key + insert another in one atomic commit). Enabled
    /// only where the backend's batch commit and RMW path are atomic
    /// (`TreeImpl::batch_is_atomic` / `patch_is_atomic`) — the `wft-api`
    /// get-then-write defaults lose updates under contention by design.
    transactions: bool,
}

/// Runs one recorded execution against `set` and returns the history.
/// `snapshot` is the same backend as a [`SnapshotSet`]; the snapshot,
/// scan and batch ops of `mix` need it.
fn record_round(
    set: Arc<dyn ConcurrentSet>,
    snapshot: Option<Arc<dyn SnapshotSet>>,
    seed: u64,
    mix: OpMix,
) -> History<RangeSetOp, RangeSetRet> {
    History::record(THREADS, |recorders| {
        let handles: Vec<_> = recorders
            .iter()
            .enumerate()
            .map(|(t, recorder)| {
                let recorder: ThreadRecorder<RangeSetOp, RangeSetRet> = recorder.clone();
                let set = Arc::clone(&set);
                let snapshot = snapshot.clone();
                std::thread::spawn(move || {
                    let snap = || {
                        snapshot
                            .as_deref()
                            .expect("snapshot, scan and batch ops need a SnapshotSet")
                    };
                    let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37));
                    // The enabled op kinds, drawn uniformly.
                    let mut kinds: Vec<u8> = vec![0, 1, 2];
                    if mix.range_queries {
                        kinds.extend([3, 4]);
                    }
                    if mix.replace {
                        kinds.push(5);
                    }
                    if mix.snapshots {
                        kinds.push(6);
                    }
                    if mix.scans {
                        kinds.push(7);
                    }
                    if mix.transactions {
                        kinds.extend([8, 9, 10]);
                    }
                    for _ in 0..OPS_PER_THREAD {
                        let key = rng.gen_range(0..KEY_RANGE);
                        match kinds[rng.gen_range(0..kinds.len() as i64) as usize] {
                            0 => {
                                let token = recorder.invoke(RangeSetOp::Insert(key));
                                let ok = set.insert(key);
                                recorder.respond(token, RangeSetRet::Bool(ok));
                            }
                            1 => {
                                let token = recorder.invoke(RangeSetOp::Remove(key));
                                let ok = set.remove(key);
                                recorder.respond(token, RangeSetRet::Bool(ok));
                            }
                            2 => {
                                let token = recorder.invoke(RangeSetOp::Contains(key));
                                let ok = set.contains(key);
                                recorder.respond(token, RangeSetRet::Bool(ok));
                            }
                            3 => {
                                let hi = rng.gen_range(key..KEY_RANGE);
                                let token = recorder.invoke(RangeSetOp::Count(key, hi));
                                let n = set.count(key, hi);
                                recorder.respond(token, RangeSetRet::Count(n));
                            }
                            4 => {
                                let hi = rng.gen_range(key..KEY_RANGE);
                                let token = recorder.invoke(RangeSetOp::Count(key, hi));
                                let n = set.count_via_collect(key, hi);
                                recorder.respond(token, RangeSetRet::Count(n));
                            }
                            5 => {
                                let token = recorder.invoke(RangeSetOp::Replace(key));
                                let was_present = set.replace(key);
                                recorder.respond(token, RangeSetRet::Bool(was_present));
                            }
                            6 => {
                                // One subrange plus the whole key universe,
                                // counted from one snapshot: the pair must be
                                // explained by a single abstract state.
                                let hi = rng.gen_range(key..KEY_RANGE);
                                let token = recorder.invoke(RangeSetOp::SnapshotCounts(
                                    key,
                                    hi,
                                    0,
                                    KEY_RANGE - 1,
                                ));
                                let (a, b) = snap().snapshot_count_pair(key, hi, 0, KEY_RANGE - 1);
                                recorder.respond(token, RangeSetRet::CountPair(a, b));
                            }
                            7 => {
                                // A paginated drain (chunk size 2, so the
                                // range spans several pages) completed as a
                                // single snapshot: the concatenated pages
                                // must equal a single abstract state's
                                // listing.
                                let hi = rng.gen_range(key..KEY_RANGE);
                                let token = recorder.invoke(RangeSetOp::ChunkedScan(key, hi, 2));
                                let keys = snap().chunked_scan_snapshot(key, hi, 2);
                                recorder.respond(token, RangeSetRet::Keys(keys));
                            }
                            8 => {
                                // The atomic RMW: toggle membership. Any
                                // lost update under contention produces a
                                // presence answer no sequential order
                                // explains.
                                let token = recorder.invoke(RangeSetOp::Patch(key));
                                let present = set.patch_toggle(key);
                                recorder.respond(token, RangeSetRet::Bool(present));
                            }
                            9 => {
                                let token = recorder.invoke(RangeSetOp::CompareAndSet(key));
                                let applied = set.cas_insert(key);
                                recorder.respond(token, RangeSetRet::Bool(applied));
                            }
                            10 => {
                                // A two-key atomic batch: move `key` to a
                                // distinct `dst`. With per-thread shards in
                                // the store builds this routinely crosses
                                // shard boundaries, which is the case the
                                // gated batch commit exists for.
                                let dst = (key + rng.gen_range(1..KEY_RANGE)) % KEY_RANGE;
                                let token = recorder.invoke(RangeSetOp::AtomicBatch(key, dst));
                                let (removed, inserted) = snap().batch_move(key, dst);
                                recorder.respond(token, RangeSetRet::Pair(removed, inserted));
                            }
                            kind => unreachable!("unknown op kind {kind}"),
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

/// Checks `rounds` independent executions of `imp` and panics with the
/// offending history on the first non-linearizable one.
fn assert_linearizable(imp: TreeImpl, rounds: u64, with_range_queries: bool) {
    for round in 0..rounds {
        // Alternate between an empty tree and a small prefill so both code
        // paths (empty-tree fast paths, populated routing) are covered.
        let prefill: Vec<i64> = if round % 2 == 0 {
            Vec::new()
        } else {
            (0..KEY_RANGE).step_by(2).collect()
        };
        let snapshot = imp.build_snapshot(&prefill, THREADS);
        let set: Arc<dyn ConcurrentSet> = match &snapshot {
            Some(snapshot) => snapshot.clone(),
            None => imp.build(&prefill, THREADS),
        };
        let mix = OpMix {
            range_queries: with_range_queries,
            replace: imp.replace_is_atomic(),
            // The tree and trie read at their timestamp front, the stores at
            // a per-shard cut: snapshot pairs and chunked scans ride along
            // wherever range queries are checked on a snapshot backend.
            snapshots: with_range_queries && snapshot.is_some(),
            scans: with_range_queries && snapshot.is_some(),
            // Patch/CAS/AtomicBatch histories only where they are atomic:
            // elsewhere they are documented get-then-write compositions whose
            // lost updates the checker would rightly reject.
            transactions: imp.batch_is_atomic() && imp.patch_is_atomic(),
        };
        let history = record_round(set, snapshot, 0xA11CE + round, mix);
        let initial = RangeSetSpec::prefilled(prefill.iter().copied());
        let verdict = check_history_with_initial::<RangeSetSpec>(&history, initial);
        assert!(
            verdict.is_linearizable(),
            "{}: round {round} produced a non-linearizable history:\n{verdict:?}\n{history:#?}",
            imp.name()
        );
    }
}

#[test]
fn wait_free_tree_scalar_and_range_operations_linearize() {
    // The default build answers reads through the fast paths
    // (`ReadPath::Fast`): presence-index point reads plus the optimistic
    // validated range traversal with descriptor fallback.
    assert_linearizable(TreeImpl::WaitFree, 25, true);
}

#[test]
fn wait_free_tree_descriptor_read_path_linearizes() {
    // The same histories with every read forced through the descriptor
    // machinery (`ReadPath::Descriptor`): both read paths must be
    // linearizable, independently.
    assert_linearizable(TreeImpl::WaitFreeDescReads, 25, true);
}

#[test]
fn persistent_baseline_linearizes() {
    assert_linearizable(TreeImpl::Persistent, 20, true);
}

#[test]
fn locked_baseline_linearizes() {
    assert_linearizable(TreeImpl::Locked, 15, true);
}

#[test]
fn wait_free_trie_scalar_and_range_operations_linearize() {
    assert_linearizable(TreeImpl::Trie, 25, true);
}

#[test]
fn wait_free_trie_descriptor_read_path_linearizes() {
    assert_linearizable(TreeImpl::TrieDescReads, 20, true);
}

#[test]
fn sharded_store_cross_shard_snapshots_linearize() {
    // The global timestamp front makes cross-shard `count` / snapshot pairs
    // single-snapshot: with THREADS shards over a KEY_RANGE of 8 keys,
    // nearly every range query and snapshot pair spans several shards.
    // `batch_is_atomic` holds for the store, so these histories also mix
    // the transactional ops: membership-toggling patches, cas-inserts, and
    // two-key atomic batches whose keys routinely land on different shards
    // — the gated batch commit is what keeps the gap between the two
    // ops invisible to every concurrent count, collect, snapshot pair and
    // chunked scan in the history.
    assert_linearizable(TreeImpl::Sharded, 25, true);
}

#[test]
fn durable_store_transactional_batches_linearize() {
    // The durable store sequences every batch through the journal's log
    // thread (shadow-resolution + physical WAL logging) onto the gated
    // sharded store; the same transactional histories must linearize
    // through that extra layer. Few rounds — every write pays an fsync.
    assert_linearizable(TreeImpl::Durable, 4, true);
}

#[test]
fn sharded_store_descriptor_read_path_linearizes() {
    // The same check with every shard's reads forced through the descriptor
    // machinery: the front argument is read-path independent.
    assert_linearizable(TreeImpl::ShardedDescReads, 15, true);
}

/// Key universe of the fail-heavy histories: three keys, so nearly every
/// update meets another one on its key.
const FAIL_KEYS: i64 = 3;

/// Records a history in which most updates fail: each thread issues every
/// insert and remove twice in a row on the same key, so the second fails
/// unless another thread changed the key in between, and the rounds start
/// from a full or an empty key space. `updates` counts `(updates, failed)`.
fn record_fail_heavy_round(
    set: Arc<dyn ConcurrentSet>,
    seed: u64,
    updates: &Arc<[AtomicU64; 2]>,
) -> History<RangeSetOp, RangeSetRet> {
    History::record(THREADS, |recorders| {
        let handles: Vec<_> = recorders
            .iter()
            .enumerate()
            .map(|(t, recorder)| {
                let recorder: ThreadRecorder<RangeSetOp, RangeSetRet> = recorder.clone();
                let (set, updates) = (Arc::clone(&set), Arc::clone(updates));
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37));
                    let mut repeat = None;
                    for _ in 0..OPS_PER_THREAD {
                        // Insert, remove, contains, count: updates twice as
                        // likely as each read.
                        let (kind, key, repeated) = match repeat.take() {
                            Some((kind, key)) => (kind, key, true),
                            None => {
                                let kind = [0, 0, 1, 1, 2, 3][rng.gen_range(0..6i64) as usize];
                                (kind, rng.gen_range(0..FAIL_KEYS), false)
                            }
                        };
                        let (op, ret) = match kind {
                            0 | 1 => {
                                if !repeated {
                                    repeat = Some((kind, key));
                                }
                                let token = recorder.invoke(if kind == 0 {
                                    RangeSetOp::Insert(key)
                                } else {
                                    RangeSetOp::Remove(key)
                                });
                                let ok = if kind == 0 {
                                    set.insert(key)
                                } else {
                                    set.remove(key)
                                };
                                updates[0].fetch_add(1, Ordering::Relaxed);
                                updates[1].fetch_add(u64::from(!ok), Ordering::Relaxed);
                                (token, RangeSetRet::Bool(ok))
                            }
                            2 => {
                                let token = recorder.invoke(RangeSetOp::Contains(key));
                                (token, RangeSetRet::Bool(set.contains(key)))
                            }
                            _ => {
                                let token = recorder.invoke(RangeSetOp::Count(0, key));
                                (token, RangeSetRet::Count(set.count(0, key)))
                            }
                        };
                        recorder.respond(op, ret);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    })
}

#[test]
fn failed_updates_racing_successful_ones_linearize() {
    // Under `ReadPath::Fast` an update its key's presence state already
    // decides to fail returns from that one load, without a descriptor;
    // under `ReadPath::Descriptor` it runs through the root queue as in the
    // paper. Both must linearize against the successful updates they race
    // on the same three keys, on both shapes.
    let imps = [
        TreeImpl::WaitFree,
        TreeImpl::WaitFreeDescReads,
        TreeImpl::Trie,
        TreeImpl::TrieDescReads,
    ];
    for imp in imps {
        let updates = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let mut fast_failed = 0;
        for round in 0..30 {
            let prefill: Vec<i64> = if round % 2 == 0 {
                Vec::new()
            } else {
                (0..FAIL_KEYS).collect()
            };
            let set = imp.build(&prefill, THREADS);
            let history = record_fail_heavy_round(Arc::clone(&set), 0xFA11 + round, &updates);
            let initial = RangeSetSpec::prefilled(prefill.iter().copied());
            let verdict = check_history_with_initial::<RangeSetSpec>(&history, initial);
            assert!(
                verdict.is_linearizable(),
                "{}: round {round} produced a non-linearizable history:\n{verdict:?}\n{history:#?}",
                imp.name()
            );
            let metrics = set.metrics_snapshot();
            fast_failed += (metrics.counters.iter())
                .filter(|c| c.name.ends_with("_fast_failed_updates"))
                .map(|c| c.value)
                .sum::<u64>();
        }
        let [total, failed] = [0, 1].map(|i| updates[i].load(Ordering::Relaxed));
        assert!(
            2 * failed > total,
            "{}: {failed} of {total} updates failed, want most",
            imp.name()
        );
        let fast = !matches!(imp, TreeImpl::WaitFreeDescReads | TreeImpl::TrieDescReads);
        assert_eq!(
            fast_failed > 0,
            fast,
            "{}: {fast_failed} updates failed at the presence load",
            imp.name()
        );
    }
}

#[test]
fn lock_free_bst_scalar_operations_linearize() {
    // Scalar operations only: the linear-time baseline's range queries are
    // documented best-effort snapshots, which is precisely the limitation the
    // paper's aggregate range queries remove.
    assert_linearizable(TreeImpl::LockFreeLinear, 25, false);
}

#[test]
fn checker_rejects_a_broken_implementation() {
    // Sanity check that the harness has teeth: a deliberately broken "set"
    // whose contains() always answers false must be caught.
    struct AlwaysEmpty;
    impl ConcurrentSet for AlwaysEmpty {
        fn insert(&self, _key: i64) -> bool {
            true
        }
        fn replace(&self, _key: i64) -> bool {
            false
        }
        fn remove(&self, _key: i64) -> bool {
            false
        }
        fn contains(&self, _key: i64) -> bool {
            false
        }
        fn count(&self, _min: i64, _max: i64) -> u64 {
            0
        }
        fn collect(&self, _min: i64, _max: i64) -> Vec<i64> {
            Vec::new()
        }
        fn patch_toggle(&self, _key: i64) -> bool {
            false
        }
        fn cas_insert(&self, _key: i64) -> bool {
            true
        }
        fn len(&self) -> u64 {
            0
        }
        fn metrics_snapshot(&self) -> MetricsSnapshot {
            MetricsSnapshot::new()
        }
        fn check_invariants(&self) {}
    }
    let set: Arc<dyn ConcurrentSet> = Arc::new(AlwaysEmpty);
    // A single thread suffices: insert twice (both "succeed"), which is
    // already impossible for a set.
    let history = History::record(1, |recorders| {
        let r = &recorders[0];
        let token = r.invoke(RangeSetOp::Insert(1));
        let ok = set.insert(1);
        r.respond(token, RangeSetRet::Bool(ok));
        let token = r.invoke(RangeSetOp::Insert(1));
        let ok = set.insert(1);
        r.respond(token, RangeSetRet::Bool(ok));
    });
    let verdict = check_history_with_initial::<RangeSetSpec>(&history, RangeSetSpec::prefilled([]));
    assert!(!verdict.is_linearizable());
}
