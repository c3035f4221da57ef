//! Chaos: the durable store under randomized fault schedules, checked
//! against an acknowledged-prefix oracle.
//!
//! The contract being enforced (see `wft-durable`'s crate docs):
//!
//! * **No acknowledged batch is ever lost.** Transient storage errors are
//!   retried behind the caller's back; a persistent failure degrades the
//!   store instead of corrupting it, and after storage heals, a reopen
//!   recovers exactly the fold of the acknowledged batches — plus at most
//!   the single in-flight batch that triggered the escalation (its frame
//!   may have reached the disk intact even though the caller got an
//!   error; recovery replaying it is allowed, inventing anything else is
//!   not).
//! * **Degraded mode is read-only, not dead.** While degraded, reads keep
//!   serving the acknowledged prefix from memory and writes fail fast
//!   with `DurableError::Degraded`; `try_resume` restores write service
//!   once the fault clears.
//! * **Recovery is idempotent**: reopening twice yields the same state.
//!
//! The proptest drives a command script — batches, checkpoints, scheduled
//! transient faults, short writes, outages, heals, resumes — against a
//! `FaultyStorage` over the real filesystem, then heals, reopens twice on
//! clean storage, and compares against the oracle. A separate concurrent
//! test hammers the store from writer and scanner threads across two
//! outage/resume cycles.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use wait_free_range_trees::durable::{
    DurableConfig, DurableError, DurableStore, Fault, FaultKind, FaultyStorage, RetryPolicy,
    ScratchDir,
};
use wait_free_range_trees::prelude::*;

/// One op inside a generated batch (same shape as the recovery suite).
#[derive(Debug, Clone)]
enum GenOp {
    Insert(i64, i64),
    Upsert(i64, i64),
    Remove(i64),
}

impl GenOp {
    fn key(&self) -> i64 {
        match *self {
            GenOp::Insert(k, _) | GenOp::Upsert(k, _) | GenOp::Remove(k) => k,
        }
    }

    fn to_store_op(&self) -> StoreOp<i64, i64> {
        match *self {
            GenOp::Insert(key, value) => StoreOp::Insert { key, value },
            GenOp::Upsert(key, value) => StoreOp::InsertOrReplace { key, value },
            GenOp::Remove(key) => StoreOp::RemoveEntry { key },
        }
    }

    fn apply_to_oracle(&self, oracle: &mut BTreeMap<i64, i64>) {
        match *self {
            GenOp::Insert(k, v) => {
                oracle.entry(k).or_insert(v);
            }
            GenOp::Upsert(k, v) => {
                oracle.insert(k, v);
            }
            GenOp::Remove(k) => {
                oracle.remove(&k);
            }
        }
    }
}

/// One step of a chaos script.
#[derive(Debug, Clone)]
enum Cmd {
    /// Submit a batch; acknowledged ⇒ folded into the oracle.
    Batch(Vec<GenOp>),
    /// Attempt a checkpoint; failures must never lose data.
    Checkpoint,
    /// Schedule a one-shot transient error `delta` faultable ops from now.
    Transient { delta: u64, kind: usize },
    /// Schedule a torn write `delta` faultable ops from now.
    ShortWrite { delta: u64 },
    /// Schedule the disk dying `delta` faultable ops from now.
    Outage { delta: u64, kind: usize },
    /// Disk comes back; unfired scheduled misfortune clears with it.
    Heal,
    /// Ask the store to leave degraded mode.
    Resume,
}

/// Transient error kinds — all retryable under the classification rules.
const TRANSIENT_KINDS: [io::ErrorKind; 3] = [
    io::ErrorKind::Interrupted,
    io::ErrorKind::TimedOut,
    io::ErrorKind::Other,
];

/// Persistent-outage kinds (still not fail-fast; persistence comes from
/// the outage never clearing, not from the errno).
const OUTAGE_KINDS: [io::ErrorKind; 2] = [io::ErrorKind::Other, io::ErrorKind::StorageFull];

fn op_strategy() -> impl Strategy<Value = GenOp> {
    let key = -40i64..40;
    prop_oneof![
        (key.clone(), -1000i64..1000).prop_map(|(k, v)| GenOp::Insert(k, v)),
        (key.clone(), -1000i64..1000).prop_map(|(k, v)| GenOp::Upsert(k, v)),
        key.prop_map(GenOp::Remove),
    ]
}

fn dedup_batch(ops: Vec<GenOp>) -> Vec<GenOp> {
    let mut seen = std::collections::HashSet::new();
    ops.into_iter().filter(|op| seen.insert(op.key())).collect()
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        5 => proptest::collection::vec(op_strategy(), 1..6)
            .prop_map(|ops| Cmd::Batch(dedup_batch(ops))),
        1 => Just(Cmd::Checkpoint),
        2 => (0u64..10, 0usize..TRANSIENT_KINDS.len())
            .prop_map(|(delta, kind)| Cmd::Transient { delta, kind }),
        1 => (0u64..10).prop_map(|delta| Cmd::ShortWrite { delta }),
        1 => (0u64..10, 0usize..OUTAGE_KINDS.len())
            .prop_map(|(delta, kind)| Cmd::Outage { delta, kind }),
        1 => Just(Cmd::Heal),
        1 => Just(Cmd::Resume),
    ]
}

/// Fast-failing config so escalation happens within the test's patience;
/// tiny segments so fault schedules also land on rotations.
fn chaos_config() -> DurableConfig {
    DurableConfig {
        shards: 3,
        segment_bytes: 512,
        retry: RetryPolicy {
            attempts: 2,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(200),
        },
        ..DurableConfig::default()
    }
}

fn entries(oracle: &BTreeMap<i64, i64>) -> Vec<(i64, i64)> {
    oracle.iter().map(|(k, v)| (*k, *v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Run a random chaos script; at every step the in-memory state must
    /// equal the acknowledged-prefix oracle, and after healing the final
    /// on-disk state must recover to the oracle (possibly plus the one
    /// escalating batch), identically across two reopens.
    #[test]
    fn no_acknowledged_batch_is_ever_lost(
        script in proptest::collection::vec(cmd_strategy(), 4..28),
    ) {
        let scratch = ScratchDir::new("chaos-prop");
        let faulty = FaultyStorage::over_fs();
        let store: DurableStore<i64, i64> = DurableStore::open_with_storage(
            scratch.path(),
            chaos_config(),
            Arc::new(faulty.clone()),
        )
        .unwrap();

        // The oracle of acknowledged batches, and (if a batch's failure
        // escalated the journal) the one batch whose frame may have
        // reached the disk anyway.
        let mut oracle: BTreeMap<i64, i64> = BTreeMap::new();
        let mut tail: Option<Vec<GenOp>> = None;

        for cmd in &script {
            match cmd {
                Cmd::Batch(ops) => {
                    let was_degraded = store.is_degraded();
                    match store.apply_durable(ops.iter().map(GenOp::to_store_op).collect()) {
                        Ok(_) => {
                            for op in ops {
                                op.apply_to_oracle(&mut oracle);
                            }
                        }
                        Err(DurableError::Degraded(_)) => {
                            prop_assert!(store.is_degraded());
                            if !was_degraded {
                                // This submission drove the escalation:
                                // its last flush attempt may have landed
                                // an intact frame before the error.
                                tail = Some(ops.clone());
                            }
                        }
                        Err(other) => prop_assert!(
                            false,
                            "unexpected write error under Degrade escalation: {other:?}"
                        ),
                    }
                }
                Cmd::Checkpoint => {
                    // May fail — a failed checkpoint never truncates the
                    // WAL, so the oracle is unaffected either way.
                    let _ = store.checkpoint();
                }
                Cmd::Transient { delta, kind } => faulty.schedule(Fault::nth(
                    faulty.ops() + delta,
                    FaultKind::Error(TRANSIENT_KINDS[*kind]),
                )),
                Cmd::ShortWrite { delta } => faulty.schedule(Fault::nth(
                    faulty.ops() + delta,
                    FaultKind::ShortWrite,
                )),
                Cmd::Outage { delta, kind } => faulty.schedule(Fault::nth(
                    faulty.ops() + delta,
                    FaultKind::Outage(OUTAGE_KINDS[*kind]),
                )),
                Cmd::Heal => faulty.heal(),
                Cmd::Resume => match store.try_resume() {
                    // The probe rolled the torn tail back and opened a
                    // fresh segment: the escalating batch is off the disk.
                    Ok(true) => tail = None,
                    Ok(false) => {}
                    // Still degraded (probe failed) or the state machine
                    // refused; either way the oracle is untouched.
                    Err(_) => {}
                },
            }

            // Invariant after every step: memory serves exactly the
            // acknowledged prefix — degraded or not.
            prop_assert_eq!(
                RangeRead::collect_range(&store, RangeSpec::all()),
                entries(&oracle)
            );
            if store.is_degraded() {
                prop_assert!(matches!(
                    store.apply_durable(vec![StoreOp::InsertOrReplace {
                        key: i64::MAX,
                        value: 0
                    }]),
                    Err(DurableError::Degraded(_))
                ));
            }
        }

        // Storage heals; the store shuts down in whatever state chaos
        // left it (graceful from Running, frozen from Degraded).
        faulty.heal();
        store.shutdown();
        drop(store);

        // The two states recovery is allowed to produce.
        let acked = entries(&oracle);
        let with_tail = {
            let mut o = oracle.clone();
            for op in tail.iter().flatten() {
                op.apply_to_oracle(&mut o);
            }
            entries(&o)
        };

        let mut seen = Vec::new();
        for round in 0..2 {
            let store: DurableStore<i64, i64> =
                DurableStore::open_with_config(scratch.path(), chaos_config()).unwrap();
            let recovered = RangeRead::collect_range(&store, RangeSpec::all());
            prop_assert!(
                recovered == acked || recovered == with_tail,
                "round {}: recovered {:?}\nacked {:?}\nacked+tail {:?}",
                round,
                recovered,
                acked,
                with_tail
            );
            store.store().check_invariants();
            store.shutdown();
            seen.push(recovered);
        }
        prop_assert_eq!(&seen[0], &seen[1], "recovery must be idempotent");
    }
}

/// Concurrent writers and scanners ride through two full
/// outage → degrade → heal → resume cycles. Every acknowledged write must
/// be visible at quiescence, scans must stay well-formed throughout, and
/// the reopened state may only ever be *newer* per key than the last
/// acknowledged value (an escalating in-flight frame is the one allowed
/// source of extra data).
#[test]
fn concurrent_chaos_survives_outage_and_resume_cycles() {
    const WRITERS: usize = 3;
    const STRIPE: i64 = 64;
    const OPS: i64 = 600;

    let scratch = ScratchDir::new("chaos-threads");
    let faulty = FaultyStorage::over_fs();
    let store: Arc<DurableStore<i64, i64>> = Arc::new(
        DurableStore::open_with_storage(scratch.path(), chaos_config(), Arc::new(faulty.clone()))
            .unwrap(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let finished = Arc::new(std::sync::atomic::AtomicUsize::new(0));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = Arc::clone(&store);
            let finished = Arc::clone(&finished);
            std::thread::spawn(move || {
                // Disjoint stripes; values increase per key, so "reopened
                // value >= last acked value" is checkable per key.
                let base = w as i64 * 1_000;
                let mut acked: BTreeMap<i64, i64> = BTreeMap::new();
                for i in 0..OPS {
                    let key = base + (i % STRIPE);
                    let submitted =
                        store.apply_durable(vec![StoreOp::InsertOrReplace { key, value: i }]);
                    match submitted {
                        Ok(_) => {
                            acked.insert(key, i);
                        }
                        Err(DurableError::Degraded(_)) => {
                            // Read-only window: back off briefly.
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(other) => panic!("unexpected write error: {other:?}"),
                    }
                }
                finished.fetch_add(1, Ordering::Relaxed);
                acked
            })
        })
        .collect();

    let scanner = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut drains = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut cursor = store.scan(RangeSpec::all());
                let rows = cursor.drain(usize::MAX);
                assert!(
                    rows.windows(2).all(|w| w[0].0 < w[1].0),
                    "scan rows must be strictly ordered"
                );
                drains += 1;
            }
            drains
        })
    };

    // Up to two outage cycles while the writers hammer away. If the
    // writers drain their scripts before a cycle trips a write, the cycle
    // is skipped rather than spun on forever.
    let mut cycles = 0u64;
    for _ in 0..2 {
        std::thread::sleep(Duration::from_millis(5));
        if finished.load(Ordering::Relaxed) == WRITERS {
            break;
        }
        faulty.outage_now(io::ErrorKind::Other);
        // Wait until a writer actually trips over the outage.
        let mut tripped = true;
        while !store.is_degraded() {
            if finished.load(Ordering::Relaxed) == WRITERS {
                tripped = false;
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        if !tripped {
            faulty.heal();
            break;
        }
        cycles += 1;
        // Degraded reads still serve.
        let _ = RangeRead::count(&*store, RangeSpec::all());
        std::thread::sleep(Duration::from_millis(3));
        faulty.heal();
        match store.try_resume() {
            Ok(true) => {}
            other => panic!("resume after heal must succeed, got {other:?}"),
        }
    }
    assert!(cycles >= 1, "at least one outage cycle must really happen");

    let mut acked: BTreeMap<i64, i64> = BTreeMap::new();
    for writer in writers {
        acked.extend(writer.join().unwrap());
    }
    stop.store(true, Ordering::Relaxed);
    assert!(scanner.join().unwrap() > 0, "the scanner really ran");

    // Quiescent memory holds exactly the acknowledged map (failed writes
    // were never applied; acknowledged ones never lost).
    for (key, value) in &acked {
        assert_eq!(PointMap::get(&*store, key), Some(*value), "key {key}");
    }
    assert_eq!(PointMap::len(&*store), acked.len() as u64);
    let metrics = store.metrics();
    assert_eq!(
        metrics.counter("durable_degraded_entries"),
        Some(cycles),
        "one entry per induced outage"
    );
    assert_eq!(metrics.counter("durable_resumes"), Some(cycles));
    assert_eq!(metrics.gauge("durable_degraded"), Some(0));
    store.shutdown();
    drop(store);

    // Reopen on clean storage: per key, recovery may only be newer than
    // the last acknowledged value (an in-flight frame that reached the
    // disk before its escalation), never older and never missing.
    let store: DurableStore<i64, i64> = DurableStore::open(scratch.path()).unwrap();
    for (key, value) in &acked {
        let recovered = PointMap::get(&store, key)
            .unwrap_or_else(|| panic!("acknowledged key {key} lost in recovery"));
        assert!(
            recovered >= *value,
            "key {key}: recovered {recovered} older than acknowledged {value}"
        );
    }
    store.store().check_invariants();
}
