//! Crash recovery against a `BTreeMap` oracle of the committed prefix.
//!
//! The durable store's contract (see `wft-durable`): after a crash at
//! **any** point — including mid-record torn tails and corrupted frames —
//! recovery rebuilds exactly the state produced by some prefix of the
//! committed batches, namely the longest prefix whose WAL records survive
//! intact, on top of the newest checkpoint. Nothing committed before that
//! point is lost; nothing is applied twice (checkpoint + replay of an
//! overlapping suffix must be a no-op, the per-key idempotency argument in
//! `wft-durable`'s store docs).
//!
//! The proptest drives random batches with an optional mid-run checkpoint,
//! then simulates the crash by truncating the live WAL segment at a random
//! byte offset or flipping a random byte (a torn sector), reopens, and
//! compares against the oracle replay of exactly the surviving prefix.
//! Frame boundaries are read back from the segment's own length prefixes,
//! so the test knows which batches survived without re-deriving the
//! payload format.
//!
//! A concurrent (non-proptest) test checkpoints while writers hammer the
//! store and verifies the reopened state equals the quiescent survivor
//! state — the "checkpoint never pauses writers, never loses or
//! duplicates a committed op" acceptance criterion.
//!
//! The generated batches mix the four physical ops with the *logical*
//! ones (`Patch`, `CompareAndSet`): the WAL never stores those — the
//! journal resolves them to physical ops against the live state before
//! encoding — so these tests double as proof that physical logging
//! reproduces exactly the state the logical oracle predicts, across
//! torn tails, crashed checkpoints, and concurrent traffic.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use wait_free_range_trees::durable::{
    DurableConfig, DurableStore, Fault, FaultKind, FaultyStorage, ScratchDir,
};
use wait_free_range_trees::prelude::*;

/// The deterministic read-modify-write every generated `Patch` carries.
/// `PatchFn` is a plain fn pointer, so the whole behaviour lives here:
/// absent keys join at 1, multiples of five leave, everything else
/// counts up.
fn bump(current: Option<i64>) -> Option<i64> {
    match current {
        None => Some(1),
        Some(v) if v % 5 == 0 => None,
        Some(v) => Some(v + 1),
    }
}

/// One op inside a generated batch.
#[derive(Debug, Clone)]
enum GenOp {
    Insert(i64, i64),
    Upsert(i64, i64),
    Remove(i64),
    RemoveEntry(i64),
    /// `StoreOp::Patch` with [`bump`].
    Patch(i64),
    /// `StoreOp::CompareAndSet` with a generated witness — `None`
    /// witnesses hit whenever the key is absent, `Some` ones mostly miss,
    /// so both the applied and the refused paths reach the WAL (a refused
    /// CAS resolves to *no* physical op but still consumes a record).
    Cas(i64, Option<i64>, i64),
}

impl GenOp {
    fn key(&self) -> i64 {
        match *self {
            GenOp::Insert(k, _)
            | GenOp::Upsert(k, _)
            | GenOp::Remove(k)
            | GenOp::RemoveEntry(k)
            | GenOp::Patch(k)
            | GenOp::Cas(k, _, _) => k,
        }
    }

    fn to_store_op(&self) -> StoreOp<i64, i64> {
        match *self {
            GenOp::Insert(key, value) => StoreOp::Insert { key, value },
            GenOp::Upsert(key, value) => StoreOp::InsertOrReplace { key, value },
            GenOp::Remove(key) => StoreOp::Remove { key },
            GenOp::RemoveEntry(key) => StoreOp::RemoveEntry { key },
            GenOp::Patch(key) => StoreOp::Patch { key, patch: bump },
            GenOp::Cas(key, expect, value) => StoreOp::CompareAndSet { key, expect, value },
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
            GenOp::Remove(k) | GenOp::RemoveEntry(k) => {
                oracle.remove(&k);
            }
            GenOp::Patch(k) => match bump(oracle.get(&k).copied()) {
                Some(v) => {
                    oracle.insert(k, v);
                }
                None => {
                    oracle.remove(&k);
                }
            },
            GenOp::Cas(k, expect, v) => {
                if oracle.get(&k).copied() == expect {
                    oracle.insert(k, v);
                }
            }
        }
    }
}

fn op_strategy() -> impl Strategy<Value = GenOp> {
    let key = -50i64..50;
    let witness = prop_oneof![Just(None), (-1000i64..1000).prop_map(Some)];
    prop_oneof![
        (key.clone(), -1000i64..1000).prop_map(|(k, v)| GenOp::Insert(k, v)),
        (key.clone(), -1000i64..1000).prop_map(|(k, v)| GenOp::Upsert(k, v)),
        key.clone().prop_map(GenOp::Remove),
        key.clone().prop_map(GenOp::RemoveEntry),
        key.clone().prop_map(GenOp::Patch),
        (key, witness, -1000i64..1000).prop_map(|(k, e, v)| GenOp::Cas(k, e, v)),
    ]
}

/// Batches must address each key at most once; keep the first op per key.
fn dedup_batch(ops: Vec<GenOp>) -> Vec<GenOp> {
    let mut seen = std::collections::HashSet::new();
    ops.into_iter().filter(|op| seen.insert(op.key())).collect()
}

fn test_config() -> DurableConfig {
    DurableConfig {
        shards: 3,
        // The crash is simulated by byte surgery after a clean close, so
        // skipping fsync only speeds the test up — the bytes are all in
        // the page cache either way.
        fsync: false,
        ..DurableConfig::default()
    }
}

/// The WAL segment files under `dir`, sorted by starting sequence number.
fn wal_segments(dir: &Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    segments
}

/// Frame `[start, end)` byte ranges of a segment, via its length prefixes.
fn frame_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = 0;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let end = pos + 8 + len;
        if end > bytes.len() {
            break;
        }
        spans.push((pos, end));
        pos = end;
    }
    spans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Commit random batches (optionally checkpointing mid-run), crash at
    /// a random WAL byte offset — truncation or a flipped byte — and
    /// verify recovery equals the oracle replay of exactly the surviving
    /// committed prefix, twice (recovery must be idempotent).
    #[test]
    fn recovery_replays_exactly_the_surviving_prefix(
        raw_batches in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..8), 1..16),
        checkpoint_at in prop_oneof![Just(usize::MAX), 0..16usize],
        damage_permille in 0..=1000u32,
        flip_instead_of_truncate in any::<bool>(),
    ) {
        let scratch = ScratchDir::new("recovery-prop");
        let batches: Vec<Vec<GenOp>> =
            raw_batches.into_iter().map(dedup_batch).collect();

        // `states[i]` = oracle after batches `0..i` (so `states[0]` is
        // the empty state).
        let mut states: Vec<BTreeMap<i64, i64>> = vec![BTreeMap::new()];
        for batch in &batches {
            let mut next = states.last().unwrap().clone();
            for op in batch {
                op.apply_to_oracle(&mut next);
            }
            states.push(next);
        }

        // Commit every batch; checkpoint after `checkpoint_at` batches.
        let mut checkpointed = 0usize;
        {
            let store: DurableStore<i64, i64> =
                DurableStore::open_with_config(scratch.path(), test_config()).unwrap();
            for (i, batch) in batches.iter().enumerate() {
                if checkpoint_at == i {
                    let report = store.checkpoint().unwrap();
                    prop_assert_eq!(report.cut, i as u64);
                    checkpointed = i;
                }
                store
                    .apply_durable(batch.iter().map(GenOp::to_store_op).collect())
                    .unwrap();
            }
            if checkpoint_at >= batches.len() && checkpoint_at != usize::MAX {
                store.checkpoint().unwrap();
                checkpointed = batches.len();
            }
            store.shutdown();
        }

        // After a checkpoint, truncation leaves exactly one live segment;
        // without one, the single original segment holds everything.
        let segments = wal_segments(scratch.path());
        prop_assert_eq!(segments.len(), 1);
        let segment = &segments[0];
        let bytes = fs::read(segment).unwrap();
        let spans = frame_spans(&bytes);
        prop_assert_eq!(spans.len(), batches.len() - checkpointed);

        // Crash: cut the segment at a byte offset, or flip the byte there.
        let offset = (bytes.len() as u64 * u64::from(damage_permille) / 1000) as usize;
        let surviving_frames = if flip_instead_of_truncate && offset < bytes.len() {
            let mut damaged = bytes.clone();
            damaged[offset] ^= 0x40;
            fs::write(segment, &damaged).unwrap();
            // The frame containing the flipped byte dies, along with
            // everything after it (frames tile the segment, so the
            // position lookup always finds it).
            spans
                .iter()
                .position(|&(start, end)| start <= offset && offset < end)
                .unwrap_or(spans.len())
        } else {
            fs::write(segment, &bytes[..offset]).unwrap();
            spans.iter().take_while(|(_, end)| *end <= offset).count()
        };
        let survived = checkpointed + surviving_frames;
        let expected = &states[survived];

        for round in 0..2 {
            let store: DurableStore<i64, i64> =
                DurableStore::open_with_config(scratch.path(), test_config()).unwrap();
            let report = store.recovery().clone();
            prop_assert_eq!(
                report.checkpoint_cut, checkpointed as u64,
                "round {}", round
            );
            prop_assert_eq!(
                report.recovered_through, survived as u64,
                "round {}: wrong watermark", round
            );
            let recovered = RangeRead::collect_range(&store, RangeSpec::all());
            let want: Vec<(i64, i64)> =
                expected.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(recovered, want, "round {}", round);
            prop_assert_eq!(PointMap::len(&store), expected.len() as u64);
            store.store().check_invariants();
            store.shutdown();
        }
    }

    /// Crash-point sweep over the **checkpoint write path**: fail the
    /// `delta`-th storage operation of a checkpoint (temp-file creation,
    /// image append, tmp fsync, rename, dir fsync, WAL rotation,
    /// segment removal — whatever the offset lands on) and require that
    ///
    /// * a failed checkpoint reports an error but loses nothing — the WAL
    ///   is still intact, so recovery yields exactly the committed state;
    /// * a checkpoint that *succeeded* despite the injected fault (the
    ///   fault landed past the commit point, e.g. in post-rename GC) also
    ///   recovers exactly the committed state;
    /// * a failed checkpoint can simply be retried once storage heals.
    #[test]
    fn checkpoint_crash_points_never_lose_data(
        raw_batches in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..8), 1..8),
        delta in 0u64..14,
        retry_after in any::<bool>(),
    ) {
        let scratch = ScratchDir::new("recovery-ckpt-fault");
        let batches: Vec<Vec<GenOp>> =
            raw_batches.into_iter().map(dedup_batch).collect();
        let mut oracle = BTreeMap::new();
        for batch in &batches {
            for op in batch {
                op.apply_to_oracle(&mut oracle);
            }
        }
        let expected: Vec<(i64, i64)> =
            oracle.iter().map(|(k, v)| (*k, *v)).collect();

        let faulty = FaultyStorage::over_fs();
        {
            let store: DurableStore<i64, i64> = DurableStore::open_with_storage(
                scratch.path(),
                test_config(),
                std::sync::Arc::new(faulty.clone()),
            )
            .unwrap();
            for batch in &batches {
                store
                    .apply_durable(batch.iter().map(GenOp::to_store_op).collect())
                    .unwrap();
            }

            // One fault somewhere on the checkpoint's own storage path.
            faulty.schedule(Fault::nth(
                faulty.ops() + delta,
                FaultKind::Error(std::io::ErrorKind::Other),
            ));
            let first = store.checkpoint();
            faulty.heal();
            // A checkpoint failure never degrades or halts the journal…
            prop_assert!(!store.is_degraded());
            prop_assert!(!store.is_halted());
            if first.is_err() && retry_after {
                // …so the next attempt simply works.
                let report = store.checkpoint().unwrap();
                prop_assert_eq!(report.cut, batches.len() as u64);
            }
            store.shutdown();
        }

        let store: DurableStore<i64, i64> =
            DurableStore::open_with_config(scratch.path(), test_config()).unwrap();
        prop_assert_eq!(
            RangeRead::collect_range(&store, RangeSpec::all()),
            expected
        );
        prop_assert_eq!(
            store.recovery().recovered_through,
            batches.len() as u64,
            "every committed batch is reflected, checkpoint or not"
        );
        store.store().check_invariants();
    }
}

/// One logical op a concurrent writer issues against its private key
/// stripe. Offsets are relative to the writer's stripe base, so writers
/// never collide and each one can keep an exact local oracle.
#[derive(Debug, Clone, Copy)]
enum StripeOp {
    /// `PointMap::patch` with [`bump`].
    Patch(u8),
    /// `PointMap::compare_and_set`, crafted at execution time to hit
    /// (witness = the writer's own oracle value) or to miss (witness = a
    /// sentinel no op ever stores).
    Cas(u8, bool, i8),
    /// Point remove.
    Remove(u8),
    /// A two-key atomic batch: patch one key, upsert the other.
    Batch(u8, u8),
}

/// Keys per writer stripe.
const STRIPE_KEYS: u8 = 12;
/// Key distance between writer stripe bases.
const STRIPE_SPAN: i64 = 1_000;

fn stripe_op_strategy() -> impl Strategy<Value = StripeOp> {
    let off = 0u8..STRIPE_KEYS;
    prop_oneof![
        off.clone().prop_map(StripeOp::Patch),
        (off.clone(), any::<bool>(), -100i8..100).prop_map(|(o, hit, v)| StripeOp::Cas(o, hit, v)),
        off.clone().prop_map(StripeOp::Remove),
        (off.clone(), off).prop_map(|(a, b)| StripeOp::Batch(a, b)),
    ]
}

/// Runs one writer's ops, asserting every acknowledged outcome against a
/// thread-local oracle of its stripe, and returns the oracle *chain*:
/// `chain[i]` is the stripe state after the first `i` acknowledged ops.
/// Each `StripeOp` is exactly one committed batch, so after a crash the
/// recovered stripe must equal some entry of the chain.
fn run_stripe_writer(
    store: &DurableStore<i64, i64>,
    base: i64,
    ops: &[StripeOp],
) -> Vec<BTreeMap<i64, i64>> {
    let mut chain = vec![BTreeMap::new()];
    for (i, op) in ops.iter().enumerate() {
        let mut next: BTreeMap<i64, i64> = chain.last().unwrap().clone();
        match *op {
            StripeOp::Patch(off) => {
                let key = base + i64::from(off);
                let predicted = bump(next.get(&key).copied());
                let after = PointMap::patch(store, key, bump);
                assert_eq!(
                    after, predicted,
                    "patch outcome disagrees with the stripe oracle"
                );
                match predicted {
                    Some(v) => next.insert(key, v),
                    None => next.remove(&key),
                };
            }
            StripeOp::Cas(off, hit, v) => {
                let key = base + i64::from(off);
                let value = i64::from(v);
                let expect = if hit {
                    next.get(&key).copied()
                } else {
                    Some(i64::MIN)
                };
                let applied = PointMap::compare_and_set(store, key, expect, value);
                assert_eq!(applied, hit, "CAS outcome disagrees with the stripe oracle");
                if hit {
                    next.insert(key, value);
                }
            }
            StripeOp::Remove(off) => {
                let key = base + i64::from(off);
                let was_present = next.remove(&key).is_some();
                let outcome = PointMap::remove(store, &key);
                assert_eq!(
                    outcome.is_applied(),
                    was_present,
                    "remove outcome disagrees with the stripe oracle"
                );
            }
            StripeOp::Batch(a, b) => {
                let ka = base + i64::from(a);
                // Batches refuse duplicate mutation keys; nudge the second
                // key off the first (STRIPE_KEYS > 1, so they stay apart).
                let kb = if a == b {
                    base + i64::from((b + 1) % STRIPE_KEYS)
                } else {
                    base + i64::from(b)
                };
                let upsert = i as i64;
                let outcomes = store
                    .apply_durable(vec![
                        StoreOp::Patch {
                            key: ka,
                            patch: bump,
                        },
                        StoreOp::InsertOrReplace {
                            key: kb,
                            value: upsert,
                        },
                    ])
                    .expect("a two-distinct-key batch validates");
                let predicted = bump(next.get(&ka).copied());
                match predicted {
                    Some(v) => next.insert(ka, v),
                    None => next.remove(&ka),
                };
                let replaced = next.insert(kb, upsert);
                assert_eq!(outcomes[0], OpOutcome::Patched(predicted));
                assert_eq!(outcomes[1], OpOutcome::Replaced(replaced));
            }
        }
        chain.push(next);
    }
    chain
}

/// Splits a whole-store read back into per-writer stripes.
fn split_stripes(entries: &[(i64, i64)], writers: usize) -> Vec<BTreeMap<i64, i64>> {
    let mut stripes = vec![BTreeMap::new(); writers];
    for &(k, v) in entries {
        let w = (k / STRIPE_SPAN) as usize;
        assert!(w < writers, "key {k} outside every writer stripe");
        stripes[w].insert(k, v);
    }
    stripes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Crash a checkpoint **while Patch/CAS writers are running**, then
    /// crash the store itself, and require the acknowledged-prefix
    /// contract both times:
    ///
    /// * the injected checkpoint fault never degrades or halts the
    ///   journal, and a clean shutdown afterwards loses nothing — the
    ///   reopened state equals every writer's final local oracle;
    /// * after a WAL truncation crash, each recovered stripe equals a
    ///   *prefix* of that writer's acknowledged op sequence (each op is
    ///   one committed batch, so the two-key batches must also be
    ///   all-or-nothing across the crash);
    /// * reopening twice yields identical state and recovery reports —
    ///   replaying a checkpoint-overlapping suffix is idempotent.
    #[test]
    fn checkpoint_crashes_under_live_patch_cas_traffic(
        seqs in proptest::collection::vec(
            proptest::collection::vec(stripe_op_strategy(), 16..40), 2..4),
        delta in 0u64..12,
        retry_after in any::<bool>(),
        damage_permille in 0..=1000u32,
    ) {
        let scratch = ScratchDir::new("recovery-live-logical");
        let writers = seqs.len();
        let faulty = FaultyStorage::over_fs();
        let chains: Vec<Vec<BTreeMap<i64, i64>>>;
        {
            let store: DurableStore<i64, i64> = DurableStore::open_with_storage(
                scratch.path(),
                test_config(),
                Arc::new(faulty.clone()),
            )
            .unwrap();

            chains = std::thread::scope(|scope| {
                let handles: Vec<_> = seqs
                    .iter()
                    .enumerate()
                    .map(|(w, ops)| {
                        let store = &store;
                        scope.spawn(move || {
                            run_stripe_writer(store, w as i64 * STRIPE_SPAN, ops)
                        })
                    })
                    .collect();

                // Crash the checkpoint mid-flight: one fault lands a few
                // storage ops ahead — on the checkpoint's own path or on a
                // concurrent WAL append, whichever gets there first. A hit
                // append is absorbed by the journal's retry loop, so the
                // writers above must never observe an error either way.
                faulty.schedule(Fault::nth(
                    faulty.ops() + delta,
                    FaultKind::Error(std::io::ErrorKind::Other),
                ));
                let first = store.checkpoint();
                faulty.heal();
                assert!(!store.is_degraded());
                assert!(!store.is_halted());
                if first.is_err() && retry_after {
                    // Healed storage: the retried checkpoint succeeds even
                    // under live traffic.
                    store.checkpoint().expect("retried checkpoint");
                }

                handles
                    .into_iter()
                    .map(|h| h.join().expect("writer thread"))
                    .collect()
            });
            store.shutdown();
        }

        // Clean shutdown first: every acknowledged op survives, fault or
        // no fault, so the state is exactly the union of final oracles.
        {
            let store: DurableStore<i64, i64> =
                DurableStore::open_with_config(scratch.path(), test_config()).unwrap();
            let recovered = RangeRead::collect_range(&store, RangeSpec::all());
            let stripes = split_stripes(&recovered, writers);
            for (w, chain) in chains.iter().enumerate() {
                prop_assert_eq!(
                    &stripes[w],
                    chain.last().unwrap(),
                    "writer {}: an acknowledged op vanished across clean shutdown",
                    w
                );
            }
            store.store().check_invariants();
            store.shutdown();
        }

        // Now the crash: truncate the newest WAL segment at a random byte
        // offset and require every recovered stripe to be a prefix of its
        // writer's acknowledged sequence — twice, identically.
        let segments = wal_segments(scratch.path());
        let segment = segments.last().unwrap();
        let bytes = fs::read(segment).unwrap();
        let offset = (bytes.len() as u64 * u64::from(damage_permille) / 1000) as usize;
        fs::write(segment, &bytes[..offset]).unwrap();

        let mut rounds = Vec::new();
        for round in 0..2 {
            let store: DurableStore<i64, i64> =
                DurableStore::open_with_config(scratch.path(), test_config()).unwrap();
            let recovered = RangeRead::collect_range(&store, RangeSpec::all());
            let stripes = split_stripes(&recovered, writers);
            for (w, chain) in chains.iter().enumerate() {
                prop_assert!(
                    chain.contains(&stripes[w]),
                    "round {}, writer {}: recovered stripe {:?} is not a prefix state \
                     of the acknowledged op sequence",
                    round,
                    w,
                    stripes[w]
                );
            }
            rounds.push((store.recovery().clone(), recovered));
            store.store().check_invariants();
            store.shutdown();
        }
        prop_assert_eq!(rounds[0].0.recovered_through, rounds[1].0.recovered_through);
        prop_assert_eq!(rounds[0].0.checkpoint_cut, rounds[1].0.checkpoint_cut);
        prop_assert_eq!(&rounds[0].1, &rounds[1].1, "reopen is not idempotent");
    }
}

/// Checkpoints taken while writers are running never lose or duplicate a
/// committed op: the reopened state equals the survivor state the writers
/// left behind, whichever checkpoint the recovery started from.
#[test]
fn online_checkpoints_under_concurrent_writers_lose_nothing() {
    let scratch = ScratchDir::new("recovery-online");
    // fsync on: the group-commit accounting below counts real fsyncs.
    let config = DurableConfig {
        shards: 4,
        fsync: true,
        ..DurableConfig::default()
    };
    let survivor_entries;
    {
        let store: Arc<DurableStore<i64, i64>> =
            Arc::new(DurableStore::open_with_config(scratch.path(), config.clone()).unwrap());
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    // Disjoint key stripes; every op is acknowledged, so
                    // every op must survive.
                    let base = w as i64 * 1_000;
                    for i in 0..300i64 {
                        let key = base + (i % 100);
                        if i % 3 == 2 {
                            PointMap::remove(&*store, &key);
                        } else {
                            PointMap::replace(&*store, key, i);
                        }
                    }
                })
            })
            .collect();
        for _ in 0..3 {
            let report = store.checkpoint().unwrap();
            assert!(report.entries <= 400, "stripes cap the live set");
        }
        for worker in workers {
            worker.join().unwrap();
        }
        // One more checkpoint at quiescence plus a couple of tail writes,
        // so recovery exercises checkpoint + non-empty suffix replay.
        store.checkpoint().unwrap();
        assert!(PointMap::insert(&*store, -1, -1).is_applied());
        assert!(PointMap::insert(&*store, -2, -2).is_applied());
        survivor_entries = store.store().entries_quiescent();
        let metrics = store.metrics();
        let counter = |name| metrics.counter(name).unwrap();
        let fsyncs = counter("durable_wal_fsyncs");
        assert_eq!(counter("durable_checkpoints"), 4);
        assert_eq!(counter("durable_wal_appends"), 4 * 300 + 2);
        // Group commit under the four writers: one fsync per flushed group,
        // so a commit never pays more than one.
        assert!(fsyncs <= counter("durable_wal_appends"));
        let groups = metrics.histogram("durable_group_size").unwrap();
        assert_eq!(groups.count, fsyncs);
        store.shutdown();
    }

    let store: DurableStore<i64, i64> =
        DurableStore::open_with_config(scratch.path(), config).unwrap();
    assert_eq!(store.recovery().replayed_records, 2);
    let recovered = RangeRead::collect_range(&store, RangeSpec::all());
    assert_eq!(recovered, survivor_entries);
    store.store().check_invariants();
}
