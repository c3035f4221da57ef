//! [`DurableStore`]: the sharded store wrapped in a write-ahead log,
//! online checkpoints, and crash recovery.
//!
//! # Write path
//!
//! Every mutation — point ops and batches alike — becomes a [`StoreOp`]
//! batch submitted to the group-commit journal (see [`crate::journal`]).
//! The caller gets its typed outcomes back only after the batch is fsynced
//! *and* applied, so the in-memory store is always exactly a replay of the
//! WAL's committed prefix and no reader ever observes state a crash could
//! roll back. Reads go straight to the inner [`ShardedStore`] with zero
//! durability overhead: point gets, range reads, snapshot reads, and
//! streaming scan cursors are all untouched.
//!
//! Logical operations ([`StoreOp::Patch`], [`StoreOp::CompareAndSet`],
//! [`StoreOp::Get`]) never reach the disk: the journal's log thread
//! resolves them into the four *physical* variants before encoding
//! (physical logging — see `crate::journal`'s resolution step), so the
//! WAL format is unchanged and the replay arguments below keep holding
//! verbatim.
//!
//! A transient I/O error on the flush path is retried with backoff; a
//! persistent one degrades the store to read-only instead of killing it —
//! see the [`crate::journal`] docs for the full failure policy and
//! [`DurableStore::try_resume`] for the way back.
//!
//! # Checkpoints are scans
//!
//! [`DurableStore::checkpoint`] never pauses writers. It samples the
//! journal's applied watermark as the *cut*, then drains a plain
//! [`RangeScan`] cursor until a drain completes with
//! [`ScanConsistency::Snapshot`] — the same first-class read API every
//! other consumer uses. If sustained write pressure starves the online
//! attempts (lock-free, not wait-free — on few cores every reschedule
//! lets an apply expire the cut), the drain *gates the journal's apply
//! stage* for exactly one pass: the inner store is mutated only by that
//! stage, so the gated drain is quiescent and completes `Snapshot`
//! immediately, while WAL appends and fsyncs keep running — durability is
//! never paused, only application (and thus acknowledgement) defers
//! briefly, and the backlog lands as one large commit group after. The
//! image is therefore some consistent store state at least as new as the
//! cut, which is exactly what replay needs:
//!
//! - Every batch with `seq <= cut` is fully inside the image.
//! - The image may additionally contain batches (even *partial* batches —
//!   a snapshot can land between two shard applications of one batch)
//!   with `seq > cut`. Recovery replays all records with `seq > cut`, so
//!   those ops are re-applied onto a state that already reflects them.
//!   Per key, a batch suffix re-applied in order is a no-op: the
//!   composition of a key's ops is either a constant function
//!   ([`StoreOp::InsertOrReplace`] / removes, possibly followed by
//!   inserts) or `x -> x.or(v)` (pure inserts), and both satisfy
//!   `f(f(x)) = f(x)`. Outcomes are *not* re-derivable this way, but
//!   recovery discards outcomes — they were already acknowledged to the
//!   original callers.
//!
//! After the image is durable (write-to-temp, fsync, rename, fsync dir),
//! the WAL rotates and every segment fully covered by the cut is deleted.
//!
//! Checkpoints can also fire automatically: configure a
//! [`CheckpointPolicy`] and either poll [`DurableStore::maybe_checkpoint`]
//! yourself or spawn the built-in poller with
//! [`DurableStore::spawn_auto_checkpointer`]. Policy-triggered runs are
//! distinguishable from explicit calls by [`CheckpointReport::trigger`]
//! and by the trigger bits in the `CheckpointBegin` trace arg.
//!
//! # Recovery
//!
//! Opening a directory loads the newest valid checkpoint into
//! [`ShardedStore::from_entries_with_config`], replays the WAL suffix
//! (`seq > cut`) in order — tolerating a torn tail by stopping at the
//! first bad frame, and refusing to replay across a sequence gap — and
//! resumes logging in a **fresh** segment, so recovery never appends after
//! torn bytes and is idempotent if interrupted.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wft_api::{
    BatchApply, BatchError, OpOutcome, PointMap, RangeKey, RangeRead, RangeScan, RangeSpec,
    ScanConsistency, ScanCursor, SnapshotRead, SnapshotToken, StoreOp, UpdateOutcome,
};
use wft_obs::TraceKind;
use wft_seq::{Augmentation, Key, Size, Value};
use wft_store::{ShardedStore, StoreConfig, StoreScanCursor};

use crate::checkpoint::{load_newest_checkpoint, write_checkpoint};
use crate::codec::WalCodec;
use crate::journal::{HaltMode, Journal, JournalState, RetryPolicy};
use crate::storage::{FsStorage, Storage};
use crate::wal::{read_wal, WalWriter};
use crate::DurableError;

/// Chunked snapshot-drain attempts before the checkpoint falls back to a
/// single whole-range chunk (one validation window instead of many).
const CHECKPOINT_DRAIN_ATTEMPTS: u32 = 16;

/// Entries per chunk of the checkpoint's snapshot drain.
const CHECKPOINT_CHUNK: usize = 1024;

/// When to auto-trigger a checkpoint (see
/// [`DurableStore::maybe_checkpoint`]). Thresholds compare against
/// *approximate* live-WAL counters: bytes appended since the last
/// checkpoint plus what recovery found on disk, and the count of
/// not-yet-truncated segments. `None` disables that axis.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointPolicy {
    /// Checkpoint once the live WAL exceeds this many bytes.
    pub max_wal_bytes: Option<u64>,
    /// Checkpoint once the live WAL spans more than this many segments.
    pub max_wal_segments: Option<u64>,
}

/// What caused a checkpoint to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointTrigger {
    /// An explicit [`DurableStore::checkpoint`] call.
    Explicit,
    /// The [`CheckpointPolicy::max_wal_bytes`] threshold.
    WalBytes,
    /// The [`CheckpointPolicy::max_wal_segments`] threshold.
    WalSegments,
}

impl CheckpointTrigger {
    /// The 2-bit code packed into the `CheckpointBegin` trace arg's high
    /// bits: `arg = (code << 14) | (cut & 0x3FFF)`.
    pub fn code(self) -> u16 {
        match self {
            CheckpointTrigger::Explicit => 0,
            CheckpointTrigger::WalBytes => 1,
            CheckpointTrigger::WalSegments => 2,
        }
    }
}

/// Configuration for a [`DurableStore`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Upper bound on the shards of the inner [`ShardedStore`]. The store
    /// is built from the recovered image, whose key distribution picks the
    /// split keys, so it has at most this many shards and fewer when the
    /// image holds fewer entries than `shards` — a fresh directory opens as
    /// one shard until a checkpoint of enough entries is reopened.
    pub shards: usize,
    /// Configuration forwarded to the inner store.
    pub store: StoreConfig,
    /// Rotate WAL segments once they exceed this many bytes.
    pub segment_bytes: u64,
    /// Whether commit groups fsync (`true` for real durability; `false`
    /// trades the crash guarantee for throughput, useful in benches to
    /// isolate the logging cost from the disk cost).
    pub fsync: bool,
    /// Retry budget for transient I/O errors on the flush path; a
    /// persistent failure degrades the store to read-only mode, resumable
    /// via [`DurableStore::try_resume`].
    pub retry: RetryPolicy,
    /// Background checkpoint thresholds; `None` means checkpoints run
    /// only when explicitly called.
    pub auto_checkpoint: Option<CheckpointPolicy>,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            shards: 4,
            store: StoreConfig::default(),
            segment_bytes: 8 * 1024 * 1024,
            fsync: true,
            retry: RetryPolicy::default(),
            auto_checkpoint: None,
        }
    }
}

/// What recovery found when the store opened.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Cut of the checkpoint the store was seeded from (0 = none).
    pub checkpoint_cut: u64,
    /// Entries loaded from that checkpoint.
    pub checkpoint_entries: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_records: u64,
    /// Operations inside those records.
    pub replayed_ops: u64,
    /// Highest sequence number the recovered state reflects; logging
    /// resumes at `recovered_through + 1`.
    pub recovered_through: u64,
    /// `true` when the log ended in a torn/corrupt frame or a sequence
    /// gap and an unacknowledged suffix was discarded.
    pub torn_tail: bool,
}

/// What a completed checkpoint did.
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// The WAL cut the image is stamped with.
    pub cut: u64,
    /// Entries written into the image.
    pub entries: u64,
    /// Bytes of the image file.
    pub bytes: u64,
    /// WAL segments deleted by the post-checkpoint truncation.
    pub segments_truncated: u64,
    /// Chunked snapshot drains abandoned before one completed clean.
    pub snapshot_retries: u64,
    /// Whether the drain had to quiesce the journal's apply stage after
    /// exhausting its online snapshot attempts (WAL appends and fsyncs
    /// kept running; application deferred for one drain).
    pub gated: bool,
    /// What caused this checkpoint (explicit call or a policy axis).
    pub trigger: CheckpointTrigger,
}

/// A crash-safe [`ShardedStore`]: WAL-backed writes, online checkpoints,
/// replay-on-open. See the crate docs for the protocol.
///
/// Reads ([`PointMap::get`], [`RangeRead`], [`SnapshotRead`],
/// [`RangeScan`]) delegate to the inner store unchanged. Writes block
/// until durable. The `wft-api` write traits panic if the journal has
/// halted, degraded, or storage failed — callers that need typed errors
/// (and degraded-mode awareness) use [`DurableStore::apply_durable`].
pub struct DurableStore<K: Key, V: Value = (), A: Augmentation<K, V> = Size>
where
    K: WalCodec,
    V: WalCodec,
{
    inner: Arc<ShardedStore<K, V, A>>,
    journal: Journal<K, V, A>,
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    config: DurableConfig,
    recovery: RecoveryReport,
}

impl<K, V, A> DurableStore<K, V, A>
where
    K: Key + WalCodec,
    V: Value + WalCodec,
    A: Augmentation<K, V>,
{
    /// Opens (or creates) the durable store in `dir` with default
    /// configuration, running recovery first.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, DurableError> {
        Self::open_with_config(dir, DurableConfig::default())
    }

    /// Opens (or creates) the durable store in `dir` on the real
    /// filesystem: loads the newest valid checkpoint, replays the
    /// committed WAL suffix, and resumes logging in a fresh segment.
    /// The inner store's shards are split from the checkpoint's entries:
    /// at most [`DurableConfig::shards`], one on a fresh directory.
    pub fn open_with_config(
        dir: impl AsRef<Path>,
        config: DurableConfig,
    ) -> Result<Self, DurableError> {
        Self::open_with_storage(dir, config, Arc::new(FsStorage))
    }

    /// [`open_with_config`](Self::open_with_config) over an explicit
    /// [`Storage`] implementation — the seam the fault-injection harness
    /// uses to put a [`crate::storage::FaultyStorage`] under a real store.
    pub fn open_with_storage(
        dir: impl AsRef<Path>,
        config: DurableConfig,
        storage: Arc<dyn Storage>,
    ) -> Result<Self, DurableError> {
        let dir = dir.as_ref().to_path_buf();
        storage.create_dir_all(&dir).map_err(DurableError::io)?;

        let (cut, entries) = load_newest_checkpoint::<K, V>(storage.as_ref(), &dir)
            .map_err(DurableError::io)?
            .unwrap_or((0, Vec::new()));
        let mut recovery = RecoveryReport {
            checkpoint_cut: cut,
            checkpoint_entries: entries.len() as u64,
            recovered_through: cut,
            ..RecoveryReport::default()
        };

        let inner = Arc::new(ShardedStore::from_entries_with_config(
            entries,
            config.shards,
            config.store.clone(),
        ));

        let replay = read_wal::<K, V>(storage.as_ref(), &dir).map_err(DurableError::io)?;
        recovery.torn_tail = replay.torn_tail;
        let mut expected = cut + 1;
        for (seq, ops) in replay.records {
            if seq <= cut {
                continue;
            }
            if seq != expected {
                return Err(DurableError::Corrupt(format!(
                    "log skips from seq {} to {seq} past checkpoint cut {cut}: \
                     committed records are missing",
                    expected - 1
                )));
            }
            recovery.replayed_records += 1;
            recovery.replayed_ops += ops.len() as u64;
            inner
                .apply_batch(ops)
                .map_err(|err| DurableError::Corrupt(format!("replaying seq {seq}: {err}")))?;
            recovery.recovered_through = seq;
            expected = seq + 1;
        }

        let wal = WalWriter::open(
            Arc::clone(&storage),
            &dir,
            recovery.recovered_through + 1,
            config.segment_bytes,
        )
        .map_err(DurableError::io)?;
        let journal = Journal::start(
            Arc::clone(&inner),
            wal,
            recovery.recovered_through,
            // Seed the checkpoint policy's live-WAL view with what is on
            // disk: the replayed bytes plus the fresh segment just opened.
            (replay.bytes_read, replay.segments + 1),
            config.retry,
            config.fsync,
        );

        Ok(DurableStore {
            inner,
            journal,
            storage,
            dir,
            config,
            recovery,
        })
    }

    /// Validates `batch` and commits it through the write-ahead log,
    /// returning the typed outcomes once the batch is durable and applied.
    ///
    /// This is the write path every trait-level mutation funnels through;
    /// unlike the trait impls it reports journal failures as
    /// [`DurableError`] instead of panicking — including
    /// [`DurableError::Degraded`] while the store is in read-only mode.
    /// An empty batch is a durable no-op that never touches the log.
    pub fn apply_durable(
        &self,
        batch: Vec<StoreOp<K, V>>,
    ) -> Result<Vec<OpOutcome<V>>, DurableError> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        wft_api::validate_batch(&batch, self.config.store.max_batch_ops)
            .map_err(|err| DurableError::Batch(err.to_string()))?;
        self.journal.submit(batch)
    }

    /// The inner sharded store, for read-side access to its native API
    /// (shard layout, front machinery, invariant checks). Mutating the
    /// inner store directly would bypass the log — it is exposed
    /// read-only by convention, not by type, because every useful read
    /// entry point takes `&self` anyway.
    pub fn store(&self) -> &ShardedStore<K, V, A> {
        &self.inner
    }

    /// What recovery found when this handle opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The directory holding the WAL and checkpoints.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `true` once the journal has halted for good (graceful shutdown or
    /// simulated crash) and writes are refused.
    pub fn is_halted(&self) -> bool {
        self.journal.is_halted()
    }

    /// `true` while the store is in degraded read-only mode after a
    /// persistent storage failure: reads serve from memory, writes fail
    /// fast with [`DurableError::Degraded`], and
    /// [`try_resume`](Self::try_resume) may restore write service.
    pub fn is_degraded(&self) -> bool {
        self.journal.is_degraded()
    }

    /// Attempts to leave degraded mode by re-probing storage with a
    /// genuine write (torn-tail rollback plus rotation into a fresh,
    /// fsynced segment) and re-arming the journal.
    ///
    /// Returns `Ok(true)` on a successful resume, `Ok(false)` when the
    /// store was not degraded, [`DurableError::Halted`] when the journal
    /// is past saving, and [`DurableError::Io`] when the probe found the
    /// storage still failing (the store stays degraded; call again once
    /// the disk recovers).
    pub fn try_resume(&self) -> Result<bool, DurableError> {
        self.journal.try_resume()
    }

    /// Stops logging as a crash would: queued unacknowledged batches fail
    /// with [`DurableError::Halted`] and nothing further is flushed. The
    /// on-disk state is left exactly as the crash instant would leave it —
    /// reopen the directory to exercise recovery. Reads keep working on
    /// the frozen in-memory state.
    pub fn simulate_crash(&self) {
        self.journal.halt(HaltMode::Crash);
    }

    /// Drains every queued batch to stable storage, then stops the
    /// journal. Further writes fail with [`DurableError::Halted`]. Also
    /// runs on drop; calling it explicitly just surfaces the point where
    /// durability ends.
    pub fn shutdown(&self) {
        self.journal.halt(HaltMode::Graceful);
    }
}

impl<K, V, A> DurableStore<K, V, A>
where
    K: RangeKey + WalCodec,
    V: Value + WalCodec,
    A: Augmentation<K, V>,
{
    /// Takes an online checkpoint: snapshot-drains the store through a
    /// scan cursor (writers keep writing), makes the image durable, then
    /// rotates the WAL and deletes every segment the cut covers. Returns
    /// what it did. See the module docs for why the sampled cut is
    /// sound.
    ///
    /// A checkpoint's own I/O failure surfaces as [`DurableError::Io`]
    /// but never degrades the journal: the WAL is intact and untruncated,
    /// so nothing acknowledged is at risk — retry later.
    pub fn checkpoint(&self) -> Result<CheckpointReport, DurableError> {
        self.checkpoint_with_trigger(CheckpointTrigger::Explicit)
    }

    /// Runs the configured [`CheckpointPolicy`] once: checkpoints exactly
    /// when a threshold is crossed, returning `Ok(None)` when no policy
    /// is set, the store is not running (degraded/halted), or the live
    /// WAL is under every threshold. This is the poll the background
    /// checkpointer issues; it is public so callers with their own
    /// scheduling can drive the same policy.
    pub fn maybe_checkpoint(&self) -> Result<Option<CheckpointReport>, DurableError> {
        let Some(policy) = self.config.auto_checkpoint else {
            return Ok(None);
        };
        if !matches!(self.journal.state(), JournalState::Running) {
            return Ok(None);
        }
        let shared = self.journal.shared();
        let live_bytes = shared.live_wal_bytes.load(Ordering::Relaxed);
        let live_segments = shared.live_wal_segments.load(Ordering::Relaxed);
        let trigger = if policy.max_wal_bytes.is_some_and(|t| live_bytes >= t) {
            CheckpointTrigger::WalBytes
        } else if policy.max_wal_segments.is_some_and(|t| live_segments > t) {
            CheckpointTrigger::WalSegments
        } else {
            return Ok(None);
        };
        self.checkpoint_with_trigger(trigger).map(Some)
    }

    /// Spawns a thread that polls [`maybe_checkpoint`](Self::maybe_checkpoint)
    /// every `poll`. Policy I/O errors are swallowed (the next poll
    /// retries; the WAL is never truncated by a failed checkpoint). The
    /// returned guard stops and joins the thread on drop — keep it alive
    /// for as long as the policy should run.
    pub fn spawn_auto_checkpointer(store: &Arc<Self>, poll: Duration) -> AutoCheckpointer {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let thread_store = Arc::clone(store);
        let handle = std::thread::Builder::new()
            .name("wft-durable-ckpt".into())
            .spawn(move || {
                let (flag, wake) = &*thread_stop;
                let mut stopped = flag.lock().unwrap();
                while !*stopped {
                    drop(stopped);
                    let _ = thread_store.maybe_checkpoint();
                    stopped = flag.lock().unwrap();
                    if !*stopped {
                        stopped = wake.wait_timeout(stopped, poll).unwrap().0;
                    }
                }
            })
            .expect("spawning the auto-checkpoint thread");
        AutoCheckpointer {
            stop,
            handle: Some(handle),
        }
    }

    fn checkpoint_with_trigger(
        &self,
        trigger: CheckpointTrigger,
    ) -> Result<CheckpointReport, DurableError> {
        match self.journal.state() {
            JournalState::Running => {}
            JournalState::Degraded(msg) => return Err(DurableError::Degraded(msg)),
            JournalState::Halted(reason) => return Err(DurableError::Halted(reason)),
        }
        let started = Instant::now();
        // ORDERING: Acquire pairs with the log thread's Release `applied_seq`
        // store — the checkpoint cut includes every applied effect.
        let cut = self.journal.shared().applied_seq.load(Ordering::Acquire);
        wft_obs::trace::emit(
            TraceKind::CheckpointBegin,
            (trigger.code() << 14) | (cut & 0x3FFF) as u16,
        );

        let mut snapshot_retries = 0u64;
        let mut gated = false;
        let entries = loop {
            // Fallback under sustained write pressure: the in-memory
            // store is mutated only by the log thread's apply stage, so
            // holding its gate makes the store quiescent and the very
            // next drain completes `Snapshot` in one pass. Writers are
            // not paused — WAL appends and fsyncs keep running; only
            // application (and acknowledgement) defers for one drain,
            // and the backlog commits as one large group after. Without
            // the gate, a lock-free snapshot drain can starve forever on
            // few cores (every reschedule lets an apply expire the cut).
            let _quiesced = if snapshot_retries >= u64::from(CHECKPOINT_DRAIN_ATTEMPTS) {
                gated = true;
                Some(self.journal.shared().apply_gate.lock().unwrap())
            } else {
                None
            };
            let mut cursor = self.inner.scan(RangeSpec::all());
            let entries = cursor.drain(CHECKPOINT_CHUNK);
            if cursor.consistency() == ScanConsistency::Snapshot || gated {
                // A gated drain is Snapshot unless something mutated the
                // inner store behind the journal's back (a convention
                // breach, see `store()`); even then the image stays safe
                // — replay from the cut repairs every key — so take it
                // rather than loop forever.
                debug_assert_eq!(cursor.consistency(), ScanConsistency::Snapshot);
                break entries;
            }
            snapshot_retries += 1;
        };

        let bytes = write_checkpoint(self.storage.as_ref(), &self.dir, cut, &entries)
            .map_err(DurableError::io)?;

        let shared = self.journal.shared();
        let instruments = &shared.instruments;
        let segments_truncated = {
            let mut wal = shared.wal.lock().unwrap();
            wal.rotate().map_err(DurableError::io)?;
            instruments.wal_rotations.inc();
            wal.truncate_through(cut).map_err(DurableError::io)?
        };
        // Reset the policy's live-WAL view: the image supersedes the
        // truncated prefix and the active segment is freshly rotated.
        // Approximate by design — bytes appended between the cut sample
        // and here are under-counted until the next checkpoint.
        shared.live_wal_bytes.store(0, Ordering::Relaxed);
        shared.live_wal_segments.store(1, Ordering::Relaxed);
        instruments.segments_truncated.add(segments_truncated);
        instruments.checkpoints.inc();
        if trigger != CheckpointTrigger::Explicit {
            instruments.auto_checkpoints.inc();
        }
        instruments
            .checkpoint_duration
            .record(started.elapsed().as_nanos() as u64);
        wft_obs::trace::emit(TraceKind::CheckpointEnd, (cut & 0xFFFF) as u16);

        Ok(CheckpointReport {
            cut,
            entries: entries.len() as u64,
            bytes,
            segments_truncated,
            snapshot_retries,
            gated,
            trigger,
        })
    }
}

/// Guard for the background checkpoint thread spawned by
/// [`DurableStore::spawn_auto_checkpointer`]; stops and joins it on drop.
#[derive(Debug)]
pub struct AutoCheckpointer {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Drop for AutoCheckpointer {
    fn drop(&mut self) {
        let (flag, wake) = &*self.stop;
        *flag.lock().unwrap() = true;
        wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Point mutations are single-op durable batches; reads delegate to the
/// inner store.
///
/// # Panics
///
/// The mutating methods panic when the journal has halted, degraded, or
/// storage failed ([`DurableStore::apply_durable`] is the fallible
/// spelling).
///
/// One seam: a losing [`PointMap::insert`] reports
/// `Unchanged { current }` by re-reading the key *after* the batch
/// applied, so `current` can reflect a later write rather than the value
/// that caused the loss. The store's per-key linearization order is
/// unaffected.
impl<K, V, A> PointMap<K, V> for DurableStore<K, V, A>
where
    K: Key + WalCodec,
    V: Value + WalCodec,
    A: Augmentation<K, V>,
{
    fn insert(&self, key: K, value: V) -> UpdateOutcome<V> {
        let outcomes = self
            .apply_durable(vec![StoreOp::Insert { key, value }])
            .expect("durable insert");
        match outcomes.into_iter().next() {
            Some(OpOutcome::Inserted(true)) => UpdateOutcome::Applied { prior: None },
            _ => UpdateOutcome::Unchanged {
                current: self.inner.get(&key),
            },
        }
    }

    fn replace(&self, key: K, value: V) -> UpdateOutcome<V> {
        let outcomes = self
            .apply_durable(vec![StoreOp::InsertOrReplace { key, value }])
            .expect("durable replace");
        match outcomes.into_iter().next() {
            Some(OpOutcome::Replaced(prior)) => UpdateOutcome::Applied { prior },
            _ => unreachable!("InsertOrReplace yields Replaced"),
        }
    }

    fn remove(&self, key: &K) -> UpdateOutcome<V> {
        let outcomes = self
            .apply_durable(vec![StoreOp::RemoveEntry { key: *key }])
            .expect("durable remove");
        match outcomes.into_iter().next() {
            Some(OpOutcome::RemovedEntry(Some(prior))) => {
                UpdateOutcome::Applied { prior: Some(prior) }
            }
            _ => UpdateOutcome::Unchanged { current: None },
        }
    }

    fn get(&self, key: &K) -> Option<V> {
        self.inner.get(key)
    }

    fn contains(&self, key: &K) -> bool {
        self.inner.contains(key)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    // The trait defaults are non-atomic get-then-write compositions; here
    // they are single-op transactional batches resolved on the journal's
    // sequencer thread, so the read-modify-write is atomic *and* the WAL
    // records only its physical effect.
    fn patch(&self, key: K, patch: wft_api::PatchFn<V>) -> Option<V> {
        let outcomes = self
            .apply_durable(vec![StoreOp::Patch { key, patch }])
            .expect("durable patch");
        match outcomes.into_iter().next() {
            Some(OpOutcome::Patched(after)) => after,
            _ => unreachable!("Patch yields Patched"),
        }
    }

    fn compare_and_set(&self, key: K, expect: Option<V>, value: V) -> bool {
        let outcomes = self
            .apply_durable(vec![StoreOp::CompareAndSet { key, expect, value }])
            .expect("durable compare-and-set");
        match outcomes.into_iter().next() {
            Some(OpOutcome::CompareSet(applied)) => applied,
            _ => unreachable!("CompareAndSet yields CompareSet"),
        }
    }
}

/// Batches go through the log; validation errors stay typed.
///
/// # Panics
///
/// Panics when the journal has halted, degraded, or storage failed (see
/// [`DurableStore::apply_durable`] for the fallible spelling).
impl<K, V, A> BatchApply<K, V> for DurableStore<K, V, A>
where
    K: Key + WalCodec,
    V: Value + WalCodec,
    A: Augmentation<K, V>,
{
    fn apply_batch(&self, batch: Vec<StoreOp<K, V>>) -> Result<Vec<OpOutcome<V>>, BatchError<K>> {
        wft_api::validate_batch(&batch, self.config.store.max_batch_ops)?;
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        Ok(self.journal.submit(batch).expect("durable batch"))
    }
}

impl<K, V, A> RangeRead<K, V> for DurableStore<K, V, A>
where
    K: RangeKey + WalCodec,
    V: Value + WalCodec,
    A: Augmentation<K, V>,
{
    type Agg = A::Agg;

    fn range_agg(&self, range: RangeSpec<K>) -> A::Agg {
        RangeRead::range_agg(&*self.inner, range)
    }

    fn count(&self, range: RangeSpec<K>) -> u64 {
        RangeRead::count(&*self.inner, range)
    }

    fn collect_range(&self, range: RangeSpec<K>) -> Vec<(K, V)> {
        RangeRead::collect_range(&*self.inner, range)
    }
}

/// Scans hand out the inner store's cursor directly — durability adds
/// nothing to the read path.
impl<K, V, A> RangeScan<K, V> for DurableStore<K, V, A>
where
    K: RangeKey + WalCodec,
    V: Value + WalCodec,
    A: Augmentation<K, V>,
{
    type Cursor<'a>
        = StoreScanCursor<'a, K, V, A>
    where
        Self: 'a;

    fn scan(&self, range: RangeSpec<K>) -> StoreScanCursor<'_, K, V, A> {
        self.inner.scan(range)
    }
}

impl<K, V, A> SnapshotRead<K, V> for DurableStore<K, V, A>
where
    K: RangeKey + WalCodec,
    V: Value + WalCodec,
    A: Augmentation<K, V>,
{
    fn acquire_snapshot(&self) -> SnapshotToken {
        self.inner.acquire_snapshot()
    }

    fn snapshot_valid(&self, token: &SnapshotToken) -> bool {
        self.inner.snapshot_valid(token)
    }

    fn range_agg_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<Self::Agg> {
        self.inner.range_agg_at(token, range)
    }

    fn count_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<u64> {
        self.inner.count_at(token, range)
    }

    fn collect_range_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<Vec<(K, V)>> {
        self.inner.collect_range_at(token, range)
    }
}

/// Reports the durable layer's cells under `durable_*`, the journal's
/// sequence watermarks and degraded state as gauges, and forwards the
/// inner store's samples, so one registry source covers the whole durable
/// stack.
impl<K, V, A> wft_obs::MetricsSource for DurableStore<K, V, A>
where
    K: Key + WalCodec,
    V: Value + WalCodec,
    A: Augmentation<K, V>,
{
    fn collect_metrics(&self, out: &mut wft_obs::MetricsSnapshot) {
        let (shared, r) = (self.journal.shared(), &self.recovery);
        let i = &shared.instruments;
        out.push_counter("durable_wal_appends", i.wal_appends.value());
        out.push_counter("durable_wal_fsyncs", i.wal_fsyncs.value());
        out.push_counter("durable_wal_stalls", i.wal_stalls.value());
        out.push_counter("durable_wal_bytes", i.wal_bytes.value());
        out.push_counter("durable_wal_rotations", i.wal_rotations.value());
        out.push_counter("durable_checkpoints", i.checkpoints.value());
        out.push_counter("durable_segments_truncated", i.segments_truncated.value());
        out.push_counter("durable_io_retries", i.io_retries.value());
        out.push_counter("durable_degraded_entries", i.degraded_entries.value());
        out.push_counter("durable_resumes", i.resumes.value());
        out.push_counter("durable_auto_checkpoints", i.auto_checkpoints.value());
        out.push_counter("durable_recovery_replayed_records", r.replayed_records);
        out.push_counter("durable_recovery_replayed_ops", r.replayed_ops);
        out.push_gauge("durable_degraded", self.is_degraded() as i64);
        // ORDERING: Acquire pairs with the log thread's Release seq stores, so a
        // metrics reader sees the effects behind the reported seqs.
        let durable_seq = shared.durable_seq.load(Ordering::Acquire);
        // ORDERING: as above, for the applied watermark.
        let applied_seq = shared.applied_seq.load(Ordering::Acquire);
        out.push_gauge("durable_seq_durable", durable_seq as i64);
        out.push_gauge("durable_seq_applied", applied_seq as i64);
        out.push_gauge("durable_recovered_through", r.recovered_through as i64);
        out.push_histogram("durable_commit_latency_ns", i.commit_latency.snapshot());
        out.push_histogram("durable_group_size", i.group_size.snapshot());
        let checkpoint_duration = i.checkpoint_duration.snapshot();
        out.push_histogram("durable_checkpoint_duration_ns", checkpoint_duration);
        self.inner.collect_metrics(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::HaltReason;
    use crate::scratch::ScratchDir;
    use crate::storage::FaultyStorage;
    use std::io;
    use wft_obs::MetricsSource;

    fn reopen(dir: &Path) -> DurableStore<i64, i64> {
        DurableStore::open(dir).unwrap()
    }

    /// A config whose retry loop gives up fast, for fault tests.
    fn snappy_config() -> DurableConfig {
        DurableConfig {
            retry: RetryPolicy {
                attempts: 2,
                base_backoff: Duration::from_micros(50),
                max_backoff: Duration::from_micros(200),
            },
            ..DurableConfig::default()
        }
    }

    #[test]
    fn writes_survive_reopen() {
        let dir = ScratchDir::new("store-reopen");
        {
            let store = reopen(dir.path());
            assert!(PointMap::insert(&store, 1, 10).is_applied());
            assert!(PointMap::insert(&store, 2, 20).is_applied());
            assert_eq!(
                PointMap::replace(&store, 1, 11),
                UpdateOutcome::Applied { prior: Some(10) }
            );
            store.shutdown();
        }
        let store = reopen(dir.path());
        assert_eq!(store.recovery().replayed_records, 3);
        assert_eq!(store.recovery().recovered_through, 3);
        assert_eq!(PointMap::get(&store, &1), Some(11));
        assert_eq!(PointMap::get(&store, &2), Some(20));
        assert_eq!(PointMap::len(&store), 2);
    }

    #[test]
    fn simulated_crash_keeps_acknowledged_writes() {
        let dir = ScratchDir::new("store-crash");
        {
            let store = reopen(dir.path());
            for k in 0..50 {
                assert!(PointMap::insert(&store, k, k * 2).is_applied());
            }
            store.simulate_crash();
            assert!(store.is_halted());
            assert_eq!(
                store.apply_durable(vec![StoreOp::Insert { key: 99, value: 0 }]),
                Err(DurableError::Halted(HaltReason::Crash))
            );
            // Reads keep working on the frozen state.
            assert_eq!(PointMap::len(&store), 50);
        }
        let store = reopen(dir.path());
        assert_eq!(PointMap::len(&store), 50);
        for k in 0..50 {
            assert_eq!(PointMap::get(&store, &k), Some(k * 2));
        }
    }

    #[test]
    fn checkpoint_truncates_and_recovery_is_exact() {
        let dir = ScratchDir::new("store-ckpt");
        {
            let store = reopen(dir.path());
            store
                .apply_durable(
                    (0..100)
                        .map(|k| StoreOp::Insert { key: k, value: k })
                        .collect(),
                )
                .unwrap();
            let report = store.checkpoint().unwrap();
            assert_eq!(report.cut, 1);
            assert_eq!(report.entries, 100);
            assert_eq!(report.trigger, CheckpointTrigger::Explicit);
            // Post-checkpoint writes land in the fresh segment.
            store
                .apply_durable(vec![
                    StoreOp::RemoveEntry { key: 0 },
                    StoreOp::InsertOrReplace { key: 1, value: -1 },
                ])
                .unwrap();
            store.shutdown();
        }
        let store = reopen(dir.path());
        assert_eq!(store.recovery().checkpoint_cut, 1);
        assert_eq!(store.recovery().checkpoint_entries, 100);
        assert_eq!(store.recovery().replayed_records, 1);
        assert_eq!(PointMap::len(&store), 99);
        assert_eq!(PointMap::get(&store, &0), None);
        assert_eq!(PointMap::get(&store, &1), Some(-1));
        store.store().check_invariants();
    }

    #[test]
    fn logical_ops_resolve_physically_and_survive_reopen() {
        let dir = ScratchDir::new("store-logical");
        {
            let store = reopen(dir.path());
            // Patch is an atomic RMW on the journal's sequencer thread.
            assert_eq!(
                PointMap::patch(&store, 1, |c| Some(c.unwrap_or(0) + 1)),
                Some(1)
            );
            assert_eq!(
                PointMap::patch(&store, 1, |c| Some(c.unwrap_or(0) + 1)),
                Some(2)
            );
            // CAS with expect: None is insert-if-absent.
            assert!(PointMap::compare_and_set(&store, 2, None, 5));
            assert!(!PointMap::compare_and_set(&store, 2, Some(4), 9));
            // A mixed transactional batch: the Get reads through the
            // journal, the Patch clears, the CAS hits.
            let outcomes = store
                .apply_durable(vec![
                    StoreOp::Get { key: 1 },
                    StoreOp::Patch {
                        key: 1,
                        patch: |_| None,
                    },
                    StoreOp::CompareAndSet {
                        key: 2,
                        expect: Some(5),
                        value: 6,
                    },
                ])
                .unwrap();
            assert_eq!(
                outcomes,
                vec![
                    OpOutcome::Got(Some(2)),
                    OpOutcome::Patched(None),
                    OpOutcome::CompareSet(true),
                ]
            );
            // A pure-read batch resolves to zero physical ops but still
            // takes a WAL sequence number (an empty record).
            let appends = || store.metrics().counter("durable_wal_appends").unwrap();
            let appends_before = appends();
            assert_eq!(
                store.apply_durable(vec![StoreOp::Get { key: 7 }]).unwrap(),
                vec![OpOutcome::Got(None)]
            );
            assert_eq!(appends(), appends_before + 1);
            store.shutdown();
        }
        // The WAL holds only physical ops; replay reconstructs the exact
        // acknowledged state, and reopening twice is idempotent.
        for _ in 0..2 {
            let store = reopen(dir.path());
            assert_eq!(store.recovery().replayed_records, 6);
            assert_eq!(PointMap::get(&store, &1), None);
            assert_eq!(PointMap::get(&store, &2), Some(6));
            assert_eq!(PointMap::len(&store), 1);
            store.store().check_invariants();
            store.shutdown();
        }
    }

    #[test]
    fn batch_validation_is_typed_and_logs_nothing() {
        let dir = ScratchDir::new("store-validate");
        let store = reopen(dir.path());
        let err = BatchApply::apply_batch(
            &store,
            vec![
                StoreOp::Insert { key: 1, value: 1 },
                StoreOp::Remove { key: 1 },
            ],
        )
        .unwrap_err();
        assert_eq!(err, BatchError::DuplicateKey { key: 1 });
        let appends = || store.metrics().counter("durable_wal_appends");
        assert_eq!(appends(), Some(0), "rejected batch never logged");
        assert!(BatchApply::apply_batch(&store, Vec::new())
            .unwrap()
            .is_empty());
        assert_eq!(appends(), Some(0), "empty batch never logged");
    }

    #[test]
    fn stats_count_the_write_path() {
        let dir = ScratchDir::new("store-stats");
        let store = reopen(dir.path());
        for k in 0..10 {
            PointMap::insert(&store, k, k);
        }
        store.checkpoint().unwrap();
        let metrics = store.metrics();
        let counter = |name| metrics.counter(name).unwrap();
        let fsyncs = counter("durable_wal_fsyncs");
        assert_eq!(counter("durable_wal_appends"), 10);
        assert!(fsyncs >= 1);
        assert!(counter("durable_wal_bytes") > 0);
        assert_eq!(counter("durable_checkpoints"), 1);
        assert_eq!(metrics.gauge("durable_seq_durable"), Some(10));
        assert_eq!(metrics.gauge("durable_seq_applied"), Some(10));
        let histogram = |name| metrics.histogram(name).unwrap().count;
        assert_eq!(histogram("durable_commit_latency_ns"), 10);
        assert_eq!(histogram("durable_group_size"), fsyncs);
        assert_eq!(counter("durable_io_retries"), 0);
        assert_eq!(metrics.gauge("durable_degraded"), Some(0));
    }

    #[test]
    fn snapshot_and_scan_read_through() {
        let dir = ScratchDir::new("store-reads");
        let store: DurableStore<i64> = DurableStore::open(dir.path()).unwrap();
        store
            .apply_durable(
                (0..64)
                    .map(|k| StoreOp::Insert { key: k, value: () })
                    .collect(),
            )
            .unwrap();
        assert_eq!(RangeRead::count(&store, RangeSpec::from_bounds(10..20)), 10);
        let token = store.acquire_snapshot();
        assert_eq!(store.count_at(&token, RangeSpec::all()), Some(64));
        let mut cursor = store.scan(RangeSpec::all());
        let drained = cursor.drain(7);
        assert_eq!(drained.len(), 64);
        assert_eq!(cursor.consistency(), ScanConsistency::Snapshot);
    }

    #[test]
    fn transient_faults_are_retried_invisibly() {
        let dir = ScratchDir::new("store-transient");
        let faulty = FaultyStorage::over_fs();
        // Fail every 7th storage operation once; the retry loop should
        // absorb all of it.
        faulty.every(7, io::ErrorKind::Interrupted);
        let store: DurableStore<i64, i64> =
            DurableStore::open_with_storage(dir.path(), snappy_config(), Arc::new(faulty.clone()))
                .unwrap();
        for k in 0..200 {
            store
                .apply_durable(vec![StoreOp::Insert { key: k, value: k }])
                .unwrap();
        }
        assert!(!store.is_degraded());
        assert!(
            store.metrics().counter("durable_io_retries") > Some(0),
            "the drizzle was really felt"
        );
        assert_eq!(PointMap::len(&store), 200);

        // Stop the drizzle and reopen clean: everything acknowledged is
        // on disk.
        faulty.every(0, io::ErrorKind::Interrupted);
        store.shutdown();
        drop(store);
        let store = reopen(dir.path());
        assert_eq!(PointMap::len(&store), 200);
    }

    #[test]
    fn persistent_outage_degrades_then_resumes() {
        let dir = ScratchDir::new("store-degrade");
        let faulty = FaultyStorage::over_fs();
        let store: DurableStore<i64, i64> =
            DurableStore::open_with_storage(dir.path(), snappy_config(), Arc::new(faulty.clone()))
                .unwrap();
        for k in 0..20 {
            store
                .apply_durable(vec![StoreOp::Insert { key: k, value: k }])
                .unwrap();
        }

        faulty.outage_now(io::ErrorKind::Other);
        let err = store
            .apply_durable(vec![StoreOp::Insert { key: 99, value: 99 }])
            .unwrap_err();
        assert!(matches!(err, DurableError::Degraded(_)), "{err:?}");
        assert!(store.is_degraded());
        assert!(!store.is_halted());
        // Reads keep serving the acknowledged prefix.
        assert_eq!(PointMap::len(&store), 20);
        assert_eq!(PointMap::get(&store, &7), Some(7));
        assert_eq!(PointMap::get(&store, &99), None);
        // Writes keep failing fast, typed.
        assert!(matches!(
            store.apply_durable(vec![StoreOp::Insert { key: 98, value: 98 }]),
            Err(DurableError::Degraded(_))
        ));
        // Checkpoints refuse too.
        assert!(matches!(store.checkpoint(), Err(DurableError::Degraded(_))));
        let metrics = store.metrics();
        assert_eq!(metrics.gauge("durable_degraded"), Some(1));
        assert_eq!(metrics.counter("durable_degraded_entries"), Some(1));

        // A resume attempt while the disk is still dead fails and stays
        // degraded.
        assert!(matches!(store.try_resume(), Err(DurableError::Io(_))));
        assert!(store.is_degraded());

        // Heal, resume, and write again.
        faulty.heal();
        assert_eq!(store.try_resume(), Ok(true));
        assert!(!store.is_degraded());
        assert_eq!(store.try_resume(), Ok(false), "second resume is a no-op");
        store
            .apply_durable(vec![StoreOp::Insert { key: 99, value: 99 }])
            .unwrap();
        let metrics = store.metrics();
        assert_eq!(metrics.counter("durable_resumes"), Some(1));
        assert_eq!(metrics.gauge("durable_degraded"), Some(0));

        // Everything acknowledged (before and after the outage) survives
        // a clean-storage reopen.
        store.shutdown();
        drop(store);
        let store = reopen(dir.path());
        assert_eq!(PointMap::len(&store), 21);
        assert_eq!(PointMap::get(&store, &99), Some(99));
    }

    #[test]
    fn shard_count_is_taken_from_the_recovered_image() {
        let dir = ScratchDir::new("store-shards");
        let config = DurableConfig {
            shards: 4,
            ..DurableConfig::default()
        };
        let open = || -> DurableStore<i64, i64> {
            DurableStore::open_with_config(dir.path(), config.clone()).unwrap()
        };
        let store = open();
        assert_eq!(store.store().num_shards(), 1, "a fresh image has no keys");
        store
            .apply_durable(
                (0..100)
                    .map(|k| StoreOp::Insert { key: k, value: k })
                    .collect(),
            )
            .unwrap();
        store.checkpoint().unwrap();
        assert_eq!(store.store().num_shards(), 1, "writes never reshard");
        store.shutdown();
        drop(store);
        let store = open();
        assert_eq!(store.store().num_shards(), 4);
        assert_eq!(PointMap::len(&store), 100);
        store.store().check_invariants();
    }

    #[test]
    fn checkpoint_policy_triggers_on_live_bytes() {
        let dir = ScratchDir::new("store-policy");
        let config = DurableConfig {
            auto_checkpoint: Some(CheckpointPolicy {
                max_wal_bytes: Some(512),
                max_wal_segments: None,
            }),
            ..DurableConfig::default()
        };
        let store: DurableStore<i64, i64> =
            DurableStore::open_with_config(dir.path(), config).unwrap();
        assert!(
            store.maybe_checkpoint().unwrap().is_none(),
            "empty log is under threshold"
        );
        store
            .apply_durable(
                (0..100)
                    .map(|k| StoreOp::Insert { key: k, value: k })
                    .collect(),
            )
            .unwrap();
        let report = store
            .maybe_checkpoint()
            .unwrap()
            .expect("100 records cross 512 live bytes");
        assert_eq!(report.trigger, CheckpointTrigger::WalBytes);
        assert_eq!(report.entries, 100);
        assert_eq!(store.metrics().counter("durable_auto_checkpoints"), Some(1));
        assert!(
            store.maybe_checkpoint().unwrap().is_none(),
            "freshly truncated log is back under threshold"
        );
    }

    #[test]
    fn auto_checkpointer_thread_fires_and_stops() {
        let dir = ScratchDir::new("store-auto");
        let config = DurableConfig {
            auto_checkpoint: Some(CheckpointPolicy {
                max_wal_bytes: Some(256),
                max_wal_segments: None,
            }),
            fsync: false,
            ..DurableConfig::default()
        };
        let store: Arc<DurableStore<i64, i64>> =
            Arc::new(DurableStore::open_with_config(dir.path(), config).unwrap());
        let guard = DurableStore::spawn_auto_checkpointer(&store, Duration::from_millis(1));
        store
            .apply_durable(
                (0..200)
                    .map(|k| StoreOp::Insert { key: k, value: k })
                    .collect(),
            )
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let auto_checkpoints = || store.metrics().counter("durable_auto_checkpoints").unwrap();
        while auto_checkpoints() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(
            auto_checkpoints() >= 1,
            "the poller took the policy checkpoint"
        );
        drop(guard); // joins the thread
        store.shutdown();
    }

    /// Spins until `ready` holds, failing the test after ten seconds.
    fn await_condition(what: &str, ready: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    /// A sequential model of one batch: the outcomes a one-at-a-time
    /// execution reports, applied to `model`.
    fn model_batch(
        model: &mut std::collections::BTreeMap<i64, i64>,
        batch: &[StoreOp<i64, i64>],
    ) -> Vec<OpOutcome<i64>> {
        batch
            .iter()
            .map(|op| match op {
                StoreOp::Insert { key, value } => {
                    let absent = !model.contains_key(key);
                    if absent {
                        model.insert(*key, *value);
                    }
                    OpOutcome::Inserted(absent)
                }
                StoreOp::InsertOrReplace { key, value } => {
                    OpOutcome::Replaced(model.insert(*key, *value))
                }
                StoreOp::Remove { key } => OpOutcome::Removed(model.remove(key).is_some()),
                StoreOp::RemoveEntry { key } => OpOutcome::RemovedEntry(model.remove(key)),
                StoreOp::CompareAndSet { key, expect, value } => {
                    let hit = model.get(key) == expect.as_ref();
                    if hit {
                        model.insert(*key, *value);
                    }
                    OpOutcome::CompareSet(hit)
                }
                other => unreachable!("the model covers the ops this test sends, not {other:?}"),
            })
            .collect()
    }

    /// Commits `batches` so that all but the first form one commit group,
    /// in batch order: the apply gate is held while the first batch is
    /// flushed (its log thread then blocks on the gate) and while the rest
    /// queue up one at a time. Returns every batch's outcomes.
    fn commit_as_one_group(
        store: &DurableStore<i64, i64>,
        batches: Vec<Vec<StoreOp<i64, i64>>>,
    ) -> Vec<Vec<OpOutcome<i64>>> {
        let shared = store.journal.shared();
        let flushed_before = shared.durable_seq.load(Ordering::Acquire);
        let gate = shared.apply_gate.lock().unwrap();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (i, batch) in batches.into_iter().enumerate() {
                handles.push(scope.spawn(move || store.apply_durable(batch).unwrap()));
                if i == 0 {
                    await_condition("the first batch is flushed", || {
                        shared.durable_seq.load(Ordering::Acquire) == flushed_before + 1
                    });
                } else {
                    await_condition("the batch is queued", || shared.queued() == i);
                }
            }
            drop(gate);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn group_outcomes_come_from_the_apply() {
        use std::collections::BTreeMap;
        let dir = ScratchDir::new("store-group-outcomes");
        let config = DurableConfig {
            fsync: false,
            ..DurableConfig::default()
        };
        let mut model = BTreeMap::new();
        let seed = vec![
            StoreOp::Insert { key: 1, value: 10 },
            StoreOp::Insert { key: 2, value: 20 },
        ];
        let ior = |key, value| StoreOp::InsertOrReplace { key, value };
        // Classic batches only, sharing keys: this group is not resolved.
        let classic = vec![
            vec![ior(100, 0)],
            vec![StoreOp::Insert { key: 1, value: 11 }, ior(2, 21)],
            vec![ior(1, 12), StoreOp::RemoveEntry { key: 2 }],
            vec![
                StoreOp::Insert { key: 2, value: 22 },
                StoreOp::Remove { key: 1 },
            ],
            vec![
                StoreOp::Remove { key: 1 },
                StoreOp::RemoveEntry { key: 2 },
                StoreOp::Insert { key: 3, value: 30 },
            ],
            vec![ior(3, 31)],
        ];
        // One `CompareAndSet` among classic batches: this group is.
        let with_cas = vec![
            vec![ior(100, 1)],
            vec![ior(5, 50), StoreOp::Insert { key: 6, value: 60 }],
            vec![StoreOp::CompareAndSet {
                key: 5,
                expect: Some(50),
                value: 51,
            }],
            vec![
                StoreOp::RemoveEntry { key: 5 },
                StoreOp::Insert { key: 6, value: 61 },
                StoreOp::InsertOrReplace { key: 3, value: 32 },
            ],
            vec![StoreOp::Remove { key: 6 }],
        ];
        {
            let store: DurableStore<i64, i64> =
                DurableStore::open_with_config(dir.path(), config.clone()).unwrap();
            model_batch(&mut model, &seed);
            store.apply_durable(seed).unwrap();
            let stalls = || store.metrics().counter("durable_wal_stalls").unwrap();
            for batches in [classic, with_cas] {
                let expected: Vec<_> = batches.iter().map(|b| model_batch(&mut model, b)).collect();
                let stalls_before = stalls();
                let group = batches.len() as u64 - 1;
                assert_eq!(commit_as_one_group(&store, batches), expected);
                assert_eq!(
                    stalls() - stalls_before,
                    group - 1,
                    "all but the first batch formed one group of {group}"
                );
                assert_eq!(
                    store.store().entries_quiescent(),
                    model.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
                );
            }
            store.shutdown();
        }
        let store: DurableStore<i64, i64> =
            DurableStore::open_with_config(dir.path(), config).unwrap();
        assert_eq!(
            store.store().entries_quiescent(),
            model.into_iter().collect::<Vec<_>>(),
            "replay of the log reproduces the acknowledged state"
        );
    }

    #[test]
    fn a_submit_wakes_the_parked_log_thread() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::sync::atomic::AtomicU64;
        use std::sync::mpsc;

        const WRITERS: u64 = 2;
        const COMMITS: u64 = 400;
        let config = DurableConfig {
            fsync: false,
            ..DurableConfig::default()
        };
        let dir = ScratchDir::new("store-wakeups");
        let store: Arc<DurableStore<i64, i64>> =
            Arc::new(DurableStore::open_with_config(dir.path(), config.clone()).unwrap());
        // Plain threads, not scoped ones: a lost wake-up leaves a writer
        // blocked for good, and the watchdog below must fail, not join it.
        let committed = Arc::new(AtomicU64::new(0));
        for writer in 0..WRITERS {
            let (store, committed) = (Arc::clone(&store), Arc::clone(&committed));
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(writer);
                for i in 0..COMMITS {
                    // An idle gap of 0–50 µs lets the log thread park
                    // between commits.
                    let resume = Instant::now() + Duration::from_micros(rng.gen_range(0..=50));
                    while Instant::now() < resume {
                        std::hint::spin_loop();
                    }
                    let key = (writer * COMMITS + i) as i64;
                    store
                        .apply_durable(vec![StoreOp::InsertOrReplace { key, value: key }])
                        .unwrap();
                    committed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let mut last = (0, Instant::now());
        loop {
            let done = committed.load(Ordering::Relaxed);
            if done == WRITERS * COMMITS {
                break;
            }
            if done != last.0 {
                last = (done, Instant::now());
            }
            assert!(
                last.1.elapsed() < Duration::from_secs(5),
                "no commit finished for 5 s after {done} of {}: a submit did not wake the \
                 parked log thread",
                WRITERS * COMMITS
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(PointMap::len(&*store), WRITERS * COMMITS);

        // A halt or a drop reaches a parked log thread too.
        let shared = Arc::clone(store.journal.shared());
        await_condition("the log thread parks", || shared.log_parked());
        let (stopped, watchdog) = mpsc::channel();
        std::thread::spawn(move || {
            store.shutdown();
            stopped.send("shutdown").unwrap();
            let dir = ScratchDir::new("store-wakeups-drop");
            let store: DurableStore<i64, i64> =
                DurableStore::open_with_config(dir.path(), config).unwrap();
            let shared = Arc::clone(store.journal.shared());
            await_condition("the log thread parks", || shared.log_parked());
            drop(store);
            stopped.send("drop").unwrap();
        });
        for what in ["shutdown", "drop"] {
            assert_eq!(
                watchdog.recv_timeout(Duration::from_secs(5)),
                Ok(what),
                "{what} of a store whose log thread is parked did not finish in 5 s"
            );
        }
    }
}
