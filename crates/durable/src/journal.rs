//! The group-commit journal: a dedicated log thread that coalesces
//! concurrent batches into single WAL writes, applies them in sequence
//! order, and absorbs I/O failures through retry, degradation, and
//! resume instead of crash-halting.
//!
//! # Protocol
//!
//! Writers [`submit`](Journal::submit) a validated batch and block on a
//! per-batch slot; the submit wakes the log thread only if it is parked
//! on an empty queue (a busy log thread looks at the queue again before
//! it parks). The log thread drains the whole queue as one **commit
//! group**. If the group carries a logical operation (`Patch` /
//! `CompareAndSet` / `Get`), it **resolves** every op into its physical
//! effect against the store plus a group-spanning overlay (see
//! [`resolve_group`] — physical logging); a group of physical ops only is
//! logged as submitted. It appends every record with one `write`, fsyncs
//! once, then applies each batch to the in-memory store *in sequence
//! order* and fills the slots with the typed outcomes: the ones
//! resolution computed, or, for an unresolved batch, the ones the apply
//! returns. Two invariants fall out:
//!
//! - **Durability before visibility.** A batch touches the store only
//!   after its record is on stable storage, so no read (point, range, or
//!   snapshot cursor) ever observes state that a crash could roll back,
//!   and the in-memory store always equals a replay of the WAL's committed
//!   prefix.
//! - **One fsync pays for the whole group.** Under contention, `g` writers
//!   share one `write` + `fsync`; the `g - 1` that did not trigger it are
//!   counted as `wal_stalls` and announced with a single
//!   [`TraceKind::WalStall`] event carrying the group size — the
//!   group-commit analogue of the helping the wait-free tree's root queue
//!   does for updates.
//!
//! Applying serially on the log thread is deliberate: it makes the WAL's
//! total order *the* commit order, which recovery can replay without any
//! cross-batch coordination. The store underneath is concurrent, but
//! durability funnels writes through one sequencer — readers stay as
//! parallel as ever.
//!
//! # Failure policy
//!
//! A flush failure no longer kills the store. Each commit-group flush is
//! a retry loop: roll the segment tail back to the durable watermark
//! (erasing any torn bytes so retried records reuse their sequence
//! numbers — see `crate::wal`), re-append, re-sync. Transient errors
//! (`EINTR`, `ENOSPC`, `EIO`, timeouts — anything
//! [`crate::storage::is_fail_fast`] does not reject) consume the
//! [`RetryPolicy`] budget with capped exponential backoff, each attempt
//! counted in `durable_io_retries` and announced as
//! [`TraceKind::IoRetry`]. Structural errors (path gone, permission
//! denied) and an exhausted budget escalate into **degraded read-only
//! mode**. The failed group and everything queued fail with
//! [`DurableError::Degraded`]; *nothing unacknowledged was applied*, so
//! the in-memory store still equals the WAL's durable prefix and reads
//! keep serving it. [`Journal::try_resume`] re-probes storage with a
//! genuine write (rollback + segment rotation) and re-arms the log thread
//! on success.
//!
//! # Halting
//!
//! [`HaltMode::Graceful`] drains the queue before the thread exits (used
//! by `shutdown` and drop) and surfaces as [`HaltReason::Shutdown`].
//! [`HaltMode::Crash`] abandons the queue — unacknowledged batches fail
//! with [`DurableError::Halted`] and their records may or may not be on
//! disk, exactly the ambiguity a real crash leaves
//! ([`HaltReason::Crash`]).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wft_api::{resolve_op, OpOutcome, StoreOp};
use wft_obs::{Counter, LatencyHistogram, TraceKind};
use wft_seq::{Augmentation, Key, Value};
use wft_store::ShardedStore;

use crate::codec::WalCodec;
use crate::storage::is_fail_fast;
use crate::wal::WalWriter;
use crate::DurableError;

/// Why the journal stopped accepting writes for good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// Graceful shutdown: every queued batch was flushed and applied
    /// before the log thread exited.
    Shutdown,
    /// A crash (real or [`crate::DurableStore::simulate_crash`]):
    /// queued, unacknowledged batches were abandoned mid-flight.
    Crash,
}

impl std::fmt::Display for HaltReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HaltReason::Shutdown => write!(f, "graceful shutdown"),
            HaltReason::Crash => write!(f, "crash"),
        }
    }
}

/// How the journal stops (the caller-facing verb; the surfaced noun is
/// [`HaltReason`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HaltMode {
    /// Flush and apply everything queued, then exit.
    Graceful,
    /// Exit now; fail queued batches with [`DurableError::Halted`].
    Crash,
}

/// Retry budget for transient I/O errors on the flush path.
///
/// Attempt `i` (0-based) sleeps `min(base_backoff << i, max_backoff)`
/// before retrying. With the defaults (6 retries, 1 ms base, 64 ms cap)
/// a group rides out ~127 ms of storage hiccup before escalating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (0 = escalate immediately).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 6,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(64),
        }
    }
}

impl RetryPolicy {
    /// The sleep before 0-based retry `attempt`.
    pub(crate) fn backoff_for(&self, attempt: u32) -> Duration {
        self.base_backoff
            .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX))
            .min(self.max_backoff)
    }
}

/// A submitted batch waiting for its commit group.
struct Pending<K: Key, V: Value> {
    ops: Vec<StoreOp<K, V>>,
    slot: Arc<Slot<V>>,
}

/// A batch after the log thread's resolution pass: the *physical* ops the
/// WAL records and the store applies, plus the outcomes (one per submitted
/// op, in submission order) the writer's slot is filled with once the
/// group is durable and applied.
struct Resolved<K: Key, V: Value> {
    physical: Vec<StoreOp<K, V>>,
    /// The outcomes resolution computed, or `None` when the batch was
    /// already physical and the store's apply answers for it.
    outcomes: Option<Vec<OpOutcome<V>>>,
    slot: Arc<Slot<V>>,
}

/// Resolves a commit group's logical operations (`Patch`,
/// `CompareAndSet`, `Get`) into their physical effects — **physical
/// logging**. The log thread is the store's sole mutator (application
/// happens only under `apply_gate`, checkpoints only read), so a
/// shadow-resolution against the live store, layered with a group-wide
/// overlay that carries each key's post-value from batch to batch, sees
/// exactly the state each op will execute against. `Get`s and missed
/// `CompareAndSet`s produce no physical op at all (an all-read batch still
/// appends an *empty* record, keeping WAL sequence numbers contiguous with
/// acknowledgements).
///
/// Only a group carrying a logical op is resolved. Classic ops resolve to
/// themselves byte for byte, and the store's apply computes their outcomes
/// again, in the same sequence order, against the same state: a group of
/// physical ops only is passed through as submitted, with no shadow read,
/// and its outcomes are the ones the apply returns.
fn resolve_group<K, V, A>(
    store: &ShardedStore<K, V, A>,
    group: Vec<Pending<K, V>>,
) -> Vec<Resolved<K, V>>
where
    K: Key,
    V: Value,
    A: Augmentation<K, V>,
{
    if group
        .iter()
        .all(|pending| pending.ops.iter().all(StoreOp::is_physical))
    {
        return group
            .into_iter()
            .map(|pending| Resolved {
                physical: pending.ops,
                outcomes: None,
                slot: pending.slot,
            })
            .collect();
    }
    let mut overlay: HashMap<K, Option<V>> = HashMap::new();
    group
        .into_iter()
        .map(|pending| {
            let mut physical = Vec::with_capacity(pending.ops.len());
            let mut outcomes = Vec::with_capacity(pending.ops.len());
            for op in &pending.ops {
                let key = *op.key();
                let current = match overlay.get(&key) {
                    Some(shadowed) => shadowed.clone(),
                    None => store.get(&key),
                };
                let resolved = resolve_op(op, current);
                overlay.insert(key, resolved.after);
                physical.extend(resolved.physical);
                outcomes.push(resolved.outcome);
            }
            Resolved {
                physical,
                outcomes: Some(outcomes),
                slot: pending.slot,
            }
        })
        .collect()
}

/// The rendezvous a writer blocks on until its batch is durable and
/// applied.
struct Slot<V: Value> {
    state: Mutex<Option<Result<Vec<OpOutcome<V>>, DurableError>>>,
    ready: Condvar,
}

impl<V: Value> Slot<V> {
    fn new() -> Self {
        Slot {
            state: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fill(&self, result: Result<Vec<OpOutcome<V>>, DurableError>) {
        *self.state.lock().unwrap() = Some(result);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Vec<OpOutcome<V>>, DurableError> {
        let mut state = self.state.lock().unwrap();
        loop {
            match state.take() {
                Some(result) => return result,
                None => state = self.ready.wait(state).unwrap(),
            }
        }
    }
}

/// The journal's lifecycle state, guarded by the queue lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JournalState {
    /// Accepting and flushing batches.
    Running,
    /// A persistent I/O failure stopped the log thread; the message is
    /// the escalating error. Writes fail fast; `try_resume` may recover.
    Degraded(String),
    /// Stopped for good.
    Halted(HaltReason),
}

struct Queue<K: Key, V: Value> {
    pending: VecDeque<Pending<K, V>>,
    state: JournalState,
    /// `true` while the log thread waits on `work` for an empty queue:
    /// set before the wait and cleared after it, both under this lock, so
    /// a submit that finds it `false` knows the log thread will look at
    /// the queue again before it parks, and need not wake it.
    log_parked: bool,
}

/// The durable layer's counters and histograms: `wft-obs` cells, the only
/// storage of these numbers, read by `DurableStore`'s `MetricsSource`
/// impl under `durable_*` names.
#[derive(Debug, Default)]
pub(crate) struct DurableInstruments {
    /// Batches appended to the WAL (one record each).
    pub(crate) wal_appends: Counter,
    /// `fsync` calls on WAL segments (one per commit group, if enabled).
    pub(crate) wal_fsyncs: Counter,
    /// Batches that rode another batch's flush: `g - 1` per group of `g`.
    pub(crate) wal_stalls: Counter,
    /// Frame bytes (headers + payloads) appended to the WAL.
    pub(crate) wal_bytes: Counter,
    /// Segment rotations (size-triggered and checkpoint-triggered).
    pub(crate) wal_rotations: Counter,
    /// Checkpoints taken successfully.
    pub(crate) checkpoints: Counter,
    /// WAL segments deleted by checkpoint truncation.
    pub(crate) segments_truncated: Counter,
    /// Flush attempts retried after a transient I/O error (backoff path).
    pub(crate) io_retries: Counter,
    /// Entries into degraded read-only mode after a persistent failure.
    pub(crate) degraded_entries: Counter,
    /// Successful `try_resume` calls (degraded → running transitions).
    pub(crate) resumes: Counter,
    /// Checkpoints triggered by the background policy.
    pub(crate) auto_checkpoints: Counter,
    /// Per-batch commit latency, submit to durable-and-applied (ns).
    pub(crate) commit_latency: LatencyHistogram,
    /// Commit group sizes (batches per flush), recorded as raw counts.
    pub(crate) group_size: LatencyHistogram,
    /// Wall-clock duration of each checkpoint, in nanoseconds.
    pub(crate) checkpoint_duration: LatencyHistogram,
}

/// State shared between writers, the log thread, and checkpointing.
pub(crate) struct Shared<K: Key, V: Value> {
    /// The segment writer. Checkpointing locks this for rotation and
    /// truncation, so segment surgery never interleaves with a group
    /// append.
    pub(crate) wal: Mutex<WalWriter>,
    /// Held by the log thread around each group's apply stage. The
    /// in-memory store is mutated *only* under this lock, so a checkpoint
    /// that cannot win an online snapshot drain (sustained write pressure
    /// on few cores) can take it and read a guaranteed-quiescent store:
    /// WAL appends and fsyncs keep running — only application (and hence
    /// acknowledgement) defers, and the backlog lands as one large commit
    /// group when the gate releases. Never held together with `wal` or
    /// the queue lock by either side, so no ordering cycle exists.
    pub(crate) apply_gate: Mutex<()>,
    queue: Mutex<Queue<K, V>>,
    work: Condvar,
    /// Highest sequence number fsynced to the WAL.
    pub(crate) durable_seq: AtomicU64,
    /// Highest sequence number applied to the in-memory store. Always
    /// `<= durable_seq`: apply happens strictly after the group's fsync.
    pub(crate) applied_seq: AtomicU64,
    /// Approximate live (not yet checkpoint-truncated) WAL bytes: grown
    /// by the log thread after each flush, reset by checkpointing. Feeds
    /// the background checkpoint policy; approximate because recovery
    /// seeds it from the replayed suffix and truncation resets it to the
    /// active segment's contribution only coarsely.
    pub(crate) live_wal_bytes: AtomicU64,
    /// Approximate live WAL segment count (same lifecycle as
    /// `live_wal_bytes`).
    pub(crate) live_wal_segments: AtomicU64,
    pub(crate) instruments: DurableInstruments,
    retry: RetryPolicy,
    fsync: bool,
}

#[cfg(test)]
impl<K: Key, V: Value> Shared<K, V> {
    /// Batches queued for the next commit group.
    pub(crate) fn queued(&self) -> usize {
        self.queue.lock().unwrap().pending.len()
    }

    /// Whether the log thread is parked on an empty queue.
    pub(crate) fn log_parked(&self) -> bool {
        self.queue.lock().unwrap().log_parked
    }
}

/// Handle owning the log thread.
pub(crate) struct Journal<K: Key, V: Value, A: Augmentation<K, V>> {
    shared: Arc<Shared<K, V>>,
    /// Kept so `try_resume` can respawn the log thread.
    store: Arc<ShardedStore<K, V, A>>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl<K, V, A> Journal<K, V, A>
where
    K: Key + WalCodec,
    V: Value + WalCodec,
    A: Augmentation<K, V>,
{
    /// Spawns the log thread over `wal`, applying committed batches to
    /// `store`. `recovered_through` seeds the durable/applied watermarks
    /// (the WAL prefix recovery already replayed); `live_wal` seeds the
    /// checkpoint policy's byte/segment counters with what recovery left
    /// on disk.
    pub(crate) fn start(
        store: Arc<ShardedStore<K, V, A>>,
        wal: WalWriter,
        recovered_through: u64,
        live_wal: (u64, u64),
        retry: RetryPolicy,
        fsync: bool,
    ) -> Self {
        let shared = Arc::new(Shared {
            wal: Mutex::new(wal),
            apply_gate: Mutex::new(()),
            queue: Mutex::new(Queue {
                pending: VecDeque::new(),
                state: JournalState::Running,
                log_parked: false,
            }),
            work: Condvar::new(),
            durable_seq: AtomicU64::new(recovered_through),
            applied_seq: AtomicU64::new(recovered_through),
            live_wal_bytes: AtomicU64::new(live_wal.0),
            live_wal_segments: AtomicU64::new(live_wal.1),
            instruments: DurableInstruments::default(),
            retry,
            fsync,
        });
        let handle = spawn_log_thread(&shared, &store);
        Journal {
            shared,
            store,
            thread: Mutex::new(Some(handle)),
        }
    }

    pub(crate) fn shared(&self) -> &Arc<Shared<K, V>> {
        &self.shared
    }

    /// Queues a batch for the next commit group and blocks until it is
    /// durable and applied (or the journal degraded / halted). The batch
    /// must already be validated — the log thread trusts it.
    pub(crate) fn submit(
        &self,
        ops: Vec<StoreOp<K, V>>,
    ) -> Result<Vec<OpOutcome<V>>, DurableError> {
        let started = Instant::now();
        let slot = Arc::new(Slot::new());
        {
            let mut queue = self.shared.queue.lock().unwrap();
            match &queue.state {
                JournalState::Running => {}
                JournalState::Degraded(msg) => return Err(DurableError::Degraded(msg.clone())),
                JournalState::Halted(reason) => return Err(DurableError::Halted(*reason)),
            }
            queue.pending.push_back(Pending {
                ops,
                slot: Arc::clone(&slot),
            });
            // A log thread that is not parked drains this batch with its
            // next group; only a parked one needs the wake-up, and only
            // the first submit after it parked sends one.
            if std::mem::take(&mut queue.log_parked) {
                self.shared.work.notify_one();
            }
        }
        let result = slot.wait();
        if result.is_ok() {
            self.shared
                .instruments
                .commit_latency
                .record(started.elapsed().as_nanos() as u64);
        }
        result
    }

    /// A snapshot of the journal's lifecycle state.
    pub(crate) fn state(&self) -> JournalState {
        self.shared.queue.lock().unwrap().state.clone()
    }

    /// `true` once the journal stopped accepting batches for good.
    pub(crate) fn is_halted(&self) -> bool {
        matches!(self.state(), JournalState::Halted(_))
    }

    /// `true` while the journal is in degraded read-only mode.
    pub(crate) fn is_degraded(&self) -> bool {
        matches!(self.state(), JournalState::Degraded(_))
    }

    /// Attempts to leave degraded mode: joins the dead log thread, probes
    /// storage with a *genuine* write (tail rollback + rotation into a
    /// fresh fsynced segment), and respawns the thread on success.
    ///
    /// Returns `Ok(true)` when the journal transitioned back to running,
    /// `Ok(false)` when it was already running, `Err(Halted)` when it is
    /// past saving, and `Err(Io)` when the probe found the storage still
    /// dead (the journal stays degraded; call again later).
    pub(crate) fn try_resume(&self) -> Result<bool, DurableError> {
        // The thread-handle lock serialises concurrent resume attempts.
        let mut thread = self.thread.lock().unwrap();
        {
            let queue = self.shared.queue.lock().unwrap();
            match &queue.state {
                JournalState::Running => return Ok(false),
                JournalState::Halted(reason) => return Err(DurableError::Halted(*reason)),
                JournalState::Degraded(_) => {}
            }
        }
        if let Some(handle) = thread.take() {
            let _ = handle.join();
        }

        // Probe with the same operations the flush path needs: erase any
        // torn tail, then rotate — which syncs the old segment, creates a
        // new one, and fsyncs the directory. If any of that still fails,
        // stay degraded.
        {
            let mut wal = self.shared.wal.lock().unwrap();
            wal.rollback_tail().map_err(DurableError::io)?;
            wal.rotate().map_err(DurableError::io)?;
        }
        let instruments = &self.shared.instruments;
        instruments.wal_rotations.inc();
        self.shared
            .live_wal_segments
            .fetch_add(1, Ordering::Relaxed);

        self.shared.queue.lock().unwrap().state = JournalState::Running;
        instruments.resumes.inc();
        let resumes = instruments.resumes.value();
        wft_obs::trace::emit(TraceKind::DegradedResume, (resumes & 0xFFFF) as u16);
        *thread = Some(spawn_log_thread(&self.shared, &self.store));
        Ok(true)
    }

    /// Stops the log thread and joins it. Idempotent; a `Crash` is never
    /// downgraded to `Graceful` by a later call. Halting a degraded
    /// journal finalises it (the thread is already gone).
    pub(crate) fn halt(&self, mode: HaltMode) {
        let reason = match mode {
            HaltMode::Graceful => HaltReason::Shutdown,
            HaltMode::Crash => HaltReason::Crash,
        };
        {
            let mut queue = self.shared.queue.lock().unwrap();
            match (&queue.state, mode) {
                (JournalState::Running, _) | (JournalState::Degraded(_), _) => {
                    if matches!(queue.state, JournalState::Degraded(_)) {
                        // The thread is dead; nothing will drain the queue
                        // (degraded mode already failed everything, but a
                        // submit racing the transition could be parked).
                        for pending in queue.pending.drain(..) {
                            pending.slot.fill(Err(DurableError::Halted(reason)));
                        }
                    }
                    queue.state = JournalState::Halted(reason);
                }
                (JournalState::Halted(HaltReason::Shutdown), HaltMode::Crash) => {
                    queue.state = JournalState::Halted(HaltReason::Crash);
                }
                (JournalState::Halted(_), _) => {}
            }
            self.shared.work.notify_one();
        }
        if let Some(handle) = self.thread.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

impl<K: Key, V: Value, A: Augmentation<K, V>> Drop for Journal<K, V, A> {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().unwrap();
            if matches!(queue.state, JournalState::Running) {
                queue.state = JournalState::Halted(HaltReason::Shutdown);
            }
            self.shared.work.notify_one();
        }
        if let Some(handle) = self.thread.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

fn spawn_log_thread<K, V, A>(
    shared: &Arc<Shared<K, V>>,
    store: &Arc<ShardedStore<K, V, A>>,
) -> JoinHandle<()>
where
    K: Key + WalCodec,
    V: Value + WalCodec,
    A: Augmentation<K, V>,
{
    let shared = Arc::clone(shared);
    let store = Arc::clone(store);
    std::thread::Builder::new()
        .name("wft-durable-log".into())
        // Startup-only: failing to spawn the log thread means the store cannot
        // exist at all — propagating a StoreError has no caller to degrade to.
        // wft-lint: allow(forbidden-api) -- not journal I/O; spawn failure at construction must fail fast.
        .spawn(move || run(shared, store))
        .expect("spawning the durable log thread")
}

/// The log thread body: wait for work, commit a group (with retries),
/// apply it, repeat — until halted or escalated.
fn run<K, V, A>(shared: Arc<Shared<K, V>>, store: Arc<ShardedStore<K, V, A>>)
where
    K: Key + WalCodec,
    V: Value + WalCodec,
    A: Augmentation<K, V>,
{
    loop {
        // Collect the next commit group (everything queued right now).
        let group: Vec<Pending<K, V>> = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                let empty = queue.pending.is_empty();
                match (&queue.state, empty) {
                    (JournalState::Halted(HaltReason::Shutdown), true) => return,
                    // Graceful halt with work queued: drain it below.
                    (JournalState::Halted(HaltReason::Shutdown), false) => break,
                    (JournalState::Halted(reason), _) => {
                        let reason = *reason;
                        for pending in queue.pending.drain(..) {
                            pending.slot.fill(Err(DurableError::Halted(reason)));
                        }
                        return;
                    }
                    // Degraded is set by this thread on its way out; a
                    // fresh thread never observes it.
                    (JournalState::Degraded(msg), _) => {
                        let err = DurableError::Degraded(msg.clone());
                        for pending in queue.pending.drain(..) {
                            pending.slot.fill(Err(err.clone()));
                        }
                        return;
                    }
                    (JournalState::Running, true) => {
                        queue.log_parked = true;
                        queue = shared.work.wait(queue).unwrap();
                        queue.log_parked = false;
                    }
                    (JournalState::Running, false) => break,
                }
            }
            queue.pending.drain(..).collect()
        };

        // Resolve logical ops to physical effects *before* any byte is
        // encoded: the WAL stores physical ops only (see `resolve_group`;
        // a group without logical ops passes through unresolved).
        let group = resolve_group(&store, group);

        let (first_seq, bytes) = match flush_group(&shared, &group) {
            Ok(out) => out,
            Err(err) => {
                escalate(&shared, group, &err);
                return;
            }
        };

        let group_size = group.len() as u64;
        let instruments = &shared.instruments;
        instruments.wal_appends.add(group_size);
        instruments.wal_bytes.add(bytes);
        shared.live_wal_bytes.fetch_add(bytes, Ordering::Relaxed);
        if shared.fsync {
            instruments.wal_fsyncs.inc();
        }
        instruments.group_size.record(group_size);
        if group_size > 1 {
            instruments.wal_stalls.add(group_size - 1);
            wft_obs::trace::emit(TraceKind::WalStall, (group_size & 0xFFFF) as u16);
        }
        // ORDERING: Release publishes the group's WAL durability (and the fsynced
        // bytes behind it) to the Acquire `durable_seq` reads in metrics.
        shared
            .durable_seq
            .store(first_seq + group_size - 1, Ordering::Release);

        // Durable; now apply in sequence order and release the writers.
        // The gate is what a starved checkpoint grabs to quiesce the
        // store — nothing else ever mutates it.
        let _applying = shared.apply_gate.lock().unwrap();
        for (i, resolved) in group.into_iter().enumerate() {
            // An unresolved batch is answered by its apply. A resolved one
            // already has every outcome, and the store only needs the
            // physical effects (none at all for a pure-read or all-missed
            // batch); the resolution is authoritative because nothing
            // mutated the store since — this thread is the sole mutator.
            let outcome = match resolved.outcomes {
                Some(outcomes) if resolved.physical.is_empty() => Ok(outcomes),
                resolved_outcomes => store
                    .apply_batch(resolved.physical)
                    .map(|applied| resolved_outcomes.unwrap_or(applied))
                    .map_err(|err| DurableError::Batch(err.to_string())),
            };
            // ORDERING: Release publishes the applied effects to the Acquire
            // `applied_seq` reads (checkpoint cut, metrics).
            shared
                .applied_seq
                .store(first_seq + i as u64, Ordering::Release);
            resolved.slot.fill(outcome);
        }
    }
}

/// Flushes one commit group durably, retrying transient I/O errors with
/// capped exponential backoff. Every attempt starts by rolling the
/// segment tail back to the durable watermark, so a torn previous attempt
/// never leaves readable frames whose sequence numbers the retry reuses.
fn flush_group<K, V>(shared: &Shared<K, V>, group: &[Resolved<K, V>]) -> std::io::Result<(u64, u64)>
where
    K: Key + WalCodec,
    V: Value + WalCodec,
{
    // Physical ops only — resolution already ran. An empty slice still
    // appends a record so sequence numbers stay contiguous.
    let slices: Vec<&[StoreOp<K, V>]> = group.iter().map(|r| r.physical.as_slice()).collect();
    let mut attempt: u32 = 0;
    loop {
        let result = {
            let mut wal = shared.wal.lock().unwrap();
            wal.rollback_tail()
                .and_then(|()| wal.append_group(&slices))
                .and_then(|out| {
                    if shared.fsync {
                        wal.sync()?;
                    } else {
                        wal.commit_volatile();
                    }
                    Ok(out)
                })
        };
        match result {
            Ok(out) => {
                // Rotation is best-effort: the group is already durable,
                // so a failure here just postpones the segment break to
                // the next group's flush.
                let mut wal = shared.wal.lock().unwrap();
                if wal.wants_rotation() {
                    match wal.rotate() {
                        Ok(()) => {
                            shared.instruments.wal_rotations.inc();
                            shared.live_wal_segments.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            shared.instruments.io_retries.inc();
                            wft_obs::trace::emit(TraceKind::IoRetry, 0);
                        }
                    }
                }
                return Ok(out);
            }
            Err(err) if !is_fail_fast(&err) && attempt < shared.retry.attempts => {
                shared.instruments.io_retries.inc();
                wft_obs::trace::emit(TraceKind::IoRetry, (attempt & 0xFFFF) as u16);
                std::thread::sleep(shared.retry.backoff_for(attempt));
                attempt += 1;
            }
            Err(err) => return Err(err),
        }
    }
}

/// The retry budget is spent (or the error was structural): fail the
/// in-flight group and everything queued with [`DurableError::Degraded`]
/// and enter degraded read-only mode. Runs on the log thread, which exits
/// right after.
fn escalate<K, V>(shared: &Shared<K, V>, group: Vec<Resolved<K, V>>, err: &std::io::Error)
where
    K: Key + WalCodec,
    V: Value + WalCodec,
{
    let msg = err.to_string();
    let group_err = DurableError::Degraded(msg.clone());
    // Publish the state *before* releasing any waiter: a writer that
    // wakes up with a Degraded error must already observe
    // `is_degraded()`.
    {
        let mut queue = shared.queue.lock().unwrap();
        for pending in queue.pending.drain(..) {
            pending.slot.fill(Err(group_err.clone()));
        }
        shared.instruments.degraded_entries.inc();
        wft_obs::trace::emit(TraceKind::DegradedEnter, 0);
        queue.state = JournalState::Degraded(msg);
    }
    // Nothing in this group (or behind it) was applied: the in-memory
    // store still equals the durable WAL prefix, which is what makes
    // degraded *reads* trustworthy.
    for resolved in group {
        resolved.slot.fill(Err(group_err.clone()));
    }
}
