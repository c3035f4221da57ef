//! Durability for the sharded wait-free store: write-ahead logging,
//! snapshot-cursor checkpoints, crash recovery, and a real I/O failure
//! policy (retry, degrade, resume).
//!
//! The paper's data structure is an in-memory one; this crate makes the
//! repo's sharded deployment of it ([`wft_store::ShardedStore`])
//! crash-safe without touching the concurrent core:
//!
//! - **Write-ahead log** (`wal`): every mutation is a [`wft_api::StoreOp`]
//!   batch framed as a length-prefixed, CRC-checked record in segmented
//!   append-only files. A dedicated log thread coalesces concurrent
//!   batches into **commit groups** — one `write`, one `fsync` — and
//!   applies them to the store in sequence order *after* they are durable,
//!   so the in-memory state is always a replay of the committed prefix
//!   (`journal`).
//! - **Online checkpoints** (`checkpoint`): [`DurableStore::checkpoint`]
//!   drains a snapshot-consistent [`wft_api::RangeScan`] cursor — writers
//!   never pause — stamps the image with the WAL cut it covers, and
//!   truncates the log behind it. A configurable background policy
//!   ([`CheckpointPolicy`]) triggers the same path automatically when the
//!   live WAL grows past byte or segment thresholds.
//! - **Recovery** (`store`): opening a directory loads the newest valid
//!   checkpoint, replays the WAL suffix tolerating torn tails (stop at
//!   the first bad CRC or short frame; never replay across a sequence
//!   gap), and resumes logging in a fresh segment.
//! - **Fault policy** (`storage`, `journal`): all file I/O goes through
//!   the [`Storage`] seam (real filesystem or the deterministic
//!   [`FaultyStorage`] injector). The log thread retries transient I/O
//!   errors with capped exponential backoff ([`RetryPolicy`]), rolling the
//!   segment tail back before each attempt so retried records reuse their
//!   sequence numbers. A persistent failure escalates into **degraded
//!   read-only mode**: acknowledged data keeps serving from memory, writes
//!   fail fast with [`DurableError::Degraded`], and
//!   [`DurableStore::try_resume`] re-probes storage and re-arms the journal
//!   once the disk recovers.
//!
//! The write path is fully instrumented through `wft-obs`: appends,
//! fsyncs, group sizes, commit latencies, checkpoint durations, retries,
//! degraded-mode transitions, and [`wft_obs::TraceKind::WalStall`] /
//! `CheckpointBegin` / `CheckpointEnd` / `IoRetry` / `DegradedEnter` /
//! `DegradedResume` trace events.
//!
//! ```
//! use wft_api::{PointMap, StoreOp};
//! use wft_durable::{DurableStore, ScratchDir};
//!
//! let dir = ScratchDir::new("doc-lib");
//! {
//!     let store: DurableStore<i64, i64> = DurableStore::open(dir.path()).unwrap();
//!     store
//!         .apply_durable((0..5).map(|k| StoreOp::Insert { key: k, value: k * k }).collect())
//!         .unwrap();
//!     store.checkpoint().unwrap();
//!     store.simulate_crash(); // poof
//! }
//! let store: DurableStore<i64, i64> = DurableStore::open(dir.path()).unwrap();
//! assert_eq!(store.get(&4), Some(16));
//! assert_eq!(store.len(), 5);
//! ```

#![warn(missing_docs)]

mod checkpoint;
pub mod codec;
mod journal;
mod scratch;
pub mod storage;
mod store;
mod wal;

pub use codec::WalCodec;
pub use journal::{HaltReason, RetryPolicy};
pub use scratch::ScratchDir;
pub use storage::{Fault, FaultKind, FaultOp, FaultyStorage, FsStorage, Storage, StorageFile};
pub use store::{
    CheckpointPolicy, CheckpointReport, CheckpointTrigger, DurableConfig, DurableStore,
    RecoveryReport,
};

/// Why a durable operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// The underlying storage failed (message carries the OS error) and
    /// the failure was not absorbed by the retry/degrade policy — e.g. a
    /// checkpoint's own I/O failed, or a resume probe found the disk still
    /// dead.
    Io(String),
    /// On-disk state is inconsistent beyond what torn-tail tolerance
    /// covers (e.g. a sequence gap between a checkpoint and the log).
    Corrupt(String),
    /// The batch failed validation ([`wft_api::BatchError`], stringified
    /// so this type stays key-agnostic; the [`wft_api::BatchApply`] impl
    /// reports the typed error instead).
    Batch(String),
    /// The journal has halted and accepts no further writes; the
    /// [`HaltReason`] says whether that was a graceful shutdown or a
    /// (simulated) crash.
    Halted(HaltReason),
    /// The journal is in degraded read-only mode after a persistent
    /// storage failure: reads keep serving from memory, writes fail fast
    /// with this error, and [`DurableStore::try_resume`] can restore write
    /// service once the fault clears. The message carries the escalating
    /// I/O error.
    Degraded(String),
}

impl DurableError {
    pub(crate) fn io(err: std::io::Error) -> Self {
        DurableError::Io(err.to_string())
    }
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(msg) => write!(f, "durable storage I/O failed: {msg}"),
            DurableError::Corrupt(msg) => write!(f, "durable state is corrupt: {msg}"),
            DurableError::Batch(msg) => write!(f, "batch rejected: {msg}"),
            DurableError::Halted(reason) => {
                write!(f, "the durable journal has halted ({reason})")
            }
            DurableError::Degraded(msg) => {
                write!(f, "the durable tier is degraded (read-only): {msg}")
            }
        }
    }
}

impl std::error::Error for DurableError {}
