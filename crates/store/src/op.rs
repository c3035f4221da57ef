//! Store configuration, plus re-exports of the shared batch vocabulary.
//!
//! The [`StoreOp`] / [`OpOutcome`] / [`BatchError`] types originated here;
//! they are now defined in [`wft_api`] (so single trees accept the same
//! batches through [`wft_api::BatchApply`]) and re-exported for source
//! compatibility. What remains store-specific is [`StoreConfig`]: the
//! per-shard tree configuration and the batch size bound.

pub use wft_api::{BatchError, OpOutcome, StoreOp};

/// Construction parameters of a [`ShardedStore`](crate::ShardedStore).
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Per-shard tree configuration, forwarded to every `WaitFreeTree`.
    pub tree: wft_core::TreeConfig,
    /// Upper bound accepted by `apply_batch`; larger batches are rejected in
    /// phase one. Defaults to `usize::MAX` (unbounded).
    pub max_batch_ops: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            tree: wft_core::TreeConfig::default(),
            max_batch_ops: wft_api::UNBOUNDED_BATCH_OPS,
        }
    }
}
