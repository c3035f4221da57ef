//! Umbrella crate for the reproduction of *"Wait-free Trees with
//! Asymptotically-Efficient Range Queries"* (IPPS 2024).
//!
//! This crate simply re-exports the workspace members under stable names so
//! the examples and integration tests can use one import root:
//!
//! * [`api`] — the shared trait family and API vocabulary
//!   ([`UpdateOutcome`](wft_api::UpdateOutcome),
//!   [`RangeSpec`](wft_api::RangeSpec), the batch `StoreOp` types): every
//!   backend implements [`PointMap`](wft_api::PointMap) and
//!   [`RangeRead`](wft_api::RangeRead); the tree, the trie and the stores
//!   add [`BatchApply`](wft_api::BatchApply),
//!   [`SnapshotRead`](wft_api::SnapshotRead) and
//!   [`RangeScan`](wft_api::RangeScan);
//! * [`core`] — the wait-free concurrent augmented tree (the
//!   paper's contribution);
//! * [`queue`] — descriptor queues, timestamp allocation, the
//!   presence index and the other concurrent substrates;
//! * [`seq`] — the augmentation algebra, the sequential augmented
//!   tree and the `BTreeMap` oracle;
//! * [`persistent`] — the persistent path-copying baseline
//!   the paper compares against;
//! * [`lockbased`] — the coarse-grained lock baseline;
//! * [`lockfree`] — the lock-free external BST baseline
//!   representing the "linear-time range queries" class of prior work;
//! * [`lincheck`] — history recording and a linearizability
//!   checker used by the integration test suite;
//! * [`trie`] — a wait-free binary trie with aggregate range
//!   queries: the same helping scheme instantiated for bit-routing (the
//!   paper's §IV future-work item);
//! * [`store`] — the range-partitioned sharded store layering
//!   two-phase batched writes and cross-shard aggregate queries over
//!   independent wait-free tree shards;
//! * [`durable`] — write-ahead logging with group commit, online
//!   snapshot-cursor checkpoints and crash recovery layered under the
//!   sharded store; storage faults are retried with capped backoff and
//!   persistent failures degrade the store to read-only (resumable once
//!   the disk heals) instead of killing it;
//! * [`obs`] — the unified observability layer: lock-free
//!   counters/gauges, log-bucketed latency histograms, the metrics registry
//!   with JSON/Prometheus exporters and the bounded ring-buffer event
//!   tracer every backend feeds.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! `benchmark/README.md` for how every reported number is measured.

#![warn(missing_docs)]

pub use wft_api as api;
pub use wft_core as core;
pub use wft_durable as durable;
pub use wft_lincheck as lincheck;
pub use wft_lockbased as lockbased;
pub use wft_lockfree as lockfree;
pub use wft_obs as obs;
pub use wft_persistent as persistent;
pub use wft_queue as queue;
pub use wft_seq as seq;
pub use wft_store as store;
pub use wft_trie as trie;

/// Convenience re-export of the headline type.
pub use wft_core::WaitFreeTree;

/// Convenience re-export of the trie instantiation of the same scheme.
pub use wft_trie::WaitFreeTrie;

/// Convenience re-export of the sharded store layered over the tree.
pub use wft_store::{ShardedStore, StoreOp};

/// Convenience re-export of the crash-safe store layered over the WAL.
pub use wft_durable::DurableStore;

/// The one-line import for applications: the `wft-api` trait family, its
/// vocabulary types, the augmentation algebra and the concrete structures.
///
/// ```
/// use wait_free_range_trees::prelude::*;
///
/// let tree: WaitFreeTree<i64, i64> = WaitFreeTree::new();
/// assert_eq!(tree.insert_or_replace(1, 10), None);
/// assert_eq!(RangeRead::count(&tree, RangeSpec::all()), 1);
/// ```
pub mod prelude {
    // The trait family and its vocabulary.
    pub use wft_api::{
        BatchApply, BatchError, OpOutcome, PointMap, RangeKey, RangeRead, RangeScan, RangeSpec,
        ScanConsistency, ScanCursor, SnapshotRead, SnapshotToken, StoreOp, UpdateOutcome,
    };
    // The augmentation algebra.
    pub use wft_seq::{Augmentation, Key, KeyRange, Pair, Size, Sum, SumSquares, Value};
    // The concrete structures applications reach for first.
    pub use wft_core::{ReadPath, TreeConfig, WaitFreeTree};
    pub use wft_durable::{DurableConfig, DurableStore};
    pub use wft_store::{split_keys_from_sample, ShardedStore, StoreConfig};
    pub use wft_trie::WaitFreeTrie;
    // The observability surface every backend implements.
    pub use wft_obs::{LatencyHistogram, MetricsSnapshot, MetricsSource, Registry};
}
