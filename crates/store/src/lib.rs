//! # `wft-store` — a sharded store layer over the wait-free tree
//!
//! The paper's [`WaitFreeTree`](wft_core::WaitFreeTree) gives wait-free
//! updates and `O(log N)` aggregate range queries on a *single* tree.
//! This crate scales that structure toward a serving system:
//!
//! * [`ShardedStore`] — a **range-partitioned** router over `S` independent
//!   tree shards. Partitioning by key range (not by hash) keeps aggregate
//!   range queries local to the shards their interval overlaps and makes
//!   cross-shard `collect_range` results globally sorted for free.
//! * [`StoreOp`] / [`ShardedStore::apply_batch`] — a **two-phase batch
//!   API** in the style of GroveDB's `apply_batch`: phase one validates the
//!   whole batch and groups it by destination shard without touching any
//!   tree, phase two applies the groups on the calling thread inside one
//!   commit window. A batch that fails validation is rejected before any
//!   mutation.
//! * [`split_keys_from_sample`] — balanced shard-boundary selection from a
//!   sampled key distribution (equi-depth quantiles), used by
//!   [`ShardedStore::from_entries`].
//! * the **global timestamp front** (see [`front`]): cross-shard
//!   `count` / `range_agg` / `collect_range` acquire one
//!   settled per-shard watermark cut and read every touched shard at it,
//!   making them linearizable, and [`wft_api::SnapshotRead`] exposes
//!   consistent multi-range snapshot reads at the cut a scalar token sums;
//!   both run `wft_core::cut`'s one protocol over the shards. `len` takes the same
//!   discipline with a bounded number of cut attempts, falling back to the
//!   stitched sum of per-shard lengths (counted in the
//!   `store_len_fallbacks` metric) under sustained write traffic.
//! * [`StoreScanCursor`] — the store's native [`wft_api::RangeScan`] (see
//!   [`scan`]): `wft_core`'s one merge cursor over the store's shards,
//!   draining a range in caller-bounded chunks, shard after shard in key
//!   order, each shard read optimistic-only at its watermark of one cut.
//!
//! ## Example
//!
//! ```
//! use wft_store::{ShardedStore, StoreOp};
//!
//! // 4 shards, boundaries picked from the loaded key distribution.
//! let store: ShardedStore<i64> =
//!     ShardedStore::from_entries((0..1000).map(|k| (k, ())), 4);
//! assert_eq!(store.num_shards(), 4);
//!
//! // Two-phase batch: validated, grouped by shard, then applied.
//! let outcomes = store
//!     .apply_batch(vec![
//!         StoreOp::Insert { key: 2000, value: () },
//!         StoreOp::Remove { key: 3 },
//!     ])
//!     .unwrap();
//! assert_eq!(outcomes.len(), 2);
//!
//! // Aggregate range queries split at shard boundaries and combine:
//! // 1000 loaded keys, minus the removed key 3, plus the new key 2000.
//! assert_eq!(store.count(0, 2000), 1000 - 1 + 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod api;
pub mod front;
mod op;
pub mod scan;
mod store;

pub use op::{BatchError, OpOutcome, StoreConfig, StoreOp};
pub use scan::StoreScanCursor;
pub use store::{split_keys_from_sample, ShardedStore};

// Re-export the shared trait family the store implements (the batch
// vocabulary above is likewise defined in `wft-api` and re-exported here).
pub use wft_api::{
    BatchApply, PointMap, RangeRead, RangeScan, RangeSpec, ScanConsistency, ScanCursor,
    SnapshotRead, SnapshotToken, UpdateOutcome,
};

// Re-export the augmentation vocabulary so store users need one import.
pub use wft_seq::{Augmentation, Key, Pair, Size, Sum, Value};
