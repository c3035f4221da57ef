//! # `wft-api` — the shared API surface of the workspace
//!
//! Every concurrent map in this workspace — the paper's
//! `WaitFreeTree`, the wait-free trie, the persistent / lock-based /
//! lock-free baselines and the sharded store — exposes the same abstract
//! vocabulary for point updates and aggregate range reads; the tree, the
//! trie and the stores add batches, snapshots and streaming scans. This
//! crate defines that vocabulary **once**, as a trait family, so that
//! harnesses, checkers, benches and applications are written against the
//! interface rather than against any one implementation:
//!
//! * [`PointMap`] — keyed updates (`insert` / `replace` / `remove`) returning
//!   a typed [`UpdateOutcome`] instead of a mix of `bool` and `Option`, plus
//!   point reads (`get` / `contains` / `len`);
//! * [`RangeRead`] — aggregate range queries (`range_agg` / `count`) and the
//!   listing query (`collect_range`) over a [`RangeSpec`] built from standard
//!   [`Bound`](std::ops::Bound)s, replacing per-implementation inclusive
//!   `(min, max)` pair conventions;
//! * [`BatchApply`] — the sharded store's two-phase batched-write vocabulary
//!   ([`StoreOp`] / [`OpOutcome`] / [`BatchError`]) promoted to the shared
//!   API, so a single tree accepts the same batches a sharded store does;
//! * [`SnapshotRead`] — consistent multi-range reads against one acquired
//!   [`SnapshotToken`], the sum of a per-shard watermark cut (a tree is one
//!   shard); both backends' token reads are `wft-core`'s one cut protocol;
//! * [`RangeScan`] — streaming snapshot-consistent cursors: a
//!   [`ScanCursor`] yields a range in ascending key order in caller-bounded
//!   chunks with keyset pagination and per-chunk front validation, so a
//!   full drain equals one `collect_range_at` of the cursor's token (or
//!   transparently re-reads the unseen suffix and reports
//!   [`ScanConsistency::Resumed`]). The one cursor, a merge over a
//!   per-shard cut, lives in `wft-core`; a tree is its one-shard cut, the
//!   store a cut of its shards.
//!
//! The baselines implement [`PointMap`] and [`RangeRead`] only: they are
//! the paper's comparators for point operations and range reads.
//!
//! The crate is deliberately *pure interface*: it depends only on the
//! augmentation algebra in `wft-seq` and contains no concurrency machinery.
//! Implementations live with their types (`wft-core`, `wft-trie`,
//! `wft-store`, the baselines); consumers import everything through the
//! umbrella crate's `prelude`.
//!
//! ## Range semantics, normatively
//!
//! A [`RangeSpec`] resolves to a closed key interval via
//! [`RangeSpec::to_closed`]. An empty or inverted specification (e.g.
//! `min > max`) resolves to `None`, and every implementation **must** answer
//! it with the identity aggregate, a zero count and an empty listing — this
//! crate's helpers make that the only easy behaviour to implement, and
//! `tests/range_semantics.rs` in the workspace root pins it across every
//! backend.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod outcome;
pub mod point;
pub mod range;
pub mod scan;
pub mod snapshot;

pub use batch::{
    apply_batch_point, apply_op, resolve_op, validate_batch, BatchApply, BatchError, OpOutcome,
    PatchFn, ResolvedOp, StoreOp, UNBOUNDED_BATCH_OPS,
};
pub use outcome::UpdateOutcome;
pub use point::PointMap;
pub use range::{agg_over, count_over, RangeKey, RangeRead, RangeSpec};
pub use scan::{RangeScan, ScanConsistency, ScanCursor};
pub use snapshot::{SnapshotRead, SnapshotToken};

// Re-export the augmentation vocabulary: a consumer of the trait family
// almost always needs the `Key`/`Value` bounds and an augmentation type.
pub use wft_seq::{Augmentation, Key, Pair, Size, Sum, Value};
