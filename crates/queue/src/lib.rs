//! Concurrent building blocks for the wait-free range tree.
//!
//! The paper's "hand-over-hand helping" scheme (§II) rests on a small number
//! of concurrent primitives. Each of them lives in its own module here, has
//! its own unit and property tests, and is reused by the concurrent tree in
//! `wft-core`:
//!
//! * [`TsQueue`] — the per-node descriptor queue (§II-D): a Michael–Scott
//!   queue whose nodes carry monotonically increasing timestamps and which
//!   supports the paper's exactly-once `push_if` / `pop_if` operations plus a
//!   non-destructive `peek`. [`TsQueue::enqueue_assign`] also allocates the
//!   next timestamp while enqueuing (the lock-free root queue of §II-D); no
//!   tree uses it.
//! * [`WaitFreeRootQueue`] — the root queue of every tree, which allocates
//!   timestamps wait-free (§II-F, Lemma 1): announce array + fetch-and-add
//!   versions + helping, on top of a [`TsQueue`]. A thread announces in the
//!   slot of its epoch participant index ([`RootSlot`]), so it never claims
//!   or waits for one.
//! * [`TraverseQueue`] — the multi-producer single-consumer queue of nodes
//!   still to be visited by an operation (`Op.Traverse`, §II-B): node
//!   pointers in CAS-published inline slots, a heap chain only beyond them.
//! * [`FirstWriteMap`] — the first-write-wins map collecting per-node partial
//!   results (`Op.Processed`, §II-B/§II-C).
//! * [`PresenceIndex`] — the per-key last-update index used to fix the
//!   success and value delta of an update at its linearization point (see
//!   DESIGN.md §3 for why the framework needs this). Because the index is
//!   the resolution authority, its snapshot reads double as the trees'
//!   `O(1)` linearizable point-read fast path (`wft_core::ReadPath::Fast`).
//!
//! All shared memory that can be unlinked while other threads may still read
//! it is managed with `crossbeam-epoch`; structures whose nodes are only
//! freed on `Drop` (traverse queue, first-write map, presence buckets) use
//! plain atomics and reclaim in `Drop`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fwmap;
pub mod mpsc;
pub mod presence;
pub mod root;
pub mod timestamp;
pub mod tsqueue;

pub use fwmap::FirstWriteMap;
pub use mpsc::TraverseQueue;
pub use presence::{Decision, PresenceIndex, PresenceSnapshot, UpdateKind};
pub use root::{RootSlot, WaitFreeRootQueue};
pub use timestamp::Timestamp;
pub use tsqueue::TsQueue;
