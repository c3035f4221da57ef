//! Persistent (path-copying) augmented tree under a lock-free universal
//! construction — the baseline the paper evaluates against.
//!
//! The paper's experiments (§III) compare the wait-free tree with "the
//! concurrent persistent tree presented in \[5\]", the only prior structure
//! with asymptotically efficient aggregate range queries. That artifact is
//! not available, so this crate re-implements the approach from first
//! principles:
//!
//! * [`treap`] — a purely functional augmented treap: every update returns a
//!   new version sharing untouched subtrees, every node caches its subtree
//!   size and augmentation value, aggregate range queries take `O(log N)`;
//! * [`tree::PersistentRangeTree`] — the concurrent wrapper: reads run on an
//!   immutable snapshot, updates retry a CAS on the version pointer until
//!   they win (the lock-free universal construction described in the paper's
//!   related-work section).
//!
//! The public interface intentionally mirrors `wft_core::WaitFreeTree` so the
//! benchmark harness treats both uniformly.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod treap;
pub mod tree;

pub use tree::PersistentRangeTree;
