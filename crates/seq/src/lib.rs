//! Sequential augmented external binary search trees and the augmentation
//! framework shared by every tree in this workspace.
//!
//! This crate contains the *sequential* half of the paper "Wait-free Trees
//! with Asymptotically-Efficient Range Queries" (IPPS 2024):
//!
//! * the [`Augmentation`] trait — the algebra of per-subtree metadata
//!   ("augmentation values" in the paper's terminology, Appendix A) together
//!   with the standard instances ([`Size`], [`Sum`], [`Pair`], ...);
//! * [`SeqRangeTree`] — an external (leaf-oriented) binary search tree with
//!   subtree-rebuilding balancing and `O(height)` aggregate range queries,
//!   implementing the appendix algorithms `count_both_borders`,
//!   `count_left_border` and `count_right_border` literally;
//! * [`ReferenceMap`] — a trivially correct ordered-map oracle backed by
//!   `std::collections::BTreeMap`, used by the test suites of every other
//!   crate to validate concurrent executions.
//!
//! The concurrent tree in `wft-core`, the persistent baseline in
//! `wft-persistent` and the lock-based baseline in `wft-lockbased` all build
//! on the same [`Augmentation`] algebra so that experiments compare
//! like-for-like semantics.
//!
//! # Quick example
//!
//! ```
//! use wft_seq::{SeqRangeTree, Size};
//!
//! let mut tree: SeqRangeTree<i64, (), Size> = SeqRangeTree::new();
//! for key in [1, 5, 9, 12, 42] {
//!     assert!(tree.insert(key, ()));
//! }
//! assert_eq!(tree.count(4, 12), 3); // {5, 9, 12}
//! assert!(tree.contains(&42));
//! assert!(tree.remove(&42));
//! assert_eq!(tree.count(i64::MIN, i64::MAX), 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod augment;
pub mod key;
pub mod node;
pub mod oracle;
pub mod tree;

pub use augment::{Augmentation, KeyRange, Pair, Size, Sum, SumSquares};
pub use key::{Key, Value};
pub use node::SeqNode;
pub use oracle::ReferenceMap;
pub use tree::{RebuildStats, SeqRangeTree, DEFAULT_REBUILD_FACTOR};
