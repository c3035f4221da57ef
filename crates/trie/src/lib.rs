//! # Wait-free binary trie with aggregate range queries
//!
//! The paper's conclusion names tries as the natural next target for
//! hand-over-hand helping (*"Wait-free Trees with Asymptotically-Efficient
//! Range Queries"*, Kokorin, Alistarh, Aksenov — IPPS 2024). The claim is
//! that the mechanism is generic, and this crate is the evidence: it holds
//! no engine of its own. [`WaitFreeTrie`] is [`wft_core::WaitFreeTree`] with
//! its shape parameter set to [`Radix`], so descriptors, per-node queues,
//! helping, exactly-once state updates, immutable leaf runs, the read fast
//! paths and the timestamp front are one implementation serving both.
//!
//! A binary-trie node that branches on bit `b` under prefix `p` *is* a BST
//! node whose `Right_Subtree_Min` is the index boundary `p | 1 << b`, so
//! routing needs no trie variant. What a shape decides is where an
//! overflowing leaf run is cut, and whether subtrees are rebuilt:
//!
//! | aspect | `Balanced` (`WaitFreeTree`) | `Radix` ([`WaitFreeTrie`]) |
//! |--------|-----------------------------|----------------------------|
//! | routing | stored `Right_Subtree_Min` keys | the same, placed on bit boundaries of an order-preserving 64-bit key index |
//! | overflow split | at the run's median | at the most-aligned index boundary of the slot's interval, chaining single-child nodes while the run stays on one side |
//! | balance | subtree rebuilding (§II-E), amortized bounds | none needed — depth ≤ bulk skeleton + 2 · index width, worst-case bounds |
//! | leaves | immutable sorted runs of up to 32 entries | the same |
//! | range queries | three border modes recorded per node | the same |
//! | key types | any `Ord + Copy + Hash` | fixed-width integers ([`TrieKey`]) |
//! | metrics | `tree_*` | `trie_*` |
//!
//! The interface is the tree's: `insert`, `remove`, `contains`, `get`,
//! `count`, `range_agg`, `collect_range`, all linearizable, with aggregate
//! range queries in time proportional to the depth rather than to the number
//! of keys in the range. A non-default read path is chosen through
//! [`TreeConfig`], as for the tree.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use wft_trie::WaitFreeTrie;
//!
//! let trie: Arc<WaitFreeTrie<u64>> = Arc::new(WaitFreeTrie::new());
//! let writers: Vec<_> = (0..4u64)
//!     .map(|t| {
//!         let trie = Arc::clone(&trie);
//!         std::thread::spawn(move || {
//!             for k in 0..100u64 {
//!                 trie.insert(t * 100 + k, ());
//!             }
//!         })
//!     })
//!     .collect();
//! for w in writers {
//!     w.join().unwrap();
//! }
//! assert_eq!(trie.len(), 400);
//! assert_eq!(trie.count(0, 399), 400);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod tree;

pub use tree::WaitFreeTrie;

// The engine's vocabulary, so a trie user needs one import: the shape, the
// key trait it routes on (under the name this crate has always used), the
// configuration and what the reads speak.
pub use wft_core::{
    FrontMiss, OpKind, Radix, RadixKey as TrieKey, ReadPath, Timestamp, TreeConfig,
};

// Re-export the augmentation vocabulary for convenience.
pub use wft_core::{Augmentation, Pair, Size, Sum, Value};
