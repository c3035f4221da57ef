//! Snapshot reads: consistent multi-range queries against one acquired
//! front.
//!
//! [`RangeRead`] makes every individual range query linearizable, but two
//! *successive* queries still observe two different states — a caller that
//! needs `count(r)` and `collect_range(r)` to agree, or needs several
//! subrange counts to sum to a total, has no way to say "read all of these
//! at the same instant". [`SnapshotRead`] adds that capability:
//!
//! 1. [`acquire_snapshot`](SnapshotRead::acquire_snapshot) captures a
//!    [`SnapshotToken`] — an opaque **front**: a monotone watermark that
//!    advances whenever an update (anywhere in the structure) linearizes;
//! 2. any number of `*_at` reads run against the token; each returns
//!    `Some(result)` only if the structure provably did not change between
//!    the token's acquisition and the read's completion, and `None` once the
//!    front has advanced (the token is *stale* — acquire a fresh one);
//! 3. the provided drivers ([`snapshot_counts`](SnapshotRead::snapshot_counts),
//!    [`snapshot_collects`](SnapshotRead::snapshot_collects),
//!    [`snapshot_count_and_collect`](SnapshotRead::snapshot_count_and_collect))
//!    package the acquire/read/retry loop for the common shapes.
//!
//! Every result set produced against one token is mutually consistent: all
//! of it equals the abstract state at a single linearization instant inside
//! the token's validity window.
//!
//! # Implementations
//!
//! The trait is implemented where a front exists to read at:
//!
//! * the wait-free tree and trie (`wft-core`): the token is the tree's
//!   root-queue timestamp front, settled by helping any mid-linearization
//!   update to completion; a `*_at` read is the tree's ordinary
//!   linearizable read between an entry check (the front is settled *at*
//!   the token) and an exit check (it is still there);
//! * the sharded store (`wft-store`): the token is the sum of an
//!   epoch-stable per-shard cut, and a `*_at` read is one more cross-shard
//!   read at that cut — the store's plain cross-shard reads validate a cut
//!   already, so there is one validation layer, not two;
//! * the durable store (`wft-durable`), which delegates to its inner store.
//!
//! The baselines (persistent, lock-based, lock-free) are comparators for
//! point operations and range reads only and do not implement it.
//!
//! # Progress
//!
//! Snapshot reads are optimistic: a token only goes stale because a
//! concurrent update *linearized*, so a retry loop is lock-free (every
//! failed round implies system-wide progress) but not wait-free — under a
//! sustained write storm the provided drivers can retry indefinitely. The
//! per-call `*_at` methods never retry on a moved front; callers that need
//! bounded latency use them directly and decide for themselves when to stop
//! retrying. (The sharded store's `*_at` reads do wait while a shard is
//! busy below the cut: see `wft_store::front`, "Progress".)

use wft_seq::Value;

use crate::range::{RangeKey, RangeRead, RangeSpec};

/// An acquired snapshot front: an opaque monotone watermark captured by
/// [`SnapshotRead::acquire_snapshot`].
///
/// A token does not pin memory or block writers — it is a plain number. It
/// merely *identifies* a state: reads against it succeed only while the
/// structure still is in that state, and fail (return `None`) forever after
/// the front advanced past it.
///
/// ```
/// use wft_api::{SnapshotRead, SnapshotToken};
/// use wft_core::WaitFreeTree;
///
/// let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..8).map(|k| (k, ())));
/// let token: SnapshotToken = tree.acquire_snapshot();
/// assert!(tree.snapshot_valid(&token));
/// tree.insert(100, ());
/// // The update advanced the front: the token is stale now.
/// assert!(!tree.snapshot_valid(&token));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SnapshotToken {
    front: u64,
}

impl SnapshotToken {
    /// Wraps a raw front watermark (implementations of
    /// [`SnapshotRead::acquire_snapshot`] call this; applications receive
    /// tokens, they do not forge them).
    pub fn new(front: u64) -> Self {
        SnapshotToken { front }
    }

    /// The raw front watermark the token carries.
    pub fn front(&self) -> u64 {
        self.front
    }
}

/// Consistent multi-range reads against one acquired snapshot front.
///
/// See the [module docs](self) for the model. The `*_at` methods are the
/// primitives (one validated read each, no looping); the `snapshot_*`
/// drivers are provided retry loops for the common shapes.
///
/// ```
/// use wft_api::{RangeSpec, SnapshotRead};
/// use wft_store::ShardedStore;
///
/// // A store of four wait-free tree shards.
/// let store: ShardedStore<i64> = ShardedStore::from_entries((0..100).map(|k| (k, ())), 4);
///
/// // Three counts from ONE snapshot: the halves always sum to the total,
/// // which two independent `count` calls could not guarantee under writers.
/// let counts = store.snapshot_counts(&[
///     RangeSpec::all(),
///     RangeSpec::from_bounds(..50),
///     RangeSpec::at_least(50),
/// ]);
/// assert_eq!(counts[0], counts[1] + counts[2]);
///
/// // An aggregate and a listing that provably agree.
/// let (count, entries) = store.snapshot_count_and_collect(RangeSpec::from_bounds(10..90));
/// assert_eq!(count as usize, entries.len());
/// ```
pub trait SnapshotRead<K: RangeKey, V: Value>: RangeRead<K, V> {
    /// Acquires a snapshot token: a front with no update mid-linearization.
    fn acquire_snapshot(&self) -> SnapshotToken;

    /// `true` while no update has linearized past the token's front — i.e.
    /// while reads against the token can still succeed.
    fn snapshot_valid(&self, token: &SnapshotToken) -> bool;

    /// [`RangeRead::range_agg`] at the token's front, or `None` if the
    /// token is stale (acquire a fresh one and retry).
    fn range_agg_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<Self::Agg>;

    /// [`RangeRead::count`] at the token's front, or `None` on staleness.
    fn count_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<u64>;

    /// [`RangeRead::collect_range`] at the token's front, or `None` on
    /// staleness.
    fn collect_range_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<Vec<(K, V)>>;

    /// All of `ranges` counted against one snapshot. Retries with a fresh
    /// token until a whole pass validates; lock-free (each retry implies a
    /// concurrent update completed).
    fn snapshot_counts(&self, ranges: &[RangeSpec<K>]) -> Vec<u64> {
        loop {
            let token = self.acquire_snapshot();
            let mut counts = Vec::with_capacity(ranges.len());
            if ranges.iter().all(|r| match self.count_at(&token, *r) {
                Some(n) => {
                    counts.push(n);
                    true
                }
                None => false,
            }) {
                return counts;
            }
            std::hint::spin_loop();
        }
    }

    /// All of `ranges` listed against one snapshot (same retry discipline
    /// as [`snapshot_counts`](SnapshotRead::snapshot_counts)).
    fn snapshot_collects(&self, ranges: &[RangeSpec<K>]) -> Vec<Vec<(K, V)>> {
        loop {
            let token = self.acquire_snapshot();
            let mut collected = Vec::with_capacity(ranges.len());
            if ranges
                .iter()
                .all(|r| match self.collect_range_at(&token, *r) {
                    Some(entries) => {
                        collected.push(entries);
                        true
                    }
                    None => false,
                })
            {
                return collected;
            }
            std::hint::spin_loop();
        }
    }

    /// `count(range)` and `collect_range(range)` from one snapshot — the
    /// pair is guaranteed to agree (`count == entries.len()` whenever the
    /// augmentation counts keys).
    fn snapshot_count_and_collect(&self, range: RangeSpec<K>) -> (u64, Vec<(K, V)>) {
        loop {
            let token = self.acquire_snapshot();
            if let (Some(count), Some(entries)) = (
                self.count_at(&token, range),
                self.collect_range_at(&token, range),
            ) {
                return (count, entries);
            }
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_carries_its_front() {
        let token = SnapshotToken::new(42);
        assert_eq!(token.front(), 42);
        assert_eq!(token, SnapshotToken::new(42));
        assert_ne!(token, SnapshotToken::new(43));
    }
}
