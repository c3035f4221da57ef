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
//! # The single-front blanket impl
//!
//! A structure that can expose its front as the two (three) watermark
//! primitives of [`TimestampFront`] gets the whole of [`SnapshotRead`] for
//! free through a blanket impl: acquisition is
//! [`settle_front`](TimestampFront::settle_front), validation compares
//! [`front_advertised`](TimestampFront::front_advertised) with the token,
//! and a `*_at` read is an ordinary [`RangeRead`] query sandwiched between
//! two validations. This is how every single tree in the workspace — the
//! wait-free tree and trie (root-queue timestamp fronts), the persistent
//! baseline (version sequence), the lock-based baseline (write version) and
//! even the lock-free linear baseline (an update gauge) — implements the
//! trait.
//!
//! The blanket is **opt-in** through the empty [`FrontSnapshot`] marker
//! rather than unconditional: a structure whose ordinary [`RangeRead`]
//! queries already carry their *own* validation machinery would pay for two
//! nested validation loops under the unconditional blanket. The sharded
//! store is exactly that structure — its cross-shard reads acquire and
//! validate a per-shard front cut internally — so it skips the marker and
//! implements [`SnapshotRead`] natively: its token is the sum of a
//! per-shard cut, and a `*_at` read is one more read at that cut, one
//! validation layer instead of two. Single trees, whose plain reads are
//! validation-free, take the marker and the blanket.
//!
//! # Progress
//!
//! Snapshot reads are optimistic: a token only goes stale because a
//! concurrent update *linearized*, so a retry loop is lock-free (every
//! failed round implies system-wide progress) but not wait-free — under a
//! sustained write storm the provided drivers can retry indefinitely. The
//! per-call `*_at` methods never loop; callers that need bounded latency
//! use them directly and decide for themselves when to stop retrying.

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

/// The low-level watermark primitives of a structure with a single monotone
/// **front**: a counter that advances whenever an update linearizes, and
/// *before* the update's effect can be observed by any read.
///
/// Implementing this trait is the whole cost of joining [`SnapshotRead`]:
/// a blanket impl derives the full snapshot API from these primitives plus
/// the structure's ordinary [`RangeRead`] queries.
///
/// # Contract
///
/// * **Monotonicity** — both watermarks only ever increase.
/// * **Advertise-before-effect** — [`front_advertised`] reaches an update's
///   watermark *before* any read can observe that update's effect. This is
///   what makes the validation sandwich sound: if `front_advertised()` is
///   unchanged across a window, no update became visible inside it.
/// * **Settled means quiescent** — the value returned by [`settle_front`]
///   was observed at an instant with no update mid-linearization:
///   everything advertised was already resolved
///   ([`front_resolved`]` == `[`front_advertised`]).
///
/// [`front_advertised`]: TimestampFront::front_advertised
/// [`settle_front`]: TimestampFront::settle_front
/// [`front_resolved`]: TimestampFront::front_resolved
pub trait TimestampFront {
    /// Returns a front watermark observed at an instant with no update in
    /// flight, helping/waiting past any in-flight update if necessary.
    ///
    /// Lock-free at best (the wait-free tree *helps* the pending update to
    /// completion); the lock-free linear baseline merely spins until the
    /// writer finishes.
    fn settle_front(&self) -> u64;

    /// The highest watermark any update has *announced* — advanced before
    /// the update's effect is visible to any read.
    fn front_advertised(&self) -> u64;

    /// The highest watermark whose update effects are fully linearized.
    /// Defaults to [`front_advertised`](TimestampFront::front_advertised),
    /// which is correct for structures whose updates commit at one atomic
    /// instant (a version CAS, a mutex release); structures with a window
    /// between announcement and visibility override it.
    fn front_resolved(&self) -> u64 {
        self.front_advertised()
    }
}

/// Opt-in marker for the single-front blanket [`SnapshotRead`] impl.
///
/// Implemented (as an empty one-liner) by every structure whose ordinary
/// [`RangeRead`] queries are validation-free linearizable reads, so
/// sandwiching them between two [`TimestampFront`] observations is exactly
/// one layer of validation. A structure whose plain reads already validate
/// internally (the sharded store's cut-acquiring cross-shard queries) must
/// *not* implement this — it provides its own [`SnapshotRead`] that reads
/// at its token's cut instead of stacking the blanket's sandwich on top of
/// the internal loop. See the [module docs](self).
pub trait FrontSnapshot {}

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

/// The single-front blanket impl: any linearizable range-readable structure
/// exposing [`TimestampFront`] watermarks — and opting in through the
/// [`FrontSnapshot`] marker — is a [`SnapshotRead`].
///
/// Soundness of the sandwich: `acquire` returns a front `f` observed at an
/// instant with nothing in flight (settled); a later validation seeing
/// `front_advertised() == f` proves (by monotonicity and
/// advertise-before-effect) that no update became visible in between, so the
/// state was constant across the whole window — every linearizable read
/// inside the window observed exactly the state at `f`.
impl<K, V, T> SnapshotRead<K, V> for T
where
    K: RangeKey,
    V: Value,
    T: RangeRead<K, V> + TimestampFront + FrontSnapshot,
{
    fn acquire_snapshot(&self) -> SnapshotToken {
        SnapshotToken::new(self.settle_front())
    }

    fn snapshot_valid(&self, token: &SnapshotToken) -> bool {
        self.front_advertised() == token.front()
    }

    fn range_agg_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<Self::Agg> {
        // Entry check: the front must be settled *at* the token (an update
        // may be mid-linearization if the token was forged from a raw
        // watermark; both checks are trivially true for a fresh token).
        if self.front_resolved() != token.front() || !self.snapshot_valid(token) {
            return None;
        }
        let agg = self.range_agg(range);
        self.snapshot_valid(token).then_some(agg)
    }

    fn count_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<u64> {
        if self.front_resolved() != token.front() || !self.snapshot_valid(token) {
            return None;
        }
        let count = self.count(range);
        self.snapshot_valid(token).then_some(count)
    }

    fn collect_range_at(&self, token: &SnapshotToken, range: RangeSpec<K>) -> Option<Vec<(K, V)>> {
        if self.front_resolved() != token.front() || !self.snapshot_valid(token) {
            return None;
        }
        let entries = self.collect_range(range);
        self.snapshot_valid(token).then_some(entries)
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
