//! The two shapes of the tree: what an overflowing leaf run is replaced by,
//! and whether subtrees are ever rebuilt.
//!
//! Routing, helping, the read paths and the structural CAS are the same for
//! every external search tree whose inner nodes send keys `< rsm` left and
//! the rest right. A binary-trie node that branches on bit `b` under prefix
//! `p` is exactly such a node, with `rsm = p | 1 << b`. What differs between
//! a balanced BST and a trie is therefore only *where a split puts `rsm`*:
//!
//! * [`Balanced`] cuts an overflowing run at its median and keeps depth
//!   logarithmic by rebuilding subtrees (§II-E).
//! * [`Radix`] cuts at the most-aligned index boundary of the interval the
//!   *slot* covers, chaining single-child nodes while every entry falls on
//!   one side. The cut depends on the slot and not on the keys in it, so
//!   depth is bounded by the key width whatever the insertion order, and
//!   nothing is ever rebuilt.
//!
//! The trait is sealed: these two are the shapes, not an extension point.

use wft_seq::Key;

use crate::key::RadixKey;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Balanced {}
    impl Sealed for super::Radix {}
}

/// Where a tree puts its routing keys; see the module docs.
pub trait Shape<K: Key>: sealed::Sealed + 'static {
    /// What the shape records about the key interval a child slot covers.
    type Coverage: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static;

    /// Coverage of the real-root slot.
    const WHOLE: Self::Coverage;

    /// Whether subtrees are rebuilt once `Mod_Cnt > K · Init_Sz` (§II-E).
    const REBUILDS: bool;

    /// Leaf depth allowed beyond the height of the bulk-built skeleton
    /// (checked by `check_invariants`); `None` where only the amortised
    /// bound of the rebuild theorem applies.
    const DEPTH_SLACK: Option<u32>;

    /// Name prefix of the tree's `wft-obs` metrics.
    const METRIC_PREFIX: &'static str;

    /// Coverage of the left and right child slots of a node covering
    /// `coverage` that routes at `rsm`.
    fn halves(coverage: Self::Coverage, rsm: &K) -> (Self::Coverage, Self::Coverage);

    /// The routing key that splits `run` (sorted, two or more keys, all
    /// inside `coverage`). Entries below it go left, and one side may come
    /// out empty.
    fn cut<V>(coverage: Self::Coverage, run: &[(K, V)]) -> K;
}

/// The paper's balanced external BST: median splits, amortised rebuilds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Balanced;

impl<K: Key> Shape<K> for Balanced {
    type Coverage = ();
    const WHOLE: () = ();
    const REBUILDS: bool = true;
    const DEPTH_SLACK: Option<u32> = None;
    const METRIC_PREFIX: &'static str = "tree";

    fn halves(_: (), _: &K) -> ((), ()) {
        ((), ())
    }

    fn cut<V>(_: (), run: &[(K, V)]) -> K {
        run[run.len() / 2].0
    }
}

/// A binary trie over the bits of [`RadixKey::to_index`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Radix;

impl<K: RadixKey> Shape<K> for Radix {
    /// The inclusive index interval `[lo, hi]`.
    type Coverage = (u64, u64);
    const WHOLE: (u64, u64) = (0, u64::MAX);
    const REBUILDS: bool = false;
    /// An arbitrary interval below the skeleton is cut once, then at most
    /// 64 times with one end aligned, then at most 63 times as an aligned
    /// block that halves.
    const DEPTH_SLACK: Option<u32> = Some(2 * u64::BITS);
    const METRIC_PREFIX: &'static str = "trie";

    fn halves((lo, hi): (u64, u64), rsm: &K) -> ((u64, u64), (u64, u64)) {
        let at = rsm.to_index();
        debug_assert!(lo < at && at <= hi, "routing key outside its coverage");
        ((lo, at - 1), (at, hi))
    }

    fn cut<V>((lo, hi): (u64, u64), _: &[(K, V)]) -> K {
        debug_assert!(lo < hi, "a slot holding two keys covers two indices");
        // `lo` and `hi` agree above their highest differing bit, where `lo`
        // has 0 and `hi` has 1. Clearing the bits of `hi` below it gives the
        // one index in `(lo, hi]` with the most trailing zeros; an interval
        // holding two keys holds the image of a key at least that aligned.
        let bit = u64::BITS - 1 - (lo ^ hi).leading_zeros();
        K::from_index(hi >> bit << bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_cuts_at_the_most_aligned_index_of_the_slot() {
        let run: [(u64, ()); 0] = [];
        let cut = |lo, hi| <Radix as Shape<u64>>::cut((lo, hi), &run);
        assert_eq!(cut(0, u64::MAX), 1 << 63);
        assert_eq!(cut(0, 31), 16);
        assert_eq!(cut(1000, 1030), 1024);
        assert_eq!(cut(1024, 1030), 1028);
        assert_eq!(cut(6, 7), 7);
        // Narrow keys: the boundary comes back as a key.
        assert_eq!(
            <Radix as Shape<u8>>::cut((3u8.to_index(), 9u8.to_index()), &[(0u8, ()); 0]),
            8
        );
        assert_eq!(
            <Radix as Shape<i8>>::cut(<Radix as Shape<i8>>::WHOLE, &[(0i8, ()); 0]),
            0
        );
    }

    #[test]
    fn balanced_cuts_at_the_median() {
        let run: Vec<(i64, ())> = (0..33).map(|k| (k * 10, ())).collect();
        assert_eq!(<Balanced as Shape<i64>>::cut((), &run), 160);
    }
}
