//! The augmentation algebra: per-subtree metadata that makes aggregate range
//! queries run in `O(height)` instead of `O(range size)`.
//!
//! The paper (Appendix A, Definition 5) calls the extra information stored in
//! tree nodes "augmentation values". The canonical example is the subtree
//! *size*, which turns `count(min, max)` into a logarithmic-time query. Other
//! useful instances are the *sum of values* in a subtree (for `range_sum`) or
//! several of them combined.
//!
//! The concurrent algorithm maintains augmentation values **eagerly, top
//! down**: when an update descriptor is executed in a node it immediately
//! adjusts the augmentation value of the child subtree it descends into
//! (paper §II-C, Listing 3). Aggregate queries linearized after that update
//! then read the adjusted value without waiting for the structural change to
//! reach the leaves. Eager maintenance requires the aggregate to be
//! *invertible*: we must be able to apply the effect of a single
//! insertion/removal to an existing aggregate without re-scanning the
//! subtree. [`Augmentation`] therefore models a commutative group generated
//! by per-entry contributions.

use std::fmt::Debug;
use std::marker::PhantomData;

use crate::key::{Key, Value};

/// A commutative-group augmentation over `(K, V)` entries.
///
/// Implementations describe how a single entry contributes to the aggregate
/// of the subtree containing it and how aggregates of disjoint subtrees
/// combine. The laws below are exercised by property tests in this crate and
/// assumed by every tree implementation:
///
/// * `combine` is associative and commutative with identity `identity()`;
/// * `insert_delta(a, k, v) == combine(a, of_entry(k, v))`;
/// * `remove_delta(insert_delta(a, k, v), k, v) == a` (inverse law).
///
/// The type is a *strategy* type: it is never instantiated, so it carries no
/// data and can be a unit struct or an empty enum.
pub trait Augmentation<K: Key, V: Value>: Send + Sync + 'static {
    /// The aggregate value stored in each inner node ("augmentation value").
    type Agg: Clone + PartialEq + Debug + Send + Sync + 'static;

    /// Aggregate of the empty set of entries.
    fn identity() -> Self::Agg;

    /// Aggregate of the singleton set `{(key, value)}`.
    fn of_entry(key: &K, value: &V) -> Self::Agg;

    /// Aggregate of the disjoint union of two entry sets.
    fn combine(a: &Self::Agg, b: &Self::Agg) -> Self::Agg;

    /// Aggregate after adding `(key, value)` to a set with aggregate `agg`.
    ///
    /// The default implementation is `combine(agg, of_entry(key, value))`;
    /// override it only as an optimisation.
    fn insert_delta(agg: &Self::Agg, key: &K, value: &V) -> Self::Agg {
        Self::combine(agg, &Self::of_entry(key, value))
    }

    /// Aggregate after removing `(key, value)` from a set with aggregate
    /// `agg`. This is the group inverse of [`Augmentation::insert_delta`].
    fn remove_delta(agg: &Self::Agg, key: &K, value: &V) -> Self::Agg;

    /// If this augmentation tracks the entry count, extracts it from an
    /// aggregate. Generic `count` implementations use this to answer
    /// counting queries in `O(log N)` whenever a [`Size`] component is
    /// present (alone, or inside a [`Pair`] / [`KeyRange`]), falling back to
    /// collecting the range otherwise. It answers for every aggregate of
    /// the type or for none.
    fn count_of(_agg: &Self::Agg) -> Option<u64> {
        None
    }

    /// Whether [`count_of`](Augmentation::count_of) answers: decided by the
    /// type, so a count that would collect anyway skips the aggregate read.
    fn counts() -> bool {
        Self::count_of(&Self::identity()).is_some()
    }
}

/// Subtree size: the augmentation behind the paper's `count(min, max)` query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Size;

impl<K: Key, V: Value> Augmentation<K, V> for Size {
    type Agg = u64;

    fn identity() -> u64 {
        0
    }

    fn of_entry(_: &K, _: &V) -> u64 {
        1
    }

    fn combine(a: &u64, b: &u64) -> u64 {
        a + b
    }

    fn insert_delta(agg: &u64, _: &K, _: &V) -> u64 {
        agg + 1
    }

    fn remove_delta(agg: &u64, _: &K, _: &V) -> u64 {
        agg.checked_sub(1)
            .expect("Size augmentation underflow: removal of an entry that was never counted")
    }

    fn count_of(agg: &u64) -> Option<u64> {
        Some(*agg)
    }
}

/// Sum of values: the augmentation behind `range_sum(min, max)`.
///
/// Values are converted to `i128` through [`IntoSummand`], so both signed and
/// unsigned 64-bit payloads can be summed over millions of entries without
/// overflow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sum;

/// Conversion of a stored value into the `i128` summand used by [`Sum`] and
/// [`SumSquares`].
pub trait IntoSummand {
    /// The numeric contribution of this value.
    fn summand(&self) -> i128;
}

macro_rules! impl_into_summand {
    ($($t:ty),*) => {
        $(impl IntoSummand for $t {
            fn summand(&self) -> i128 {
                *self as i128
            }
        })*
    };
}

impl_into_summand!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl IntoSummand for () {
    fn summand(&self) -> i128 {
        1
    }
}

impl<K: Key, V: Value + IntoSummand> Augmentation<K, V> for Sum {
    type Agg = i128;

    fn identity() -> i128 {
        0
    }

    fn of_entry(_: &K, value: &V) -> i128 {
        value.summand()
    }

    fn combine(a: &i128, b: &i128) -> i128 {
        a + b
    }

    fn remove_delta(agg: &i128, _: &K, value: &V) -> i128 {
        agg - value.summand()
    }
}

/// Sum of squared values: together with [`Sum`] and [`Size`] this supports
/// streaming mean/variance analytics over a key range, the motivating
/// "requests in a time range" example from the paper's introduction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SumSquares;

impl<K: Key, V: Value + IntoSummand> Augmentation<K, V> for SumSquares {
    type Agg = i128;

    fn identity() -> i128 {
        0
    }

    fn of_entry(_: &K, value: &V) -> i128 {
        let s = value.summand();
        s * s
    }

    fn combine(a: &i128, b: &i128) -> i128 {
        a + b
    }

    fn remove_delta(agg: &i128, _: &K, value: &V) -> i128 {
        let s = value.summand();
        agg - s * s
    }
}

/// Sum of keys interpreted as `i128`. Useful when the key itself is the
/// quantity of interest (e.g. counting total bytes for requests keyed by
/// size).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyRange;

/// Aggregate for [`KeyRange`]: the number of keys plus the sum of keys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyRangeAgg {
    /// Number of keys in the subtree.
    pub count: u64,
    /// Sum of the keys in the subtree.
    pub key_sum: i128,
}

impl<K, V> Augmentation<K, V> for KeyRange
where
    K: Key + IntoSummand,
    V: Value,
{
    type Agg = KeyRangeAgg;

    fn identity() -> KeyRangeAgg {
        KeyRangeAgg::default()
    }

    fn of_entry(key: &K, _: &V) -> KeyRangeAgg {
        KeyRangeAgg {
            count: 1,
            key_sum: key.summand(),
        }
    }

    fn combine(a: &KeyRangeAgg, b: &KeyRangeAgg) -> KeyRangeAgg {
        KeyRangeAgg {
            count: a.count + b.count,
            key_sum: a.key_sum + b.key_sum,
        }
    }

    fn remove_delta(agg: &KeyRangeAgg, key: &K, _: &V) -> KeyRangeAgg {
        KeyRangeAgg {
            count: agg
                .count
                .checked_sub(1)
                .expect("KeyRange augmentation underflow"),
            key_sum: agg.key_sum - key.summand(),
        }
    }

    fn count_of(agg: &KeyRangeAgg) -> Option<u64> {
        Some(agg.count)
    }
}

/// Product combinator: maintains two augmentations side by side so a single
/// range query returns both (e.g. `Pair<Size, Sum>` gives count and sum in
/// one `O(log N)` pass).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pair<A, B>(PhantomData<(A, B)>);

impl<K, V, A, B> Augmentation<K, V> for Pair<A, B>
where
    K: Key,
    V: Value,
    A: Augmentation<K, V>,
    B: Augmentation<K, V>,
{
    type Agg = (A::Agg, B::Agg);

    fn identity() -> Self::Agg {
        (A::identity(), B::identity())
    }

    fn of_entry(key: &K, value: &V) -> Self::Agg {
        (A::of_entry(key, value), B::of_entry(key, value))
    }

    fn combine(a: &Self::Agg, b: &Self::Agg) -> Self::Agg {
        (A::combine(&a.0, &b.0), B::combine(&a.1, &b.1))
    }

    fn insert_delta(agg: &Self::Agg, key: &K, value: &V) -> Self::Agg {
        (
            A::insert_delta(&agg.0, key, value),
            B::insert_delta(&agg.1, key, value),
        )
    }

    fn remove_delta(agg: &Self::Agg, key: &K, value: &V) -> Self::Agg {
        (
            A::remove_delta(&agg.0, key, value),
            B::remove_delta(&agg.1, key, value),
        )
    }

    fn count_of(agg: &Self::Agg) -> Option<u64> {
        A::count_of(&agg.0).or_else(|| B::count_of(&agg.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_counts_entries() {
        let id = <Size as Augmentation<i64, ()>>::identity();
        assert_eq!(id, 0);
        let one = <Size as Augmentation<i64, ()>>::of_entry(&7, &());
        assert_eq!(one, 1);
        let two = <Size as Augmentation<i64, ()>>::combine(&one, &one);
        assert_eq!(two, 2);
        let three = <Size as Augmentation<i64, ()>>::insert_delta(&two, &9, &());
        assert_eq!(three, 3);
        let back = <Size as Augmentation<i64, ()>>::remove_delta(&three, &9, &());
        assert_eq!(back, 2);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn size_underflow_panics() {
        let id = <Size as Augmentation<i64, ()>>::identity();
        let _ = <Size as Augmentation<i64, ()>>::remove_delta(&id, &1, &());
    }

    #[test]
    fn sum_tracks_values() {
        let id = <Sum as Augmentation<i64, i64>>::identity();
        let a = <Sum as Augmentation<i64, i64>>::insert_delta(&id, &1, &10);
        let b = <Sum as Augmentation<i64, i64>>::insert_delta(&a, &2, &-4);
        assert_eq!(b, 6);
        let c = <Sum as Augmentation<i64, i64>>::remove_delta(&b, &1, &10);
        assert_eq!(c, -4);
    }

    #[test]
    fn sum_of_unit_values_degenerates_to_size() {
        let id = <Sum as Augmentation<i64, ()>>::identity();
        let a = <Sum as Augmentation<i64, ()>>::insert_delta(&id, &1, &());
        let b = <Sum as Augmentation<i64, ()>>::insert_delta(&a, &2, &());
        assert_eq!(b, 2);
    }

    #[test]
    fn sum_squares_is_invertible() {
        let id = <SumSquares as Augmentation<i64, i64>>::identity();
        let a = <SumSquares as Augmentation<i64, i64>>::insert_delta(&id, &1, &3);
        assert_eq!(a, 9);
        let b = <SumSquares as Augmentation<i64, i64>>::insert_delta(&a, &2, &-5);
        assert_eq!(b, 34);
        let c = <SumSquares as Augmentation<i64, i64>>::remove_delta(&b, &1, &3);
        assert_eq!(c, 25);
    }

    #[test]
    fn key_range_tracks_count_and_sum() {
        let id = <KeyRange as Augmentation<i64, ()>>::identity();
        let a = <KeyRange as Augmentation<i64, ()>>::insert_delta(&id, &10, &());
        let b = <KeyRange as Augmentation<i64, ()>>::insert_delta(&a, &-3, &());
        assert_eq!(b.count, 2);
        assert_eq!(b.key_sum, 7);
        let c = <KeyRange as Augmentation<i64, ()>>::remove_delta(&b, &10, &());
        assert_eq!(c.count, 1);
        assert_eq!(c.key_sum, -3);
    }

    #[test]
    fn pair_combines_componentwise() {
        type P = Pair<Size, Sum>;
        let id = <P as Augmentation<i64, i64>>::identity();
        let a = <P as Augmentation<i64, i64>>::insert_delta(&id, &1, &100);
        let b = <P as Augmentation<i64, i64>>::insert_delta(&a, &2, &-1);
        assert_eq!(b, (2, 99));
        let c = <P as Augmentation<i64, i64>>::remove_delta(&b, &2, &-1);
        assert_eq!(c, (1, 100));
        let joined = <P as Augmentation<i64, i64>>::combine(&b, &c);
        assert_eq!(joined, (3, 199));
    }

    #[test]
    fn combine_is_commutative_and_associative_for_size() {
        type S = Size;
        let vals: Vec<u64> = vec![0, 1, 2, 5, 10];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    <S as Augmentation<i64, ()>>::combine(&a, &b),
                    <S as Augmentation<i64, ()>>::combine(&b, &a)
                );
                for &c in &vals {
                    let left = <S as Augmentation<i64, ()>>::combine(
                        &<S as Augmentation<i64, ()>>::combine(&a, &b),
                        &c,
                    );
                    let right = <S as Augmentation<i64, ()>>::combine(
                        &a,
                        &<S as Augmentation<i64, ()>>::combine(&b, &c),
                    );
                    assert_eq!(left, right);
                }
            }
        }
    }
}
