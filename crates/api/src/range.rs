//! Range specifications and the aggregate-read trait.
//!
//! Every implementation in the workspace answers range queries over a
//! *closed* key interval `[min, max]` — that is the shape the paper's
//! three-border descent and the trie's coverage pruning natively support.
//! Callers, however, think in the standard library's [`Bound`] vocabulary
//! (`..`, `a..b`, `a..=b`, …). [`RangeSpec`] is the bridge: it is built from
//! arbitrary bounds and resolved to a closed interval exactly once, at the
//! API boundary, via [`RangeSpec::to_closed`] — which is also where the
//! workspace-wide rule "an empty or inverted range yields the identity
//! aggregate / zero / no entries" is enforced, instead of being re-derived
//! (or forgotten) in each backend.

use std::ops::{Bound, RangeBounds};

use wft_seq::{Augmentation, Key, Value};

use crate::point::PointMap;

/// A [`Key`] with a discrete total order and known extremes, so that
/// exclusive and unbounded [`Bound`]s can be normalised to a closed interval.
///
/// Implemented for every primitive integer type, and **lexicographically
/// for 2-tuples** of `RangeKey`s — `(tenant, timestamp)`-style composite
/// keys work out of the box, with `successor`/`predecessor` carrying
/// between components exactly like integer increment carries between
/// digits, so `RangeSpec::from_bounds((t, 0)..(t + 1, 0))` selects one
/// tenant's whole sub-range.
///
/// # Newtype recipe
///
/// Domain key types should stay domain types. Wrap the discrete
/// representation in a newtype, derive the ordering, and delegate the four
/// `RangeKey` items to the wrapped component:
///
/// ```
/// use wft_api::{RangeKey, RangeRead, RangeSpec};
/// use wft_core::WaitFreeTree;
///
/// /// Milliseconds since the epoch — ordered, discrete, bounded.
/// #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
/// struct EventTime(u64);
///
/// impl RangeKey for EventTime {
///     const MIN_KEY: Self = EventTime(u64::MIN);
///     const MAX_KEY: Self = EventTime(u64::MAX);
///     fn successor(&self) -> Option<Self> {
///         self.0.successor().map(EventTime)
///     }
///     fn predecessor(&self) -> Option<Self> {
///         self.0.predecessor().map(EventTime)
///     }
/// }
///
/// let log: WaitFreeTree<EventTime, &'static str> = WaitFreeTree::new();
/// log.insert(EventTime(10), "boot");
/// log.insert(EventTime(25), "ready");
/// // Exclusive bounds resolve through the newtype's successor/predecessor.
/// let spec = RangeSpec::from_bounds(EventTime(10)..EventTime(25));
/// assert_eq!(RangeRead::count(&log, spec), 1);
/// ```
pub trait RangeKey: Key {
    /// The smallest key of the domain (`..=k` starts here).
    const MIN_KEY: Self;
    /// The largest key of the domain (`k..` ends here).
    const MAX_KEY: Self;
    /// The next key up, or `None` at [`RangeKey::MAX_KEY`].
    fn successor(&self) -> Option<Self>;
    /// The next key down, or `None` at [`RangeKey::MIN_KEY`].
    fn predecessor(&self) -> Option<Self>;
}

macro_rules! impl_range_key {
    ($($t:ty),*) => {
        $(impl RangeKey for $t {
            const MIN_KEY: Self = <$t>::MIN;
            const MAX_KEY: Self = <$t>::MAX;
            fn successor(&self) -> Option<Self> {
                self.checked_add(1)
            }
            fn predecessor(&self) -> Option<Self> {
                self.checked_sub(1)
            }
        })*
    };
}

impl_range_key!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize);

/// Lexicographic composite keys: the tuple order derived by Rust **is** the
/// lexicographic order, and `successor`/`predecessor` carry between the
/// components like integer increment carries between digits — `(a, B_MAX)`
/// steps to `(a + 1, B_MIN)`. This makes `(shard_key, sub_key)` pairs
/// first-class range keys: the whole sub-range of one `a` is
/// `[(a, B::MIN_KEY), (a, B::MAX_KEY)]`.
///
/// Wider composites nest: `((a, b), c)` is lexicographic over three
/// components.
impl<A: RangeKey, B: RangeKey> RangeKey for (A, B) {
    const MIN_KEY: Self = (A::MIN_KEY, B::MIN_KEY);
    const MAX_KEY: Self = (A::MAX_KEY, B::MAX_KEY);

    fn successor(&self) -> Option<Self> {
        match self.1.successor() {
            Some(b) => Some((self.0, b)),
            None => self.0.successor().map(|a| (a, B::MIN_KEY)),
        }
    }

    fn predecessor(&self) -> Option<Self> {
        match self.1.predecessor() {
            Some(b) => Some((self.0, b)),
            None => self.0.predecessor().map(|a| (a, B::MAX_KEY)),
        }
    }
}

/// A key range built from standard [`Bound`]s.
///
/// The canonical constructors are [`RangeSpec::from_bounds`] (any
/// `RangeBounds` expression: `.., 10..20, 5..=9`) and the shorthands
/// [`RangeSpec::inclusive`] / [`RangeSpec::all`] / [`RangeSpec::at_least`] /
/// [`RangeSpec::at_most`]. A spec carries no validity invariant — an
/// inverted spec is representable and simply resolves to the empty range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeSpec<K> {
    /// Lower bound of the range.
    pub lo: Bound<K>,
    /// Upper bound of the range.
    pub hi: Bound<K>,
}

impl<K: Key> RangeSpec<K> {
    /// Builds a spec from any standard range expression
    /// (`RangeSpec::from_bounds(10..20)`, `RangeSpec::from_bounds(..)`, …).
    pub fn from_bounds<R: RangeBounds<K>>(range: R) -> Self {
        RangeSpec {
            lo: range.start_bound().cloned(),
            hi: range.end_bound().cloned(),
        }
    }

    /// The closed range `[min, max]` (the workspace's historical calling
    /// convention). `min > max` is allowed and denotes the empty range.
    pub fn inclusive(min: K, max: K) -> Self {
        RangeSpec {
            lo: Bound::Included(min),
            hi: Bound::Included(max),
        }
    }

    /// The whole key domain.
    pub fn all() -> Self {
        RangeSpec {
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
        }
    }

    /// Every key `>= min`.
    pub fn at_least(min: K) -> Self {
        RangeSpec {
            lo: Bound::Included(min),
            hi: Bound::Unbounded,
        }
    }

    /// Every key `<= max`.
    pub fn at_most(max: K) -> Self {
        RangeSpec {
            lo: Bound::Unbounded,
            hi: Bound::Included(max),
        }
    }

    /// The degenerate range holding exactly `key`.
    pub fn single(key: K) -> Self {
        Self::inclusive(key, key)
    }

    /// Whether `key` falls inside this spec.
    pub fn admits(&self, key: &K) -> bool {
        let lo_ok = match &self.lo {
            Bound::Unbounded => true,
            Bound::Included(min) => key >= min,
            Bound::Excluded(min) => key > min,
        };
        let hi_ok = match &self.hi {
            Bound::Unbounded => true,
            Bound::Included(max) => key <= max,
            Bound::Excluded(max) => key < max,
        };
        lo_ok && hi_ok
    }
}

impl<K: RangeKey> RangeSpec<K> {
    /// Resolves the spec to closed inclusive endpoints `(min, max)`, or
    /// `None` when the spec denotes the empty range (inverted endpoints, or
    /// an exclusive bound at the edge of the key domain).
    ///
    /// This is **the** normalisation point of the API: implementations call
    /// it once, answer `[min, max]` with their native closed-interval query,
    /// and return the identity / zero / empty answer on `None`. Empty and
    /// inverted ranges therefore behave identically across every backend.
    pub fn to_closed(&self) -> Option<(K, K)> {
        let min = match &self.lo {
            Bound::Unbounded => K::MIN_KEY,
            Bound::Included(min) => *min,
            Bound::Excluded(min) => min.successor()?,
        };
        let max = match &self.hi {
            Bound::Unbounded => K::MAX_KEY,
            Bound::Included(max) => *max,
            Bound::Excluded(max) => max.predecessor()?,
        };
        (min <= max).then_some((min, max))
    }
}

/// The shared body of every `RangeRead::range_agg` and `collect_range`
/// implementation: resolve `range` once and answer with the backend's
/// native closed-interval query, or `identity` when the spec denotes the
/// empty range.
pub fn agg_over<K: RangeKey, Agg>(
    range: RangeSpec<K>,
    identity: impl FnOnce() -> Agg,
    closed: impl FnOnce(K, K) -> Agg,
) -> Agg {
    match range.to_closed() {
        Some((min, max)) => closed(min, max),
        None => identity(),
    }
}

/// The shared body of every `RangeRead::count` implementation: the empty
/// range counts zero, a counting augmentation ([`Augmentation::counts`])
/// answers from the aggregate, and any other collects without reading it.
pub fn count_over<K: RangeKey, V: Value, A: Augmentation<K, V>>(
    range: RangeSpec<K>,
    agg: impl FnOnce(K, K) -> A::Agg,
    collect_len: impl FnOnce(K, K) -> u64,
) -> u64 {
    match range.to_closed() {
        None => 0,
        Some((min, max)) => A::counts()
            .then(|| A::count_of(&agg(min, max)))
            .flatten()
            .unwrap_or_else(|| collect_len(min, max)),
    }
}

/// Aggregate and listing range queries over a [`PointMap`].
///
/// `Agg` is the aggregate the backend's augmentation produces (`u64` for a
/// size-augmented tree, `(u64, i128)` for `Pair<Size, Sum>`, …). Every
/// method takes a [`RangeSpec`]; see [`RangeSpec::to_closed`] for the
/// normative empty/inverted-range behaviour.
///
/// # Example
///
/// ```
/// use wft_api::{RangeRead, RangeSpec};
/// use wft_core::WaitFreeTree;
///
/// let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..20).map(|k| (k, ())));
///
/// // Specs are built from standard range expressions …
/// assert_eq!(RangeRead::count(&tree, RangeSpec::from_bounds(5..15)), 10);
/// assert_eq!(RangeRead::range_agg(&tree, RangeSpec::at_least(18)), 2);
/// let listed = RangeRead::collect_range(&tree, RangeSpec::from_bounds(..3));
/// assert_eq!(listed.len(), 3);
///
/// // … and empty/inverted specs uniformly answer identity / 0 / [].
/// assert_eq!(RangeRead::count(&tree, RangeSpec::inclusive(9, 3)), 0);
/// assert!(RangeRead::collect_range(&tree, RangeSpec::from_bounds(7..7)).is_empty());
/// ```
pub trait RangeRead<K: RangeKey, V: Value>: PointMap<K, V> {
    /// The aggregate produced by [`RangeRead::range_agg`].
    type Agg;

    /// Aggregate of every entry whose key falls in `range` — the paper's
    /// asymptotically-efficient query for augmented backends (the lock-free
    /// linear baseline answers it by collecting, which is exactly the gap
    /// the paper closes).
    fn range_agg(&self, range: RangeSpec<K>) -> Self::Agg;

    /// Number of keys in `range`.
    fn count(&self, range: RangeSpec<K>) -> u64;

    /// Every `(key, value)` whose key falls in `range`, in ascending key
    /// order (linear in the output size).
    fn collect_range(&self, range: RangeSpec<K>) -> Vec<(K, V)>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_resolution_of_standard_ranges() {
        assert_eq!(
            RangeSpec::<i64>::from_bounds(..).to_closed(),
            Some((i64::MIN, i64::MAX))
        );
        assert_eq!(RangeSpec::from_bounds(3..10).to_closed(), Some((3, 9)));
        assert_eq!(RangeSpec::from_bounds(3..=10).to_closed(), Some((3, 10)));
        assert_eq!(RangeSpec::from_bounds(3..).to_closed(), Some((3, i64::MAX)));
        assert_eq!(
            RangeSpec::from_bounds(..=7).to_closed(),
            Some((i64::MIN, 7))
        );
        assert_eq!(
            RangeSpec::from_bounds((Bound::Excluded(3), Bound::Included(10))).to_closed(),
            Some((4, 10))
        );
    }

    #[test]
    fn empty_and_inverted_ranges_resolve_to_none() {
        assert_eq!(RangeSpec::inclusive(10, 3).to_closed(), None);
        assert_eq!(RangeSpec::from_bounds(5..5).to_closed(), None);
        // Exclusive bound at the domain edge: no representable key remains.
        assert_eq!(
            RangeSpec::from_bounds((Bound::Excluded(i64::MAX), Bound::Unbounded)).to_closed(),
            None
        );
        assert_eq!(
            RangeSpec::from_bounds((Bound::Unbounded, Bound::Excluded(i64::MIN))).to_closed(),
            None
        );
    }

    #[test]
    fn admits_respects_all_bound_kinds() {
        let spec = RangeSpec::from_bounds((Bound::Excluded(3i64), Bound::Included(7)));
        assert!(!spec.admits(&3));
        assert!(spec.admits(&4) && spec.admits(&7));
        assert!(!spec.admits(&8));
        assert!(RangeSpec::<i64>::all().admits(&i64::MIN));
        assert!(RangeSpec::single(5).admits(&5) && !RangeSpec::single(5).admits(&6));
    }

    #[test]
    fn tuple_keys_are_lexicographic_with_carry() {
        assert_eq!(<(i8, u8)>::MIN_KEY, (i8::MIN, u8::MIN));
        assert_eq!(<(i8, u8)>::MAX_KEY, (i8::MAX, u8::MAX));
        // Plain step within the second component.
        assert_eq!((3i8, 7u8).successor(), Some((3, 8)));
        assert_eq!((3i8, 7u8).predecessor(), Some((3, 6)));
        // Carry between components.
        assert_eq!((3i8, u8::MAX).successor(), Some((4, 0)));
        assert_eq!((3i8, 0u8).predecessor(), Some((2, u8::MAX)));
        // Domain edges.
        assert_eq!(<(i8, u8)>::MAX_KEY.successor(), None);
        assert_eq!(<(i8, u8)>::MIN_KEY.predecessor(), None);
        // The resolved closed interval follows the tuple order.
        let spec = RangeSpec::from_bounds((3i8, 250u8)..(4, 2));
        assert_eq!(spec.to_closed(), Some(((3, 250), (4, 1))));
        assert!(spec.admits(&(3, 255)) && spec.admits(&(4, 1)));
        assert!(!spec.admits(&(4, 2)));
        // Exclusive lower bound at a carry point.
        let spec =
            RangeSpec::from_bounds((Bound::Excluded((1i8, u8::MAX)), Bound::Included((2i8, 5u8))));
        assert_eq!(spec.to_closed(), Some(((2, 0), (2, 5))));
    }

    #[test]
    fn degenerate_and_single_specs() {
        assert_eq!(RangeSpec::single(9i64).to_closed(), Some((9, 9)));
        assert_eq!(RangeSpec::at_least(0i64).to_closed(), Some((0, i64::MAX)));
        assert_eq!(RangeSpec::at_most(0i64).to_closed(), Some((i64::MIN, 0)));
    }
}
