//! The one cut protocol: reads of several shards at one instant, written
//! once over [`ScanCut`]. A tree is one shard.
//!
//! A **cut** is one settled watermark per shard. A read at a cut reads each
//! touched shard with a front-validated read, which fails once the shard
//! advanced past its watermark; every shard is settled before any is read,
//! so the validated reads describe one instant (a validated double collect,
//! argued on `wft_store::front` and in `DESIGN.md`, "Global snapshot
//! front"). Three reads use a cut:
//!
//! * cross-shard reads ([`range_agg`], [`collect_range`]) settle the touched
//!   shards, read, and on an expiry count a restart and retry;
//! * token reads, the bodies of every [`wft_api::SnapshotRead`] impl: a
//!   token is the sum of a cut over every shard ([`acquire`]). Watermarks
//!   only grow, so the advertised ones sum to the token exactly while every
//!   shard still sits at its minted one ([`minted`]); a `*_at` read reads at
//!   them, or answers `None` without reading;
//! * the scan cursor ([`crate::MergeCursor`]) pages through one cut.
//!
//! A backend plugs in only its per-shard reads ([`ScanCut::read`],
//! [`ScanCut::read_agg`]): the tree's falls back to the descriptor path and
//! helps, the sharded store's is optimistic-only (`DESIGN.md` says why).

use wft_api::{RangeKey, RangeSpec, SnapshotToken};
use wft_seq::{Augmentation, Key, Value};

use crate::shape::Shape;
use crate::tree::WaitFreeTree;

/// What a read at a cut asks of a backend: shards in ascending key order,
/// each with a settleable front and front-validated reads.
pub trait ScanCut<K: Key, V: Value> {
    /// The augmentation a shard's aggregate read answers in.
    type Aug: Augmentation<K, V>;
    /// Number of shards.
    fn shards(&self) -> usize;
    /// The shard owning `key`.
    fn shard_of(&self, key: &K) -> usize;
    /// The first key shard `i` (`>= 1`) owns.
    fn shard_start(&self, i: usize) -> K;
    /// Settles shards `first..=last`; `result[i - first]` is shard `i`'s.
    fn settle(&self, first: usize, last: usize) -> Vec<u64>;
    /// Shard `i`'s advertised watermark, which a token is checked against.
    fn advertised(&self, i: usize) -> u64;
    /// Appends the (up to) `want` smallest entries of `[lo, hi]` in shard
    /// `i` at watermark `front` to `out`; `false`, `out` as it was, once the
    /// shard advanced past `front`.
    fn read(&self, i: usize, lo: K, hi: K, want: usize, front: u64, out: &mut Vec<(K, V)>) -> bool;
    /// The aggregate of `[lo, hi]` in shard `i` at watermark `front`;
    /// `None` once the shard advanced past `front`.
    fn read_agg(&self, i: usize, lo: K, hi: K, front: u64) -> Option<Agg<K, V, Self>>;
    /// Counts a resume that shard `i` caused.
    fn note_resume(&self, _i: usize) {}
    /// Counts a discarded read at a cut that shard `i` expired.
    fn note_restart(&self, _i: usize) {}
}

/// The aggregate a cut's augmentation answers in.
type Agg<K, V, C> = <<C as ScanCut<K, V>>::Aug as Augmentation<K, V>>::Agg;

/// The token a cut names: the sum of its watermarks.
pub(crate) fn token_of(cut: &[u64]) -> SnapshotToken {
    SnapshotToken::new(cut.iter().sum())
}

/// Mints a token at a freshly settled cut over every shard.
pub fn acquire<K: Key, V: Value, C: ScanCut<K, V>>(cut: &C) -> SnapshotToken {
    token_of(&cut.settle(0, cut.shards() - 1))
}

/// The cut `token` names, while it is the current one: the shards'
/// advertised watermarks, if they still sum to `token`.
pub fn minted<K: Key, V: Value, C: ScanCut<K, V>>(
    cut: &C,
    token: &SnapshotToken,
) -> Option<Vec<u64>> {
    let fronts: Vec<u64> = (0..cut.shards()).map(|i| cut.advertised(i)).collect();
    (token_of(&fronts) == *token).then_some(fronts)
}

/// [`wft_api::SnapshotRead::range_agg_at`] over a cut.
pub fn range_agg_at<K: RangeKey, V: Value, C: ScanCut<K, V>>(
    cut: &C,
    token: &SnapshotToken,
    range: RangeSpec<K>,
) -> Option<Agg<K, V, C>> {
    at_token(cut, token, range, C::Aug::identity, agg_at)
}

/// [`wft_api::SnapshotRead::count_at`] over a cut: read off the aggregate
/// when the augmentation counts, else collected without reading it.
pub fn count_at<K: RangeKey, V: Value, C: ScanCut<K, V>>(
    cut: &C,
    token: &SnapshotToken,
    range: RangeSpec<K>,
) -> Option<u64> {
    if C::Aug::counts() {
        if let Some(count) = C::Aug::count_of(&range_agg_at(cut, token, range)?) {
            return Some(count);
        }
    }
    collect_range_at(cut, token, range).map(|entries| entries.len() as u64)
}

/// [`wft_api::SnapshotRead::collect_range_at`] over a cut.
pub fn collect_range_at<K: RangeKey, V: Value, C: ScanCut<K, V>>(
    cut: &C,
    token: &SnapshotToken,
    range: RangeSpec<K>,
) -> Option<Vec<(K, V)>> {
    at_token(cut, token, range, Vec::new, collect_at)
}

/// The aggregate of `[min, max]` (`min <= max`) at one freshly settled cut
/// of the shards it touches, retried at a fresh cut until one validates.
/// Lock-free, not wait-free: each retry implies an update linearized.
pub fn range_agg<K: Key, V: Value, C: ScanCut<K, V>>(cut: &C, min: K, max: K) -> Agg<K, V, C> {
    at_fresh_cut(cut, min, max, agg_at)
}

/// The entries of `[min, max]` (`min <= max`) in key order, read like
/// [`range_agg`].
pub fn collect_range<K: Key, V: Value, C: ScanCut<K, V>>(cut: &C, min: K, max: K) -> Vec<(K, V)> {
    at_fresh_cut(cut, min, max, collect_at)
}

/// A read of `[min, max]` at a cut, the `j`-th touched shard at `fronts[j]`:
/// `Err(i)` once shard `i` advanced past its watermark.
type CutRead<K, C, R> = fn(&C, K, K, &[u64]) -> Result<R, usize>;

/// One read at the cut `token` names: `None` without reading once the
/// token is stale (even for an empty range), and `None` plus a counted
/// restart once a touched shard advanced during the read.
fn at_token<K: RangeKey, V: Value, C: ScanCut<K, V>, R>(
    cut: &C,
    token: &SnapshotToken,
    range: RangeSpec<K>,
    empty: impl FnOnce() -> R,
    read: CutRead<K, C, R>,
) -> Option<R> {
    let fronts = minted(cut, token)?;
    let Some((min, max)) = range.to_closed() else {
        return Some(empty());
    };
    let touched = &fronts[cut.shard_of(&min)..=cut.shard_of(&max)];
    read(cut, min, max, touched)
        .map_err(|i| cut.note_restart(i))
        .ok()
}

/// Settles the shards `[min, max]` touches and reads; on an expiry counts a
/// restart and retries at a fresh cut.
fn at_fresh_cut<K: Key, V: Value, C: ScanCut<K, V>, R>(
    cut: &C,
    min: K,
    max: K,
    read: CutRead<K, C, R>,
) -> R {
    let (first, last) = (cut.shard_of(&min), cut.shard_of(&max));
    loop {
        match read(cut, min, max, &cut.settle(first, last)) {
            Ok(out) => return out,
            Err(i) => cut.note_restart(i),
        }
        std::hint::spin_loop();
    }
}

/// The aggregate [`CutRead`].
fn agg_at<K: Key, V: Value, C: ScanCut<K, V>>(
    cut: &C,
    min: K,
    max: K,
    fronts: &[u64],
) -> Result<Agg<K, V, C>, usize> {
    let first = cut.shard_of(&min);
    let mut acc = C::Aug::identity();
    for (i, &front) in (first..).zip(fronts) {
        let lo = if i == first { min } else { cut.shard_start(i) };
        acc = C::Aug::combine(&acc, &cut.read_agg(i, lo, max, front).ok_or(i)?);
    }
    Ok(acc)
}

/// The entries' [`CutRead`]: every shard appends into the one vector
/// returned.
fn collect_at<K: Key, V: Value, C: ScanCut<K, V>>(
    cut: &C,
    min: K,
    max: K,
    fronts: &[u64],
) -> Result<Vec<(K, V)>, usize> {
    let first = cut.shard_of(&min);
    let mut out = Vec::new();
    for (i, &front) in (first..).zip(fronts) {
        let lo = if i == first { min } else { cut.shard_start(i) };
        if !cut.read(i, lo, max, usize::MAX, front, &mut out) {
            return Err(i);
        }
    }
    Ok(out)
}

/// A tree is one shard; its front is the root-queue timestamp front.
impl<K, V, A, S> ScanCut<K, V> for WaitFreeTree<K, V, A, S>
where
    K: Key,
    V: Value,
    A: Augmentation<K, V>,
    S: Shape<K>,
{
    type Aug = A;

    fn shards(&self) -> usize {
        1
    }

    fn shard_of(&self, _: &K) -> usize {
        0
    }

    fn shard_start(&self, _: usize) -> K {
        unreachable!("a tree is one shard")
    }

    fn settle(&self, _: usize, _: usize) -> Vec<u64> {
        vec![self.settle_front().get()]
    }

    fn advertised(&self, _: usize) -> u64 {
        self.advertised_ts().get()
    }

    /// The plain limited collect inside the front sandwich: behind a
    /// stalled updater it takes the descriptor fallback and helps.
    fn read(&self, _: usize, lo: K, hi: K, want: usize, front: u64, out: &mut Vec<(K, V)>) -> bool {
        let mark = out.len();
        let read = self.sandwiched(front, || self.collect_range_limited_into(lo, hi, want, out));
        if read.is_none() {
            out.truncate(mark);
        }
        read.is_some()
    }

    fn read_agg(&self, _: usize, lo: K, hi: K, front: u64) -> Option<A::Agg> {
        self.sandwiched(front, || self.range_agg(lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exit check of the tree's read: an update inside the plain read
    /// voids its result. (The token reads over both backends are tested in
    /// `wft-store`.)
    #[test]
    fn an_update_inside_a_tree_read_voids_it() {
        let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..10).map(|k| (k, ())));
        let front = tree.settle_front().get();
        assert_eq!(tree.sandwiched(front, || tree.len()), Some(10));
        assert_eq!(tree.sandwiched(front, || tree.insert(10, ())), None);
        assert_eq!(tree.sandwiched(front, || tree.len()), None);
    }
}
