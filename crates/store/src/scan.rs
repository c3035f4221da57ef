//! The store's streaming scan: `wft_core`'s merge cursor over the store's
//! per-shard cut.
//!
//! A cursor validated against the store's scalar token would settle
//! **every** shard per chunk and expire on a write to **any** shard, even
//! one the scan never touches. [`StoreScanCursor`] does what the store's
//! one-shot cross-shard reads do — one watermark per shard — and streams on
//! top of them: [`wft_core::MergeCursor`] drains shard after shard in key
//! order, and only a touched, not-yet-drained shard can expire it (see
//! [`wft_core::scan`]). The store answers the cursor's questions as the
//! [`ScanCut`](wft_core::ScanCut) of [`crate::front`]: cuts are settled
//! epoch-stable, so none can split an atomic batch commit, and each shard
//! is read optimistic-only at its watermark, never through the descriptor
//! fallback.

use wft_api::{RangeKey, RangeScan, RangeSpec};
use wft_core::MergeCursor;
use wft_seq::{Augmentation, Value};

use crate::store::ShardedStore;

/// The store's streaming cursor (and so the durable store's).
pub type StoreScanCursor<'a, K, V, A> = MergeCursor<'a, K, V, ShardedStore<K, V, A>>;

/// The store's native [`RangeScan`]: the per-shard-cut streaming merge
/// rather than a cursor validated against the scalar token, so writes to
/// untouched or already-drained shards never disturb a scan.
impl<K, V, A> RangeScan<K, V> for ShardedStore<K, V, A>
where
    K: RangeKey,
    V: Value,
    A: Augmentation<K, V>,
{
    type Cursor<'a>
        = StoreScanCursor<'a, K, V, A>
    where
        Self: 'a;

    fn scan(&self, range: RangeSpec<K>) -> StoreScanCursor<'_, K, V, A> {
        MergeCursor::new(self, range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wft_api::{PointMap, RangeRead, ScanConsistency, ScanCursor};
    use wft_core::WaitFreeTree;
    use wft_obs::MetricsSource;

    /// What the tests drive: each runs on a one-shard cut (a bare tree) and
    /// on a store of several shards.
    trait Scanned: PointMap<i64, ()> + RangeRead<i64, ()> + RangeScan<i64, ()> + Sync {}
    impl<M: PointMap<i64, ()> + RangeRead<i64, ()> + RangeScan<i64, ()> + Sync> Scanned for M {}

    fn tree(keys: i64) -> WaitFreeTree<i64> {
        WaitFreeTree::from_entries((0..keys).map(|k| (k, ())))
    }

    fn store_with_shards(shards: usize, keys: i64) -> ShardedStore<i64> {
        ShardedStore::from_entries((0..keys).map(|k| (k, ())), shards)
    }

    #[test]
    fn cursor_pages_across_shard_boundaries_in_order() {
        pages_in_order(&tree(1000));
        pages_in_order(&store_with_shards(4, 1000));
    }

    fn pages_in_order(map: &impl Scanned) {
        let mut cursor = map.scan(RangeSpec::inclusive(100, 899));
        let mut seen = Vec::new();
        loop {
            let chunk = cursor.next_chunk(64);
            if chunk.is_empty() {
                break;
            }
            assert!(chunk.len() <= 64);
            seen.extend(chunk.into_iter().map(|(k, ())| k));
        }
        assert_eq!(seen, (100..=899).collect::<Vec<_>>());
        assert_eq!(cursor.consistency(), ScanConsistency::Snapshot);
        assert_eq!(cursor.resumes(), 0);
        assert!(cursor.is_exhausted());
    }

    #[test]
    fn chunk_limit_one_and_oversized_limits_work() {
        limits_one_and_oversized(&tree(30));
        limits_one_and_oversized(&store_with_shards(3, 30));
    }

    fn limits_one_and_oversized(map: &impl Scanned) {
        let mut cursor = map.scan(RangeSpec::inclusive(25, 40));
        assert_eq!(cursor.next_chunk(1), vec![(25, ())]);
        assert_eq!(cursor.next_chunk(1), vec![(26, ())]);
        // A limit far beyond the remaining answer drains and exhausts.
        assert_eq!(cursor.next_chunk(1000).len(), 3);
        assert!(cursor.is_exhausted());
        assert!(cursor.next_chunk(10).is_empty());
    }

    #[test]
    fn writes_to_drained_or_untouched_shards_keep_the_snapshot() {
        writes_behind_and_beyond(&tree(400), &[]);
        let store = store_with_shards(4, 400);
        writes_behind_and_beyond(&store, store.boundaries());
        assert_eq!(store.metrics().counter("store_scan_resumes"), Some(0));
    }

    /// Drains the first shard's slice (the first 100 keys on a tree), then
    /// writes behind the cursor and beyond the range: a store keeps the
    /// snapshot, since only not-yet-drained touched shards can expire it; a
    /// tree is one shard, so any write resumes it.
    fn writes_behind_and_beyond(map: &impl Scanned, bounds: &[i64]) {
        let (drained, hi) = match bounds {
            [first, _, third, ..] => (*first, *third - 1),
            _ => (100, 299),
        };
        let mut cursor = map.scan(RangeSpec::inclusive(0, hi));
        assert_eq!(cursor.next_chunk(drained as usize).len(), drained as usize);
        map.insert(-100, ());
        map.insert(5000, ());
        let rest = cursor.drain(64);
        assert_eq!(rest.len(), (hi + 1 - drained) as usize);
        let expected = if bounds.is_empty() {
            ScanConsistency::Resumed
        } else {
            ScanConsistency::Snapshot
        };
        assert_eq!(cursor.consistency(), expected);
    }

    #[test]
    fn write_ahead_of_the_cursor_resumes_and_is_observed() {
        write_ahead_resumes(&tree(400));
        let store = store_with_shards(4, 400);
        write_ahead_resumes(&store);
        assert!(store.metrics().counter("store_scan_resumes") > Some(0));
    }

    fn write_ahead_resumes(map: &impl Scanned) {
        let mut cursor = map.scan(RangeSpec::all());
        let first = cursor.next_chunk(10);
        assert_eq!(first.len(), 10);
        // Update keys ahead of the resume point, in a not-yet-drained
        // shard: the cursor must re-anchor and then report the new state.
        map.remove(&395);
        map.insert(1000, ());
        let rest = cursor.drain(64);
        assert_eq!(cursor.consistency(), ScanConsistency::Resumed);
        assert!(cursor.resumes() > 0);
        let keys: Vec<i64> = rest.iter().map(|(k, ())| *k).collect();
        assert!(keys.contains(&1000), "the resumed suffix sees the insert");
        // Still strictly ascending and duplicate-free past the first chunk.
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(keys[0] > first.last().unwrap().0);
    }

    #[test]
    fn pre_yield_reanchor_rewinds_over_stepped_shards() {
        rewinds_on_restart(WaitFreeTree::<i64>::new);
        rewinds_on_restart(|| ShardedStore::<i64>::with_boundaries(vec![100, 200, 300]));
    }

    /// Regression: a pre-yield cut expiry must rewind the merge to the
    /// resume key. Without the rewind, a shard whose in-range slice was
    /// empty at the old cut stays stepped-over after the fresh cut is
    /// acquired, and a drain reported `Snapshot` can yield a later write
    /// (key 350) while missing an earlier one (key 50) that landed in the
    /// stepped-over shard. The writer inserts 50 strictly before 350, so
    /// any `Snapshot` listing containing 350 must contain 50.
    fn rewinds_on_restart<M: Scanned>(make: impl Fn() -> M) {
        for _ in 0..300 {
            let map = make();
            for k in 300..340 {
                map.insert(k, ());
            }
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    barrier.wait();
                    map.insert(50, ()); // shard 0: empty at the open cut
                    map.insert(350, ()); // shard 3: expires the cut mid-merge
                });
                let mut cursor = map.scan(RangeSpec::inclusive(0, 400));
                barrier.wait();
                let keys: Vec<i64> = cursor.drain(1000).iter().map(|(k, ())| *k).collect();
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "unsorted: {keys:?}");
                if cursor.consistency() == ScanConsistency::Snapshot && keys.contains(&350) {
                    assert!(
                        keys.contains(&50),
                        "Snapshot drain yields 350 (written after 50) but misses 50: {keys:?}"
                    );
                }
            });
        }
    }

    #[test]
    fn scan_snapshot_driver_matches_collect_range() {
        snapshot_driver_matches(&tree(500));
        snapshot_driver_matches(&store_with_shards(5, 500));
    }

    fn snapshot_driver_matches(map: &impl Scanned) {
        let entries = RangeScan::scan_snapshot(map, RangeSpec::from_bounds(50..450), 32);
        assert_eq!(
            entries,
            RangeRead::collect_range(map, RangeSpec::from_bounds(50..450))
        );
    }

    #[test]
    fn empty_and_inverted_ranges_scan_nothing() {
        scans_nothing(&tree(100));
        scans_nothing(&store_with_shards(3, 100));
    }

    fn scans_nothing(map: &impl Scanned) {
        let (entries, consistency) = map.scan_collect(RangeSpec::inclusive(80, 20), 16);
        assert!(entries.is_empty());
        assert_eq!(consistency, ScanConsistency::Snapshot);
        let mut cursor = map.scan(RangeSpec::from_bounds(7..7));
        assert!(cursor.is_exhausted());
        assert!(cursor.next_chunk(8).is_empty());
    }
}
