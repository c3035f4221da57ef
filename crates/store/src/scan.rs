//! The store's native streaming scan: a cross-shard merge cursor at one
//! per-shard cut.
//!
//! A cursor validated against the store's scalar token would settle
//! **every** shard per chunk and expire on a write to **any** shard, even
//! one the scan never touches. [`StoreScanCursor`] does what the store's
//! one-shot cross-shard reads already do — per-shard watermarks — and
//! streams on top of them:
//!
//! * **Open** (`RangeScan::scan`): settle one watermark per shard — the
//!   epoch-stable cut whose sum
//!   [`SnapshotRead::acquire_snapshot`](wft_api::SnapshotRead::acquire_snapshot)
//!   hands out as a token — and remember the closed scan range. No entries
//!   are read yet.
//! * **Chunk** (`next_chunk(limit)`): range partitioning makes the
//!   cross-shard merge a concatenation — shards cover disjoint ascending
//!   key slices — so the cursor simply drains the shard owning the resume
//!   key with the tree's `O(log n + limit)` front-validated chunk read
//!   (`collect_range_limited_at_front` at the shard's cut watermark) and
//!   steps into the next shard when the current one runs dry before the
//!   chunk fills.
//! * **Validate / resume**: a chunk read comes back empty-handed only when
//!   its shard advanced past the cut (a shard that is merely busy is
//!   re-read at the same cut, see `front::read_at_cut`). The cursor then
//!   re-settles the watermarks of the **not-yet-drained shards only**
//!   (fully drained shards are never revisited — keyset pagination),
//!   degrades to [`ScanConsistency::Resumed`], bumps the
//!   `store_scan_resumes` metric and retries the failed shard. Writes to already-drained shards or to
//!   shards outside the range never disturb the scan — and while nothing
//!   has been yielded at all, an expiry re-acquires a whole fresh cut (and
//!   token) instead of degrading, **rewinding the merge to the resume
//!   key**: an empty prefix is a snapshot of any state, but shards already
//!   stepped over were drained dry at the old cut and may hold entries at
//!   the new one, so every touched shard is re-read at the fresh cut.
//!   These fresh-cut restarts are **bounded** (`PRE_YIELD_RESTARTS`):
//!   each one discards the whole pass, so under sustained write traffic an
//!   unbounded restart loop would starve the first chunk forever. Past the
//!   bound the cursor degrades to `Resumed` exactly like a post-yield
//!   expiry and keeps its progress — `next_chunk` always terminates; what
//!   remains lock-free-not-wait-free is only the per-shard read retry
//!   (each retry implies a concurrent update linearized), exactly as
//!   [`wft_api::ScanCursor::next_chunk`]'s contract states.
//!
//! # Consistency
//!
//! All watermarks are settled before the first chunk is read. While the
//! drain stays [`ScanConsistency::Snapshot`], every per-shard read
//! validated against the *original* cut, so (per the overlap-window
//! argument in [`crate::front`]) each touched shard's state was constant —
//! equal to its cut state — from acquisition until its drain completed. At
//! the instant acquisition finished, every touched shard therefore held
//! exactly the state the scan reports: the full drain equals one
//! `collect_range` of the store at that instant, no matter how many chunks
//! (or how much wall-clock time) it took. This validates strictly less
//! eagerly than the store's scalar [`SnapshotToken`] — only the *touched,
//! not-yet-drained* shards can expire the cursor — so a `Snapshot` drain
//! may outlive the scalar token it reports.

use wft_api::{
    RangeKey, RangeScan, RangeSpec, ReadAhead, ScanConsistency, ScanCursor, SnapshotToken,
    READAHEAD_CAP,
};
use wft_core::Timestamp;
use wft_seq::{Augmentation, Value};

use crate::front::read_at_cut;
use crate::store::ShardedStore;

/// How many pre-yield fresh-cut re-acquisitions a cursor performs before it
/// stops discarding progress and degrades to [`ScanConsistency::Resumed`]
/// like any post-yield expiry. Each restart throws the whole pass away, so
/// under sustained write traffic an unbounded restart loop can starve the
/// first chunk forever (every expiry implies a concurrent update linearized
/// — lock-free, not wait-free); the bound makes `next_chunk` terminating,
/// with the degradation reported honestly through the consistency label.
const PRE_YIELD_RESTARTS: u64 = 16;

/// The store's streaming cursor: shard-by-shard keyset pagination at one
/// per-shard watermark cut. Produced by `RangeScan::scan` on
/// [`ShardedStore`]; see the [module docs](self).
pub struct StoreScanCursor<'a, K: RangeKey, V: Value, A: Augmentation<K, V>> {
    store: &'a ShardedStore<K, V, A>,
    /// Per-shard cut watermarks (`cut[i]` belongs to shard `i`). Entries of
    /// not-yet-drained shards are refreshed on resume; drained shards keep
    /// their original watermark (they are never read again).
    cut: Vec<u64>,
    /// The scalar token reported to callers: the sum of the cut the drain
    /// is anchored at (the store's `SnapshotRead` front shape). Refreshed
    /// together with the whole cut by pre-yield re-acquires.
    token: SnapshotToken,
    /// Inclusive upper end of the scan range.
    hi: K,
    /// Index of the shard owning `hi` (shard bounds are static).
    last_shard: usize,
    /// Lower bound of the next *merge pass* — the first key neither
    /// yielded nor buffered; `None` once the merge is exhausted.
    resume: Option<K>,
    /// Validated entries read ahead of the caller: each buffered entry came
    /// from a per-shard read validated against the cut, exactly like a
    /// directly yielded one. A pre-yield cut expiry discards the buffer and
    /// rewinds `resume` over it (the `Snapshot` claim never rests on reads
    /// validated at a dead cut); after the first yield — or once the
    /// restart bound is spent — the buffer survives expiries, as `Resumed`
    /// promises per-read validation only. Merge passes append into it
    /// directly.
    buffer: ReadAhead<K, V>,
    /// Adaptive read-ahead target: doubles (capped at [`READAHEAD_CAP`])
    /// after every merge pass that validated throughout, resets to 0 on any
    /// cut expiry — small caller chunks amortise into few large merge
    /// passes while the touched shards are quiet, and shrink back to
    /// exactly-requested reads under churn.
    readahead: usize,
    /// Whether any entry has been yielded to the caller yet. While not, a
    /// cut expiry re-acquires the *whole* cut (and refreshes the token)
    /// instead of degrading to `Resumed` — an empty prefix is trivially a
    /// snapshot of any state.
    yielded: bool,
    /// Pre-yield fresh-cut re-acquisitions performed so far; at
    /// [`PRE_YIELD_RESTARTS`] the cursor stops discarding and degrades to
    /// `Resumed` instead, so a chunk always terminates.
    restarts: u64,
    consistency: ScanConsistency,
    resumes: u64,
}

impl<'a, K, V, A> StoreScanCursor<'a, K, V, A>
where
    K: RangeKey,
    V: Value,
    A: Augmentation<K, V>,
{
    pub(crate) fn new(store: &'a ShardedStore<K, V, A>, range: RangeSpec<K>) -> Self {
        // Settle every shard exactly like `acquire_snapshot` (epoch-stable, so
        // the cut cannot split an atomic batch commit); the scalar token is
        // the cut's sum.
        let cut = store.settle_all_stable();
        let token = SnapshotToken::new(cut.iter().sum());
        let (resume, hi) = match range.to_closed() {
            Some((lo, hi)) => (Some(lo), hi),
            None => (None, K::MIN_KEY),
        };
        let last_shard = store.shard_of(&hi);
        StoreScanCursor {
            store,
            cut,
            token,
            hi,
            last_shard,
            resume,
            buffer: ReadAhead::new(),
            readahead: 0,
            yielded: false,
            restarts: 0,
            consistency: ScanConsistency::Snapshot,
            resumes: 0,
        }
    }

    /// One merge pass at the current cut: reads the caller's shortfall
    /// (widened to the adaptive read-ahead target) straight into the
    /// buffer, shard after shard in key order. Post-yield cut expiries
    /// re-settle the suffix shards and keep merging (`Resumed`); a
    /// pre-yield expiry rewinds the whole cursor to a fresh cut and returns
    /// for a clean retry.
    fn fill(&mut self, limit: usize) {
        let Some(lo) = self.resume else {
            return;
        };
        let target = limit
            .saturating_sub(self.buffer.len())
            .max(self.readahead)
            .max(1);
        // The pass appends behind the `kept` entries already buffered.
        let out = self.buffer.entries_mut();
        let kept = out.len();
        out.reserve(target.min(READAHEAD_CAP));
        let mut shard = self.store.shard_of(&lo);
        let mut shard_lo = lo;
        let mut expired = false;
        while out.len() - kept < target && shard <= self.last_shard {
            let want = target - (out.len() - kept);
            let front = Timestamp(self.cut[shard]);
            let before = out.len();
            let tree = &self.store.shards[shard];
            match read_at_cut(|| {
                tree.collect_range_limited_at_front(shard_lo, self.hi, want, front, out)
            }) {
                Some(()) => {
                    if out.len() - before < want {
                        // This shard's suffix is exhausted at the cut; step
                        // into the next shard's slice. `bounds[shard]` is the
                        // first key the next shard owns, and it exceeds every
                        // key yielded so far (slices ascend).
                        shard += 1;
                        if shard <= self.last_shard {
                            shard_lo = self.store.bounds[shard - 1];
                        }
                    }
                }
                None => {
                    // The shard advanced past its cut watermark.
                    if self.yielded || self.restarts >= PRE_YIELD_RESTARTS {
                        // Re-settle the not-yet-drained suffix shards only
                        // (drained shards are never read again) and retry
                        // this shard; the drain is no longer a single
                        // snapshot. Entries of earlier shards already read
                        // by this pass (and buffered before it) stay: the
                        // caller has accepted `Resumed` semantics, where
                        // one chunk may stitch per-shard reads taken at
                        // different cuts (documented in `wft_api::scan`).
                        let fresh = self.store.settle_touched_stable(shard, self.last_shard);
                        self.cut[shard..=self.last_shard].copy_from_slice(&fresh);
                        self.store.front.scan_resumes.inc();
                        wft_obs::trace::emit(
                            wft_obs::TraceKind::ScanResume,
                            crate::store::shard_trace_arg(shard),
                        );
                        self.consistency = ScanConsistency::Resumed;
                        self.resumes += 1;
                        expired = true;
                    } else {
                        // Nothing yielded to the caller yet: discard the
                        // partial pass AND the read-ahead buffer, acquire a
                        // whole fresh cut and make it the cursor's anchor —
                        // the drain stays `Snapshot` against the new token,
                        // exactly as the `ScanCursor` contract promises for
                        // pre-yield failures. The merge rewinds to the
                        // first key the caller has not seen (the first
                        // buffered entry, else this pass's resume key): shards
                        // already stepped over, partially read, or buffered
                        // were drained at the OLD cut, and the new cut may
                        // have landed keys in them — a `Snapshot` drain
                        // owes the new token every one of those entries.
                        // The discarded attempt counts as a snapshot retry
                        // (not a scan resume), attributed to the shard that
                        // expired the cut. Restarts are bounded by
                        // `PRE_YIELD_RESTARTS`; past it the expiry above
                        // degrades to `Resumed` instead of discarding, so
                        // the first chunk cannot be starved forever.
                        self.restarts += 1;
                        self.store.note_snapshot_retry(shard);
                        let restart = if kept > 0 { out[0].0 } else { lo };
                        out.clear();
                        self.cut = self.store.settle_all_stable();
                        self.token = SnapshotToken::new(self.cut.iter().sum());
                        self.resume = Some(restart);
                        self.readahead = 0;
                        std::hint::spin_loop();
                        return;
                    }
                    std::hint::spin_loop();
                }
            }
        }
        // Commit the pagination point: a short pass proves exhaustion, a
        // full one resumes strictly after its last key. A pass that
        // validated throughout earns a doubled read-ahead target.
        self.resume = if out.len() - kept < target {
            None
        } else {
            out.last()
                .and_then(|(k, _)| k.successor())
                .filter(|next| *next <= self.hi)
        };
        self.readahead = if expired {
            0
        } else {
            target.saturating_mul(2).min(READAHEAD_CAP)
        };
    }
}

impl<K, V, A> ScanCursor<K, V> for StoreScanCursor<'_, K, V, A>
where
    K: RangeKey,
    V: Value,
    A: Augmentation<K, V>,
{
    fn next_chunk(&mut self, limit: usize) -> Vec<(K, V)> {
        if limit == 0 {
            return Vec::new();
        }
        // Top the buffer up to the caller's chunk (each fill is one merge
        // pass at the current cut — possibly wider than the shortfall, per
        // the adaptive read-ahead), then hand out exactly `limit` entries.
        while self.buffer.len() < limit && self.resume.is_some() {
            self.fill(limit);
        }
        let chunk = self.buffer.take(limit);
        self.yielded |= !chunk.is_empty();
        chunk
    }

    fn token(&self) -> SnapshotToken {
        self.token
    }

    fn consistency(&self) -> ScanConsistency {
        self.consistency
    }

    fn resumes(&self) -> u64 {
        self.resumes
    }

    fn is_exhausted(&self) -> bool {
        self.resume.is_none() && self.buffer.is_empty()
    }
}

/// The store's native [`RangeScan`]: the per-shard-cut streaming merge
/// above rather than a cursor validated against the scalar token, so writes
/// to untouched or already-drained shards never disturb a scan.
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
        StoreScanCursor::new(self, range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wft_api::RangeRead;
    use wft_obs::MetricsSource;

    fn store_with_shards(shards: usize, keys: i64) -> ShardedStore<i64> {
        ShardedStore::from_entries((0..keys).map(|k| (k, ())), shards)
    }

    #[test]
    fn cursor_pages_across_shard_boundaries_in_order() {
        let store = store_with_shards(4, 1000);
        let mut cursor = store.scan(RangeSpec::inclusive(100, 899));
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
        let store = store_with_shards(3, 30);
        let mut cursor = store.scan(RangeSpec::inclusive(25, 40));
        assert_eq!(cursor.next_chunk(1), vec![(25, ())]);
        assert_eq!(cursor.next_chunk(1), vec![(26, ())]);
        // A limit far beyond the remaining answer drains and exhausts.
        assert_eq!(cursor.next_chunk(1000).len(), 3);
        assert!(cursor.is_exhausted());
        assert!(cursor.next_chunk(10).is_empty());
    }

    #[test]
    fn writes_to_drained_or_untouched_shards_keep_the_snapshot() {
        let store = store_with_shards(4, 400);
        let bounds = store.boundaries().to_vec();
        let mut cursor = store.scan(RangeSpec::inclusive(0, bounds[2] - 1));
        // Drain shard 0 completely.
        let first_slice = cursor.next_chunk(bounds[0] as usize);
        assert_eq!(first_slice.len(), bounds[0] as usize);
        // Write into the already-drained shard 0 and the untouched shard 3.
        store.insert(-100, ());
        store.insert(5000, ());
        // The cursor still drains shards 1 and 2 as a snapshot: only
        // not-yet-drained touched shards can expire it.
        let rest = cursor.drain(64);
        assert_eq!(rest.len(), (bounds[2] - bounds[0]) as usize);
        assert_eq!(cursor.consistency(), ScanConsistency::Snapshot);
        assert_eq!(store.metrics().counter("store_scan_resumes"), Some(0));
    }

    #[test]
    fn write_ahead_of_the_cursor_resumes_and_is_observed() {
        let store = store_with_shards(4, 400);
        let mut cursor = store.scan(RangeSpec::all());
        let first = cursor.next_chunk(10);
        assert_eq!(first.len(), 10);
        // Update keys ahead of the resume point, in a not-yet-drained
        // shard: the cursor must re-anchor and then report the new state.
        store.remove(&395);
        store.insert(1000, ());
        let rest = cursor.drain(64);
        assert_eq!(cursor.consistency(), ScanConsistency::Resumed);
        assert!(cursor.resumes() > 0);
        assert!(store.metrics().counter("store_scan_resumes") > Some(0));
        let keys: Vec<i64> = rest.iter().map(|(k, ())| *k).collect();
        assert!(keys.contains(&1000), "the resumed suffix sees the insert");
        // Still strictly ascending and duplicate-free past the first chunk.
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert!(keys[0] > first.last().unwrap().0);
    }

    #[test]
    fn pre_yield_reanchor_rewinds_over_stepped_shards() {
        // Regression: a pre-yield cut expiry must rewind the merge to the
        // resume key. Without the rewind, a shard whose in-range slice was
        // empty at the old cut stays stepped-over after the fresh cut is
        // acquired, and a drain reported `Snapshot` can yield a later write
        // (key 350) while missing an earlier one (key 50) that landed in
        // the stepped-over shard. The writer inserts 50 strictly before
        // 350, so any `Snapshot` listing containing 350 must contain 50.
        for _ in 0..300 {
            let store: ShardedStore<i64> = ShardedStore::with_boundaries(vec![100, 200, 300]);
            for k in 300..340 {
                store.insert(k, ());
            }
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    barrier.wait();
                    store.insert(50, ()); // shard 0: empty at the open cut
                    store.insert(350, ()); // shard 3: expires the cut mid-merge
                });
                let mut cursor = store.scan(RangeSpec::inclusive(0, 400));
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
        let store = store_with_shards(5, 500);
        let entries = RangeScan::scan_snapshot(&store, RangeSpec::from_bounds(50..450), 32);
        assert_eq!(
            entries,
            RangeRead::collect_range(&store, RangeSpec::from_bounds(50..450))
        );
    }

    #[test]
    fn empty_and_inverted_ranges_scan_nothing() {
        let store = store_with_shards(3, 100);
        let (entries, consistency) = store.scan_collect(RangeSpec::inclusive(80, 20), 16);
        assert!(entries.is_empty());
        assert_eq!(consistency, ScanConsistency::Snapshot);
        let mut cursor = store.scan(RangeSpec::from_bounds(7..7));
        assert!(cursor.is_exhausted());
        assert!(cursor.next_chunk(8).is_empty());
    }
}
