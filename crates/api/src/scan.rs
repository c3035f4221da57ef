//! Streaming range scans: snapshot-consistent cursors over a key range.
//!
//! [`RangeRead::collect_range`] returns a whole answer at once — fine for a
//! dashboard widget, fatal for a production store paginating a
//! million-entry range to a client: the entire result set is materialised in
//! memory and the caller cannot stop early. [`RangeScan`] is the streaming
//! inverse: [`scan`](RangeScan::scan) opens a [`ScanCursor`] that yields the
//! range's entries **in ascending key order, in caller-bounded chunks**
//! ([`next_chunk(limit)`](ScanCursor::next_chunk)), with three guarantees:
//!
//! 1. **Keyset pagination** — the cursor resumes strictly *after* the last
//!    yielded key. It never yields a key twice and never goes backwards, no
//!    matter what writers do between chunks.
//! 2. **Per-chunk front validation** — every chunk is read inside a
//!    validation sandwich against the cursor's acquired [`SnapshotToken`]:
//!    the backend's front is checked to still sit at the token before and
//!    after the read. While the token stays valid, a full drain is
//!    **equivalent to one [`SnapshotRead::collect_range_at`] of that
//!    token**: the concatenated chunks are a single atomic snapshot of the
//!    range, even though they were produced across many calls.
//! 3. **Transparent resumption** — if a chunk's validation fails (a
//!    concurrent update linearized), the cursor re-anchors at a fresh
//!    settled front and re-reads only the **not-yet-yielded suffix**; the
//!    yielded prefix is never revisited. The cursor reports the downgrade
//!    through [`ScanConsistency`]: [`Snapshot`](ScanConsistency::Snapshot)
//!    while every chunk validated at the original token,
//!    [`Resumed`](ScanConsistency::Resumed) once any chunk had to
//!    re-anchor. A `Resumed` drain is still duplicate-free and ordered, and
//!    every yielded entry comes from a front-validated read — but the
//!    single-instant claim is lost, and a chunk that re-anchored *mid-way*
//!    may stitch validated reads taken at different fronts: a failed read
//!    is discarded whole, but the promise is per read, not per chunk. (A
//!    validation failure *before anything was yielded* does not degrade:
//!    the fresh front simply becomes the cursor's token, since an empty
//!    prefix is a snapshot of any state. Such restarts are bounded: past
//!    the bound the cursor degrades like any later failure and keeps what
//!    it has read.)
//!
//! # Implementations
//!
//! One cursor implements the model: `wft_core::MergeCursor`, a streaming
//! merge over a per-shard watermark cut that drains shard after shard in
//! key order. Each backend read is one limit-bounded collect of
//! `[resume_key, hi]` in one shard (`O(log N + limit)`, early-exiting after
//! `limit` leaves), validated against that shard's watermark, so only the
//! touched, not-yet-drained shards can disturb a scan. The wait-free tree
//! and trie are a one-shard cut (`wft_core::TreeScanCursor`); the sharded
//! store is a cut of its shards (`wft_store::StoreScanCursor`), and the
//! durable store hands out the store's cursor. The baselines do not
//! implement [`RangeScan`]. The cursor, its read-ahead buffer and the cut
//! protocol it shares with the token reads of [`SnapshotRead`] are
//! implementation, not interface: they live in `wft_core::scan` and
//! `wft_core::cut`.
//!
//! # Why the sandwich argument carries over from `SnapshotRead`
//!
//! Chunk `i` is read between two observations of the front equal to the
//! token's. Fronts are monotone and advance before an update's effect is
//! visible, so the abstract state was constant across every such window,
//! and equal to the state at the token's (settled) acquisition instant.
//! All chunks of a `Snapshot` drain therefore read **the same state**, and
//! keyset pagination makes their concatenation exactly `collect_range` of
//! that state — the drain linearizes at the acquisition instant, regardless
//! of how much wall-clock time separates the chunks. On validation failure
//! nothing of the failed chunk is yielded; the re-read anchors a new window
//! for the suffix only.
//!
//! # Adaptive read-ahead
//!
//! A caller paginating with small chunks would pay one full validation
//! sandwich (and one `O(log N + limit)` descent) per tiny chunk. The
//! cursor therefore decouples the *backend* read size from the *caller*
//! chunk size: each backend read targets the caller's shortfall widened to
//! an adaptive read-ahead that doubles after every validated read (up to a
//! cap of 4096 entries in `wft_core::scan`) and collapses back to
//! exactly-requested on a validation failure — wide reads widen the
//! validation window, so under churn they would only fail repeatedly.
//! Surplus entries wait in the cursor's read-ahead buffer; they passed the
//! same sandwich as directly yielded entries, and a pre-yield re-anchor
//! discards them (rewinding the resume key over the buffer) so the
//! `Snapshot` claim never rests on a read validated at a dead front.
//!
//! The buffer is where a backend read lands and where chunks are cut from,
//! so an entry is copied out of the backend once and, at most, once more
//! into a chunk: a chunk that takes everything buffered leaves by move.

use wft_seq::Value;

use crate::range::{RangeKey, RangeRead, RangeSpec};
// Not called here; the consistency-model docs link to it.
#[allow(unused_imports)]
use crate::snapshot::SnapshotRead;
use crate::snapshot::SnapshotToken;

/// How a cursor's drain relates to its acquired [`SnapshotToken`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanConsistency {
    /// Every yielded chunk validated at the cursor's
    /// [`token`](ScanCursor::token): the entries yielded so far are a
    /// single atomic snapshot — a full drain equals one
    /// [`SnapshotRead::collect_range_at`] of the token.
    Snapshot,
    /// At least one chunk failed validation and the cursor re-anchored at a
    /// fresh front for the not-yet-yielded suffix. The drain is still
    /// duplicate-free and in ascending key order, and every yielded entry
    /// came from a front-validated read — but the chunks no longer describe
    /// one instant, and a chunk that re-anchored mid-way may stitch reads
    /// taken at different fronts (see the [module docs](self): the promise
    /// is per read, not per chunk).
    Resumed,
}

/// A streaming cursor over one key range: entries in ascending key order,
/// in caller-bounded chunks, with keyset pagination and per-chunk snapshot
/// validation. Produced by [`RangeScan::scan`]; see the [module docs](self)
/// for the consistency model.
pub trait ScanCursor<K: RangeKey, V: Value> {
    /// Yields the next (up to) `limit` entries of the range, in ascending
    /// key order, strictly after every previously yielded key. An empty
    /// vector means the range is exhausted (so does `limit == 0`, which
    /// yields nothing without advancing). Blocks only for the
    /// re-validation loop: a retry implies a concurrent update linearized.
    /// (The sharded store's per-shard read also waits while an update at or
    /// below its cut finishes its descent; see `wft_store::front`.)
    fn next_chunk(&mut self, limit: usize) -> Vec<(K, V)>;

    /// The snapshot token the drain is anchored at: acquired when the
    /// cursor was opened, and refreshed by re-anchors that happen before
    /// anything was yielded (an empty prefix is trivially a snapshot of
    /// any state, so such re-anchors keep the drain `Snapshot` against the
    /// fresh token instead of degrading it). While
    /// [`consistency`](ScanCursor::consistency) is
    /// [`ScanConsistency::Snapshot`], everything yielded equals a prefix of
    /// [`SnapshotRead::collect_range_at`] at this token.
    fn token(&self) -> SnapshotToken;

    /// [`ScanConsistency::Snapshot`] while every chunk validated at the
    /// original token; [`ScanConsistency::Resumed`] after any re-anchor.
    fn consistency(&self) -> ScanConsistency;

    /// Number of re-anchors performed (0 while
    /// [`ScanConsistency::Snapshot`]).
    fn resumes(&self) -> u64;

    /// `true` once the cursor has yielded every entry of its range.
    fn is_exhausted(&self) -> bool;

    /// Drains the remainder of the cursor in `limit`-sized chunks and
    /// returns the concatenation (a convenience for tests and one-shot
    /// callers; production pagination calls
    /// [`next_chunk`](ScanCursor::next_chunk) per page).
    ///
    /// # Panics
    ///
    /// Panics when `limit == 0`: a zero chunk can never drain anything, and
    /// silently returning an empty vec would present "nothing" as a
    /// complete listing (`next_chunk(0)` itself stays a non-advancing
    /// no-op for callers that probe).
    fn drain(&mut self, limit: usize) -> Vec<(K, V)>
    where
        Self: Sized,
    {
        assert!(limit > 0, "draining a scan cursor needs a positive chunk");
        // The first chunk becomes the listing; later ones are appended.
        let mut out = self.next_chunk(limit);
        loop {
            let chunk = self.next_chunk(limit);
            if chunk.is_empty() {
                return out;
            }
            out.extend(chunk);
        }
    }
}

/// Streaming snapshot-consistent range scans — the first-class read API for
/// paginated and memory-bounded range consumption.
///
/// See the [module docs](self) for the consistency model. The provided
/// drivers package the two common call shapes: one full drain reporting its
/// outcome ([`scan_collect`](RangeScan::scan_collect)), and a retrying
/// drain that insists on a single-snapshot result
/// ([`scan_snapshot`](RangeScan::scan_snapshot)).
///
/// ```
/// use wft_api::{RangeScan, RangeSpec, ScanConsistency, ScanCursor};
/// use wft_core::WaitFreeTree;
///
/// let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..100).map(|k| (k, ())));
///
/// // Page through [10, 59] five keys at a time.
/// let mut cursor = tree.scan(RangeSpec::from_bounds(10..60));
/// let first = cursor.next_chunk(5);
/// assert_eq!(first.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![10, 11, 12, 13, 14]);
///
/// // Keyset pagination: the next chunk starts strictly after key 14.
/// let second = cursor.next_chunk(5);
/// assert_eq!(second.first().map(|(k, _)| *k), Some(15));
///
/// // Quiescent: every chunk validated at the cursor's token.
/// assert_eq!(cursor.consistency(), ScanConsistency::Snapshot);
///
/// // Draining the rest completes the range; 10 keys were already yielded.
/// assert_eq!(cursor.drain(16).len(), 40);
/// assert!(cursor.is_exhausted());
/// ```
pub trait RangeScan<K: RangeKey, V: Value>: RangeRead<K, V> {
    /// The cursor type produced by [`scan`](RangeScan::scan).
    type Cursor<'a>: ScanCursor<K, V>
    where
        Self: 'a;

    /// Opens a streaming cursor over `range`, anchored at a freshly
    /// acquired snapshot token. Opening is cheap (no entries are read until
    /// the first [`next_chunk`](ScanCursor::next_chunk)).
    fn scan(&self, range: RangeSpec<K>) -> Self::Cursor<'_>;

    /// Drains one cursor over `range` in `limit`-sized chunks, returning
    /// the entries and the drain's [`ScanConsistency`] outcome. Panics
    /// when `limit == 0` (see [`ScanCursor::drain`]).
    fn scan_collect(&self, range: RangeSpec<K>, limit: usize) -> (Vec<(K, V)>, ScanConsistency) {
        let mut cursor = self.scan(range);
        let entries = cursor.drain(limit);
        (entries, cursor.consistency())
    }

    /// Drains cursors over `range` until one completes with
    /// [`ScanConsistency::Snapshot`] — a single-snapshot listing produced
    /// chunk-wise. Lock-free, not wait-free: every abandoned drain implies
    /// concurrent updates linearized (same progress class as
    /// [`SnapshotRead::snapshot_collects`]). Panics when `limit == 0`
    /// (see [`ScanCursor::drain`]).
    fn scan_snapshot(&self, range: RangeSpec<K>, limit: usize) -> Vec<(K, V)> {
        loop {
            let (entries, consistency) = self.scan_collect(range, limit);
            if consistency == ScanConsistency::Snapshot {
                return entries;
            }
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistency_is_plain_data() {
        assert_eq!(ScanConsistency::Snapshot, ScanConsistency::Snapshot);
        assert_ne!(ScanConsistency::Snapshot, ScanConsistency::Resumed);
    }
}
