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
//!    [`TimestampFront`] validation sandwich against the cursor's acquired
//!    [`SnapshotToken`]. While the token stays valid, a full drain is
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
//!    may stitch validated reads taken at different fronts (the shared
//!    [`FrontScanCursor`] discards failed attempts whole, so each of its
//!    chunks is one linearizable read of its suffix; a sharded merge
//!    cursor validates per shard and makes no such per-chunk promise —
//!    only per-read). (A validation
//!    failure *before anything was yielded* does not degrade: the fresh
//!    front simply becomes the cursor's token, since an empty prefix is a
//!    snapshot of any state.)
//!
//! # The shared cursor and the chunk primitive
//!
//! Like [`SnapshotRead`], the whole capability derives from small
//! primitives. The chunking / validation / pagination logic is written
//! **once**, as [`FrontScanCursor`] over any [`ChunkRead`] +
//! [`TimestampFront`] backend: a chunk is a [`ChunkRead::collect_chunk`] of
//! `[resume_key, hi]` truncated to `limit`, sandwiched between front
//! validations. A single-front backend joins [`RangeScan`] with a one-line
//! delegation (`fn scan(..) { FrontScanCursor::new(self, range) }` — the
//! impl cannot be a blanket because the sharded store, whose scalar front
//! would validate every shard on every chunk, deliberately substitutes its
//! own cursor: a cross-shard streaming merge that opens one per-shard
//! `GlobalFront` cut and drains shard after shard in key order, so only
//! the touched, not-yet-drained shards can disturb a scan).
//!
//! [`ChunkRead::collect_chunk`] defaults to "collect the whole suffix, keep
//! the first `limit`" — correct for every linearizable [`RangeRead`],
//! `O(answer)` per chunk. Backends where chunking pays override it: the
//! wait-free tree and trie answer a chunk in `O(log N + limit)` via their
//! limit-bounded optimistic traversal (`collect_range_limited`,
//! early-exiting after `limit` leaves).
//!
//! # Why the sandwich argument carries over from `SnapshotRead`
//!
//! Chunk `i` is read between two observations of
//! [`front_advertised`](TimestampFront::front_advertised) equal to the
//! token's front. By monotonicity and advertise-before-effect, the abstract
//! state was constant across every such window, and equal to the state at
//! the token's (settled) acquisition instant. All chunks of a `Snapshot`
//! drain therefore read **the same state**, and keyset pagination makes
//! their concatenation exactly `collect_range` of that state — the drain
//! linearizes at the acquisition instant, regardless of how much wall-clock
//! time separates the chunks. On validation failure nothing of the failed
//! chunk is yielded; the re-read anchors a new window for the suffix only.
//!
//! # Adaptive read-ahead
//!
//! A caller paginating with small chunks would pay one full validation
//! sandwich (and one `O(log N + limit)` descent) per tiny chunk. The
//! cursors therefore decouple the *backend* read size from the *caller*
//! chunk size: each backend read targets the caller's shortfall widened to
//! an adaptive read-ahead that doubles after every validated read (capped)
//! and collapses back to exactly-requested on a validation failure — wide
//! reads widen the validation window, so under churn they would only fail
//! repeatedly. Surplus entries wait in a [`ReadAhead`] buffer; they passed
//! the same sandwich as directly yielded entries, and a pre-yield re-anchor
//! discards them (rewinding the resume key over the buffer) so the
//! `Snapshot` claim never rests on a read validated at a dead front.
//!
//! The buffer is where a backend read lands and where chunks are cut from,
//! so an entry is copied out of the backend once and, at most, once more
//! into a chunk: a chunk that takes everything buffered leaves by move.

use std::marker::PhantomData;

use wft_seq::Value;

use crate::range::{RangeKey, RangeRead, RangeSpec};
// `SnapshotRead` is no longer called here (cursors build tokens from
// `settle_front` directly, so backends without the `FrontSnapshot` marker
// can scan), but the module's consistency-model docs link to it heavily.
#[allow(unused_imports)]
use crate::snapshot::SnapshotRead;
use crate::snapshot::{SnapshotToken, TimestampFront};

/// Upper bound on a cursor's adaptive read-ahead target (entries buffered
/// beyond what the caller asked for). Bounds both the memory a cursor can
/// hold and the work a single validation window must cover. Shared by
/// [`FrontScanCursor`] and the sharded store's native cursor.
pub const READAHEAD_CAP: usize = 4096;

/// A scan cursor's read-ahead buffer: validated entries in ascending key
/// order, read from the backend ahead of the caller and handed out in
/// chunks. Shared by [`FrontScanCursor`] and the sharded store's native
/// cursor.
///
/// It is one vector plus the length of its already-handed-out prefix, so a
/// backend read appends straight into it and a chunk costs at most one
/// slice copy: a chunk that takes everything still buffered takes the
/// vector itself. The consumed prefix is dropped before the next append
/// ([`entries_mut`](ReadAhead::entries_mut)).
#[derive(Debug)]
pub struct ReadAhead<K, V> {
    entries: Vec<(K, V)>,
    /// Entries `..consumed` have been handed out.
    consumed: usize,
}

impl<K: RangeKey, V: Value> ReadAhead<K, V> {
    /// An empty buffer; allocates nothing until the first read lands.
    pub fn new() -> Self {
        ReadAhead {
            entries: Vec::new(),
            consumed: 0,
        }
    }

    /// Entries buffered and not yet handed out.
    pub fn len(&self) -> usize {
        self.entries.len() - self.consumed
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The smallest buffered key: where a pre-yield re-anchor rewinds to.
    pub fn first_key(&self) -> Option<K> {
        self.entries.get(self.consumed).map(|(k, _)| *k)
    }

    /// Discards every buffered entry (keeping the allocation).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.consumed = 0;
    }

    /// The buffered entries as a vector to append a validated read to.
    /// Holds exactly the not-yet-handed-out entries: the consumed prefix is
    /// dropped first, so the buffer never grows by more than a read.
    pub fn entries_mut(&mut self) -> &mut Vec<(K, V)> {
        self.entries.drain(..self.consumed);
        self.consumed = 0;
        &mut self.entries
    }

    /// Appends a validated read; adopted without a copy while the buffer is
    /// empty.
    pub fn push(&mut self, mut read: Vec<(K, V)>) {
        if self.is_empty() {
            self.entries = read;
            self.consumed = 0;
        } else {
            self.entries_mut().append(&mut read);
        }
    }

    /// Hands out the (up to) `limit` smallest buffered entries. A chunk
    /// that takes everything left leaves by move (the vector itself, its
    /// consumed prefix dropped); a shorter one is one slice copy.
    pub fn take(&mut self, limit: usize) -> Vec<(K, V)> {
        let end = self.consumed.saturating_add(limit);
        if end >= self.entries.len() {
            let mut chunk = std::mem::take(&mut self.entries);
            chunk.drain(..self.consumed);
            self.consumed = 0;
            chunk
        } else {
            let chunk = self.entries[self.consumed..end].to_vec();
            self.consumed = end;
            chunk
        }
    }
}

impl<K: RangeKey, V: Value> Default for ReadAhead<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

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
    /// taken at different fronts (see the [module docs](self) on which
    /// cursors promise per-chunk linearizability).
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
    /// yields nothing without advancing). Blocks only for the lock-free
    /// re-validation loop: a retry implies a concurrent update linearized.
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

/// The limit-bounded listing primitive behind the blanket scan cursor.
///
/// `collect_chunk(min, max, limit)` returns the `limit` **smallest** entries
/// of `[min, max]` in ascending key order (fewer when the range holds
/// fewer). The default implementation collects the whole closed range and
/// truncates — correct for every linearizable [`RangeRead`], `O(answer)`
/// per chunk. Backends with a native limit-bounded query override it
/// (`wft-core` / `wft-trie` answer in `O(log N + limit)` via the optimistic
/// traversal's early exit).
///
/// The method itself makes no snapshot promise; [`FrontScanCursor`] supplies
/// the validation sandwich around it.
pub trait ChunkRead<K: RangeKey, V: Value>: RangeRead<K, V> {
    /// The `limit` smallest entries of the closed range `[min, max]`, in
    /// ascending key order. `min > max` or `limit == 0` yields nothing.
    fn collect_chunk(&self, min: K, max: K, limit: usize) -> Vec<(K, V)> {
        if limit == 0 {
            return Vec::new();
        }
        let mut entries = self.collect_range(RangeSpec::inclusive(min, max));
        entries.truncate(limit);
        entries
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

/// The shared streaming cursor over any single-front
/// ([`ChunkRead`] + [`TimestampFront`]) backend: chunks are
/// [`ChunkRead::collect_chunk`] reads of the not-yet-yielded suffix,
/// validated against the cursor's token exactly like the
/// [`SnapshotRead`] blanket's `*_at` reads, with keyset pagination and
/// transparent re-anchoring. Backends implement [`RangeScan`] by handing
/// [`FrontScanCursor::new`] out of [`RangeScan::scan`]; the cursor logic
/// itself lives only here. See the [module docs](self).
pub struct FrontScanCursor<'a, T, K, V> {
    backend: &'a T,
    /// The token the drain is anchored at. While nothing has been yielded
    /// a re-anchor simply *replaces* it (the Snapshot claim is vacuous over
    /// an empty prefix, so the drain stays `Snapshot` against the fresh
    /// token); once an entry is out, re-anchoring moves only the *working*
    /// front below and degrades the drain to `Resumed`.
    token: SnapshotToken,
    /// The front chunks currently validate against (`== token` until the
    /// first post-yield re-anchor).
    working_front: SnapshotToken,
    /// Inclusive upper end of the scan range.
    hi: K,
    /// Lower bound of the next *backend* read — the first key neither
    /// yielded nor buffered; `None` once the backend suffix is exhausted.
    resume: Option<K>,
    /// Validated entries read ahead of the caller (the adaptive chunk
    /// sizing below): every buffered entry passed the same sandwich as a
    /// directly yielded one. A pre-yield re-anchor discards the buffer and
    /// rewinds `resume` over it, so the `Snapshot` claim never rests on
    /// entries validated at a dead front.
    buffer: ReadAhead<K, V>,
    /// Adaptive read-ahead target: grows (×2, capped at
    /// [`READAHEAD_CAP`]) after every validated backend read, resets to 0
    /// on a validation failure — small caller chunks amortise into few
    /// large backend reads while the front is quiet, and fall back to
    /// exactly-requested reads under churn (a large read widens the
    /// validation window and would keep failing).
    readahead: usize,
    /// Whether any entry has been yielded to the caller yet.
    yielded: bool,
    consistency: ScanConsistency,
    resumes: u64,
    _values: PhantomData<fn() -> V>,
}

impl<'a, T, K, V> FrontScanCursor<'a, T, K, V>
where
    T: ChunkRead<K, V> + TimestampFront,
    K: RangeKey,
    V: Value,
{
    /// Opens a cursor over `range`, acquiring a settled snapshot token.
    /// (The token is built from [`TimestampFront::settle_front`] directly —
    /// the same acquisition the blanket [`SnapshotRead`] performs — so the
    /// cursor works for backends with or without the
    /// [`FrontSnapshot`](crate::FrontSnapshot) marker.)
    pub fn new(backend: &'a T, range: RangeSpec<K>) -> Self {
        let token = SnapshotToken::new(backend.settle_front());
        let (resume, hi) = match range.to_closed() {
            Some((lo, hi)) => (Some(lo), hi),
            // Empty/inverted range: born exhausted (`hi` is never read).
            None => (None, K::MIN_KEY),
        };
        FrontScanCursor {
            backend,
            token,
            working_front: token,
            hi,
            resume,
            buffer: ReadAhead::new(),
            readahead: 0,
            yielded: false,
            consistency: ScanConsistency::Snapshot,
            resumes: 0,
            _values: PhantomData,
        }
    }

    /// `true` while the working front is settled at — and unchanged since —
    /// `front` (the entry half of the sandwich; forged/stale fronts fail).
    fn front_holds(&self, front: SnapshotToken) -> bool {
        self.backend.front_resolved() == front.front()
            && self.backend.front_advertised() == front.front()
    }

    /// One sandwich attempt: reads the next backend chunk (the caller's
    /// shortfall, widened to the adaptive read-ahead target) into the
    /// buffer, or re-anchors on validation failure.
    fn fill(&mut self, limit: usize) {
        let Some(lo) = self.resume else {
            return;
        };
        let want = limit.saturating_sub(self.buffer.len()).max(self.readahead);
        // Sandwich: entry validation, suffix chunk, exit validation —
        // the same window argument as `SnapshotRead::collect_range_at`.
        if self.front_holds(self.working_front) {
            let chunk = self.backend.collect_chunk(lo, self.hi, want);
            if self.backend.front_advertised() == self.working_front.front() {
                // Validated: commit the pagination point. A short chunk
                // proves the suffix is exhausted; a full one resumes
                // strictly after its last key. The validated read earns a
                // doubled read-ahead target for the next fill.
                self.resume = if chunk.len() < want {
                    None
                } else {
                    chunk
                        .last()
                        .and_then(|(k, _)| k.successor())
                        .filter(|next| *next <= self.hi)
                };
                self.buffer.push(chunk);
                self.readahead = want.saturating_mul(2).min(READAHEAD_CAP);
                return;
            }
        }
        // The front moved (or was not settled): re-anchor at a fresh
        // settled front and shrink the read-ahead back to exactly-requested
        // reads. Nothing of the failed attempt entered the buffer. While
        // the caller has seen nothing at all the fresh front simply
        // *becomes* the cursor's token and the read-ahead buffer is
        // discarded (rewinding `resume` over it): an empty yielded prefix
        // is trivially a snapshot of any state, but the buffered entries
        // were validated at the dead front and the drain now owes the new
        // token a fresh read of them. Once an entry is out, the yielded
        // prefix is never re-read and the scan degrades to `Resumed`
        // instead of blocking writers — buffered entries stay (each was a
        // front-validated read, which is all `Resumed` promises).
        self.readahead = 0;
        let fresh = SnapshotToken::new(self.backend.settle_front());
        self.working_front = fresh;
        if self.yielded {
            self.consistency = ScanConsistency::Resumed;
            self.resumes += 1;
        } else {
            if let Some(k) = self.buffer.first_key() {
                self.resume = Some(k);
            }
            self.buffer.clear();
            self.token = fresh;
        }
        std::hint::spin_loop();
    }
}

impl<T, K, V> ScanCursor<K, V> for FrontScanCursor<'_, T, K, V>
where
    T: ChunkRead<K, V> + TimestampFront,
    K: RangeKey,
    V: Value,
{
    fn next_chunk(&mut self, limit: usize) -> Vec<(K, V)> {
        if limit == 0 {
            return Vec::new();
        }
        // Top the buffer up to the caller's chunk (each fill is one
        // sandwiched backend read — possibly wider than the shortfall, per
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_ahead_hands_out_in_order_and_drops_what_it_handed_out() {
        let mut buffer: ReadAhead<i64, ()> = ReadAhead::new();
        assert!(buffer.take(4).is_empty());
        buffer.push((0..10).map(|k| (k, ())).collect());
        assert_eq!(buffer.first_key(), Some(0));
        // A part of the buffer is a slice copy; the rest leaves whole.
        assert_eq!(buffer.take(3), (0..3).map(|k| (k, ())).collect::<Vec<_>>());
        assert_eq!((buffer.len(), buffer.first_key()), (7, Some(3)));
        buffer.push((10..20).map(|k| (k, ())).collect());
        assert_eq!(
            buffer.entries_mut().len(),
            17,
            "the handed-out prefix is dropped"
        );
        buffer.entries_mut().push((20, ()));
        assert_eq!(
            buffer.take(100),
            (3..21).map(|k| (k, ())).collect::<Vec<_>>()
        );
        assert!(buffer.is_empty());
        buffer.push(vec![(30, ())]);
        buffer.clear();
        assert_eq!((buffer.len(), buffer.first_key()), (0, None));
    }

    #[test]
    fn consistency_is_plain_data() {
        assert_eq!(ScanConsistency::Snapshot, ScanConsistency::Snapshot);
        assert_ne!(ScanConsistency::Snapshot, ScanConsistency::Resumed);
    }
}
