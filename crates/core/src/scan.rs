//! The one streaming scan cursor: [`wft_api::RangeScan`] for the tree (and
//! so the trie) and for the sharded store, as a merge over a per-shard
//! watermark cut ([`ScanCut`]). A tree is one shard with no split keys.
//!
//! * **Open**: settle one watermark per shard — the cut, whose sum is the
//!   cursor's [`SnapshotToken`]. Nothing is read yet.
//! * **Chunk**: shards own disjoint ascending key slices, so the merge is a
//!   concatenation. A pass reads the shard owning the resume key with one
//!   front-validated, limit-bounded read (`O(log n + limit)`) at its
//!   watermark, and steps into the next shard when that one runs dry.
//! * **Resume**: a read fails only when its shard advanced past the cut.
//!   The cursor re-settles the not-yet-drained shards only, degrades to
//!   [`ScanConsistency::Resumed`] and retries the shard. Writes to drained
//!   shards or to shards outside the range never disturb a scan.
//! * **Pre-yield restart**: while nothing has been yielded, an expiry
//!   instead re-acquires a whole fresh cut and token and rewinds the merge
//!   to the first key the caller has not seen (an empty prefix is a
//!   snapshot of any state, but shards stepped over were read at the old
//!   cut). Each restart discards the pass, so they are bounded
//!   (`PRE_YIELD_RESTARTS`); past the bound the cursor degrades to
//!   `Resumed` and keeps its progress, so restarts cannot starve a first
//!   chunk. On one shard, where a read is all-or-nothing, there is no
//!   progress to keep and the bound changes only the label.
//!
//! While a drain stays [`ScanConsistency::Snapshot`] every read validated
//! at the original cut, so each touched shard held its cut state from
//! acquisition until its drain completed: the drain equals one
//! `collect_range` at the acquisition instant. The model is documented on
//! [`wft_api::scan`], the argument in `DESIGN.md` ("Streaming scans").

use wft_api::{RangeKey, RangeScan, RangeSpec, ScanConsistency, ScanCursor, SnapshotToken};
use wft_seq::{Augmentation, Value};

use crate::cut::{token_of, ScanCut};
use crate::shape::Shape;
use crate::tree::WaitFreeTree;

/// Pre-yield fresh-cut restarts before a cursor degrades to `Resumed`
/// instead: every restart implies an update linearized (lock-free, not
/// wait-free), so without a bound a write storm starves the first chunk.
const PRE_YIELD_RESTARTS: u64 = 16;

/// Upper bound on a cursor's adaptive read-ahead target (entries buffered
/// beyond what the caller asked for). Bounds both the memory a cursor can
/// hold and the work a single validation window must cover.
pub const READAHEAD_CAP: usize = 4096;

/// A scan cursor's read-ahead buffer: validated entries in ascending key
/// order, read from the backend ahead of the caller and handed out in
/// chunks. It is the buffer of [`MergeCursor`].
///
/// It is one vector plus the length of its already-handed-out prefix, so a
/// backend read appends straight into it and a chunk costs at most one
/// slice copy: a chunk that takes everything still buffered takes the
/// vector itself. The consumed prefix is dropped before the next append
/// ([`entries_mut`](ReadAhead::entries_mut)).
#[derive(Debug)]
pub(crate) struct ReadAhead<K, V> {
    entries: Vec<(K, V)>,
    /// Entries `..consumed` have been handed out.
    consumed: usize,
}

impl<K: RangeKey, V: Value> ReadAhead<K, V> {
    /// An empty buffer; allocates nothing until the first read lands.
    fn new() -> Self {
        ReadAhead {
            entries: Vec::new(),
            consumed: 0,
        }
    }

    /// Entries buffered and not yet handed out.
    fn len(&self) -> usize {
        self.entries.len() - self.consumed
    }

    /// `true` when nothing is buffered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffered entries as a vector to append a validated read to.
    /// Holds exactly the not-yet-handed-out entries: the consumed prefix is
    /// dropped first, so the buffer never grows by more than a read.
    fn entries_mut(&mut self) -> &mut Vec<(K, V)> {
        self.entries.drain(..self.consumed);
        self.consumed = 0;
        &mut self.entries
    }

    /// Hands out the (up to) `limit` smallest buffered entries. A chunk
    /// that takes everything left leaves by move (the vector itself, its
    /// consumed prefix dropped); a shorter one is one slice copy.
    fn take(&mut self, limit: usize) -> Vec<(K, V)> {
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

impl<K, V, A, S> RangeScan<K, V> for WaitFreeTree<K, V, A, S>
where
    K: RangeKey,
    V: Value,
    A: Augmentation<K, V>,
    S: Shape<K>,
{
    type Cursor<'a>
        = TreeScanCursor<'a, K, V, A, S>
    where
        Self: 'a;

    fn scan(&self, range: RangeSpec<K>) -> TreeScanCursor<'_, K, V, A, S> {
        MergeCursor::new(self, range)
    }
}

/// The tree's (and the trie's) cursor.
pub type TreeScanCursor<'a, K, V, A, S> = MergeCursor<'a, K, V, WaitFreeTree<K, V, A, S>>;

/// The streaming cursor: keyset pagination, shard after shard, at one
/// per-shard watermark cut; see the [module docs](self).
pub struct MergeCursor<'a, K, V, C> {
    source: &'a C,
    /// `cut[i]` is shard `i`'s watermark; a resume refreshes the
    /// not-yet-drained shards' entries.
    cut: Vec<u64>,
    /// The sum of the cut the drain is anchored at.
    token: SnapshotToken,
    /// Inclusive upper end of the range, and the shard owning it.
    hi: K,
    last_shard: usize,
    /// The first key neither yielded nor buffered; `None` once exhausted.
    resume: Option<K>,
    /// Validated entries read ahead of the caller. A pre-yield restart
    /// discards them and rewinds `resume` over them, so a `Snapshot` claim
    /// never rests on a read at a dead cut; after that they survive
    /// expiries, as `Resumed` promises per-read validation only.
    buffer: ReadAhead<K, V>,
    /// Adaptive read-ahead target: doubles (capped at [`READAHEAD_CAP`])
    /// after a pass that validated throughout, resets to 0 on an expiry.
    readahead: usize,
    yielded: bool,
    restarts: u64,
    consistency: ScanConsistency,
    resumes: u64,
}

impl<'a, K, V, C> MergeCursor<'a, K, V, C>
where
    K: RangeKey,
    V: Value,
    C: ScanCut<K, V>,
{
    /// Opens a cursor over `range`, anchored at a freshly settled cut.
    pub fn new(source: &'a C, range: RangeSpec<K>) -> Self {
        let cut = source.settle(0, source.shards() - 1);
        let (resume, hi) = match range.to_closed() {
            Some((lo, hi)) => (Some(lo), hi),
            // Empty/inverted range: born exhausted (`hi` is never read).
            None => (None, K::MIN_KEY),
        };
        MergeCursor {
            source,
            token: token_of(&cut),
            cut,
            hi,
            last_shard: source.shard_of(&hi),
            resume,
            buffer: ReadAhead::new(),
            readahead: 0,
            yielded: false,
            restarts: 0,
            consistency: ScanConsistency::Snapshot,
            resumes: 0,
        }
    }

    /// One merge pass at the current cut: reads the caller's shortfall,
    /// widened to the read-ahead target, straight into the buffer.
    fn fill(&mut self, limit: usize) {
        let Some(lo) = self.resume else {
            return;
        };
        let source = self.source;
        let target = limit
            .saturating_sub(self.buffer.len())
            .max(self.readahead)
            .max(1);
        // The pass appends behind the `kept` entries already buffered.
        let out = self.buffer.entries_mut();
        let kept = out.len();
        out.reserve(target.min(READAHEAD_CAP));
        let mut shard = source.shard_of(&lo);
        let mut shard_lo = lo;
        let mut expired = false;
        while out.len() - kept < target && shard <= self.last_shard {
            let want = target - (out.len() - kept);
            let before = out.len();
            if source.read(shard, shard_lo, self.hi, want, self.cut[shard], out) {
                if out.len() - before < want {
                    // The shard is drained at the cut: step into the next
                    // slice, whose keys exceed every key read so far.
                    shard += 1;
                    if shard <= self.last_shard {
                        shard_lo = source.shard_start(shard);
                    }
                }
            } else if self.yielded || self.restarts >= PRE_YIELD_RESTARTS {
                // Resume: re-settle the not-yet-drained shards and retry
                // this one. What this pass read stays (one `Resumed` chunk
                // may stitch reads at different cuts, see `wft_api::scan`).
                let fresh = source.settle(shard, self.last_shard);
                self.cut[shard..=self.last_shard].copy_from_slice(&fresh);
                source.note_resume(shard);
                self.consistency = ScanConsistency::Resumed;
                self.resumes += 1;
                expired = true;
                std::hint::spin_loop();
            } else {
                // Restart: nothing is yielded, so drop the pass and the
                // buffer and re-anchor at a whole fresh cut; the drain stays
                // `Snapshot` against the new token. Rewind to the first key
                // the caller has not seen: every shard from there was read
                // at the old cut.
                self.restarts += 1;
                source.note_restart(shard);
                let restart = if kept > 0 { out[0].0 } else { lo };
                out.clear();
                self.cut = source.settle(0, source.shards() - 1);
                self.token = token_of(&self.cut);
                self.resume = Some(restart);
                self.readahead = 0;
                std::hint::spin_loop();
                return;
            }
        }
        // A short pass proves exhaustion; a full one resumes strictly after
        // its last key.
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

impl<K, V, C> ScanCursor<K, V> for MergeCursor<'_, K, V, C>
where
    K: RangeKey,
    V: Value,
    C: ScanCut<K, V>,
{
    fn next_chunk(&mut self, limit: usize) -> Vec<(K, V)> {
        if limit == 0 {
            return Vec::new();
        }
        // Top the buffer up to the caller's chunk, then hand out `limit`.
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
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    #[test]
    fn read_ahead_hands_out_in_order_and_drops_what_it_handed_out() {
        let mut buffer: ReadAhead<i64, ()> = ReadAhead::new();
        assert!(buffer.take(4).is_empty());
        buffer.entries_mut().extend((0..10).map(|k| (k, ())));
        // A part of the buffer is a slice copy; the rest leaves whole.
        assert_eq!(buffer.take(3), (0..3).map(|k| (k, ())).collect::<Vec<_>>());
        assert_eq!(buffer.len(), 7);
        buffer.entries_mut().extend((10..20).map(|k| (k, ())));
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
    }

    /// A tree cursor's first chunk returns while a writer updates the
    /// scanned range without pause: at most `PRE_YIELD_RESTARTS` restarts,
    /// then the cursor degrades to `Resumed` and keeps reading. The reader
    /// runs on its own thread, so the test fails (never hangs) if its first
    /// chunks take over a minute.
    #[test]
    fn first_chunk_returns_under_a_writer_without_pause() {
        let tree: WaitFreeTree<i64> = WaitFreeTree::from_entries((0..4096).map(|k| (2 * k, ())));
        let (stop, start) = (AtomicBool::new(false), Barrier::new(2));
        let (done, finished) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                let mut k = 1;
                while !stop.load(Ordering::Relaxed) {
                    tree.insert(k, ());
                    tree.remove(&k);
                    k = (k + 2) % 8192;
                }
            });
            let reader = scope.spawn(|| {
                start.wait();
                for _ in 0..200 {
                    let mut cursor = tree.scan(RangeSpec::all());
                    let chunk = cursor.next_chunk(1024);
                    assert_eq!(chunk.len(), 1024);
                    assert!(chunk.windows(2).all(|w| w[0].0 < w[1].0));
                    assert!(cursor.restarts <= PRE_YIELD_RESTARTS);
                }
                done.send(()).unwrap();
            });
            let outcome = finished.recv_timeout(Duration::from_secs(60));
            stop.store(true, Ordering::Relaxed);
            let timeout = Err(mpsc::RecvTimeoutError::Timeout);
            assert_ne!(outcome, timeout, "200 first chunks did not return in 60 s");
            reader.join().unwrap();
        });
    }
}
