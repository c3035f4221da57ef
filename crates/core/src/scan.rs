//! The tree's streaming scan cursor: [`wft_api::RangeScan`] for
//! [`WaitFreeTree`] (and so for the trie, the same engine in its `Radix`
//! shape).
//!
//! A chunk is one [`collect_range_limited`](WaitFreeTree::collect_range_limited)
//! of `[resume_key, hi]` — `O(log N + limit)` on the fast path, the
//! descriptor fallback kept — read inside the same sandwich as the tree's
//! `SnapshotRead::collect_range_at`: the front must be settled at the
//! cursor's working front before the read and still be there after it.
//! The consistency model (keyset pagination, per-chunk validation,
//! re-anchoring, adaptive read-ahead) is documented on [`wft_api::scan`].

use wft_api::{
    RangeKey, RangeSpec, ReadAhead, ScanConsistency, ScanCursor, SnapshotRead, SnapshotToken,
    READAHEAD_CAP,
};
use wft_seq::{Augmentation, Value};

use crate::shape::Shape;
use crate::tree::WaitFreeTree;

/// The tree's streaming cursor, produced by
/// [`RangeScan::scan`](wft_api::RangeScan::scan). Each chunk discards a
/// failed attempt whole, so every chunk is one linearizable read of its
/// suffix, even after the drain degraded to
/// [`ScanConsistency::Resumed`].
pub struct TreeScanCursor<'a, K: RangeKey, V: Value, A: Augmentation<K, V>, S: Shape<K>> {
    tree: &'a WaitFreeTree<K, V, A, S>,
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
    /// Lower bound of the next tree read — the first key neither yielded
    /// nor buffered; `None` once the suffix is exhausted.
    resume: Option<K>,
    /// Validated entries read ahead of the caller: every buffered entry
    /// passed the same sandwich as a directly yielded one. A pre-yield
    /// re-anchor discards the buffer and rewinds `resume` over it, so the
    /// `Snapshot` claim never rests on entries validated at a dead front.
    buffer: ReadAhead<K, V>,
    /// Adaptive read-ahead target: grows (×2, capped at [`READAHEAD_CAP`])
    /// after every validated read, resets to 0 on a validation failure.
    readahead: usize,
    /// Whether any entry has been yielded to the caller yet.
    yielded: bool,
    consistency: ScanConsistency,
    resumes: u64,
}

impl<'a, K, V, A, S> TreeScanCursor<'a, K, V, A, S>
where
    K: RangeKey,
    V: Value,
    A: Augmentation<K, V>,
    S: Shape<K>,
{
    /// Opens a cursor over `range`, anchored at a freshly settled front.
    pub(crate) fn new(tree: &'a WaitFreeTree<K, V, A, S>, range: RangeSpec<K>) -> Self {
        let token = tree.acquire_snapshot();
        let (resume, hi) = match range.to_closed() {
            Some((lo, hi)) => (Some(lo), hi),
            // Empty/inverted range: born exhausted (`hi` is never read).
            None => (None, K::MIN_KEY),
        };
        TreeScanCursor {
            tree,
            token,
            working_front: token,
            hi,
            resume,
            buffer: ReadAhead::new(),
            readahead: 0,
            yielded: false,
            consistency: ScanConsistency::Snapshot,
            resumes: 0,
        }
    }

    /// One sandwich attempt: reads the next chunk (the caller's shortfall,
    /// widened to the adaptive read-ahead target) into the buffer, or
    /// re-anchors on validation failure.
    fn fill(&mut self, limit: usize) {
        let Some(lo) = self.resume else {
            return;
        };
        let want = limit.saturating_sub(self.buffer.len()).max(self.readahead);
        let (tree, hi) = (self.tree, self.hi);
        if let Some(chunk) = tree.read_at_token(&self.working_front, || {
            tree.collect_range_limited(lo, hi, want)
        }) {
            // Validated: commit the pagination point. A short chunk proves
            // the suffix is exhausted; a full one resumes strictly after
            // its last key. The validated read earns a doubled read-ahead
            // target for the next fill.
            self.resume = if chunk.len() < want {
                None
            } else {
                chunk
                    .last()
                    .and_then(|(k, _)| k.successor())
                    .filter(|next| *next <= hi)
            };
            self.buffer.push(chunk);
            self.readahead = want.saturating_mul(2).min(READAHEAD_CAP);
            return;
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
        let fresh = tree.acquire_snapshot();
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

impl<K, V, A, S> ScanCursor<K, V> for TreeScanCursor<'_, K, V, A, S>
where
    K: RangeKey,
    V: Value,
    A: Augmentation<K, V>,
    S: Shape<K>,
{
    fn next_chunk(&mut self, limit: usize) -> Vec<(K, V)> {
        if limit == 0 {
            return Vec::new();
        }
        // Top the buffer up to the caller's chunk (each fill is one
        // sandwiched tree read — possibly wider than the shortfall, per
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
