//! The global timestamp front: single-snapshot cross-shard reads.
//!
//! Every shard of a [`ShardedStore`] is a `WaitFreeTree` with its own
//! root queue, and every tree maintains a **timestamp front**: an
//! *advertised* watermark that advances before an update's effect can be
//! observed, and a *resolved* watermark that trails it until the update's
//! linearization completes
//! (`WaitFreeTree::{advertised_ts, settle_front, front_unchanged}`). One
//! settled watermark per shard is a *cut* through the store's per-shard
//! linearization orders — the store's global front — and the store's
//! cross-shard reads are executed **at** such a cut. The protocol is
//! written once, in `wft_core::cut`, over the store's [`ScanCut`] impl (the
//! tree's token reads run the same code over one shard); this module holds
//! what the store plugs in:
//!
//! 1. **Acquire**: settle every touched shard's front (`settle_front`,
//!    helping any mid-linearization update to completion — lock-free) and
//!    record the per-shard watermarks.
//! 2. **Read**: answer each shard's sub-query with the tree's optimistic
//!    range read, *front-validated* on both sides (`range_agg_at_front` /
//!    `collect_range_limited_at_front` under `read_at_cut`): the result
//!    is returned only if the shard's advertised watermark still equals
//!    the front.
//! 3. **Retry**: if any shard advanced past its front mid-read, the whole
//!    attempt is discarded and the read re-acquires a fresh cut. A shard
//!    that is merely *busy* — front unchanged, an operation mid-flight
//!    below its root — is re-read at the same cut after a backoff
//!    (`read_at_cut`); that is not a retry and is not counted as one.
//!
//! # Why a validated cut is a single snapshot
//!
//! Per shard `i`, `settle_front` observed an instant `t_i` with no update
//! mid-linearization and watermark `f_i`; the successful validation at the
//! end of the shard's sub-query observed `advertised == f_i` at some later
//! instant `v_i`. Watermarks are monotone and advance *before* visibility,
//! so shard `i`'s abstract state was constant — equal to its state at
//! `f_i` — throughout `[t_i, v_i]`. All acquisitions complete before any
//! sub-query starts, hence `max_i t_i <= min_i v_i`: at any instant in
//! between, **every** touched shard simultaneously held exactly its
//! front state. The combined result equals the store's state at that
//! instant — the read linearizes there. (Shards are independent; only the
//! watermark sandwich couples them, which is exactly what a
//! validated double-collect couples.)
//!
//! # Scalar tokens
//!
//! The store's [`wft_api::SnapshotRead`] token is one number: the **sum**
//! of an epoch-stable cut over every shard. It names that cut exactly.
//! Watermarks are monotone, so each shard's current advertised watermark is
//! at least its minted one, and the current watermarks sum to the token
//! only while **every** shard still sits at its minted front. A `*_at`
//! read (`wft_core::cut`'s token reads, the tree's too) therefore reads the
//! current advertised watermarks, and if they sum to the token, reads at
//! them as a cut like any cross-shard read; if they do not, the token is
//! stale. The mint was epoch-stable, so the cut splits no atomic batch.
//! The price of one number: a token expires on an update to *any* shard,
//! even one its reads never touch. The plain cross-shard reads and the scan
//! cursor keep the per-shard cut and expire only when a shard they touch
//! advanced.
//!
//! # Progress
//!
//! Acquisition is lock-free (settling helps the pending update), and a
//! validation failure implies a concurrent update linearized — so the
//! retry loop is lock-free but not wait-free: a sustained write storm on a
//! touched shard can starve a cross-shard reader. The
//! `store_snapshot_retries` metric exposes the retry pressure. Only `len()`
//! bounds its cut attempts and then answers with the plain per-shard sum
//! (counted in `store_len_fallbacks`).
//!
//! The per-shard read at the cut is **blocking**. While a shard answers
//! [`FrontMiss::Busy`], `read_at_cut` backs off and re-reads at the same
//! cut, helping nobody: an update at or below the cut is still on its way
//! down, a rebuild is in progress, or another reader's descriptor sits on
//! the path. If that operation's thread stalls and nothing else runs on
//! the shard, the reader never returns — so the cut reads (cross-shard
//! aggregates and collects, token reads, the scan cursor) are not
//! lock-free. The reason is the cost of the alternative: the only read
//! that could help instead is the tree's descriptor-path collect, which is
//! `O(answer)`, and every updater queued behind it re-does it while
//! helping (`DESIGN.md`, "Global snapshot front", has the measurement).
//!
//! Atomic cross-shard **batch commits** add one more coupling on top of the
//! cut: the per-shard commit gate documented on the crate-private
//! `FrontTable`. While a
//! commit window is open on a shard, point ops and cut acquisitions touching
//! that shard wait for its release — so batch effects become visible all at
//! once, never piecemeal (see `DESIGN.md`, "Atomic cross-shard commit").

use std::sync::atomic::{AtomicU64, Ordering};

use wft_core::{FrontMiss, ScanCut, Timestamp};
use wft_obs::Counter;
use wft_seq::{Augmentation, Key, Value};

use crate::store::{shard_trace_arg, ShardedStore};

/// The store-internal front bookkeeping: the per-shard **commit gate**
/// behind atomic cross-shard batches, plus the store's event counters
/// (`wft_obs` cells, reported as `store_*` by the store's `MetricsSource`
/// impl).
///
/// # The commit gate
///
/// Each shard carries a seqlock-style `epoch` (even = open, odd = a batch
/// commit window is in progress) and a `writers` count of in-flight point
/// mutations. A gated commit acquires the epochs of every touched shard in
/// **ascending shard order** (CAS even → odd; ordered acquisition makes
/// concurrent commits deadlock-free), drains the touched shards' writers
/// to zero, applies the batch, and releases the epochs (odd → next even).
/// Point mutations register in `writers` *before* checking the epoch;
/// point reads and cut acquisitions sandwich their work between two
/// matching even-epoch observations. Under `SeqCst` this gives exclusion
/// both ways: a writer that saw an open epoch is visible to the
/// committer's drain, and a committer that closed the epoch is visible to
/// the writer's check — so no point op and no validated cut ever overlaps
/// a commit window on a shard it touches.
pub(crate) struct FrontTable {
    /// Per-shard commit epoch: even = open, odd = commit window.
    epochs: Box<[AtomicU64]>,
    /// Per-shard count of in-flight point mutations.
    writers: Box<[AtomicU64]>,
    /// Batches committed through the gate (`store_batch_commits`).
    pub(crate) batch_commits: Counter,
    /// Global-front acquisitions (`store_snapshot_acquires`).
    pub(crate) acquires: Counter,
    /// Cross-shard read attempts discarded by an expired cut
    /// (`store_snapshot_retries`).
    pub(crate) retries: Counter,
    /// Scan cursors that re-anchored mid-drain (`store_scan_resumes`).
    pub(crate) scan_resumes: Counter,
    /// `len()` calls answered with the stitched sum (`store_len_fallbacks`).
    pub(crate) len_fallbacks: Counter,
    /// Calls that waited once for a commit window to close
    /// (`store_commit_gate_waits`).
    pub(crate) gate_waits: Counter,
}

/// Bounded-friendly wait: spin briefly, then yield the core — commit
/// windows are short, but a preempted committer must not livelock the
/// waiters on small machines.
pub(crate) fn gate_backoff(spins: &mut u32) {
    if *spins < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
    *spins = spins.saturating_add(1);
}

/// One shard read at its cut watermark. While the shard reports
/// [`FrontMiss::Busy`] — its front has not moved, an operation is merely
/// mid-flight below its root — the cut is as good as it was, so the same
/// read is retried through [`gate_backoff`]: nothing is re-settled and
/// nothing is counted. `None` only once the shard advanced past the cut,
/// which proves an update linearized on it.
pub(crate) fn read_at_cut<T>(mut read: impl FnMut() -> Result<T, FrontMiss>) -> Option<T> {
    let mut spins = 0u32;
    loop {
        match read() {
            Ok(out) => return Some(out),
            Err(FrontMiss::Expired) => return None,
            Err(FrontMiss::Busy) => gate_backoff(&mut spins),
        }
    }
}

/// The store as a cut of its shards: what `wft_core::cut` and the merge
/// cursor read through.
impl<K, V, A> ScanCut<K, V> for ShardedStore<K, V, A>
where
    K: Key,
    V: Value,
    A: Augmentation<K, V>,
{
    type Aug = A;

    fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: &K) -> usize {
        ShardedStore::shard_of(self, key)
    }

    fn shard_start(&self, i: usize) -> K {
        self.bounds[i - 1]
    }

    /// Epoch-stable: a cut cannot split an atomic batch commit.
    fn settle(&self, first: usize, last: usize) -> Vec<u64> {
        self.settle_touched_stable(first, last)
    }

    fn advertised(&self, i: usize) -> u64 {
        self.shards[i].advertised_ts().get()
    }

    /// Optimistic-only at the cut; a busy shard is re-read at the same
    /// watermark (`front::read_at_cut`).
    fn read(&self, i: usize, lo: K, hi: K, want: usize, front: u64, out: &mut Vec<(K, V)>) -> bool {
        let tree = &self.shards[i];
        read_at_cut(|| tree.collect_range_limited_at_front(lo, hi, want, Timestamp(front), out))
            .is_some()
    }

    /// Optimistic-only at the cut, like [`read`](ScanCut::read).
    fn read_agg(&self, i: usize, lo: K, hi: K, front: u64) -> Option<A::Agg> {
        read_at_cut(|| self.shards[i].range_agg_at_front(lo, hi, Timestamp(front)))
    }

    /// `store_scan_resumes`, traced with the shard that expired the cut.
    fn note_resume(&self, i: usize) {
        self.front.scan_resumes.inc();
        wft_obs::trace::emit(wft_obs::TraceKind::ScanResume, shard_trace_arg(i));
    }

    /// A discarded read at a cut (a cross-shard or token read, or a
    /// cursor's first pass) is a snapshot retry, not a scan resume.
    fn note_restart(&self, i: usize) {
        self.note_snapshot_retry(i);
    }
}

impl FrontTable {
    pub(crate) fn new(shards: usize) -> Self {
        FrontTable {
            epochs: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            writers: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            batch_commits: Counter::new(),
            acquires: Counter::new(),
            retries: Counter::new(),
            scan_resumes: Counter::new(),
            len_fallbacks: Counter::new(),
            gate_waits: Counter::new(),
        }
    }

    /// The shard's commit epoch if no commit window is open on it.
    pub(crate) fn epoch_open(&self, shard: usize) -> Option<u64> {
        // ORDERING: SeqCst epoch read — entry half of the read sandwich, ordered
        // against the committer's SeqCst epoch bumps.
        // wft-lint: allow(seqcst) -- the sandwich proof needs epoch reads and commit-window bumps in one total order.
        let epoch = self.epochs[shard].load(Ordering::SeqCst);
        epoch.is_multiple_of(2).then_some(epoch)
    }

    /// `true` when the shard's epoch still equals `epoch` — the closing
    /// half of the read sandwich.
    pub(crate) fn epoch_is(&self, shard: usize, epoch: u64) -> bool {
        // ORDERING: SeqCst re-read — unchanged means no commit window touched the
        // shard during the read; exit half of the sandwich.
        // wft-lint: allow(seqcst) -- same total-order argument as epoch_open.
        self.epochs[shard].load(Ordering::SeqCst) == epoch
    }

    /// Registers an in-flight point mutation on `shard`. Must happen
    /// *before* the epoch check (see the commit-gate invariant above).
    pub(crate) fn writer_enter(&self, shard: usize) {
        // ORDERING: SeqCst store half of the writer/committer Dekker handshake —
        // the register must be ordered before the epoch check that follows it.
        // wft-lint: allow(seqcst) -- store-load ordering against begin_commit's writers drain needs the single total order.
        self.writers[shard].fetch_add(1, Ordering::SeqCst);
    }

    /// Deregisters a point mutation (applied or backed off).
    pub(crate) fn writer_exit(&self, shard: usize) {
        // ORDERING: SeqCst keeps the deregister ordered after the shard mutation
        // in the same total order the commit gate's drain scan reads.
        // wft-lint: allow(seqcst) -- symmetric with writer_enter; the drain check relies on the single total order.
        self.writers[shard].fetch_sub(1, Ordering::SeqCst);
    }

    /// Opens a commit window: acquires every touched shard's epoch
    /// (ascending order — the caller passes `touched` sorted) and drains
    /// the touched shards' in-flight point mutations.
    pub(crate) fn begin_commit(&self, touched: &[usize]) {
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]));
        for &shard in touched {
            let mut spins = 0u32;
            let mut waited = false;
            loop {
                // ORDERING: SeqCst epoch read feeding the CAS below — part of the same
                // Dekker handshake.
                // wft-lint: allow(seqcst) -- the gate acquisition must see epoch bumps in the single total order.
                let epoch = self.epochs[shard].load(Ordering::SeqCst);
                // ORDERING: SeqCst CAS closes the commit window; the successful bump is
                // the store half of the Dekker handshake against `writer_enter`.
                // wft-lint: allow(seqcst) -- the epoch bump must be ordered before the writers drain scan below.
                if epoch.is_multiple_of(2)
                    && self.epochs[shard]
                        .compare_exchange(epoch, epoch + 1, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                {
                    break;
                }
                if !waited {
                    waited = true;
                    self.gate_waits.inc();
                }
                gate_backoff(&mut spins);
            }
        }
        for &shard in touched {
            let mut spins = 0u32;
            // ORDERING: SeqCst load half of the Dekker handshake — pairs with
            // `writer_enter`/`writer_exit`.
            // wft-lint: allow(seqcst) -- a writer that missed our epoch bump must be visible to this drain scan.
            while self.writers[shard].load(Ordering::SeqCst) != 0 {
                gate_backoff(&mut spins);
            }
        }
    }

    /// Releases a commit window opened by [`begin_commit`](Self::begin_commit).
    pub(crate) fn end_commit(&self, touched: &[usize]) {
        for &shard in touched {
            // ORDERING: SeqCst reopens the shard in the same total order the read
            // sandwich uses.
            // wft-lint: allow(seqcst) -- pairs with the SeqCst epoch reads in epoch_open/epoch_is.
            self.epochs[shard].fetch_add(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_count_acquires_and_retries() {
        use wft_obs::MetricsSource;
        let store: crate::ShardedStore<i64> = crate::ShardedStore::new();
        let table = &store.front;
        let cells = [
            ("store_snapshot_acquires", &table.acquires),
            ("store_snapshot_retries", &table.retries),
            ("store_scan_resumes", &table.scan_resumes),
            ("store_len_fallbacks", &table.len_fallbacks),
            ("store_commit_gate_waits", &table.gate_waits),
            ("store_batch_commits", &table.batch_commits),
        ];
        // A distinct amount per cell, so a sample reading the wrong cell
        // shows up.
        for (n, (_, cell)) in cells.iter().enumerate() {
            cell.add(n as u64 + 1);
        }
        let metrics = store.metrics();
        for (n, (name, _)) in cells.iter().enumerate() {
            assert_eq!(metrics.counter(name), Some(n as u64 + 1), "{name}");
        }
    }

    #[test]
    fn commit_gate_closes_and_reopens_epochs() {
        let table = FrontTable::new(3);
        let e0 = table.epoch_open(0).expect("shard 0 starts open");
        table.begin_commit(&[0, 2]);
        assert_eq!(table.epoch_open(0), None, "touched shard is closed");
        assert_eq!(table.epoch_open(2), None);
        let e1 = table.epoch_open(1).expect("untouched shard stays open");
        assert!(table.epoch_is(1, e1));
        table.end_commit(&[0, 2]);
        let e0_after = table.epoch_open(0).expect("released shard reopens");
        assert_eq!(e0_after, e0 + 2, "each window advances the epoch by 2");
    }

    #[test]
    fn commit_waits_for_registered_writers() {
        // A writer registered before the window opens must block the
        // commit until it exits; one registered after sees a closed epoch.
        let table = std::sync::Arc::new(FrontTable::new(1));
        table.writer_enter(0);
        let bg = {
            let table = std::sync::Arc::clone(&table);
            std::thread::spawn(move || {
                table.begin_commit(&[0]);
                table.end_commit(&[0]);
            })
        };
        // Wait until the committer has closed the epoch; it must then park
        // in the writer drain for as long as the writer stays registered.
        while table.epoch_open(0).is_some() {
            std::hint::spin_loop();
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(
            !bg.is_finished(),
            "commit must not complete while a point writer is registered"
        );
        table.writer_exit(0);
        bg.join().unwrap();
        assert!(table.epoch_open(0).is_some());
    }
}
