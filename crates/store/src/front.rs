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

/// One in-flight point writer in a gate word (the low 32 bits count them).
const WRITER: u64 = 1;
/// One epoch step in a gate word (the high 32 bits hold the epoch; its low
/// bit set means a commit window is open).
const EPOCH: u64 = 1 << 32;
/// The writer-count bits of a gate word.
const WRITERS: u64 = EPOCH - 1;

/// The store-internal front bookkeeping: the per-shard **commit gate**
/// behind atomic cross-shard batches, plus the store's event counters
/// (`wft_obs` cells, reported as `store_*` by the store's `MetricsSource`
/// impl).
///
/// # The commit gate
///
/// Each shard has one gate word: its commit **epoch** in the high 32 bits
/// (even = open, odd = a batch commit window is in progress) and its count
/// of in-flight point **writers** in the low 32. Every transition is one
/// read-modify-write of that word:
///
/// * a point writer enters with `fetch_add(1)` and runs only if the epoch
///   it added to was even; otherwise it takes the 1 back and waits
///   ([`gated_write`](Self::gated_write));
/// * a committer closes every touched shard with `fetch_or(1 << 32)` in
///   **ascending shard order** (so concurrent commits cannot deadlock),
///   owning a shard's window only if its own `fetch_or` set the bit, then
///   waits until the touched shards' writer bits read 0, applies the batch,
///   and reopens each shard with `fetch_add(1 << 32)`, odd to the next even
///   ([`commit`](Self::commit));
/// * a point read or a cut settle runs between two loads of the touched
///   shards' epochs and is kept only if both loads saw the same open
///   epochs ([`sandwiched`](Self::sandwiched)).
///
/// The word's modification order decides who saw whom, so no `SeqCst`
/// total order is needed (`DESIGN.md`, "Atomic cross-shard commit").
pub(crate) struct FrontTable {
    /// Per-shard gate word: epoch in the high 32 bits, writers in the low.
    gates: Box<[Gate]>,
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

/// One shard's gate word, alone on its cache line: one shard's writers do
/// not bounce the line another shard's readers load.
#[repr(align(64))]
struct Gate(AtomicU64);

/// Bounded-friendly wait: spin briefly, then yield the core — commit
/// windows are short, but a preempted committer must not livelock the
/// waiters on small machines.
fn backoff(spins: &mut u32) {
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
/// read is retried through [`backoff`]: nothing is re-settled and nothing
/// is counted. `None` only once the shard advanced past the cut, which
/// proves an update linearized on it.
pub(crate) fn read_at_cut<T>(mut read: impl FnMut() -> Result<T, FrontMiss>) -> Option<T> {
    let mut spins = 0u32;
    loop {
        match read() {
            Ok(out) => return Some(out),
            Err(FrontMiss::Expired) => return None,
            Err(FrontMiss::Busy) => backoff(&mut spins),
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

    /// Epoch-stable: the settle, one `store_snapshot_acquires`, is
    /// sandwiched in the touched shards' open commit epochs (the crate's
    /// commit gate), so a cut never splits an atomic batch.
    fn settle(&self, first: usize, last: usize) -> Vec<u64> {
        self.front.sandwiched(first, last, || {
            self.front.acquires.inc();
            (first..=last)
                .map(|i| self.shards[i].settle_front().get())
                .collect()
        })
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
            gates: (0..shards).map(|_| Gate(AtomicU64::new(0))).collect(),
            batch_commits: Counter::new(),
            acquires: Counter::new(),
            retries: Counter::new(),
            scan_resumes: Counter::new(),
            len_fallbacks: Counter::new(),
            gate_waits: Counter::new(),
        }
    }

    /// Runs one point mutation on `shard` outside any commit window,
    /// waiting while one is open.
    pub(crate) fn gated_write<R>(&self, shard: usize, op: impl FnOnce() -> R) -> R {
        let mut op = Some(op);
        self.wait(shard_trace_arg(shard), || {
            if !self.writer_enter(shard) {
                return None;
            }
            let out = (op.take().expect("the op runs exactly once"))();
            self.writer_exit(shard);
            Some(out)
        })
    }

    /// Runs `read` between two loads of the epochs of shards
    /// `first..=last` and returns its result once both loads saw the same
    /// open epochs — a result no commit window on those shards overlapped.
    pub(crate) fn sandwiched<R>(
        &self,
        first: usize,
        last: usize,
        mut read: impl FnMut() -> R,
    ) -> R {
        let trace = if first == last {
            shard_trace_arg(first)
        } else {
            wft_obs::NO_SHARD
        };
        self.wait(trace, || {
            let before = self.open_epochs(first, last)?;
            let out = read();
            (self.open_epochs(first, last) == Some(before)).then_some(out)
        })
    }

    /// Opens a commit window over `touched` (ascending shard indices):
    /// closes each shard in order, then waits out the point writers already
    /// inside. Dropping the returned window reopens the shards.
    pub(crate) fn commit(&self, touched: Vec<usize>) -> CommitWindow<'_> {
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]));
        let mut closed = 0;
        self.wait(wft_obs::NO_SHARD, || {
            while let Some(&shard) = touched.get(closed) {
                if !self.close(shard) {
                    return None;
                }
                closed += 1;
            }
            touched
                .iter()
                .all(|&shard| self.drained(shard))
                .then_some(())
        });
        CommitWindow {
            front: self,
            touched,
        }
    }

    /// The gate's one wait: retries `attempt` until it succeeds, backing
    /// off in between. A call that waits at all counts one
    /// `store_commit_gate_waits` and traces one `CommitGateWait`.
    fn wait<R>(&self, trace: u16, mut attempt: impl FnMut() -> Option<R>) -> R {
        let mut spins = 0u32;
        let mut waited = false;
        loop {
            if let Some(out) = attempt() {
                return out;
            }
            if !waited {
                waited = true;
                self.gate_waits.inc();
                wft_obs::trace::emit(wft_obs::TraceKind::CommitGateWait, trace);
            }
            backoff(&mut spins);
        }
    }

    /// The wrapping sum of the epochs of shards `first..=last`, if every
    /// one is open. Epochs only step forward by one, so the sum is
    /// unchanged between two calls only if no epoch moved (short of 2^32
    /// steps in between).
    fn open_epochs(&self, first: usize, last: usize) -> Option<u32> {
        let mut sum = 0u32;
        for gate in &self.gates[first..=last] {
            // ORDERING: Acquire pairs with `reopen`'s Release: a read after an
            // open epoch sees every effect of the window that ended there.
            let word = gate.0.load(Ordering::Acquire);
            if word & EPOCH != 0 {
                return None;
            }
            sum = sum.wrapping_add((word >> 32) as u32);
        }
        Some(sum)
    }

    /// Registers a point writer on `shard`; `false` (and nothing
    /// registered) if a commit window is open on it.
    fn writer_enter(&self, shard: usize) -> bool {
        // ORDERING: Acquire pairs with `reopen`'s Release: the write happens
        // after every window reopened before it. The RMW's place in the
        // word's modification order decides it against `close`.
        let old = self.gates[shard].0.fetch_add(WRITER, Ordering::Acquire);
        if old & EPOCH == 0 {
            return true;
        }
        self.gates[shard].0.fetch_sub(WRITER, Ordering::Relaxed);
        false
    }

    /// Deregisters a point writer that ran.
    fn writer_exit(&self, shard: usize) {
        // ORDERING: Release pairs with `drained`'s Acquire: the write happens
        // before the window that waited for it.
        self.gates[shard].0.fetch_sub(WRITER, Ordering::Release);
    }

    /// Sets `shard`'s epoch odd; `true` if this call closed it, `false` if
    /// another committer's window is open.
    fn close(&self, shard: usize) -> bool {
        // ORDERING: Acquire pairs with `reopen`'s Release: this window comes
        // after the one before it. Writers enter by RMWs of the same word.
        self.gates[shard].0.fetch_or(EPOCH, Ordering::Acquire) & EPOCH == 0
    }

    /// `true` once no point writer is inside `shard`.
    fn drained(&self, shard: usize) -> bool {
        // ORDERING: Acquire pairs with `writer_exit`'s Release: the window's
        // applies come after every write that was inside.
        self.gates[shard].0.load(Ordering::Acquire) & WRITERS == 0
    }

    /// Steps `shard`'s epoch from odd to the next even.
    fn reopen(&self, shard: usize) {
        // ORDERING: Release pairs with the Acquire of `open_epochs`,
        // `writer_enter` and `close`: the window's applies happen before
        // whatever enters after it.
        self.gates[shard].0.fetch_add(EPOCH, Ordering::Release);
    }
}

/// An open commit window over `touched` shards; dropping it reopens them
/// (also on unwind, so a panicking op cannot leave the gate closed and
/// deadlock every waiter).
pub(crate) struct CommitWindow<'a> {
    front: &'a FrontTable,
    touched: Vec<usize>,
}

impl Drop for CommitWindow<'_> {
    fn drop(&mut self) {
        for &shard in &self.touched {
            self.front.reopen(shard);
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
        let e0 = table.open_epochs(0, 0).expect("shard 0 starts open");
        let window = table.commit(vec![0, 2]);
        assert_eq!(table.open_epochs(0, 0), None, "touched shard is closed");
        assert_eq!(table.open_epochs(2, 2), None);
        assert_eq!(table.open_epochs(0, 2), None, "a range over a closed shard");
        let e1 = table.open_epochs(1, 1).expect("untouched shard stays open");
        assert_eq!(table.sandwiched(1, 1, || 7), 7, "and reads through");
        assert_eq!(table.open_epochs(1, 1), Some(e1));
        drop(window);
        let e0_after = table.open_epochs(0, 0).expect("released shard reopens");
        assert_eq!(e0_after, e0 + 2, "each window advances the epoch by 2");
        assert!(table.open_epochs(0, 2).is_some());
        assert_eq!(table.gate_waits.value(), 0, "nothing waited");
    }

    #[test]
    fn commit_waits_for_registered_writers() {
        // A writer inside before the window opens must block the commit
        // until it exits; one arriving after sees a closed epoch.
        let table = std::sync::Arc::new(FrontTable::new(1));
        assert!(table.writer_enter(0));
        let bg = {
            let table = std::sync::Arc::clone(&table);
            std::thread::spawn(move || drop(table.commit(vec![0])))
        };
        // Wait until the committer has closed the epoch; it must then park
        // in the writer drain for as long as the writer stays inside.
        while table.open_epochs(0, 0).is_some() {
            std::hint::spin_loop();
        }
        assert!(!table.writer_enter(0), "a closed shard admits no writer");
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(
            !bg.is_finished(),
            "commit must not complete while a point writer is registered"
        );
        table.writer_exit(0);
        bg.join().unwrap();
        assert!(table.open_epochs(0, 0).is_some());
        assert_eq!(table.gate_waits.value(), 1, "one blocked commit, one wait");
    }

    /// Two point writers, two committers and one sandwich reader on two
    /// shards of one table. Test-side counters record who is inside: a
    /// window's owner checks it is alone and no writer is inside, a writer
    /// checks no window is held, and each window bumps its shards' window
    /// counters once on open and once before close, so a validated read
    /// that overlapped a window sees an odd counter or a moved one.
    #[test]
    fn gate_excludes_writers_committers_and_straddling_reads() {
        use std::sync::atomic::{AtomicBool, AtomicU32};
        use std::sync::Barrier;

        const WINDOWS: u32 = 2000;
        let spin = |n: u32| (0..n).for_each(|_| std::hint::spin_loop());
        let table = FrontTable::new(2);
        let holders = [AtomicU32::new(0), AtomicU32::new(0)];
        let writers_inside = [AtomicU32::new(0), AtomicU32::new(0)];
        let bumps = [AtomicU64::new(0), AtomicU64::new(0)];
        // A writer must not panic inside the gate (a committer would wait on
        // it forever), so it flags what it saw instead.
        let writer_met_window = AtomicBool::new(false);
        let done = AtomicBool::new(false);
        let start = Barrier::new(5);
        let (committed, read) = std::thread::scope(|s| {
            let committers: Vec<_> = (0..2)
                .map(|c| {
                    let (table, holders, writers_inside, bumps, start) =
                        (&table, &holders, &writers_inside, &bumps, &start);
                    s.spawn(move || {
                        start.wait();
                        for n in 0..WINDOWS {
                            let touched = if n % 2 == 0 { vec![0, 1] } else { vec![c] };
                            let _window = table.commit(touched.clone());
                            for &i in &touched {
                                assert_eq!(holders[i].fetch_add(1, Ordering::SeqCst), 0);
                                assert_eq!(writers_inside[i].load(Ordering::SeqCst), 0);
                                bumps[i].fetch_add(1, Ordering::SeqCst);
                            }
                            spin(50);
                            for &i in &touched {
                                bumps[i].fetch_add(1, Ordering::SeqCst);
                                assert_eq!(writers_inside[i].load(Ordering::SeqCst), 0);
                                holders[i].fetch_sub(1, Ordering::SeqCst);
                            }
                        }
                    })
                })
                .collect();
            let writers: Vec<_> = (0..2)
                .map(|w| {
                    let (table, holders, writers_inside, met, done, start) = (
                        &table,
                        &holders,
                        &writers_inside,
                        &writer_met_window,
                        &done,
                        &start,
                    );
                    s.spawn(move || {
                        start.wait();
                        loop {
                            table.gated_write(w, || {
                                writers_inside[w].fetch_add(1, Ordering::SeqCst);
                                if holders[w].load(Ordering::SeqCst) != 0 {
                                    met.store(true, Ordering::SeqCst);
                                }
                                writers_inside[w].fetch_sub(1, Ordering::SeqCst);
                            });
                            if done.load(Ordering::SeqCst) {
                                return;
                            }
                        }
                    })
                })
                .collect();
            let reader = {
                let (table, bumps, done, start) = (&table, &bumps, &done, &start);
                s.spawn(move || {
                    start.wait();
                    loop {
                        let (before, after) = table.sandwiched(0, 1, || {
                            let before = [0, 1].map(|i| bumps[i].load(Ordering::SeqCst));
                            spin(50);
                            let after = [0, 1].map(|i| bumps[i].load(Ordering::SeqCst));
                            (before, after)
                        });
                        assert_eq!(before, after, "a window opened and closed inside the read");
                        assert!(before.iter().all(|b| b % 2 == 0), "read inside a window");
                        if done.load(Ordering::SeqCst) {
                            return;
                        }
                    }
                })
            };
            let committed: Vec<_> = committers.into_iter().map(|c| c.join()).collect();
            done.store(true, Ordering::SeqCst);
            for w in writers {
                w.join().unwrap();
            }
            (committed, reader.join())
        });
        for outcome in committed.into_iter().chain([read]) {
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
        }
        assert!(
            !writer_met_window.load(Ordering::SeqCst),
            "a writer was inside a held window"
        );
        // Shard `i` gets committer `i`'s every window and the other's
        // two-shard half, two bumps each.
        let bumped = 2 * (WINDOWS + WINDOWS / 2) as u64;
        assert_eq!(
            bumps.map(|b| b.into_inner()),
            [bumped; 2],
            "every window ran"
        );
        assert!(table.open_epochs(0, 1).is_some(), "every window reopened");
    }
}
