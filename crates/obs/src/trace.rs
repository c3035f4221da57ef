//! A bounded lock-free event tracer for post-mortem timelines.
//!
//! Counters answer *how many* retries happened; a [`TraceRing`] answers
//! **when** — which is exactly the signal the ROADMAP's unreproduced
//! harness livelock needed ("was the spin a retry storm, and did it start
//! before or after the stop flag?"). Each emit packs a typed event
//! ([`TraceKind`] + a 16-bit argument, e.g. the shard index) and a coarse
//! microsecond timestamp into **one** `u64`, claims a slot with a relaxed
//! `fetch_add` and publishes with a release store: two uncontended atomic
//! ops on anomaly paths only (retries, fallbacks, rebuilds), cheap enough
//! to leave on in production and in every benchmark.
//!
//! The ring keeps the most recent `capacity` events; older ones are
//! overwritten and reported as [`TraceRing::dropped`]. [`TraceRing::drain`]
//! reconstructs the surviving timeline oldest-first. A drain that races
//! live emitters is best-effort at the wrap boundary (an overwritten slot
//! is attributed to the old sequence number); once emitters are quiescent
//! — the post-mortem case — the drain is exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Argument value meaning "no shard / not applicable".
pub const NO_SHARD: u16 = u16::MAX;

/// The event taxonomy: one variant per anomaly the system can hit on its
/// concurrent read/update paths. Deliberately small — every event is
/// something an engineer staring at a stall would want on a timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// A cross-shard read attempt was discarded because a shard advanced
    /// past its front mid-read (arg: the shard that invalidated the cut,
    /// or [`NO_SHARD`] when unattributed).
    SnapshotRetry = 1,
    /// A streaming scan cursor re-anchored at a fresh cut and degraded to
    /// `Resumed` (arg: the shard being merged when the cut expired).
    ScanResume = 2,
    /// A range read's optimistic traversals all failed validation and the
    /// read fell back to the descriptor slow path.
    RangeFallback = 3,
    /// `ShardedStore::len()` exhausted its bounded cut attempts and
    /// answered with the stitched sum.
    LenFallback = 4,
    /// A subtree rebuild was performed on the update path (arg: low 16
    /// bits of the number of items copied).
    HelpRebuild = 5,
    /// A writer blocked on the write-ahead log's group-commit watermark
    /// (arg: low 16 bits of the number of batches coalesced into the group
    /// that released it).
    WalStall = 6,
    /// An online checkpoint started draining the store through a snapshot
    /// scan cursor (arg: `(trigger << 14) | (cut & 0x3FFF)` — trigger 0 =
    /// explicit call, 1 = live-WAL-bytes policy threshold, 2 =
    /// live-WAL-segments policy threshold; low 14 bits are the cut
    /// sequence).
    CheckpointBegin = 7,
    /// An online checkpoint finished and the WAL prefix at-or-before its
    /// cut was truncated (arg: low 16 bits of the checkpoint's cut
    /// sequence).
    CheckpointEnd = 8,
    /// The durable log thread hit a transient I/O error and is retrying
    /// the flush after backoff (arg: the 0-based retry attempt index).
    IoRetry = 9,
    /// The durable journal escalated a persistent I/O failure into
    /// degraded read-only mode — reads keep serving, writes fail fast.
    DegradedEnter = 10,
    /// `try_resume` re-probed storage successfully and the journal left
    /// degraded mode (arg: low 16 bits of the resume count).
    DegradedResume = 11,
    /// An atomic cross-shard batch commit completed through the store's
    /// commit gate (arg: the number of shards the batch touched).
    BatchCommit = 12,
    /// A point operation or cut acquisition found a commit window open on
    /// a shard it touches and had to wait for its release (arg: the blocked
    /// shard, or [`NO_SHARD`] for a whole-cut acquisition).
    CommitGateWait = 13,
}

impl TraceKind {
    fn from_u8(v: u8) -> Option<TraceKind> {
        match v {
            1 => Some(TraceKind::SnapshotRetry),
            2 => Some(TraceKind::ScanResume),
            3 => Some(TraceKind::RangeFallback),
            4 => Some(TraceKind::LenFallback),
            5 => Some(TraceKind::HelpRebuild),
            6 => Some(TraceKind::WalStall),
            7 => Some(TraceKind::CheckpointBegin),
            8 => Some(TraceKind::CheckpointEnd),
            9 => Some(TraceKind::IoRetry),
            10 => Some(TraceKind::DegradedEnter),
            11 => Some(TraceKind::DegradedResume),
            12 => Some(TraceKind::BatchCommit),
            13 => Some(TraceKind::CommitGateWait),
            _ => None,
        }
    }

    /// Short stable label used in rendered timelines.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::SnapshotRetry => "snapshot-retry",
            TraceKind::ScanResume => "scan-resume",
            TraceKind::RangeFallback => "range-fallback",
            TraceKind::LenFallback => "len-fallback",
            TraceKind::HelpRebuild => "help-rebuild",
            TraceKind::WalStall => "wal-stall",
            TraceKind::CheckpointBegin => "checkpoint-begin",
            TraceKind::CheckpointEnd => "checkpoint-end",
            TraceKind::IoRetry => "io-retry",
            TraceKind::DegradedEnter => "degraded-enter",
            TraceKind::DegradedResume => "degraded-resume",
            TraceKind::BatchCommit => "batch-commit",
            TraceKind::CommitGateWait => "commit-gate-wait",
        }
    }
}

/// One decoded event of a [`TraceRing`] timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global emission sequence number (0-based, never wraps).
    pub seq: u64,
    /// Microseconds since the ring was created (40-bit, saturating at
    /// ~12.7 days of uptime).
    pub micros: u64,
    /// Event type.
    pub kind: TraceKind,
    /// Event argument (shard index, item count, … — see [`TraceKind`]).
    pub arg: u16,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>10}us] #{:<6} {}",
            self.micros,
            self.seq,
            self.kind.label()
        )?;
        if self.arg != NO_SHARD {
            write!(f, " (arg {})", self.arg)?;
        }
        Ok(())
    }
}

// Packing: | micros: 40 bits | kind: 8 bits | arg: 16 bits |
const MICROS_MAX: u64 = (1 << 40) - 1;

fn pack(micros: u64, kind: TraceKind, arg: u16) -> u64 {
    (micros.min(MICROS_MAX) << 24) | ((kind as u64) << 16) | arg as u64
}

fn unpack(word: u64) -> Option<(u64, TraceKind, u16)> {
    let kind = TraceKind::from_u8(((word >> 16) & 0xFF) as u8)?;
    Some((word >> 24, kind, (word & 0xFFFF) as u16))
}

/// A bounded lock-free ring buffer of packed [`TraceEvent`]s.
pub struct TraceRing {
    /// Total events ever emitted; slot of event `s` is `s & mask`.
    head: AtomicU64,
    slots: Box<[AtomicU64]>,
    mask: u64,
    epoch: Instant,
}

impl TraceRing {
    /// A ring keeping the most recent `capacity` events (rounded up to a
    /// power of two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        TraceRing {
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            mask: cap as u64 - 1,
            epoch: Instant::now(),
        }
    }

    /// Records one event (lock-free: one relaxed `fetch_add` to claim the
    /// slot, one release store to publish).
    #[inline]
    pub fn emit(&self, kind: TraceKind, arg: u16) {
        let micros = u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        // ORDERING: Release publishes the packed event to the Acquire slot loads
        // in `drain`.
        self.slots[(seq & self.mask) as usize].store(pack(micros, kind, arg), Ordering::Release);
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever emitted (including overwritten ones).
    pub fn total(&self) -> u64 {
        // ORDERING: Acquire pairs with the Release slot stores in `emit` — events
        // below the returned head are visible to a subsequent drain.
        self.head.load(Ordering::Acquire)
    }

    /// Events that have been overwritten by wrap-around.
    pub fn dropped(&self) -> u64 {
        self.total().saturating_sub(self.mask + 1)
    }

    /// The surviving timeline, oldest event first. Exact once emitters are
    /// quiescent; see the module docs for the racing-drain caveat.
    pub fn drain(&self) -> Vec<TraceEvent> {
        // ORDERING: Acquire pairs with the Release slot stores in `emit`; slots
        // below `head` are published.
        let head = self.head.load(Ordering::Acquire);
        let start = head.saturating_sub(self.mask + 1);
        let mut out = Vec::with_capacity((head - start) as usize);
        for seq in start..head {
            // ORDERING: Acquire pairs with the Release store in `emit`, so the packed
            // word is fully published.
            let word = self.slots[(seq & self.mask) as usize].load(Ordering::Acquire);
            if let Some((micros, kind, arg)) = unpack(word) {
                out.push(TraceEvent {
                    seq,
                    micros,
                    kind,
                    arg,
                });
            }
        }
        out
    }

    /// Renders the surviving timeline as one line per event, prefixed with
    /// a drop notice when wrap-around lost history.
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        let dropped = self.dropped();
        if dropped > 0 {
            out.push_str(&format!("... {dropped} earlier events overwritten ...\n"));
        }
        for event in self.drain() {
            out.push_str(&format!("{event}\n"));
        }
        if out.is_empty() {
            out.push_str("(no trace events)\n");
        }
        out
    }
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.capacity())
            .field("total", &self.total())
            .finish()
    }
}

/// Capacity of the process-global ring: generous enough that a retry storm
/// of a few thousand events survives until a post-mortem drain.
const GLOBAL_CAPACITY: usize = 4096;

static GLOBAL: OnceLock<TraceRing> = OnceLock::new();

/// The process-global trace ring that instrumented crates emit into.
pub fn global() -> &'static TraceRing {
    GLOBAL.get_or_init(|| TraceRing::new(GLOBAL_CAPACITY))
}

/// Emits one event into the [`global`] ring.
#[inline]
pub fn emit(kind: TraceKind, arg: u16) {
    global().emit(kind, arg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trips() {
        for kind in [
            TraceKind::SnapshotRetry,
            TraceKind::ScanResume,
            TraceKind::RangeFallback,
            TraceKind::LenFallback,
            TraceKind::HelpRebuild,
            TraceKind::WalStall,
            TraceKind::CheckpointBegin,
            TraceKind::CheckpointEnd,
            TraceKind::IoRetry,
            TraceKind::DegradedEnter,
            TraceKind::DegradedResume,
            TraceKind::BatchCommit,
            TraceKind::CommitGateWait,
        ] {
            let (m, k, a) = unpack(pack(123_456, kind, 7)).unwrap();
            assert_eq!((m, k, a), (123_456, kind, 7));
        }
        assert!(unpack(0).is_none(), "empty slot decodes to no event");
    }

    #[test]
    fn drain_returns_events_in_order() {
        let ring = TraceRing::new(16);
        ring.emit(TraceKind::SnapshotRetry, 3);
        ring.emit(TraceKind::ScanResume, 1);
        ring.emit(TraceKind::LenFallback, NO_SHARD);
        let events = ring.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, TraceKind::SnapshotRetry);
        assert_eq!(events[0].arg, 3);
        assert_eq!(events[2].kind, TraceKind::LenFallback);
        assert!(events
            .windows(2)
            .all(|w| { w[0].seq < w[1].seq && w[0].micros <= w[1].micros }));
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn wrap_around_keeps_the_most_recent_events() {
        let ring = TraceRing::new(8);
        for i in 0..20u16 {
            ring.emit(TraceKind::RangeFallback, i);
        }
        let events = ring.drain();
        assert_eq!(events.len(), 8);
        assert_eq!(ring.dropped(), 12);
        assert_eq!(ring.total(), 20);
        // The surviving suffix is exactly emissions 12..20, in order.
        for (i, event) in events.iter().enumerate() {
            assert_eq!(event.seq, 12 + i as u64);
            assert_eq!(event.arg, 12 + i as u16);
        }
    }

    #[test]
    fn timeline_mentions_drops_and_labels() {
        let ring = TraceRing::new(8);
        for _ in 0..10 {
            ring.emit(TraceKind::HelpRebuild, 2);
        }
        let text = ring.render_timeline();
        assert!(text.contains("2 earlier events overwritten"));
        assert!(text.contains("help-rebuild"));
    }
}
