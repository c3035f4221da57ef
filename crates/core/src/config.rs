//! Tree configuration and operational statistics.

use std::sync::atomic::{AtomicU64, Ordering};

pub use wft_queue::ReadPath;

/// Which root-queue implementation allocates timestamps (§II-D / §II-F).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootQueueKind {
    /// Michael–Scott based queue whose enqueue assigns `tail.ts + 1` in a
    /// CAS loop. Lock-free; this is the paper's baseline implementation.
    LockFree,
    /// Announce-array + fetch-and-add + helping queue (Lemma 1). Wait-free;
    /// bounded by the configured number of announce slots.
    WaitFree {
        /// Maximum number of concurrent enqueuers (the paper's `|P|`).
        slots: usize,
    },
}

/// Construction-time parameters of a [`crate::WaitFreeTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Rebuild factor `K` (§II-E): a subtree is rebuilt when its modification
    /// counter exceeds `K` times its size at creation. Not consulted by the
    /// [`Radix`](crate::Radix) shape, which never rebuilds.
    pub rebuild_factor: f64,
    /// Number of hash buckets of the presence index.
    pub presence_buckets: usize,
    /// Root queue implementation.
    pub root_queue: RootQueueKind,
    /// Which implementation answers reads (`get`/`contains`/`count`/
    /// `range_agg`/`collect_range`): the presence-index + optimistic-
    /// traversal fast paths ([`ReadPath::Fast`], the default) or the full
    /// descriptor machinery ([`ReadPath::Descriptor`], for testing and
    /// comparison). See `crate::read` for the linearization argument.
    pub read_path: ReadPath,
    /// How many optimistic traversals a range read attempts before falling
    /// back to the descriptor slow path (under [`ReadPath::Fast`]). A failed
    /// validation is usually caused by one in-flight update that the next
    /// attempt no longer sees, so a small bounded retry converts most
    /// would-be fallbacks into fast hits on bursty write traffic; `1`
    /// restores the single-attempt behaviour. Extra attempts are counted in
    /// [`TreeStats::fast_range_retries`].
    pub fast_read_attempts: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            rebuild_factor: 1.0,
            presence_buckets: 1 << 16,
            root_queue: RootQueueKind::LockFree,
            read_path: ReadPath::Fast,
            fast_read_attempts: 3,
        }
    }
}

impl TreeConfig {
    /// Validates the configuration, panicking on nonsensical values.
    pub(crate) fn validate(&self) {
        assert!(
            self.rebuild_factor.is_finite() && self.rebuild_factor > 0.0,
            "rebuild factor must be positive and finite"
        );
        if let RootQueueKind::WaitFree { slots } = self.root_queue {
            assert!(slots >= 1, "wait-free root queue needs at least one slot");
        }
        assert!(
            self.fast_read_attempts >= 1,
            "range reads need at least one optimistic attempt"
        );
    }
}

/// Live operational counters of a tree (all relaxed atomics; approximate
/// under concurrency but exact once the tree is quiescent).
#[derive(Debug, Default)]
pub struct TreeCounters {
    /// Successful inserts applied.
    pub inserts: AtomicU64,
    /// Replace (upsert) descriptors applied.
    pub replaces: AtomicU64,
    /// Successful removes applied.
    pub removes: AtomicU64,
    /// Update operations whose decision was "no effect".
    pub failed_updates: AtomicU64,
    /// Descriptors executed in nodes on behalf of *other* operations
    /// (hand-over-hand helping events).
    pub helped_executions: AtomicU64,
    /// Subtree rebuilds performed.
    pub rebuilds: AtomicU64,
    /// Data items copied into rebuilt subtrees.
    pub rebuilt_items: AtomicU64,
    /// Rebuilds a helper carried out in full and then lost the install CAS
    /// for, because another helper installed the same subtree first:
    /// duplicated work, invisible in `rebuilds`.
    pub rebuilds_lost: AtomicU64,
    /// Point reads (`get`/`contains`) answered from the presence index in
    /// `O(1)`, without a descriptor.
    pub fast_point_reads: AtomicU64,
    /// Range reads answered by a validated optimistic traversal, without a
    /// descriptor.
    pub fast_range_hits: AtomicU64,
    /// Additional optimistic attempts made after a failed validation
    /// (bounded by [`TreeConfig::fast_read_attempts`]) before either
    /// succeeding or falling back.
    pub fast_range_retries: AtomicU64,
    /// Range reads whose optimistic traversals all failed validation and
    /// which fell back to the descriptor slow path.
    pub range_fallbacks: AtomicU64,
    /// Limit-bounded collects (`collect_range_limited`) whose optimistic
    /// walk stopped early because the chunk limit was reached — the
    /// `O(log N + limit)` early exit of the streaming scan API.
    pub fast_range_early_exits: AtomicU64,
}

/// A point-in-time snapshot of [`TreeCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Successful inserts applied.
    pub inserts: u64,
    /// Replace (upsert) descriptors applied.
    pub replaces: u64,
    /// Successful removes applied.
    pub removes: u64,
    /// Updates that had no effect.
    pub failed_updates: u64,
    /// Helping events (descriptor executed by a non-initiator).
    pub helped_executions: u64,
    /// Subtree rebuilds performed.
    pub rebuilds: u64,
    /// Items copied during rebuilds.
    pub rebuilt_items: u64,
    /// Rebuilds built in full by a helper that lost the install CAS.
    pub rebuilds_lost: u64,
    /// Point reads answered from the presence index (no descriptor).
    pub fast_point_reads: u64,
    /// Range reads answered by a validated optimistic traversal.
    pub fast_range_hits: u64,
    /// Extra optimistic attempts after a failed validation.
    pub fast_range_retries: u64,
    /// Range reads that fell back to the descriptor slow path.
    pub range_fallbacks: u64,
    /// Limit-bounded collects whose optimistic walk early-exited at the
    /// chunk limit.
    pub fast_range_early_exits: u64,
}

impl TreeStats {
    /// Adds every field of `other` into `self` — the fold used by
    /// aggregations over several trees (e.g. a sharded store summing its
    /// per-shard stats into one `tree_stats()` view).
    pub fn accumulate(&mut self, other: &TreeStats) {
        self.inserts += other.inserts;
        self.replaces += other.replaces;
        self.removes += other.removes;
        self.failed_updates += other.failed_updates;
        self.helped_executions += other.helped_executions;
        self.rebuilds += other.rebuilds;
        self.rebuilt_items += other.rebuilt_items;
        self.rebuilds_lost += other.rebuilds_lost;
        self.fast_point_reads += other.fast_point_reads;
        self.fast_range_hits += other.fast_range_hits;
        self.fast_range_retries += other.fast_range_retries;
        self.range_fallbacks += other.range_fallbacks;
        self.fast_range_early_exits += other.fast_range_early_exits;
    }

    /// Mirrors the stats into a metrics snapshot under the given name
    /// prefix (e.g. `tree`) — the bridge between the legacy counter struct
    /// and the `wft-obs` registry/exporters.
    pub fn collect_into(&self, prefix: &str, out: &mut wft_obs::MetricsSnapshot) {
        out.push_counter(format!("{prefix}_inserts"), self.inserts);
        out.push_counter(format!("{prefix}_replaces"), self.replaces);
        out.push_counter(format!("{prefix}_removes"), self.removes);
        out.push_counter(format!("{prefix}_failed_updates"), self.failed_updates);
        out.push_counter(
            format!("{prefix}_helped_executions"),
            self.helped_executions,
        );
        out.push_counter(format!("{prefix}_rebuilds"), self.rebuilds);
        out.push_counter(format!("{prefix}_rebuilt_items"), self.rebuilt_items);
        out.push_counter(format!("{prefix}_rebuilds_lost"), self.rebuilds_lost);
        out.push_counter(format!("{prefix}_fast_point_reads"), self.fast_point_reads);
        out.push_counter(format!("{prefix}_fast_range_hits"), self.fast_range_hits);
        out.push_counter(
            format!("{prefix}_fast_range_retries"),
            self.fast_range_retries,
        );
        out.push_counter(format!("{prefix}_range_fallbacks"), self.range_fallbacks);
        out.push_counter(
            format!("{prefix}_fast_range_early_exits"),
            self.fast_range_early_exits,
        );
    }
}

impl TreeCounters {
    pub(crate) fn snapshot(&self) -> TreeStats {
        TreeStats {
            inserts: self.inserts.load(Ordering::Relaxed),
            replaces: self.replaces.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            failed_updates: self.failed_updates.load(Ordering::Relaxed),
            helped_executions: self.helped_executions.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            rebuilt_items: self.rebuilt_items.load(Ordering::Relaxed),
            rebuilds_lost: self.rebuilds_lost.load(Ordering::Relaxed),
            fast_point_reads: self.fast_point_reads.load(Ordering::Relaxed),
            fast_range_hits: self.fast_range_hits.load(Ordering::Relaxed),
            fast_range_retries: self.fast_range_retries.load(Ordering::Relaxed),
            range_fallbacks: self.range_fallbacks.load(Ordering::Relaxed),
            fast_range_early_exits: self.fast_range_early_exits.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        TreeConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "rebuild factor")]
    fn zero_rebuild_factor_rejected() {
        TreeConfig {
            rebuild_factor: 0.0,
            ..TreeConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slot_wait_free_queue_rejected() {
        TreeConfig {
            root_queue: RootQueueKind::WaitFree { slots: 0 },
            ..TreeConfig::default()
        }
        .validate();
    }

    #[test]
    fn counters_snapshot_reflects_bumps() {
        let counters = TreeCounters::default();
        TreeCounters::bump(&counters.inserts);
        TreeCounters::bump(&counters.inserts);
        TreeCounters::add(&counters.rebuilt_items, 40);
        let snap = counters.snapshot();
        assert_eq!(snap.inserts, 2);
        assert_eq!(snap.rebuilt_items, 40);
        assert_eq!(snap.removes, 0);
    }
}
