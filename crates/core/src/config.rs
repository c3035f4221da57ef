//! Tree configuration and event counters.

use wft_obs::Counter;

/// Which implementation answers read operations on a tree.
///
/// The presence index is the tree's *resolution authority*: every update's
/// effect is fixed there, in strict root-queue timestamp order, while the
/// update is executed at the fictive root. A snapshot read of a key's state
/// record is therefore linearizable on its own — which lets `get` /
/// `contains` skip the descriptor machinery entirely, and lets aggregate
/// range queries attempt an optimistic descriptor-free traversal first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPath {
    /// Point reads are answered in `O(1)` from the presence index; range
    /// reads attempt a validated optimistic traversal and fall back to the
    /// descriptor path when validation fails. This is the default.
    #[default]
    Fast,
    /// Every read runs as a full descriptor through the root queue (the
    /// paper's original scheme). The reference the fast paths are tested
    /// against: the linearizability suites run under both variants.
    Descriptor,
}

/// Construction-time parameters of a [`crate::WaitFreeTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Rebuild factor `K` (§II-E): a subtree is rebuilt when its modification
    /// counter exceeds `K` times its size at creation. Not consulted by the
    /// [`Radix`](crate::Radix) shape, which never rebuilds.
    pub rebuild_factor: f64,
    /// Which implementation answers reads (`get`/`contains`/`count`/
    /// `range_agg`/`collect_range`): the presence-index + optimistic-
    /// traversal fast paths ([`ReadPath::Fast`], the default) or the full
    /// descriptor machinery ([`ReadPath::Descriptor`], for testing and
    /// comparison). See `crate::read` for the linearization argument.
    pub read_path: ReadPath,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            rebuild_factor: 1.0,
            read_path: ReadPath::Fast,
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
    }
}

/// Live event counters of a tree: one `wft_obs` cell per event, the only
/// storage of these numbers. They are read through the tree's
/// `MetricsSource` impl, one sample per field under the shape's prefix
/// (`tree_inserts`, `trie_rebuilds`, …); relaxed and per-thread sharded,
/// so exact once the tree is quiescent.
#[derive(Debug, Default)]
pub(crate) struct TreeCounters {
    /// Successful inserts applied.
    pub(crate) inserts: Counter,
    /// Replace (upsert) descriptors applied.
    pub(crate) replaces: Counter,
    /// Successful removes applied.
    pub(crate) removes: Counter,
    /// Update operations whose decision was "no effect".
    pub(crate) failed_updates: Counter,
    /// The part of `failed_updates` decided at one presence-index load,
    /// without a descriptor ([`ReadPath::Fast`] only).
    pub(crate) fast_failed_updates: Counter,
    /// Descriptors executed in nodes on behalf of *other* operations
    /// (hand-over-hand helping events).
    pub(crate) helped_executions: Counter,
    /// Subtree rebuilds performed.
    pub(crate) rebuilds: Counter,
    /// Data items copied into rebuilt subtrees.
    pub(crate) rebuilt_items: Counter,
    /// Rebuilds a helper carried out in full and then lost the install CAS
    /// for, because another helper installed the same subtree first:
    /// duplicated work, invisible in `rebuilds`.
    pub(crate) rebuilds_lost: Counter,
    /// Point reads (`get`/`contains`) answered from the presence index in
    /// `O(1)`, without a descriptor.
    pub(crate) fast_point_reads: Counter,
    /// Range reads answered by a validated optimistic traversal, without a
    /// descriptor.
    pub(crate) fast_range_hits: Counter,
    /// Additional optimistic attempts made after a failed validation
    /// (bounded by `FAST_READ_ATTEMPTS` in `tree.rs`) before either
    /// succeeding or falling back.
    pub(crate) fast_range_retries: Counter,
    /// Range reads whose optimistic traversals all failed validation and
    /// which fell back to the descriptor slow path.
    pub(crate) range_fallbacks: Counter,
    /// Limit-bounded collects (`collect_range_limited`) whose optimistic
    /// walk stopped early because the chunk limit was reached — the
    /// `O(log N + limit)` early exit of the streaming scan API.
    pub(crate) fast_range_early_exits: Counter,
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
    fn counters_snapshot_reflects_bumps() {
        use wft_obs::MetricsSource;
        let tree: crate::WaitFreeTree<i64> = crate::WaitFreeTree::new();
        let c = &tree.counters;
        let cells = [
            ("inserts", &c.inserts),
            ("replaces", &c.replaces),
            ("removes", &c.removes),
            ("failed_updates", &c.failed_updates),
            ("fast_failed_updates", &c.fast_failed_updates),
            ("helped_executions", &c.helped_executions),
            ("rebuilds", &c.rebuilds),
            ("rebuilt_items", &c.rebuilt_items),
            ("rebuilds_lost", &c.rebuilds_lost),
            ("fast_point_reads", &c.fast_point_reads),
            ("fast_range_hits", &c.fast_range_hits),
            ("fast_range_retries", &c.fast_range_retries),
            ("range_fallbacks", &c.range_fallbacks),
            ("fast_range_early_exits", &c.fast_range_early_exits),
        ];
        // A distinct amount per cell, so a sample reading the wrong cell
        // shows up.
        for (n, (_, cell)) in cells.iter().enumerate() {
            cell.add(n as u64 + 1);
        }
        let metrics = tree.metrics();
        assert_eq!(metrics.counters.len(), cells.len());
        for (n, (name, _)) in cells.iter().enumerate() {
            let sample = metrics.counter(&format!("tree_{name}"));
            assert_eq!(sample, Some(n as u64 + 1), "{name}");
        }
    }
}
