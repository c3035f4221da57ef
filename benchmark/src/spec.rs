//! Every name the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` declares the same sets (a self-test
//! compares them), and each per-layer metric says which end-to-end metric
//! on which workload it is expected to move.

use crate::ops::{Mix, CLIENTS, DURABLE_CLIENTS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TreeMixed,
    StoreReadQuiescent,
    StoreReadUnderWrites,
    DurableMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TreeMixed,
        Workload::StoreReadQuiescent,
        Workload::StoreReadUnderWrites,
        Workload::DurableMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TreeMixed => "tree-mixed",
            Workload::StoreReadQuiescent => "store-read-quiescent",
            Workload::StoreReadUnderWrites => "store-read-under-writes",
            Workload::DurableMixed => "durable-mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; `BENCHMARK.json` carries the same).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TreeMixed => "The paper's experiment on one WaitFreeTree: all work is in wft-queue and wft-core, wft-store and wft-durable do nothing.",
            Workload::StoreReadQuiescent => "Snapshot front, scan cursor and tree read fast paths with no writer: the contention mechanism is bypassed, so a fix for the loaded case must not move it.",
            Workload::StoreReadUnderWrites => "One writer beside one reader on the same 8-shard store: the reader/writer collapse at threads <= cores; a read gain bought by starving the writer shows in ops_per_s.",
            Workload::DurableMixed => "The full stack on FsStorage, eight blocking clients, log written but not fsynced: wft-durable's log thread does most of the work, the tree little; ends with a crash and a recovery of 20000 ops.",
        }
    }

    /// What each client thread sends.
    pub fn mixes(self) -> Vec<Mix> {
        match self {
            Workload::TreeMixed => vec![Mix::TreeMixed; CLIENTS],
            Workload::StoreReadQuiescent => vec![Mix::StoreRead; CLIENTS],
            Workload::StoreReadUnderWrites => vec![Mix::StoreWrite, Mix::StoreRead],
            Workload::DurableMixed => vec![Mix::DurableMixed; DURABLE_CLIENTS],
        }
    }

    /// The layer the clients call into.
    pub fn layer(self) -> &'static str {
        match self {
            Workload::TreeMixed => "core",
            Workload::StoreReadQuiescent | Workload::StoreReadUnderWrites => "store",
            Workload::DurableMixed => "durable",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: reported by every workload of the untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub meaning: &'static str,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        meaning: "median of 31 builds of the loaded structure (bulk build; for durable-mixed, opening a directory that holds a 2^13-entry checkpoint)",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        meaning: "client operations completed per second by all clients, median of the timed windows",
    },
    EndToEnd {
        name: "range_reads_per_s",
        unit: "1/s",
        better: Better::Higher,
        meaning: "count / collect_range / scan operations completed per second, median of the timed windows (3 per read rotation on the store workloads)",
    },
];

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `(end-to-end metric, workload)` pairs this metric should move.
    pub moves: &'static [(&'static str, &'static str)],
}

impl PerLayer {
    /// The layer is the name's prefix.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().expect("split yields one part")
    }
}

const TREE: &str = "tree-mixed";
const QUIET: &str = "store-read-quiescent";
const LOADED: &str = "store-read-under-writes";
const DURABLE: &str = "durable-mixed";

const TREE_OPS: &[(&str, &str)] = &[("ops_per_s", TREE)];
const TREE_COUNT: &[(&str, &str)] = &[("range_reads_per_s", TREE)];
const TREE_SETUP: &[(&str, &str)] = &[("setup_s", TREE)];
const QUIET_READS: &[(&str, &str)] = &[("range_reads_per_s", QUIET)];
const LOADED_READS: &[(&str, &str)] = &[("range_reads_per_s", LOADED)];
const LOADED_OPS: &[(&str, &str)] = &[("ops_per_s", LOADED)];
const STORE_PEEL: &[(&str, &str)] = &[("ops_per_s", DURABLE), ("ops_per_s", LOADED)];
const DURABLE_OPS: &[(&str, &str)] = &[("ops_per_s", DURABLE)];
const DURABLE_READS: &[(&str, &str)] = &[("range_reads_per_s", DURABLE)];
const DURABLE_SETUP: &[(&str, &str)] = &[("setup_s", DURABLE)];
const ALL_OPS: &[(&str, &str)] = &[
    ("ops_per_s", TREE),
    ("ops_per_s", QUIET),
    ("ops_per_s", LOADED),
    ("ops_per_s", DURABLE),
];

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [(&'static str, &'static str)],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    // wft-queue micro-loops (single thread unless `2t`).
    m("queue.root_enqueue_pop_ns", "ns", Lower, TREE_OPS),
    m("queue.root_enqueue_pop_2t_ns", "ns", Lower, TREE_OPS),
    m("queue.wf_root_enqueue_pop_ns", "ns", Lower, TREE_OPS),
    m("queue.node_push_pop_ns", "ns", Lower, TREE_OPS),
    m("queue.presence_resolve_ns", "ns", Lower, TREE_OPS),
    // wft-core counters per operation, over the traced tree-mixed windows.
    m("core.helped_per_kop", "1/kop", Lower, TREE_OPS),
    m("core.rebuilds_per_kop", "1/kop", Lower, TREE_OPS),
    m("core.rebuilt_items_per_rebuild", "count", Lower, TREE_OPS),
    m("core.failed_update_ratio", "ratio", Lower, TREE_OPS),
    m("core.fast_point_read_ratio", "ratio", Higher, TREE_OPS),
    m("core.fast_range_hit_ratio", "ratio", Higher, TREE_COUNT),
    m(
        "core.fast_range_retries_per_read",
        "ratio",
        Lower,
        TREE_COUNT,
    ),
    m("core.range_fallbacks_per_kread", "1/kop", Lower, TREE_COUNT),
    // Stack peel: the durable-mixed stream replayed on a bare tree.
    m("core.write_us", "us", Lower, DURABLE_OPS),
    m("core.get_us", "us", Lower, DURABLE_OPS),
    m("core.count_us", "us", Lower, DURABLE_READS),
    // Scaling sweep, single thread, quiescent: width at 2^17 keys, then
    // live-set size at width 2^10.
    m("core.count_us.w2e4", "us", Lower, TREE_COUNT),
    m("core.count_us.w2e10", "us", Lower, TREE_COUNT),
    m("core.count_us.w2e16", "us", Lower, TREE_COUNT),
    m("core.count_us.n2e14", "us", Lower, TREE_COUNT),
    m("core.count_us.n2e20", "us", Lower, TREE_COUNT),
    // Bulk-build transient.
    m("core.build_s", "s", Lower, TREE_SETUP),
    m("core.first_window_ratio", "ratio", Higher, TREE_OPS),
    // wft-trie on the tree-mixed stream: the parity check for one engine.
    m("trie.ops_per_s", "1/s", Higher, TREE_OPS),
    m("trie.count_p50_us", "us", Lower, TREE_COUNT),
    m("trie.helped_per_kop", "1/kop", Lower, TREE_OPS),
    // wft-store counters per operation (loaded store; gate waits from the
    // batches of durable-mixed).
    m(
        "store.snapshot_retries_per_read",
        "ratio",
        Lower,
        LOADED_READS,
    ),
    m("store.scan_resumes_per_drain", "ratio", Lower, LOADED_READS),
    m(
        "store.fast_range_retries_per_read",
        "ratio",
        Lower,
        LOADED_READS,
    ),
    m(
        "store.range_fallbacks_per_kread",
        "1/kop",
        Lower,
        LOADED_READS,
    ),
    m("store.helped_per_kop", "1/kop", Lower, LOADED_OPS),
    m(
        "store.commit_gate_waits_per_kop",
        "1/kop",
        Lower,
        DURABLE_OPS,
    ),
    m("store.len_fallbacks", "count", Lower, LOADED_READS),
    // Read and write tails on the loaded store.
    m("store.count_p99_us", "us", Lower, LOADED_READS),
    m("store.collect_p99_us", "us", Lower, LOADED_READS),
    m("store.scan_p99_us", "us", Lower, LOADED_READS),
    m("store.scan_max_ms", "ms", Lower, LOADED_READS),
    m("store.write_p50_us", "us", Lower, LOADED_OPS),
    m("store.write_p99_us", "us", Lower, LOADED_OPS),
    // Collapse factors: loaded p50 over quiescent p50.
    m(
        "store.loaded_over_quiet.count",
        "ratio",
        Lower,
        LOADED_READS,
    ),
    m(
        "store.loaded_over_quiet.collect",
        "ratio",
        Lower,
        LOADED_READS,
    ),
    m("store.loaded_over_quiet.scan", "ratio", Lower, LOADED_READS),
    // Quiescent chunk-16 drain over one-shot collect of the same range.
    m("store.scan_chunk16_ratio", "ratio", Lower, QUIET_READS),
    // Stack peel: store minus tree.
    m("store.self_write_us", "us", Lower, STORE_PEEL),
    m("store.self_get_us", "us", Lower, DURABLE_OPS),
    m("store.self_count_us", "us", Lower, QUIET_READS),
    // wft-durable counters over the traced durable-mixed windows.
    m("durable.fsyncs_per_commit", "ratio", Lower, DURABLE_OPS),
    m("durable.group_size_mean", "count", Higher, DURABLE_OPS),
    m("durable.wal_bytes_per_op", "B", Lower, DURABLE_OPS),
    m("durable.io_retries", "count", Lower, DURABLE_OPS),
    m("durable.commit_p99_us", "us", Lower, DURABLE_OPS),
    m("durable.commit_max_ms", "ms", Lower, DURABLE_OPS),
    m("durable.checkpoint_s", "s", Lower, DURABLE_OPS),
    m("durable.checkpoint_stall_p99_us", "us", Lower, DURABLE_OPS),
    m(
        "durable.recovery_replayed_ops",
        "count",
        Lower,
        DURABLE_SETUP,
    ),
    m("durable.recovery_ops_per_s", "1/s", Higher, DURABLE_SETUP),
    // Stack peel: fsync off minus store, fsync on minus off, get.
    m("durable.journal_self_write_us", "us", Lower, DURABLE_OPS),
    m("durable.fsync_self_write_us", "us", Lower, DURABLE_OPS),
    m("durable.self_get_us", "us", Lower, DURABLE_OPS),
    // wft-obs: what observing costs.
    m("obs.collect_metrics_us", "us", Lower, ALL_OPS),
    m("obs.observe_ns", "ns", Lower, ALL_OPS),
    m("obs.trace_overhead_pct.tree-mixed", "%", Lower, TREE_OPS),
    m(
        "obs.trace_overhead_pct.store-read-quiescent",
        "%",
        Lower,
        QUIET_READS,
    ),
    m(
        "obs.trace_overhead_pct.store-read-under-writes",
        "%",
        Lower,
        LOADED_READS,
    ),
    m(
        "obs.trace_overhead_pct.durable-mixed",
        "%",
        Lower,
        DURABLE_OPS,
    ),
    // Baselines on the tree-mixed stream: the O(log N) vs O(answer) curve
    // that the count latencies of tree-mixed are read against.
    m("baseline.lockfree.ops_per_s", "1/s", Higher, TREE_OPS),
    m("baseline.lockfree.count_us.w2e4", "us", Lower, TREE_COUNT),
    m("baseline.lockfree.count_us.w2e10", "us", Lower, TREE_COUNT),
    m("baseline.lockfree.count_us.w2e16", "us", Lower, TREE_COUNT),
    m("baseline.persistent.ops_per_s", "1/s", Higher, TREE_OPS),
    m(
        "baseline.persistent.count_us.w2e16",
        "us",
        Lower,
        TREE_COUNT,
    ),
    m("baseline.lockbased.ops_per_s", "1/s", Higher, TREE_OPS),
    m("baseline.lockbased.count_us.w2e16", "us", Lower, TREE_COUNT),
    m("baseline.seq.ops_per_s", "1/s", Higher, TREE_OPS),
    // Workload-scoped latencies and rates. The driver's contract wants every
    // end-to-end metric from every workload, so what only some workloads
    // have is reported here, under the workload's name; so is the count
    // median, which every workload has but which moved by 42 % between two
    // runs of the same code (README.md, "End-to-end metrics").
    m("tree-mixed.update_p50_us", "us", Lower, TREE_OPS),
    m("tree-mixed.update_p99_us", "us", Lower, TREE_OPS),
    m("tree-mixed.get_p50_us", "us", Lower, TREE_OPS),
    m("tree-mixed.count_p50_us", "us", Lower, TREE_COUNT),
    m("tree-mixed.count_wide_ratio", "ratio", Lower, TREE_COUNT),
    m(
        "store-read-quiescent.count_p50_us",
        "us",
        Lower,
        QUIET_READS,
    ),
    m(
        "store-read-quiescent.collect_p50_us",
        "us",
        Lower,
        QUIET_READS,
    ),
    m("store-read-quiescent.scan_p50_us", "us", Lower, QUIET_READS),
    m(
        "store-read-under-writes.count_p50_us",
        "us",
        Lower,
        LOADED_READS,
    ),
    m(
        "store-read-under-writes.collect_p50_us",
        "us",
        Lower,
        LOADED_READS,
    ),
    m(
        "store-read-under-writes.scan_p50_us",
        "us",
        Lower,
        LOADED_READS,
    ),
    m(
        "store-read-under-writes.write_ops_per_s",
        "1/s",
        Higher,
        LOADED_OPS,
    ),
    m("durable-mixed.get_p50_us", "us", Lower, DURABLE_OPS),
    m("durable-mixed.count_p50_us", "us", Lower, DURABLE_READS),
    m("durable-mixed.commit_p50_us", "us", Lower, DURABLE_OPS),
    m("durable-mixed.batch_p50_us", "us", Lower, DURABLE_OPS),
    m("durable-mixed.recovery_s", "s", Lower, DURABLE_SETUP),
];

/// Unit of a declared metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|e| (e.name, e.unit))
        .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}
