//! The cross-backend test adapter, compiled into each suite that declares
//! `mod common;`. [`TreeImpl`] builds any backend of the workspace, with
//! `i64` keys, unit values and subtree-size augmentation, as an
//! `Arc<dyn ConcurrentSet>`, and the backends that speak snapshots also as
//! an `Arc<dyn SnapshotSet>`. Each trait is implemented **once**, as a
//! blanket impl over the `wft-api` traits it needs:
//!
//! * [`ConcurrentSet`] — what every backend speaks: point operations,
//!   range reads, the `patch` / `compare_and_set` defaults, `len`, metrics
//!   and the invariant check ([`Invariants`]);
//! * [`SnapshotSet`] — on top of that, snapshot pairs, chunked scans and
//!   two-op batches: the tree, the trie and the two stores. The baselines
//!   are measured on point operations and range reads only.

// Each test binary that declares `mod common;` uses a different subset of
// this module.
#![allow(dead_code)]

use std::sync::Arc;

use wait_free_range_trees::api::{
    BatchApply, OpOutcome, PointMap, RangeRead, RangeScan, RangeSpec, ScanConsistency,
    SnapshotRead, StoreOp,
};
use wait_free_range_trees::core::{ReadPath, TreeConfig, WaitFreeTree};
use wait_free_range_trees::durable::{DurableConfig, DurableStore, ScratchDir};
use wait_free_range_trees::lockbased::LockedRangeTree;
use wait_free_range_trees::lockfree::LockFreeBst;
use wait_free_range_trees::obs::{MetricsSnapshot, MetricsSource};
use wait_free_range_trees::persistent::PersistentRangeTree;
use wait_free_range_trees::store::{split_keys_from_sample, ShardedStore, StoreConfig};
use wait_free_range_trees::trie::WaitFreeTrie;

/// The point and range half of the `wft-api` trait family, monomorphised to
/// `i64` keys and unit values and made object-safe, so heterogeneous
/// backends can share one `Arc<dyn ConcurrentSet>`.
pub trait ConcurrentSet: Send + Sync + 'static {
    /// Inserts `key`; returns `true` if it was absent.
    fn insert(&self, key: i64) -> bool;
    /// Upserts `key` (the atomic replace); returns `true` if it was already
    /// present.
    fn replace(&self, key: i64) -> bool;
    /// Removes `key`; returns `true` if it was present.
    fn remove(&self, key: i64) -> bool;
    /// Returns `true` if `key` is present.
    fn contains(&self, key: i64) -> bool;
    /// Number of keys in `[min, max]` via the aggregate range query.
    fn count(&self, min: i64, max: i64) -> u64;
    /// The keys in `[min, max]`, ascending, via `collect_range`.
    fn collect(&self, min: i64, max: i64) -> Vec<i64>;
    /// Number of keys in `[min, max]` as `collect(min, max).len()`, linear
    /// in the range size.
    fn count_via_collect(&self, min: i64, max: i64) -> u64 {
        self.collect(min, max).len() as u64
    }
    /// Toggles `key`'s membership through one `PointMap::patch` (present →
    /// removed, absent → inserted); returns whether the key is present
    /// afterwards. Atomic only where [`TreeImpl::patch_is_atomic`] says so.
    fn patch_toggle(&self, key: i64) -> bool;
    /// Insert-if-absent through `PointMap::compare_and_set` with
    /// `expect: None`; returns whether the write applied. Atomic only where
    /// [`TreeImpl::patch_is_atomic`] says so.
    fn cas_insert(&self, key: i64) -> bool;
    /// Number of keys currently stored.
    fn len(&self) -> u64;
    /// One snapshot of the backend's counters and gauges.
    fn metrics_snapshot(&self) -> MetricsSnapshot;
    /// The backend's structural invariant check; quiescent only, panics on
    /// a violation.
    fn check_invariants(&self);
}

/// The snapshot half of the trait family (`SnapshotRead`, `RangeScan`,
/// `BatchApply`), for the backends that speak it. `ConcurrentSet` is a
/// supertrait, so an `Arc<dyn SnapshotSet>` upcasts to an
/// `Arc<dyn ConcurrentSet>`.
pub trait SnapshotSet: ConcurrentSet {
    /// Counts of `[a_min, a_max]` and `[b_min, b_max]` answered from **one
    /// snapshot** (`SnapshotRead`): both describe the same instant.
    fn snapshot_count_pair(&self, a_min: i64, a_max: i64, b_min: i64, b_max: i64) -> (u64, u64);
    /// Drains one streaming cursor over `[min, max]` in `chunk`-sized
    /// chunks (`RangeScan`), returning the number of entries yielded and
    /// whether the drain stayed a single snapshot.
    fn chunked_scan_count(&self, min: i64, max: i64, chunk: usize) -> (u64, bool);
    /// Drains cursors over `[min, max]` in `chunk`-sized chunks until one
    /// completes as a single snapshot (`RangeScan::scan_snapshot`) and
    /// returns its keys: the paginated equivalent of one `collect_range`.
    fn chunked_scan_snapshot(&self, min: i64, max: i64, chunk: usize) -> Vec<i64>;
    /// One two-op batch, `remove(a)` + `insert(b)`, through `BatchApply`;
    /// returns (`a` removed, `b` inserted). Requires `a != b`. All or
    /// nothing against concurrent readers only where
    /// [`TreeImpl::batch_is_atomic`] says so.
    fn batch_move(&self, a: i64, b: i64) -> (bool, bool);
}

/// A backend's quiescent structural self-check. Every backend has one as an
/// inherent method; this trait only names it for the blanket
/// [`ConcurrentSet`] impl.
pub trait Invariants {
    /// Panics unless the backend's structural invariants hold.
    fn check_invariants(&self);
}

macro_rules! invariants_are_inherent {
    ($($backend:ty),* $(,)?) => {$(
        impl Invariants for $backend {
            fn check_invariants(&self) {
                <$backend>::check_invariants(self)
            }
        }
    )*};
}

invariants_are_inherent!(
    WaitFreeTree<i64>,
    WaitFreeTrie<i64>,
    PersistentRangeTree<i64>,
    LockedRangeTree<i64>,
    LockFreeBst<i64>,
    ShardedStore<i64>,
);

impl Invariants for DurableStore<i64> {
    fn check_invariants(&self) {
        self.store().check_invariants()
    }
}

impl<T> ConcurrentSet for T
where
    T: PointMap<i64, ()> + RangeRead<i64, ()> + MetricsSource + Invariants + 'static,
{
    fn insert(&self, key: i64) -> bool {
        PointMap::insert(self, key, ()).is_applied()
    }
    fn replace(&self, key: i64) -> bool {
        PointMap::replace(self, key, ()).displaced_existing()
    }
    fn remove(&self, key: i64) -> bool {
        PointMap::remove(self, &key).is_applied()
    }
    fn contains(&self, key: i64) -> bool {
        PointMap::contains(self, &key)
    }
    fn count(&self, min: i64, max: i64) -> u64 {
        RangeRead::count(self, RangeSpec::inclusive(min, max))
    }
    fn collect(&self, min: i64, max: i64) -> Vec<i64> {
        RangeRead::collect_range(self, RangeSpec::inclusive(min, max))
            .into_iter()
            .map(|(k, ())| k)
            .collect()
    }
    fn patch_toggle(&self, key: i64) -> bool {
        fn toggle(current: Option<()>) -> Option<()> {
            match current {
                Some(()) => None,
                None => Some(()),
            }
        }
        PointMap::patch(self, key, toggle).is_some()
    }
    fn cas_insert(&self, key: i64) -> bool {
        PointMap::compare_and_set(self, key, None, ())
    }
    fn len(&self) -> u64 {
        PointMap::len(self)
    }
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSource::metrics(self)
    }
    fn check_invariants(&self) {
        Invariants::check_invariants(self)
    }
}

impl<T> SnapshotSet for T
where
    T: ConcurrentSet + SnapshotRead<i64, ()> + RangeScan<i64, ()> + BatchApply<i64, ()> + 'static,
{
    fn snapshot_count_pair(&self, a_min: i64, a_max: i64, b_min: i64, b_max: i64) -> (u64, u64) {
        let counts = SnapshotRead::snapshot_counts(
            self,
            &[
                RangeSpec::inclusive(a_min, a_max),
                RangeSpec::inclusive(b_min, b_max),
            ],
        );
        (counts[0], counts[1])
    }
    fn chunked_scan_count(&self, min: i64, max: i64, chunk: usize) -> (u64, bool) {
        let (entries, consistency) =
            RangeScan::scan_collect(self, RangeSpec::inclusive(min, max), chunk);
        (
            entries.len() as u64,
            consistency == ScanConsistency::Snapshot,
        )
    }
    fn chunked_scan_snapshot(&self, min: i64, max: i64, chunk: usize) -> Vec<i64> {
        RangeScan::scan_snapshot(self, RangeSpec::inclusive(min, max), chunk)
            .into_iter()
            .map(|(k, ())| k)
            .collect()
    }
    fn batch_move(&self, a: i64, b: i64) -> (bool, bool) {
        let outcomes = BatchApply::apply_batch(
            self,
            vec![
                StoreOp::Remove { key: a },
                StoreOp::Insert { key: b, value: () },
            ],
        )
        .expect("a two-distinct-key batch validates");
        match (&outcomes[0], &outcomes[1]) {
            (OpOutcome::Removed(removed), OpOutcome::Inserted(inserted)) => (*removed, *inserted),
            other => unreachable!("Remove/Insert yield Removed/Inserted, got {other:?}"),
        }
    }
}

/// Selects one of the backends under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeImpl {
    /// The paper's wait-free tree.
    WaitFree,
    /// The persistent path-copying baseline (the paper's competitor).
    Persistent,
    /// The global-lock baseline.
    Locked,
    /// The lock-free external BST whose only range query is `collect`
    /// (linear-time counts: the prior-work class of §I-A).
    LockFreeLinear,
    /// The wait-free binary trie.
    Trie,
    /// The range-partitioned sharded store: one wait-free tree per
    /// keyspace slice, one shard per thread the caller plans to run.
    Sharded,
    /// The wait-free tree with reads forced through the descriptor path
    /// (`ReadPath::Descriptor`). Not in [`TreeImpl::ALL`]: the
    /// linearizability suites check reads under both read paths.
    WaitFreeDescReads,
    /// The wait-free trie with reads forced through the descriptor path;
    /// same role as [`TreeImpl::WaitFreeDescReads`].
    TrieDescReads,
    /// The sharded store with every shard's reads forced through the
    /// descriptor path; same role as [`TreeImpl::WaitFreeDescReads`].
    ShardedDescReads,
    /// The crash-safe store: the sharded store behind a group-commit
    /// write-ahead log in a self-cleaning scratch directory. Not in
    /// [`TreeImpl::ALL`]: every write pays an `fsync`.
    Durable,
}

impl TreeImpl {
    /// The in-memory backends every cross-backend sweep covers.
    pub const ALL: [TreeImpl; 6] = [
        TreeImpl::WaitFree,
        TreeImpl::Persistent,
        TreeImpl::Locked,
        TreeImpl::LockFreeLinear,
        TreeImpl::Trie,
        TreeImpl::Sharded,
    ];

    /// Short, stable name used as the label in assertion messages.
    pub fn name(&self) -> &'static str {
        match self {
            TreeImpl::WaitFree => "wait-free-tree",
            TreeImpl::Persistent => "persistent-tree",
            TreeImpl::Locked => "locked-tree",
            TreeImpl::LockFreeLinear => "lock-free-bst(linear)",
            TreeImpl::Trie => "wait-free-trie",
            TreeImpl::Sharded => "sharded-store",
            TreeImpl::WaitFreeDescReads => "wait-free-tree(desc-reads)",
            TreeImpl::TrieDescReads => "wait-free-trie(desc-reads)",
            TreeImpl::ShardedDescReads => "sharded-store(desc-reads)",
            TreeImpl::Durable => "durable-store",
        }
    }

    /// `true` when `replace` is a single linearizable operation. The
    /// lock-free linear baseline composes `remove` + `insert` (its class has
    /// no native upsert), so histories mixing `replace` with concurrent
    /// reads are not checked against it.
    pub fn replace_is_atomic(&self) -> bool {
        !matches!(self, TreeImpl::LockFreeLinear)
    }

    /// `true` when `apply_batch` commits all or nothing with respect to
    /// concurrent readers. The sharded store publishes batches at the front
    /// behind a commit gate; the durable store sequences every batch
    /// through the journal onto that same store. Single trees apply batch
    /// ops serially, so a concurrent range read can land between two of
    /// them.
    pub fn batch_is_atomic(&self) -> bool {
        matches!(
            self,
            TreeImpl::Sharded | TreeImpl::ShardedDescReads | TreeImpl::Durable
        )
    }

    /// `true` when `patch` / `compare_and_set` are single linearizable
    /// read-modify-writes. The store family routes both through its
    /// transactional single-op batch path; everything else inherits the
    /// `wft-api` get-then-write defaults, which lose updates under
    /// contention by design.
    pub fn patch_is_atomic(&self) -> bool {
        self.batch_is_atomic()
    }

    /// Builds the backend pre-filled with `entries`, sized for
    /// `max_threads` concurrent callers (the store's shard count).
    pub fn build(&self, entries: &[i64], max_threads: usize) -> Arc<dyn ConcurrentSet> {
        let pairs = entries.iter().map(|&k| (k, ()));
        match self {
            TreeImpl::Persistent => Arc::new(PersistentRangeTree::<i64>::from_entries(pairs)),
            TreeImpl::Locked => Arc::new(LockedRangeTree::<i64>::from_entries(pairs)),
            TreeImpl::LockFreeLinear => Arc::new(LockFreeBst::<i64>::from_entries(pairs)),
            _ => self
                .build_snapshot(entries, max_threads)
                .expect("every other backend speaks snapshots"),
        }
    }

    /// [`build`](TreeImpl::build) for the backends that speak snapshots;
    /// `None` for the baselines.
    pub fn build_snapshot(
        &self,
        entries: &[i64],
        max_threads: usize,
    ) -> Option<Arc<dyn SnapshotSet>> {
        let pairs = entries.iter().map(|&k| (k, ()));
        let descriptor_reads = TreeConfig {
            read_path: ReadPath::Descriptor,
            ..TreeConfig::default()
        };
        Some(match self {
            TreeImpl::Persistent | TreeImpl::Locked | TreeImpl::LockFreeLinear => return None,
            TreeImpl::WaitFree => Arc::new(WaitFreeTree::<i64>::from_entries(pairs)),
            TreeImpl::Trie => Arc::new(WaitFreeTrie::<i64>::from_entries(pairs)),
            TreeImpl::Sharded => {
                Arc::new(ShardedStore::<i64>::from_entries(pairs, max_threads.max(1)))
            }
            TreeImpl::WaitFreeDescReads => Arc::new(WaitFreeTree::<i64>::from_entries_with_config(
                pairs,
                descriptor_reads,
            )),
            TreeImpl::TrieDescReads => Arc::new(WaitFreeTrie::<i64>::from_entries_with_config(
                pairs,
                descriptor_reads,
            )),
            TreeImpl::ShardedDescReads => {
                let config = StoreConfig {
                    tree: descriptor_reads,
                    ..StoreConfig::default()
                };
                Arc::new(ShardedStore::<i64>::from_entries_with_config(
                    pairs,
                    max_threads.max(1),
                    config,
                ))
            }
            TreeImpl::Durable => {
                let scratch = ScratchDir::new("durable-set");
                let config = DurableConfig {
                    shards: max_threads.max(1),
                    ..DurableConfig::default()
                };
                let open = || {
                    DurableStore::<i64>::open_with_config(scratch.path(), config.clone())
                        .expect("opening durable store in scratch dir")
                };
                // The store splits its shards from the recovered image, so a
                // fresh directory opens as one shard: checkpoint the prefill
                // and reopen to shard it exactly like `Sharded`.
                let store = open();
                store
                    .apply_durable(
                        entries
                            .iter()
                            .map(|&k| StoreOp::Insert { key: k, value: () })
                            .collect(),
                    )
                    .expect("prefilling durable store");
                store.checkpoint().expect("checkpointing the prefill");
                store.shutdown();
                drop(store);
                let store = open();
                let shards = split_keys_from_sample(&mut entries.to_vec(), config.shards).len() + 1;
                assert_eq!(
                    store.store().num_shards(),
                    shards,
                    "the durable backend runs on max_threads shards once the prefill has as many keys"
                );
                Arc::new(DurableSet {
                    store,
                    _scratch: scratch,
                })
            }
        })
    }
}

/// Keeps the scratch directory alive exactly as long as the durable store
/// built over it (fields drop in order: the store first), so the WAL is
/// cleaned up when the set is dropped. Delegates [`ConcurrentSet`] and
/// [`SnapshotSet`] to the store's own blanket impls.
struct DurableSet {
    store: DurableStore<i64>,
    _scratch: ScratchDir,
}

impl ConcurrentSet for DurableSet {
    fn insert(&self, key: i64) -> bool {
        ConcurrentSet::insert(&self.store, key)
    }
    fn replace(&self, key: i64) -> bool {
        ConcurrentSet::replace(&self.store, key)
    }
    fn remove(&self, key: i64) -> bool {
        ConcurrentSet::remove(&self.store, key)
    }
    fn contains(&self, key: i64) -> bool {
        ConcurrentSet::contains(&self.store, key)
    }
    fn count(&self, min: i64, max: i64) -> u64 {
        ConcurrentSet::count(&self.store, min, max)
    }
    fn collect(&self, min: i64, max: i64) -> Vec<i64> {
        ConcurrentSet::collect(&self.store, min, max)
    }
    fn patch_toggle(&self, key: i64) -> bool {
        ConcurrentSet::patch_toggle(&self.store, key)
    }
    fn cas_insert(&self, key: i64) -> bool {
        ConcurrentSet::cas_insert(&self.store, key)
    }
    fn len(&self) -> u64 {
        ConcurrentSet::len(&self.store)
    }
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        ConcurrentSet::metrics_snapshot(&self.store)
    }
    fn check_invariants(&self) {
        ConcurrentSet::check_invariants(&self.store)
    }
}

impl SnapshotSet for DurableSet {
    fn snapshot_count_pair(&self, a_min: i64, a_max: i64, b_min: i64, b_max: i64) -> (u64, u64) {
        SnapshotSet::snapshot_count_pair(&self.store, a_min, a_max, b_min, b_max)
    }
    fn chunked_scan_count(&self, min: i64, max: i64, chunk: usize) -> (u64, bool) {
        SnapshotSet::chunked_scan_count(&self.store, min, max, chunk)
    }
    fn chunked_scan_snapshot(&self, min: i64, max: i64, chunk: usize) -> Vec<i64> {
        SnapshotSet::chunked_scan_snapshot(&self.store, min, max, chunk)
    }
    fn batch_move(&self, a: i64, b: i64) -> (bool, bool) {
        SnapshotSet::batch_move(&self.store, a, b)
    }
}
