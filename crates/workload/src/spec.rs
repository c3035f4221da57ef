//! Declarative workload specifications.
//!
//! A [`WorkloadSpec`] describes one of the paper's experiments: how the tree
//! is pre-filled, from which key distribution operations draw their
//! arguments, and with which probabilities the operation types are mixed.
//! The three specs used in §III are provided as constructors
//! ([`WorkloadSpec::contains_benchmark`], [`WorkloadSpec::insert_delete`],
//! [`WorkloadSpec::successful_insert`]), together with the range-query mixes
//! used by the integration tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How the tree is populated before measurement starts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Prefill {
    /// Insert every key of the workload's key range independently with the
    /// given probability (the paper pre-fills with probability 1/2).
    Bernoulli {
        /// Inclusion probability.
        probability: f64,
    },
    /// Insert exactly `count` keys drawn uniformly at random from the whole
    /// `i64` range (the successful-insert benchmark pre-fills 10^6 random
    /// integers).
    RandomCount {
        /// Number of random keys.
        count: usize,
    },
    /// Start from an empty tree.
    Empty,
}

/// The distribution from which per-operation keys are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KeyDistribution {
    /// Uniform over the workload's `[1, key_range]` interval (contains and
    /// insert-delete benchmarks).
    UniformInRange,
    /// Uniform over the full 64-bit range (successful-insert benchmark: with
    /// a pre-fill of only 10^6 keys, collisions are vanishingly rare so
    /// essentially every insert succeeds).
    UniformFullRange,
}

/// Relative frequencies of the operation types (they need not sum to 1; they
/// are normalised).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperationMix {
    /// Fraction of `contains` operations.
    pub contains: f64,
    /// Fraction of `insert` operations.
    pub insert: f64,
    /// Fraction of `remove` operations.
    pub remove: f64,
    /// Fraction of aggregate `count` range queries.
    pub count: f64,
    /// Fraction of `collect`-based counts (the linear-time baseline query).
    pub collect: f64,
    /// Fraction of snapshot reads: two subrange counts answered from one
    /// acquired snapshot front (`wft_api::SnapshotRead`).
    pub snapshot: f64,
    /// Fraction of streaming scans: one cursor drained over the range in
    /// bounded chunks (`wft_api::RangeScan`).
    pub scan: f64,
    /// Fraction of read-modify-write toggles: one `PointMap::patch` that
    /// flips the key's membership in a single atomic step
    /// (`ConcurrentSet::patch_toggle`).
    pub patch: f64,
    /// Fraction of two-key atomic batches: remove one key and insert
    /// another in one all-or-nothing commit
    /// (`ConcurrentSet::batch_move`).
    pub batch: f64,
}

impl OperationMix {
    fn total(&self) -> f64 {
        self.contains
            + self.insert
            + self.remove
            + self.count
            + self.collect
            + self.snapshot
            + self.scan
            + self.patch
            + self.batch
    }
}

/// A single benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Human-readable name used in tables.
    pub name: &'static str,
    /// Keys used by `UniformInRange` draws: `[1, key_range]`.
    pub key_range: i64,
    /// Pre-fill policy.
    pub prefill: Prefill,
    /// Key distribution of the measured operations.
    pub distribution: KeyDistribution,
    /// Operation mix of the measured phase.
    pub mix: OperationMix,
    /// Width of range queries, as a fraction of `key_range` (only used when
    /// the mix contains `count`/`collect` operations).
    pub range_fraction: f64,
}

/// One concrete operation drawn from a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Membership test.
    Contains(i64),
    /// Insertion.
    Insert(i64),
    /// Removal.
    Remove(i64),
    /// Aggregate count over a range.
    Count(i64, i64),
    /// Collect-based count over a range.
    Collect(i64, i64),
    /// Two subrange counts `[a_min, a_max]` / `[b_min, b_max]` answered
    /// from one snapshot front.
    SnapshotCounts(i64, i64, i64, i64),
    /// One streaming cursor drained over `[min, max]` in chunks of the
    /// given size (`wft_api::RangeScan`).
    ChunkedScan(i64, i64, usize),
    /// One read-modify-write membership toggle, executed as a single
    /// atomic `PointMap::patch` step.
    Patch(i64),
    /// One two-key atomic batch: remove the first key and insert the
    /// second in one all-or-nothing commit. The keys are always distinct
    /// (a batch refuses duplicate mutation keys).
    AtomicBatch(i64, i64),
}

impl WorkloadSpec {
    /// Figure 7: read-heavy workload, 100% `contains`, keys uniform in
    /// `[1, 2·10^6]`, pre-filled with probability 1/2.
    pub fn contains_benchmark() -> Self {
        WorkloadSpec {
            name: "contains",
            key_range: 2_000_000,
            prefill: Prefill::Bernoulli { probability: 0.5 },
            distribution: KeyDistribution::UniformInRange,
            mix: OperationMix {
                contains: 1.0,
                insert: 0.0,
                remove: 0.0,
                count: 0.0,
                collect: 0.0,
                snapshot: 0.0,
                scan: 0.0,
                patch: 0.0,
                batch: 0.0,
            },
            range_fraction: 0.0,
        }
    }

    /// Figure 8: insert-delete workload, 50% insert / 50% remove on keys
    /// uniform in `[1, 2·10^6]`, pre-filled with probability 1/2 so roughly
    /// half the updates succeed.
    pub fn insert_delete() -> Self {
        WorkloadSpec {
            name: "insert-delete",
            key_range: 2_000_000,
            prefill: Prefill::Bernoulli { probability: 0.5 },
            distribution: KeyDistribution::UniformInRange,
            mix: OperationMix {
                contains: 0.0,
                insert: 0.5,
                remove: 0.5,
                count: 0.0,
                collect: 0.0,
                snapshot: 0.0,
                scan: 0.0,
                patch: 0.0,
                batch: 0.0,
            },
            range_fraction: 0.0,
        }
    }

    /// Figure 9: successful-insert workload, 100% inserts of keys drawn from
    /// the full 64-bit range over a tree pre-filled with 10^6 random keys,
    /// so essentially every insert succeeds.
    pub fn successful_insert() -> Self {
        WorkloadSpec {
            name: "successful-insert",
            key_range: 2_000_000,
            prefill: Prefill::RandomCount { count: 1_000_000 },
            distribution: KeyDistribution::UniformFullRange,
            mix: OperationMix {
                contains: 0.0,
                insert: 1.0,
                remove: 0.0,
                count: 0.0,
                collect: 0.0,
                snapshot: 0.0,
                scan: 0.0,
                patch: 0.0,
                batch: 0.0,
            },
            range_fraction: 0.0,
        }
    }

    /// Extra experiment E7: a mixed workload with updates, point reads and a
    /// given percentage of aggregate range queries of a given relative width.
    pub fn range_mix(count_percent: f64, range_fraction: f64) -> Self {
        let count = count_percent / 100.0;
        let rest = 1.0 - count;
        WorkloadSpec {
            name: "range-mix",
            key_range: 2_000_000,
            prefill: Prefill::Bernoulli { probability: 0.5 },
            distribution: KeyDistribution::UniformInRange,
            mix: OperationMix {
                contains: rest * 0.5,
                insert: rest * 0.25,
                remove: rest * 0.25,
                count,
                collect: 0.0,
                snapshot: 0.0,
                scan: 0.0,
                patch: 0.0,
                batch: 0.0,
            },
            range_fraction,
        }
    }

    /// Snapshot-consistency workload: a given percentage of snapshot reads
    /// (two subrange counts from one acquired front) over an
    /// insert/remove/contains background, used by smoke tests.
    pub fn snapshot_mix(snapshot_percent: f64, range_fraction: f64) -> Self {
        let snapshot = snapshot_percent / 100.0;
        let rest = 1.0 - snapshot;
        WorkloadSpec {
            name: "snapshot-mix",
            key_range: 2_000_000,
            prefill: Prefill::Bernoulli { probability: 0.5 },
            distribution: KeyDistribution::UniformInRange,
            mix: OperationMix {
                contains: rest * 0.5,
                insert: rest * 0.25,
                remove: rest * 0.25,
                count: 0.0,
                collect: 0.0,
                snapshot,
                scan: 0.0,
                patch: 0.0,
                batch: 0.0,
            },
            range_fraction,
        }
    }

    /// Streaming-scan workload: a given percentage of chunked cursor drains
    /// (`wft_api::RangeScan`) over an insert/remove/contains background;
    /// used by smoke tests.
    pub fn scan_mix(scan_percent: f64, range_fraction: f64) -> Self {
        let scan = scan_percent / 100.0;
        let rest = 1.0 - scan;
        WorkloadSpec {
            name: "scan-mix",
            key_range: 2_000_000,
            prefill: Prefill::Bernoulli { probability: 0.5 },
            distribution: KeyDistribution::UniformInRange,
            mix: OperationMix {
                contains: rest * 0.5,
                insert: rest * 0.25,
                remove: rest * 0.25,
                count: 0.0,
                collect: 0.0,
                snapshot: 0.0,
                scan,
                patch: 0.0,
                batch: 0.0,
            },
            range_fraction,
        }
    }

    /// Transactional workload: a given percentage of logical ops — split
    /// evenly between `patch` read-modify-write toggles and two-key atomic
    /// batch moves — over an insert/remove/contains background; used by
    /// smoke tests.
    pub fn transactional_mix(transact_percent: f64) -> Self {
        let transact = transact_percent / 100.0;
        let rest = 1.0 - transact;
        WorkloadSpec {
            name: "transactional-mix",
            key_range: 2_000_000,
            prefill: Prefill::Bernoulli { probability: 0.5 },
            distribution: KeyDistribution::UniformInRange,
            mix: OperationMix {
                contains: rest * 0.5,
                insert: rest * 0.25,
                remove: rest * 0.25,
                count: 0.0,
                collect: 0.0,
                snapshot: 0.0,
                scan: 0.0,
                patch: transact * 0.5,
                batch: transact * 0.5,
            },
            range_fraction: 0.0,
        }
    }

    /// Extra experiment E4: pure aggregate range queries of a given relative
    /// width, used to compare `count` against `collect().len()`.
    pub fn count_only(key_range: i64, range_fraction: f64, via_collect: bool) -> Self {
        WorkloadSpec {
            name: if via_collect {
                "collect-count"
            } else {
                "agg-count"
            },
            key_range,
            prefill: Prefill::Bernoulli { probability: 0.5 },
            distribution: KeyDistribution::UniformInRange,
            mix: OperationMix {
                contains: 0.0,
                insert: 0.0,
                remove: 0.0,
                count: if via_collect { 0.0 } else { 1.0 },
                collect: if via_collect { 1.0 } else { 0.0 },
                snapshot: 0.0,
                scan: 0.0,
                patch: 0.0,
                batch: 0.0,
            },
            range_fraction,
        }
    }

    /// A smaller copy of the workload (narrower key range / pre-fill) used by
    /// quick CI runs and unit tests.
    pub fn scaled_down(mut self, key_range: i64) -> Self {
        self.key_range = key_range;
        if let Prefill::RandomCount { count } = &mut self.prefill {
            *count = (key_range / 2) as usize;
        }
        self
    }

    /// Generates the pre-fill key set for this workload.
    pub fn prefill_keys(&self, seed: u64) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        match self.prefill {
            Prefill::Empty => Vec::new(),
            Prefill::Bernoulli { probability } => (1..=self.key_range)
                .filter(|_| rng.gen_bool(probability))
                .collect(),
            Prefill::RandomCount { count } => {
                let mut keys: Vec<i64> = (0..count).map(|_| rng.gen::<i64>()).collect();
                keys.sort_unstable();
                keys.dedup();
                keys
            }
        }
    }

    /// Draws the next operation for a worker thread.
    pub fn next_op(&self, rng: &mut StdRng) -> Op {
        let total = self.mix.total();
        let mut roll = rng.gen_range(0.0..total);
        let key = match self.distribution {
            KeyDistribution::UniformInRange => rng.gen_range(1..=self.key_range),
            KeyDistribution::UniformFullRange => rng.gen::<i64>(),
        };
        if roll < self.mix.contains {
            return Op::Contains(key);
        }
        roll -= self.mix.contains;
        if roll < self.mix.insert {
            return Op::Insert(key);
        }
        roll -= self.mix.insert;
        if roll < self.mix.remove {
            return Op::Remove(key);
        }
        roll -= self.mix.remove;
        if roll < self.mix.patch {
            return Op::Patch(key);
        }
        roll -= self.mix.patch;
        if roll < self.mix.batch {
            // Atomic move: the drawn key out, an independently drawn one
            // in; nudge collisions apart so the batch always validates.
            let mut dst = match self.distribution {
                KeyDistribution::UniformInRange => rng.gen_range(1..=self.key_range),
                KeyDistribution::UniformFullRange => rng.gen::<i64>(),
            };
            if dst == key {
                dst = dst.wrapping_add(1);
            }
            return Op::AtomicBatch(key, dst);
        }
        roll -= self.mix.batch;
        let width = ((self.key_range as f64) * self.range_fraction).max(1.0) as i64;
        let lo = rng.gen_range(1..=self.key_range.saturating_sub(width).max(1));
        let hi = lo.saturating_add(width);
        if roll < self.mix.count {
            return Op::Count(lo, hi);
        }
        roll -= self.mix.count;
        if roll < self.mix.collect {
            return Op::Collect(lo, hi);
        }
        roll -= self.mix.collect;
        if roll < self.mix.snapshot {
            // Snapshot read: the drawn range plus a second independent
            // subrange, both answered from one front.
            let lo2 = rng.gen_range(1..=self.key_range.saturating_sub(width).max(1));
            return Op::SnapshotCounts(lo, hi, lo2, lo2.saturating_add(width));
        }
        // Streaming scan: drain the drawn range in bounded chunks (64 keys —
        // a typical page size relative to the range widths used here).
        Op::ChunkedScan(lo, hi, 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workloads_have_expected_shapes() {
        let contains = WorkloadSpec::contains_benchmark();
        assert_eq!(contains.key_range, 2_000_000);
        assert!((contains.mix.contains - 1.0).abs() < f64::EPSILON);

        let updates = WorkloadSpec::insert_delete();
        assert!((updates.mix.insert - 0.5).abs() < f64::EPSILON);
        assert!((updates.mix.remove - 0.5).abs() < f64::EPSILON);

        let inserts = WorkloadSpec::successful_insert();
        assert!(matches!(
            inserts.prefill,
            Prefill::RandomCount { count: 1_000_000 }
        ));
        assert_eq!(inserts.distribution, KeyDistribution::UniformFullRange);
    }

    #[test]
    fn prefill_bernoulli_hits_roughly_half_the_range() {
        let spec = WorkloadSpec::contains_benchmark().scaled_down(10_000);
        let keys = spec.prefill_keys(1);
        let frac = keys.len() as f64 / 10_000.0;
        assert!(
            (0.45..0.55).contains(&frac),
            "prefill fraction {frac} too far from 0.5"
        );
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be unique & sorted"
        );
    }

    #[test]
    fn prefill_is_deterministic_per_seed() {
        let spec = WorkloadSpec::insert_delete().scaled_down(5_000);
        assert_eq!(spec.prefill_keys(7), spec.prefill_keys(7));
        assert_ne!(spec.prefill_keys(7), spec.prefill_keys(8));
    }

    #[test]
    fn op_mix_respects_probabilities() {
        let spec = WorkloadSpec::range_mix(10.0, 0.01).scaled_down(10_000);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 9];
        const N: usize = 20_000;
        for _ in 0..N {
            match spec.next_op(&mut rng) {
                Op::Contains(_) => counts[0] += 1,
                Op::Insert(_) => counts[1] += 1,
                Op::Remove(_) => counts[2] += 1,
                Op::Count(_, _) => counts[3] += 1,
                Op::Collect(_, _) => counts[4] += 1,
                Op::SnapshotCounts(..) => counts[5] += 1,
                Op::ChunkedScan(..) => counts[6] += 1,
                Op::Patch(_) => counts[7] += 1,
                Op::AtomicBatch(..) => counts[8] += 1,
            }
        }
        let frac = |i: usize| counts[i] as f64 / N as f64;
        assert!(
            (frac(0) - 0.45).abs() < 0.02,
            "contains fraction {}",
            frac(0)
        );
        assert!((frac(3) - 0.10).abs() < 0.02, "count fraction {}", frac(3));
        assert_eq!(counts[4], 0);
        assert_eq!(counts[5], 0, "range_mix draws no snapshot ops");
        assert_eq!(counts[6], 0, "range_mix draws no scan ops");
        assert_eq!(counts[7], 0, "range_mix draws no patch ops");
        assert_eq!(counts[8], 0, "range_mix draws no batch ops");
    }

    #[test]
    fn transactional_mix_draws_patch_and_batch_ops() {
        let spec = WorkloadSpec::transactional_mix(40.0).scaled_down(10_000);
        let mut rng = StdRng::seed_from_u64(23);
        let (mut patches, mut batches) = (0usize, 0usize);
        const N: usize = 20_000;
        for _ in 0..N {
            match spec.next_op(&mut rng) {
                Op::Patch(k) => {
                    patches += 1;
                    assert!(k >= 1);
                }
                Op::AtomicBatch(a, b) => {
                    batches += 1;
                    assert_ne!(a, b, "batch keys must be distinct");
                }
                _ => {}
            }
        }
        let frac = |n: usize| n as f64 / N as f64;
        assert!(
            (frac(patches) - 0.20).abs() < 0.02,
            "patch fraction {}",
            frac(patches)
        );
        assert!(
            (frac(batches) - 0.20).abs() < 0.02,
            "batch fraction {}",
            frac(batches)
        );
    }

    #[test]
    fn scan_mix_draws_chunked_scans() {
        let spec = WorkloadSpec::scan_mix(25.0, 0.05).scaled_down(10_000);
        let mut rng = StdRng::seed_from_u64(17);
        let mut scans = 0usize;
        const N: usize = 10_000;
        for _ in 0..N {
            if let Op::ChunkedScan(lo, hi, chunk) = spec.next_op(&mut rng) {
                scans += 1;
                assert!(lo <= hi && chunk > 0);
            }
        }
        let frac = scans as f64 / N as f64;
        assert!((frac - 0.25).abs() < 0.02, "scan fraction {frac}");
    }

    #[test]
    fn snapshot_mix_draws_snapshot_ops() {
        let spec = WorkloadSpec::snapshot_mix(20.0, 0.05).scaled_down(10_000);
        let mut rng = StdRng::seed_from_u64(13);
        let mut snapshots = 0usize;
        const N: usize = 10_000;
        for _ in 0..N {
            if let Op::SnapshotCounts(a_min, a_max, b_min, b_max) = spec.next_op(&mut rng) {
                snapshots += 1;
                assert!(a_min <= a_max && b_min <= b_max);
            }
        }
        let frac = snapshots as f64 / N as f64;
        assert!((frac - 0.20).abs() < 0.02, "snapshot fraction {frac}");
    }

    #[test]
    fn range_queries_stay_in_bounds() {
        let spec = WorkloadSpec::count_only(1_000, 0.1, false);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1_000 {
            if let Op::Count(lo, hi) = spec.next_op(&mut rng) {
                assert!(lo >= 1);
                assert!(hi >= lo);
                assert!(
                    hi - lo >= 100 - 1,
                    "width must match the requested fraction"
                );
            } else {
                panic!("count-only workload must only generate count ops");
            }
        }
    }

    #[test]
    fn successful_insert_keys_rarely_collide() {
        let spec = WorkloadSpec::successful_insert().scaled_down(100_000);
        let mut rng = StdRng::seed_from_u64(5);
        let mut keys = std::collections::HashSet::new();
        for _ in 0..10_000 {
            if let Op::Insert(k) = spec.next_op(&mut rng) {
                keys.insert(k);
            }
        }
        assert!(
            keys.len() > 9_990,
            "full-range keys must be essentially unique"
        );
    }
}
