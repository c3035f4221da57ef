//! Per-layer probes that need no workload run: queue micro-loops, the
//! count scaling sweep, the stack peel, the trie and baseline comparisons,
//! and what observing costs. Everything is measured from outside, through
//! public functions.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use wft_api::{PointMap, RangeRead, RangeScan, RangeSpec, ScanCursor};
use wft_lockbased::LockedRangeTree;
use wft_lockfree::LockFreeBst;
use wft_obs::{LatencyHistogram, MetricsSnapshot, MetricsSource};
use wft_persistent::PersistentRangeTree;
use wft_queue::{PresenceIndex, Timestamp, TsQueue, UpdateKind, WaitFreeRootQueue};
use wft_seq::SeqRangeTree;
use wft_trie::WaitFreeTrie;

use crate::client::{Executor, Full, PointRange};
use crate::ops::{initial_entries, Kind, Mix, Op, OpGen, CLIENTS, KEYSPACE, SCAN_WIDTH};
use crate::report::{untraced, Metrics};
use crate::rng::Rng;
use crate::spec::Workload;
use crate::stats::median;
use crate::workloads::{
    build_store, build_tree, drive, durable_dir, open_durable, Plan, Run, DURABLE_LIVE, LIVE,
};

/// Mean nanoseconds per call of `step`, over about `secs` of calls.
fn ns_per_call(secs: f64, mut step: impl FnMut(u64)) -> f64 {
    let budget = Duration::from_secs_f64(secs);
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < budget {
        for _ in 0..256 {
            calls += 1;
            step(calls);
        }
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// The wft-queue primitives the tree's update path is built from.
pub fn queue_loops(secs: f64) -> Metrics {
    let mut out = Metrics::new();

    let root: TsQueue<u64> = TsQueue::new(Timestamp::ZERO);
    let enqueue_pop = |q: &TsQueue<u64>| {
        let guard = crossbeam_epoch::pin();
        q.enqueue_assign(1, &guard);
        // With a second thread the head may be the other thread's item:
        // pop whatever is at the head, as the tree's executors do.
        if let Some((ts, _)) = q.peek(&guard) {
            std::hint::black_box(q.pop_if(ts, &guard));
        }
    };
    out.push((
        "queue.root_enqueue_pop_ns".into(),
        ns_per_call(secs, |_| enqueue_pop(&root)),
    ));
    let both: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| ns_per_call(secs, |_| enqueue_pop(&root))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("queue probe thread"))
            .collect()
    });
    out.push(("queue.root_enqueue_pop_2t_ns".into(), median(&both)));

    let wf: WaitFreeRootQueue<u64> = WaitFreeRootQueue::new(8);
    let slot = wf.register().expect("a free root-queue slot");
    out.push((
        "queue.wf_root_enqueue_pop_ns".into(),
        ns_per_call(secs, |_| {
            let guard = crossbeam_epoch::pin();
            let ts = wf.enqueue(&slot, 1, &guard);
            std::hint::black_box(wf.pop_if(ts, &guard));
        }),
    ));
    wf.unregister(slot);

    let node: TsQueue<u64> = TsQueue::new(Timestamp::ZERO);
    out.push((
        "queue.node_push_pop_ns".into(),
        ns_per_call(secs, |i| {
            let guard = crossbeam_epoch::pin();
            node.push_if(Timestamp(i), i, &guard);
            std::hint::black_box(node.pop_if(Timestamp(i), &guard));
        }),
    ));

    let index: PresenceIndex<i64, ()> = PresenceIndex::with_buckets(1 << 14);
    out.push((
        "queue.presence_resolve_ns".into(),
        ns_per_call(secs, |i| {
            let kind = if i.is_multiple_of(2) {
                UpdateKind::Insert(())
            } else {
                UpdateKind::Remove
            };
            let cell = OnceLock::new();
            let guard = crossbeam_epoch::pin();
            std::hint::black_box(index.resolve(
                &((i % 10_000) as i64),
                Timestamp(i),
                &kind,
                &cell,
                &guard,
            ));
        }),
    ));
    out
}

/// Live keys of the quiescent sweep structures (the widest count then
/// covers a quarter of the key space, as in the paper's figure).
const SWEEP_LIVE: i64 = 1 << 17;
const SWEEP_WIDTHS: [(i64, &str); 3] = [(1 << 4, "w2e4"), (1 << 10, "w2e10"), (1 << 16, "w2e16")];

/// Median microseconds of one quiescent, single-thread `count` of `width`
/// keys somewhere in `0..2 * live`. Counts are timed 32 at a time so the
/// clock reads do not show.
fn quiet_count_us<T: RangeRead<i64, i64>>(
    target: &T,
    live: i64,
    width: i64,
    secs: f64,
    rng: &mut Rng,
) -> f64 {
    const GROUP: usize = 32;
    let budget = Duration::from_secs_f64(secs);
    let start = Instant::now();
    let mut groups = Vec::new();
    while start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..GROUP {
            let lo = rng.below((2 * live - width + 1) as u64) as i64;
            std::hint::black_box(RangeRead::count(
                target,
                RangeSpec::inclusive(lo, lo + width - 1),
            ));
        }
        groups.push(t.elapsed().as_nanos() as f64 / GROUP as f64 / 1e3);
    }
    median(&groups)
}

/// `<prefix>.<width label>` for each sweep width in `labels`, on `target`
/// holding [`SWEEP_LIVE`] keys.
fn width_sweep<T: RangeRead<i64, i64>>(
    target: &T,
    prefix: &str,
    labels: &[&str],
    secs: f64,
    rng: &mut Rng,
    out: &mut Metrics,
) {
    for (width, label) in SWEEP_WIDTHS {
        if labels.contains(&label) {
            out.push((
                format!("{prefix}.{label}"),
                quiet_count_us(target, SWEEP_LIVE, width, secs, rng),
            ));
        }
    }
}

const ALL_WIDTHS: [&str; 3] = ["w2e4", "w2e10", "w2e16"];

/// The paper's yardstick on a quiet tree: count latency against range
/// width at 2^17 keys, and against the live-set size at width 2^10. The
/// 2^20 point is built once, here, and used for nothing else. Call this
/// last: that tree is leaked, because freeing 2^20 keys takes a second that
/// a process about to exit need not spend.
pub fn count_sweep(seed: u64, secs: f64) -> Metrics {
    let mut rng = Rng::stream(seed, 100);
    let mut out = Metrics::new();
    let tree = build_tree(SWEEP_LIVE);
    width_sweep(
        &tree,
        "core.count_us",
        &ALL_WIDTHS,
        secs,
        &mut rng,
        &mut out,
    );
    drop(tree);
    for (live, label) in [(1i64 << 14, "n2e14"), (1 << 20, "n2e20")] {
        let tree = build_tree(live);
        out.push((
            format!("core.count_us.{label}"),
            quiet_count_us(&tree, live, 1 << 10, secs, &mut rng),
        ));
        std::mem::forget(tree);
    }
    out
}

/// One short untraced run of `workload`'s stream against `exec`.
fn probe<E: Executor>(
    exec: &E,
    source: &dyn MetricsSource,
    workload: Workload,
    seed: u64,
    secs: f64,
) -> Run {
    drive(
        exec,
        source,
        workload,
        seed,
        &Plan::probe(secs),
        Instant::now(),
        || {},
    )
    .0
}

fn mean_us(run: &Run, kinds: &[Kind]) -> f64 {
    run.samples(untraced, kinds).mean_us().unwrap_or(f64::NAN)
}

/// The stack peel: the durable-mixed stream replayed on each layer of
/// `DurableStore (fsync on) -> DurableStore (fsync off) -> ShardedStore ->
/// WaitFreeTree`. Each layer's self time is its mean minus the mean of the
/// layer below, so the write self times add up to the fsync-on mean by
/// construction (the check is printed, and a mismatch counts as a failure).
/// The fsync-on store also gives the group-commit counters
/// (it opens fresh, so its counters cover exactly this probe) and the cost
/// of `collect_metrics` on the full stack.
pub fn stack_peel(seed: u64, secs: f64, tally: &mut Tally) -> Metrics {
    let w = Workload::DurableMixed;
    let mut out = Metrics::new();
    let mut durable_run = |fsync: bool| {
        let dir = durable_dir();
        let store = open_durable(&dir, fsync);
        let run = probe(&Full(&store), &store, w, seed, secs);
        if fsync {
            // The fsync-on window is the only place commit groups form
            // around a real flush: take the group-commit counters here.
            let mut after = MetricsSnapshot::new();
            store.collect_metrics(&mut after);
            let counter = |name: &str| after.counter(name).unwrap_or(0) as f64;
            let groups = after.histogram("durable_group_size");
            out.push((
                "durable.fsyncs_per_commit".into(),
                counter("durable_wal_fsyncs") / counter("durable_wal_appends"),
            ));
            out.push((
                "durable.group_size_mean".into(),
                groups.map_or(f64::NAN, |h| h.sum_ns as f64 / h.count as f64),
            ));
            out.push((
                "obs.collect_metrics_us".into(),
                ns_per_call(0.02, |_| {
                    after = MetricsSnapshot::new();
                    store.collect_metrics(&mut after);
                }) / 1e3,
            ));
        }
        run
    };
    let on = durable_run(true);
    let off = durable_run(false);
    let store = build_store(DURABLE_LIVE);
    let sharded = probe(&Full(&store), &store, w, seed, secs);
    let tree = build_tree(DURABLE_LIVE);
    let bare = probe(&Full(&tree), &tree, w, seed, secs);

    let layers = [&bare, &sharded, &off, &on];
    for run in layers {
        tally.add(run);
    }
    let writes = layers.map(|r| mean_us(r, &[Kind::Replace, Kind::Remove]));
    let gets = layers.map(|r| mean_us(r, &[Kind::Read]));
    let counts = layers.map(|r| mean_us(r, &[Kind::Count0]));
    out.extend([
        ("core.write_us".into(), writes[0]),
        ("core.get_us".into(), gets[0]),
        ("core.count_us".into(), counts[0]),
        ("store.self_write_us".into(), writes[1] - writes[0]),
        ("store.self_get_us".into(), gets[1] - gets[0]),
        ("store.self_count_us".into(), counts[1] - counts[0]),
        (
            "durable.journal_self_write_us".into(),
            writes[2] - writes[1],
        ),
        ("durable.fsync_self_write_us".into(), writes[3] - writes[2]),
        ("durable.self_get_us".into(), gets[3] - gets[1]),
    ]);
    let sum =
        writes[0] + (writes[1] - writes[0]) + (writes[2] - writes[1]) + (writes[3] - writes[2]);
    let holds = (sum - writes[3]).abs() <= 1e-6 * writes[3].abs();
    println!(
        "peel check: core.write_us + store.self_write_us + durable.journal_self_write_us + durable.fsync_self_write_us = {sum:.3} us; fsync-on write mean = {:.3} us: {}",
        writes[3],
        if holds { "ok" } else { "MISMATCH" }
    );
    tally.failed += !holds as u64;
    out
}

/// Attempted and failed operations of the probes, for the run's totals.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, run: &Run) {
        self.attempted += run.attempted();
        self.failed += run.failed();
    }
}

/// One concurrent baseline: the tree-mixed stream for one window, then
/// its side of the quiet count sweep, which draws O(answer) against the
/// tree's O(log N).
fn baseline<T>(
    name: &str,
    build: impl Fn(i64) -> T,
    widths: &[&str],
    (seed, secs): (u64, f64),
    tally: &mut Tally,
    out: &mut Metrics,
) where
    T: PointMap<i64, i64> + RangeRead<i64, i64> + MetricsSource,
{
    let target = build(LIVE);
    let run = probe(
        &PointRange(&target),
        &target,
        Workload::TreeMixed,
        seed,
        secs,
    );
    tally.add(&run);
    out.push((
        format!("baseline.{name}.ops_per_s"),
        median(&run.rates(untraced, |_| true)),
    ));
    drop(target);
    let target = build(SWEEP_LIVE);
    let prefix = format!("baseline.{name}.count_us");
    let mut rng = Rng::stream(seed, 102);
    width_sweep(&target, &prefix, widths, secs / 4.0, &mut rng, out);
}

/// The tree-mixed stream on the trie (parity check) and on the three
/// concurrent baselines, plus the sequential tree through its own `&mut`
/// API on one thread.
pub fn comparisons(seed: u64, secs: f64, tally: &mut Tally) -> Metrics {
    let mut out = Metrics::new();

    let trie: WaitFreeTrie<i64, i64> = WaitFreeTrie::from_entries(initial_entries(LIVE));
    let before = metric_counter(&trie, "trie_helped_executions");
    let run = probe(&Full(&trie), &trie, Workload::TreeMixed, seed, secs);
    let helped = metric_counter(&trie, "trie_helped_executions") - before;
    tally.add(&run);
    out.push((
        "trie.ops_per_s".into(),
        median(&run.rates(untraced, |_| true)),
    ));
    out.push((
        "trie.count_p50_us".into(),
        run.samples(untraced, &[Kind::Count0])
            .us(0.5)
            .unwrap_or(f64::NAN),
    ));
    out.push((
        "trie.helped_per_kop".into(),
        helped as f64 * 1e3 / run.total(|_| true, |_| true) as f64,
    ));
    drop(trie);

    let timing = (seed, secs);
    baseline(
        "lockfree",
        |live| LockFreeBst::<i64, i64>::from_entries(initial_entries(live)),
        &ALL_WIDTHS,
        timing,
        tally,
        &mut out,
    );
    baseline(
        "persistent",
        |live| PersistentRangeTree::<i64, i64>::from_entries(initial_entries(live)),
        &["w2e16"],
        timing,
        tally,
        &mut out,
    );
    baseline(
        "lockbased",
        |live| LockedRangeTree::<i64, i64>::from_entries(initial_entries(live)),
        &["w2e16"],
        timing,
        tally,
        &mut out,
    );

    // wft-seq has no `PointMap` impl: one thread, its own `&mut` API.
    let mut seq: SeqRangeTree<i64, i64> = SeqRangeTree::from_entries(initial_entries(LIVE));
    let mut gen = OpGen::new(Mix::TreeMixed, seed, 0, CLIENTS);
    let mut done = 0u64;
    let ns = ns_per_call(secs, |_| {
        done += 1;
        match gen.next_op() {
            Op::Contains(k) => {
                std::hint::black_box(seq.contains(&k));
            }
            Op::Insert(k, v) => {
                std::hint::black_box(seq.insert(k, v));
            }
            Op::Remove(k) => {
                std::hint::black_box(seq.remove(&k));
            }
            Op::Count { lo, hi, .. } => {
                std::hint::black_box(seq.count(lo, hi));
            }
            other => unreachable!("tree-mixed never sends {other:?}"),
        }
    });
    tally.attempted += done;
    out.push(("baseline.seq.ops_per_s".into(), 1e9 / ns));
    out
}

fn metric_counter(source: &dyn MetricsSource, name: &str) -> u64 {
    let mut snapshot = MetricsSnapshot::new();
    source.collect_metrics(&mut snapshot);
    snapshot.counter(name).unwrap_or(0)
}

/// Quiescent chunk-16 cursor drain over a one-shot collect of the same
/// 8192-key range, medians of `rounds` each.
pub fn scan_chunk16_ratio(seed: u64, rounds: usize) -> Metrics {
    let store = build_store(LIVE);
    let mut rng = Rng::stream(seed, 101);
    let (mut collects, mut drains) = (Vec::new(), Vec::new());
    let collect = |range, times: &mut Vec<f64>| {
        let t = Instant::now();
        let listed = RangeRead::collect_range(&store, range);
        times.push(t.elapsed().as_nanos() as f64);
        listed
    };
    let drain = |range, times: &mut Vec<f64>| {
        let t = Instant::now();
        let drained = RangeScan::scan(&store, range).drain(16);
        times.push(t.elapsed().as_nanos() as f64);
        drained
    };
    for round in 0..rounds {
        let lo = rng.below((KEYSPACE - SCAN_WIDTH + 1) as u64) as i64;
        let range = RangeSpec::inclusive(lo, lo + SCAN_WIDTH - 1);
        // Whichever reads the range first warms the cache for the other:
        // take turns.
        let (listed, drained) = if round % 2 == 0 {
            let listed = collect(range, &mut collects);
            (listed, drain(range, &mut drains))
        } else {
            let drained = drain(range, &mut drains);
            (collect(range, &mut collects), drained)
        };
        assert_eq!(listed, drained, "a quiescent drain equals one collect");
    }
    vec![(
        "store.scan_chunk16_ratio".into(),
        median(&drains) / median(&collects),
    )]
}

/// Cost of one `LatencyHistogram::observe`, the call every always-on
/// latency signal of the product pays.
pub fn observe_cost(secs: f64) -> Metrics {
    let hist = LatencyHistogram::new();
    let ns = ns_per_call(secs, |i| hist.observe(Duration::from_nanos(i & 0xFFFF)));
    std::hint::black_box(hist.count());
    vec![("obs.observe_ns".into(), ns)]
}
