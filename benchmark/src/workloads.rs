//! The four workloads: build the loaded structure, keep its closed-loop
//! clients on it through a warm-up and the timed windows, then check what
//! is left at quiescence.

use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use wft_api::{BatchApply, PointMap, RangeRead, RangeSpec, StoreOp};
use wft_core::WaitFreeTree;
use wft_durable::{DurableConfig, DurableStore, ScratchDir};
use wft_obs::{MetricsSnapshot, MetricsSource};
use wft_store::ShardedStore;

use crate::client::{
    run_fixed, run_phases, Client, Event, Executor, Full, Log, Phase, PhaseTime, POINT_SAMPLING,
};
use crate::ops::{initial_entries, Kind, Mix, OpGen, CLIENTS, DURABLE_KEYSPACE, KEYSPACE};
use crate::spec::Workload;
use crate::stats::Samples;

/// Bulk-loaded keys. 2^15 and not 2^17 or 2^20: see README.md, "Why the live
/// set is 2^15".
pub const LIVE: i64 = KEYSPACE / 2;
/// Bulk-loaded keys of `durable-mixed` and of the layers its stream is
/// replayed on.
pub const DURABLE_LIVE: i64 = DURABLE_KEYSPACE / 2;
pub const SHARDS: usize = 8;
/// Single-op commits between the last checkpoint and the crash; recovery
/// must replay exactly these.
pub const TAIL_OPS: u64 = 20_000;
/// Flush policy of the durable-mixed workload, stated: the log is written
/// through the operating system but not fsynced. With fsync on, throughput
/// on this sandbox's virtual disk drifted between 3.3 k and 6.6 k ops/s
/// within ten minutes (README.md, "Flush policy"), which no bound survives;
/// what an fsync costs is measured by the stack peel instead.
pub const FSYNC: bool = false;

pub type Tree = WaitFreeTree<i64, i64>;
pub type Store = ShardedStore<i64, i64>;
pub type Durable = DurableStore<i64, i64>;

/// Timed windows of an end-to-end run.
pub const WINDOWS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub secs: f64,
    pub trace: bool,
}

/// The time shape of one workload run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Timed builds; the median is `setup_s`, the last build is used.
    pub setups: usize,
    /// Length of the untimed slice straight after the build whose
    /// throughput gives `core.first_window_ratio` (0 = none).
    pub first_s: f64,
    pub warm_s: f64,
    pub windows: Vec<Window>,
    /// Only the first so many of the workload's clients (layer probes).
    pub clients: Option<usize>,
}

impl Plan {
    /// The end-to-end shape: a warm-up as long as a window, then five
    /// untraced windows.
    pub fn untraced(window_s: f64) -> Plan {
        let window = Window {
            secs: window_s,
            trace: false,
        };
        Plan {
            setups: 31,
            first_s: 0.0,
            warm_s: window_s,
            windows: vec![window; WINDOWS],
            clients: None,
        }
    }

    /// The traced shape: one untraced window (the overhead reference), then
    /// two traced ones, each `unit_s` long.
    pub fn traced(unit_s: f64) -> Plan {
        let window = |trace| Window {
            secs: unit_s,
            trace,
        };
        Plan {
            setups: 1,
            first_s: unit_s / 4.0,
            warm_s: unit_s,
            windows: vec![window(false), window(true), window(true)],
            clients: None,
        }
    }

    /// A layer probe: half a window of warm-up, one untraced window, one
    /// client per core whatever the workload's own number (the stack peel
    /// compares layers, not queues).
    pub fn probe(window_s: f64) -> Plan {
        Plan {
            setups: 1,
            first_s: 0.0,
            warm_s: window_s / 2.0,
            windows: vec![Window {
                secs: window_s,
                trace: false,
            }],
            clients: Some(CLIENTS),
        }
    }

    fn phases(&self) -> Vec<Phase> {
        let idle = |name: &str, secs| Phase {
            name: name.into(),
            secs,
            record: false,
            trace: false,
        };
        let mut phases = Vec::new();
        if self.first_s > 0.0 {
            phases.push(idle("first", self.first_s));
        }
        phases.push(idle("warm-up", self.warm_s));
        phases.extend(self.windows.iter().enumerate().map(|(i, w)| Phase {
            name: format!("window-{i}"),
            secs: w.secs,
            record: true,
            trace: w.trace,
        }));
        phases
    }
}

/// What only the durable workload measures.
#[derive(Debug, Clone, Default)]
pub struct DurableExtras {
    /// The mid-window checkpoint: start after the run epoch, and length.
    pub checkpoint_start_ns: u64,
    pub checkpoint_s: f64,
    pub tail_s: f64,
    pub recovery_s: f64,
    pub replayed_ops: u64,
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Run {
    pub workload: Workload,
    pub setups_s: Vec<f64>,
    pub phases: Vec<Phase>,
    pub times: Vec<PhaseTime>,
    pub logs: Vec<Log>,
    /// Metrics read at the start of the first and the end of the last
    /// traced window (traced runs only).
    pub traced_metrics: Option<(MetricsSnapshot, MetricsSnapshot)>,
    /// Operations attempted and failed outside the phases (durable tail and
    /// post-recovery reads).
    pub extra_attempted: u64,
    pub extra_failed: u64,
    /// Whole-structure checks that did not hold.
    pub violations: Vec<String>,
    pub durable: Option<DurableExtras>,
}

impl Run {
    fn phase_indices(&self, pick: impl Fn(&Phase) -> bool) -> Vec<usize> {
        (0..self.phases.len())
            .filter(|&i| pick(&self.phases[i]))
            .collect()
    }

    /// Completed operations per second of each picked phase, all clients.
    pub fn rates(&self, pick: impl Fn(&Phase) -> bool, kinds: impl Fn(Kind) -> bool) -> Vec<f64> {
        self.phase_indices(pick)
            .into_iter()
            .map(|p| self.count(p, &kinds) as f64 / self.times[p].secs)
            .collect()
    }

    fn count(&self, phase: usize, kinds: &impl Fn(Kind) -> bool) -> u64 {
        self.logs
            .iter()
            .flat_map(|log| Kind::ALL.map(|k| (k, log.counts[phase][k as usize])))
            .filter(|(k, _)| kinds(*k))
            .map(|(_, n)| n)
            .sum()
    }

    /// Completed operations of the picked phases.
    pub fn total(&self, pick: impl Fn(&Phase) -> bool, kinds: impl Fn(Kind) -> bool) -> u64 {
        self.phase_indices(pick)
            .into_iter()
            .map(|p| self.count(p, &kinds))
            .sum()
    }

    /// Latency samples of `kinds`, pooled over the picked phases and all
    /// clients.
    pub fn samples(&self, pick: impl Fn(&Phase) -> bool, kinds: &[Kind]) -> Samples {
        let phases = self.phase_indices(pick);
        Samples::from_pooled(self.logs.iter().flat_map(|log| {
            phases
                .iter()
                .flat_map(move |&p| kinds.iter().map(move |&k| &log.samples[p][k as usize]))
        }))
    }

    pub fn attempted(&self) -> u64 {
        self.total(|_| true, |_| true) + self.extra_attempted
    }

    pub fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum::<u64>()
            + self.extra_failed
            + self.violations.len() as u64
    }
}

/// One client per mix; a run without a writer checks its reads exactly.
fn clients_for(mixes: &[Mix], seed: u64) -> Vec<Client> {
    let quiescent = mixes.iter().all(|&mix| mix == Mix::StoreRead);
    mixes
        .iter()
        .enumerate()
        .map(|(t, &mix)| Client::new(t, OpGen::new(mix, seed, t, mixes.len()), quiescent))
        .collect()
}

fn metrics_of(source: &dyn MetricsSource) -> MetricsSnapshot {
    let mut out = MetricsSnapshot::new();
    source.collect_metrics(&mut out);
    out
}

/// Runs the workload's clients (the first `plan.clients` of them, if set)
/// through the plan. `mid_window` runs on the controlling thread in the
/// middle of the middle window.
pub fn drive<E: Executor>(
    exec: &E,
    source: &dyn MetricsSource,
    workload: Workload,
    seed: u64,
    plan: &Plan,
    epoch: Instant,
    mut mid_window: impl FnMut(),
) -> (Run, Vec<Client>) {
    let phases = plan.phases();
    let first_window = phases.len() - plan.windows.len();
    let mid = first_window + plan.windows.len() / 2;
    let first_traced = phases.iter().position(|p| p.trace);
    let last_traced = phases.iter().rposition(|p| p.trace);
    let mut mixes = workload.mixes();
    mixes.truncate(plan.clients.unwrap_or(usize::MAX));
    let mut clients = clients_for(&mixes, seed);
    // In-memory point operations are sampled; a durable commit is timed
    // every time.
    let time_every = if workload == Workload::DurableMixed {
        1
    } else {
        POINT_SAMPLING
    };
    let (mut before, mut after) = (None, None);
    let times = run_phases(
        exec,
        &mut clients,
        &phases,
        epoch,
        time_every,
        None,
        |event| match event {
            Event::Start(i) if Some(i) == first_traced => before = Some(metrics_of(source)),
            Event::Middle(i) if i == mid => mid_window(),
            Event::End(i) if Some(i) == last_traced => after = Some(metrics_of(source)),
            _ => {}
        },
    );
    let run = Run {
        workload,
        setups_s: Vec::new(),
        phases,
        times,
        logs: clients
            .iter_mut()
            .map(|c| std::mem::take(&mut c.log))
            .collect(),
        traced_metrics: before.zip(after),
        extra_attempted: 0,
        extra_failed: 0,
        violations: Vec::new(),
        durable: None,
    };
    (run, clients)
}

/// Sets up `n` times, timing only `build`; earlier builds are dropped
/// outside the timing and the last one is returned with what it was
/// prepared from.
fn build_timed<P, T>(
    n: usize,
    mut prepare: impl FnMut() -> P,
    mut build: impl FnMut(&P) -> T,
) -> (T, P, Vec<f64>) {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let prepared = prepare();
        let start = Instant::now();
        let built = build(&prepared);
        secs.push(start.elapsed().as_secs_f64());
        last = Some((built, prepared));
    }
    let (built, prepared) = last.expect("built at least once");
    (built, prepared, secs)
}

/// At quiescence the three ways of sizing the structure agree with each
/// other and with what the clients' applied updates add up to.
fn quiescent_violations<T>(target: &T, live: i64, clients: &[Client]) -> Vec<String>
where
    T: PointMap<i64, i64> + RangeRead<i64, i64>,
{
    let expected = live + clients.iter().map(|c| c.oracle.net_len).sum::<i64>();
    let len = PointMap::len(target) as i64;
    let count = RangeRead::count(target, RangeSpec::all()) as i64;
    let listed = RangeRead::collect_range(target, RangeSpec::all());
    let mut violations = Vec::new();
    if len != expected {
        violations.push(format!(
            "len {len} != loaded {live} + applied inserts - removes = {expected}"
        ));
    }
    if count != len || listed.len() as i64 != len {
        violations.push(format!(
            "count(all) {count}, collect_range(all).len() {}, len {len} disagree",
            listed.len()
        ));
    }
    if !listed.windows(2).all(|w| w[0].0 < w[1].0) {
        violations.push("collect_range(all) is not strictly increasing".into());
    }
    violations
}

pub fn build_tree(live: i64) -> Tree {
    WaitFreeTree::from_entries(initial_entries(live))
}

pub fn build_store(live: i64) -> Store {
    ShardedStore::from_entries(initial_entries(live), SHARDS)
}

fn durable_config(fsync: bool) -> DurableConfig {
    DurableConfig {
        shards: SHARDS,
        fsync,
        ..DurableConfig::default()
    }
}

static IMAGE: OnceLock<ScratchDir> = OnceLock::new();

/// A data directory holding one checkpoint of the loaded entries and an
/// empty log, made once per process: every durable store of the run opens a
/// copy of it, which is also what gives the store its eight shards (an
/// empty directory opens as a single shard).
fn durable_image() -> &'static ScratchDir {
    IMAGE.get_or_init(|| {
        let dir = ScratchDir::new("bench-image");
        let store: Durable =
            DurableStore::open_with_config(dir.path(), durable_config(false)).expect("open image");
        let entries: Vec<(i64, i64)> = initial_entries(DURABLE_LIVE).collect();
        for chunk in entries.chunks(4096) {
            let batch = chunk
                .iter()
                .map(|&(key, value)| StoreOp::Insert { key, value })
                .collect();
            store.apply_batch(batch).expect("load image");
        }
        store.checkpoint().expect("checkpoint image");
        dir
    })
}

fn copy_dir(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).expect("read image directory") {
        let entry = entry.expect("image directory entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy image file");
    }
}

/// A fresh copy of the image, not yet opened.
pub fn durable_dir() -> ScratchDir {
    let dir = ScratchDir::new("bench-durable");
    copy_dir(durable_image().path(), dir.path());
    dir
}

pub fn open_durable(dir: &ScratchDir, fsync: bool) -> Durable {
    DurableStore::open_with_config(dir.path(), durable_config(fsync)).expect("open durable store")
}

/// Removes the image directory (statics are not dropped at exit).
pub fn remove_durable_image() {
    if let Some(image) = IMAGE.get() {
        let _ = std::fs::remove_dir_all(image.path());
    }
}

pub fn run(workload: Workload, seed: u64, plan: &Plan, epoch: Instant) -> Run {
    match workload {
        Workload::TreeMixed => {
            let (tree, (), setups_s) = build_timed(plan.setups, || (), |()| build_tree(LIVE));
            let exec = Full(&tree);
            let (mut run, clients) = drive(&exec, &tree, workload, seed, plan, epoch, || {});
            run.violations = quiescent_violations(&tree, LIVE, &clients);
            tree.check_invariants();
            run.setups_s = setups_s;
            run
        }
        Workload::StoreReadQuiescent | Workload::StoreReadUnderWrites => {
            let (store, (), setups_s) = build_timed(plan.setups, || (), |()| build_store(LIVE));
            let exec = Full(&store);
            let (mut run, clients) = drive(&exec, &store, workload, seed, plan, epoch, || {});
            run.violations = quiescent_violations(&store, LIVE, &clients);
            store.check_invariants();
            run.setups_s = setups_s;
            run
        }
        Workload::DurableMixed => run_durable(seed, plan, epoch),
    }
}

fn run_durable(seed: u64, plan: &Plan, epoch: Instant) -> Run {
    let workload = Workload::DurableMixed;
    // Set-up is opening a data directory: checkpoint load, shard build,
    // log replay (empty here). Copying the image is not timed.
    let (mut store, dir, setups_s) =
        build_timed(plan.setups, durable_dir, |dir| open_durable(dir, FSYNC));
    let mut extras = DurableExtras::default();
    let (mut run, mut clients) = {
        let exec = Full(&store);
        drive(&exec, &store, workload, seed, plan, epoch, || {
            let start = Instant::now();
            store.checkpoint().expect("mid-window checkpoint");
            extras.checkpoint_start_ns = (start - epoch).as_nanos() as u64;
            extras.checkpoint_s = start.elapsed().as_secs_f64();
        })
    };
    run.setups_s = setups_s;

    // Second checkpoint, then exactly TAIL_OPS single-op commits, then the
    // crash: recovery has the checkpoint to load and those ops to replay.
    store.checkpoint().expect("post-window checkpoint");
    let n = clients.len();
    for c in clients.iter_mut() {
        c.gen = OpGen::new(Mix::CommitTail, seed ^ 0x7A11, c.thread, n);
    }
    extras.tail_s = run_fixed(&Full(&store), &mut clients, TAIL_OPS / n as u64, 1);
    run.extra_attempted += TAIL_OPS;
    run.extra_failed += clients.iter().map(|c| c.log.failed).sum::<u64>();
    store.simulate_crash();
    drop(store);
    let start = Instant::now();
    store = open_durable(&dir, FSYNC);
    extras.recovery_s = start.elapsed().as_secs_f64();
    extras.replayed_ops = store.recovery().replayed_ops;
    if extras.replayed_ops != TAIL_OPS {
        run.violations.push(format!(
            "recovery replayed {} ops, expected exactly {TAIL_OPS}",
            extras.replayed_ops
        ));
    }
    // Every acknowledged write of each client's stripe survived the crash
    // with its last value.
    for (key, expected) in clients.iter().flat_map(|c| c.oracle.owned()) {
        run.extra_attempted += 1;
        run.extra_failed += (PointMap::get(&store, &key) != expected) as u64;
    }
    run.violations
        .extend(quiescent_violations(&store, DURABLE_LIVE, &clients));
    run.durable = Some(extras);
    run
}
