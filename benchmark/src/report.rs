//! From a workload run to named numbers: the end-to-end metrics of an
//! untraced run, and the workload-scoped and counter-derived per-layer
//! metrics of a traced one.

use std::fmt::Write as _;

use crate::client::Phase;
use crate::ops::{Kind, BATCH_OPS};
use crate::spec::Workload;
use crate::stats::{median, Samples};
use crate::workloads::{Run, TAIL_OPS};

/// Named values in print order; units come from [`crate::spec::unit_of`].
pub type Metrics = Vec<(String, f64)>;

pub fn untraced(p: &Phase) -> bool {
    p.record && !p.trace
}

pub fn traced(p: &Phase) -> bool {
    p.trace
}

const ALL_COUNTS: [Kind; 3] = [Kind::Count0, Kind::Count1, Kind::Count2];
const COMMITS: [Kind; 2] = [Kind::Replace, Kind::Remove];
const TREE_UPDATES: [Kind; 2] = [Kind::Insert, Kind::Remove];

fn push(out: &mut Metrics, name: impl Into<String>, value: Option<f64>) {
    // A class without samples (every op of it failed) reports nothing; the
    // run is already marked incorrect by then.
    if let Some(v) = value {
        out.push((name.into(), v));
    }
}

/// The end-to-end metrics, from the untraced windows of `run`.
pub fn end_to_end(run: &Run) -> Metrics {
    let mut out = Metrics::new();
    push(&mut out, "setup_s", Some(median(&run.setups_s)));
    push(
        &mut out,
        "ops_per_s",
        Some(median(&run.rates(untraced, |_| true))),
    );
    push(
        &mut out,
        "range_reads_per_s",
        Some(median(&run.rates(untraced, Kind::is_range_read))),
    );
    out
}

/// Latencies and rates only this workload has, named `<workload>.<metric>`,
/// from the phases `pick` selects.
pub fn workload_scoped(run: &Run, pick: fn(&Phase) -> bool) -> Metrics {
    let mut out = Metrics::new();
    let name = run.workload.name();
    let mut p =
        |metric: &str, value: Option<f64>| push(&mut out, format!("{name}.{metric}"), value);
    let p50 = |kinds: &[Kind]| run.samples(pick, kinds).us(0.5);
    p("count_p50_us", p50(&[Kind::Count0]));
    match run.workload {
        Workload::TreeMixed => {
            let updates = run.samples(pick, &TREE_UPDATES);
            p("update_p50_us", updates.us(0.5));
            p("update_p99_us", updates.tail_us(0.99).map(|(_, v)| v));
            p("get_p50_us", p50(&[Kind::Read]));
            let (narrow, wide) = (p50(&[Kind::Count0]), p50(&[Kind::Count2]));
            p("count_wide_ratio", narrow.zip(wide).map(|(n, w)| w / n));
        }
        Workload::StoreReadQuiescent => {
            p("collect_p50_us", p50(&[Kind::Collect]));
            p("scan_p50_us", p50(&[Kind::Drain]));
        }
        Workload::StoreReadUnderWrites => {
            p("collect_p50_us", p50(&[Kind::Collect]));
            p("scan_p50_us", p50(&[Kind::Drain]));
            p(
                "write_ops_per_s",
                Some(median(&run.rates(pick, Kind::is_update))),
            );
        }
        Workload::DurableMixed => {
            p("get_p50_us", p50(&[Kind::Read]));
            p("commit_p50_us", p50(&COMMITS));
            p("batch_p50_us", p50(&[Kind::Batch]));
            p("recovery_s", run.durable.as_ref().map(|d| d.recovery_s));
        }
    }
    out
}

/// Growth of a counter over the traced windows. Deltas are taken here, not
/// with `MetricsSnapshot::delta_since`, which subtracts gauges too.
fn counter_delta(run: &Run, name: &str) -> f64 {
    let (before, after) = run
        .traced_metrics
        .as_ref()
        .expect("a traced run reads the metrics at its window edges");
    let read = |s: &wft_obs::MetricsSnapshot| s.counter(name).unwrap_or(0);
    read(after).saturating_sub(read(before)) as f64
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Per-layer metrics derived from the layer's own counters and this run's
/// operation counts and samples over the traced windows.
pub fn layer_counters(run: &Run) -> Metrics {
    let mut out = Metrics::new();
    let ops = |kinds: fn(Kind) -> bool| run.total(traced, kinds) as f64;
    let all = ops(|_| true);
    match run.workload {
        Workload::TreeMixed => {
            let d = |name: &str| counter_delta(run, name);
            let updates = ops(|k| TREE_UPDATES.contains(&k));
            let counts = ops(|k| ALL_COUNTS.contains(&k));
            let mut p = |n: &str, v| push(&mut out, format!("core.{n}"), v);
            p(
                "helped_per_kop",
                ratio(d("tree_helped_executions") * 1e3, all),
            );
            p("rebuilds_per_kop", ratio(d("tree_rebuilds") * 1e3, all));
            p(
                "rebuilt_items_per_rebuild",
                ratio(d("tree_rebuilt_items"), d("tree_rebuilds")).or(Some(0.0)),
            );
            p(
                "failed_update_ratio",
                ratio(d("tree_failed_updates"), updates),
            );
            p(
                "fast_point_read_ratio",
                ratio(d("tree_fast_point_reads"), ops(|k| k == Kind::Read)),
            );
            p(
                "fast_range_hit_ratio",
                ratio(d("tree_fast_range_hits"), counts),
            );
            p(
                "fast_range_retries_per_read",
                ratio(d("tree_fast_range_retries"), counts),
            );
            p(
                "range_fallbacks_per_kread",
                ratio(d("tree_range_fallbacks") * 1e3, counts),
            );
            let first = run.rates(|p| p.name == "first", |_| true);
            let steady = median(&run.rates(|p| p.record, |_| true));
            p("first_window_ratio", first.first().map(|f| f / steady));
            p("build_s", Some(median(&run.setups_s)));
        }
        Workload::StoreReadQuiescent => {}
        Workload::StoreReadUnderWrites => {
            let d = |name: &str| counter_delta(run, name);
            let reads = ops(Kind::is_range_read);
            let mut p = |n: &str, v| push(&mut out, format!("store.{n}"), v);
            p(
                "snapshot_retries_per_read",
                ratio(d("store_snapshot_retries"), reads),
            );
            p(
                "scan_resumes_per_drain",
                ratio(d("store_scan_resumes"), ops(|k| k == Kind::Drain)),
            );
            p(
                "fast_range_retries_per_read",
                ratio(d("store_tree_fast_range_retries"), reads),
            );
            p(
                "range_fallbacks_per_kread",
                ratio(d("store_tree_range_fallbacks") * 1e3, reads),
            );
            p(
                "helped_per_kop",
                ratio(d("store_tree_helped_executions") * 1e3, all),
            );
            p("len_fallbacks", Some(d("store_len_fallbacks")));
            let tail = |kinds: &[Kind]| run.samples(traced, kinds).tail_us(0.99).map(|(_, v)| v);
            p("count_p99_us", tail(&[Kind::Count0]));
            p("collect_p99_us", tail(&[Kind::Collect]));
            p("scan_p99_us", tail(&[Kind::Drain]));
            p(
                "scan_max_ms",
                run.samples(traced, &[Kind::Drain])
                    .max_us()
                    .map(|us| us / 1e3),
            );
            let writes = run.samples(traced, &TREE_UPDATES);
            p("write_p50_us", writes.us(0.5));
            p("write_p99_us", writes.tail_us(0.99).map(|(_, v)| v));
        }
        Workload::DurableMixed => {
            let d = |name: &str| counter_delta(run, name);
            push(
                &mut out,
                "store.commit_gate_waits_per_kop",
                ratio(d("store_commit_gate_waits") * 1e3, all),
            );
            let mut p = |n: &str, v| push(&mut out, format!("durable.{n}"), v);
            let logical_writes =
                ops(|k| COMMITS.contains(&k)) + ops(|k| k == Kind::Batch) * BATCH_OPS as f64;
            p(
                "wal_bytes_per_op",
                ratio(d("durable_wal_bytes"), logical_writes),
            );
            p("io_retries", Some(d("durable_io_retries")));
            let commit = run.samples(traced, &COMMITS);
            p("commit_p99_us", commit.tail_us(0.99).map(|(_, v)| v));
            p("commit_max_ms", commit.max_us().map(|us| us / 1e3));
            if let Some(extras) = &run.durable {
                p("checkpoint_s", Some(extras.checkpoint_s));
                let end = extras.checkpoint_start_ns + (extras.checkpoint_s * 1e9) as u64;
                let stalled: Vec<u32> = run
                    .logs
                    .iter()
                    .flat_map(|log| &log.spans)
                    .filter(|s| COMMITS.contains(&s.kind))
                    .filter(|s| s.end_ns > extras.checkpoint_start_ns && s.start_ns < end)
                    .map(|s| (s.end_ns - s.start_ns) as u32)
                    .collect();
                p(
                    "checkpoint_stall_p99_us",
                    Samples::from_pooled([&stalled])
                        .tail_us(0.99)
                        .map(|(_, v)| v),
                );
                p("recovery_replayed_ops", Some(extras.replayed_ops as f64));
                p(
                    "recovery_ops_per_s",
                    ratio(extras.replayed_ops as f64, extras.recovery_s),
                );
            }
        }
    }
    out
}

/// Tracing overhead on this workload: how much slower the traced windows
/// ran than the untraced window of the same run, in percent of the latter.
pub fn trace_overhead_pct(run: &Run) -> Option<f64> {
    let kinds: fn(Kind) -> bool = match run.workload {
        Workload::TreeMixed | Workload::DurableMixed => |_| true,
        _ => Kind::is_range_read,
    };
    let plain = median(&run.rates(untraced, kinds));
    let with_spans = median(&run.rates(traced, kinds));
    ratio((plain - with_spans) * 100.0, plain)
}

/// First timed window against the median of all, in percent: how far the
/// system still was from steady state when timing began.
pub fn warmup_drift_pct(run: &Run) -> f64 {
    let rates = run.rates(|p| p.record, |_| true);
    (rates[0] / median(&rates) - 1.0) * 100.0
}

/// The human-readable account of one run: window spread, drift, and each
/// latency class with its median, its highest supported percentile and its
/// sample count.
pub fn describe(run: &Run) -> String {
    let mut out = String::new();
    let rates = run.rates(|p| p.record, |_| true);
    let (min, max) = rates
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    let _ = writeln!(
        out,
        "# {}: {} windows, ops/s min {:.0} median {:.0} max {:.0} (in order: {})",
        run.workload.name(),
        rates.len(),
        min,
        median(&rates),
        max,
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        out,
        "set-ups (s): {}",
        run.setups_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let drift = warmup_drift_pct(run);
    let _ = writeln!(
        out,
        "warmup_drift_pct {drift:.2} %{}",
        if drift.abs() > 10.0 {
            "  WARNING: first window is more than 10 % off the median; not at steady state"
        } else {
            ""
        }
    );
    for kind in Kind::ALL {
        let samples = run.samples(|p| p.record, &[kind]);
        if let (Some(p50), Some((p, tail))) = (samples.us(0.5), samples.tail_us(1.0)) {
            let _ = writeln!(
                out,
                "latency {:?} p50 {p50:.3} us, p{} {tail:.3} us, {} samples",
                kind,
                p * 100.0,
                samples.len()
            );
        }
    }
    if let Some(d) = &run.durable {
        let _ = writeln!(
            out,
            "checkpoint {:.4} s in mid-window; tail of {} commits {:.3} s; recovery {:.4} s replayed {} ops",
            d.checkpoint_s,
            TAIL_OPS,
            d.tail_s,
            d.recovery_s,
            d.replayed_ops
        );
    }
    for v in &run.violations {
        let _ = writeln!(out, "VIOLATION {v}");
    }
    out
}
