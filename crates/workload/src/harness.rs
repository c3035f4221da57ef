//! The timed throughput harness.
//!
//! Mirrors the paper's methodology (§III): build a pre-filled tree, start `T`
//! worker threads behind a barrier, let them issue operations drawn from the
//! workload for a fixed wall-clock interval, stop, and report the total
//! number of completed operations.
//!
//! The interval is a parameter: the paper uses 10 s × 5 runs on a 24-core
//! machine; callers here (tests, the `baseline_comparison` example) pass
//! tens of milliseconds. Repetition and aggregation — every number the repo
//! reports — live in `benchmark/`, not here.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::adapter::{ConcurrentSet, TreeImpl};
use crate::spec::{Op, WorkloadSpec};

/// The outcome of a single timed run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Total operations completed across all threads.
    pub total_ops: u64,
    /// Elapsed wall-clock time.
    pub elapsed: Duration,
    /// Throughput in operations per second.
    pub ops_per_sec: f64,
    /// Per-operation latency distribution, merged across worker threads.
    /// Sampled — each worker times one in `LATENCY_SAMPLE` (8) operations —
    /// so `latency.count ≈ total_ops / 8`; the *distribution*
    /// is unbiased because sampling is by operation index, not duration.
    pub latency: wft_obs::HistogramSnapshot,
}

/// One in this many operations is timed into the latency histogram
/// (per worker, by operation index). At 8 the amortised cost is two
/// `Instant::now()` calls per 8 ops — within measurement noise — while a
/// 300 ms window still collects tens of thousands of samples per thread.
const LATENCY_SAMPLE: u64 = 8;

/// How long [`run_once`] waits for workers to exit after raising the stop
/// flag before declaring them wedged and dumping diagnostics (the workload
/// watchdog): a backend retry loop that livelocks shows up here as a
/// [`wft_obs::MetricsSnapshot`] plus the drained global
/// [`wft_obs::TraceRing`] timeline on stderr instead of a silent hang.
pub const WATCHDOG_GRACE: Duration = Duration::from_secs(10);

/// Executes one timed run of `spec` with `threads` workers against a freshly
/// built instance of `imp`.
pub fn run_once(
    imp: TreeImpl,
    spec: &WorkloadSpec,
    threads: usize,
    duration: Duration,
    seed: u64,
) -> RunResult {
    let prefill = spec.prefill_keys(seed);
    let set = imp.build(&prefill, threads);
    timed_run(set, spec, threads, duration, seed)
}

/// Executes one timed run against an already-built structure.
fn timed_run(
    set: Arc<dyn ConcurrentSet>,
    spec: &WorkloadSpec,
    threads: usize,
    duration: Duration,
    seed: u64,
) -> RunResult {
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let done = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let mut handles = Vec::with_capacity(threads);
    for t in 0..threads {
        let set = Arc::clone(&set);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let done = Arc::clone(&done);
        let spec = *spec;
        handles.push(std::thread::spawn(move || {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1)));
            let latency = wft_obs::LatencyHistogram::new();
            barrier.wait();
            let mut ops = 0u64;
            // Check the stop flag every few operations to keep the overhead
            // of the flag itself negligible.
            while !stop.load(Ordering::Relaxed) {
                for _ in 0..32 {
                    let op = spec.next_op(&mut rng);
                    // Time one in LATENCY_SAMPLE ops (by index, so the
                    // sample is duration-unbiased); the other ops pay no
                    // clock reads at all.
                    let timed_at = ops.is_multiple_of(LATENCY_SAMPLE).then(Instant::now);
                    match op {
                        Op::Contains(k) => {
                            std::hint::black_box(set.contains(k));
                        }
                        Op::Insert(k) => {
                            std::hint::black_box(set.insert(k));
                        }
                        Op::Remove(k) => {
                            std::hint::black_box(set.remove(k));
                        }
                        Op::Count(lo, hi) => {
                            std::hint::black_box(set.count(lo, hi));
                        }
                        Op::Collect(lo, hi) => {
                            std::hint::black_box(set.count_via_collect(lo, hi));
                        }
                        Op::SnapshotCounts(a_min, a_max, b_min, b_max) => {
                            std::hint::black_box(
                                set.snapshot_count_pair(a_min, a_max, b_min, b_max),
                            );
                        }
                        Op::ChunkedScan(lo, hi, chunk) => {
                            std::hint::black_box(set.chunked_scan_count(lo, hi, chunk));
                        }
                        Op::Patch(k) => {
                            std::hint::black_box(set.patch_toggle(k));
                        }
                        Op::AtomicBatch(a, b) => {
                            std::hint::black_box(set.batch_move(a, b));
                        }
                    }
                    if let Some(at) = timed_at {
                        latency.observe(at.elapsed());
                    }
                    ops += 1;
                }
            }
            // ORDERING: Release orders the worker's final counter and latency writes
            // before the watchdog's Acquire `done` reads.
            done.fetch_add(1, Ordering::Release);
            (ops, latency.snapshot())
        }));
    }
    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    // The workload watchdog: workers only re-check the stop flag between
    // 32-op batches, so a backend whose retry loop livelocks (every op is
    // lock-free, not wait-free) would turn this join into a silent hang.
    // Give them a grace period; past it, dump the backend's metrics and the
    // global trace timeline to stderr — the post-mortem a wedged run needs.
    let deadline = Instant::now() + WATCHDOG_GRACE;
    // ORDERING: Acquire pairs with the workers' Release `done` bumps.
    while done.load(Ordering::Acquire) < threads && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    // ORDERING: as above.
    let stuck = threads - done.load(Ordering::Acquire).min(threads);
    if stuck > 0 {
        eprintln!(
            "[wft-workload watchdog] {stuck}/{threads} worker(s) still running \
             {WATCHDOG_GRACE:?} after the stop flag; dumping diagnostics"
        );
        eprint!("{}", set.metrics_snapshot().to_prometheus());
        eprint!("{}", wft_obs::trace::global().render_timeline());
    }
    let mut total_ops = 0u64;
    let mut latency = wft_obs::HistogramSnapshot::default();
    for handle in handles {
        let (ops, hist) = handle.join().unwrap();
        total_ops += ops;
        latency = latency.merged_with(&hist);
    }
    let elapsed = start.elapsed();
    RunResult {
        total_ops,
        elapsed,
        ops_per_sec: total_ops as f64 / elapsed.as_secs_f64(),
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_once_reports_progress_for_every_implementation() {
        let spec = WorkloadSpec::insert_delete().scaled_down(2_000);
        for imp in TreeImpl::ALL {
            let result = run_once(imp, &spec, 2, Duration::from_millis(50), 1);
            assert!(
                result.total_ops > 0,
                "{}: no operations completed",
                imp.name()
            );
            assert!(result.ops_per_sec > 0.0);
        }
    }

    #[test]
    fn transactional_workload_reports_progress_for_every_implementation() {
        let spec = WorkloadSpec::transactional_mix(50.0).scaled_down(2_000);
        for imp in TreeImpl::ALL {
            let result = run_once(imp, &spec, 2, Duration::from_millis(40), 2);
            assert!(
                result.total_ops > 0,
                "{}: no operations completed",
                imp.name()
            );
        }
    }

    #[test]
    fn read_heavy_workload_leaves_the_tree_unchanged() {
        let spec = WorkloadSpec::contains_benchmark().scaled_down(2_000);
        let prefill = spec.prefill_keys(3);
        let set = TreeImpl::WaitFree.build(&prefill, 2);
        let before = set.len();
        let _ = timed_run(Arc::clone(&set), &spec, 2, Duration::from_millis(50), 3);
        assert_eq!(
            set.len(),
            before,
            "contains-only workload must not modify the tree"
        );
    }
}
