//! A miniature version of the paper's evaluation, runnable in seconds.
//!
//! Run with `cargo run --release --example baseline_comparison`.
//!
//! Uses the `wft-workload` generators and timed harness with small key
//! ranges and one very short interval per cell, to print a side-by-side
//! throughput comparison of
//!
//! * the wait-free tree (this paper),
//! * the persistent path-copying tree (the paper's competitor),
//! * the global-lock baseline,
//!
//! on the three workloads of §III. One 150 ms run per cell is a demo, not a
//! measurement: the repo's numbers come from `bash benchmark/run.sh`
//! (`benchmark/out/results.json`, metrics `baseline.*` for this comparison).

use std::time::Duration;

use wait_free_range_trees::workload::{run_once, TreeImpl, WorkloadSpec};

const THREADS: usize = 2;

fn main() {
    let workloads = [
        WorkloadSpec::contains_benchmark().scaled_down(20_000),
        WorkloadSpec::insert_delete().scaled_down(20_000),
        WorkloadSpec::successful_insert().scaled_down(20_000),
    ];
    let impls = [TreeImpl::WaitFree, TreeImpl::Persistent, TreeImpl::Locked];

    println!("== Mini evaluation ({THREADS} threads, scaled-down workloads) ==");
    println!(
        "{:<18} {:<26} {:>14} {:>10} {:>10}",
        "workload", "implementation", "ops/s", "p50(ns)", "p99(ns)"
    );
    for spec in workloads {
        for imp in impls {
            let run = run_once(imp, &spec, THREADS, Duration::from_millis(150), 42);
            println!(
                "{:<18} {:<26} {:>14.0} {:>10} {:>10}",
                spec.name,
                imp.name(),
                run.ops_per_sec,
                run.latency.quantile(0.50),
                run.latency.quantile(0.99)
            );
        }
    }
    println!("baseline_comparison finished successfully");
}
