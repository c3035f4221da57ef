//! The `wft-durable` crash-safety layer end to end.
//!
//! Run with `cargo run --release --example durability_tour`.
//!
//! Writers hammer a [`DurableStore`] with acknowledged single-op batches
//! while the tour takes one **online checkpoint** (the image is drained
//! through a snapshot-consistent scan cursor — the writers are never
//! paused) and then **kills the store mid-traffic** with
//! [`DurableStore::simulate_crash`]. The walk-through:
//!
//! * **acknowledged means durable**: each writer keeps a private oracle of
//!   exactly the ops the store acknowledged (disjoint key stripes, so the
//!   union of oracles is the expected survivor state); after the crash and
//!   reopen, the recovered contents must equal that union *exactly* — the
//!   crash may only cut off ops that were never acknowledged;
//! * **the metrics account for the run**: at quiescence (the journal
//!   halted), the [`Registry`] snapshot of the store's [`MetricsSource`]
//!   output is checked by name against what the tour did — one WAL record
//!   per acknowledged op, one fsync per commit group, one checkpoint, no
//!   retries — asserted with `==` wherever the run fixes the number;
//! * **the trace ring tells the story**: `wal-stall` events mark commits
//!   that rode another commit's flush group, `checkpoint-begin/end` bracket
//!   the online image — drained from the same global [`TraceRing`] the
//!   other backends feed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use wait_free_range_trees::durable::{DurableStore, ScratchDir};
use wait_free_range_trees::obs::{trace, TraceKind};
use wait_free_range_trees::prelude::*;

const WRITERS: usize = 4;
const STRIPE: i64 = 1_000;
const BATCHES_PER_WRITER: i64 = 600;

fn main() {
    let scratch = ScratchDir::new("durability-tour");
    let config = DurableConfig {
        shards: 4,
        ..DurableConfig::default()
    };

    // ---- phase 1: traffic, an online checkpoint, then the crash ---------
    let store: Arc<DurableStore<i64, i64>> =
        Arc::new(DurableStore::open_with_config(scratch.path(), config.clone()).unwrap());
    let registry = Registry::new();
    registry.register_source("", Arc::clone(&store) as Arc<dyn MetricsSource>);

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                // A disjoint stripe per writer: each op's final effect is
                // decided by this thread alone, so an oracle of the
                // acknowledged ops is exact, not approximate.
                let base = w as i64 * STRIPE;
                let mut oracle: BTreeMap<i64, i64> = BTreeMap::new();
                let mut acked = 0u64;
                for i in 0..BATCHES_PER_WRITER {
                    let key = base + (i % 128);
                    let op = if i % 5 == 4 {
                        StoreOp::Remove { key }
                    } else {
                        StoreOp::InsertOrReplace { key, value: i }
                    };
                    match store.apply_durable(vec![op.clone()]) {
                        Ok(_) => {
                            acked += 1;
                            match op {
                                StoreOp::Remove { key } => {
                                    oracle.remove(&key);
                                }
                                StoreOp::InsertOrReplace { key, value } => {
                                    oracle.insert(key, value);
                                }
                                _ => unreachable!(),
                            }
                        }
                        // The crash landed first: this op never became
                        // durable and the store said so — stop here.
                        Err(_) => break,
                    }
                }
                (oracle, acked)
            })
        })
        .collect();

    // Mid-traffic checkpoint: the image is cut through a snapshot scan
    // cursor while the writers above keep committing.
    thread::sleep(Duration::from_millis(30));
    let checkpoint = store.checkpoint().unwrap();
    println!(
        "checkpoint: cut seq {} / {} entries / {} bytes / {} segment(s) truncated",
        checkpoint.cut, checkpoint.entries, checkpoint.bytes, checkpoint.segments_truncated,
    );

    // The kill switch: halt the log thread the way a power cut would —
    // in-flight submissions fail, nothing un-fsynced is acknowledged.
    thread::sleep(Duration::from_millis(30));
    store.simulate_crash();
    assert!(store.is_halted());

    let mut expected: BTreeMap<i64, i64> = BTreeMap::new();
    let mut total_acked = 0u64;
    let mut all_finished = true;
    for handle in writers {
        let (oracle, acked) = handle.join().unwrap();
        all_finished &= acked == BATCHES_PER_WRITER as u64;
        total_acked += acked;
        expected.extend(oracle);
    }
    println!(
        "crash: {total_acked}/{} ops acknowledged before the kill{}",
        WRITERS as i64 * BATCHES_PER_WRITER,
        if all_finished {
            " (all writers outran the kill — survivor check still exact)"
        } else {
            ""
        },
    );

    // ---- the metrics account for the run, exactly ------------------------
    // The journal is halted, so nothing moves any more: every counter can
    // be checked against what the tour itself did, with `==`, not `>=`.
    let quiesced = registry.snapshot();
    let counter = |name: &str| quiesced.counter(&format!("durable_{name}")).unwrap();
    let gauge = |name: &str| quiesced.gauge(&format!("durable_{name}")).unwrap() as u64;
    let histogram = |name: &str| quiesced.histogram(&format!("durable_{name}")).unwrap();
    let (appends, fsyncs) = (counter("wal_appends"), counter("wal_fsyncs"));
    let (groups, stalls_counted) = (histogram("group_size"), counter("wal_stalls"));
    assert_eq!(appends, total_acked, "every ack is one WAL record");
    assert!(fsyncs >= 1, "fsync is on, so every commit group syncs");
    assert_eq!(groups.count, fsyncs, "one fsync per commit group");
    assert_eq!(groups.sum_ns, appends, "the groups partition the records");
    assert_eq!(stalls_counted, appends - fsyncs, "g - 1 stalls per group");
    assert_eq!(histogram("commit_latency_ns").count, total_acked);
    let checkpoints = (counter("checkpoints"), counter("auto_checkpoints"));
    assert_eq!(checkpoints, (1, 0), "one explicit checkpoint, no policy");
    assert_eq!(histogram("checkpoint_duration_ns").count, 1);
    assert!(counter("wal_rotations") >= 1, "a checkpoint rotates");
    assert_eq!(counter("segments_truncated"), checkpoint.segments_truncated);
    for none in ["io_retries", "degraded_entries", "resumes"] {
        assert_eq!(counter(none), 0, "{none}: a healthy run has none");
    }
    assert_eq!(counter("recovery_replayed_records"), 0, "a fresh directory");
    assert_eq!((gauge("degraded"), gauge("recovered_through")), (0, 0));
    let durable_seq = gauge("seq_durable");
    assert_eq!(durable_seq, total_acked, "acked records are the whole log");
    assert_eq!(gauge("seq_applied"), durable_seq, "quiescent: no lag");
    println!(
        "metrics at quiescence: {appends} appends / {fsyncs} fsyncs / {stalls_counted} coalesced \
         (group mean {:.2}) / commit p99 {} ns",
        groups.mean_ns(),
        histogram("commit_latency_ns").quantile(0.99),
    );

    // ---- phase 2: recovery ----------------------------------------------
    let recovered: DurableStore<i64, i64> =
        DurableStore::open_with_config(scratch.path(), config).unwrap();
    let report = recovered.recovery().clone();
    assert_eq!(
        report.checkpoint_cut, checkpoint.cut,
        "recovery starts from the image the tour wrote"
    );
    assert_eq!(
        report.recovered_through, durable_seq,
        "replay lands exactly on the pre-crash durable watermark"
    );
    let survivors = RangeRead::collect_range(&recovered, RangeSpec::all());
    let want: Vec<(i64, i64)> = expected.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(
        survivors, want,
        "recovered contents == the union of acknowledged-op oracles"
    );
    recovered.store().check_invariants();
    println!(
        "recovery: checkpoint cut {} + {} replayed records ({} ops) -> {} surviving entries, \
         zero acknowledged ops lost",
        report.checkpoint_cut,
        report.replayed_records,
        report.replayed_ops,
        survivors.len(),
    );

    // ---- the post-mortem timeline ---------------------------------------
    let events = trace::global().drain();
    let stalls = events
        .iter()
        .filter(|e| e.kind == TraceKind::WalStall)
        .count() as u64;
    let begins = events
        .iter()
        .filter(|e| e.kind == TraceKind::CheckpointBegin)
        .count();
    let ends = events
        .iter()
        .filter(|e| e.kind == TraceKind::CheckpointEnd)
        .count();
    assert!(
        stalls <= stalls_counted + trace::global().dropped(),
        "trace events are a (possibly truncated) subset of the counted stalls"
    );
    assert!(
        (begins >= 1 && ends >= 1) || trace::global().dropped() > 0,
        "the checkpoint left its bracket (unless the bounded ring evicted it)"
    );
    println!(
        "\n-- trace ring: {} wal-stall events, {begins} checkpoint-begin / {ends} checkpoint-end --",
        stalls
    );
    let timeline = trace::global().render_timeline();
    for line in timeline
        .lines()
        .rev()
        .take(10)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        println!("{line}");
    }

    println!("\ndurability_tour finished successfully");
}
