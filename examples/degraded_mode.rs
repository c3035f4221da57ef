//! Graceful degradation end to end: a persistent storage failure turns the
//! durable store read-only instead of killing it, and `try_resume` brings
//! it back once the disk heals.
//!
//! Run with `cargo run --release --example degraded_mode`.
//!
//! The walk-through, against a [`FaultyStorage`] over the real filesystem:
//!
//! 1. **Healthy traffic** — acknowledged batches land in the WAL; a
//!    transient drizzle (every 10th storage op fails once) is absorbed by
//!    the journal's retry/backoff loop without the callers noticing.
//! 2. **The disk dies** — a persistent outage makes every storage call
//!    fail; the retry budget runs out and the journal escalates into
//!    **degraded read-only mode**: reads keep serving the acknowledged
//!    prefix from memory, writes fail fast with
//!    [`DurableError::Degraded`], and a `degraded-enter` trace event plus
//!    the `durable_degraded` gauge record the transition.
//! 3. **Premature resume** — `try_resume` while the disk is still dead
//!    probes storage with a genuine write, fails, and leaves the store
//!    degraded (no flapping).
//! 4. **Heal and resume** — after the outage clears, `try_resume` rolls
//!    back the torn WAL tail, opens a fresh fsynced segment, re-arms the
//!    journal, and writes flow again.
//! 5. **Nothing acknowledged was ever lost** — a clean reopen recovers
//!    every acknowledged write from before, across, and after the outage.

use std::io;
use std::sync::Arc;

use wait_free_range_trees::durable::{
    DurableError, DurableStore, FaultyStorage, RetryPolicy, ScratchDir,
};
use wait_free_range_trees::obs::{trace, TraceKind};
use wait_free_range_trees::prelude::*;

fn main() {
    let scratch = ScratchDir::new("degraded-mode");
    let faulty = FaultyStorage::over_fs();
    let config = DurableConfig {
        shards: 2,
        // A tight budget so the escalation happens in milliseconds; the
        // default (6 attempts, 1ms..64ms backoff) rides out longer blips.
        retry: RetryPolicy {
            attempts: 3,
            base_backoff: std::time::Duration::from_micros(100),
            max_backoff: std::time::Duration::from_millis(1),
        },
        ..DurableConfig::default()
    };
    let store: DurableStore<i64, i64> =
        DurableStore::open_with_storage(scratch.path(), config.clone(), Arc::new(faulty.clone()))
            .unwrap();

    // ---- 1. healthy traffic under a transient drizzle -------------------
    faulty.every(10, io::ErrorKind::Interrupted);
    for k in 0..100 {
        store
            .apply_durable(vec![StoreOp::Insert { key: k, value: k }])
            .unwrap();
    }
    faulty.every(0, io::ErrorKind::Interrupted);
    let metrics = store.metrics();
    let io_retries = metrics.counter("durable_io_retries").unwrap();
    assert!(io_retries > 0, "the drizzle really fired");
    let degraded = metrics.gauge("durable_degraded");
    assert_eq!(degraded, Some(0), "transient faults never degrade");
    println!("healthy: 100 acknowledged writes, {io_retries} transient faults absorbed by retry");

    // ---- 2. the disk dies -----------------------------------------------
    faulty.outage_now(io::ErrorKind::Other);
    let err = store
        .apply_durable(vec![StoreOp::Insert {
            key: 100,
            value: 100,
        }])
        .unwrap_err();
    assert!(matches!(err, DurableError::Degraded(_)));
    assert!(store.is_degraded());
    assert!(!store.is_halted(), "degraded is not dead");
    assert_eq!(store.metrics().gauge("durable_degraded"), Some(1));
    println!("outage: write refused with `{err}`");

    // Reads keep serving the acknowledged prefix from memory.
    assert_eq!(PointMap::len(&store), 100);
    assert_eq!(PointMap::get(&store, &42), Some(42));
    assert_eq!(
        RangeRead::count(&store, RangeSpec::inclusive(0, 49)),
        50,
        "range reads survive degraded mode"
    );
    assert_eq!(
        PointMap::get(&store, &100),
        None,
        "the refused write was never applied"
    );
    println!("degraded: reads serve all 100 acknowledged entries; writes fail fast, typed");

    // ---- 3. premature resume --------------------------------------------
    match store.try_resume() {
        Err(DurableError::Io(msg)) => {
            println!("premature resume: probe refused (`{msg}`), store stays degraded")
        }
        other => panic!("resume against a dead disk must fail with Io, got {other:?}"),
    }
    assert!(store.is_degraded());

    // ---- 4. heal and resume ---------------------------------------------
    faulty.heal();
    assert_eq!(store.try_resume(), Ok(true));
    assert!(!store.is_degraded());
    for k in 100..120 {
        store
            .apply_durable(vec![StoreOp::Insert { key: k, value: k }])
            .unwrap();
    }
    let metrics = store.metrics();
    let degraded_entries = metrics.counter("durable_degraded_entries").unwrap();
    let resumed = metrics.counter("durable_resumes").unwrap();
    assert_eq!((degraded_entries, resumed), (1, 1));
    assert_eq!(metrics.gauge("durable_degraded"), Some(0));
    println!(
        "resumed: 20 more acknowledged writes; metrics: {degraded_entries} degraded entry, \
         {resumed} resume"
    );

    // The trace ring recorded the whole arc: retries, the degradation,
    // the resume.
    let events = trace::global().drain();
    let retries = events
        .iter()
        .filter(|e| e.kind == TraceKind::IoRetry)
        .count();
    let enters = events
        .iter()
        .filter(|e| e.kind == TraceKind::DegradedEnter)
        .count();
    let resumes = events
        .iter()
        .filter(|e| e.kind == TraceKind::DegradedResume)
        .count();
    let dropped = trace::global().dropped();
    assert!(
        (enters >= 1 && resumes >= 1) || dropped > 0,
        "the degrade/resume transitions left trace events (unless evicted)"
    );
    println!(
        "trace ring: {retries} io-retry, {enters} degraded-enter, {resumes} degraded-resume \
         ({dropped} older events evicted)"
    );

    // ---- 5. nothing acknowledged was ever lost ---------------------------
    store.shutdown();
    drop(store);
    let recovered: DurableStore<i64, i64> =
        DurableStore::open_with_config(scratch.path(), config).unwrap();
    assert_eq!(PointMap::len(&recovered), 120);
    for k in 0..120 {
        assert_eq!(PointMap::get(&recovered, &k), Some(k));
    }
    recovered.store().check_invariants();
    println!(
        "recovery: all 120 acknowledged writes present (replayed {} records)",
        recovered.recovery().replayed_records
    );

    println!("\ndegraded_mode finished successfully");
}
