//! Key-value aggregate range queries: `range_sum` over account balances.
//!
//! Run with `cargo run --release --example kv_range_sum`.
//!
//! The paper's generic claim is that *any* invertible aggregate can be
//! maintained, not just subtree sizes. This example keeps a ledger of
//! account balances keyed by account id and answers "what is the total
//! balance held by accounts in this id range?" in `O(log N)`, while transfer
//! threads move money around concurrently (a re-booking is one atomic
//! `insert_or_replace` upsert). The same queries are answered by the persistent
//! baseline and by the sequential oracle, and all three must agree once the
//! system is quiescent.

use std::sync::Arc;
use std::thread;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wait_free_range_trees::persistent::PersistentRangeTree;
use wait_free_range_trees::prelude::*;
use wait_free_range_trees::seq::ReferenceMap;

type Ledger = WaitFreeTree<i64, i64, Sum>;

const ACCOUNTS: i64 = 10_000;
const WORKERS: i64 = 4;
const UPDATES_PER_WORKER: usize = 5_000;

fn main() {
    // Every account starts with a balance equal to its id (easy to verify).
    let initial: Vec<(i64, i64)> = (0..ACCOUNTS).map(|id| (id, id)).collect();
    let ledger: Arc<Ledger> = Arc::new(WaitFreeTree::from_entries(initial.clone()));

    // Workers adjust balances of accounts inside their own id stripe.
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let ledger = Arc::clone(&ledger);
            thread::spawn(move || {
                let stripe = ACCOUNTS / WORKERS;
                let lo = w * stripe;
                let mut rng = StdRng::seed_from_u64(w as u64);
                for _ in 0..UPDATES_PER_WORKER {
                    let id = lo + rng.gen_range(0..stripe);
                    // Re-book the account with a new balance: a single
                    // atomic upsert — concurrent stripe totals never observe
                    // the account missing.
                    if let Some(balance) = ledger.get(&id) {
                        ledger.insert_or_replace(id, balance + 1);
                    }
                    // Concurrent range query over the worker's own stripe:
                    // total balance can only have grown.
                    let total = ledger.range_agg(lo, lo + stripe - 1);
                    let baseline: i128 = (lo..lo + stripe).map(|id| id as i128).sum();
                    assert!(total >= baseline - stripe as i128, "stripe total too small");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Quiescent cross-check against the persistent baseline and the oracle.
    let entries = ledger.entries_quiescent();
    let persistent: PersistentRangeTree<i64, i64, Sum> =
        PersistentRangeTree::from_entries(entries.clone());
    let oracle: ReferenceMap<i64, i64> = ReferenceMap::from_entries(entries);

    for (lo, hi) in [
        (0, ACCOUNTS - 1),
        (100, 999),
        (5_000, 5_099),
        (9_990, 20_000),
    ] {
        let a = ledger.range_agg(lo, hi);
        let b = persistent.range_agg(lo, hi);
        let c = oracle.range_agg::<Sum>(lo, hi);
        assert_eq!(a, b, "wait-free vs persistent disagree on [{lo}, {hi}]");
        assert_eq!(a, c, "wait-free vs oracle disagree on [{lo}, {hi}]");
        // `Sum` does not count entries: `count` collects the range.
        let n = ledger.count(lo, hi);
        assert_eq!(n, oracle.count(lo, hi), "count disagrees on [{lo}, {hi}]");
        println!("total balance of {n:>5} accounts [{lo:>5}, {hi:>5}] = {a}");
    }
    println!("kv_range_sum finished successfully");
}
