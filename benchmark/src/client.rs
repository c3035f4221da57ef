//! The closed-loop client: each thread sends its next operation only after
//! the previous one returned, checks the answer against what it knows, and
//! records a latency sample (and, in a traced phase, a span).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use wft_api::{
    BatchApply, OpOutcome, PointMap, RangeRead, RangeScan, RangeSpec, ScanCursor, StoreOp,
    UpdateOutcome,
};

use crate::ops::{initial_value, Kind, Op, OpGen, Stripe, KINDS, SCAN_CHUNK};

/// What a backend answered, reduced to what the client can check.
#[derive(Debug)]
pub enum Outcome {
    Present(bool),
    Value(Option<i64>),
    Update {
        applied: bool,
        prior: Option<i64>,
    },
    Count(u64),
    Entries(Vec<(i64, i64)>),
    /// The value each batch op displaced; `None` when the batch was refused.
    Batch(Option<Vec<Option<i64>>>),
}

/// A backend under load. Only `wft-api` trait methods are called.
pub trait Executor: Sync {
    fn exec(&self, op: &Op) -> Outcome;
}

fn update(outcome: UpdateOutcome<i64>) -> Outcome {
    match outcome {
        UpdateOutcome::Applied { prior } => Outcome::Update {
            applied: true,
            prior,
        },
        UpdateOutcome::Unchanged { current } => Outcome::Update {
            applied: false,
            prior: current,
        },
    }
}

fn exec_point_range<T>(target: &T, op: &Op) -> Outcome
where
    T: PointMap<i64, i64> + RangeRead<i64, i64>,
{
    match op {
        Op::Contains(k) => Outcome::Present(PointMap::contains(target, k)),
        Op::Get(k) => Outcome::Value(PointMap::get(target, k)),
        Op::Insert(k, v) => update(PointMap::insert(target, *k, *v)),
        Op::Replace(k, v) => update(PointMap::replace(target, *k, *v)),
        Op::Remove(k) => update(PointMap::remove(target, k)),
        Op::Count { lo, hi, .. } => {
            Outcome::Count(RangeRead::count(target, RangeSpec::inclusive(*lo, *hi)))
        }
        Op::Collect { lo, hi } => Outcome::Entries(RangeRead::collect_range(
            target,
            RangeSpec::inclusive(*lo, *hi),
        )),
        Op::Drain { .. } | Op::Page { .. } | Op::Batch(_) => {
            unreachable!("{op:?} needs the scan and batch traits")
        }
    }
}

/// A backend driven through `PointMap` + `RangeRead` only (the baselines).
pub struct PointRange<'a, T>(pub &'a T);

impl<T> Executor for PointRange<'_, T>
where
    T: PointMap<i64, i64> + RangeRead<i64, i64>,
{
    fn exec(&self, op: &Op) -> Outcome {
        exec_point_range(self.0, op)
    }
}

/// A backend driven through the whole trait family.
pub struct Full<'a, T>(pub &'a T);

impl<T> Executor for Full<'_, T>
where
    T: PointMap<i64, i64> + RangeScan<i64, i64> + BatchApply<i64, i64>,
{
    fn exec(&self, op: &Op) -> Outcome {
        match op {
            Op::Drain { lo, hi } => Outcome::Entries(
                RangeScan::scan(self.0, RangeSpec::inclusive(*lo, *hi)).drain(SCAN_CHUNK),
            ),
            Op::Page { lo, hi } => Outcome::Entries(
                RangeScan::scan(self.0, RangeSpec::inclusive(*lo, *hi)).next_chunk(SCAN_CHUNK),
            ),
            Op::Batch(items) => {
                let batch = items
                    .iter()
                    .map(|&(key, value)| StoreOp::InsertOrReplace { key, value })
                    .collect();
                Outcome::Batch(BatchApply::apply_batch(self.0, batch).ok().map(|outcomes| {
                    outcomes
                        .into_iter()
                        .map(|o| match o {
                            OpOutcome::Replaced(prior) => prior,
                            other => unreachable!("InsertOrReplace answered {other:?}"),
                        })
                        .collect()
                }))
            }
            other => exec_point_range(self.0, other),
        }
    }
}

const ABSENT: i64 = i64::MIN;

/// What one client knows about the keys it alone updates, plus the checks
/// every answer must pass.
#[derive(Debug, Clone)]
pub struct Oracle {
    values: Vec<i64>,
    stripe: Option<Stripe>,
    /// No writer anywhere: range answers are checked exactly.
    quiescent: bool,
    /// Applied inserts minus applied removes by this client.
    pub net_len: i64,
}

fn evens_in(lo: i64, hi: i64) -> i64 {
    hi.div_euclid(2) - (lo + 1).div_euclid(2) + 1
}

impl Oracle {
    /// The loaded state of the keys `0..keyspace`.
    pub fn new(stripe: Option<Stripe>, quiescent: bool, keyspace: i64) -> Oracle {
        let values = (0..keyspace)
            .map(|k| if k % 2 == 0 { initial_value(k) } else { ABSENT })
            .collect();
        Oracle {
            values,
            stripe,
            quiescent,
            net_len: 0,
        }
    }

    fn owns(&self, key: i64) -> bool {
        self.stripe.is_some_and(|s| s.owns(key))
    }

    fn known(&self, key: i64) -> Option<i64> {
        let v = self.values[key as usize];
        (v != ABSENT).then_some(v)
    }

    fn store(&mut self, key: i64, value: Option<i64>) {
        self.net_len += value.is_some() as i64 - self.known(key).is_some() as i64;
        self.values[key as usize] = value.unwrap_or(ABSENT);
    }

    /// Every key of this client's stripe with the value it must hold.
    pub fn owned(&self) -> impl Iterator<Item = (i64, Option<i64>)> + '_ {
        (0..self.values.len() as i64)
            .filter(|&k| self.owns(k))
            .map(|k| (k, self.known(k)))
    }

    fn entries_ok(&self, lo: i64, hi: i64, limit: usize, entries: &[(i64, i64)]) -> bool {
        let ordered = entries.windows(2).all(|w| w[0].0 < w[1].0);
        let bounded = entries.iter().all(|&(k, _)| (lo..=hi).contains(&k));
        let own_values = entries
            .iter()
            .all(|&(k, v)| !self.owns(k) || self.known(k) == Some(v));
        let exact = !self.quiescent
            || (entries.len() == (evens_in(lo, hi) as usize).min(limit)
                && entries
                    .iter()
                    .all(|&(k, v)| k % 2 == 0 && v == initial_value(k)));
        ordered && bounded && own_values && exact && entries.len() <= limit
    }

    /// Checks `outcome` against what this client knows and, for an update,
    /// brings the oracle up to date. `false` is a failed operation.
    pub fn check(&mut self, op: &Op, outcome: &Outcome) -> bool {
        match (op, outcome) {
            (Op::Contains(k), Outcome::Present(p)) => {
                !self.owns(*k) || *p == self.known(*k).is_some()
            }
            (Op::Get(k), Outcome::Value(v)) => !self.owns(*k) || *v == self.known(*k),
            (Op::Insert(k, v), Outcome::Update { applied, .. }) => {
                let expected = self.known(*k).is_none();
                if *applied {
                    self.store(*k, Some(*v));
                }
                *applied == expected
            }
            (Op::Replace(k, v), Outcome::Update { applied, prior }) => {
                let ok = *applied && *prior == self.known(*k);
                self.store(*k, Some(*v));
                ok
            }
            (Op::Remove(k), Outcome::Update { applied, prior }) => {
                let before = self.known(*k);
                if *applied {
                    self.store(*k, None);
                }
                *applied == before.is_some() && (!*applied || *prior == before)
            }
            (Op::Count { lo, hi, .. }, Outcome::Count(n)) => {
                if self.quiescent {
                    *n as i64 == evens_in(*lo, *hi)
                } else {
                    *n as i64 <= hi - lo + 1
                }
            }
            (Op::Collect { lo, hi } | Op::Drain { lo, hi }, Outcome::Entries(e)) => {
                self.entries_ok(*lo, *hi, usize::MAX, e)
            }
            (Op::Page { lo, hi }, Outcome::Entries(e)) => self.entries_ok(*lo, *hi, SCAN_CHUNK, e),
            (Op::Batch(items), Outcome::Batch(Some(priors))) => {
                let mut ok = priors.len() == items.len();
                for (&(k, v), prior) in items.iter().zip(priors) {
                    ok &= *prior == self.known(k);
                    self.store(k, Some(v));
                }
                ok
            }
            _ => false,
        }
    }
}

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub phase: u8,
    pub thread: u8,
    pub kind: Kind,
    /// Index of the operation in its thread's stream.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One stretch of a run: the clients keep sending across phase changes, so
/// a timed window starts on a system that is already loaded.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: String,
    pub secs: f64,
    /// Latency samples are kept (timed windows; never the warm-up).
    pub record: bool,
    /// Spans are kept as well.
    pub trace: bool,
}

/// Everything one client thread measured.
#[derive(Debug, Default, Clone)]
pub struct Log {
    /// Completed operations per phase and kind.
    pub counts: Vec<[u64; KINDS]>,
    /// Latency samples (ns) per phase and kind.
    pub samples: Vec<[Vec<u32>; KINDS]>,
    pub spans: Vec<Span>,
    pub failed: u64,
}

impl Log {
    fn with_phases(n: usize) -> Log {
        Log {
            counts: vec![[0; KINDS]; n],
            samples: (0..n).map(|_| Default::default()).collect(),
            ..Log::default()
        }
    }
}

#[derive(Debug)]
pub struct Client {
    pub thread: usize,
    pub gen: OpGen,
    pub oracle: Oracle,
    pub log: Log,
}

impl Client {
    pub fn new(thread: usize, gen: OpGen, quiescent: bool) -> Client {
        let oracle = Oracle::new(gen.stripe(), quiescent, gen.keyspace());
        Client {
            thread,
            gen,
            oracle,
            log: Log::default(),
        }
    }
}

const STOP: usize = usize::MAX;

/// How often point operations are timed (every range, batch and durable
/// commit is timed: pass 1 for backends whose point ops commit to disk).
pub const POINT_SAMPLING: u64 = 8;

fn client_loop<E: Executor>(
    exec: &E,
    client: &mut Client,
    phases: &[Phase],
    current: &AtomicUsize,
    epoch: Instant,
    time_every: u64,
    limit: Option<u64>,
) {
    let mut index = 0u64;
    loop {
        let p = current.load(Ordering::Relaxed);
        if p == STOP || limit == Some(index) {
            return;
        }
        let phase = &phases[p];
        let op = client.gen.next_op();
        let kind = op.kind();
        let timed = phase.record && (!kind.is_point() || index.is_multiple_of(time_every));
        index += 1;
        let start = timed.then(Instant::now);
        let outcome = exec.exec(&op);
        let end = timed.then(Instant::now);
        client.log.counts[p][kind as usize] += 1;
        // A failed operation counts as attempted and misses every latency.
        if !client.oracle.check(&op, &outcome) {
            client.log.failed += 1;
            continue;
        }
        if let (Some(start), Some(end)) = (start, end) {
            let ns = (end - start).as_nanos().min(u32::MAX as u128) as u32;
            client.log.samples[p][kind as usize].push(ns);
            if phase.trace {
                let start_ns = (start - epoch).as_nanos() as u64;
                client.log.spans.push(Span {
                    phase: p as u8,
                    thread: client.thread as u8,
                    kind,
                    op: index - 1,
                    start_ns,
                    end_ns: start_ns + ns as u64,
                });
            }
        }
    }
}

/// What the controlling thread is told while the clients run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    Start(usize),
    Middle(usize),
    End(usize),
}

/// Measured wall time of each phase, and when it started after `epoch`.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTime {
    pub start_ns: u64,
    pub secs: f64,
}

/// Runs every client through `phases` on its own thread. `on_event` runs on
/// the calling thread, beside the load (a checkpoint in mid-window, a
/// metrics read at a window edge). With `ops_each` the clients stop by
/// themselves after that many operations instead of at the end of the last
/// phase.
pub fn run_phases<E: Executor>(
    exec: &E,
    clients: &mut [Client],
    phases: &[Phase],
    epoch: Instant,
    time_every: u64,
    ops_each: Option<u64>,
    mut on_event: impl FnMut(Event),
) -> Vec<PhaseTime> {
    let current = AtomicUsize::new(0);
    for c in clients.iter_mut() {
        c.log = Log::with_phases(phases.len());
    }
    let mut times = Vec::with_capacity(phases.len());
    std::thread::scope(|scope| {
        let current = &current;
        for client in clients.iter_mut() {
            scope.spawn(move || {
                client_loop(exec, client, phases, current, epoch, time_every, ops_each)
            });
        }
        for (i, phase) in phases.iter().enumerate() {
            current.store(i, Ordering::Relaxed);
            let start = Instant::now();
            let length = Duration::from_secs_f64(phase.secs);
            on_event(Event::Start(i));
            std::thread::sleep((length / 2).saturating_sub(start.elapsed()));
            on_event(Event::Middle(i));
            std::thread::sleep(length.saturating_sub(start.elapsed()));
            on_event(Event::End(i));
            times.push(PhaseTime {
                start_ns: (start - epoch).as_nanos() as u64,
                secs: start.elapsed().as_secs_f64(),
            });
        }
        if ops_each.is_none() {
            current.store(STOP, Ordering::Relaxed);
        }
    });
    times
}

/// Runs every client for exactly `ops_each` operations (one recorded,
/// untraced phase) and returns the wall time.
pub fn run_fixed<E: Executor>(
    exec: &E,
    clients: &mut [Client],
    ops_each: u64,
    time_every: u64,
) -> f64 {
    let phases = [Phase {
        name: "fixed".into(),
        secs: 0.0,
        record: true,
        trace: false,
    }];
    let epoch = Instant::now();
    run_phases(
        exec,
        clients,
        &phases,
        epoch,
        time_every,
        Some(ops_each),
        |_| {},
    );
    epoch.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evens_in_counts_loaded_keys() {
        assert_eq!(evens_in(0, 0), 1);
        assert_eq!(evens_in(1, 1), 0);
        assert_eq!(evens_in(1, 2), 1);
        assert_eq!(evens_in(0, 15), 8);
        assert_eq!(evens_in(3, 10), 4);
    }

    #[test]
    fn oracle_predicts_own_updates_and_flags_wrong_answers() {
        let stripe = Stripe { index: 0, of: 1 };
        let mut o = Oracle::new(Some(stripe), false, 16);
        let applied = |prior| Outcome::Update {
            applied: true,
            prior,
        };
        let refused = Outcome::Update {
            applied: false,
            prior: None,
        };
        // Key 4 is loaded, key 5 is not.
        assert!(o.check(&Op::Insert(5, 50), &applied(None)));
        assert!(o.check(&Op::Insert(4, 40), &refused));
        assert!(!o.check(&Op::Insert(6, 60), &applied(None)), "6 was loaded");
        assert!(o.check(&Op::Remove(5), &applied(Some(50))));
        assert!(o.check(&Op::Remove(5), &refused));
        assert!(o.check(&Op::Replace(7, 70), &applied(None)));
        assert!(!o.check(&Op::Replace(7, 71), &applied(Some(0))));
        assert!(o.check(&Op::Get(7), &Outcome::Value(Some(71))));
        // 5: +1 -1; 6: overwritten, still one key; 7: +1.
        assert_eq!(o.net_len, 1);
    }

    #[test]
    fn range_answers_are_checked() {
        let mut o = Oracle::new(None, true, 16);
        let good: Vec<(i64, i64)> = [2, 4, 6].iter().map(|&k| (k, initial_value(k))).collect();
        assert!(o.check(
            &Op::Collect { lo: 1, hi: 6 },
            &Outcome::Entries(good.clone())
        ));
        assert!(!o.check(
            &Op::Collect { lo: 1, hi: 8 },
            &Outcome::Entries(good.clone())
        ));
        let mut unordered = good.clone();
        unordered.swap(0, 1);
        assert!(!o.check(&Op::Drain { lo: 1, hi: 6 }, &Outcome::Entries(unordered)));
        assert!(o.check(
            &Op::Count {
                lo: 0,
                hi: 15,
                class: 0
            },
            &Outcome::Count(8)
        ));
        assert!(!o.check(
            &Op::Count {
                lo: 0,
                hi: 15,
                class: 0
            },
            &Outcome::Count(9)
        ));
    }
}
