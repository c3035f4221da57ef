//! Operation streams: what each client thread of each workload sends.
//!
//! A stream depends only on `(seed, workload, thread)`, never on what the
//! system answered, so the same seed replays the same inputs against any
//! backend (the stack peel and the baselines rely on that).

use crate::rng::Rng;

/// Keys are drawn from `0..KEYSPACE`; the even half is bulk-loaded. 2^15
/// live keys, so that a 4 s window spans several of the tree's rebuild
/// waves (README.md, "Why the live set is 2^15").
pub const KEYSPACE: i64 = 1 << 16;
/// Key space of `durable-mixed`: 2^13 live keys. Its store takes a fifth of
/// the updates per second the bare tree does, so on 2^15 live keys one
/// rebuild wave lasted 2 s and a 4 s window read 12 k or 30 k ops/s
/// depending on where it cut the waves (README.md, "Why the live set is
/// 2^15").
pub const DURABLE_KEYSPACE: i64 = 1 << 14;
/// Closed-loop client threads of the in-memory workloads: one per core.
pub const CLIENTS: usize = 2;
/// Client threads of `durable-mixed`. A commit blocks its client on a
/// condition variable while the store's one log thread writes and applies
/// it, so with two clients throughput is how fast a sleeping thread is woken
/// (a median commit of 35 or 65 us, for minutes at a time), which is the
/// host's doing. Eight blocked clients keep the log thread supplied;
/// throughput is then what that thread can commit (README.md, "Clients of
/// durable-mixed").
pub const DURABLE_CLIENTS: usize = 8;

/// Count widths of `tree-mixed`, cycled per thread; the widest is a quarter
/// of the key space.
pub const COUNT_WIDTHS: [i64; 3] = [1 << 4, 1 << 9, 1 << 14];
/// The store workloads' cross-shard count covers a quarter of the keys
/// (`durable-mixed`: of its own key space), a drain or a page an eighth.
pub const QUARTER: i64 = KEYSPACE / 4;
pub const COLLECT_WIDTH: i64 = 2048;
pub const SCAN_WIDTH: i64 = KEYSPACE / 8;
pub const SCAN_CHUNK: usize = 256;
pub const BATCH_OPS: usize = 16;

/// The value a bulk-loaded key starts with.
pub fn initial_value(key: i64) -> i64 {
    -key - 1
}

/// The bulk-loaded entries of a live set of `live` keys: the even keys of
/// `0..2 * live`.
pub fn initial_entries(live: i64) -> impl Iterator<Item = (i64, i64)> {
    (0..live).map(|i| (2 * i, initial_value(2 * i)))
}

/// One client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Contains(i64),
    Get(i64),
    Insert(i64, i64),
    Replace(i64, i64),
    Remove(i64),
    /// `count` over `[lo, hi]`; `class` indexes the width for reporting.
    Count {
        lo: i64,
        hi: i64,
        class: u8,
    },
    Collect {
        lo: i64,
        hi: i64,
    },
    /// A full cursor drain of `[lo, hi]` in `SCAN_CHUNK`-sized chunks.
    Drain {
        lo: i64,
        hi: i64,
    },
    /// One `next_chunk(SCAN_CHUNK)` page of a cursor over `[lo, hi]`.
    Page {
        lo: i64,
        hi: i64,
    },
    /// One `apply_batch` of `InsertOrReplace` ops on distinct keys.
    Batch(Vec<(i64, i64)>),
}

/// Latency classes; also the span names of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Read,
    Insert,
    Replace,
    Remove,
    Batch,
    Count0,
    Count1,
    Count2,
    Collect,
    Drain,
    Page,
}

pub const KINDS: usize = 11;

impl Kind {
    pub const ALL: [Kind; KINDS] = [
        Kind::Read,
        Kind::Insert,
        Kind::Replace,
        Kind::Remove,
        Kind::Batch,
        Kind::Count0,
        Kind::Count1,
        Kind::Count2,
        Kind::Collect,
        Kind::Drain,
        Kind::Page,
    ];

    /// The product function the op calls, for span names.
    pub fn function(self) -> &'static str {
        match self {
            Kind::Read => "get",
            Kind::Insert => "insert",
            Kind::Replace => "replace",
            Kind::Remove => "remove",
            Kind::Batch => "apply_batch",
            Kind::Count0 | Kind::Count1 | Kind::Count2 => "count",
            Kind::Collect => "collect_range",
            Kind::Drain => "scan_drain",
            Kind::Page => "next_chunk",
        }
    }

    /// Point operations on in-memory backends are timed 1-in-8; everything
    /// else is timed every time.
    pub fn is_point(self) -> bool {
        matches!(
            self,
            Kind::Read | Kind::Insert | Kind::Replace | Kind::Remove
        )
    }

    pub fn is_update(self) -> bool {
        matches!(
            self,
            Kind::Insert | Kind::Replace | Kind::Remove | Kind::Batch
        )
    }

    pub fn is_range_read(self) -> bool {
        !self.is_point() && self != Kind::Batch
    }
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Contains(_) | Op::Get(_) => Kind::Read,
            Op::Insert(..) => Kind::Insert,
            Op::Replace(..) => Kind::Replace,
            Op::Remove(_) => Kind::Remove,
            Op::Batch(_) => Kind::Batch,
            Op::Count { class, .. } => [Kind::Count0, Kind::Count1, Kind::Count2][*class as usize],
            Op::Collect { .. } => Kind::Collect,
            Op::Drain { .. } => Kind::Drain,
            Op::Page { .. } => Kind::Page,
        }
    }
}

/// The keys a client may update. Each client of a mixed workload owns the
/// keys whose pair index (`key / 2`) is congruent to its thread index, so
/// every stripe holds loaded (even) and unloaded (odd) keys alike and the
/// owner can predict the outcome of each of its updates exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stripe {
    pub index: u64,
    pub of: u64,
}

impl Stripe {
    pub fn owns(&self, key: i64) -> bool {
        (key as u64 / 2) % self.of == self.index
    }

    fn key(&self, rng: &mut Rng, keyspace: i64) -> i64 {
        let r = rng.next_u64();
        let pairs = keyspace as u64 / 2 / self.of;
        let pair = (r >> 1) % pairs * self.of + self.index;
        (pair * 2 + (r & 1)) as i64
    }
}

/// What one client thread sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 40 % contains, 20 % insert, 20 % remove, 20 % count (widths cycle).
    TreeMixed,
    /// Rotates quarter-space count, 2048-key collect, 8192-key drain.
    StoreRead,
    /// Uniform insert / remove, half each.
    StoreWrite,
    /// 50 % replace, 10 % remove, 5 % 16-op batch, 25 % get, 5 % count,
    /// 5 % one scan page.
    DurableMixed,
    /// Single-op commits only (5 replace : 1 remove); the fixed-length
    /// tail that recovery replays.
    CommitTail,
}

impl Mix {
    /// Keys are drawn from `0..keyspace()`.
    pub fn keyspace(self) -> i64 {
        match self {
            Mix::DurableMixed | Mix::CommitTail => DURABLE_KEYSPACE,
            _ => KEYSPACE,
        }
    }

    /// The keys a client of this mix updates: nothing for a reader, every
    /// key for the lone store writer, its own stripe otherwise.
    fn stripe(self, thread: usize, clients: usize) -> Option<Stripe> {
        match self {
            Mix::StoreRead => None,
            Mix::StoreWrite => Some(Stripe { index: 0, of: 1 }),
            _ => Some(Stripe {
                index: thread as u64,
                of: clients as u64,
            }),
        }
    }
}

/// The seeded operation source of one client thread.
#[derive(Debug, Clone)]
pub struct OpGen {
    mix: Mix,
    thread: u64,
    clients: u64,
    keyspace: i64,
    stripe: Option<Stripe>,
    rng: Rng,
    issued: u64,
    rotation: u64,
}

fn range_of(rng: &mut Rng, keyspace: i64, width: i64) -> (i64, i64) {
    let lo = rng.below((keyspace - width + 1) as u64) as i64;
    (lo, lo + width - 1)
}

impl OpGen {
    /// The stream of client `thread` out of `clients`.
    pub fn new(mix: Mix, seed: u64, thread: usize, clients: usize) -> OpGen {
        OpGen {
            mix,
            thread: thread as u64,
            clients: clients as u64,
            keyspace: mix.keyspace(),
            stripe: mix.stripe(thread, clients),
            rng: Rng::stream(seed, thread as u64),
            issued: 0,
            rotation: 0,
        }
    }

    pub fn stripe(&self) -> Option<Stripe> {
        self.stripe
    }

    pub fn keyspace(&self) -> i64 {
        self.keyspace
    }

    fn any_key(&mut self) -> i64 {
        self.rng.below(self.keyspace as u64) as i64
    }

    fn range(&mut self, width: i64) -> (i64, i64) {
        range_of(&mut self.rng, self.keyspace, width)
    }

    fn own_key(&mut self) -> i64 {
        let stripe = self.stripe.expect("a mix that writes has a stripe");
        stripe.key(&mut self.rng, self.keyspace)
    }

    /// A value no other write of the run carries.
    fn fresh_value(&self) -> i64 {
        (self.issued * self.clients + self.thread) as i64
    }

    fn rotate(&mut self, n: u64) -> u64 {
        let r = self.rotation % n;
        self.rotation += 1;
        r
    }

    pub fn next_op(&mut self) -> Op {
        self.issued += 1;
        let roll = self.rng.below(100);
        match self.mix {
            Mix::TreeMixed => match roll {
                0..=39 => Op::Contains(self.any_key()),
                40..=59 => Op::Insert(self.own_key(), self.fresh_value()),
                60..=79 => Op::Remove(self.own_key()),
                _ => {
                    let class = self.rotate(3) as usize;
                    let (lo, hi) = self.range(COUNT_WIDTHS[class]);
                    Op::Count {
                        lo,
                        hi,
                        class: class as u8,
                    }
                }
            },
            Mix::StoreRead => match self.rotate(3) {
                0 => {
                    let (lo, hi) = self.range(QUARTER);
                    Op::Count { lo, hi, class: 0 }
                }
                1 => {
                    let (lo, hi) = self.range(COLLECT_WIDTH);
                    Op::Collect { lo, hi }
                }
                _ => {
                    let (lo, hi) = self.range(SCAN_WIDTH);
                    Op::Drain { lo, hi }
                }
            },
            Mix::StoreWrite => {
                let key = self.own_key();
                if roll < 50 {
                    Op::Insert(key, self.fresh_value())
                } else {
                    Op::Remove(key)
                }
            }
            Mix::DurableMixed => match roll {
                0..=49 => Op::Replace(self.own_key(), self.fresh_value()),
                50..=59 => Op::Remove(self.own_key()),
                60..=64 => {
                    let mut items: Vec<(i64, i64)> = Vec::with_capacity(BATCH_OPS);
                    while items.len() < BATCH_OPS {
                        let key = self.own_key();
                        if items.iter().all(|(k, _)| *k != key) {
                            items.push((key, self.fresh_value() ^ ((items.len() as i64) << 48)));
                        }
                    }
                    Op::Batch(items)
                }
                65..=89 => Op::Get(self.any_key()),
                90..=94 => {
                    let (lo, hi) = self.range(self.keyspace / 4);
                    Op::Count { lo, hi, class: 0 }
                }
                _ => {
                    let (lo, hi) = self.range(self.keyspace / 8);
                    Op::Page { lo, hi }
                }
            },
            Mix::CommitTail => {
                let key = self.own_key();
                if roll % 6 == 5 {
                    Op::Remove(key)
                } else {
                    Op::Replace(key, self.fresh_value())
                }
            }
        }
    }
}

/// FNV-1a over the debug rendering of the first `ops` operations: the
/// fingerprint the determinism self-test compares.
pub fn stream_hash(gen: &mut OpGen, ops: usize) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for _ in 0..ops {
        for byte in format!("{:?}", gen.next_op()).bytes() {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripes_partition_the_keys_and_generate_only_their_own() {
        let stripes = [Stripe { index: 0, of: 2 }, Stripe { index: 1, of: 2 }];
        for key in 0..64 {
            assert_eq!(stripes.iter().filter(|s| s.owns(key)).count(), 1);
            let of = DURABLE_CLIENTS as u64;
            let owners = (0..of).filter(|&index| Stripe { index, of }.owns(key));
            assert_eq!(owners.count(), 1);
        }
        let mut rng = Rng::stream(3, 0);
        let mut parity = [0u32; 2];
        for _ in 0..4096 {
            let key = stripes[1].key(&mut rng, KEYSPACE);
            assert!((0..KEYSPACE).contains(&key) && stripes[1].owns(key));
            parity[(key & 1) as usize] += 1;
        }
        assert!(
            parity[0] > 1500 && parity[1] > 1500,
            "both loaded and unloaded keys"
        );
    }

    #[test]
    fn mixes_follow_their_shares() {
        let mut gen = OpGen::new(Mix::TreeMixed, 42, 0, CLIENTS);
        let mut counts = [0usize; KINDS];
        for _ in 0..20_000 {
            counts[gen.next_op().kind() as usize] += 1;
        }
        let share = |k: Kind| counts[k as usize] as f64 / 20_000.0;
        assert!((share(Kind::Read) - 0.4).abs() < 0.02);
        assert!((share(Kind::Insert) - 0.2).abs() < 0.02);
        assert!((share(Kind::Remove) - 0.2).abs() < 0.02);
        let count_total = share(Kind::Count0) + share(Kind::Count1) + share(Kind::Count2);
        assert!((count_total - 0.2).abs() < 0.02);
        assert!((share(Kind::Count0) - share(Kind::Count2)).abs() < 0.001);
    }

    #[test]
    fn batches_hold_distinct_own_keys() {
        let mut gen = OpGen::new(Mix::DurableMixed, 9, 1, DURABLE_CLIENTS);
        let stripe = gen.stripe().unwrap();
        let mut seen = 0;
        for _ in 0..2000 {
            if let Op::Batch(items) = gen.next_op() {
                seen += 1;
                assert_eq!(items.len(), BATCH_OPS);
                for (i, (k, _)) in items.iter().enumerate() {
                    assert!(stripe.owns(*k));
                    assert!(items[..i].iter().all(|(other, _)| other != k));
                }
            }
        }
        assert!(seen > 50);
    }
}
