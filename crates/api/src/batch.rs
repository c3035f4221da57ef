//! The batched operation vocabulary, shared by single trees and the store.
//!
//! A [`StoreOp`] is one keyed operation; a batch is a `Vec<StoreOp>`. The
//! vocabulary originated in the sharded store's two-phase `apply_batch`
//! pipeline (phase one **validates** the whole batch without touching any
//! tree, phase two **executes** it), and is promoted here so that *every*
//! [`PointMap`] can accept the same batches: [`BatchApply`] is the common
//! entry point, [`validate_batch`] is the shared phase-one check, and
//! [`apply_batch_point`] is a ready-made serial phase two for single-shard
//! backends. A batch that fails validation is rejected wholesale — by
//! construction nothing has been mutated yet, which is the property
//! GroveDB-style storage stacks rely on to keep multi-key commits
//! all-or-nothing.
//!
//! Beyond the four *physical* ops (`Insert` / `InsertOrReplace` / `Remove`
//! / `RemoveEntry`) the vocabulary is transactional: [`StoreOp::Patch`] is
//! an atomic read-modify-write of the stored value, [`StoreOp::CompareAndSet`]
//! a conditional overwrite, and [`StoreOp::Get`] a batch-internal read whose
//! outcome observes the earlier same-key ops of its batch. The three are
//! *logical* ops — their effect depends on the state they execute against —
//! and [`resolve_op`] is the shared step that pins a logical op to the
//! physical op with the same effect, which is how the durable WAL logs them
//! (physical logging; see `wft-durable`).

use std::collections::HashSet;
use std::fmt;

use wft_seq::{Key, Value};

use crate::point::PointMap;

/// Batch size accepted when no explicit limit is configured.
pub const UNBOUNDED_BATCH_OPS: usize = usize::MAX;

/// A read-modify-write function applied to a key's stored value: receives
/// the current value (`None` when absent) and returns the value to store
/// (`None` removes the key).
///
/// A plain `fn` pointer on purpose: patches ride inside [`StoreOp`] batches
/// that are cloned, compared, and routed across threads, and a capturing
/// closure would drag allocation and unclonable state into the hot batch
/// path. State a patch needs must come from the stored value itself.
pub type PatchFn<V> = fn(Option<V>) -> Option<V>;

/// One keyed operation inside a batch.
#[derive(Debug, Clone)]
pub enum StoreOp<K: Key, V: Value = ()> {
    /// Insert `key → value` if the key is absent; an existing key leaves the
    /// store unmodified (the paper tree's `insert` semantics).
    Insert {
        /// Key to insert.
        key: K,
        /// Value stored when the key is absent.
        value: V,
    },
    /// Insert `key → value`, replacing (and reporting) any existing value.
    /// Executes as the backend's atomic `replace`
    /// ([`PointMap::replace`]) — on the wait-free tree, a single `Replace`
    /// descriptor.
    InsertOrReplace {
        /// Key to insert or overwrite.
        key: K,
        /// The new value.
        value: V,
    },
    /// Remove `key`, reporting only whether it was present.
    Remove {
        /// Key to remove.
        key: K,
    },
    /// Remove `key`, reporting the removed value.
    RemoveEntry {
        /// Key to remove.
        key: K,
    },
    /// Read-modify-write: replace the key's stored value with
    /// `patch(current)` — returning `None` removes the key (or keeps it
    /// absent), `Some(v)` stores `v`. The read and the write are one atomic
    /// step on backends whose batch execution is atomic; see
    /// [`PointMap::patch`] for the point-op flavour.
    Patch {
        /// Key to patch.
        key: K,
        /// The read-modify-write function.
        patch: PatchFn<V>,
    },
    /// Store `value` iff the key's current value equals `expect`
    /// (`None` = "the key is absent"). Reports whether it applied.
    CompareAndSet {
        /// Key to conditionally overwrite.
        key: K,
        /// The witness the current value must equal.
        expect: Option<V>,
        /// The value stored on a match.
        value: V,
    },
    /// Batch-internal read: reports the key's value as of this operation's
    /// position in the batch, observing every earlier same-key op of the
    /// same batch and nothing later.
    ///
    /// This closes the ROADMAP's document-or-change decision on batch
    /// reads: the semantics is **sequential within the batch**, not
    /// read-the-pre-batch-state. A `Get` placed *before* a same-key
    /// mutation reads the pre-batch value; placed *after* it, the `Get`
    /// observes that mutation. All three executors agree —
    /// [`apply_batch_point`] applies serially, the sharded store runs
    /// same-shard groups in batch order (same key ⇒ same shard), and the
    /// durable journal's resolution pass threads each key's post-value
    /// through an overlay.
    ///
    /// ```
    /// use wft_api::{BatchApply, OpOutcome, StoreOp};
    /// use wft_core::WaitFreeTree;
    ///
    /// let tree: WaitFreeTree<i64, i64> = WaitFreeTree::new();
    /// tree.insert(7, 70);
    ///
    /// // One batch: read, overwrite, read again. The first `Get` sees
    /// // the pre-batch value, the second sees the same-batch overwrite.
    /// let outcomes = tree
    ///     .apply_batch(vec![
    ///         StoreOp::Get { key: 7 },
    ///         StoreOp::InsertOrReplace { key: 7, value: 71 },
    ///         StoreOp::Get { key: 7 },
    ///     ])
    ///     .unwrap();
    /// assert_eq!(
    ///     outcomes,
    ///     vec![
    ///         OpOutcome::Got(Some(70)),
    ///         OpOutcome::Replaced(Some(70)),
    ///         OpOutcome::Got(Some(71)),
    ///     ]
    /// );
    /// ```
    Get {
        /// Key to read.
        key: K,
    },
}

impl<K: Key, V: Value> PartialEq for StoreOp<K, V> {
    // Manual: the derived impl would compare `PatchFn` pointers directly
    // and trip `unpredictable_function_pointer_comparisons`; `fn_addr_eq`
    // states the (address-identity) semantics explicitly.
    fn eq(&self, other: &Self) -> bool {
        use StoreOp::*;
        match (self, other) {
            (Insert { key: a, value: x }, Insert { key: b, value: y })
            | (InsertOrReplace { key: a, value: x }, InsertOrReplace { key: b, value: y }) => {
                a == b && x == y
            }
            (Remove { key: a }, Remove { key: b })
            | (RemoveEntry { key: a }, RemoveEntry { key: b })
            | (Get { key: a }, Get { key: b }) => a == b,
            (Patch { key: a, patch: f }, Patch { key: b, patch: g }) => {
                a == b && std::ptr::fn_addr_eq(*f, *g)
            }
            (
                CompareAndSet {
                    key: a,
                    expect: e1,
                    value: x,
                },
                CompareAndSet {
                    key: b,
                    expect: e2,
                    value: y,
                },
            ) => a == b && e1 == e2 && x == y,
            _ => false,
        }
    }
}

impl<K: Key, V: Value + Eq> Eq for StoreOp<K, V> {}

impl<K: Key, V: Value> StoreOp<K, V> {
    /// The key this operation routes by.
    pub fn key(&self) -> &K {
        match self {
            StoreOp::Insert { key, .. }
            | StoreOp::InsertOrReplace { key, .. }
            | StoreOp::Remove { key }
            | StoreOp::RemoveEntry { key }
            | StoreOp::Patch { key, .. }
            | StoreOp::CompareAndSet { key, .. }
            | StoreOp::Get { key } => key,
        }
    }

    /// `true` for the operations that can grow the store.
    pub fn is_insert(&self) -> bool {
        matches!(
            self,
            StoreOp::Insert { .. }
                | StoreOp::InsertOrReplace { .. }
                | StoreOp::Patch { .. }
                | StoreOp::CompareAndSet { .. }
        )
    }

    /// `true` for every operation that can modify the store —
    /// everything except [`StoreOp::Get`].
    pub fn is_mutation(&self) -> bool {
        !matches!(self, StoreOp::Get { .. })
    }

    /// `true` for the four *physical* variants — the state-independent,
    /// per-key-idempotent ops the WAL logs and recovery replays
    /// (`Insert` / `InsertOrReplace` / `Remove` / `RemoveEntry`).
    pub fn is_physical(&self) -> bool {
        !matches!(
            self,
            StoreOp::Patch { .. } | StoreOp::CompareAndSet { .. } | StoreOp::Get { .. }
        )
    }
}

/// The per-operation result of an executed batch, index-aligned with the
/// submitted `Vec<StoreOp>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome<V: Value> {
    /// Result of [`StoreOp::Insert`]: `true` when the key was absent.
    Inserted(bool),
    /// Result of [`StoreOp::InsertOrReplace`]: the value it replaced.
    Replaced(Option<V>),
    /// Result of [`StoreOp::Remove`]: `true` when the key was present.
    Removed(bool),
    /// Result of [`StoreOp::RemoveEntry`]: the removed value.
    RemovedEntry(Option<V>),
    /// Result of [`StoreOp::Patch`]: the value stored *after* the patch
    /// (`None` when the patch removed the key or kept it absent).
    Patched(Option<V>),
    /// Result of [`StoreOp::CompareAndSet`]: `true` when the current value
    /// matched `expect` and the new value was stored.
    CompareSet(bool),
    /// Result of [`StoreOp::Get`]: the value observed at the operation's
    /// position in the batch.
    Got(Option<V>),
}

/// Why phase one rejected a batch. Nothing is mutated when any of these is
/// returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError<K: Key> {
    /// Two *mutations* in the batch address the same key, so the batch's
    /// net effect on that key would be an ambiguous composition and it is
    /// refused. Reads are exempt: any number of [`StoreOp::Get`]s may share
    /// a key with each other and with one mutation — a `Get` observes the
    /// same-key ops that precede it in the batch.
    DuplicateKey {
        /// The key that is mutated more than once.
        key: K,
    },
    /// The batch exceeds the backend's configured maximum.
    TooLarge {
        /// Number of operations submitted.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
}

impl<K: Key> fmt::Display for BatchError<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::DuplicateKey { key } => {
                write!(f, "batch addresses key {key:?} more than once")
            }
            BatchError::TooLarge { len, max } => {
                write!(
                    f,
                    "batch of {len} ops exceeds the configured maximum of {max}"
                )
            }
        }
    }
}

impl<K: Key> std::error::Error for BatchError<K> {}

/// All-or-nothing batched writes over a keyed backend.
///
/// # Example
///
/// ```
/// use wft_api::{BatchApply, BatchError, OpOutcome, StoreOp};
/// use wft_core::WaitFreeTree;
///
/// let tree: WaitFreeTree<i64, i64> = WaitFreeTree::new();
///
/// // A valid batch executes and reports one outcome per op, in order.
/// let outcomes = tree
///     .apply_batch(vec![
///         StoreOp::Insert { key: 1, value: 10 },
///         StoreOp::InsertOrReplace { key: 2, value: 20 },
///         StoreOp::Remove { key: 3 },
///     ])
///     .unwrap();
/// assert_eq!(
///     outcomes,
///     vec![
///         OpOutcome::Inserted(true),
///         OpOutcome::Replaced(None),
///         OpOutcome::Removed(false),
///     ]
/// );
///
/// // Validation failures reject the batch before anything mutates.
/// let err = tree
///     .apply_batch(vec![StoreOp::Remove { key: 1 }, StoreOp::RemoveEntry { key: 1 }])
///     .unwrap_err();
/// assert_eq!(err, BatchError::DuplicateKey { key: 1 });
/// assert_eq!(tree.len(), 2, "failed batch mutated nothing");
/// ```
pub trait BatchApply<K: Key, V: Value> {
    /// Validates and executes `batch`, returning one [`OpOutcome`] per
    /// submitted operation, in submission order. On `Err`, nothing was
    /// mutated.
    fn apply_batch(&self, batch: Vec<StoreOp<K, V>>) -> Result<Vec<OpOutcome<V>>, BatchError<K>>;
}

/// Batches of at most this many ops find duplicate keys by comparing
/// pairs, without allocating; longer ones hash.
const PAIRWISE_DUPLICATE_CHECK_MAX: usize = 32;

/// The shared phase-one check: rejects batches larger than `max_ops` and
/// batches *mutating* any key twice ([`StoreOp::Get`]s are free to repeat
/// keys and to accompany a mutation of the same key). Mutates nothing.
///
/// A duplicate is reported at the first mutation, in batch order, whose
/// key an earlier mutation already used.
pub fn validate_batch<K: Key, V: Value>(
    batch: &[StoreOp<K, V>],
    max_ops: usize,
) -> Result<(), BatchError<K>> {
    if batch.len() > max_ops {
        return Err(BatchError::TooLarge {
            len: batch.len(),
            max: max_ops,
        });
    }
    if batch.len() <= PAIRWISE_DUPLICATE_CHECK_MAX {
        for (i, op) in batch.iter().enumerate() {
            let key = op.key();
            if op.is_mutation()
                && batch[..i]
                    .iter()
                    .any(|earlier| earlier.is_mutation() && earlier.key() == key)
            {
                return Err(BatchError::DuplicateKey { key: *key });
            }
        }
        return Ok(());
    }
    let mut seen = HashSet::with_capacity(batch.len());
    for op in batch {
        if op.is_mutation() && !seen.insert(*op.key()) {
            return Err(BatchError::DuplicateKey { key: *op.key() });
        }
    }
    Ok(())
}

/// One [`StoreOp`] resolved against the value currently stored at its key:
/// the outcome the submitter observes, the *physical* replacement op, and
/// the key's value afterwards. Produced by [`resolve_op`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedOp<K: Key, V: Value> {
    /// The outcome a sequential execution of the op at this state reports.
    pub outcome: OpOutcome<V>,
    /// The state-independent op with the same effect at this state —
    /// always one of the four physical variants ([`StoreOp::is_physical`]);
    /// `None` for pure reads and for mutations that did not apply. This is
    /// what the durable WAL logs in place of `Patch`/`CompareAndSet`
    /// (physical logging), keeping replay-over-image per-key idempotent.
    pub physical: Option<StoreOp<K, V>>,
    /// The key's value after the op.
    pub after: Option<V>,
}

/// Resolves `op` against `current`, the value stored at `op.key()` at the
/// op's position in its batch. The caller guarantees the state cannot
/// change between the read that produced `current` and the application of
/// the returned [`ResolvedOp::physical`] — a commit gate, a single
/// sequencer thread, or plain single-threaded use.
pub fn resolve_op<K: Key, V: Value>(op: &StoreOp<K, V>, current: Option<V>) -> ResolvedOp<K, V> {
    match op {
        // The four physical variants resolve to themselves (even when they
        // do not apply — a failed `Insert` / absent-key `Remove` replays as
        // a no-op), so a classic-op WAL stream is byte-identical whether or
        // not it went through resolution.
        StoreOp::Insert { key, value } => {
            let applied = current.is_none();
            ResolvedOp {
                outcome: OpOutcome::Inserted(applied),
                physical: Some(StoreOp::Insert {
                    key: *key,
                    value: value.clone(),
                }),
                after: if applied {
                    Some(value.clone())
                } else {
                    current
                },
            }
        }
        StoreOp::InsertOrReplace { key, value } => ResolvedOp {
            outcome: OpOutcome::Replaced(current),
            physical: Some(StoreOp::InsertOrReplace {
                key: *key,
                value: value.clone(),
            }),
            after: Some(value.clone()),
        },
        StoreOp::Remove { key } => ResolvedOp {
            outcome: OpOutcome::Removed(current.is_some()),
            physical: Some(StoreOp::Remove { key: *key }),
            after: None,
        },
        StoreOp::RemoveEntry { key } => ResolvedOp {
            outcome: OpOutcome::RemovedEntry(current),
            physical: Some(StoreOp::RemoveEntry { key: *key }),
            after: None,
        },
        StoreOp::Patch { key, patch } => {
            let after = patch(current.clone());
            ResolvedOp {
                outcome: OpOutcome::Patched(after.clone()),
                physical: match &after {
                    Some(v) => Some(StoreOp::InsertOrReplace {
                        key: *key,
                        value: v.clone(),
                    }),
                    None => current.is_some().then_some(StoreOp::Remove { key: *key }),
                },
                after,
            }
        }
        StoreOp::CompareAndSet { key, expect, value } => {
            let applied = current == *expect;
            ResolvedOp {
                outcome: OpOutcome::CompareSet(applied),
                physical: applied.then(|| StoreOp::InsertOrReplace {
                    key: *key,
                    value: value.clone(),
                }),
                after: if applied {
                    Some(value.clone())
                } else {
                    current
                },
            }
        }
        StoreOp::Get { .. } => ResolvedOp {
            outcome: OpOutcome::Got(current.clone()),
            physical: None,
            after: current,
        },
    }
}

/// A ready-made [`BatchApply`] body for single-shard backends: validate,
/// then apply each operation through the [`PointMap`] interface in
/// submission order.
///
/// Serial submission order is the batch's sequential semantics: a
/// [`StoreOp::Get`] (or a `Patch`/`CompareAndSet` read) observes every
/// earlier same-key op of the same batch. Distinct-key mutations are
/// independent, so on a linearizable backend the serial order below is
/// indistinguishable from any other execution order of the same batch —
/// but the per-op applications are *not* one atomic step against
/// concurrent operations; backends with a commit protocol (the sharded
/// store, the durable journal) layer that on top.
pub fn apply_batch_point<K: Key, V: Value, M: PointMap<K, V> + ?Sized>(
    map: &M,
    batch: Vec<StoreOp<K, V>>,
) -> Result<Vec<OpOutcome<V>>, BatchError<K>> {
    validate_batch(&batch, UNBOUNDED_BATCH_OPS)?;
    Ok(batch.into_iter().map(|op| apply_op(map, op)).collect())
}

/// Applies one operation to `map`: a physical op as the point write it is,
/// a transactional one resolved ([`resolve_op`]) against the current value
/// and then written. The read and the write of a transactional op are two
/// steps; a caller that needs them atomic excludes concurrent writers (the
/// sharded store runs them inside a commit window).
pub fn apply_op<K: Key, V: Value, M: PointMap<K, V> + ?Sized>(
    map: &M,
    op: StoreOp<K, V>,
) -> OpOutcome<V> {
    match op {
        StoreOp::Insert { key, value } => OpOutcome::Inserted(map.insert(key, value).is_applied()),
        StoreOp::InsertOrReplace { key, value } => {
            OpOutcome::Replaced(map.replace(key, value).into_prior())
        }
        StoreOp::Remove { key } => OpOutcome::Removed(map.remove(&key).is_applied()),
        StoreOp::RemoveEntry { key } => OpOutcome::RemovedEntry(map.remove(&key).into_prior()),
        op => {
            let resolved = resolve_op(&op, map.get(op.key()));
            match resolved.physical {
                Some(StoreOp::Insert { key, value }) => {
                    map.insert(key, value);
                }
                Some(StoreOp::InsertOrReplace { key, value }) => {
                    map.replace(key, value);
                }
                Some(StoreOp::Remove { key }) | Some(StoreOp::RemoveEntry { key }) => {
                    map.remove(&key);
                }
                Some(_) => unreachable!("resolve_op only emits physical ops"),
                None => {}
            }
            resolved.outcome
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_duplicates_and_oversize() {
        let batch: Vec<StoreOp<i64, ()>> = vec![
            StoreOp::Insert { key: 1, value: () },
            StoreOp::Remove { key: 2 },
            StoreOp::RemoveEntry { key: 1 },
        ];
        assert_eq!(
            validate_batch(&batch, UNBOUNDED_BATCH_OPS),
            Err(BatchError::DuplicateKey { key: 1 })
        );
        assert_eq!(
            validate_batch(&batch, 2),
            Err(BatchError::TooLarge { len: 3, max: 2 })
        );
        let ok: Vec<StoreOp<i64, ()>> = vec![
            StoreOp::Insert { key: 1, value: () },
            StoreOp::Remove { key: 2 },
        ];
        assert_eq!(validate_batch(&ok, 2), Ok(()));
    }

    #[test]
    fn store_op_accessors() {
        let op: StoreOp<i64, i64> = StoreOp::InsertOrReplace { key: 5, value: 50 };
        assert_eq!(op.key(), &5);
        assert!(op.is_insert());
        let op: StoreOp<i64, i64> = StoreOp::RemoveEntry { key: 9 };
        assert_eq!(op.key(), &9);
        assert!(!op.is_insert());
    }

    fn bump(current: Option<i64>) -> Option<i64> {
        Some(current.unwrap_or(0) + 1)
    }

    fn clear(_: Option<i64>) -> Option<i64> {
        None
    }

    #[test]
    fn validation_exempts_gets_from_duplicate_tracking() {
        let batch: Vec<StoreOp<i64, ()>> = vec![
            StoreOp::Get { key: 1 },
            StoreOp::Insert { key: 1, value: () },
            StoreOp::Get { key: 1 },
            StoreOp::Get { key: 2 },
        ];
        assert_eq!(validate_batch(&batch, UNBOUNDED_BATCH_OPS), Ok(()));
        let two_mutations: Vec<StoreOp<i64, ()>> = vec![
            StoreOp::Get { key: 1 },
            StoreOp::Insert { key: 1, value: () },
            StoreOp::Remove { key: 1 },
        ];
        assert_eq!(
            validate_batch(&two_mutations, UNBOUNDED_BATCH_OPS),
            Err(BatchError::DuplicateKey { key: 1 })
        );
    }

    /// The duplicate check as a hash set states it: the first mutation
    /// whose key an earlier mutation used.
    fn first_duplicate_by_hashing(batch: &[StoreOp<i64, i64>]) -> Result<(), BatchError<i64>> {
        let mut seen = HashSet::new();
        match batch
            .iter()
            .find(|op| op.is_mutation() && !seen.insert(*op.key()))
        {
            Some(op) => Err(BatchError::DuplicateKey { key: *op.key() }),
            None => Ok(()),
        }
    }

    #[test]
    fn pairwise_and_hashed_duplicate_checks_agree() {
        // splitmix64: a fixed stream, so a failure names its round.
        let mut state = 0x5eed_u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        let (mut rejected, mut across_cutoff) = (0, [false; 2]);
        for round in 0..4000 {
            let len = next(65) as usize;
            // Half the batches draw from a key space smaller than the
            // batch (duplicates certain), half from one far larger (rare).
            let keys = if next(2) == 0 {
                1 + len / 2
            } else {
                1 + 4 * len * len
            };
            let batch: Vec<StoreOp<i64, i64>> = (0..len)
                .map(|_| {
                    let key = next(keys as u64) as i64;
                    match next(6) {
                        0 => StoreOp::Get { key },
                        1 => StoreOp::Insert { key, value: 0 },
                        2 => StoreOp::InsertOrReplace { key, value: 1 },
                        3 => StoreOp::Remove { key },
                        4 => StoreOp::RemoveEntry { key },
                        _ => StoreOp::Patch { key, patch: bump },
                    }
                })
                .collect();
            let expected = first_duplicate_by_hashing(&batch);
            assert_eq!(
                validate_batch(&batch, UNBOUNDED_BATCH_OPS),
                expected,
                "round {round}: {batch:?}"
            );
            rejected += usize::from(expected.is_err());
            across_cutoff[usize::from(len > PAIRWISE_DUPLICATE_CHECK_MAX)] = true;
        }
        assert!(
            across_cutoff == [true, true],
            "lengths on both sides of the cutoff"
        );
        assert!(
            (400..3600).contains(&rejected),
            "{rejected} of 4000 batches rejected: the generator should make both outcomes common"
        );
    }

    #[test]
    fn transactional_ops_compare_by_shape_and_patch_address() {
        let a: StoreOp<i64, i64> = StoreOp::Patch {
            key: 1,
            patch: bump,
        };
        let b: StoreOp<i64, i64> = StoreOp::Patch {
            key: 1,
            patch: bump,
        };
        let c: StoreOp<i64, i64> = StoreOp::Patch {
            key: 1,
            patch: clear,
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.key(), &1);
        assert!(a.is_mutation() && !a.is_physical());
        let get: StoreOp<i64, i64> = StoreOp::Get { key: 7 };
        assert!(!get.is_mutation() && !get.is_insert());
        let cas: StoreOp<i64, i64> = StoreOp::CompareAndSet {
            key: 2,
            expect: None,
            value: 20,
        };
        assert!(cas.is_mutation() && cas.is_insert() && !cas.is_physical());
    }

    #[test]
    fn resolve_op_pins_logical_ops_to_physical_effects() {
        // Patch over a present value → InsertOrReplace of the post-value.
        let r = resolve_op(
            &StoreOp::Patch {
                key: 1,
                patch: bump,
            },
            Some(4),
        );
        assert_eq!(r.outcome, OpOutcome::Patched(Some(5)));
        assert_eq!(
            r.physical,
            Some(StoreOp::InsertOrReplace { key: 1, value: 5 })
        );
        assert_eq!(r.after, Some(5));

        // Patch that clears a present key → Remove; over an absent key → no-op.
        let r = resolve_op(
            &StoreOp::Patch {
                key: 1,
                patch: clear,
            },
            Some(4),
        );
        assert_eq!(r.physical, Some(StoreOp::Remove { key: 1 }));
        let r = resolve_op(
            &StoreOp::Patch {
                key: 1,
                patch: clear,
            },
            None,
        );
        assert_eq!(r.physical, None);
        assert_eq!(r.outcome, OpOutcome::Patched(None));

        // CAS: only a matching witness produces a physical write.
        let cas = StoreOp::CompareAndSet {
            key: 2,
            expect: Some(7),
            value: 8,
        };
        let hit = resolve_op(&cas, Some(7));
        assert_eq!(hit.outcome, OpOutcome::CompareSet(true));
        assert_eq!(
            hit.physical,
            Some(StoreOp::InsertOrReplace { key: 2, value: 8 })
        );
        let miss = resolve_op(&cas, Some(9));
        assert_eq!(miss.outcome, OpOutcome::CompareSet(false));
        assert_eq!(miss.physical, None);
        assert_eq!(miss.after, Some(9));

        // Gets never produce a physical op.
        let r = resolve_op(&StoreOp::Get { key: 3 }, Some(1));
        assert_eq!(r.outcome, OpOutcome::Got(Some(1)));
        assert_eq!(r.physical, None);

        // Physical ops resolve to themselves even when they do not apply.
        let r = resolve_op(&StoreOp::Insert { key: 4, value: 40 }, Some(1));
        assert_eq!(r.outcome, OpOutcome::Inserted(false));
        assert_eq!(r.physical, Some(StoreOp::Insert { key: 4, value: 40 }));
        assert_eq!(r.after, Some(1));
    }

    #[test]
    fn errors_render_usefully() {
        let dup: BatchError<i64> = BatchError::DuplicateKey { key: 3 };
        assert!(dup.to_string().contains("more than once"));
        let big: BatchError<i64> = BatchError::TooLarge { len: 10, max: 4 };
        assert!(big.to_string().contains("exceeds"));
    }
}
