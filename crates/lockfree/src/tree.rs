//! The lock-free external BST algorithm (Ellen–Fatourou–Ruppert–van Breugel).
//!
//! Updates synchronise through the `update` word of internal nodes: before an
//! insertion changes a child pointer of `p` it *IFLAG*s `p`, and before a
//! deletion unlinks `p` from `gp` it *DFLAG*s `gp` and *MARK*s `p`. The flag
//! stores a pointer to an operation record with everything a helper needs to
//! finish the update, so any thread that runs into a flagged node completes
//! the pending operation before retrying its own — updates are lock-free,
//! searches are wait-free.
//!
//! ## Memory reclamation
//!
//! * Nodes unlinked by a completed deletion (`p` and the removed leaf) are
//!   retired through `crossbeam-epoch` by the thread whose child-CAS unlinked
//!   them.
//! * Operation records are retired when a later successful flag CAS replaces
//!   them in the `update` word of their *primary* node (the parent for
//!   insertions, the grandparent for deletions). A record with the `CLEAN`
//!   tag only ever remains referenced from that primary node, so the retire
//!   happens at most once; records still referenced at drop time are freed by
//!   the tree's `Drop`.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_epoch::{pin, Atomic, Guard, Owned, Shared};
use wft_seq::{Key, Value};

use crate::node::{free_subtree_now, state, Info, Node, RoutingKey};

/// A lock-free external binary search tree with linear-time range queries.
///
/// See the [crate-level documentation](crate) for the role this structure
/// plays in the evaluation; the public interface mirrors the other trees in
/// the workspace so the benchmark harness can swap it in.
pub struct LockFreeBst<K: Key, V: Value = ()> {
    /// The root internal node (routing key `Inf2`); never replaced.
    root: Atomic<Node<K, V>>,
    /// Number of finite keys, maintained by initiating threads on success.
    len: AtomicU64,
}

// SAFETY: the tree owns its nodes and all shared mutation goes through
// atomics; `Key`/`Value` already require `Send + Sync + 'static`, so moving
// the structure across threads cannot smuggle non-thread-safe data.
unsafe impl<K: Key, V: Value> Send for LockFreeBst<K, V> {}
// SAFETY: same argument as `Send` above — shared access only ever reads
// through epoch-protected atomics; `Key: Sync` and `Value: Sync` hold by bound.
unsafe impl<K: Key, V: Value> Sync for LockFreeBst<K, V> {}

/// Result of the internal `search` routine: the last two internal nodes on
/// the search path, the leaf it ended at, and the `update` words observed on
/// the way down (pointer + state tag), exactly as the EFRB pseudocode needs
/// them.
struct SearchResult<'g, K: Key, V: Value> {
    grandparent: Shared<'g, Node<K, V>>,
    grandparent_update: Shared<'g, Info<K, V>>,
    parent: Shared<'g, Node<K, V>>,
    parent_update: Shared<'g, Info<K, V>>,
    leaf: Shared<'g, Node<K, V>>,
}

impl<K: Key, V: Value> Default for LockFreeBst<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, V: Value> LockFreeBst<K, V> {
    /// Creates an empty tree (one sentinel internal node, two sentinel
    /// leaves).
    pub fn new() -> Self {
        let root = Node::internal(
            RoutingKey::Inf2,
            Owned::new(Node::sentinel_leaf(RoutingKey::Inf1)),
            Owned::new(Node::sentinel_leaf(RoutingKey::Inf2)),
        );
        LockFreeBst {
            root: Atomic::new(root),
            len: AtomicU64::new(0),
        }
    }

    /// Builds a tree containing `entries` (duplicates keep the first value).
    ///
    /// The tree has no rebalancing, so entries are inserted in median-first
    /// order: the resulting tree is perfectly balanced regardless of the
    /// order of `entries` (the benchmark harness pre-fills with sorted key
    /// ranges, which would otherwise degenerate this baseline into a list).
    pub fn from_entries<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        let mut sorted: Vec<(K, V)> = entries.into_iter().collect();
        sorted.sort_by_key(|a| a.0);
        sorted.dedup_by(|a, b| a.0 == b.0);
        let tree = Self::new();
        // Iterative median-first traversal of the sorted slice.
        let mut stack = vec![(0usize, sorted.len())];
        while let Some((lo, hi)) = stack.pop() {
            if lo >= hi {
                continue;
            }
            let mid = lo + (hi - lo) / 2;
            let (key, value) = sorted[mid].clone();
            tree.insert(key, value);
            stack.push((lo, mid));
            stack.push((mid + 1, hi));
        }
        tree
    }

    /// Number of keys stored (exact when quiescent).
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// `true` when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Root-to-leaf search for `key`; wait-free.
    fn search<'g>(&self, key: &RoutingKey<K>, guard: &'g Guard) -> SearchResult<'g, K, V> {
        let mut grandparent = Shared::null();
        let mut grandparent_update = Shared::null();
        // ORDERING: Acquire pairs with the Release half of the AcqRel child CASes
        // (help_insert/help_marked) that publish initialised nodes; the root node
        // itself is never replaced after construction.
        let mut parent = self.root.load(Ordering::Acquire, guard);
        // SAFETY: `parent` was loaded from the root slot under `guard`; nodes are
        // reclaimed only via `defer_destroy`, so the deref is valid while `guard` lives.
        let mut parent_update = unsafe { parent.deref() }
            .update()
            // ORDERING: Acquire pairs with the Release half of the AcqRel flag CASes on
            // this `update` word, so an observed record's fields are fully visible.
            .load(Ordering::Acquire, guard);
        // SAFETY: as above — `parent` stays epoch-protected for the guard's lifetime.
        let mut leaf = unsafe { parent.deref() }
            .child_for(key)
            // ORDERING: Acquire pairs with the AcqRel child CASes publishing this child.
            .load(Ordering::Acquire, guard);
        // SAFETY: `leaf` was loaded from an epoch-protected child slot under `guard`.
        while !unsafe { leaf.deref() }.is_leaf() {
            grandparent = parent;
            grandparent_update = parent_update;
            parent = leaf;
            // SAFETY: `parent` (the previous `leaf`) is epoch-protected under `guard`.
            parent_update = unsafe { parent.deref() }
                .update()
                // ORDERING: pairs with the Release half of the flag CASes; see above.
                .load(Ordering::Acquire, guard);
            // SAFETY: `parent` is epoch-protected under `guard`; see above.
            leaf = unsafe { parent.deref() }
                .child_for(key)
                // ORDERING: pairs with the AcqRel child CASes publishing this child.
                .load(Ordering::Acquire, guard);
        }
        SearchResult {
            grandparent,
            grandparent_update,
            parent,
            parent_update,
            leaf,
        }
    }

    /// Returns `true` if `key` is stored in the tree. Wait-free.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Returns the value stored under `key`, if any. Wait-free.
    pub fn get(&self, key: &K) -> Option<V> {
        let guard = pin();
        let target = RoutingKey::Finite(*key);
        let res = self.search(&target, &guard);
        // SAFETY: `res.leaf` came from the search under the same `guard`; unlinked
        // leaves are retired via `defer_destroy`, never freed in place.
        match unsafe { res.leaf.deref() } {
            Node::Leaf {
                key: RoutingKey::Finite(found),
                value,
            } if found == key => value.clone(),
            _ => None,
        }
    }

    /// Inserts `key → value`; returns `true` if the key was absent.
    /// Lock-free.
    pub fn insert(&self, key: K, value: V) -> bool {
        self.insert_entry(key, value).is_none()
    }

    /// Inserts `key → value` if the key is absent; on failure returns the
    /// value already stored under the key, read from the very leaf that
    /// blocked the insertion (the failed operation's linearization point —
    /// a separate `get` afterwards could observe a later state). Lock-free.
    pub fn insert_entry(&self, key: K, value: V) -> Option<V> {
        let guard = pin();
        let target = RoutingKey::Finite(key);
        loop {
            let res = self.search(&target, &guard);
            // SAFETY: `res.leaf` is epoch-protected by the `guard` used for the search.
            let leaf_node = unsafe { res.leaf.deref() };
            if leaf_node.routing_key() == &target {
                if let Node::Leaf { value: current, .. } = leaf_node {
                    return Some(current.clone().expect("finite leaves always carry a value"));
                }
                unreachable!("search always bottoms out at a leaf");
            }
            if res.parent_update.tag() != state::CLEAN {
                self.help(res.parent_update, &guard);
                continue;
            }
            // Build the replacement subtree: an internal node whose routing
            // key is the larger of the two leaf keys, with the existing leaf
            // and the new leaf as children in key order.
            let existing_key = *leaf_node.routing_key();
            let new_leaf = Owned::new(Node::leaf(key, value.clone()));
            let existing_leaf_atomic: Atomic<Node<K, V>> = Atomic::null();
            existing_leaf_atomic.store(res.leaf, Ordering::Relaxed);
            let (routing, left, right) = if target.lt(&existing_key) {
                (existing_key, Atomic::from(new_leaf), existing_leaf_atomic)
            } else {
                (target, existing_leaf_atomic, Atomic::from(new_leaf))
            };
            let subtree = Owned::new(Node::Internal {
                key: routing,
                update: Atomic::null(),
                left,
                right,
            });
            let subtree_atomic: Atomic<Node<K, V>> = Atomic::from(subtree);
            let parent_atomic: Atomic<Node<K, V>> = Atomic::null();
            parent_atomic.store(res.parent, Ordering::Relaxed);
            let leaf_atomic: Atomic<Node<K, V>> = Atomic::null();
            leaf_atomic.store(res.leaf, Ordering::Relaxed);
            let info = Owned::new(Info::Insert {
                parent: parent_atomic,
                leaf: leaf_atomic,
                subtree: subtree_atomic,
            });
            // SAFETY: `res.parent` is epoch-protected by `guard`. It may have been
            // unlinked since the search — then it is still safe to read (retired, not
            // freed) and the flag CAS below fails because its `update` word changed.
            let parent_node = unsafe { res.parent.deref() };
            // ORDERING: success is AcqRel — Release publishes the record's fields (read
            // by every helper through `help_insert`), Acquire orders the flag after the
            // observed CLEAN state; failure Acquire lets us help the record we ran into.
            match parent_node.update().compare_exchange(
                res.parent_update,
                info.with_tag(state::IFLAG),
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            ) {
                Ok(new_info) => {
                    // The previous (completed) record is no longer reachable
                    // from its primary node: retire it.
                    self.retire_info(res.parent_update, &guard);
                    self.help_insert(new_info.with_tag(state::CLEAN), &guard);
                    self.len.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                Err(err) => {
                    // Our record was never published: free it and the
                    // speculative subtree (but not the existing leaf it
                    // points to).
                    let owned_info = err.new;
                    // SAFETY: the flag CAS failed, so `err.new` gives us back exclusive ownership
                    // of the never-published record and its speculative subtree; we free both but
                    // keep the pre-existing leaf, which remains reachable from the tree.
                    unsafe {
                        if let Info::Insert { subtree, .. } = &*owned_info {
                            let sub = subtree.load(Ordering::Relaxed, &guard);
                            let sub_owned = sub.into_owned();
                            if let Node::Internal { left, right, .. } = &*sub_owned {
                                // Exactly one of the children is the new
                                // leaf we allocated; the other is the
                                // pre-existing leaf which must stay alive.
                                for child in [left, right] {
                                    let c = child.load(Ordering::Relaxed, &guard);
                                    if c != res.leaf {
                                        drop(c.into_owned());
                                    }
                                }
                            }
                            drop(sub_owned);
                        }
                        drop(owned_info);
                    }
                    self.help(err.current, &guard);
                }
            }
        }
    }

    /// Inserts `key → value`, overwriting any existing value; returns the
    /// value it replaced, if any.
    ///
    /// **Composed, not atomic**: the Ellen et al. scheme has no native
    /// upsert, so this is `remove_entry` + `insert`, and a concurrent reader
    /// may observe the key briefly absent between the two steps. That is the
    /// documented weakness of the linear-time baseline class — the paper's
    /// descriptor-based trees execute `replace` as a single linearizable
    /// operation (see `WaitFreeTree::insert_or_replace`).
    pub fn insert_or_replace(&self, key: K, value: V) -> Option<V> {
        let prior = self.remove_entry(&key);
        self.insert(key, value);
        prior
    }

    /// Removes `key`; returns `true` if it was present. Lock-free.
    pub fn remove(&self, key: &K) -> bool {
        self.remove_entry(key).is_some()
    }

    /// Removes `key` and returns the value it mapped to, if any. Lock-free.
    pub fn remove_entry(&self, key: &K) -> Option<V> {
        let guard = pin();
        let target = RoutingKey::Finite(*key);
        loop {
            let res = self.search(&target, &guard);
            // SAFETY: `res.leaf` is epoch-protected by the `guard` used for the search.
            let leaf_node = unsafe { res.leaf.deref() };
            let prior = match leaf_node {
                Node::Leaf {
                    key: RoutingKey::Finite(found),
                    value,
                } if found == key => value.clone().expect("finite leaves always carry a value"),
                _ => return None,
            };
            if res.grandparent_update.tag() != state::CLEAN {
                self.help(res.grandparent_update, &guard);
                continue;
            }
            if res.parent_update.tag() != state::CLEAN {
                self.help(res.parent_update, &guard);
                continue;
            }
            let grandparent_atomic: Atomic<Node<K, V>> = Atomic::null();
            grandparent_atomic.store(res.grandparent, Ordering::Relaxed);
            let parent_atomic: Atomic<Node<K, V>> = Atomic::null();
            parent_atomic.store(res.parent, Ordering::Relaxed);
            let leaf_atomic: Atomic<Node<K, V>> = Atomic::null();
            leaf_atomic.store(res.leaf, Ordering::Relaxed);
            let expected_parent_update: Atomic<Info<K, V>> = Atomic::null();
            expected_parent_update.store(res.parent_update, Ordering::Relaxed);
            let info = Owned::new(Info::Delete {
                grandparent: grandparent_atomic,
                parent: parent_atomic,
                leaf: leaf_atomic,
                expected_parent_update,
            });
            // SAFETY: `res.grandparent` is non-null — a finite leaf always sits at depth
            // >= 2 (the root's children are sentinels or internal nodes), and we only get
            // here after matching a finite leaf — and is epoch-protected by `guard`.
            let grandparent_node = unsafe { res.grandparent.deref() };
            // ORDERING: success is AcqRel — Release publishes the Delete record to
            // helpers, Acquire orders the DFLAG after the observed CLEAN grandparent
            // state; failure Acquire reads the conflicting record so we can help it.
            match grandparent_node.update().compare_exchange(
                res.grandparent_update,
                info.with_tag(state::DFLAG),
                Ordering::AcqRel,
                Ordering::Acquire,
                &guard,
            ) {
                Ok(new_info) => {
                    self.retire_info(res.grandparent_update, &guard);
                    if self.help_delete(new_info.with_tag(state::CLEAN), &guard) {
                        self.len.fetch_sub(1, Ordering::Relaxed);
                        return Some(prior);
                    }
                    // The mark failed (someone changed the parent first):
                    // retry from scratch. The record stays installed in the
                    // grandparent with the CLEAN tag and is reclaimed by a
                    // later flag CAS or by `Drop`.
                }
                Err(err) => {
                    drop(err.new);
                    self.help(err.current, &guard);
                }
            }
        }
    }

    /// Helps whatever operation the tagged `update` word points to.
    fn help(&self, update: Shared<'_, Info<K, V>>, guard: &Guard) {
        match update.tag() {
            state::IFLAG => self.help_insert(update.with_tag(state::CLEAN), guard),
            state::DFLAG => {
                self.help_delete(update.with_tag(state::CLEAN), guard);
            }
            state::MARK => self.help_marked(update.with_tag(state::CLEAN), guard),
            _ => {}
        }
    }

    /// Finishes a pending insertion: splices the new subtree in place of the
    /// old leaf and unflags the parent.
    fn help_insert(&self, info: Shared<'_, Info<K, V>>, guard: &Guard) {
        let Info::Insert {
            parent,
            leaf,
            subtree,
            // SAFETY: `info` was read from a flagged `update` word under `guard`; records
            // are retired via `defer_destroy` only after being replaced in their primary
            // node, so the deref is valid for the guard's lifetime.
        } = (unsafe { info.deref() })
        else {
            return;
        };
        // ORDERING: the record's fields were written before the Release flag CAS
        // published `info`; these Acquire loads are conservative pairing with it.
        let parent_ptr = parent.load(Ordering::Acquire, guard);
        let leaf_ptr = leaf.load(Ordering::Acquire, guard); // ORDERING: as above.
        let subtree_ptr = subtree.load(Ordering::Acquire, guard); // ORDERING: as above.
                                                                  // SAFETY: `parent_ptr` was stored in the record before publication and is
                                                                  // epoch-protected; a parent is never retired while its insert record is live.
        let parent_node = unsafe { parent_ptr.deref() };
        // Replace the leaf with the new subtree (only one helper succeeds);
        // the slot is the one the leaf currently occupies.
        // SAFETY: `leaf_ptr` is epoch-protected; even if another helper already
        // swung the child pointer, the leaf is retired via `defer_destroy`, not freed.
        let slot = parent_node.child_for(unsafe { leaf_ptr.deref() }.routing_key());
        // ORDERING: AcqRel — Release publishes the initialised subtree to Acquire
        // traversals (search/collect), Acquire orders the splice after the record
        // reads; failure means another helper already did it, which is fine.
        let _ = slot.compare_exchange(
            leaf_ptr,
            subtree_ptr,
            Ordering::AcqRel,
            Ordering::Acquire,
            guard,
        );
        // Unflag: IFLAG(info) -> CLEAN(info).
        // ORDERING: AcqRel orders the unflag after the child splice above, so a
        // helper that Acquire-loads the CLEAN tag also sees the completed splice.
        let _ = parent_node.update().compare_exchange(
            info.with_tag(state::IFLAG),
            info.with_tag(state::CLEAN),
            Ordering::AcqRel,
            Ordering::Acquire,
            guard,
        );
    }

    /// Tries to finish a pending deletion: marks the parent, then unlinks it.
    /// Returns `false` if the mark could not be applied (the deletion must be
    /// retried by its initiator).
    fn help_delete(&self, info: Shared<'_, Info<K, V>>, guard: &Guard) -> bool {
        let Info::Delete {
            grandparent,
            parent,
            expected_parent_update,
            ..
        // SAFETY: `info` came from a flagged `update` word under `guard`; see
        // `help_insert` — records are only retired after being unlinked.
        } = (unsafe { info.deref() })
        else {
            return false;
        };
        // ORDERING: record fields were Release-published by the DFLAG CAS; Acquire
        // pairs with it.
        let parent_ptr = parent.load(Ordering::Acquire, guard);
        // SAFETY: `parent_ptr` was captured in the record before publication and is
        // epoch-protected for the guard's lifetime.
        let parent_node = unsafe { parent_ptr.deref() };
        // ORDERING: pairs with the Release publication of the record; see above.
        let expected = expected_parent_update.load(Ordering::Acquire, guard);
        // ORDERING: AcqRel — Release publishes the MARK (freezing the parent's
        // children for help_marked), Acquire orders it after the expected CLEAN
        // state; failure Acquire reads whichever record beat us to the parent.
        let result = parent_node.update().compare_exchange(
            expected,
            info.with_tag(state::MARK),
            Ordering::AcqRel,
            Ordering::Acquire,
            guard,
        );
        let marked = match result {
            Ok(_) => true,
            // Someone (possibly ourselves on a previous attempt) already
            // installed this very mark: proceed as if we had.
            Err(err) => err.current == info.with_tag(state::MARK),
        };
        if marked {
            self.help_marked(info, guard);
            true
        } else {
            // Help whoever beat us to the parent, then roll the DFLAG back so
            // the grandparent becomes available again.
            // ORDERING: Acquire pairs with the flag CASes so the conflicting record's
            // fields are visible before we help it.
            let current = parent_node.update().load(Ordering::Acquire, guard);
            self.help(current, guard);
            // ORDERING: pairs with the Release publication of the Delete record.
            let grandparent_ptr = grandparent.load(Ordering::Acquire, guard);
            // SAFETY: the Delete record always carries a non-null grandparent (checked
            // at construction in remove_entry_inner) and it is epoch-protected.
            let grandparent_node = unsafe { grandparent_ptr.deref() };
            // ORDERING: AcqRel rolls DFLAG back to CLEAN — Release so threads that
            // acquire the grandparent afterwards see a consistent record, Acquire to
            // order the rollback after the failed mark.
            let _ = grandparent_node.update().compare_exchange(
                info.with_tag(state::DFLAG),
                info.with_tag(state::CLEAN),
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            );
            false
        }
    }

    /// Finishes a marked deletion: swings the grandparent's child pointer to
    /// the sibling of the deleted leaf, retires the unlinked nodes and
    /// unflags the grandparent.
    fn help_marked(&self, info: Shared<'_, Info<K, V>>, guard: &Guard) {
        let Info::Delete {
            grandparent,
            parent,
            leaf,
            ..
        // SAFETY: `info` came from a flagged `update` word under `guard`; records
        // are only retired after being unlinked from their primary node.
        } = (unsafe { info.deref() })
        else {
            return;
        };
        // ORDERING: record fields were Release-published by the DFLAG CAS; these
        // Acquire loads conservatively pair with it.
        let grandparent_ptr = grandparent.load(Ordering::Acquire, guard);
        let parent_ptr = parent.load(Ordering::Acquire, guard); // ORDERING: as above.
        let leaf_ptr = leaf.load(Ordering::Acquire, guard); // ORDERING: as above.
                                                            // SAFETY: `parent_ptr` was captured in the record and is epoch-protected;
                                                            // the parent is MARKed, so it cannot be concurrently retired before the
                                                            // unlink CAS below decides a single winner.
        let parent_node = unsafe { parent_ptr.deref() };
        // The sibling of the deleted leaf: the parent is marked, so its
        // children can no longer change and this read is stable.
        let (left, right) = parent_node.children();
        // ORDERING: the parent is MARKed, so its child slots are frozen; Acquire
        // pairs with the child CASes that originally published these nodes.
        let left_ptr = left.load(Ordering::Acquire, guard);
        let right_ptr = right.load(Ordering::Acquire, guard); // ORDERING: as above.
        let sibling = if left_ptr == leaf_ptr {
            right_ptr
        } else {
            left_ptr
        };
        // SAFETY: `grandparent_ptr` is non-null (invariant of the Delete record)
        // and epoch-protected under `guard`.
        let grandparent_node = unsafe { grandparent_ptr.deref() };
        // SAFETY: both pointers are epoch-protected; `parent_ptr` is the MARKed
        // node whose routing key picks the child slot to swing.
        let slot = grandparent_node.child_for(unsafe { parent_ptr.deref() }.routing_key());
        // ORDERING: AcqRel — Release keeps the (already published) sibling's
        // initialisation visible through the new edge, Acquire orders the unlink
        // after the frozen-children reads above; only one helper's CAS succeeds.
        if slot
            .compare_exchange(
                parent_ptr,
                sibling,
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            )
            .is_ok()
        {
            // We unlinked the parent and the deleted leaf: retire both. The
            // node destructor does not touch children, so the surviving
            // sibling is unaffected.
            // SAFETY: our CAS just unlinked `parent_ptr` (MARKed, children frozen) and
            // `leaf_ptr` from the only path that reached them; exactly one helper wins
            // the CAS, so each node is retired once, and `defer_destroy` waits out every
            // current guard before freeing.
            unsafe {
                guard.defer_destroy(parent_ptr);
                guard.defer_destroy(leaf_ptr);
            }
        }
        // Unflag: DFLAG(info) -> CLEAN(info).
        // ORDERING: AcqRel orders the unflag after the unlink, so an Acquire load
        // of the CLEAN tag implies the physical deletion is complete.
        let _ = grandparent_node.update().compare_exchange(
            info.with_tag(state::DFLAG),
            info.with_tag(state::CLEAN),
            Ordering::AcqRel,
            Ordering::Acquire,
            guard,
        );
    }

    /// Retires a completed operation record that has just been replaced in
    /// the `update` word of its primary node.
    fn retire_info(&self, info: Shared<'_, Info<K, V>>, guard: &Guard) {
        if !info.is_null() {
            // SAFETY: `info` was just replaced in the `update` word of its primary node —
            // the only place a completed record stays reachable — and the replacing CAS
            // has a single winner, so the record is retired exactly once; readers that
            // still hold it are protected by their guards until the epoch advances.
            unsafe {
                guard.defer_destroy(info);
            }
        }
    }

    /// Every `(key, value)` with key in `[min, max]`, in key order — the
    /// `collect` range query of the linear-time baseline class.
    ///
    /// The traversal is epoch-protected and prunes subtrees by routing key;
    /// concurrent updates may or may not be observed (see the crate
    /// documentation for the exact guarantee).
    pub fn collect_range(&self, min: K, max: K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        if min > max {
            return out;
        }
        let guard = pin();
        // ORDERING: Acquire pairs with the AcqRel child CASes, so every node the
        // traversal reaches is fully initialised.
        let root = self.root.load(Ordering::Acquire, &guard);
        collect_in_range(root, &min, &max, &mut out, &guard);
        out.sort_by_key(|a| a.0);
        out
    }

    /// Number of keys in `[min, max]`, computed the way the linear-time
    /// baseline class computes it: `collect_range(min, max).len()`.
    ///
    /// This is **intentionally linear** in the width of the range — it is the
    /// behaviour the paper's aggregate range queries improve upon.
    pub fn count(&self, min: K, max: K) -> u64 {
        self.collect_range(min, max).len() as u64
    }

    /// All finite entries in key order (quiescent use only).
    pub fn entries_quiescent(&self) -> Vec<(K, V)> {
        let guard = pin();
        let mut out = Vec::new();
        // ORDERING: Acquire pairs with the AcqRel child CASes; quiescent use only.
        let root = self.root.load(Ordering::Acquire, &guard);
        collect_all(root, &mut out, &guard);
        out.sort_by_key(|a| a.0);
        out
    }

    /// Validates the external-BST routing invariant and the absence of
    /// pending flags. **Quiescent only**; panics on violation.
    pub fn check_invariants(&self) {
        let guard = pin();
        // ORDERING: Acquire pairs with the AcqRel child CASes; quiescent use only.
        let root = self.root.load(Ordering::Acquire, &guard);
        let keys = check_node(root, None, None, &guard);
        assert_eq!(
            keys,
            self.len(),
            "cached length diverged from the number of finite leaves"
        );
    }
}

impl<K: Key, V: Value> Drop for LockFreeBst<K, V> {
    fn drop(&mut self) {
        // SAFETY: `drop` takes `&mut self`, so no other thread can hold a reference
        // into the tree; skipping epoch protection and freeing the whole subtree
        // immediately is therefore sound (records are freed by the node destructor).
        let root = self
            .root
            .load(Ordering::Relaxed, unsafe { crossbeam_epoch::unprotected() });
        free_subtree_now(root);
    }
}

/// Collects all finite leaves with keys in `[min, max]`, pruning by routing
/// keys.
fn collect_in_range<K: Key, V: Value>(
    node: Shared<'_, Node<K, V>>,
    min: &K,
    max: &K,
    out: &mut Vec<(K, V)>,
    guard: &Guard,
) {
    if node.is_null() {
        return;
    }
    // SAFETY: `node` was reached from the epoch-protected root under `guard`.
    match unsafe { node.deref() } {
        Node::Leaf {
            key: RoutingKey::Finite(k),
            value,
        } => {
            if min <= k && k <= max {
                out.push((
                    *k,
                    value.clone().expect("finite leaves always carry a value"),
                ));
            }
        }
        Node::Leaf { .. } => {}
        Node::Internal {
            key, left, right, ..
        } => {
            // Left subtree holds keys < routing key, right subtree keys >=.
            let descend_left = match key {
                RoutingKey::Finite(routing) => min < routing,
                _ => true,
            };
            let descend_right = match key {
                RoutingKey::Finite(routing) => max >= routing,
                _ => true,
            };
            if descend_left {
                // ORDERING: Acquire pairs with the AcqRel child CASes publishing this child.
                collect_in_range(left.load(Ordering::Acquire, guard), min, max, out, guard);
            }
            if descend_right {
                // ORDERING: Acquire pairs with the AcqRel child CASes publishing this child.
                collect_in_range(right.load(Ordering::Acquire, guard), min, max, out, guard);
            }
        }
    }
}

/// Collects every finite leaf in the subtree.
fn collect_all<K: Key, V: Value>(
    node: Shared<'_, Node<K, V>>,
    out: &mut Vec<(K, V)>,
    guard: &Guard,
) {
    if node.is_null() {
        return;
    }
    // SAFETY: `node` was reached from the epoch-protected root under `guard`.
    match unsafe { node.deref() } {
        Node::Leaf {
            key: RoutingKey::Finite(k),
            value,
        } => out.push((
            *k,
            value.clone().expect("finite leaves always carry a value"),
        )),
        Node::Leaf { .. } => {}
        Node::Internal { left, right, .. } => {
            // ORDERING: Acquire pairs with the AcqRel child CASes publishing this child.
            collect_all(left.load(Ordering::Acquire, guard), out, guard);
            // ORDERING: Acquire pairs with the AcqRel child CASes publishing this child.
            collect_all(right.load(Ordering::Acquire, guard), out, guard);
        }
    }
}

/// Quiescent invariant check; returns the number of finite leaves.
fn check_node<K: Key, V: Value>(
    node: Shared<'_, Node<K, V>>,
    lo: Option<&RoutingKey<K>>,
    hi: Option<&RoutingKey<K>>,
    guard: &Guard,
) -> u64 {
    if node.is_null() {
        return 0;
    }
    // SAFETY: `node` was reached from the epoch-protected root under `guard`.
    match unsafe { node.deref() } {
        Node::Leaf { key, .. } => {
            if let Some(lo) = lo {
                assert!(key >= lo, "leaf key below its routing interval");
            }
            if let Some(hi) = hi {
                assert!(key < hi, "leaf key above its routing interval");
            }
            u64::from(key.finite().is_some())
        }
        Node::Internal {
            key,
            update,
            left,
            right,
        } => {
            // ORDERING: Acquire pairs with the flag CASes; quiescent check only.
            let pending = update.load(Ordering::Acquire, guard);
            assert_eq!(
                pending.tag(),
                state::CLEAN,
                "pending flag left behind in a quiescent tree"
            );
            // ORDERING: Acquire pairs with the AcqRel child CASes publishing the children.
            let nl = check_node(left.load(Ordering::Acquire, guard), lo, Some(key), guard);
            // ORDERING: Acquire pairs with the AcqRel child CASes publishing the children.
            let nr = check_node(right.load(Ordering::Acquire, guard), Some(key), hi, guard);
            nl + nr
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn empty_tree() {
        let tree: LockFreeBst<i64> = LockFreeBst::new();
        assert!(tree.is_empty());
        assert!(!tree.contains(&1));
        assert!(!tree.remove(&1));
        assert_eq!(tree.count(i64::MIN, i64::MAX), 0);
        tree.check_invariants();
    }

    #[test]
    fn insert_remove_contains_roundtrip() {
        let tree: LockFreeBst<i64, i64> = LockFreeBst::new();
        assert!(tree.insert(5, 50));
        assert!(!tree.insert(5, 51));
        assert!(tree.insert(1, 10));
        assert!(tree.insert(9, 90));
        assert_eq!(tree.len(), 3);
        assert_eq!(tree.get(&5), Some(50));
        assert!(tree.contains(&1));
        assert!(!tree.contains(&2));
        assert_eq!(tree.remove_entry(&5), Some(50));
        assert_eq!(tree.remove_entry(&5), None);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.entries_quiescent(), vec![(1, 10), (9, 90)]);
        tree.check_invariants();
    }

    #[test]
    fn collect_and_count_are_range_correct() {
        let tree: LockFreeBst<i64> = LockFreeBst::new();
        for k in (0..100).step_by(2) {
            assert!(tree.insert(k, ()));
        }
        assert_eq!(tree.count(0, 99), 50);
        assert_eq!(tree.count(10, 20), 6);
        assert_eq!(tree.count(11, 11), 0);
        assert_eq!(tree.count(-50, -1), 0);
        assert_eq!(tree.count(90, 200), 5);
        assert_eq!(tree.count(20, 10), 0);
        let entries = tree.collect_range(10, 20);
        assert_eq!(
            entries.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![10, 12, 14, 16, 18, 20]
        );
        tree.check_invariants();
    }

    #[test]
    fn removing_reuses_structure_correctly() {
        let tree: LockFreeBst<i64> = LockFreeBst::new();
        for k in 0..200 {
            assert!(tree.insert(k, ()));
        }
        for k in (0..200).step_by(2) {
            assert!(tree.remove(&k));
        }
        assert_eq!(tree.len(), 100);
        for k in 0..200 {
            assert_eq!(tree.contains(&k), k % 2 == 1, "key {k}");
        }
        tree.check_invariants();
    }

    #[test]
    fn from_entries_dedups() {
        let tree: LockFreeBst<i64, i64> =
            LockFreeBst::from_entries(vec![(1, 10), (2, 20), (1, 99)]);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.get(&1), Some(10));
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        const THREADS: i64 = 4;
        const PER_THREAD: i64 = 2_000;
        let tree: Arc<LockFreeBst<i64>> = Arc::new(LockFreeBst::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        assert!(tree.insert(t * PER_THREAD + i, ()));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tree.len(), (THREADS * PER_THREAD) as u64);
        assert_eq!(
            tree.count(i64::MIN, i64::MAX),
            (THREADS * PER_THREAD) as u64
        );
        tree.check_invariants();
    }

    #[test]
    fn concurrent_contended_mix() {
        const THREADS: usize = 4;
        const OPS: usize = 4_000;
        const RANGE: i64 = 256;
        let tree: Arc<LockFreeBst<i64>> = Arc::new(LockFreeBst::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || {
                    let mut state = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut next = || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    };
                    for _ in 0..OPS {
                        let key = (next() % RANGE as u64) as i64;
                        match next() % 3 {
                            0 => {
                                tree.insert(key, ());
                            }
                            1 => {
                                tree.remove(&key);
                            }
                            _ => {
                                tree.contains(&key);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Quiescent: length must equal the number of keys physically present.
        tree.check_invariants();
        let entries = tree.entries_quiescent();
        assert_eq!(entries.len() as u64, tree.len());
        assert_eq!(tree.count(i64::MIN, i64::MAX), tree.len());
    }
}
