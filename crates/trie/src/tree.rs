//! The public concurrent trie type.

use wft_core::{Radix, Size, WaitFreeTree};

/// A linearizable concurrent ordered map over fixed-width integer keys with
/// wait-free operations and aggregate range queries in `O(W + |P|)` time
/// (where `W` is the key width in bits).
///
/// This is [`wft_core::WaitFreeTree`] in its [`Radix`] shape: the paper's
/// hand-over-hand-helping engine (§II) — descriptor queues, timestamps,
/// helping, exactly-once state updates, leaf runs, the read fast paths and
/// the timestamp front — with the one decision a trie makes differently
/// from a balanced BST:
///
/// * an overflowing leaf run is cut at the most-aligned boundary of the
///   64-bit key index ([`crate::TrieKey`]) inside the interval its slot
///   covers, so every routing key below the bulk-built skeleton is a bit
///   boundary `prefix | 1 << bit` and a node's subtree is a fixed key
///   interval;
/// * there is no rebalancing and therefore no rebuilding — the depth below
///   the skeleton is bounded by the key width whatever the insertion order,
///   so every bound is worst-case rather than amortized.
///
/// Every constructor and method is the tree's: `new`, `with_config`,
/// `from_entries`, `from_entries_with_config`, `insert`,
/// `insert_or_replace`, `remove`, `get`, `contains`, `count`, `range_agg`,
/// `collect_range`, the `*_at_front` reads, `check_invariants`, and the
/// `wft_api` trait family. Its `wft_obs::MetricsSource` impl reports under
/// the `trie_` prefix.
///
/// # Example
///
/// ```
/// use wft_trie::WaitFreeTrie;
///
/// let trie: WaitFreeTrie<u64> = WaitFreeTrie::new();
/// trie.insert(10, ());
/// trie.insert(500, ());
/// trie.insert(2_000, ());
/// assert!(trie.contains(&500));
/// assert_eq!(trie.count(0, 1_000), 2);
/// trie.remove(&10);
/// assert_eq!(trie.count(0, 1_000), 1);
/// ```
pub type WaitFreeTrie<K, V = (), A = Size> = WaitFreeTree<K, V, A, Radix>;

#[cfg(test)]
mod tests {
    use super::*;
    use wft_core::{FrontMiss, ReadPath, TreeConfig};
    use wft_obs::MetricsSource;

    #[test]
    fn empty_trie_properties() {
        let trie: WaitFreeTrie<u64> = WaitFreeTrie::new();
        assert!(trie.is_empty());
        assert_eq!(trie.len(), 0);
        assert!(!trie.contains(&1));
        assert_eq!(trie.count(0, u64::MAX), 0);
        assert!(trie.collect_range(0, u64::MAX).is_empty());
        assert!(!trie.remove(&1));
        trie.check_invariants();
    }

    #[test]
    fn single_thread_roundtrip() {
        let trie: WaitFreeTrie<u64> = WaitFreeTrie::new();
        assert!(trie.insert(5, ()));
        assert!(!trie.insert(5, ()));
        assert!(trie.insert(1, ()));
        assert!(trie.insert(1_000_000, ()));
        assert_eq!(trie.len(), 3);
        assert!(trie.contains(&5));
        assert!(trie.contains(&1));
        assert!(trie.contains(&1_000_000));
        assert!(!trie.contains(&2));
        assert!(trie.remove(&5));
        assert!(!trie.remove(&5));
        assert_eq!(trie.len(), 2);
        trie.check_invariants();
    }

    #[test]
    fn signed_keys_work_end_to_end() {
        let trie: WaitFreeTrie<i64> = WaitFreeTrie::new();
        for k in [-100i64, -1, 0, 1, 100, i64::MIN, i64::MAX] {
            assert!(trie.insert(k, ()));
        }
        assert_eq!(trie.count(i64::MIN, i64::MAX), 7);
        assert_eq!(trie.count(-100, 100), 5);
        assert_eq!(trie.count(-1, 0), 2);
        assert_eq!(
            trie.collect_range(-100, 1)
                .into_iter()
                .map(|(k, _)| k)
                .collect::<Vec<_>>(),
            vec![-100, -1, 0, 1]
        );
        trie.check_invariants();
    }

    #[test]
    fn count_and_collect_agree() {
        let trie: WaitFreeTrie<u64> = WaitFreeTrie::new();
        for k in (0..300u64).step_by(3) {
            trie.insert(k, ());
        }
        for (min, max) in [(0, 299), (10, 50), (0, 5), (150, 400), (60, 60), (7, 3)] {
            assert_eq!(
                trie.count(min, max),
                trie.collect_range(min, max).len() as u64,
                "range [{min}, {max}]"
            );
        }
        trie.check_invariants();
    }

    #[test]
    fn values_are_returned() {
        let trie: WaitFreeTrie<u64, String> = WaitFreeTrie::new();
        assert!(trie.insert(1, "one".into()));
        assert!(!trie.insert(1, "uno".into()));
        assert_eq!(trie.get(&1), Some("one".to_string()));
        assert_eq!(trie.remove_entry(&1), Some("one".to_string()));
        assert_eq!(trie.remove_entry(&1), None);
    }

    #[test]
    fn insert_or_replace_upserts_atomically() {
        let trie: WaitFreeTrie<u64, u64> = WaitFreeTrie::new();
        assert_eq!(trie.insert_or_replace(5, 50), None);
        assert_eq!(trie.insert_or_replace(5, 51), Some(50));
        assert_eq!(trie.len(), 1);
        assert_eq!(trie.get(&5), Some(51));
        assert_eq!(trie.metrics().counter("trie_replaces"), Some(2));
        // Replacing keeps the size augmentation consistent.
        assert_eq!(trie.count(0, 10), 1);
        trie.check_invariants();
    }

    #[test]
    fn from_entries_builds_working_trie() {
        let trie: WaitFreeTrie<u64, u64> =
            WaitFreeTrie::from_entries((0..1000u64).map(|k| (k, k * 2)));
        assert_eq!(trie.len(), 1000);
        assert_eq!(trie.get(&500), Some(1000));
        assert!(!trie.insert(500, 0));
        assert!(trie.remove(&500));
        assert_eq!(trie.len(), 999);
        assert_eq!(trie.count(0, 999), 999);
        trie.check_invariants();
    }

    #[test]
    fn range_sum_augmentation() {
        use wft_core::Sum;
        let trie: WaitFreeTrie<u64, u64, Sum> = WaitFreeTrie::new();
        for k in 1..=10u64 {
            trie.insert(k, k * 10);
        }
        assert_eq!(trie.range_agg(1, 10), 550);
        assert_eq!(trie.range_agg(3, 5), 120);
        trie.remove(&4);
        assert_eq!(trie.range_agg(3, 5), 80);
        trie.check_invariants();
    }

    #[test]
    fn stats_track_updates_and_len() {
        let trie: WaitFreeTrie<u64> = WaitFreeTrie::new();
        trie.insert(1, ());
        trie.insert(1, ());
        trie.insert(2, ());
        trie.remove(&1);
        trie.remove(&3);
        let metrics = trie.metrics();
        assert_eq!(metrics.counter("trie_inserts"), Some(2));
        assert_eq!(metrics.counter("trie_removes"), Some(1));
        assert_eq!(metrics.counter("trie_failed_updates"), Some(2));
        assert_eq!(trie.len(), 1);
    }

    #[test]
    fn both_read_paths_answer_identically() {
        let entries: Vec<(u64, u64)> = (0..300u64).step_by(3).map(|k| (k, k * 10)).collect();
        let fast: WaitFreeTrie<u64, u64> = WaitFreeTrie::from_entries(entries.clone());
        assert_eq!(
            fast.config().read_path,
            ReadPath::Fast,
            "fast is the default"
        );
        let desc: WaitFreeTrie<u64, u64> = WaitFreeTrie::from_entries_with_config(
            entries,
            TreeConfig {
                read_path: ReadPath::Descriptor,
                ..TreeConfig::default()
            },
        );
        for trie in [&fast, &desc] {
            trie.insert(1, 11);
            trie.remove(&3);
            trie.insert_or_replace(6, 60_000);
        }
        for k in [0u64, 1, 2, 3, 6, 9, 298, 299, 500] {
            assert_eq!(fast.get(&k), desc.get(&k), "get({k})");
            assert_eq!(fast.contains(&k), desc.contains(&k), "contains({k})");
        }
        for (min, max) in [(0u64, 299), (10, 50), (0, 4), (200, 600), (7, 7), (9, 3)] {
            assert_eq!(
                fast.count(min, max),
                desc.count(min, max),
                "count [{min},{max}]"
            );
            assert_eq!(
                fast.collect_range(min, max),
                desc.collect_range(min, max),
                "collect [{min},{max}]"
            );
        }
        let metrics = fast.metrics();
        assert!(metrics.counter("trie_fast_point_reads") > Some(0));
        assert!(
            metrics.counter("trie_fast_range_hits") > Some(0),
            "quiescent range reads validate"
        );
        assert_eq!(desc.metrics().counter("trie_fast_point_reads"), Some(0));
        fast.check_invariants();
        desc.check_invariants();
    }

    #[test]
    fn timestamp_front_tracks_updates() {
        let trie: WaitFreeTrie<u64> = WaitFreeTrie::new();
        let front = trie.settle_front();
        assert!(trie.front_unchanged(front));
        trie.insert(1, ());
        assert!(!trie.front_unchanged(front), "updates advance the front");
        let front = trie.settle_front();
        trie.contains(&1);
        trie.count(0, 10);
        assert!(trie.front_unchanged(front), "reads never advance the front");
        assert_eq!(trie.range_agg_at_front(0, 10, front), Ok(1));
        trie.remove(&1);
        assert_eq!(
            trie.range_agg_at_front(0, 10, front),
            Err(FrontMiss::Expired)
        );
        let mut out = vec![(7, ())];
        assert_eq!(
            trie.collect_range_limited_at_front(0, 10, usize::MAX, trie.settle_front(), &mut out),
            Ok(())
        );
        assert_eq!(out, vec![(7, ())], "an empty trie appends nothing");
    }

    #[test]
    fn adjacent_keys_build_long_chains_correctly() {
        let trie: WaitFreeTrie<u64> = WaitFreeTrie::new();
        // Keys differing only in the lowest bits force the deepest chains.
        for k in 0..64u64 {
            assert!(trie.insert(k, ()));
        }
        assert_eq!(trie.count(0, 63), 64);
        for k in 0..64u64 {
            assert!(trie.contains(&k), "key {k}");
        }
        for k in (0..64u64).step_by(2) {
            assert!(trie.remove(&k));
        }
        assert_eq!(trie.count(0, 63), 32);
        trie.check_invariants();
    }
}
