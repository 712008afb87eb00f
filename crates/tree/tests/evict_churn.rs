//! Eviction churn under `OverflowPolicy::Evict`: long random streams
//! against a tight node budget exercise the arena's free list (every
//! evicted `NodeId` must be recycled, never leaked), the stats
//! accounting identities, and the children/wide-node-index invariants after
//! thousands of create/evict cycles.

use prefetch_trace::BlockId;
use prefetch_tree::{NodeId, OverflowPolicy, PrefetchTree};
use proptest::prelude::*;

/// Highest arena slot index reachable from the root. With budget `L` the
/// arena allocates at most `L + 1` slots ever (one transient overshoot
/// before `maybe_evict` trims back), so recycling is observable from the
/// public API: no reachable id may exceed that.
fn max_reachable_index(t: &PrefetchTree) -> usize {
    let mut queue: Vec<NodeId> = vec![t.root()];
    let mut max = 0;
    while let Some(n) = queue.pop() {
        max = max.max(n.index());
        queue.extend(t.children(n));
    }
    max
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn evict_churn_recycles_ids_and_keeps_invariants(
        blocks in proptest::collection::vec(0u64..40, 200..2000),
        limit in 8usize..64,
    ) {
        let mut t = PrefetchTree::with_node_budget(limit, OverflowPolicy::Evict);
        let mut high_water = 0usize;
        for (i, &b) in blocks.iter().enumerate() {
            t.record_access(BlockId(b));
            high_water = high_water.max(t.node_count());
            prop_assert!(t.node_count() <= limit, "budget exceeded at access {i}");
        }
        t.check_invariants();

        let s = t.stats();
        // Every access either followed an existing edge or created a node
        // (Evict never refuses a creation).
        prop_assert_eq!(s.accesses, s.predictable + s.nodes_created);
        prop_assert_eq!(s.nodes_capped, 0);
        // Created minus evicted is exactly what remains (`node_count`
        // already excludes the root).
        prop_assert_eq!(s.nodes_created - s.nodes_evicted, t.node_count() as u64);
        // Free-list recycling: once at the budget, eviction must feed
        // allocation — the arena never grows past limit + 1 slots.
        prop_assert!(
            max_reachable_index(&t) <= limit + 1,
            "leaked arena slots: reachable id {} with limit {}",
            max_reachable_index(&t),
            limit
        );
        // And the same bound holds for exact memory: churn must not
        // accrete bytes once the population is capped.
        if high_water == limit {
            let bytes_now = t.bytes_in_use();
            for &b in &blocks {
                t.record_access(BlockId(b.wrapping_add(7)));
            }
            t.check_invariants();
            prop_assert!(
                t.bytes_in_use() <= bytes_now * 2,
                "unbounded growth under churn: {} -> {}",
                bytes_now,
                t.bytes_in_use()
            );
        }
    }

    #[test]
    fn freeze_counts_every_refusal(
        blocks in proptest::collection::vec(0u64..40, 200..2000),
        limit in 8usize..64,
    ) {
        let mut t = PrefetchTree::with_node_budget(limit, OverflowPolicy::Freeze);
        for &b in &blocks {
            t.record_access(BlockId(b));
        }
        t.check_invariants();
        let s = t.stats();
        // Every access followed an edge, created a node, or was refused.
        prop_assert_eq!(s.accesses, s.predictable + s.nodes_created + s.nodes_capped);
        prop_assert_eq!(s.nodes_evicted, 0);
        prop_assert_eq!(t.node_count() as u64, s.nodes_created);
    }

    /// Snapshot/restore in the middle of eviction churn preserves the
    /// free list: the restored tree keeps recycling ids within the same
    /// arena bound instead of growing fresh slots.
    #[test]
    fn restore_preserves_free_list_recycling(
        blocks in proptest::collection::vec(0u64..40, 400..1200),
        limit in 8usize..48,
    ) {
        let mid = blocks.len() / 2;
        let mut t = PrefetchTree::with_node_budget(limit, OverflowPolicy::Evict);
        for &b in &blocks[..mid] {
            t.record_access(BlockId(b));
        }
        let mut buf = Vec::new();
        t.write_snapshot(&mut buf).unwrap();
        let mut back = PrefetchTree::read_snapshot(&mut buf.as_slice()).unwrap();
        for &b in &blocks[mid..] {
            back.record_access(BlockId(b));
        }
        back.check_invariants();
        prop_assert!(back.node_count() <= limit);
        prop_assert!(max_reachable_index(&back) <= limit + 1);
    }
}
