//! The `perfect-selector` oracle (Section 9.5): upper-bounds what a better
//! *selection* scheme could achieve with the same prefetch tree.
//!
//! "The perfect selection scheme assumes knowledge of the next disk access.
//! The resulting prefetching scheme uses the knowledge of the next disk
//! access to prefetch the next disk access only if it is predictable, i.e.
//! the disk access has been identified by the prediction scheme as a
//! candidate for prefetching."

use crate::policy::{default_victim, PeriodActivity, PrefetchPolicy, RefContext, Victim};
use prefetch_cache::{BufferCache, PrefetchMeta};
use prefetch_tree::PrefetchTree;

/// Oracle selector over the prefetch tree's predictions.
pub struct PerfectSelector {
    tree: PrefetchTree,
    period: u64,
}

impl Default for PerfectSelector {
    fn default() -> Self {
        Self::new()
    }
}

impl PerfectSelector {
    /// A fresh oracle.
    pub fn new() -> Self {
        PerfectSelector { tree: PrefetchTree::new(), period: 0 }
    }

    /// Read access to the tree.
    pub fn tree(&self) -> &PrefetchTree {
        &self.tree
    }
}

impl PrefetchPolicy for PerfectSelector {
    fn name(&self) -> &'static str {
        "perfect-selector"
    }

    fn choose_demand_victim(&mut self, cache: &BufferCache) -> Victim {
        default_victim(cache)
    }

    fn after_reference(
        &mut self,
        ctx: &RefContext,
        cache: &mut BufferCache,
        act: &mut PeriodActivity,
    ) {
        let outcome = self.tree.record_access(ctx.block);
        act.predictable = outcome.predictable;
        act.lvc_repeat = outcome.lvc_repeat;

        let Some(next) = ctx.next_block else {
            self.period += 1;
            return;
        };
        // Prefetch the actual next access, but only if the tree would have
        // offered it as a candidate (a child of the post-access cursor).
        let cursor = self.tree.cursor();
        let Some(child) = self.tree.child_by_block(cursor, next) else {
            self.period += 1;
            return;
        };
        act.candidates_considered += 1;
        if cache.contains(next) {
            act.candidates_already_cached += 1;
            self.period += 1;
            return;
        }
        if cache.is_full() {
            // The prefetched block is consumed next period, so the
            // prefetch partition can hold at most one stale block.
            if cache.prefetch_len() > 0 {
                cache.evict_prefetch_lru();
                act.prefetch_evictions += 1;
            } else {
                cache.evict_demand_lru();
                act.demand_evictions_for_prefetch += 1;
            }
        }
        let probability = self.tree.child_probability(cursor, child);
        cache.insert_prefetch(
            next,
            PrefetchMeta { probability, distance: 1, issued_at: self.period, sequential: false },
        );
        act.prefetched_blocks.push(next);
        act.prefetches_issued += 1;
        act.prefetch_probability_sum += probability;
        self.period += 1;
    }

    fn tree(&self) -> Option<&PrefetchTree> {
        Some(&self.tree)
    }

    fn install_tree(&mut self, tree: PrefetchTree) -> bool {
        self.tree = tree;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RefKind;
    use prefetch_trace::BlockId;

    fn access(
        p: &mut PerfectSelector,
        cache: &mut BufferCache,
        b: u64,
        next: Option<u64>,
    ) -> PeriodActivity {
        let ctx = RefContext {
            block: BlockId(b),
            kind: RefKind::DemandHit,
            next_block: next.map(BlockId),
            period: 0,
        };
        let mut act = PeriodActivity::default();
        p.after_reference(&ctx, cache, &mut act);
        act
    }

    #[test]
    fn prefetches_only_predictable_next_accesses() {
        let mut p = PerfectSelector::new();
        let mut cache = BufferCache::new(16);
        // Train until the LZ parse records 2 as a child of node(1):
        // substrings (1)(2)(1 2).
        access(&mut p, &mut cache, 1, Some(2));
        access(&mut p, &mut cache, 2, Some(1));
        access(&mut p, &mut cache, 1, Some(2));
        access(&mut p, &mut cache, 2, Some(1));
        // Next access 2 is now predictable from node 1: prefetched.
        let act = access(&mut p, &mut cache, 1, Some(2));
        assert_eq!(act.prefetches_issued, 1);
        assert!(cache.contains(BlockId(2)));
        // An unpredictable next access (99) is NOT prefetched even though
        // the oracle knows it is coming.
        let act = access(&mut p, &mut cache, 2, Some(99));
        assert_eq!(act.prefetches_issued, 0);
        assert!(!cache.contains(BlockId(99)));
    }

    #[test]
    fn end_of_trace_is_handled() {
        let mut p = PerfectSelector::new();
        let mut cache = BufferCache::new(4);
        let act = access(&mut p, &mut cache, 1, None);
        assert_eq!(act.prefetches_issued, 0);
        assert_eq!(p.name(), "perfect-selector");
    }
}
