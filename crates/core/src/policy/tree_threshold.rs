//! The `tree-threshold` parametric baseline (Section 9.7): "After accessing
//! a block in the prefetch tree, all child nodes with a probability of
//! future access higher than a specified probability threshold are
//! prefetched" — the scheme of Curewitz, Krishnan & Vitter (SIGMOD'93),
//! **without** cost-benefit analysis.
//!
//! Replacement: the paper does not specify a victim rule for the parametric
//! baselines. We cap the prefetch partition at 10% of the cache (as the
//! paper does for its other non-cost-benefit prefetcher, `next-limit`):
//! over the cap, the oldest prefetched block is ejected; otherwise a full
//! cache gives up its demand LRU. This choice is documented in DESIGN.md.

use crate::policy::{PeriodActivity, PrefetchPolicy, RefContext, Victim};
use prefetch_cache::{BufferCache, PrefetchMeta};
use prefetch_tree::{CandidateBatch, PrefetchTree};

/// Threshold-based tree prefetching without cost-benefit analysis.
pub struct TreeThreshold {
    tree: PrefetchTree,
    /// Per-reference candidate scratch.
    children: CandidateBatch,
    threshold: f64,
    cap_fraction: f64,
    period: u64,
}

impl TreeThreshold {
    /// Build with the given probability threshold (the paper sweeps 0.001
    /// to 0.4 — Table 4).
    ///
    /// # Panics
    /// Panics unless `0 < threshold < 1`.
    pub fn new(threshold: f64) -> Self {
        assert!(threshold > 0.0 && threshold < 1.0, "threshold must be in (0,1), got {threshold}");
        TreeThreshold {
            tree: PrefetchTree::new(),
            children: CandidateBatch::new(),
            threshold,
            cap_fraction: 0.10,
            period: 0,
        }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Read access to the tree.
    pub fn tree(&self) -> &PrefetchTree {
        &self.tree
    }

    fn make_room(&self, cache: &mut BufferCache, act: &mut PeriodActivity) {
        let cap = ((cache.capacity() as f64 * self.cap_fraction) as usize).max(1);
        if cache.prefetch_len() >= cap {
            cache.evict_prefetch_lru();
            act.prefetch_evictions += 1;
        } else if cache.is_full() {
            if cache.demand_len() > 0 {
                cache.evict_demand_lru();
                act.demand_evictions_for_prefetch += 1;
            } else {
                cache.evict_prefetch_lru();
                act.prefetch_evictions += 1;
            }
        }
    }
}

impl PrefetchPolicy for TreeThreshold {
    fn name(&self) -> &'static str {
        "tree-threshold"
    }

    fn choose_demand_victim(&mut self, cache: &BufferCache) -> Victim {
        if cache.demand_len() > 0 {
            Victim::DemandLru
        } else {
            Victim::Prefetch(cache.prefetch_iter_lru().next().expect("cache full").0)
        }
    }

    fn after_reference(
        &mut self,
        ctx: &RefContext,
        cache: &mut BufferCache,
        act: &mut PeriodActivity,
    ) {
        act.lvc_already_cached = None;
        let outcome = self.tree.record_access(ctx.block);
        act.predictable = outcome.predictable;
        act.lvc_repeat = outcome.lvc_repeat;

        let cursor = self.tree.cursor();
        // Children are weight-sorted, so pruned enumeration stops at the
        // threshold instead of scanning the whole fan-out (the root can
        // have tens of thousands of children).
        self.children.clear();
        self.tree.child_candidates_pruned_soa(cursor, 1.0, 0, self.threshold, &mut self.children);
        for i in 0..self.children.len() {
            let (block, probability) = (self.children.block[i], self.children.p_b[i]);
            if probability <= self.threshold {
                continue;
            }
            act.candidates_considered += 1;
            if cache.contains(block) {
                act.candidates_already_cached += 1;
                continue;
            }
            self.make_room(cache, act);
            cache.insert_prefetch(
                block,
                PrefetchMeta {
                    probability,
                    distance: 1,
                    issued_at: self.period,
                    sequential: false,
                },
            );
            act.prefetched_blocks.push(block);
            act.prefetches_issued += 1;
            act.prefetch_probability_sum += probability;
        }
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

    fn access(p: &mut TreeThreshold, cache: &mut BufferCache, b: u64) -> PeriodActivity {
        let ctx =
            RefContext { block: BlockId(b), kind: RefKind::DemandHit, next_block: None, period: 0 };
        let mut act = PeriodActivity::default();
        p.after_reference(&ctx, cache, &mut act);
        act
    }

    #[test]
    fn prefetches_children_above_threshold_only() {
        let mut p = TreeThreshold::new(0.5);
        let mut cache = BufferCache::new(100);
        // Train: after 1, block 2 follows 9 times and block 3 once.
        for _ in 0..9 {
            access(&mut p, &mut cache, 1);
            access(&mut p, &mut cache, 2);
        }
        access(&mut p, &mut cache, 1);
        access(&mut p, &mut cache, 3);
        // Remove whatever got cached so we can observe the decision.
        while cache.prefetch_len() > 0 {
            cache.evict_prefetch_lru();
        }
        let _ = access(&mut p, &mut cache, 1);
        // p(2|1) = 0.9 > 0.5 → prefetched; p(3|1) = 0.1 < 0.5 → not.
        assert!(cache.contains(BlockId(2)), "high-probability child not prefetched");
        assert!(!cache.contains(BlockId(3)), "low-probability child prefetched");
    }

    #[test]
    fn respects_partition_cap() {
        let mut p = TreeThreshold::new(0.001);
        let mut cache = BufferCache::new(20); // cap = 2
                                              // Build a bushy root: many substrings of length 1.
        for b in 0..50u64 {
            access(&mut p, &mut cache, b);
            access(&mut p, &mut cache, 1000 + b); // force resets
        }
        assert!(cache.prefetch_len() <= 2, "partition {}", cache.prefetch_len());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_of_one_panics() {
        TreeThreshold::new(1.0);
    }
}
