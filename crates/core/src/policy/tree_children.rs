//! [`ChildPolicy`]: the two parametric baselines of Section 9.7, which
//! prefetch children of the tree cursor **without** cost-benefit
//! analysis and differ only in which children they pick:
//!
//! * `tree-threshold` — "After accessing a block in the prefetch tree, all
//!   child nodes with a probability of future access higher than a
//!   specified probability threshold are prefetched" (Curewitz, Krishnan
//!   & Vitter, SIGMOD'93);
//! * `tree-children` — "a fixed number of child nodes with the highest
//!   probability of future access are prefetched" (Kroeger & Long, USENIX
//!   Winter'96).
//!
//! Replacement: the paper does not specify a victim rule for the parametric
//! baselines. We cap the prefetch partition at 10% of the cache (as the
//! paper does for its other non-cost-benefit prefetcher, `next-limit`):
//! over the cap, the oldest prefetched block is ejected; otherwise a full
//! cache gives up its demand LRU. This choice is documented in DESIGN.md.

use crate::policy::{default_victim, PeriodActivity, PrefetchPolicy, RefContext, Victim};
use prefetch_cache::{BufferCache, PrefetchMeta};
use prefetch_trace::BlockId;
use prefetch_tree::{Candidate, CandidateBatch, PrefetchTree};

/// Share of the cache the prefetch partition may hold.
const CAP_FRACTION: f64 = 0.10;

/// Which children of the cursor a [`ChildPolicy`] prefetches.
#[derive(Clone, Copy)]
enum Selection {
    /// Every child more probable than this.
    Threshold(f64),
    /// The `k` most probable children.
    TopK(usize),
}

/// Child prefetching without cost-benefit analysis.
pub struct ChildPolicy {
    tree: PrefetchTree,
    selection: Selection,
    /// Per-reference candidate scratch of the threshold emitter.
    batch: CandidateBatch,
    /// Per-reference candidate scratch of the top-k emitter.
    top: Vec<Candidate>,
    period: u64,
}

impl ChildPolicy {
    /// The `tree-threshold` policy with the given probability threshold
    /// (the paper sweeps 0.001 to 0.4 — Table 4).
    ///
    /// # Panics
    /// Panics unless `0 < threshold < 1`.
    pub fn tree_threshold(threshold: f64) -> Self {
        assert!(threshold > 0.0 && threshold < 1.0, "threshold must be in (0,1), got {threshold}");
        Self::with_selection(Selection::Threshold(threshold))
    }

    /// The `tree-children` policy prefetching `k` children per access (the
    /// paper found optima between 3 and 10).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn tree_children(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self::with_selection(Selection::TopK(k))
    }

    fn with_selection(selection: Selection) -> Self {
        ChildPolicy {
            tree: PrefetchTree::new(),
            selection,
            batch: CandidateBatch::new(),
            top: Vec::new(),
            period: 0,
        }
    }

    /// Prefetch one selected child unless it is already resident.
    fn prefetch(
        &self,
        block: BlockId,
        probability: f64,
        cache: &mut BufferCache,
        act: &mut PeriodActivity,
    ) {
        act.candidates_considered += 1;
        if cache.contains(block) {
            act.candidates_already_cached += 1;
            return;
        }
        make_room(cache, act);
        cache.insert_prefetch(
            block,
            PrefetchMeta { probability, distance: 1, issued_at: self.period, sequential: false },
        );
        act.prefetched_blocks.push(block);
        act.prefetches_issued += 1;
        act.prefetch_probability_sum += probability;
    }
}

fn make_room(cache: &mut BufferCache, act: &mut PeriodActivity) {
    let cap = ((cache.capacity() as f64 * CAP_FRACTION) as usize).max(1);
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

impl PrefetchPolicy for ChildPolicy {
    fn name(&self) -> &'static str {
        match self.selection {
            Selection::Threshold(_) => "tree-threshold",
            Selection::TopK(_) => "tree-children",
        }
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

        // Children are stored sorted by descending weight, so both
        // emitters stop early — at the threshold or after k children —
        // instead of scanning the whole fan-out (the root can have tens
        // of thousands of children).
        let cursor = self.tree.cursor();
        match self.selection {
            Selection::Threshold(threshold) => {
                self.batch.clear();
                self.tree.child_candidates_pruned_soa(cursor, 1.0, 0, threshold, &mut self.batch);
                for i in 0..self.batch.len() {
                    // The emitter keeps `p >= threshold`; the policy is
                    // strictly "higher than".
                    if self.batch.p_b[i] > threshold {
                        self.prefetch(self.batch.block[i], self.batch.p_b[i], cache, act);
                    }
                }
            }
            Selection::TopK(k) => {
                self.top.clear();
                self.tree.child_candidates_topk(cursor, 1.0, 0, k, &mut self.top);
                for c in &self.top {
                    self.prefetch(c.block, c.probability, cache, act);
                }
            }
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

    fn access(p: &mut ChildPolicy, cache: &mut BufferCache, b: u64) -> PeriodActivity {
        let ctx =
            RefContext { block: BlockId(b), kind: RefKind::DemandHit, next_block: None, period: 0 };
        let mut act = PeriodActivity::default();
        p.after_reference(&ctx, cache, &mut act);
        act
    }

    #[test]
    fn prefetches_children_above_threshold_only() {
        let mut p = ChildPolicy::tree_threshold(0.5);
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
        let mut p = ChildPolicy::tree_threshold(0.001);
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
        ChildPolicy::tree_threshold(1.0);
    }

    #[test]
    fn prefetches_top_k_children() {
        let mut p = ChildPolicy::tree_children(2);
        let mut cache = BufferCache::new(100);
        // After 1: block 2 follows 5×, block 3 follows 3×, block 4 once.
        for _ in 0..5 {
            access(&mut p, &mut cache, 1);
            access(&mut p, &mut cache, 2);
        }
        for _ in 0..3 {
            access(&mut p, &mut cache, 1);
            access(&mut p, &mut cache, 3);
        }
        access(&mut p, &mut cache, 1);
        access(&mut p, &mut cache, 4);
        while cache.prefetch_len() > 0 {
            cache.evict_prefetch_lru();
        }
        let act = access(&mut p, &mut cache, 1);
        assert!(cache.contains(BlockId(2)));
        assert!(cache.contains(BlockId(3)));
        assert!(!cache.contains(BlockId(4)), "k=2 must skip the third child");
        assert_eq!(act.prefetches_issued, 2);
    }

    #[test]
    fn fewer_children_than_k_is_fine() {
        let mut p = ChildPolicy::tree_children(5);
        let mut cache = BufferCache::new(100);
        // Parse (1)(2)(1 2): node(1) then has exactly one child, 2.
        access(&mut p, &mut cache, 1);
        access(&mut p, &mut cache, 2);
        access(&mut p, &mut cache, 1);
        access(&mut p, &mut cache, 2);
        let act = access(&mut p, &mut cache, 1);
        assert_eq!(act.prefetches_issued + act.candidates_already_cached, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_panics() {
        ChildPolicy::tree_children(0);
    }
}
