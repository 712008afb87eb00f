//! The `next-limit` baseline: one-block-lookahead sequential prefetching
//! with the prefetch partition capped at 10% of the cache (paper Section 9).

use crate::policy::{default_victim, PeriodActivity, PrefetchPolicy, RefContext, RefKind, Victim};
use prefetch_cache::{BufferCache, PrefetchMeta};
use prefetch_trace::BlockId;

/// One-block-lookahead: on every demand fetch of block *b*, prefetch
/// *b + 1* unless it is resident. "Since this aggressive scheme prefetches
/// many blocks, we limit the fraction of the cache devoted to prefetch
/// blocks to 10% to avoid harming performance."
#[derive(Clone, Copy, Debug)]
pub struct NextLimit {
    /// Fraction of the cache the sequential-prefetch partition may occupy.
    cap_fraction: f64,
}

impl Default for NextLimit {
    fn default() -> Self {
        NextLimit { cap_fraction: 0.10 }
    }
}

impl NextLimit {
    /// The paper's 10% cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A custom cap fraction in `(0, 1]` (ablation support).
    ///
    /// # Panics
    /// Panics if the fraction is outside `(0, 1]`.
    pub fn with_cap_fraction(cap_fraction: f64) -> Self {
        assert!(
            cap_fraction > 0.0 && cap_fraction <= 1.0,
            "cap fraction must be in (0,1], got {cap_fraction}"
        );
        NextLimit { cap_fraction }
    }

    /// Blocks the prefetch partition may hold in `cache`.
    pub fn cap(&self, cache: &BufferCache) -> usize {
        ((cache.capacity() as f64 * self.cap_fraction) as usize).max(1)
    }

    /// Issue the one-block-lookahead prefetch after a demand fetch of
    /// `block`. Shared with [`crate::policy::EnginePolicy::tree_next_limit`]. The
    /// `sequential_len` closure-free helper counts capped blocks.
    pub(crate) fn prefetch_next(
        &self,
        block: BlockId,
        cache: &mut BufferCache,
        period: u64,
        act: &mut PeriodActivity,
    ) {
        let next = block.next();
        act.candidates_considered += 1;
        if cache.contains(next) {
            act.candidates_already_cached += 1;
            return;
        }
        // Enforce the 10% partition cap over *sequential* prefetches only
        // (tree prefetches are governed by cost-benefit analysis instead).
        let cap = self.cap(cache);
        while sequential_len(cache) >= cap {
            let victim = oldest_sequential(cache).expect("sequential blocks exist over cap");
            cache.evict_prefetch(victim);
            act.prefetch_evictions += 1;
        }
        if cache.is_full() {
            if cache.demand_len() > 0 {
                cache.evict_demand_lru();
                act.demand_evictions_for_prefetch += 1;
            } else {
                let (victim, _) = cache.prefetch_iter_lru().next().expect("full cache has blocks");
                cache.evict_prefetch(victim);
                act.prefetch_evictions += 1;
            }
        }
        cache.insert_prefetch(
            next,
            PrefetchMeta { probability: 1.0, distance: 1, issued_at: period, sequential: true },
        );
        act.prefetched_blocks.push(next);
        act.prefetches_issued += 1;
        act.prefetch_probability_sum += 1.0;
    }
}

/// Number of sequential (next-limit-issued) blocks in the prefetch cache.
fn sequential_len(cache: &BufferCache) -> usize {
    cache.sequential_prefetch_len()
}

/// Oldest sequential block in the prefetch cache.
fn oldest_sequential(cache: &BufferCache) -> Option<BlockId> {
    cache.prefetch_iter_lru().find(|(_, m)| m.sequential).map(|(b, _)| b)
}

impl PrefetchPolicy for NextLimit {
    fn name(&self) -> &'static str {
        "next-limit"
    }

    fn choose_demand_victim(&mut self, cache: &BufferCache) -> Victim {
        // Keep the (small) prefetch partition; replace from the demand LRU.
        default_victim(cache)
    }

    fn after_reference(
        &mut self,
        ctx: &RefContext,
        cache: &mut BufferCache,
        act: &mut PeriodActivity,
    ) {
        if ctx.kind == RefKind::Miss {
            self.prefetch_next(ctx.block, cache, ctx.period, act);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(block: u64, kind: RefKind) -> RefContext {
        RefContext { block: BlockId(block), kind, next_block: None, period: 0 }
    }

    #[test]
    fn prefetches_successor_on_miss_only() {
        let mut p = NextLimit::new();
        let mut cache = BufferCache::new(20);
        cache.insert_demand(BlockId(5));
        let mut act = PeriodActivity::default();
        p.after_reference(&ctx(5, RefKind::Miss), &mut cache, &mut act);
        assert_eq!(act.prefetches_issued, 1);
        assert!(cache.contains(BlockId(6)));
        assert!(cache.prefetch_meta(BlockId(6)).unwrap().sequential);

        // A hit does not trigger lookahead.
        let mut act2 = PeriodActivity::default();
        p.after_reference(&ctx(5, RefKind::DemandHit), &mut cache, &mut act2);
        assert_eq!(act2.prefetches_issued, 0);
    }

    #[test]
    fn skips_resident_successor() {
        let mut p = NextLimit::new();
        let mut cache = BufferCache::new(20);
        cache.insert_demand(BlockId(5));
        cache.insert_demand(BlockId(6));
        let mut act = PeriodActivity::default();
        p.after_reference(&ctx(5, RefKind::Miss), &mut cache, &mut act);
        assert_eq!(act.prefetches_issued, 0);
        assert_eq!(act.candidates_already_cached, 1);
    }

    #[test]
    fn enforces_ten_percent_cap() {
        let mut p = NextLimit::new();
        let mut cache = BufferCache::new(20); // cap = 2
        for b in (0..10u64).map(|i| i * 100) {
            cache.insert_demand(BlockId(b));
            let mut act = PeriodActivity::default();
            p.after_reference(&ctx(b, RefKind::Miss), &mut cache, &mut act);
        }
        assert!(cache.prefetch_len() <= 2, "prefetch partition {}", cache.prefetch_len());
    }

    #[test]
    fn evicts_demand_lru_when_full_under_cap() {
        let mut p = NextLimit::new();
        let mut cache = BufferCache::new(10); // cap = 1
        for b in 0..10u64 {
            cache.insert_demand(BlockId(b * 7));
        }
        assert!(cache.is_full());
        let mut act = PeriodActivity::default();
        p.after_reference(&ctx(0, RefKind::Miss), &mut cache, &mut act);
        assert_eq!(act.prefetches_issued, 1);
        assert_eq!(act.demand_evictions_for_prefetch, 1);
        assert!(cache.contains(BlockId(1)));
    }

    #[test]
    fn cap_fraction_validation() {
        let p = NextLimit::with_cap_fraction(0.5);
        let cache = BufferCache::new(10);
        assert_eq!(p.cap(&cache), 5);
        let tiny = BufferCache::new(3);
        assert_eq!(NextLimit::new().cap(&tiny), 1);
    }

    #[test]
    #[should_panic(expected = "cap fraction")]
    fn zero_cap_panics() {
        NextLimit::with_cap_fraction(0.0);
    }
}
