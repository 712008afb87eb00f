//! [`EnginePolicy`]: the one seam between [`CostBenefitEngine`] and
//! [`PrefetchPolicy`]. The paper's three cost-benefit schemes differ only
//! in what they prefetch *besides* the engine's Section 7 round:
//!
//! * `tree` (Sections 2-7) — nothing; `tree-reanchor` is the same policy
//!   with [`EngineConfig::reanchor_after_reset`] set;
//! * `tree-next-limit` (Section 9) — "always prefetches the block after a
//!   demand fetch, while limiting 10% of the cache for these blocks. In
//!   addition, it maintains a prefetch tree and prefetches additional
//!   blocks according to our cost benefit analysis" — the paper's best
//!   overall performer;
//! * `tree-lvc` (Section 9.6) — unconditionally prefetches the cursor's
//!   *last visited child*. The paper found it indistinguishable from
//!   plain `tree` because ≥85% of last-visited children are already
//!   cached (Figure 16); it exists to reproduce that negative result.

use crate::engine::CostBenefitEngine;
#[cfg(doc)]
use crate::engine::EngineConfig;
use crate::policy::{NextLimit, PeriodActivity, PrefetchPolicy, RefContext, RefKind, Victim};
use prefetch_cache::{BufferCache, PrefetchMeta};
use prefetch_trace::BlockId;
use prefetch_tree::PrefetchTree;

/// What an [`EnginePolicy`] prefetches on top of the cost-benefit round.
enum Extra {
    None,
    /// Capped one-block lookahead on demand misses.
    NextLimit(NextLimit),
    /// The post-access cursor's last-visited child.
    Lvc,
}

/// Prefetch-tree candidates judged by the Section 7 cost-benefit analysis;
/// replacement victims priced by Eq. 11 vs Eq. 13.
pub struct EnginePolicy {
    engine: CostBenefitEngine,
    name: &'static str,
    extra: Extra,
}

impl EnginePolicy {
    /// The `tree` policy over `engine` (`tree-reanchor` when
    /// [`EngineConfig::reanchor_after_reset`] is set).
    pub fn tree(engine: CostBenefitEngine) -> Self {
        let name = if engine.config().reanchor_after_reset { "tree-reanchor" } else { "tree" };
        EnginePolicy { engine, name, extra: Extra::None }
    }

    /// The `tree-next-limit` policy over `engine`, with the standard 10%
    /// sequential cap.
    pub fn tree_next_limit(engine: CostBenefitEngine) -> Self {
        EnginePolicy { engine, name: "tree-next-limit", extra: Extra::NextLimit(NextLimit::new()) }
    }

    /// The `tree-lvc` policy over `engine`.
    pub fn tree_lvc(engine: CostBenefitEngine) -> Self {
        EnginePolicy { engine, name: "tree-lvc", extra: Extra::Lvc }
    }

    /// Read access to the engine (tree statistics, model state).
    pub fn engine(&self) -> &CostBenefitEngine {
        &self.engine
    }

    /// Prefetch the last-visited child of the (post-access) cursor if it is
    /// not resident.
    fn prefetch_lvc(&mut self, cache: &mut BufferCache, act: &mut PeriodActivity) {
        let tree = self.engine.tree();
        let cursor = tree.cursor();
        let Some(lvc) = tree.last_visited_child(cursor) else { return };
        let Some(block) = tree.block(lvc) else { return };
        let probability = tree.child_probability(cursor, lvc);
        act.candidates_considered += 1;
        if cache.contains(block) {
            act.candidates_already_cached += 1;
            return;
        }
        if cache.is_full() {
            let victim = self.engine.demand_victim_timed(cache);
            match crate::policy::apply_victim(victim, cache) {
                true => act.prefetch_evictions += 1,
                false => act.demand_evictions_for_prefetch += 1,
            }
        }
        cache.insert_prefetch(
            block,
            PrefetchMeta {
                probability,
                distance: 1,
                issued_at: self.engine.period(),
                sequential: false,
            },
        );
        act.prefetched_blocks.push(block);
        act.prefetches_issued += 1;
        act.prefetch_probability_sum += probability;
    }
}

impl PrefetchPolicy for EnginePolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn choose_demand_victim(&mut self, cache: &BufferCache) -> Victim {
        self.engine.demand_victim_timed(cache)
    }

    fn after_reference(
        &mut self,
        ctx: &RefContext,
        cache: &mut BufferCache,
        act: &mut PeriodActivity,
    ) {
        if ctx.kind == RefKind::PrefetchHit {
            self.engine.model_mut().observe_prefetch_hit();
        }
        // One-block lookahead on demand fetches (sequential component).
        if let (Extra::NextLimit(next), RefKind::Miss) = (&self.extra, ctx.kind) {
            next.prefetch_next(ctx.block, cache, ctx.period, act);
        }
        // Figure 16 statistic: observed on the pre-access cursor.
        act.lvc_already_cached = self.engine.lvc_already_cached(cache);
        let outcome = self.engine.record_reference(ctx.block);
        act.predictable = outcome.predictable;
        act.lvc_repeat = outcome.lvc_repeat;
        // LVC prefetch first (it is "in addition to" cost-benefit blocks).
        if matches!(self.extra, Extra::Lvc) {
            self.prefetch_lvc(cache, act);
        }
        self.engine.prefetch_round(ctx.block, cache, act);
    }

    fn note_prefetch_fault(&mut self, block: BlockId) -> bool {
        self.engine.note_prefetch_fault(block)
    }

    fn note_read_success(&mut self, block: BlockId) {
        self.engine.note_read_success(block);
    }

    fn observe_served(&mut self, block: BlockId, kind: RefKind, stall_ms: f64) {
        self.engine.observe_outcome(block, kind, stall_ms);
    }

    fn calibration(&self) -> Option<&crate::calibration::CalibrationTracker> {
        Some(self.engine.calibration())
    }

    fn enable_profiling(&mut self) {
        self.engine.enable_profiling();
    }

    fn phase_times(&self) -> prefetch_telemetry::PhaseTimes {
        self.engine.phase_times()
    }

    fn tree(&self) -> Option<&PrefetchTree> {
        Some(self.engine.tree())
    }

    fn install_tree(&mut self, tree: PrefetchTree) -> bool {
        self.engine.install_tree(tree);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::params::SystemParams;

    fn tree() -> EnginePolicy {
        EnginePolicy::tree(CostBenefitEngine::new(
            SystemParams::patterson(),
            EngineConfig::default(),
        ))
    }

    fn drive(policy: &mut EnginePolicy, cache: &mut BufferCache, block: u64) -> PeriodActivity {
        use prefetch_cache::buffer_cache::RefOutcome;
        let b = BlockId(block);
        let kind = match cache.reference(b) {
            RefOutcome::DemandHit => RefKind::DemandHit,
            RefOutcome::PrefetchHit(_) => RefKind::PrefetchHit,
            RefOutcome::Miss => {
                if cache.is_full() {
                    let v = policy.choose_demand_victim(cache);
                    crate::policy::apply_victim(v, cache);
                }
                cache.insert_demand(b);
                RefKind::Miss
            }
        };
        let ctx = RefContext { block: b, kind, next_block: None, period: policy.engine.period() };
        let mut act = PeriodActivity::default();
        policy.after_reference(&ctx, cache, &mut act);
        act
    }

    #[test]
    fn learns_a_cycle_and_turns_misses_into_prefetch_hits() {
        let mut p = tree();
        let mut cache = BufferCache::new(8);
        let cycle = [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
        // The cycle (12 blocks) exceeds the cache (8), so pure LRU never
        // hits. With tree prefetching, later laps should see prefetch hits.
        let mut hits_by_lap = Vec::new();
        for _ in 0..60 {
            let mut lap_hits = 0;
            for &b in &cycle {
                let before = cache.whereis(BlockId(b));
                let _ = drive(&mut p, &mut cache, b);
                if before == Some(prefetch_cache::Partition::Prefetch) {
                    lap_hits += 1;
                }
            }
            hits_by_lap.push(lap_hits);
        }
        let late: usize = hits_by_lap[40..].iter().sum();
        assert!(late > 0, "tree policy never produced a prefetch hit: {hits_by_lap:?}");
    }

    #[test]
    fn reports_predictability_flags() {
        let mut p = tree();
        let mut cache = BufferCache::new(16);
        for _ in 0..5 {
            for b in [1u64, 2, 3] {
                drive(&mut p, &mut cache, b);
            }
        }
        // After training, accessing 1 then 2 should be flagged predictable.
        drive(&mut p, &mut cache, 1);
        let act = drive(&mut p, &mut cache, 2);
        assert!(act.predictable);
        assert_eq!(p.name(), "tree");
    }

    #[test]
    fn prefetch_traffic_dies_out_on_an_unlearnable_stream() {
        // On an all-unique stream the root's children dilute: once
        // p = 1/n drops below the point where B − T_oh ≤ 0, the
        // cost-benefit stopping rule must shut prefetching off entirely.
        let mut p = tree();
        let mut cache = BufferCache::new(8);
        let mut late_prefetches = 0;
        for b in 0..500u64 {
            let act = drive(&mut p, &mut cache, b);
            if b >= 100 {
                late_prefetches += act.prefetches_issued;
            }
        }
        assert_eq!(late_prefetches, 0, "cost-benefit failed to stop useless prefetching");
    }

    #[test]
    fn reanchor_flag_names_the_policy() {
        let cfg = EngineConfig { reanchor_after_reset: true, ..EngineConfig::default() };
        assert_eq!(
            EnginePolicy::tree(CostBenefitEngine::new(SystemParams::patterson(), cfg)).name(),
            "tree-reanchor"
        );
    }

    #[test]
    fn next_limit_combines_sequential_and_tree_prefetching() {
        let mut p = EnginePolicy::tree_next_limit(CostBenefitEngine::new(
            SystemParams::patterson(),
            EngineConfig::default(),
        ));
        let mut cache = BufferCache::new(40);
        // A miss on block 100 must trigger one-block lookahead of 101.
        cache.insert_demand(BlockId(100));
        let ctx =
            RefContext { block: BlockId(100), kind: RefKind::Miss, next_block: None, period: 0 };
        let mut act = PeriodActivity::default();
        p.after_reference(&ctx, &mut cache, &mut act);
        assert!(cache.contains(BlockId(101)), "lookahead block missing");
        assert!(cache.prefetch_meta(BlockId(101)).unwrap().sequential);

        // Train a non-sequential pattern 100 → 7 and verify the tree part
        // also fires.
        for _ in 0..30 {
            for b in [100u64, 7] {
                let kind = if cache.contains(BlockId(b)) {
                    cache.reference(BlockId(b));
                    RefKind::DemandHit
                } else {
                    cache.insert_demand(BlockId(b));
                    RefKind::Miss
                };
                let ctx = RefContext { block: BlockId(b), kind, next_block: None, period: 0 };
                let mut a = PeriodActivity::default();
                p.after_reference(&ctx, &mut cache, &mut a);
            }
        }
        // Evict 7 and access 100: the tree should prefetch 7 again.
        if cache.contains(BlockId(7)) {
            cache.evict_prefetch(BlockId(7));
        }
        // (7 may be in the demand cache; flush it via direct eviction.)
        while cache.demand_iter().any(|b| b == BlockId(7)) {
            let lru = cache.demand_lru().unwrap();
            cache.evict_demand_lru();
            if lru == BlockId(7) {
                break;
            }
            cache.insert_demand(lru); // rotate non-victims back in
        }
        cache.reference(BlockId(100));
        let ctx = RefContext {
            block: BlockId(100),
            kind: RefKind::DemandHit,
            next_block: None,
            period: 100,
        };
        let mut act = PeriodActivity::default();
        p.after_reference(&ctx, &mut cache, &mut act);
        assert!(
            cache.contains(BlockId(7)) || act.candidates_already_cached > 0,
            "tree component did not pursue the learned successor"
        );
        assert_eq!(p.name(), "tree-next-limit");
    }

    #[test]
    fn lvc_prefetches_last_visited_child() {
        let mut p = EnginePolicy::tree_lvc(CostBenefitEngine::new(
            SystemParams::patterson(),
            EngineConfig::default(),
        ));
        let mut cache = BufferCache::new(16);
        // Train: 1 followed by 2, twice, so node(1) has lvc = node(2).
        for _ in 0..3 {
            for b in [1u64, 2] {
                let ctx = RefContext {
                    block: BlockId(b),
                    kind: RefKind::DemandHit,
                    next_block: None,
                    period: 0,
                };
                let mut act = PeriodActivity::default();
                p.after_reference(&ctx, &mut cache, &mut act);
            }
        }
        // Now access 1; the cursor lands on node(1) whose lvc is node(2),
        // so block 2 must be fetched (or found already cached from the
        // cost-benefit round — both count as pursuing it).
        let ctx = RefContext {
            block: BlockId(1),
            kind: RefKind::DemandHit,
            next_block: None,
            period: 10,
        };
        let mut act = PeriodActivity::default();
        p.after_reference(&ctx, &mut cache, &mut act);
        assert!(cache.contains(BlockId(2)), "last-visited child not resident after access");
        assert_eq!(p.name(), "tree-lvc");
    }
}
