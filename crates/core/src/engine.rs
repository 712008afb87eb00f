//! The cost-benefit prefetching engine: the paper's Section 7 algorithm.
//!
//! [`CostBenefitEngine`] bundles the prefetch tree, the cost-benefit model
//! (with its dynamic `s` estimate), and the online stack-distance estimator
//! that prices demand-cache shrinking. Tree-based policies compose it:
//! `tree` uses it alone, `tree-next-limit` adds one-block-lookahead,
//! `tree-lvc` adds last-visited-child prefetching.
//!
//! Each access period the engine:
//!
//! 1. records the reference in the stack-distance estimator and the tree
//!    (advancing the LZ cursor);
//! 2. runs the **benefit frontier**: a best-first queue over descendants of
//!    the cursor ordered by net benefit `B(b) − T_oh(b)` (Eq. 1, 14). The
//!    top candidate is compared against the cheapest replacement cost
//!    (min of Eq. 11 over the prefetch cache and Eq. 13 for the demand
//!    LRU); it is prefetched — or skipped if already resident — and its
//!    children join the frontier. The round ends when the best remaining
//!    net benefit no longer exceeds the replacement cost (Section 7,
//!    step 4), realizing "prefetch along multiple paths simultaneously".

use crate::calibration::CalibrationTracker;
use crate::kernel::{self, DepthTable};
use crate::model::{CostBenefitModel, ModelConfig};
use crate::params::SystemParams;
use crate::policy::{PeriodActivity, RefKind, Victim};
use crate::resilience::Quarantine;
use prefetch_cache::{BufferCache, PrefetchMeta, StackDistanceEstimator};
use prefetch_hash::FxHashMap;
use prefetch_telemetry::{Phase, PhaseTimer, PhaseTimes};
use prefetch_trace::BlockId;
use prefetch_tree::{AccessOutcome, Candidate, CandidateBatch, NodeId, PrefetchTree};
use std::collections::BinaryHeap;

/// Bound on the ejected-block tracking map (calibration bookkeeping).
/// Ejections past the cap still accumulate predicted cost but their
/// realized side is uncounted (reported via `eject_untracked`), keeping
/// memory bounded without perturbing determinism.
const EJECT_TRACK_CAP: usize = 4096;

/// Configuration of the cost-benefit engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// Cost-benefit model tunables (re-prefetch lead `x`, `s` smoothing).
    pub model: ModelConfig,
    /// Maximum tree depth the frontier may descend below the cursor.
    pub max_depth: u32,
    /// Hard cap on prefetches issued per access period (safety valve; the
    /// cost comparison is the real stopping rule).
    pub max_per_period: u32,
    /// Hard cap on candidates examined per access period, bounding the
    /// per-reference work when large cached subtrees sit below the cursor.
    pub max_considered_per_period: u32,
    /// Candidates with path probability below this are not pursued.
    pub min_probability: f64,
    /// Exponential decay of the stack-distance histogram (1.0 = cumulative).
    pub stack_decay: f64,
    /// Prefetch-tree node limit (`usize::MAX` = unlimited) — Figure 13.
    pub node_limit: usize,
    /// With a finite `node_limit`: freeze the tree at the budget instead
    /// of evicting LRU leaves (see `prefetch_tree::OverflowPolicy`). Off
    /// by default — eviction is the paper's Section 9.3 scheme, and the
    /// default keeps every paper figure bit-identical.
    pub freeze_at_node_limit: bool,
    /// Extension beyond the paper: after an LZ reset, anchor candidate
    /// enumeration at the root's child for the current block (order-1
    /// context) instead of the bare root. Off by default for paper
    /// fidelity; the `tree-reanchor` policy and the ablation bench turn it
    /// on.
    pub reanchor_after_reset: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            model: ModelConfig::default(),
            max_depth: 8,
            max_per_period: 64,
            max_considered_per_period: 256,
            min_probability: 1e-4,
            stack_decay: 0.99999,
            node_limit: usize::MAX,
            freeze_at_node_limit: false,
            reanchor_after_reset: false,
        }
    }
}

/// Frontier entry ordered by net benefit.
struct FrontierEntry {
    net: f64,
    cand: Candidate,
}

impl PartialEq for FrontierEntry {
    fn eq(&self, other: &Self) -> bool {
        self.net == other.net
    }
}
impl Eq for FrontierEntry {}
impl PartialOrd for FrontierEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrontierEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.net.total_cmp(&other.net)
    }
}

/// Per-period memo of everything the frontier arithmetic derives from the
/// dynamic prefetch rate `s`: the `ΔT_pf(d)` table the pricing loop reads
/// and the frontier-seed probability cutoff. `s` only moves in
/// [`CostBenefitModel::observe_period`] (end of each prefetch round), so
/// the memo is refreshed at most once per period — and *only* when `s`'s
/// bits actually changed, which an EWMA at a fixed point never does.
struct PeriodMemo {
    /// `s.to_bits()` the memo was built for.
    s_bits: u64,
    /// `ΔT_pf(d)` for `d = 0..=max_depth`.
    dt: DepthTable,
    /// `min_useful_probability(1.0, 1)`: the frontier-seed cutoff, a pure
    /// function of `(params, s)`.
    seed_cutoff: f64,
    /// Rebuild count (regression handle: must track `s` changes exactly).
    rebuilds: u64,
}

impl PeriodMemo {
    fn new(model: &CostBenefitModel, max_depth: u32) -> Self {
        let mut memo =
            PeriodMemo { s_bits: 0, dt: DepthTable::default(), seed_cutoff: 0.0, rebuilds: 0 };
        memo.rebuild(model, max_depth);
        memo
    }

    fn rebuild(&mut self, model: &CostBenefitModel, max_depth: u32) {
        self.s_bits = model.s().to_bits();
        self.dt.rebuild(model.params(), model.s(), max_depth);
        self.seed_cutoff = model.min_useful_probability(1.0, 1);
        self.rebuilds += 1;
    }

    /// Rebuild iff the model's `s` no longer matches the memo.
    fn refresh(&mut self, model: &CostBenefitModel, max_depth: u32) {
        if model.s().to_bits() != self.s_bits {
            self.rebuild(model, max_depth);
        }
    }
}

/// Tree + model + H(n) estimator + the Section 7 prefetch loop.
pub struct CostBenefitEngine {
    tree: PrefetchTree,
    model: CostBenefitModel,
    stack: StackDistanceEstimator,
    cfg: EngineConfig,
    period: u64,
    /// SoA candidate scratch: enumeration emits the columns
    /// [`kernel::net_benefit_batch`] reads.
    batch: CandidateBatch,
    /// Net-benefit output column, parallel to `batch`.
    net: Vec<f64>,
    /// The benefit frontier's heap, empty between rounds: kept for its
    /// allocation.
    frontier: BinaryHeap<FrontierEntry>,
    /// `s`-derived memo: `ΔT_pf` table + frontier-seed cutoff.
    memo: PeriodMemo,
    quarantine: Quarantine,
    timer: PhaseTimer,
    calibration: CalibrationTracker,
    /// Ejected prefetched blocks awaiting their realized re-fetch cost
    /// (block → Eq. 11 predicted cost at ejection), bounded by
    /// [`EJECT_TRACK_CAP`].
    ejected: FxHashMap<BlockId, f64>,
}

impl CostBenefitEngine {
    /// Build an engine, its H(n) estimator at the full horizon.
    pub fn new(params: SystemParams, cfg: EngineConfig) -> Self {
        Self::for_cache(params, cfg, usize::MAX)
    }

    /// Build an engine that prices a cache of `cache_blocks` blocks, its
    /// H(n) estimator sized by it ([`StackDistanceEstimator::for_cache`]):
    /// Eq. 13 reads the estimator only at demand lengths `≤ cache_blocks`,
    /// where the sized one reports the full one's bits, so no decision
    /// changes.
    pub fn for_cache(params: SystemParams, cfg: EngineConfig, cache_blocks: usize) -> Self {
        let tree = if cfg.node_limit == usize::MAX {
            PrefetchTree::new()
        } else {
            let overflow = if cfg.freeze_at_node_limit {
                prefetch_tree::OverflowPolicy::Freeze
            } else {
                prefetch_tree::OverflowPolicy::Evict
            };
            PrefetchTree::with_node_budget(cfg.node_limit, overflow)
        };
        let model = CostBenefitModel::new(params, cfg.model);
        let memo = PeriodMemo::new(&model, cfg.max_depth);
        CostBenefitEngine {
            tree,
            model,
            stack: StackDistanceEstimator::for_cache(cfg.stack_decay, cache_blocks),
            cfg,
            period: 0,
            batch: CandidateBatch::new(),
            net: Vec::new(),
            frontier: BinaryHeap::new(),
            memo,
            quarantine: Quarantine::default(),
            timer: PhaseTimer::null(),
            calibration: CalibrationTracker::new(),
            ejected: FxHashMap::default(),
        }
    }

    /// The memoized frontier-seed probability cutoff
    /// (`min_useful_probability(1.0, 1)` for the current `s`), before the
    /// `min_probability` floor is applied.
    pub fn seed_cutoff(&self) -> f64 {
        self.memo.seed_cutoff
    }

    /// How many times the `s`-derived memo (ΔT_pf table + seed cutoff) has
    /// been rebuilt, including the build at construction. Regression
    /// handle: increments exactly when `s`'s bits change.
    pub fn depth_table_rebuilds(&self) -> u64 {
        self.memo.rebuilds
    }

    /// Turn on per-phase profiling (off by default — the NullTelemetry
    /// path costs one branch per probe).
    pub fn enable_profiling(&mut self) {
        self.timer.enable();
    }

    /// Accumulated per-phase times (all zero unless profiling is on).
    pub fn phase_times(&self) -> PhaseTimes {
        self.timer.times()
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The underlying tree (read access for policies and diagnostics).
    pub fn tree(&self) -> &PrefetchTree {
        &self.tree
    }

    /// Warm-start: replace the engine's tree with one restored from a
    /// `pftree-snap/v2` snapshot. The restored tree carries its own node
    /// budget, overflow policy, parse position and statistics (complete
    /// training state), so continued training is bit-identical to the
    /// snapshotted tree's future; the engine keeps its own model and
    /// stack-distance state, which the snapshot does not cover.
    pub fn install_tree(&mut self, tree: PrefetchTree) {
        self.tree = tree;
    }

    /// The cost-benefit model (read access).
    pub fn model(&self) -> &CostBenefitModel {
        &self.model
    }

    /// Mutable model access (policies report prefetch hits).
    pub fn model_mut(&mut self) -> &mut CostBenefitModel {
        &mut self.model
    }

    /// Current access period.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The fault quarantine (read access for diagnostics).
    pub fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// Predicted-vs-realized estimator calibration accumulators.
    pub fn calibration(&self) -> &CalibrationTracker {
        &self.calibration
    }

    /// A prefetched block is being ejected with Eq. 11 predicted cost
    /// `cost`: accumulate the prediction and start tracking the block so
    /// its next reference realizes the actual re-fetch cost.
    fn track_ejection(&mut self, block: BlockId, cost: f64) {
        let tracked = self.ejected.len() < EJECT_TRACK_CAP;
        if tracked {
            self.ejected.insert(block, cost);
        }
        self.calibration.record_predicted_eject(cost, tracked);
    }

    /// The simulator served a reference to `block` as `kind` with
    /// `stall_ms` of stall. Realizes the calibration counterparts of the
    /// engine's earlier predictions: a prefetch hit realizes its expected
    /// saving (`T_disk − stall`, the demand stall avoided); any reference to a
    /// tracked ejected block realizes its Eq. 11 re-fetch cost (the miss
    /// stall, or zero when it came back as a hit).
    pub fn observe_outcome(&mut self, block: BlockId, kind: RefKind, stall_ms: f64) {
        if kind == RefKind::PrefetchHit {
            let saved = self.model.params().t_disk - stall_ms;
            self.calibration.record_realized_benefit(saved);
        }
        if self.ejected.remove(&block).is_some() {
            let realized = if kind == RefKind::Miss { stall_ms } else { 0.0 };
            self.calibration.record_realized_eject(realized);
        }
    }

    /// A prefetch read of `block` failed on the disk array. Returns `true`
    /// if the failure pushed the block into quarantine, after which
    /// [`Self::prefetch_round`] stops re-issuing it until a successful
    /// read clears it.
    pub fn note_prefetch_fault(&mut self, block: BlockId) -> bool {
        self.quarantine.record_failure(block)
    }

    /// A read of `block` succeeded; clears any quarantine record.
    pub fn note_read_success(&mut self, block: BlockId) {
        self.quarantine.record_success(block);
    }

    /// Record the reference in the H(n) estimator and the prefetch tree.
    /// Call once per reference, before [`Self::prefetch_round`].
    pub fn record_reference(&mut self, block: BlockId) -> AccessOutcome {
        let tok = self.timer.begin();
        self.stack.record(block.0);
        let out = self.tree.record_access(block);
        self.timer.end(Phase::TreeUpdate, tok);
        out
    }

    /// Observe whether the cursor node's last-visited child is already
    /// resident (Figure 16). Call *before* [`Self::record_reference`], on
    /// the pre-access cursor.
    pub fn lvc_already_cached(&self, cache: &BufferCache) -> Option<bool> {
        let cursor = self.tree.cursor();
        let lvc = self.tree.last_visited_child(cursor)?;
        let block = self.tree.block(lvc)?;
        Some(cache.contains(block))
    }

    /// The cheapest Eq. 11 prefetch ejection, answered by the cache's lazy
    /// victim heap in amortised O(log n) instead of the historical O(n)
    /// scan. The heap orders by the scale-free ratio `p/(d_remaining − x)`;
    /// the winning block's cost is then recomputed through the exact
    /// [`CostBenefitModel::prefetch_eject_cost`] arithmetic so the returned
    /// value is bit-identical to what the scan produced. Under
    /// `debug_assertions` every answer is re-verified against the exact
    /// scan.
    pub fn best_prefetch_eject(&self, cache: &BufferCache) -> Option<(BlockId, f64)> {
        let block = if self.model.eject_scale() > 0.0 {
            cache.cheapest_prefetch_victim(self.period, self.model.config().x)?
        } else {
            // Degenerate zero timing scale: every cost is exactly 0.0 and
            // the scan's strict `<` keeps its first (most recent) entry.
            cache.prefetch_iter().next()?.0
        };
        let meta = cache.prefetch_meta(block)?;
        let elapsed = self.period.saturating_sub(meta.issued_at);
        let remaining = (meta.distance as u64).saturating_sub(elapsed) as u32;
        let cost = self.model.prefetch_eject_cost(meta.probability, remaining);
        #[cfg(debug_assertions)]
        assert_eq!(
            Some((block, cost.to_bits())),
            self.exact_prefetch_eject_scan(cache).map(|(b, c)| (b, c.to_bits())),
            "victim heap diverged from the exact Eq. 11 scan at period {}",
            self.period
        );
        Some((block, cost))
    }

    /// Oracle for the Eq. 11 victim choice: the exact linear scan over the
    /// prefetch partition that [`Self::best_prefetch_eject`] replaces.
    /// Exists only for that function's `debug_assert` and the tests.
    #[cfg(any(test, debug_assertions))]
    fn exact_prefetch_eject_scan(&self, cache: &BufferCache) -> Option<(BlockId, f64)> {
        let mut best_pr: Option<(BlockId, f64)> = None;
        for (b, meta) in cache.prefetch_iter() {
            let elapsed = self.period.saturating_sub(meta.issued_at);
            let remaining = (meta.distance as u64).saturating_sub(elapsed) as u32;
            let c = self.model.prefetch_eject_cost(meta.probability, remaining);
            if best_pr.is_none_or(|(_, bc)| c < bc) {
                best_pr = Some((b, c));
            }
        }
        best_pr
    }

    /// Cheapest replacement victim and its cost per Eq. 11 vs Eq. 13.
    /// Returns cost 0 with no victim when the cache has free buffers.
    ///
    /// Eq. 13 is priced lazily: an Eq. 11 cost of exactly `0.0` (an overdue
    /// prefetch — the common case) wins `cp <= cd` against any Eq. 13 cost,
    /// which is never negative, so the histogram window is not summed.
    pub fn cheapest_victim(&self, cache: &BufferCache) -> (Option<Victim>, f64) {
        if !cache.is_full() {
            return (None, 0.0);
        }
        // Eq. 11: cheapest prefetched block, via the lazy victim heap.
        let best_pr = self.best_prefetch_eject(cache);
        if let Some((b, cp)) = best_pr {
            if cp == 0.0 {
                return (Some(Victim::Prefetch(b)), cp);
            }
        }
        // Eq. 13: shrink the demand cache at its current size.
        let dc = if cache.demand_len() > 1 {
            Some(self.model.demand_eject_cost(self.stack.marginal_hit_rate(cache.demand_len())))
        } else {
            // Never take the last demand buffer (it holds the block being
            // accessed) for a prefetch.
            None
        };
        match (best_pr, dc) {
            (Some((b, cp)), Some(cd)) => {
                if cp <= cd {
                    (Some(Victim::Prefetch(b)), cp)
                } else {
                    (Some(Victim::DemandLru), cd)
                }
            }
            (Some((b, cp)), None) => (Some(Victim::Prefetch(b)), cp),
            (None, Some(cd)) => (Some(Victim::DemandLru), cd),
            (None, None) => (None, f64::INFINITY),
        }
    }

    /// [`Self::demand_victim`] with the time charged to the cost-benefit
    /// phase when profiling is on, and a prefetch-partition victim's
    /// Eq. 11 cost entered into the calibration tracking.
    pub fn demand_victim_timed(&mut self, cache: &BufferCache) -> Victim {
        let tok = self.timer.begin();
        let (v, cost) = self.demand_victim(cache);
        self.timer.end(Phase::CostBenefit, tok);
        if let Victim::Prefetch(b) = v {
            self.track_ejection(b, cost);
        }
        v
    }

    /// Victim for a *demand* fetch and its replacement cost: the same
    /// Eq. 11 vs Eq. 13 comparison as [`Self::cheapest_victim`], but the
    /// demand LRU is always available as a fallback (the incoming block
    /// will immediately occupy a demand buffer anyway).
    pub fn demand_victim(&self, cache: &BufferCache) -> (Victim, f64) {
        let best_pr = self.best_prefetch_eject(cache);
        if let Some((b, cp)) = best_pr {
            if cp == 0.0 {
                return (Victim::Prefetch(b), cp);
            }
        }
        let cd = if cache.demand_len() > 0 {
            Some(self.model.demand_eject_cost(self.stack.marginal_hit_rate(cache.demand_len())))
        } else {
            None
        };
        match (best_pr, cd) {
            (Some((b, cp)), Some(cdv)) if cp <= cdv => (Victim::Prefetch(b), cp),
            (_, Some(cdv)) => (Victim::DemandLru, cdv),
            (Some((b, cp)), None) => (Victim::Prefetch(b), cp),
            (None, None) => unreachable!("demand_victim called on an empty full cache"),
        }
    }

    /// Run the Section 7 cost-benefit prefetch loop for this access period
    /// and advance the period counter. `last_block` is the block the
    /// period just referenced (used only by the re-anchoring extension);
    /// `act` accumulates what happened.
    pub fn prefetch_round(
        &mut self,
        last_block: BlockId,
        cache: &mut BufferCache,
        act: &mut PeriodActivity,
    ) {
        // `s` moved at the end of the previous round (or an external
        // `model_mut` touch): re-derive the ΔT_pf table and seed cutoff
        // once, instead of inside every benefit evaluation below.
        self.memo.refresh(&self.model, self.cfg.max_depth);
        let anchor = if self.cfg.reanchor_after_reset {
            self.tree.prediction_anchor(last_block)
        } else {
            self.tree.cursor()
        };
        let mut frontier = std::mem::take(&mut self.frontier);
        // Enumerate only children that could possibly have positive net
        // benefit (children are weight-sorted, so this is O(useful), not
        // O(fan-out) — the root can have tens of thousands of children).
        self.push_children(anchor, 1.0, 0, self.memo.seed_cutoff, &mut frontier);

        let mut issued: u32 = 0;
        let mut considered: u32 = 0;
        while let Some(entry) = frontier.pop() {
            if issued >= self.cfg.max_per_period || considered >= self.cfg.max_considered_per_period
            {
                break;
            }
            // The heap is net-ordered: once the best remaining candidate
            // has no positive net benefit, no candidate (or descendant —
            // ΔT_pf's increments shrink with depth while probabilities
            // shrink along paths) can justify a prefetch. Stop the round.
            if entry.net <= 0.0 {
                break;
            }
            let cand = entry.cand;
            if cand.probability < self.cfg.min_probability {
                // Net-ordered heap, so skip (don't break) — but don't
                // expand either.
                continue;
            }
            considered += 1;
            act.candidates_considered += 1;

            if self.quarantine.is_quarantined(cand.block) {
                // The array keeps refusing this block; don't burn a slot
                // (or T_oh) on it, and don't descend through it either —
                // its subtree would be reached via the same failing read.
                act.candidates_quarantined += 1;
                continue;
            }

            if cache.contains(cand.block) {
                // Chosen for prefetch but already resident (Figure 7);
                // treat as settled and extend the path one deeper.
                act.candidates_already_cached += 1;
                self.expand(&cand, &mut frontier);
                continue;
            }

            // Step 2/3: cheapest replacement vs. net benefit.
            let tok = self.timer.begin();
            let (victim, cost) = self.cheapest_victim(cache);
            self.timer.end(Phase::CostBenefit, tok);
            if entry.net < cost {
                break;
            }
            if let Some(v) = victim {
                if let Victim::Prefetch(b) = v {
                    // `cost` is the Eq. 11 side of the min when the
                    // prefetch partition supplied the victim.
                    self.track_ejection(b, cost);
                }
                match crate::policy::apply_victim(v, cache) {
                    true => act.prefetch_evictions += 1,
                    false => act.demand_evictions_for_prefetch += 1,
                }
            }
            self.calibration
                .record_predicted_benefit(self.model.expected_saving(cand.probability, cand.depth));
            cache.insert_prefetch(
                cand.block,
                PrefetchMeta {
                    probability: cand.probability,
                    distance: cand.depth,
                    issued_at: self.period,
                    sequential: false,
                },
            );
            issued += 1;
            act.prefetched_blocks.push(cand.block);
            act.prefetches_issued += 1;
            act.prefetch_probability_sum += cand.probability;
            self.expand(&cand, &mut frontier);
        }

        frontier.clear();
        self.frontier = frontier;
        self.model.observe_period(issued);
        self.period += 1;
    }

    /// A settled candidate's children join the frontier (Section 7).
    fn expand(&mut self, cand: &Candidate, frontier: &mut BinaryHeap<FrontierEntry>) {
        if cand.depth >= self.cfg.max_depth {
            return;
        }
        // Table-based cutoff: bit-identical to the model's
        // `min_useful_probability` (the memo holds the very ΔT_pf values
        // that formula recomputes).
        let cutoff = self.memo.dt.min_useful_probability(
            self.model.params().t_driver,
            cand.probability,
            cand.depth + 1,
        );
        self.push_children(cand.node, cand.probability, cand.depth, cutoff, frontier);
    }

    /// Enumerate `node`'s children whose path probability reaches
    /// `cutoff` (floored at `min_probability`), price the batch with
    /// Eq. 1 − Eq. 14 and push it onto the frontier.
    fn push_children(
        &mut self,
        node: NodeId,
        probability: f64,
        depth: u32,
        cutoff: f64,
        frontier: &mut BinaryHeap<FrontierEntry>,
    ) {
        let tok = self.timer.begin();
        let cutoff = cutoff.max(self.cfg.min_probability);
        self.batch.clear();
        self.tree.child_candidates_pruned_soa(node, probability, depth, cutoff, &mut self.batch);
        kernel::net_benefit_batch(
            &self.batch.p_b,
            &self.batch.p_x,
            &self.batch.d_b,
            &self.memo.dt,
            self.model.params().t_driver,
            &mut self.net,
        );
        for i in 0..self.batch.len() {
            frontier.push(FrontierEntry { net: self.net[i], cand: self.batch.candidate(i) });
        }
        self.timer.end(Phase::CandidateSelection, tok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> CostBenefitEngine {
        CostBenefitEngine::new(SystemParams::patterson(), EngineConfig::default())
    }

    /// Train the tree on several laps of a cycle so predictions are strong.
    fn trained_engine(cycle: &[u64], laps: usize) -> CostBenefitEngine {
        let mut e = engine();
        for _ in 0..laps {
            for &b in cycle {
                e.record_reference(BlockId(b));
            }
        }
        e
    }

    #[test]
    fn prefetches_strongly_predicted_blocks() {
        let mut e = trained_engine(&[1, 2, 3, 4], 50);
        let mut cache = BufferCache::new(16);
        // Anchor the cursor by accessing block 1.
        e.record_reference(BlockId(1));
        let mut act = PeriodActivity::default();
        e.prefetch_round(BlockId(1), &mut cache, &mut act);
        // The blocks following 1 in the cycle are near-certain; at least
        // one should be prefetched (cache has free buffers: cost 0).
        assert!(act.prefetches_issued >= 1, "no prefetches issued: {act:?}");
        let prefetched: Vec<u64> = cache.prefetch_iter().map(|(b, _)| b.0).collect();
        assert!(prefetched.contains(&2) || prefetched.contains(&3), "prefetched {prefetched:?}");
    }

    #[test]
    fn does_not_prefetch_from_an_untrained_tree() {
        let mut e = engine();
        let mut cache = BufferCache::new(16);
        // First-ever access: the parse resets to the root, whose only
        // child is the block itself — which is resident, so nothing can
        // be prefetched.
        cache.insert_demand(BlockId(1));
        e.record_reference(BlockId(1));
        let mut act = PeriodActivity::default();
        e.prefetch_round(BlockId(1), &mut cache, &mut act);
        assert_eq!(act.prefetches_issued, 0);
        assert_eq!(act.candidates_already_cached, 1);
    }

    #[test]
    fn already_cached_candidates_are_counted_not_fetched() {
        let mut e = trained_engine(&[1, 2, 3, 4], 50);
        let mut cache = BufferCache::new(16);
        // Pre-insert the likely candidates as demand blocks.
        for b in [2u64, 3, 4] {
            cache.insert_demand(BlockId(b));
        }
        e.record_reference(BlockId(1));
        let mut act = PeriodActivity::default();
        e.prefetch_round(BlockId(1), &mut cache, &mut act);
        assert!(act.candidates_already_cached >= 1, "{act:?}");
    }

    #[test]
    fn stops_when_cost_exceeds_benefit() {
        // A tiny cache full of *valuable* demand blocks (tight loop → huge
        // marginal hit rate) must not be raided for speculative prefetches
        // of weak candidates.
        let mut e = engine();
        let mut cache = BufferCache::new(4);
        // Loop over exactly 4 blocks: every block is hit at stack distance
        // 3, so H(4)−H(3) is large.
        for lap in 0..200 {
            for b in [10u64, 20, 30, 40] {
                if !cache.contains(BlockId(b)) {
                    if cache.is_full() {
                        cache.evict_demand_lru();
                    }
                    cache.insert_demand(BlockId(b));
                } else {
                    cache.reference(BlockId(b));
                }
                e.record_reference(BlockId(b));
                let _ = lap;
            }
        }
        // Train a weak side-branch: 10 is sometimes followed by 99.
        for _ in 0..3 {
            e.record_reference(BlockId(10));
            e.record_reference(BlockId(99));
        }
        for b in [10u64, 20, 30] {
            e.record_reference(BlockId(b));
        }
        let mut act = PeriodActivity::default();
        let demand_before = cache.demand_len();
        e.prefetch_round(BlockId(30), &mut cache, &mut act);
        // Whatever was prefetched must not have displaced the hot demand
        // blocks wholesale.
        assert!(
            cache.demand_len() + 1 >= demand_before,
            "demand cache raided: {} -> {}",
            demand_before,
            cache.demand_len()
        );
    }

    #[test]
    fn cheapest_victim_prefers_stale_prefetch() {
        let mut e = trained_engine(&[1, 2, 3], 30);
        let mut cache = BufferCache::new(2);
        cache.insert_demand(BlockId(100));
        cache.insert_prefetch(
            BlockId(50),
            PrefetchMeta { probability: 0.9, distance: 1, issued_at: 0, sequential: false },
        );
        // Engine period is far past the prefetch's expected use: the stale
        // prefetch should be the cheap victim (cost 0).
        let (victim, cost) = e.cheapest_victim(&cache);
        assert_eq!(victim, Some(Victim::Prefetch(BlockId(50))));
        assert_eq!(cost, 0.0);
        let _ = &mut e;
    }

    #[test]
    fn heap_and_scan_pick_the_same_victim_at_equal_cost() {
        // Two prefetches with identical (p, distance, issued_at) have
        // exactly equal Eq. 11 costs; the scan's strict `<` keeps the
        // first entry in MRU iteration order (the most recent insert),
        // and the heap's tie-break must reproduce that choice exactly.
        let mut e = engine();
        e.period = 2;
        let mut cache = BufferCache::new(16);
        let tied = PrefetchMeta { probability: 0.4, distance: 9, issued_at: 0, sequential: false };
        cache.insert_prefetch(BlockId(10), tied);
        cache.insert_prefetch(BlockId(20), tied); // more recent, must win the tie
        cache.insert_prefetch(
            BlockId(30),
            PrefetchMeta { probability: 0.9, distance: 4, issued_at: 0, sequential: false },
        );

        let heap = e.best_prefetch_eject(&cache);
        let scan = e.exact_prefetch_eject_scan(&cache);
        let (block, cost) = heap.expect("non-empty prefetch partition");
        assert_eq!(block, BlockId(20));
        assert_eq!(
            heap.map(|(b, c)| (b, c.to_bits())),
            scan.map(|(b, c)| (b, c.to_bits())),
            "heap and scan must agree bit for bit"
        );
        assert_eq!(cost.to_bits(), e.model.prefetch_eject_cost(0.4, 7).to_bits());

        // Advancing the period reorders costs lazily; the agreement (and
        // the tie-break) must survive the reheap.
        e.period = 6;
        let heap = e.best_prefetch_eject(&cache);
        let scan = e.exact_prefetch_eject_scan(&cache);
        assert_eq!(
            heap.map(|(b, c)| (b, c.to_bits())),
            scan.map(|(b, c)| (b, c.to_bits())),
            "heap and scan must still agree after the period advances"
        );
    }

    /// Eq. 13 exactly as the eager comparison prices it.
    fn eq13(e: &CostBenefitEngine, cache: &BufferCache) -> f64 {
        e.model.demand_eject_cost(e.stack.marginal_hit_rate(cache.demand_len()))
    }

    /// `cheapest_victim` on a full cache with both sides priced up front.
    fn eager_cheapest_victim(e: &CostBenefitEngine, cache: &BufferCache) -> (Option<Victim>, f64) {
        let dc = (cache.demand_len() > 1).then(|| eq13(e, cache));
        match (e.best_prefetch_eject(cache), dc) {
            (Some((b, cp)), Some(cd)) if cp <= cd => (Some(Victim::Prefetch(b)), cp),
            (_, Some(cd)) => (Some(Victim::DemandLru), cd),
            (Some((b, cp)), None) => (Some(Victim::Prefetch(b)), cp),
            (None, None) => (None, f64::INFINITY),
        }
    }

    /// `demand_victim` with both sides priced up front.
    fn eager_demand_victim(e: &CostBenefitEngine, cache: &BufferCache) -> (Victim, f64) {
        let cd = (cache.demand_len() > 0).then(|| eq13(e, cache));
        match (e.best_prefetch_eject(cache), cd) {
            (Some((b, cp)), Some(cd)) if cp <= cd => (Victim::Prefetch(b), cp),
            (_, Some(cd)) => (Victim::DemandLru, cd),
            (Some((b, cp)), None) => (Victim::Prefetch(b), cp),
            (None, None) => unreachable!("a full cache holds a block in some partition"),
        }
    }

    #[test]
    fn lazy_eq13_picks_what_the_eager_comparison_picks() {
        use crate::policy::{EnginePolicy, PrefetchPolicy, RefContext};
        use prefetch_cache::buffer_cache::RefOutcome;
        use prefetch_trace::synth::TraceKind;
        // The `tests/policy_golden.rs` traces and cache under
        // `tree-next-limit`: every demand-miss victim, and the replacement
        // cost at every full-cache period, priced both ways.
        for kind in [TraceKind::Cad, TraceKind::Cello] {
            let mut policy = EnginePolicy::tree_next_limit(CostBenefitEngine::new(
                SystemParams::patterson(),
                EngineConfig::default(),
            ));
            let mut cache = BufferCache::new(128);
            let (mut skipped, mut priced) = (0u32, 0u32);
            let mut tally = |cost: f64, prefetch: bool| match prefetch && cost == 0.0 {
                true => skipped += 1,
                false => priced += 1,
            };
            for (period, block) in kind.generate(20_000, 42).blocks().enumerate() {
                let served = match cache.reference(block) {
                    RefOutcome::DemandHit => RefKind::DemandHit,
                    RefOutcome::PrefetchHit(_) => RefKind::PrefetchHit,
                    RefOutcome::Miss => {
                        if cache.is_full() {
                            let e = policy.engine();
                            let (victim, cost) = e.demand_victim(&cache);
                            let (want, want_cost) = eager_demand_victim(e, &cache);
                            assert_eq!((victim, cost.to_bits()), (want, want_cost.to_bits()));
                            tally(cost, matches!(victim, Victim::Prefetch(_)));
                            crate::policy::apply_victim(victim, &mut cache);
                        }
                        cache.insert_demand(block);
                        RefKind::Miss
                    }
                };
                if cache.is_full() {
                    let e = policy.engine();
                    let (victim, cost) = e.cheapest_victim(&cache);
                    let (want, want_cost) = eager_cheapest_victim(e, &cache);
                    assert_eq!((victim, cost.to_bits()), (want, want_cost.to_bits()));
                    tally(cost, matches!(victim, Some(Victim::Prefetch(_))));
                }
                let ctx =
                    RefContext { block, kind: served, next_block: None, period: period as u64 };
                policy.after_reference(&ctx, &mut cache, &mut PeriodActivity::default());
            }
            assert!(skipped > 100 && priced > 100, "{kind:?}: {skipped} skipped, {priced} priced");
        }
    }

    #[test]
    fn free_buffers_cost_nothing() {
        let e = engine();
        let cache = BufferCache::new(8);
        let (victim, cost) = e.cheapest_victim(&cache);
        assert_eq!(victim, None);
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn s_estimate_moves_with_observed_prefetching() {
        let mut e = trained_engine(&[1, 2, 3, 4, 5, 6, 7, 8], 80);
        let mut cache = BufferCache::new(64);
        let s0 = e.model().s();
        for _ in 0..30 {
            for b in [1u64, 2, 3, 4, 5, 6, 7, 8] {
                e.record_reference(BlockId(b));
                let mut act = PeriodActivity::default();
                e.prefetch_round(BlockId(b), &mut cache, &mut act);
                // Consume prefetch hits so the cache keeps circulating.
                let _ = cache.reference(BlockId(b));
            }
        }
        // s must have been updated away from its prior at least once.
        assert_ne!(e.model().s(), s0);
        assert!(e.period() > 0);
    }

    #[test]
    fn freeze_flag_reaches_the_tree() {
        let cfg =
            EngineConfig { node_limit: 4, freeze_at_node_limit: true, ..EngineConfig::default() };
        let mut e = CostBenefitEngine::new(SystemParams::patterson(), cfg);
        for b in 0..50u64 {
            e.record_reference(BlockId(b));
        }
        assert_eq!(e.tree().node_count(), 4);
        assert!(e.tree().stats().nodes_capped > 0, "budget refusals must be counted");
        assert_eq!(e.tree().stats().nodes_evicted, 0, "frozen trees never evict");
    }

    #[test]
    fn respects_max_per_period() {
        let cfg = EngineConfig { max_per_period: 2, ..EngineConfig::default() };
        let mut e = CostBenefitEngine::new(SystemParams::patterson(), cfg);
        for _ in 0..60 {
            for b in [1u64, 2, 3, 4, 5, 6] {
                e.record_reference(BlockId(b));
            }
        }
        let mut cache = BufferCache::new(32);
        e.record_reference(BlockId(1));
        let mut act = PeriodActivity::default();
        e.prefetch_round(BlockId(1), &mut cache, &mut act);
        assert!(act.prefetches_issued <= 2);
    }

    #[test]
    fn reanchoring_predicts_at_substring_boundaries() {
        // Dilute the root with many one-shot children, then train a
        // deterministic pair X → Y. After a reset, the root-anchored
        // engine sees only diluted candidates, while the re-anchored one
        // predicts Y from the order-1 context of X.
        let build = |reanchor: bool| {
            let cfg = EngineConfig { reanchor_after_reset: reanchor, ..EngineConfig::default() };
            let mut e = CostBenefitEngine::new(SystemParams::patterson(), cfg);
            for i in 0..200u64 {
                e.record_reference(BlockId(1000 + i)); // unique: dilutes root
            }
            // Four full (7, 8, 2000) rounds: builds root→7→8 with weight,
            // and leaves the parse deep at node "7 8 2000".
            for _ in 0..4 {
                e.record_reference(BlockId(7));
                e.record_reference(BlockId(8));
                e.record_reference(BlockId(2000));
            }
            // Access 8 (parse moves to the root's "8" child), then 7 —
            // novel under that node, so the parse resets with 7 as the
            // last access. The engine now stands at the root having just
            // seen 7, whose root child has a trained successor 8.
            e.record_reference(BlockId(8));
            let out = e.record_reference(BlockId(7));
            assert!(out.reset, "setup expects the access to end a substring");
            e
        };
        let run = |mut e: CostBenefitEngine| {
            let mut cache = BufferCache::new(64);
            let mut act = PeriodActivity::default();
            e.prefetch_round(BlockId(7), &mut cache, &mut act);
            cache.contains(BlockId(8))
        };
        assert!(
            run(build(true)),
            "re-anchored engine failed to prefetch the trained successor after a reset"
        );
        assert!(
            !run(build(false)),
            "root-anchored engine should be blind here (root children are diluted)"
        );
    }

    #[test]
    fn quarantined_blocks_are_not_reissued() {
        let mut e = trained_engine(&[1, 2, 3, 4], 50);
        // Establish that block 2 would normally be prefetched after 1.
        e.record_reference(BlockId(1));
        let mut cache = BufferCache::new(16);
        let mut act = PeriodActivity::default();
        e.prefetch_round(BlockId(1), &mut cache, &mut act);
        assert!(
            cache.contains(BlockId(2)) || cache.contains(BlockId(3)),
            "setup expects a successor of 1 to be prefetched"
        );

        // Fail its prefetch until quarantined, then re-run the round.
        let victim = if cache.contains(BlockId(2)) { BlockId(2) } else { BlockId(3) };
        cache.evict_prefetch(victim);
        assert!(!e.note_prefetch_fault(victim));
        assert!(e.note_prefetch_fault(victim), "default threshold is 2");
        assert!(e.quarantine().is_quarantined(victim));

        let mut cache = BufferCache::new(16);
        let mut quarantined_skips = 0;
        for _ in 0..4 {
            // Cursor cycles the trained loop; victim stays quarantined.
            for &b in &[1u64, 2, 3, 4] {
                e.record_reference(BlockId(b));
                let mut act = PeriodActivity::default();
                e.prefetch_round(BlockId(b), &mut cache, &mut act);
                quarantined_skips += act.candidates_quarantined;
            }
        }
        assert!(!cache.contains(victim), "quarantined block was re-prefetched");
        assert!(quarantined_skips >= 1, "quarantine skip was never counted");

        // A successful read lifts the quarantine and prefetching resumes.
        e.note_read_success(victim);
        assert!(!e.quarantine().is_quarantined(victim));
        let mut cache = BufferCache::new(16);
        e.record_reference(BlockId(1));
        let mut act = PeriodActivity::default();
        e.prefetch_round(BlockId(1), &mut cache, &mut act);
        assert!(act.prefetches_issued >= 1);
    }

    #[test]
    fn lvc_already_cached_reports_cursor_child() {
        let mut e = trained_engine(&[1, 2, 3], 10);
        let mut cache = BufferCache::new(8);
        // Position cursor at node for "1" whose lvc is "2".
        e.record_reference(BlockId(1));
        // Without 2 cached:
        if let Some(flag) = e.lvc_already_cached(&cache) {
            assert!(!flag);
        }
        cache.insert_demand(BlockId(2));
        if let Some(flag) = e.lvc_already_cached(&cache) {
            assert!(flag);
        }
    }
}
