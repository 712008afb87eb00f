//! The prefetching policy interface and the eight policies of the paper.
//!
//! | policy | paper section | description |
//! |---|---|---|
//! | [`NoPrefetch`] | 9 | demand fetching only, LRU replacement |
//! | [`NextLimit`] | 9 | one-block-lookahead on every demand fetch, prefetch partition capped at 10% of the cache |
//! | [`EnginePolicy::tree`] | 2-7 | the paper's contribution: prefetch-tree candidates judged by cost-benefit analysis |
//! | [`EnginePolicy::tree_next_limit`] | 9 | `tree` + `next-limit` combined — the paper's best performer |
//! | [`EnginePolicy::tree_lvc`] | 9.6 | `tree` + always prefetch the cursor's last-visited child |
//! | [`ChildPolicy::tree_threshold`] | 9.7 | parametric baseline (Curewitz et al.): prefetch all children above a probability threshold |
//! | [`ChildPolicy::tree_children`] | 9.7 | parametric baseline (Kroeger & Long): prefetch the top-k children |
//! | [`PerfectSelector`] | 9.5 | oracle: prefetch the actual next access iff the tree predicted it |
//!
//! The simulation driver (in `prefetch-sim`) owns the [`BufferCache`] and
//! the reference loop; a policy (a) picks eviction victims on demand misses
//! and (b) reacts to every completed reference by updating its predictor
//! state and issuing prefetches directly into the cache, reporting what it
//! did through [`PeriodActivity`].

mod engine_policy;
mod next_limit;
mod no_prefetch;
mod perfect_selector;
mod tree_children;

pub use engine_policy::EnginePolicy;
pub use next_limit::NextLimit;
pub use no_prefetch::NoPrefetch;
pub use perfect_selector::PerfectSelector;
pub use tree_children::ChildPolicy;

use prefetch_cache::BufferCache;
use prefetch_trace::BlockId;

/// How the just-completed reference was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefKind {
    /// Found in the demand cache.
    DemandHit,
    /// Found in the prefetch cache (now migrated to demand).
    PrefetchHit,
    /// Demand-fetched from disk.
    Miss,
}

/// Per-reference context handed to the policy.
#[derive(Clone, Copy, Debug)]
pub struct RefContext {
    /// The block just referenced (already resident in the demand cache).
    pub block: BlockId,
    /// How the reference was served.
    pub kind: RefKind,
    /// One-reference lookahead, used only by the [`PerfectSelector`]
    /// oracle (Section 9.5). `None` at end of trace. Streaming drivers
    /// provide it by buffering exactly one record ahead of the one being
    /// simulated, so the oracle sees the same input whether the trace is
    /// materialized or streamed.
    pub next_block: Option<BlockId>,
    /// Index of this access period (monotone reference counter).
    pub period: u64,
}

/// What the policy did during one access period; the simulator folds this
/// into its metrics (Figures 7-12, 14, 16).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PeriodActivity {
    /// The blocks prefetched this period, in issue order (the simulator's
    /// disk model prices their queueing). Length equals
    /// `prefetches_issued`.
    pub prefetched_blocks: Vec<BlockId>,
    /// Prefetches issued (disk reads caused by prefetching).
    pub prefetches_issued: u32,
    /// Sum of tree probabilities of the prefetched blocks (Figure 10).
    pub prefetch_probability_sum: f64,
    /// Candidates the selector examined this period.
    pub candidates_considered: u32,
    /// Candidates chosen for prefetch that were already resident
    /// (Figure 7).
    pub candidates_already_cached: u32,
    /// Candidates skipped because they sit in the fault quarantine
    /// (repeatedly failing disk reads). Zero whenever fault injection is
    /// off.
    pub candidates_quarantined: u32,
    /// Blocks ejected from the prefetch cache to make room.
    pub prefetch_evictions: u32,
    /// Demand buffers given up to prefetching.
    pub demand_evictions_for_prefetch: u32,
    /// This access was predictable from the tree cursor (Table 2).
    pub predictable: bool,
    /// For tree policies: whether the cursor node's last-visited child was
    /// repeated by this access (Table 3). `None` when the node had no
    /// history or the policy keeps no tree.
    pub lvc_repeat: Option<bool>,
    /// Whether the cursor's last-visited child was already resident when
    /// visited (Figure 16).
    pub lvc_already_cached: Option<bool>,
}

/// Replacement victim chosen by a policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Victim {
    /// Evict the demand-cache LRU block (Eq. 13 side).
    DemandLru,
    /// Evict this block from the prefetch cache (Eq. 11 side).
    Prefetch(BlockId),
}

/// A prefetching policy. Object-safe; the simulator drives it through a
/// `Box<dyn PrefetchPolicy>`. `Send` so simulator state (e.g. one
/// advisor per tenant in `pfserve`) can migrate between worker threads;
/// policies are plain data structures, so this costs implementors
/// nothing.
pub trait PrefetchPolicy: Send {
    /// Short name matching the paper's terminology (e.g. `"tree-next-limit"`).
    fn name(&self) -> &'static str;

    /// Choose the buffer to free for a *demand* fetch when the cache is
    /// full. Must name a victim that exists; [`apply_victim`] applies it.
    fn choose_demand_victim(&mut self, cache: &BufferCache) -> Victim;

    /// Called after every reference has been served (the referenced block
    /// is resident in the demand cache). The policy updates its predictor
    /// and issues prefetches by mutating `cache`, recording its actions in
    /// `act`.
    fn after_reference(
        &mut self,
        ctx: &RefContext,
        cache: &mut BufferCache,
        act: &mut PeriodActivity,
    );

    /// A prefetch this policy issued failed on the disk array (the
    /// simulator has already released the buffer and charged `T_oh`).
    /// Returns `true` if the failure quarantined the block. Default:
    /// stateless policies ignore faults.
    fn note_prefetch_fault(&mut self, _block: BlockId) -> bool {
        false
    }

    /// A disk read of `block` succeeded; policies tracking fault history
    /// may clear it. Default: no-op.
    fn note_read_success(&mut self, _block: BlockId) {}

    /// Called once per reference with how it was served and the stall it
    /// cost, *before* [`PrefetchPolicy::after_reference`]. Engine-backed
    /// policies use it to realize the calibration counterparts of their
    /// earlier cost-benefit predictions. Default: no-op.
    fn observe_served(&mut self, _block: BlockId, _kind: RefKind, _stall_ms: f64) {}

    /// Predicted-vs-realized calibration accumulators, for policies that
    /// track them (the cost-benefit engine). Default: none.
    fn calibration(&self) -> Option<&crate::calibration::CalibrationTracker> {
        None
    }

    /// Turn on per-phase profiling inside the policy (tree update,
    /// candidate selection, cost-benefit). Default: stateless policies
    /// have nothing to profile.
    fn enable_profiling(&mut self) {}

    /// Per-phase times accumulated by the policy's internals. Default:
    /// all zero.
    fn phase_times(&self) -> prefetch_telemetry::PhaseTimes {
        prefetch_telemetry::PhaseTimes::default()
    }

    /// The prefetch tree this policy trains, if it keeps one — snapshot
    /// support (`pftree-snap/v2`): `pfserve` persists it on drain and
    /// `pfsim --save-tree` at end of run. Default: stateless policies
    /// have no tree.
    fn tree(&self) -> Option<&prefetch_tree::PrefetchTree> {
        None
    }

    /// Warm-start: replace this policy's tree with one restored from a
    /// snapshot. Returns `false` (and drops the tree) for policies that
    /// keep no tree, so callers can report a warm start that did not
    /// take. Default: refuse.
    fn install_tree(&mut self, _tree: prefetch_tree::PrefetchTree) -> bool {
        false
    }
}

/// Apply a victim choice, freeing exactly one buffer. Returns whether the
/// victim came from the prefetch cache.
///
/// # Panics
/// Panics if the chosen victim does not exist (policy bug).
pub fn apply_victim(victim: Victim, cache: &mut BufferCache) -> bool {
    match victim {
        Victim::DemandLru => {
            cache.evict_demand_lru().expect("demand victim chosen but demand cache empty");
            false
        }
        Victim::Prefetch(b) => {
            cache.evict_prefetch(b).expect("prefetch victim chosen but block not present");
            true
        }
    }
}

/// Fallback victim when a policy has no preference: the demand LRU if the
/// demand cache is non-empty, else the oldest prefetched block.
pub fn default_victim(cache: &BufferCache) -> Victim {
    if cache.demand_len() > 0 {
        Victim::DemandLru
    } else {
        let (b, _) =
            cache.prefetch_iter_lru().next().expect("cache full but both partitions empty");
        Victim::Prefetch(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefetch_cache::PrefetchMeta;

    #[test]
    fn apply_victim_frees_one_buffer() {
        let mut c = BufferCache::new(2);
        c.insert_demand(BlockId(1));
        c.insert_prefetch(BlockId(2), PrefetchMeta::default());
        assert!(c.is_full());
        assert!(!apply_victim(Victim::DemandLru, &mut c));
        assert_eq!(c.len(), 1);
        assert!(apply_victim(Victim::Prefetch(BlockId(2)), &mut c));
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "demand victim")]
    fn apply_bad_victim_panics() {
        let mut c = BufferCache::new(2);
        c.insert_prefetch(BlockId(2), PrefetchMeta::default());
        apply_victim(Victim::DemandLru, &mut c);
    }

    #[test]
    fn default_victim_prefers_demand() {
        let mut c = BufferCache::new(2);
        c.insert_demand(BlockId(1));
        c.insert_prefetch(BlockId(2), PrefetchMeta::default());
        assert_eq!(default_victim(&c), Victim::DemandLru);
        c.evict_demand_lru();
        assert_eq!(default_victim(&c), Victim::Prefetch(BlockId(2)));
    }
}
