//! Simulation configuration: which policy, which cache size, which system
//! constants.

use prefetch_core::policy::{
    ChildPolicy, EnginePolicy, NextLimit, NoPrefetch, PerfectSelector, PeriodActivity,
    PrefetchPolicy, RefContext, Victim,
};
use prefetch_core::{CostBenefitEngine, EngineConfig, RetryPolicy, SystemParams};
use prefetch_disk::FaultPlan;

/// Which prefetching policy to simulate (paper Section 9 terminology).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PolicySpec {
    /// Demand fetching only.
    NoPrefetch,
    /// One-block-lookahead, prefetch partition capped at 10%.
    NextLimit,
    /// Cost-benefit tree prefetching (the paper's contribution).
    Tree,
    /// `tree` + `next-limit` combined.
    TreeNextLimit,
    /// `tree` + last-visited-child prefetching (Section 9.6).
    TreeLvc,
    /// Parametric baseline: prefetch children above this probability
    /// (Section 9.7, Curewitz et al.).
    TreeThreshold(f64),
    /// Parametric baseline: prefetch the top-k children (Section 9.7,
    /// Kroeger & Long).
    TreeChildren(usize),
    /// Oracle selector (Section 9.5).
    PerfectSelector,
    /// Extension beyond the paper: `tree` with order-1 re-anchoring after
    /// LZ resets (see `EngineConfig::reanchor_after_reset`), a step toward
    /// closing the tree↔perfect-selector gap of Section 9.5.
    TreeReanchor,
    /// Test-only fault injector for the harness: panics after `after`
    /// references, standing in for a policy bug so the sweep harness's
    /// panic isolation can be exercised deterministically.
    #[doc(hidden)]
    PanicProbe {
        /// References served before the probe panics.
        after: u64,
    },
}

impl PolicySpec {
    /// The four schemes of the paper's headline comparison (Figure 6).
    pub const HEADLINE: [PolicySpec; 4] = [
        PolicySpec::NoPrefetch,
        PolicySpec::NextLimit,
        PolicySpec::Tree,
        PolicySpec::TreeNextLimit,
    ];

    /// The parameterless policies, in the order every "try:" list names
    /// them.
    const PLAIN: [PolicySpec; 7] = [
        PolicySpec::NoPrefetch,
        PolicySpec::NextLimit,
        PolicySpec::Tree,
        PolicySpec::TreeNextLimit,
        PolicySpec::TreeLvc,
        PolicySpec::TreeReanchor,
        PolicySpec::PerfectSelector,
    ];

    /// The policy in the `key=value` grammar of `pfsim --policy`,
    /// `OPEN policy=` and the WAL `O` record; [`PolicySpec::parse`] reads
    /// it back. The panic probe renders to a word the grammar refuses, so
    /// a log that somehow names it fails closed at replay.
    pub fn key_value(&self) -> String {
        match self {
            PolicySpec::NoPrefetch => "no-prefetch".into(),
            PolicySpec::NextLimit => "next-limit".into(),
            PolicySpec::Tree => "tree".into(),
            PolicySpec::TreeNextLimit => "tree-next-limit".into(),
            PolicySpec::TreeLvc => "tree-lvc".into(),
            PolicySpec::TreeThreshold(t) => format!("tree-threshold={t}"),
            PolicySpec::TreeChildren(k) => format!("tree-children={k}"),
            PolicySpec::PerfectSelector => "perfect-selector".into(),
            PolicySpec::TreeReanchor => "tree-reanchor".into(),
            PolicySpec::PanicProbe { after } => format!("panic-probe={after}"),
        }
    }

    /// Paper-style display name: the grammar name with its parameter in
    /// parentheses (`tree-threshold(0.05)`).
    pub fn name(&self) -> String {
        let kv = self.key_value();
        match kv.split_once('=') {
            Some((key, value)) => format!("{key}({value})"),
            None => kv,
        }
    }

    /// Parse one policy in the [`PolicySpec::key_value`] grammar.
    /// `offered` is the subset the caller can run (`pfserve` cannot give
    /// the oracle its lookahead): a name outside it is refused exactly
    /// like an unknown one, and the error lists what is offered, after
    /// `also` — the words the caller handles itself (pfsim's `all, `).
    pub fn parse(
        s: &str,
        also: &str,
        offered: impl Fn(&PolicySpec) -> bool,
    ) -> Result<PolicySpec, String> {
        let parsed = if let Some(t) = s.strip_prefix("tree-threshold=") {
            Some(PolicySpec::TreeThreshold(t.parse().map_err(|_| format!("bad threshold {t:?}"))?))
        } else if let Some(k) = s.strip_prefix("tree-children=") {
            Some(PolicySpec::TreeChildren(
                k.parse().map_err(|_| format!("bad children count {k:?}"))?,
            ))
        } else {
            Self::PLAIN.into_iter().find(|p| p.key_value() == s)
        };
        parsed.filter(&offered).ok_or_else(|| {
            let plain: String =
                Self::PLAIN.iter().filter(|p| offered(p)).map(|p| p.key_value() + ", ").collect();
            format!(
                "unknown policy {s:?} (try: {also}{plain}tree-threshold=<p>, tree-children=<k>)"
            )
        })
    }

    /// Instantiate the policy, its H(n) estimator at the full horizon.
    pub fn build(&self, params: SystemParams, engine: EngineConfig) -> Box<dyn PrefetchPolicy> {
        self.build_for_cache(params, engine, usize::MAX)
    }

    /// Instantiate the policy to price a cache of `cache_blocks` blocks:
    /// engine policies size their H(n) estimator by it
    /// ([`CostBenefitEngine::for_cache`]), which changes no decision.
    pub fn build_for_cache(
        &self,
        params: SystemParams,
        engine: EngineConfig,
        cache_blocks: usize,
    ) -> Box<dyn PrefetchPolicy> {
        let sized = |cfg| CostBenefitEngine::for_cache(params, cfg, cache_blocks);
        match *self {
            PolicySpec::NoPrefetch => Box::new(NoPrefetch),
            PolicySpec::NextLimit => Box::new(NextLimit::new()),
            PolicySpec::Tree => Box::new(EnginePolicy::tree(sized(engine))),
            PolicySpec::TreeNextLimit => Box::new(EnginePolicy::tree_next_limit(sized(engine))),
            PolicySpec::TreeLvc => Box::new(EnginePolicy::tree_lvc(sized(engine))),
            PolicySpec::TreeThreshold(t) => Box::new(ChildPolicy::tree_threshold(t)),
            PolicySpec::TreeChildren(k) => Box::new(ChildPolicy::tree_children(k)),
            PolicySpec::PerfectSelector => Box::new(PerfectSelector::new()),
            PolicySpec::TreeReanchor => {
                let cfg = prefetch_core::EngineConfig { reanchor_after_reset: true, ..engine };
                Box::new(EnginePolicy::tree(sized(cfg)))
            }
            PolicySpec::PanicProbe { after } => Box::new(PanicProbePolicy { after, seen: 0 }),
        }
    }

    /// Whether the policy consumes the one-reference lookahead (only the
    /// oracle does; passing it to others is harmless but this lets tests
    /// assert the flow).
    pub fn uses_lookahead(&self) -> bool {
        matches!(self, PolicySpec::PerfectSelector)
    }
}

/// See [`PolicySpec::PanicProbe`]: a stand-in for a buggy policy.
#[derive(Debug)]
struct PanicProbePolicy {
    after: u64,
    seen: u64,
}

impl PrefetchPolicy for PanicProbePolicy {
    fn name(&self) -> &'static str {
        "panic-probe"
    }

    fn choose_demand_victim(&mut self, _cache: &prefetch_cache::BufferCache) -> Victim {
        Victim::DemandLru
    }

    fn after_reference(
        &mut self,
        _ctx: &RefContext,
        _cache: &mut prefetch_cache::BufferCache,
        _act: &mut PeriodActivity,
    ) {
        self.seen += 1;
        if self.seen >= self.after.max(1) {
            panic!("panic probe fired after {} references", self.seen);
        }
    }
}

/// Fault injection attached to a simulation run: the deterministic disk
/// fault schedule plus the retry pricing applied on the demand path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seeded per-disk fault schedule (see `prefetch_disk::FaultPlan`).
    pub plan: FaultPlan,
    /// Retry / backoff pricing for failed demand reads.
    pub retry: RetryPolicy,
}

/// A [`SimConfig`] that cannot be simulated.
#[derive(Clone, Debug, PartialEq)]
pub enum SimConfigError {
    /// The disk array configuration is invalid.
    Disk(prefetch_disk::ConfigError),
    /// The fault plan is invalid (rate out of range, bad duration, ...).
    Fault(prefetch_disk::ConfigError),
    /// The retry policy is invalid.
    Retry(String),
    /// Faults were requested but no disk array is configured; faults are
    /// injected by the array, so there is nothing to inject them into.
    FaultsWithoutDisks,
    /// The cache must hold at least one block.
    ZeroCacheBlocks,
    /// A system timing constant is non-finite or negative.
    Params(String),
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimConfigError::Disk(e) => write!(f, "disk array: {e}"),
            SimConfigError::Fault(e) => write!(f, "fault plan: {e}"),
            SimConfigError::Retry(e) => write!(f, "retry policy: {e}"),
            SimConfigError::FaultsWithoutDisks => {
                write!(f, "fault injection requires a finite disk array (--disks N)")
            }
            SimConfigError::ZeroCacheBlocks => write!(f, "cache must hold at least one block"),
            SimConfigError::Params(e) => write!(f, "system parameters: {e}"),
        }
    }
}

impl std::error::Error for SimConfigError {}

/// Full configuration of one simulation run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Total buffers in the combined demand + prefetch cache.
    pub cache_blocks: usize,
    /// System timing constants.
    pub params: SystemParams,
    /// Cost-benefit engine tunables (tree policies only). Also sizes the
    /// simulator's period-start ring: [`crate::clock::VirtualClock::for_run`]
    /// covers `4 × cache_blocks / engine.max_per_period` periods, so a
    /// prefetch that stays resident-but-unreferenced for its plausible
    /// lifetime is always priced from its true issue time.
    pub engine: EngineConfig,
    /// The policy to run.
    pub policy: PolicySpec,
    /// Optional finite disk array. `None` reproduces the paper's
    /// infinite-disk assumption (Section 6.3); `Some` prices stalls with
    /// per-disk FIFO queueing — an extension (see the `disks` experiment).
    pub disks: Option<prefetch_disk::DiskArrayConfig>,
    /// Optional deterministic fault injection (requires `disks`). `None`
    /// reproduces the fault-free model bit for bit.
    pub faults: Option<FaultConfig>,
    /// Collect per-phase wall-clock profiling ([`crate::SimResult::phases`]).
    /// Off by default: the disabled path costs one branch per probe. The
    /// flag never changes simulated metrics and is deliberately excluded
    /// from the checkpoint fingerprint.
    pub profile: bool,
}

impl SimConfig {
    /// A configuration with paper-default constants.
    pub fn new(cache_blocks: usize, policy: PolicySpec) -> Self {
        SimConfig {
            cache_blocks,
            params: SystemParams::patterson(),
            engine: EngineConfig::default(),
            policy,
            disks: None,
            faults: None,
            profile: false,
        }
    }

    /// Collect per-phase profiling during the run.
    pub fn with_profiling(mut self) -> Self {
        self.profile = true;
        self
    }

    /// Price I/O with a finite disk array of `num_disks` disks (paper-
    /// standard 15 ms service time, 64-block stripes).
    pub fn with_disks(mut self, num_disks: usize) -> Self {
        self.disks = Some(prefetch_disk::DiskArrayConfig::with_disks(num_disks));
        self
    }

    /// Inject faults with [`FaultPlan::uniform`] at `rate`, seeded by
    /// `seed`, scaled to the configured disks' service time, with the
    /// default retry policy. A rate of `0.0` yields an inactive plan that
    /// reproduces the fault-free run bit for bit.
    pub fn with_fault_rate(mut self, seed: u64, rate: f64) -> Self {
        let service_ms = self.disks.map_or(15.0, |d| d.service_ms);
        self.faults = Some(FaultConfig {
            plan: FaultPlan::uniform(seed, rate, service_ms),
            retry: RetryPolicy::default(),
        });
        self
    }

    /// Check the configuration for errors before running. `run_simulation`
    /// assumes a validated configuration; front ends (pfsim, experiments)
    /// call this and turn errors into nonzero exits instead of panics.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.cache_blocks == 0 {
            return Err(SimConfigError::ZeroCacheBlocks);
        }
        self.params.check().map_err(SimConfigError::Params)?;
        if let Some(d) = &self.disks {
            d.validate().map_err(SimConfigError::Disk)?;
        }
        if let Some(f) = &self.faults {
            f.plan.validate().map_err(SimConfigError::Fault)?;
            f.retry.check().map_err(SimConfigError::Retry)?;
            if self.disks.is_none() && f.plan.is_active() {
                return Err(SimConfigError::FaultsWithoutDisks);
            }
        }
        Ok(())
    }

    /// Override `T_cpu` (Figures 11-12 sweep).
    pub fn with_t_cpu(mut self, t_cpu: f64) -> Self {
        self.params.t_cpu = t_cpu;
        self
    }

    /// Limit the prefetch tree's node count (Figure 13).
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.engine.node_limit = limit;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn names_match_paper_terms() {
        assert_eq!(PolicySpec::NoPrefetch.name(), "no-prefetch");
        assert_eq!(PolicySpec::TreeNextLimit.name(), "tree-next-limit");
        assert_eq!(PolicySpec::TreeThreshold(0.05).name(), "tree-threshold(0.05)");
        assert_eq!(PolicySpec::TreeChildren(3).name(), "tree-children(3)");
    }

    fn parse_any(s: &str) -> Result<PolicySpec, String> {
        PolicySpec::parse(s, "all, ", |_| true)
    }

    #[test]
    fn grammar_round_trips_every_expressible_policy() {
        for p in [
            PolicySpec::NoPrefetch,
            PolicySpec::NextLimit,
            PolicySpec::Tree,
            PolicySpec::TreeNextLimit,
            PolicySpec::TreeLvc,
            PolicySpec::TreeThreshold(0.05),
            PolicySpec::TreeChildren(3),
            PolicySpec::PerfectSelector,
            PolicySpec::TreeReanchor,
            PolicySpec::PanicProbe { after: 7 },
        ] {
            // No wildcard arm: a new variant does not compile until it is
            // placed on one side (and added to the list above).
            match p {
                PolicySpec::NoPrefetch
                | PolicySpec::NextLimit
                | PolicySpec::Tree
                | PolicySpec::TreeNextLimit
                | PolicySpec::TreeLvc
                | PolicySpec::TreeThreshold(_)
                | PolicySpec::TreeChildren(_)
                | PolicySpec::PerfectSelector
                | PolicySpec::TreeReanchor => {
                    assert_eq!(parse_any(&p.key_value()), Ok(p), "{}", p.key_value())
                }
                // The harness's fault injector is deliberately outside the
                // grammar: its rendering must not parse.
                PolicySpec::PanicProbe { .. } => assert!(parse_any(&p.key_value()).is_err()),
            }
        }
    }

    proptest! {
        /// Any `f64` bit pattern but a `NaN` (which renders and parses,
        /// but is not `==` itself), any `usize`.
        #[test]
        fn grammar_round_trips_parameters(bits in any::<u64>(), unit in any::<f64>(), k in any::<usize>()) {
            for p in [
                PolicySpec::TreeChildren(k),
                PolicySpec::TreeThreshold(unit),
                PolicySpec::TreeThreshold(f64::from_bits(bits)),
            ] {
                if !matches!(p, PolicySpec::TreeThreshold(t) if t.is_nan()) {
                    prop_assert_eq!(parse_any(&p.key_value()), Ok(p));
                }
            }
        }
    }

    #[test]
    fn grammar_errors_are_pinned() {
        assert_eq!(
            parse_any("nonsense").unwrap_err(),
            "unknown policy \"nonsense\" (try: all, no-prefetch, next-limit, tree, \
             tree-next-limit, tree-lvc, tree-reanchor, perfect-selector, \
             tree-threshold=<p>, tree-children=<k>)"
        );
        // A narrowed offer refuses the name it leaves out as unknown and
        // stops listing it.
        assert_eq!(
            PolicySpec::parse("perfect-selector", "", |p| !p.uses_lookahead()).unwrap_err(),
            "unknown policy \"perfect-selector\" (try: no-prefetch, next-limit, tree, \
             tree-next-limit, tree-lvc, tree-reanchor, tree-threshold=<p>, \
             tree-children=<k>)"
        );
        assert_eq!(parse_any("tree-threshold=x").unwrap_err(), "bad threshold \"x\"");
        assert_eq!(parse_any("tree-children=-1").unwrap_err(), "bad children count \"-1\"");
        // The display spelling is not the grammar's.
        assert!(parse_any("tree-threshold(0.05)").is_err());
    }

    #[test]
    fn build_produces_matching_policies() {
        let p = SystemParams::patterson();
        let e = EngineConfig::default();
        for spec in [
            PolicySpec::NoPrefetch,
            PolicySpec::NextLimit,
            PolicySpec::Tree,
            PolicySpec::TreeNextLimit,
            PolicySpec::TreeLvc,
            PolicySpec::TreeThreshold(0.1),
            PolicySpec::TreeChildren(4),
            PolicySpec::PerfectSelector,
        ] {
            let policy = spec.build(p, e);
            // Parameterized names carry the parameter only in the spec.
            assert!(spec.name().starts_with(policy.name()));
        }
    }

    #[test]
    fn only_oracle_uses_lookahead() {
        assert!(PolicySpec::PerfectSelector.uses_lookahead());
        assert!(!PolicySpec::Tree.uses_lookahead());
    }

    #[test]
    fn config_builders() {
        let c = SimConfig::new(512, PolicySpec::Tree).with_t_cpu(320.0).with_node_limit(4096);
        assert_eq!(c.cache_blocks, 512);
        assert_eq!(c.params.t_cpu, 320.0);
        assert_eq!(c.engine.node_limit, 4096);
    }

    #[test]
    fn fault_builder_scales_to_disk_service_time() {
        let c = SimConfig::new(64, PolicySpec::Tree).with_disks(4).with_fault_rate(7, 0.05);
        let f = c.faults.unwrap();
        assert_eq!(f.plan.seed, 7);
        assert!(f.plan.is_active());
        c.validate().unwrap();
    }

    #[test]
    fn faults_without_disks_fail_validation() {
        let c = SimConfig::new(64, PolicySpec::Tree).with_fault_rate(7, 0.05);
        assert_eq!(c.validate().unwrap_err(), SimConfigError::FaultsWithoutDisks);
        // An inactive plan is fine without disks — it cannot fire.
        let c = SimConfig::new(64, PolicySpec::Tree).with_fault_rate(7, 0.0);
        c.validate().unwrap();
    }

    #[test]
    fn bad_configs_produce_typed_errors() {
        let c = SimConfig { cache_blocks: 0, ..SimConfig::new(64, PolicySpec::Tree) };
        assert_eq!(c.validate().unwrap_err(), SimConfigError::ZeroCacheBlocks);

        let c = SimConfig::new(64, PolicySpec::Tree).with_disks(0);
        assert!(matches!(c.validate().unwrap_err(), SimConfigError::Disk(_)));

        let mut c = SimConfig::new(64, PolicySpec::Tree).with_disks(2).with_fault_rate(1, 0.1);
        c.faults.as_mut().unwrap().plan.transient_error_rate = 1.5;
        assert!(matches!(c.validate().unwrap_err(), SimConfigError::Fault(_)));

        let mut c = SimConfig::new(64, PolicySpec::Tree).with_disks(2).with_fault_rate(1, 0.1);
        c.faults.as_mut().unwrap().retry.backoff_base_ms = -1.0;
        assert!(matches!(c.validate().unwrap_err(), SimConfigError::Retry(_)));
        assert!(!format!("{}", c.validate().unwrap_err()).is_empty());
    }
}
