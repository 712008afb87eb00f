//! Batch front ends over the decomposed [`crate::simulator::Simulator`].
//!
//! One run body, `run_body`, turns a [`TraceSource`] into a
//! [`SimResult`]. [`run_simulation`] (a materialized trace) and
//! [`run_source`] (any streaming source) are its unguarded wrappers;
//! [`crate::harness`] calls it inside a panic domain. Identical record
//! streams therefore give bit-identical metrics on every path.

use crate::config::SimConfig;
use crate::metrics::SimMetrics;
use crate::observer::{NullObserver, SimObserver};
use crate::simulator::Simulator;
use prefetch_telemetry::{log as tlog, PhaseTimes};
use prefetch_trace::io::TraceIoError;
use prefetch_trace::{Trace, TraceSource};
use prefetch_tree::PrefetchTree;
use std::sync::Arc;

/// Result of one simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// The configuration that produced it.
    pub config: SimConfig,
    /// Trace name (from metadata). Shared, not cloned, across the cells
    /// of a sweep.
    pub trace: Arc<str>,
    /// Collected metrics.
    pub metrics: SimMetrics,
    /// Malformed records the trace reader skipped (lossy file sources
    /// only; always zero for in-memory and synthetic traces). Nonzero
    /// means the metrics describe a *shorter* stream than the file holds.
    pub skipped_records: u64,
    /// Wall-clock profile of the run's five phases (all zero unless
    /// `config.profile` — or the harness's profiling flag — was set).
    /// Real time, not virtual: excluded from metric comparisons.
    pub phases: PhaseTimes,
}

/// The run body every front end shares. `extra` sees each event after
/// the metrics collector. `name` is the result's trace name when the
/// caller already holds one (a sweep shares one allocation across its
/// cells); `None` reads it from the source *after* the run, since file
/// sources may refine their metadata while streaming. `warm_tree` and
/// `want_tree` are documented on [`crate::harness::run_source_guarded`].
pub(crate) fn run_body<S, O>(
    source: &mut S,
    config: &SimConfig,
    name: Option<Arc<str>>,
    extra: &mut O,
    warm_tree: Option<PrefetchTree>,
    want_tree: bool,
) -> Result<(SimResult, Option<PrefetchTree>), TraceIoError>
where
    S: TraceSource,
    O: SimObserver + ?Sized,
{
    let mut obs = (SimMetrics::default(), extra);
    let mut sim = Simulator::new(config);
    if let Some(tree) = warm_tree {
        if !sim.install_tree(tree) {
            tlog::warn("warm_start_dropped").str("policy", config.policy.name()).emit();
        }
    }
    sim.drive(source, &mut obs)?;
    let tree = if want_tree { sim.tree().cloned() } else { None };
    let phases = sim.finish(&mut obs);
    let metrics = obs.0;
    metrics.check_invariants();
    let result = SimResult {
        config: *config,
        trace: name.unwrap_or_else(|| Arc::from(source.meta().name.as_str())),
        metrics,
        skipped_records: source.skipped(),
        phases,
    };
    Ok((result, tree))
}

/// Run `trace` under `config` and collect metrics.
pub fn run_simulation(trace: &Trace, config: &SimConfig) -> SimResult {
    run_source(&mut trace.source(), config).expect("in-memory sources cannot fail")
}

/// Run a streaming source under `config`. The source is consumed to its
/// end; rewind it first if it has already been read. Fails only if the
/// source does (synthetic and in-memory sources never do).
pub fn run_source<S: TraceSource>(
    source: &mut S,
    config: &SimConfig,
) -> Result<SimResult, TraceIoError> {
    run_body(source, config, None, &mut NullObserver, None, false).map(|(result, _)| result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicySpec;
    use prefetch_trace::synth::TraceKind;
    use prefetch_trace::Trace;

    #[test]
    fn no_prefetch_on_a_loop_bigger_than_cache_always_misses() {
        // Cyclic access over N+1 blocks through an N-block LRU: pathological
        // 100% miss rate (the classic LRU worst case).
        let blocks: Vec<u64> = (0..50).flat_map(|_| 0..9u64).collect();
        let trace = Trace::from_blocks(blocks);
        let r = run_simulation(&trace, &SimConfig::new(8, PolicySpec::NoPrefetch));
        assert!((r.metrics.miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_prefetch_on_a_fitting_loop_only_cold_misses() {
        let blocks: Vec<u64> = (0..50).flat_map(|_| 0..8u64).collect();
        let trace = Trace::from_blocks(blocks);
        let r = run_simulation(&trace, &SimConfig::new(16, PolicySpec::NoPrefetch));
        assert_eq!(r.metrics.misses, 8);
        assert_eq!(r.metrics.prefetches_issued, 0);
        assert_eq!(r.metrics.prefetch_hits, 0);
    }

    #[test]
    fn next_limit_absorbs_sequential_misses() {
        let trace = Trace::from_blocks(0u64..2000);
        let base = run_simulation(&trace, &SimConfig::new(64, PolicySpec::NoPrefetch));
        let nl = run_simulation(&trace, &SimConfig::new(64, PolicySpec::NextLimit));
        assert!((base.metrics.miss_rate() - 1.0).abs() < 1e-12);
        assert!(
            nl.metrics.miss_rate() < 0.6,
            "next-limit should absorb a sequential stream: {}",
            nl.metrics.miss_rate()
        );
        assert!(nl.metrics.prefetch_hits > 0);
    }

    #[test]
    fn tree_learns_a_repeated_scattered_pattern() {
        // Scattered (non-sequential) repeating pattern, longer than the
        // cache: no-prefetch ~100% misses; tree should recover much of it.
        let pattern: Vec<u64> = vec![5, 900, 17, 333, 72, 1001, 4, 256, 610, 48, 81, 777];
        let blocks: Vec<u64> = (0..300).flat_map(|_| pattern.clone()).collect();
        let trace = Trace::from_blocks(blocks);
        let base = run_simulation(&trace, &SimConfig::new(8, PolicySpec::NoPrefetch));
        let tree = run_simulation(&trace, &SimConfig::new(8, PolicySpec::Tree));
        assert!((base.metrics.miss_rate() - 1.0).abs() < 1e-9);
        assert!(
            tree.metrics.miss_rate() < 0.7 * base.metrics.miss_rate(),
            "tree {} vs base {}",
            tree.metrics.miss_rate(),
            base.metrics.miss_rate()
        );
    }

    #[test]
    fn all_policies_satisfy_invariants_on_all_traces() {
        for kind in TraceKind::ALL {
            let trace = kind.generate(4000, 3);
            for spec in [
                PolicySpec::NoPrefetch,
                PolicySpec::NextLimit,
                PolicySpec::Tree,
                PolicySpec::TreeNextLimit,
                PolicySpec::TreeLvc,
                PolicySpec::TreeThreshold(0.05),
                PolicySpec::TreeChildren(3),
                PolicySpec::PerfectSelector,
            ] {
                let r = run_simulation(&trace, &SimConfig::new(256, spec));
                // check_invariants already ran inside; spot-check a few.
                assert_eq!(r.metrics.refs, 4000, "{kind} {spec:?}");
                assert!(r.metrics.elapsed_ms > 0.0);
            }
        }
    }

    #[test]
    fn perfect_selector_beats_tree_on_predictable_workload() {
        let trace = TraceKind::Cad.generate(30_000, 7);
        let tree = run_simulation(&trace, &SimConfig::new(512, PolicySpec::Tree));
        let oracle = run_simulation(&trace, &SimConfig::new(512, PolicySpec::PerfectSelector));
        assert!(
            oracle.metrics.miss_rate() <= tree.metrics.miss_rate() + 0.02,
            "oracle {} vs tree {}",
            oracle.metrics.miss_rate(),
            tree.metrics.miss_rate()
        );
    }

    #[test]
    fn results_are_deterministic() {
        let trace = TraceKind::Snake.generate(5000, 11);
        let cfg = SimConfig::new(128, PolicySpec::TreeNextLimit);
        let a = run_simulation(&trace, &cfg);
        let b = run_simulation(&trace, &cfg);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn streaming_source_matches_materialized_run() {
        // The same synthetic stream, materialized vs streamed, must
        // produce bit-identical metrics (the constant-memory guarantee
        // costs nothing in fidelity).
        let refs = 5000;
        let seed = 11;
        for kind in TraceKind::ALL {
            let trace = kind.generate(refs, seed);
            let cfg = SimConfig::new(128, PolicySpec::TreeNextLimit);
            let batch = run_simulation(&trace, &cfg);
            let mut stream = kind.stream(refs, seed);
            let streamed = run_source(&mut stream, &cfg).unwrap();
            assert_eq!(batch.metrics, streamed.metrics, "{kind}");
            assert_eq!(batch.trace, streamed.trace, "{kind}");
        }
    }

    #[test]
    fn run_body_shares_a_supplied_name_allocation() {
        let trace = TraceKind::Cad.generate(1000, 2);
        let name: Arc<str> = Arc::from(trace.meta().name.as_str());
        let cfg = SimConfig::new(64, PolicySpec::Tree);
        let supplied = Some(name.clone());
        let (r, tree) =
            run_body(&mut trace.source(), &cfg, supplied, &mut NullObserver, None, false).unwrap();
        assert!(Arc::ptr_eq(&r.trace, &name));
        assert!(tree.is_none(), "no tree was asked for");
    }

    #[test]
    fn zero_fault_rate_reproduces_the_fault_free_run_bit_for_bit() {
        let trace = TraceKind::Cad.generate(6000, 5);
        for spec in [PolicySpec::NoPrefetch, PolicySpec::Tree, PolicySpec::TreeNextLimit] {
            let plain = SimConfig::new(256, spec).with_disks(4);
            let faulted = plain.with_fault_rate(99, 0.0);
            faulted.validate().unwrap();
            let a = run_simulation(&trace, &plain);
            let b = run_simulation(&trace, &faulted);
            assert_eq!(a.metrics, b.metrics, "{spec:?}");
            assert_eq!(b.metrics.total_faults(), 0);
        }
    }

    #[test]
    fn faulted_runs_are_deterministic_and_count_faults() {
        let trace = TraceKind::Snake.generate(6000, 11);
        let cfg =
            SimConfig::new(128, PolicySpec::TreeNextLimit).with_disks(2).with_fault_rate(7, 0.08);
        cfg.validate().unwrap();
        let a = run_simulation(&trace, &cfg);
        let b = run_simulation(&trace, &cfg);
        assert_eq!(a.metrics, b.metrics);
        assert!(a.metrics.demand_faults > 0, "no demand faults at rate 0.08");
        assert!(a.metrics.demand_retries > 0, "faults never retried");
        assert!(a.metrics.retry_backoff_ms > 0.0, "retries never backed off");
        assert!(a.metrics.prefetch_faults > 0, "no prefetch faults at rate 0.08");
    }

    #[test]
    fn all_policies_survive_heavy_faults() {
        let trace = TraceKind::Cad.generate(4000, 3);
        for spec in [
            PolicySpec::NoPrefetch,
            PolicySpec::NextLimit,
            PolicySpec::Tree,
            PolicySpec::TreeNextLimit,
            PolicySpec::TreeLvc,
            PolicySpec::TreeThreshold(0.05),
            PolicySpec::TreeChildren(3),
            PolicySpec::PerfectSelector,
        ] {
            let cfg = SimConfig::new(256, spec).with_disks(4).with_fault_rate(13, 0.25);
            cfg.validate().unwrap();
            let r = run_simulation(&trace, &cfg);
            assert_eq!(r.metrics.refs, 4000, "{spec:?}");
            assert!(r.metrics.demand_faults > 0, "{spec:?} saw no faults at rate 0.25");
        }
    }

    #[test]
    fn faults_slow_the_run_down() {
        let trace = TraceKind::Snake.generate(8000, 2);
        let plain = SimConfig::new(128, PolicySpec::Tree).with_disks(2);
        let faulted = plain.with_fault_rate(5, 0.15);
        let a = run_simulation(&trace, &plain);
        let b = run_simulation(&trace, &faulted);
        assert!(
            b.metrics.elapsed_ms > a.metrics.elapsed_ms,
            "faults should cost virtual time: {} vs {}",
            b.metrics.elapsed_ms,
            a.metrics.elapsed_ms
        );
    }

    #[test]
    fn repeat_prefetch_faults_quarantine_blocks() {
        // At a very high fault rate the tree policy's prefetches fail
        // repeatedly; the quarantine must engage and be visible in the
        // counters.
        let trace = TraceKind::Cad.generate(8000, 9);
        let cfg =
            SimConfig::new(256, PolicySpec::TreeNextLimit).with_disks(1).with_fault_rate(3, 0.5);
        let r = run_simulation(&trace, &cfg);
        assert!(r.metrics.prefetch_faults > 0);
        assert!(
            r.metrics.blocks_quarantined > 0,
            "no block crossed the quarantine threshold under 50% faults"
        );
    }
}
