//! The decomposed simulation core.
//!
//! [`Simulator`] composes a [`VirtualClock`] (time and period starts), an
//! [`IoSubsystem`] (disk pricing, faults, retries) and a policy-driven
//! cache, advancing one access period per [`Simulator::step`] and
//! narrating everything through [`SimObserver`] events. It consumes
//! records one at a time, so driving it from a streaming
//! [`TraceSource`] gives paper-scale runs (the original cello trace is
//! 3.5 M references) in memory independent of trace length; a one-record
//! lookahead buffer preserves the `RefContext::next_block` oracle input
//! exactly as the materialized path provides it.

use crate::clock::VirtualClock;
use crate::config::SimConfig;
use crate::io_subsystem::IoSubsystem;
use crate::observer::{SimEvent, SimObserver};
use prefetch_cache::buffer_cache::RefOutcome;
use prefetch_cache::BufferCache;
use prefetch_core::policy::{apply_victim, PeriodActivity, PrefetchPolicy, RefContext, RefKind};
use prefetch_telemetry::{Phase, PhaseTimer, PhaseTimes};
use prefetch_trace::io::TraceIoError;
use prefetch_trace::{BlockId, TraceRecord, TraceSource};

/// One simulation run in progress: feed it records with
/// [`Simulator::step`], then [`Simulator::finish`].
pub struct Simulator {
    config: SimConfig,
    policy: Box<dyn PrefetchPolicy>,
    cache: BufferCache,
    clock: VirtualClock,
    io: IoSubsystem,
    period: u64,
    act: PeriodActivity,
    faulted: Vec<BlockId>,
    /// Simulator-side phase probes (cache ops, I/O submission); the
    /// policy's engine keeps its own timer for the predictor phases.
    timer: PhaseTimer,
}

impl Simulator {
    /// Set up a run under `config`.
    ///
    /// # Panics
    /// Panics on an invalid configuration; front ends must run
    /// [`SimConfig::validate`] first.
    pub fn new(config: &SimConfig) -> Self {
        let mut policy =
            config.policy.build_for_cache(config.params, config.engine, config.cache_blocks);
        if config.profile {
            policy.enable_profiling();
        }
        Simulator {
            policy,
            cache: BufferCache::new(config.cache_blocks),
            clock: VirtualClock::for_run(config.cache_blocks, config.engine.max_per_period),
            io: IoSubsystem::from_config(config),
            period: 0,
            act: PeriodActivity::default(),
            faulted: Vec::new(),
            timer: PhaseTimer::new(config.profile),
            config: *config,
        }
    }

    /// Access periods completed so far.
    pub fn periods(&self) -> u64 {
        self.period
    }

    /// The virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The policy's prefetch tree, if the configured policy keeps one
    /// (`--save-tree` snapshots it at end of run).
    pub fn tree(&self) -> Option<&prefetch_tree::PrefetchTree> {
        self.policy.tree()
    }

    /// Warm-start the policy from a restored `pftree-snap/v2` tree before
    /// the first step. Returns `false` (dropping the tree) when the
    /// configured policy keeps no tree.
    pub fn install_tree(&mut self, tree: prefetch_tree::PrefetchTree) -> bool {
        self.policy.install_tree(tree)
    }

    /// The policy's predicted-vs-realized calibration accumulators, if the
    /// configured policy tracks them (the cost-benefit engine does).
    pub fn calibration(&self) -> Option<&prefetch_core::CalibrationTracker> {
        self.policy.calibration()
    }

    /// Process one reference: serve it from the cache (demand hits touch,
    /// prefetch hits migrate — Figure 2), demand-fetch on a miss with a
    /// policy-chosen victim, hand the completed reference to the policy,
    /// and queue its prefetches (Section 7). `next_block` is the
    /// one-reference lookahead consumed by the `PerfectSelector` oracle.
    pub fn step<O: SimObserver + ?Sized>(
        &mut self,
        rec: TraceRecord,
        next_block: Option<BlockId>,
        obs: &mut O,
    ) {
        let period = self.period;
        self.clock.begin_period(period);
        let p = &self.config.params;

        let mut evicted_prefetch = false;
        let tok = self.timer.begin();
        let outcome = self.cache.reference(rec.block);
        self.timer.end(Phase::CacheOps, tok);
        let (kind, stall_ms) = match outcome {
            RefOutcome::DemandHit => (RefKind::DemandHit, 0.0),
            RefOutcome::PrefetchHit(meta) => {
                // Stall for whatever part of the prefetch I/O has not yet
                // completed (Figure 5, access period 3).
                let stall = self.io.prefetch_hit_stall(rec.block, meta.issued_at, &self.clock, p);
                (RefKind::PrefetchHit, stall)
            }
            RefOutcome::Miss => {
                if self.cache.is_full() {
                    // Victim *choice* is the policy's cost-benefit work
                    // (charged by its own timer); applying it is ours.
                    let victim = self.policy.choose_demand_victim(&self.cache);
                    let tok = self.timer.begin();
                    if apply_victim(victim, &mut self.cache) {
                        evicted_prefetch = true;
                    }
                    self.timer.end(Phase::CacheOps, tok);
                }
                let tok = self.timer.begin();
                self.cache.insert_demand(rec.block);
                self.timer.end(Phase::CacheOps, tok);
                let tok = self.timer.begin();
                let fetch = self
                    .io
                    .demand_fetch(rec.block, period, &self.clock, p, &mut |e| obs.on_event(&e));
                self.timer.end(Phase::IoSubmission, tok);
                if fetch.read_succeeded && self.io.faults_active() {
                    self.policy.note_read_success(rec.block);
                }
                (RefKind::Miss, fetch.stall_ms)
            }
        };
        self.clock.advance(stall_ms);
        obs.on_event(&SimEvent::Reference {
            period,
            record: rec,
            kind,
            stall_ms,
            evicted_prefetch,
        });

        // Let engine-backed policies realize the calibration counterparts
        // of their earlier predictions before the next prefetch round.
        self.policy.observe_served(rec.block, kind, stall_ms);

        let ctx = RefContext { block: rec.block, kind, next_block, period };
        // Reuse the block-list allocation across periods.
        let mut blocks = std::mem::take(&mut self.act.prefetched_blocks);
        blocks.clear();
        self.act = PeriodActivity { prefetched_blocks: blocks, ..PeriodActivity::default() };
        self.policy.after_reference(&ctx, &mut self.cache, &mut self.act);
        obs.on_event(&SimEvent::Period { period, kind, activity: &self.act });

        // Queue this period's prefetch I/O. A faulted prefetch is treated
        // as a priced mispredict: the buffer is released immediately (no
        // retries compete with demand traffic), the initiation overhead
        // stays charged via `prefetches_issued`, and repeat offenders are
        // quarantined by the policy so the Section 7 loop stops
        // re-issuing them.
        self.faulted.clear();
        let tok = self.timer.begin();
        self.io.submit_prefetches(
            &self.act.prefetched_blocks,
            period,
            self.clock.now(),
            p.t_driver,
            &mut self.faulted,
            &mut |e| obs.on_event(&e),
        );
        self.timer.end(Phase::IoSubmission, tok);
        for i in 0..self.faulted.len() {
            let b = self.faulted[i];
            self.cache.cancel_prefetch(b);
            let quarantined = self.policy.note_prefetch_fault(b);
            obs.on_event(&SimEvent::PrefetchFault { period, block: b, quarantined });
        }
        self.io.forget_departed_prefetches(&self.cache);

        // Advance the virtual clock by the period's foreground work
        // (Figure 3): the cache read, the prefetch initiations, and the
        // computation until the next request.
        self.clock.advance(p.t_hit + self.act.prefetches_issued as f64 * p.t_driver + p.t_cpu);

        debug_assert!(self.cache.len() <= self.cache.capacity());
        self.period += 1;
    }

    /// End the run: emits [`SimEvent::End`] with the elapsed virtual time
    /// and the disk summary, and returns the per-phase profile (all zero
    /// unless the config enabled profiling).
    pub fn finish<O: SimObserver + ?Sized>(self, obs: &mut O) -> PhaseTimes {
        obs.on_event(&SimEvent::End { elapsed_ms: self.clock.now(), disk: self.io.summary() });
        let mut times = self.timer.times();
        times.merge(&self.policy.phase_times());
        times
    }

    /// Feed every record of `source` through [`Simulator::step`], narrating
    /// to `obs`. Buffers exactly one record of lookahead (for the oracle's
    /// `next_block`); memory use is the source's, independent of length.
    /// This is the only look-ahead loop in the crate: every front end
    /// (`Simulator::run`, the runner, the harness) drives a source here.
    pub fn drive<S, O>(&mut self, source: &mut S, obs: &mut O) -> Result<(), TraceIoError>
    where
        S: TraceSource,
        O: SimObserver + ?Sized,
    {
        let mut pending = source.next_record()?;
        while let Some(rec) = pending {
            let next = source.next_record()?;
            self.step(rec, next.map(|r| r.block), obs);
            pending = next;
        }
        Ok(())
    }

    /// A whole run in one call: [`Simulator::new`], [`Simulator::drive`],
    /// [`Simulator::finish`]. Returns the per-phase profile (zero without
    /// `config.profile`).
    pub fn run<S, O>(
        source: &mut S,
        config: &SimConfig,
        obs: &mut O,
    ) -> Result<PhaseTimes, TraceIoError>
    where
        S: TraceSource,
        O: SimObserver + ?Sized,
    {
        let mut sim = Simulator::new(config);
        sim.drive(source, obs)?;
        Ok(sim.finish(obs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicySpec;
    use crate::metrics::SimMetrics;
    use crate::observer::NullObserver;
    use prefetch_trace::synth::TraceKind;

    #[test]
    fn step_by_step_matches_the_batch_driver() {
        let trace = TraceKind::Snake.generate(3000, 5);
        let cfg = SimConfig::new(128, PolicySpec::TreeNextLimit);
        let batch = crate::runner::run_simulation(&trace, &cfg);

        let mut metrics = SimMetrics::default();
        let mut sim = Simulator::new(&cfg);
        let records = trace.records();
        for (i, rec) in records.iter().enumerate() {
            sim.step(*rec, records.get(i + 1).map(|r| r.block), &mut metrics);
        }
        assert_eq!(sim.periods(), 3000);
        sim.finish(&mut metrics);
        metrics.check_invariants();
        assert_eq!(metrics, batch.metrics);
    }

    #[test]
    fn null_observer_runs_the_same_simulation() {
        let trace = TraceKind::Cad.generate(2000, 3);
        let cfg = SimConfig::new(256, PolicySpec::Tree).with_disks(2).with_fault_rate(7, 0.1);
        cfg.validate().unwrap();
        let mut source = trace.source();
        Simulator::run(&mut source, &cfg, &mut NullObserver).unwrap();
    }

    #[test]
    fn finite_disk_completion_map_is_bounded_by_the_cache() {
        // Most cello prefetches are evicted unreferenced; each used to
        // leave its completion time behind for the rest of the run.
        let trace = TraceKind::Cello.generate(30_000, 5);
        const CACHE: usize = 64;
        let cfg = SimConfig::new(CACHE, PolicySpec::TreeNextLimit).with_disks(4);
        cfg.validate().unwrap();
        let mut sim = Simulator::new(&cfg);
        for rec in trace.records() {
            sim.step(*rec, None, &mut NullObserver);
            let IoSubsystem::Finite(io) = &sim.io else { panic!("--disks builds the finite path") };
            assert!(io.prefetch_completion.len() <= 2 * CACHE);
        }
    }

    #[test]
    fn profiling_reports_phases_without_changing_metrics() {
        let trace = TraceKind::Snake.generate(2000, 5);
        let plain = SimConfig::new(128, PolicySpec::TreeNextLimit);
        let profiled = SimConfig { profile: true, ..plain };
        let mut m1 = SimMetrics::default();
        let mut m2 = SimMetrics::default();
        let t1 = Simulator::run(&mut trace.source(), &plain, &mut m1).unwrap();
        let t2 = Simulator::run(&mut trace.source(), &profiled, &mut m2).unwrap();
        assert_eq!(m1, m2, "profiling must not perturb simulated metrics");
        assert!(t1.is_zero(), "NullTelemetry path must not accumulate time");
        assert!(!t2.is_zero(), "profiled run must report phase times");
        assert!(t2.get(prefetch_telemetry::Phase::TreeUpdate) > 0);
        assert!(t2.get(prefetch_telemetry::Phase::CacheOps) > 0);
    }

    #[test]
    fn observer_pair_sees_identical_streams() {
        let trace = TraceKind::Sitar.generate(2000, 8);
        let cfg = SimConfig::new(128, PolicySpec::NextLimit);
        let mut pair = (SimMetrics::default(), SimMetrics::default());
        let mut source = trace.source();
        Simulator::run(&mut source, &cfg, &mut pair).unwrap();
        assert_eq!(pair.0, pair.1);
        assert_eq!(pair.0.refs, 2000);
    }
}
