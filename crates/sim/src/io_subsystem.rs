//! The simulator's I/O path.
//!
//! [`IoSubsystem`] unifies the paper's infinite-disk assumption (every I/O
//! takes `t_driver + t_disk`, Section 6.3) with the finite
//! [`prefetch_disk::DiskArray`] extension (per-disk FIFO queueing and
//! deterministic fault injection) behind one interface, so the simulator
//! loop no longer branches on the disk model. All fault, retry, and
//! quarantine-submission logic lives here, as does the per-run map of
//! outstanding prefetch completion times.

use crate::clock::VirtualClock;
use crate::config::SimConfig;
use crate::observer::{DiskSummary, SimEvent};
use prefetch_cache::{BufferCache, Partition};
use prefetch_core::{RetryPolicy, SystemParams};
use prefetch_hash::FxHashMap;
use prefetch_trace::BlockId;

/// Outcome of a demand fetch.
#[derive(Clone, Copy, Debug)]
pub struct DemandFetch {
    /// Stall charged to the referencing process (ms), measured from the
    /// current clock time to the fetch's completion — includes queueing,
    /// retry backoff, and any give-up penalty.
    pub stall_ms: f64,
    /// Whether the disk read ultimately succeeded (always `true` without
    /// fault injection). Drives the policy's fault-quarantine decay.
    pub read_succeeded: bool,
}

/// The disk model behind the simulator.
pub enum IoSubsystem {
    /// The paper's infinite-disk assumption: no queueing, no faults;
    /// prefetch overlap is priced from the issue period's start time.
    Infinite,
    /// Finite disk array with optional deterministic fault injection
    /// (boxed: the array state dwarfs the dataless `Infinite` variant,
    /// and there is exactly one subsystem per run).
    Finite(Box<FiniteIo>),
}

/// State of the finite-array path.
pub struct FiniteIo {
    /// The array pricing queueing (and injecting faults).
    pub array: prefetch_disk::DiskArray,
    /// Retry / backoff pricing for faulted demand reads.
    pub retry: RetryPolicy,
    /// Whether the array actually injects faults (retry and quarantine
    /// bookkeeping engage only then).
    pub faults_active: bool,
    /// Completion time of each outstanding prefetch, by block. A prefetch
    /// hit consumes its entry; [`IoSubsystem::forget_departed_prefetches`]
    /// drops those of blocks evicted unreferenced.
    pub prefetch_completion: FxHashMap<u64, f64>,
}

impl IoSubsystem {
    /// Build the subsystem a configuration asks for.
    ///
    /// # Panics
    /// Panics on an invalid disk/fault configuration; front ends must run
    /// [`SimConfig::validate`] first.
    pub fn from_config(config: &SimConfig) -> Self {
        match config.disks {
            None => IoSubsystem::Infinite,
            Some(d) => {
                let array = match config.faults {
                    Some(f) if f.plan.is_active() => {
                        prefetch_disk::DiskArray::with_faults(d, f.plan)
                    }
                    _ => prefetch_disk::DiskArray::new(d),
                }
                .expect("invalid SimConfig (run SimConfig::validate first)");
                let faults_active = array.fault_plan().is_some();
                IoSubsystem::Finite(Box::new(FiniteIo {
                    array,
                    retry: config.faults.map(|f| f.retry).unwrap_or_default(),
                    faults_active,
                    prefetch_completion: FxHashMap::default(),
                }))
            }
        }
    }

    /// Whether fault injection is live on this subsystem.
    pub fn faults_active(&self) -> bool {
        matches!(self, IoSubsystem::Finite(f) if f.faults_active)
    }

    /// Demand-fetch `block` at the clock's current time; returns the
    /// stall (Figure 3a). With a finite array the fetch may queue behind
    /// earlier I/O; under fault injection a failed read retries with
    /// exponential backoff in virtual time, and when the budget runs out
    /// it is priced with the give-up penalty instead of looping forever.
    /// Fault attempts are narrated through `emit`.
    pub fn demand_fetch(
        &mut self,
        block: BlockId,
        period: u64,
        clock: &VirtualClock,
        p: &SystemParams,
        emit: &mut dyn FnMut(SimEvent<'_>),
    ) -> DemandFetch {
        match self {
            IoSubsystem::Infinite => {
                emit(SimEvent::DiskRead { period, block, prefetch: false, queue_ms: 0.0 });
                DemandFetch { stall_ms: p.t_driver + p.t_disk, read_succeeded: true }
            }
            IoSubsystem::Finite(io) => {
                let now_ms = clock.now();
                let mut attempts = 0u32;
                let mut submit_at = now_ms + p.t_driver;
                let mut read_succeeded = false;
                let completion = loop {
                    match io.array.submit(block, submit_at) {
                        Ok(c) => {
                            read_succeeded = true;
                            emit(SimEvent::DiskRead {
                                period,
                                block,
                                prefetch: false,
                                queue_ms: c.start_ms - submit_at,
                            });
                            break c.completion_ms;
                        }
                        Err(fault) => {
                            attempts += 1;
                            if io.retry.should_retry(attempts) {
                                let backoff = io.retry.backoff_ms(attempts);
                                emit(SimEvent::DemandFault {
                                    period,
                                    block,
                                    attempt: attempts,
                                    retried: true,
                                    backoff_ms: backoff,
                                });
                                submit_at = fault.retry_at_ms().max(submit_at) + backoff;
                            } else {
                                emit(SimEvent::DemandFault {
                                    period,
                                    block,
                                    attempt: attempts,
                                    retried: false,
                                    backoff_ms: 0.0,
                                });
                                emit(SimEvent::DemandGiveUp {
                                    period,
                                    block,
                                    penalty_ms: io.retry.give_up_penalty_ms,
                                });
                                break fault.retry_at_ms().max(submit_at)
                                    + io.retry.give_up_penalty_ms;
                            }
                        }
                    }
                };
                DemandFetch { stall_ms: completion - now_ms, read_succeeded }
            }
        }
    }

    /// Stall a prefetch hit must absorb (Figure 5, access period 3): the
    /// part of the prefetch I/O that has not completed yet. On the
    /// infinite disk this is priced from the issue period's start time;
    /// on a finite array from the tracked completion time (consumed here).
    pub fn prefetch_hit_stall(
        &mut self,
        block: BlockId,
        issued_at: u64,
        clock: &VirtualClock,
        p: &SystemParams,
    ) -> f64 {
        match self {
            IoSubsystem::Infinite => clock.prefetch_stall(issued_at, p.t_driver + p.t_disk),
            IoSubsystem::Finite(io) => io
                .prefetch_completion
                .remove(&block.0)
                .map(|completes| (completes - clock.now()).max(0.0))
                .unwrap_or(0.0),
        }
    }

    /// Queue one access period's prefetch I/O. Each submission is spaced
    /// one `t_driver` after the previous (initiation order). Blocks whose
    /// submission faulted are appended to `faulted` for the caller to
    /// release and (maybe) quarantine — a faulted prefetch is a priced
    /// mispredict: no retries compete with demand traffic. Successful
    /// submissions are narrated through `emit` as prefetch
    /// [`SimEvent::DiskRead`]s.
    pub fn submit_prefetches(
        &mut self,
        blocks: &[BlockId],
        period: u64,
        now_ms: f64,
        t_driver: f64,
        faulted: &mut Vec<BlockId>,
        emit: &mut dyn FnMut(SimEvent<'_>),
    ) {
        match self {
            IoSubsystem::Infinite => {
                for &b in blocks {
                    emit(SimEvent::DiskRead { period, block: b, prefetch: true, queue_ms: 0.0 });
                }
            }
            IoSubsystem::Finite(io) => {
                for (j, &b) in blocks.iter().enumerate() {
                    let issue = now_ms + (j + 1) as f64 * t_driver;
                    match io.array.submit(b, issue) {
                        Ok(c) => {
                            io.prefetch_completion.insert(b.0, c.completion_ms);
                            emit(SimEvent::DiskRead {
                                period,
                                block: b,
                                prefetch: true,
                                queue_ms: c.start_ms - issue,
                            });
                        }
                        Err(_) => {
                            io.prefetch_completion.remove(&b.0);
                            faulted.push(b);
                        }
                    }
                }
            }
        }
    }

    /// Keep the completion map O(cache): once it outgrows twice the cache,
    /// drop every block no longer in the prefetch partition. Such an entry
    /// is never read — only a prefetch hit reads one, and a block can only
    /// re-enter the partition through [`Self::submit_prefetches`], which
    /// overwrites it — so results do not depend on when this runs.
    pub fn forget_departed_prefetches(&mut self, cache: &BufferCache) {
        if let IoSubsystem::Finite(io) = self {
            if io.prefetch_completion.len() > 2 * cache.capacity() {
                io.prefetch_completion
                    .retain(|&b, _| cache.whereis(BlockId(b)) == Some(Partition::Prefetch));
            }
        }
    }

    /// End-of-run disk statistics (`None` on the infinite disk).
    pub fn summary(&self) -> Option<DiskSummary> {
        match self {
            IoSubsystem::Infinite => None,
            IoSubsystem::Finite(io) => {
                let s = io.array.stats();
                Some(DiskSummary {
                    queue_ms: s.queue_ms,
                    queued_requests: s.queued_requests,
                    mean_utilization: s.mean_utilization(),
                    slowed_requests: s.slowed_requests,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicySpec;

    #[test]
    fn infinite_disk_prices_the_full_fetch() {
        let cfg = SimConfig::new(64, PolicySpec::NoPrefetch);
        let mut io = IoSubsystem::from_config(&cfg);
        assert!(!io.faults_active());
        let clock = VirtualClock::new(512);
        let mut events = 0usize;
        let f = io.demand_fetch(BlockId(1), 0, &clock, &cfg.params, &mut |e| {
            assert!(
                matches!(e, SimEvent::DiskRead { prefetch: false, queue_ms, .. } if queue_ms == 0.0)
            );
            events += 1;
        });
        assert!((f.stall_ms - (cfg.params.t_driver + cfg.params.t_disk)).abs() < 1e-12);
        assert!(f.read_succeeded);
        assert_eq!(events, 1, "the successful read is narrated");
        assert!(io.summary().is_none());
    }

    #[test]
    fn finite_array_reports_summary_and_queues() {
        let cfg = SimConfig::new(64, PolicySpec::NoPrefetch).with_disks(1);
        cfg.validate().unwrap();
        let mut io = IoSubsystem::from_config(&cfg);
        let clock = VirtualClock::new(512);
        // Two back-to-back fetches on one disk: the second queues.
        let a = io.demand_fetch(BlockId(1), 0, &clock, &cfg.params, &mut |_| {});
        let b = io.demand_fetch(BlockId(2), 1, &clock, &cfg.params, &mut |_| {});
        assert!(b.stall_ms > a.stall_ms);
        let s = io.summary().unwrap();
        assert_eq!(s.queued_requests, 1);
    }

    #[test]
    fn prefetch_completions_are_consumed_once() {
        let cfg = SimConfig::new(64, PolicySpec::NoPrefetch).with_disks(4);
        cfg.validate().unwrap();
        let mut io = IoSubsystem::from_config(&cfg);
        let clock = VirtualClock::new(512);
        let mut faulted = Vec::new();
        let mut reads = 0usize;
        io.submit_prefetches(
            &[BlockId(7)],
            0,
            clock.now(),
            cfg.params.t_driver,
            &mut faulted,
            &mut |e| {
                assert!(matches!(e, SimEvent::DiskRead { prefetch: true, .. }));
                reads += 1;
            },
        );
        assert!(faulted.is_empty());
        assert_eq!(reads, 1);
        let first = io.prefetch_hit_stall(BlockId(7), 0, &clock, &cfg.params);
        assert!(first > 0.0, "outstanding prefetch must stall");
        // Consumed: a second lookup finds nothing outstanding.
        let second = io.prefetch_hit_stall(BlockId(7), 0, &clock, &cfg.params);
        assert_eq!(second, 0.0);
    }
}
