//! The disk array: placement, queueing, service, fault injection.

use crate::fault::{ConfigError, DiskFault, FaultDecision, FaultInjector, FaultPlan};
use crate::stats::DiskStats;
use prefetch_trace::BlockId;

/// How blocks map to disks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Striping {
    /// RAID-0 style: `disk = (block / stripe_unit) % num_disks`. Adjacent
    /// blocks within a stripe unit share a disk; consecutive units rotate.
    RoundRobin {
        /// Blocks per stripe unit (≥ 1).
        stripe_unit: u64,
    },
    /// A hash of the block id picks the disk: no locality, uniform load.
    Hashed,
}

impl Striping {
    /// The disk serving `block` in an array of `num_disks`.
    #[inline]
    pub fn disk_for(&self, block: BlockId, num_disks: usize) -> usize {
        match *self {
            Striping::RoundRobin { stripe_unit } => {
                ((block.0 / stripe_unit.max(1)) % num_disks as u64) as usize
            }
            Striping::Hashed => {
                // Fibonacci hashing — cheap and well-mixing.
                let h = block.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (h >> 32) as usize % num_disks
            }
        }
    }
}

/// Configuration of a [`DiskArray`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskArrayConfig {
    /// Number of independent disks (≥ 1).
    pub num_disks: usize,
    /// Constant per-access service time in ms (the paper's `T_disk`).
    pub service_ms: f64,
    /// Block placement.
    pub striping: Striping,
}

impl DiskArrayConfig {
    /// An array with the paper's 15 ms service time and 64-block stripe
    /// units.
    pub fn with_disks(num_disks: usize) -> Self {
        DiskArrayConfig {
            num_disks,
            service_ms: 15.0,
            striping: Striping::RoundRobin { stripe_unit: 64 },
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_disks < 1 {
            return Err(ConfigError::ZeroDisks);
        }
        if !self.service_ms.is_finite() || self.service_ms <= 0.0 {
            return Err(ConfigError::ServiceTimeInvalid(self.service_ms));
        }
        if let Striping::RoundRobin { stripe_unit } = self.striping {
            if stripe_unit < 1 {
                return Err(ConfigError::ZeroStripeUnit);
            }
        }
        Ok(())
    }
}

/// A successfully served read.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completion {
    /// Virtual time at which the data is in memory.
    pub completion_ms: f64,
    /// Virtual time at which the disk began servicing the read; the gap
    /// from submission to `start_ms` is the queue delay.
    pub start_ms: f64,
    /// Disk that served the read.
    pub disk: usize,
    /// Was a slow-episode latency multiplier applied?
    pub slowed: bool,
}

/// A disk array with per-disk FIFO service and optional fault injection.
///
/// Time is the caller's virtual clock (ms). Each submission occupies its
/// disk for `service_ms` starting when the disk frees up; the returned
/// completion time reflects queueing behind earlier requests. With a
/// [`FaultPlan`] attached, submissions may instead fail with a
/// [`DiskFault`]; an inactive plan (all rates zero) is behaviorally
/// identical to no plan at all.
#[derive(Clone, Debug)]
pub struct DiskArray {
    config: DiskArrayConfig,
    /// Per-disk time at which the disk becomes idle.
    free_at: Vec<f64>,
    stats: DiskStats,
    faults: Option<FaultInjector>,
}

impl DiskArray {
    /// An idle, fault-free array.
    pub fn new(config: DiskArrayConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(DiskArray {
            free_at: vec![0.0; config.num_disks],
            stats: DiskStats::new(config.num_disks),
            faults: None,
            config,
        })
    }

    /// An idle array injecting faults per `plan`. A plan with all rates
    /// zero is accepted and never fires.
    pub fn with_faults(config: DiskArrayConfig, plan: FaultPlan) -> Result<Self, ConfigError> {
        plan.validate()?;
        let mut array = DiskArray::new(config)?;
        if plan.is_active() {
            array.faults = Some(FaultInjector::new(plan, config.num_disks));
        }
        Ok(array)
    }

    /// The configuration.
    pub fn config(&self) -> &DiskArrayConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// The fault plan in effect, if an active one was attached.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(FaultInjector::plan)
    }

    /// Submit a read of `block` at virtual time `now_ms`.
    ///
    /// On success the returned [`Completion`] carries the time the data is
    /// available; FIFO per disk, the request starts when the disk is free,
    /// never before `now_ms`. With fault injection active the read may
    /// fail instead:
    ///
    /// * [`DiskFault::TransientError`] — the disk was occupied for a full
    ///   service time but the read failed; retry at `busy_until_ms`.
    /// * [`DiskFault::Unavailable`] — rejected instantly; the disk
    ///   recovers at `until_ms`.
    pub fn submit(&mut self, block: BlockId, now_ms: f64) -> Result<Completion, DiskFault> {
        debug_assert!(now_ms.is_finite() && now_ms >= 0.0);
        let d = self.config.striping.disk_for(block, self.config.num_disks);
        let service_ms = match &mut self.faults {
            None => self.config.service_ms,
            Some(injector) => match injector.decide(d, now_ms, self.config.service_ms) {
                FaultDecision::Unavailable { until_ms } => {
                    self.stats.unavailable_rejections += 1;
                    return Err(DiskFault::Unavailable { disk: d, until_ms });
                }
                FaultDecision::TransientError => {
                    let start = self.free_at[d].max(now_ms);
                    let busy_until = start + self.config.service_ms;
                    self.free_at[d] = busy_until;
                    self.stats.record(d, now_ms, start, busy_until);
                    self.stats.transient_errors += 1;
                    return Err(DiskFault::TransientError { disk: d, busy_until_ms: busy_until });
                }
                FaultDecision::Proceed { service_ms, slowed } => {
                    if slowed {
                        self.stats.slowed_requests += 1;
                    }
                    service_ms
                }
            },
        };
        let start = self.free_at[d].max(now_ms);
        let completion = start + service_ms;
        self.free_at[d] = completion;
        self.stats.record(d, now_ms, start, completion);
        Ok(Completion {
            completion_ms: completion,
            start_ms: start,
            disk: d,
            slowed: service_ms > self.config.service_ms,
        })
    }

    /// Would a read of `block` at `now_ms` have to queue?
    pub fn is_busy(&self, block: BlockId, now_ms: f64) -> bool {
        let d = self.config.striping.disk_for(block, self.config.num_disks);
        self.free_at[d] > now_ms
    }

    /// Earliest time any disk is idle (diagnostics).
    pub fn earliest_idle(&self) -> f64 {
        self.free_at.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize) -> DiskArrayConfig {
        DiskArrayConfig { num_disks: n, service_ms: 10.0, striping: Striping::Hashed }
    }

    fn ok_ms(r: Result<Completion, DiskFault>) -> f64 {
        r.expect("fault-free submit failed").completion_ms
    }

    #[test]
    fn single_disk_serializes_requests() {
        let mut a = DiskArray::new(cfg(1)).unwrap();
        let c1 = ok_ms(a.submit(BlockId(1), 0.0));
        let c2 = ok_ms(a.submit(BlockId(2), 0.0));
        let c3 = ok_ms(a.submit(BlockId(3), 25.0));
        assert_eq!(c1, 10.0);
        assert_eq!(c2, 20.0); // queued behind c1
        assert_eq!(c3, 35.0); // disk idle at 20, request arrives at 25
    }

    #[test]
    fn independent_disks_overlap() {
        let c = DiskArrayConfig {
            num_disks: 2,
            service_ms: 10.0,
            striping: Striping::RoundRobin { stripe_unit: 1 },
        };
        let mut a = DiskArray::new(c).unwrap();
        // Blocks 0 and 1 land on different disks with stripe unit 1.
        let c0 = ok_ms(a.submit(BlockId(0), 0.0));
        let c1 = ok_ms(a.submit(BlockId(1), 0.0));
        assert_eq!(c0, 10.0);
        assert_eq!(c1, 10.0);
        // Same disk as block 0 → queues.
        let c2 = ok_ms(a.submit(BlockId(2), 0.0));
        assert_eq!(c2, 20.0);
    }

    #[test]
    fn round_robin_striping_layout() {
        let s = Striping::RoundRobin { stripe_unit: 4 };
        // Blocks 0..3 on disk 0, 4..7 on disk 1, 8..11 on disk 2, wrap.
        assert_eq!(s.disk_for(BlockId(0), 3), 0);
        assert_eq!(s.disk_for(BlockId(3), 3), 0);
        assert_eq!(s.disk_for(BlockId(4), 3), 1);
        assert_eq!(s.disk_for(BlockId(11), 3), 2);
        assert_eq!(s.disk_for(BlockId(12), 3), 0);
    }

    #[test]
    fn hashed_striping_spreads_load() {
        let s = Striping::Hashed;
        let mut counts = [0usize; 8];
        for b in 0..8000u64 {
            counts[s.disk_for(BlockId(b), 8)] += 1;
        }
        for (d, &c) in counts.iter().enumerate() {
            assert!((800..1200).contains(&c), "disk {d} got {c} of 8000 — poor spread");
        }
    }

    #[test]
    fn completions_are_monotone_per_disk() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
        let mut a = DiskArray::new(cfg(4)).unwrap();
        let mut now = 0.0f64;
        let mut last_completion = [0.0f64; 4];
        for _ in 0..5000 {
            now += rng.gen_range(0.0..5.0);
            let b = BlockId(rng.gen_range(0..1000));
            let d = a.config().striping.disk_for(b, 4);
            let c = ok_ms(a.submit(b, now));
            assert!(c >= now + 10.0 - 1e-9, "service time violated");
            assert!(c >= last_completion[d], "per-disk FIFO violated");
            last_completion[d] = c;
        }
    }

    #[test]
    fn busy_query_matches_submission_state() {
        let mut a = DiskArray::new(cfg(1)).unwrap();
        assert!(!a.is_busy(BlockId(5), 0.0));
        a.submit(BlockId(5), 0.0).unwrap();
        assert!(a.is_busy(BlockId(6), 5.0)); // single disk: any block
        assert!(!a.is_busy(BlockId(6), 10.0));
        assert_eq!(a.earliest_idle(), 10.0);
    }

    #[test]
    fn zero_disks_is_a_config_error() {
        let err = DiskArray::new(DiskArrayConfig {
            num_disks: 0,
            service_ms: 1.0,
            striping: Striping::Hashed,
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::ZeroDisks);
    }

    #[test]
    fn bad_service_time_and_stripe_unit_are_config_errors() {
        let err = DiskArrayConfig { num_disks: 1, service_ms: 0.0, striping: Striping::Hashed }
            .validate()
            .unwrap_err();
        assert!(matches!(err, ConfigError::ServiceTimeInvalid(_)));
        let err = DiskArrayConfig {
            num_disks: 1,
            service_ms: 1.0,
            striping: Striping::RoundRobin { stripe_unit: 0 },
        }
        .validate()
        .unwrap_err();
        assert_eq!(err, ConfigError::ZeroStripeUnit);
    }

    #[test]
    fn inactive_fault_plan_matches_fault_free_array() {
        let mut plain = DiskArray::new(cfg(2)).unwrap();
        let mut faulty = DiskArray::with_faults(cfg(2), FaultPlan::disabled()).unwrap();
        assert!(faulty.fault_plan().is_none(), "inactive plan should not install an injector");
        for b in 0..500u64 {
            let now = b as f64 * 1.5;
            assert_eq!(plain.submit(BlockId(b), now), faulty.submit(BlockId(b), now));
        }
        assert_eq!(plain.stats(), faulty.stats());
    }

    #[test]
    fn transient_errors_occupy_the_disk() {
        let plan = FaultPlan { transient_error_rate: 1.0, ..FaultPlan::disabled() };
        let mut a = DiskArray::with_faults(cfg(1), plan).unwrap();
        let err = a.submit(BlockId(1), 0.0).unwrap_err();
        match err {
            DiskFault::TransientError { disk, busy_until_ms } => {
                assert_eq!(disk, 0);
                assert_eq!(busy_until_ms, 10.0);
            }
            other => panic!("expected transient error, got {other:?}"),
        }
        // The failed read held the disk: a submission at t=0 queues behind it.
        let err2 = a.submit(BlockId(2), 0.0).unwrap_err();
        assert_eq!(err2.retry_at_ms(), 20.0);
        assert_eq!(a.stats().transient_errors, 2);
    }

    #[test]
    fn unavailability_rejects_without_consuming_disk_time() {
        let plan =
            FaultPlan { unavailable_rate: 1.0, unavailable_ms: 50.0, ..FaultPlan::disabled() };
        let mut a = DiskArray::with_faults(cfg(1), plan).unwrap();
        let err = a.submit(BlockId(1), 0.0).unwrap_err();
        assert_eq!(err, DiskFault::Unavailable { disk: 0, until_ms: 50.0 });
        assert_eq!(a.earliest_idle(), 0.0, "rejection must not occupy the disk");
        assert_eq!(a.stats().unavailable_rejections, 1);
        assert_eq!(a.stats().total_requests(), 0);
    }

    #[test]
    fn slow_episodes_stretch_service_time() {
        let plan = FaultPlan {
            slow_episode_rate: 1.0,
            slow_factor: 3.0,
            slow_episode_ms: 1000.0,
            ..FaultPlan::disabled()
        };
        let mut a = DiskArray::with_faults(cfg(1), plan).unwrap();
        let c = a.submit(BlockId(1), 0.0).unwrap();
        assert!(c.slowed);
        assert_eq!(c.completion_ms, 30.0);
        assert_eq!(a.stats().slowed_requests, 1);
    }

    #[test]
    fn seeded_fault_streams_reproduce() {
        let plan = FaultPlan::uniform(1234, 0.1, 10.0);
        let mut a = DiskArray::with_faults(cfg(4), plan).unwrap();
        let mut b = DiskArray::with_faults(cfg(4), plan).unwrap();
        for blk in 0..3000u64 {
            let now = blk as f64 * 0.7;
            assert_eq!(a.submit(BlockId(blk), now), b.submit(BlockId(blk), now), "block {blk}");
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().transient_errors > 0, "uniform(0.1) plan never fired");
    }
}
