//! Deterministic, seeded fault injection for the disk array.
//!
//! Three fault classes, all driven by per-disk SplitMix64 streams derived
//! from a single `u64` seed — no wall clock, no global RNG, so a given
//! `(seed, FaultPlan)` always produces the identical fault schedule:
//!
//! * **Transient read errors** — the access occupies the disk for a full
//!   service time (the head did the work) but the read fails; the caller
//!   may retry once the disk frees up.
//! * **Slow-disk episodes** — a disk enters a bounded window during which
//!   every service time is multiplied by `slow_factor` (thermal
//!   recalibration, background scrubbing, a degraded head).
//! * **Unavailability windows** — the disk rejects requests outright until
//!   a recovery deadline; rejections are instantaneous (no queue slot is
//!   consumed).
//!
//! Fault decisions consume exactly three RNG draws per submission
//! regardless of outcome, so the schedule of disk `d` depends only on
//! `(seed, d, submission count on d)` — retry timing or cross-disk
//! interleaving cannot perturb it.

use core::fmt;

/// SplitMix64 step: advances `state` and returns the next output word.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map 64 random bits to a uniform `f64` in `[0, 1)` (53-bit precision).
#[inline]
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Declarative description of the faults to inject, seeded by `seed`.
///
/// Rates are per-submission probabilities in `[0, 1]`; durations are in
/// simulated milliseconds. [`FaultPlan::disabled`] (all rates zero) is the
/// identity: a [`crate::DiskArray`] carrying it behaves bit-for-bit like
/// one with no injector at all.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-disk fault streams.
    pub seed: u64,
    /// Probability a submission fails with a transient read error.
    pub transient_error_rate: f64,
    /// Probability a submission triggers a slow-disk episode.
    pub slow_episode_rate: f64,
    /// Service-time multiplier during a slow episode (≥ 1).
    pub slow_factor: f64,
    /// Length of one slow episode (ms).
    pub slow_episode_ms: f64,
    /// Probability a submission knocks its disk unavailable.
    pub unavailable_rate: f64,
    /// Length of one unavailability window (ms).
    pub unavailable_ms: f64,
}

impl FaultPlan {
    /// The identity plan: no faults ever fire.
    pub fn disabled() -> Self {
        FaultPlan {
            seed: 0,
            transient_error_rate: 0.0,
            slow_episode_rate: 0.0,
            slow_factor: 1.0,
            slow_episode_ms: 0.0,
            unavailable_rate: 0.0,
            unavailable_ms: 0.0,
        }
    }

    /// A plan with every fault class active at `rate`, with moderate
    /// episode parameters scaled to a `service_ms`-class disk.
    pub fn uniform(seed: u64, rate: f64, service_ms: f64) -> Self {
        FaultPlan {
            seed,
            transient_error_rate: rate,
            slow_episode_rate: rate / 4.0,
            slow_factor: 4.0,
            slow_episode_ms: 20.0 * service_ms,
            unavailable_rate: rate / 10.0,
            unavailable_ms: 10.0 * service_ms,
        }
    }

    /// Does any fault class have a nonzero firing rate?
    pub fn is_active(&self) -> bool {
        self.transient_error_rate > 0.0
            || self.slow_episode_rate > 0.0
            || self.unavailable_rate > 0.0
    }

    /// Validate rates and durations.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value) in [
            ("transient_error_rate", self.transient_error_rate),
            ("slow_episode_rate", self.slow_episode_rate),
            ("unavailable_rate", self.unavailable_rate),
        ] {
            if !(0.0..=1.0).contains(&value) || !value.is_finite() {
                return Err(ConfigError::FaultRateOutOfRange { field, value });
            }
        }
        for (field, value) in
            [("slow_episode_ms", self.slow_episode_ms), ("unavailable_ms", self.unavailable_ms)]
        {
            if !value.is_finite() || value < 0.0 {
                return Err(ConfigError::FaultDurationInvalid { field, value });
            }
        }
        if !self.slow_factor.is_finite() || self.slow_factor < 1.0 {
            return Err(ConfigError::SlowFactorInvalid(self.slow_factor));
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::disabled()
    }
}

/// Typed validation failure for disk-array and fault configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConfigError {
    /// `num_disks` was zero.
    ZeroDisks,
    /// `service_ms` was non-positive or non-finite.
    ServiceTimeInvalid(f64),
    /// A round-robin stripe unit of zero blocks.
    ZeroStripeUnit,
    /// A fault probability outside `[0, 1]`.
    FaultRateOutOfRange {
        /// Which [`FaultPlan`] field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A fault episode duration that is negative or non-finite.
    FaultDurationInvalid {
        /// Which [`FaultPlan`] field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A slow-episode multiplier below 1 or non-finite.
    SlowFactorInvalid(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::ZeroDisks => write!(f, "disk array needs at least one disk"),
            ConfigError::ServiceTimeInvalid(v) => {
                write!(f, "disk service time must be positive and finite, got {v}")
            }
            ConfigError::ZeroStripeUnit => {
                write!(f, "stripe unit must be at least one block")
            }
            ConfigError::FaultRateOutOfRange { field, value } => {
                write!(f, "fault rate {field} must lie in [0, 1], got {value}")
            }
            ConfigError::FaultDurationInvalid { field, value } => {
                write!(f, "fault duration {field} must be finite and >= 0 ms, got {value}")
            }
            ConfigError::SlowFactorInvalid(v) => {
                write!(f, "slow factor must be finite and >= 1, got {v}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A fault surfaced by [`crate::DiskArray::submit`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DiskFault {
    /// The read occupied disk `disk` until `busy_until_ms` and then
    /// failed; a retry submitted at or after that time may succeed.
    TransientError {
        /// Disk that served (and failed) the read.
        disk: usize,
        /// Virtual time at which the disk frees up again.
        busy_until_ms: f64,
    },
    /// Disk `disk` is refusing requests until `until_ms`; the rejection is
    /// instantaneous and consumes no disk time.
    Unavailable {
        /// Disk that rejected the read.
        disk: usize,
        /// Virtual time at which the disk recovers.
        until_ms: f64,
    },
}

impl DiskFault {
    /// Earliest virtual time a retry of the failed request could start.
    pub fn retry_at_ms(&self) -> f64 {
        match *self {
            DiskFault::TransientError { busy_until_ms, .. } => busy_until_ms,
            DiskFault::Unavailable { until_ms, .. } => until_ms,
        }
    }

    /// The disk the fault occurred on.
    pub fn disk(&self) -> usize {
        match *self {
            DiskFault::TransientError { disk, .. } | DiskFault::Unavailable { disk, .. } => disk,
        }
    }
}

impl fmt::Display for DiskFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DiskFault::TransientError { disk, busy_until_ms } => {
                write!(f, "transient read error on disk {disk} (busy until {busy_until_ms:.3} ms)")
            }
            DiskFault::Unavailable { disk, until_ms } => {
                write!(f, "disk {disk} unavailable until {until_ms:.3} ms")
            }
        }
    }
}

impl std::error::Error for DiskFault {}

/// What the injector decided for one submission.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultDecision {
    /// Serve the request with the given effective service time.
    Proceed {
        /// Service time after any slow-episode multiplier.
        service_ms: f64,
        /// Was a slow-episode multiplier applied?
        slowed: bool,
    },
    /// Fail the request after occupying the disk for one service time.
    TransientError,
    /// Reject the request instantly; the disk recovers at `until_ms`.
    Unavailable {
        /// Virtual time at which the disk recovers.
        until_ms: f64,
    },
}

/// Mutable fault state for one disk.
#[derive(Clone, Debug)]
struct DiskFaultState {
    /// SplitMix64 state for this disk's decision stream.
    rng: u64,
    /// End of the current slow episode, if any.
    slow_until_ms: f64,
    /// End of the current unavailability window, if any.
    unavailable_until_ms: f64,
}

/// Per-disk deterministic fault source. Owned by [`crate::DiskArray`];
/// exposed so determinism tests can drive it directly.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    disks: Vec<DiskFaultState>,
}

impl FaultInjector {
    /// An injector for `num_disks` disks following `plan`.
    pub fn new(plan: FaultPlan, num_disks: usize) -> Self {
        let disks = (0..num_disks)
            .map(|d| {
                // Decorrelate disks by folding the index into the seed
                // before one mixing step.
                let mut s = plan.seed ^ (d as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407);
                splitmix64(&mut s);
                DiskFaultState { rng: s, slow_until_ms: 0.0, unavailable_until_ms: 0.0 }
            })
            .collect();
        FaultInjector { plan, disks }
    }

    /// The plan this injector follows.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide the fate of a submission to `disk` at `now_ms` with nominal
    /// service time `service_ms`.
    ///
    /// Exactly three RNG words are drawn per call, so the decision stream
    /// for a disk is a pure function of its submission count.
    pub fn decide(&mut self, disk: usize, now_ms: f64, service_ms: f64) -> FaultDecision {
        let state = &mut self.disks[disk];
        let u_unavail = unit_f64(splitmix64(&mut state.rng));
        let u_error = unit_f64(splitmix64(&mut state.rng));
        let u_slow = unit_f64(splitmix64(&mut state.rng));

        if now_ms < state.unavailable_until_ms {
            return FaultDecision::Unavailable { until_ms: state.unavailable_until_ms };
        }
        if u_unavail < self.plan.unavailable_rate {
            state.unavailable_until_ms = now_ms + self.plan.unavailable_ms;
            return FaultDecision::Unavailable { until_ms: state.unavailable_until_ms };
        }
        if u_error < self.plan.transient_error_rate {
            return FaultDecision::TransientError;
        }
        if u_slow < self.plan.slow_episode_rate {
            state.slow_until_ms = now_ms.max(state.slow_until_ms) + self.plan.slow_episode_ms;
        }
        if now_ms < state.slow_until_ms {
            FaultDecision::Proceed { service_ms: service_ms * self.plan.slow_factor, slowed: true }
        } else {
            FaultDecision::Proceed { service_ms, slowed: false }
        }
    }
}

// ---------------------------------------------------------------------------
// Durability faults (write path)
// ---------------------------------------------------------------------------

/// Declarative durability faults for the append-only write path
/// (`prefetch-wal`): short writes, fsync errors, and silent bit flips,
/// all driven by SplitMix64 streams derived from one seed — the same
/// determinism contract as [`FaultPlan`]. Rates are per-operation
/// probabilities; [`DurabilityFaultPlan::disabled`] is the identity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DurabilityFaultPlan {
    /// Seed for the per-log fault streams.
    pub seed: u64,
    /// Probability an append stops after a prefix of the record buffer
    /// and fails (the torn tail a crash mid-append leaves).
    pub short_write_rate: f64,
    /// Probability a sync fails with an injected I/O error.
    pub fsync_error_rate: f64,
    /// Probability an append silently flips one bit of the record buffer
    /// (media corruption, caught later by the record fingerprint).
    pub bit_flip_rate: f64,
}

impl DurabilityFaultPlan {
    /// The identity plan: no durability faults ever fire.
    pub fn disabled() -> Self {
        DurabilityFaultPlan {
            seed: 0,
            short_write_rate: 0.0,
            fsync_error_rate: 0.0,
            bit_flip_rate: 0.0,
        }
    }

    /// Does any fault class have a nonzero firing rate?
    pub fn is_active(&self) -> bool {
        self.short_write_rate > 0.0 || self.fsync_error_rate > 0.0 || self.bit_flip_rate > 0.0
    }

    /// Validate rates.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value) in [
            ("short_write_rate", self.short_write_rate),
            ("fsync_error_rate", self.fsync_error_rate),
            ("bit_flip_rate", self.bit_flip_rate),
        ] {
            if !(0.0..=1.0).contains(&value) || !value.is_finite() {
                return Err(ConfigError::FaultRateOutOfRange { field, value });
            }
        }
        Ok(())
    }

    /// A deterministic injector for one log. `stream` decorrelates
    /// independent logs (e.g. per-tenant WAL segments) the way the disk
    /// index decorrelates [`FaultInjector`] streams.
    pub fn injector(&self, stream: u64) -> DurabilityInjector {
        let derive = |salt: u64| {
            let mut s = self.seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407) ^ salt;
            splitmix64(&mut s);
            s
        };
        DurabilityInjector { plan: *self, append_rng: derive(0x57A1), sync_rng: derive(0x5F5C) }
    }
}

impl Default for DurabilityFaultPlan {
    fn default() -> Self {
        DurabilityFaultPlan::disabled()
    }
}

/// Deterministic [`prefetch_wal::WriteFaults`] source for one log; built
/// by [`DurabilityFaultPlan::injector`]. Three RNG words per append
/// decision and one per sync decision, drawn unconditionally, so a log's
/// fault schedule is a pure function of its own operation sequence.
#[derive(Clone, Debug)]
pub struct DurabilityInjector {
    plan: DurabilityFaultPlan,
    append_rng: u64,
    sync_rng: u64,
}

impl prefetch_wal::WriteFaults for DurabilityInjector {
    fn on_append(&mut self, _index: u64, len: usize) -> Option<prefetch_wal::AppendFault> {
        let u_short = unit_f64(splitmix64(&mut self.append_rng));
        let u_flip = unit_f64(splitmix64(&mut self.append_rng));
        let position = splitmix64(&mut self.append_rng);
        if u_short < self.plan.short_write_rate {
            return Some(prefetch_wal::AppendFault::ShortWrite {
                keep: position as usize % len.max(1),
            });
        }
        if u_flip < self.plan.bit_flip_rate {
            let bits = (len * 8).max(1) as u64;
            return Some(prefetch_wal::AppendFault::BitFlip { bit: (position % bits) as u32 });
        }
        None
    }

    fn on_sync(&mut self, _index: u64) -> bool {
        unit_f64(splitmix64(&mut self.sync_rng)) < self.plan.fsync_error_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            transient_error_rate: 0.2,
            slow_episode_rate: 0.1,
            slow_factor: 3.0,
            slow_episode_ms: 50.0,
            unavailable_rate: 0.05,
            unavailable_ms: 100.0,
        }
    }

    #[test]
    fn identical_seeds_give_identical_schedules() {
        let mut a = FaultInjector::new(busy_plan(42), 4);
        let mut b = FaultInjector::new(busy_plan(42), 4);
        for i in 0..2000 {
            let disk = i % 4;
            let now = i as f64 * 3.0;
            assert_eq!(a.decide(disk, now, 15.0), b.decide(disk, now, 15.0), "submission {i}");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultInjector::new(busy_plan(1), 1);
        let mut b = FaultInjector::new(busy_plan(2), 1);
        let diverged = (0..200).any(|i| {
            let now = i as f64;
            a.decide(0, now, 15.0) != b.decide(0, now, 15.0)
        });
        assert!(diverged, "seeds 1 and 2 produced the same 200-step schedule");
    }

    #[test]
    fn disabled_plan_always_proceeds_at_nominal_speed() {
        let mut inj = FaultInjector::new(FaultPlan::disabled(), 2);
        for i in 0..500 {
            let d = inj.decide(i % 2, i as f64, 15.0);
            assert_eq!(d, FaultDecision::Proceed { service_ms: 15.0, slowed: false });
        }
    }

    #[test]
    fn unavailability_window_rejects_until_recovery() {
        let plan =
            FaultPlan { unavailable_rate: 1.0, unavailable_ms: 100.0, ..FaultPlan::disabled() };
        let mut inj = FaultInjector::new(plan, 1);
        match inj.decide(0, 10.0, 15.0) {
            FaultDecision::Unavailable { until_ms } => assert_eq!(until_ms, 110.0),
            other => panic!("expected unavailable, got {other:?}"),
        }
        // Still inside the window: rejected with the same deadline.
        match inj.decide(0, 50.0, 15.0) {
            FaultDecision::Unavailable { until_ms } => assert_eq!(until_ms, 110.0),
            other => panic!("expected unavailable, got {other:?}"),
        }
    }

    #[test]
    fn slow_episode_multiplies_service_time() {
        let plan = FaultPlan {
            slow_episode_rate: 1.0,
            slow_factor: 4.0,
            slow_episode_ms: 100.0,
            ..FaultPlan::disabled()
        };
        let mut inj = FaultInjector::new(plan, 1);
        match inj.decide(0, 0.0, 15.0) {
            FaultDecision::Proceed { service_ms, slowed } => {
                assert!(slowed);
                assert_eq!(service_ms, 60.0);
            }
            other => panic!("expected slow proceed, got {other:?}"),
        }
    }

    #[test]
    fn plan_validation_rejects_bad_values() {
        let mut p = FaultPlan::disabled();
        p.transient_error_rate = 1.5;
        assert!(matches!(p.validate(), Err(ConfigError::FaultRateOutOfRange { .. })));
        let mut p = FaultPlan::disabled();
        p.unavailable_ms = f64::NAN;
        assert!(matches!(p.validate(), Err(ConfigError::FaultDurationInvalid { .. })));
        let mut p = FaultPlan::disabled();
        p.slow_factor = 0.5;
        assert!(matches!(p.validate(), Err(ConfigError::SlowFactorInvalid(_))));
        assert!(FaultPlan::disabled().validate().is_ok());
        assert!(FaultPlan::uniform(7, 0.05, 15.0).validate().is_ok());
    }

    #[test]
    fn fault_helpers_report_retry_times() {
        let e = DiskFault::TransientError { disk: 2, busy_until_ms: 45.0 };
        assert_eq!(e.retry_at_ms(), 45.0);
        assert_eq!(e.disk(), 2);
        let u = DiskFault::Unavailable { disk: 1, until_ms: 80.0 };
        assert_eq!(u.retry_at_ms(), 80.0);
        assert_eq!(u.disk(), 1);
        assert!(e.to_string().contains("transient"));
        assert!(u.to_string().contains("unavailable"));
    }

    // -- durability faults ---------------------------------------------------

    use prefetch_wal::{AppendFault, WriteFaults};

    fn schedule(plan: &DurabilityFaultPlan, stream: u64, ops: usize) -> Vec<Option<AppendFault>> {
        let mut inj = plan.injector(stream);
        (0..ops).map(|i| inj.on_append(i as u64, 64)).collect()
    }

    #[test]
    fn durability_disabled_never_fires() {
        let plan = DurabilityFaultPlan::disabled();
        assert!(!plan.is_active());
        let mut inj = plan.injector(3);
        for i in 0..200 {
            assert_eq!(inj.on_append(i, 64), None);
            assert!(!inj.on_sync(i));
        }
    }

    #[test]
    fn durability_schedule_is_deterministic_and_stream_decorrelated() {
        let plan = DurabilityFaultPlan {
            seed: 42,
            short_write_rate: 0.2,
            fsync_error_rate: 0.1,
            bit_flip_rate: 0.2,
        };
        assert!(plan.is_active());
        let a = schedule(&plan, 0, 256);
        assert_eq!(a, schedule(&plan, 0, 256), "same stream must replay identically");
        let b = schedule(&plan, 1, 256);
        assert_ne!(a, b, "distinct streams must not share a fault schedule");
        let fired = a.iter().flatten().count();
        assert!(fired > 10, "rates this high must fire often, got {fired}");
        for fault in a.iter().flatten() {
            match *fault {
                AppendFault::ShortWrite { keep } => assert!(keep < 64),
                AppendFault::BitFlip { bit } => assert!(bit < 64 * 8),
            }
        }
    }

    #[test]
    fn durability_sync_stream_is_independent_of_appends() {
        let plan = DurabilityFaultPlan {
            seed: 9,
            short_write_rate: 0.0,
            fsync_error_rate: 0.5,
            bit_flip_rate: 0.0,
        };
        // Sync decisions must not shift when the append count differs.
        let mut a = plan.injector(0);
        let mut b = plan.injector(0);
        for i in 0..50 {
            let _ = a.on_append(i, 32);
        }
        let sa: Vec<bool> = (0..64).map(|i| a.on_sync(i)).collect();
        let sb: Vec<bool> = (0..64).map(|i| b.on_sync(i)).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&x| x) && sa.iter().any(|&x| !x));
    }

    #[test]
    fn durability_validation_rejects_bad_rates() {
        let mut p = DurabilityFaultPlan::disabled();
        p.bit_flip_rate = -0.1;
        assert!(matches!(p.validate(), Err(ConfigError::FaultRateOutOfRange { .. })));
        let mut p = DurabilityFaultPlan::disabled();
        p.fsync_error_rate = f64::NAN;
        assert!(matches!(p.validate(), Err(ConfigError::FaultRateOutOfRange { .. })));
        assert!(DurabilityFaultPlan::disabled().validate().is_ok());
    }
}
