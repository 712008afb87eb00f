//! Graceful degradation under disk faults: retry pricing and candidate
//! quarantine.
//!
//! The SC'99 model assumes every disk read succeeds. When the simulator's
//! disk array injects faults (see `prefetch-disk`), two mechanisms keep
//! the cost-benefit scheme honest instead of letting it thrash:
//!
//! * [`RetryPolicy`] — a failed *demand* read must eventually succeed for
//!   the simulation to make progress, so it is retried with exponential
//!   backoff in **simulated** time; every backoff millisecond lands on the
//!   virtual clock as stall, pricing the fault into elapsed time exactly
//!   like any other latency.
//! * [`Quarantine`] — a failed *prefetch* is a priced mispredict: the slot
//!   is released and the wasted initiation overhead `T_oh` has already
//!   been charged. Blocks whose prefetches keep failing are quarantined so
//!   the Section 7 loop stops re-issuing reads the array keeps refusing;
//!   a later successful demand fetch of the block lifts the quarantine.
//!
//! Both mechanisms are deterministic: no clocks, no randomness, state is a
//! pure function of the fault sequence fed in.

use prefetch_hash::FxHashMap;
use prefetch_trace::BlockId;

/// Exponential backoff for retrying failed demand reads, in simulated
/// milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per read, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry (ms).
    pub backoff_base_ms: f64,
    /// Ceiling on any single backoff (ms).
    pub backoff_cap_ms: f64,
    /// Stall charged when a read exhausts every attempt (ms). The
    /// simulation then proceeds as if a deep recovery path (a mirror, a
    /// rebuild) finally produced the block.
    pub give_up_penalty_ms: f64,
}

impl Default for RetryPolicy {
    /// Tuned to the paper's 15 ms `T_disk`: up to 4 attempts with 5 → 10 →
    /// 20 ms backoffs, 150 ms (10 service times) on exhaustion.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base_ms: 5.0,
            backoff_cap_ms: 240.0,
            give_up_penalty_ms: 150.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff to wait before retry number `retry` (1-based: the first
    /// retry is `1`). Doubles per retry, capped at `backoff_cap_ms`.
    pub fn backoff_ms(&self, retry: u32) -> f64 {
        let exp = retry.saturating_sub(1).min(52);
        (self.backoff_base_ms * (1u64 << exp) as f64).min(self.backoff_cap_ms)
    }

    /// May another attempt be made after `attempts` tries?
    pub fn should_retry(&self, attempts: u32) -> bool {
        attempts < self.max_attempts
    }

    /// Check the policy is usable without panicking (mirroring
    /// [`crate::SystemParams::check`]). Rejects:
    ///
    /// * `max_attempts == 0` (a read must get at least one attempt);
    /// * non-finite (NaN/∞) or negative backoff and penalty fields;
    /// * zero backoff base or cap — a zero backoff silently turns every
    ///   retry into a busy re-issue, unpriced in simulated time;
    /// * `backoff_cap_ms < backoff_base_ms` — the very first backoff
    ///   would already exceed the cap, so the schedule is contradictory.
    pub fn check(&self) -> Result<(), String> {
        if self.max_attempts < 1 {
            return Err("retry policy needs at least one attempt".into());
        }
        for (field, v) in [
            ("backoff_base_ms", self.backoff_base_ms),
            ("backoff_cap_ms", self.backoff_cap_ms),
            ("give_up_penalty_ms", self.give_up_penalty_ms),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{field} must be finite and >= 0, got {v}"));
            }
        }
        for (field, v) in
            [("backoff_base_ms", self.backoff_base_ms), ("backoff_cap_ms", self.backoff_cap_ms)]
        {
            if v == 0.0 {
                return Err(format!("{field} must be > 0, got {v}"));
            }
        }
        if self.backoff_cap_ms < self.backoff_base_ms {
            return Err(format!(
                "backoff_cap_ms ({}) must be >= backoff_base_ms ({})",
                self.backoff_cap_ms, self.backoff_base_ms
            ));
        }
        Ok(())
    }

    /// Alias of [`RetryPolicy::check`], kept for callers predating the
    /// `check` naming convention.
    pub fn validate(&self) -> Result<(), String> {
        self.check()
    }
}

/// Blocks demoted out of prefetch consideration after repeated failures.
///
/// Failure counts are consecutive: a successful read of the block (demand
/// or prefetch) clears its record. Lookup-only — the map is never
/// iterated, so `HashMap` ordering cannot leak into simulation results.
#[derive(Clone, Debug)]
pub struct Quarantine {
    /// Consecutive failures after which a block is quarantined.
    threshold: u32,
    /// Consecutive prefetch-read failures per block.
    failures: FxHashMap<u64, u32>,
    /// Blocks currently quarantined (failure count ≥ threshold).
    quarantined: u64,
    /// Total quarantine events, monotone (a block re-entering after a
    /// success counts again).
    total_quarantined: u64,
}

impl Quarantine {
    /// Quarantine after `threshold` consecutive failures (≥ 1).
    pub fn new(threshold: u32) -> Self {
        Quarantine {
            threshold: threshold.max(1),
            failures: FxHashMap::default(),
            quarantined: 0,
            total_quarantined: 0,
        }
    }

    /// Record a failed prefetch read of `block`. Returns `true` if this
    /// failure pushed the block into quarantine.
    pub fn record_failure(&mut self, block: BlockId) -> bool {
        let count = self.failures.entry(block.0).or_insert(0);
        *count += 1;
        if *count == self.threshold {
            self.quarantined += 1;
            self.total_quarantined += 1;
            true
        } else {
            false
        }
    }

    /// Record a successful read of `block`, clearing its failure history
    /// and lifting any quarantine.
    pub fn record_success(&mut self, block: BlockId) {
        if let Some(count) = self.failures.remove(&block.0) {
            if count >= self.threshold {
                self.quarantined -= 1;
            }
        }
    }

    /// Is `block` currently quarantined?
    pub fn is_quarantined(&self, block: BlockId) -> bool {
        self.failures.get(&block.0).is_some_and(|&c| c >= self.threshold)
    }

    /// Blocks currently quarantined.
    pub fn len(&self) -> usize {
        self.quarantined as usize
    }

    /// No blocks quarantined?
    pub fn is_empty(&self) -> bool {
        self.quarantined == 0
    }

    /// Monotone count of quarantine events.
    pub fn total_quarantined(&self) -> u64 {
        self.total_quarantined
    }
}

impl Default for Quarantine {
    /// Quarantine after 2 consecutive failures.
    fn default() -> Self {
        Quarantine::new(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let r = RetryPolicy {
            max_attempts: 6,
            backoff_base_ms: 5.0,
            backoff_cap_ms: 30.0,
            give_up_penalty_ms: 100.0,
        };
        assert_eq!(r.backoff_ms(1), 5.0);
        assert_eq!(r.backoff_ms(2), 10.0);
        assert_eq!(r.backoff_ms(3), 20.0);
        assert_eq!(r.backoff_ms(4), 30.0); // capped
        assert_eq!(r.backoff_ms(5), 30.0);
    }

    #[test]
    fn retry_budget_counts_the_first_attempt() {
        let r = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        assert!(r.should_retry(1));
        assert!(r.should_retry(2));
        assert!(!r.should_retry(3));
    }

    #[test]
    fn retry_validation() {
        assert!(RetryPolicy::default().validate().is_ok());
        assert!(RetryPolicy { max_attempts: 0, ..RetryPolicy::default() }.validate().is_err());
        assert!(RetryPolicy { backoff_base_ms: f64::NAN, ..RetryPolicy::default() }
            .validate()
            .is_err());
    }

    #[test]
    fn check_rejects_every_degenerate_field() {
        let ok = RetryPolicy::default();
        assert!(ok.check().is_ok());
        let cases = [
            ("zero attempts", RetryPolicy { max_attempts: 0, ..ok }),
            ("zero base", RetryPolicy { backoff_base_ms: 0.0, ..ok }),
            ("zero cap", RetryPolicy { backoff_cap_ms: 0.0, ..ok }),
            ("negative base", RetryPolicy { backoff_base_ms: -1.0, ..ok }),
            ("negative penalty", RetryPolicy { give_up_penalty_ms: -0.5, ..ok }),
            ("NaN cap", RetryPolicy { backoff_cap_ms: f64::NAN, ..ok }),
            ("infinite base", RetryPolicy { backoff_base_ms: f64::INFINITY, ..ok }),
            ("cap below base", RetryPolicy { backoff_base_ms: 50.0, backoff_cap_ms: 10.0, ..ok }),
        ];
        for (what, policy) in cases {
            let err = policy.check().expect_err(what);
            assert!(!err.is_empty(), "{what} must render a reason");
        }
        // Zero give-up penalty is legitimate (a free recovery path).
        assert!(RetryPolicy { give_up_penalty_ms: 0.0, ..ok }.check().is_ok());
        // validate() stays a strict alias of check().
        let p = RetryPolicy { backoff_base_ms: 50.0, backoff_cap_ms: 10.0, ..ok };
        assert_eq!(p.validate(), p.check());
    }

    #[test]
    fn quarantine_readmission_ordering() {
        // Re-admission is strictly success-gated and ordered: a block must
        // be *fully* re-admitted (one success) before failures start a
        // fresh count — stale pre-quarantine failures never combine with
        // post-re-admission failures to re-trip the threshold early.
        let mut q = Quarantine::new(3);
        let a = BlockId(1);
        let b = BlockId(2);
        q.record_failure(a);
        q.record_failure(a);
        q.record_failure(a); // a quarantined
        q.record_failure(b);
        q.record_failure(b); // b one short of the threshold
        assert!(q.is_quarantined(a));
        assert!(!q.is_quarantined(b));

        // Re-admit a; b's pending count is untouched by a's success.
        q.record_success(a);
        assert!(!q.is_quarantined(a));
        assert_eq!(q.len(), 0);
        q.record_failure(b); // b's third strike still lands
        assert!(q.is_quarantined(b));

        // a restarts from zero: two failures do not re-trip it…
        q.record_failure(a);
        q.record_failure(a);
        assert!(!q.is_quarantined(a));
        // …the third does, and the monotone event count records re-entry.
        assert!(q.record_failure(a));
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_quarantined(), 3);
    }

    #[test]
    fn quarantine_trips_at_threshold() {
        let mut q = Quarantine::new(3);
        let b = BlockId(7);
        assert!(!q.record_failure(b));
        assert!(!q.record_failure(b));
        assert!(!q.is_quarantined(b));
        assert!(q.record_failure(b)); // third strike
        assert!(q.is_quarantined(b));
        assert_eq!(q.len(), 1);
        // Further failures don't re-count the event.
        assert!(!q.record_failure(b));
        assert_eq!(q.total_quarantined(), 1);
    }

    #[test]
    fn success_lifts_quarantine() {
        let mut q = Quarantine::new(2);
        let b = BlockId(9);
        q.record_failure(b);
        q.record_failure(b);
        assert!(q.is_quarantined(b));
        q.record_success(b);
        assert!(!q.is_quarantined(b));
        assert!(q.is_empty());
        // The event count stays monotone; re-entry counts again.
        q.record_failure(b);
        q.record_failure(b);
        assert_eq!(q.total_quarantined(), 2);
    }

    #[test]
    fn success_on_clean_block_is_a_no_op() {
        let mut q = Quarantine::default();
        q.record_success(BlockId(1));
        assert!(q.is_empty());
    }
}
