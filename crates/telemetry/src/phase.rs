//! Per-phase profiling timers.
//!
//! The simulator's hot loop decomposes into five phases (tree update,
//! candidate selection, cost-benefit evaluation, cache operations, I/O
//! submission). A [`PhaseTimer`] accumulates wall-clock nanoseconds per
//! phase into a [`PhaseTimes`] table. The disabled timer — the
//! "NullTelemetry" path, [`PhaseTimer::null`] — reduces every probe to a
//! single branch on a bool, so uninstrumented runs pay effectively
//! nothing.
//!
//! A probe is an explicit [`PhaseTimer::begin`] / [`PhaseTimer::end`] pair
//! around a region (the token is `None` when disabled, so `end` is a
//! no-op).

use std::time::Instant;

/// The five profiled phases of a simulation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// LZ prefetch-tree maintenance (`record_reference`).
    TreeUpdate,
    /// Enumerating and expanding prefetch candidates.
    CandidateSelection,
    /// Cost-benefit comparisons (victim selection, frontier pricing).
    CostBenefit,
    /// Cache lookups, insertions, and evictions.
    CacheOps,
    /// Demand fetches and prefetch submission to the disk model.
    IoSubmission,
}

impl Phase {
    /// All phases, in reporting order.
    pub const ALL: [Phase; 5] = [
        Phase::TreeUpdate,
        Phase::CandidateSelection,
        Phase::CostBenefit,
        Phase::CacheOps,
        Phase::IoSubmission,
    ];

    /// Stable snake_case name used in logs and tables.
    pub fn name(self) -> &'static str {
        match self {
            Phase::TreeUpdate => "tree_update",
            Phase::CandidateSelection => "candidate_selection",
            Phase::CostBenefit => "cost_benefit",
            Phase::CacheOps => "cache_ops",
            Phase::IoSubmission => "io_submission",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated nanoseconds per [`Phase`]. Mergeable (element-wise add)
/// and cheap to copy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    ns: [u64; 5],
}

impl PhaseTimes {
    /// Nanoseconds accumulated in `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.ns[phase.index()]
    }

    /// Add `ns` nanoseconds to `phase`.
    #[inline]
    pub fn add_ns(&mut self, phase: Phase, ns: u64) {
        self.ns[phase.index()] += ns;
    }

    /// Fold another table into this one.
    pub fn merge(&mut self, other: &PhaseTimes) {
        for (a, b) in self.ns.iter_mut().zip(&other.ns) {
            *a += b;
        }
    }

    /// Total nanoseconds across all phases.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Whether any phase accumulated time.
    pub fn is_zero(&self) -> bool {
        self.total_ns() == 0
    }
}

/// A per-run profiling timer. Disabled timers ([`PhaseTimer::null`])
/// skip the clock entirely: `begin` returns `None` and `end` is a no-op.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimer {
    enabled: bool,
    times: PhaseTimes,
}

impl PhaseTimer {
    /// A timer that is enabled iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        PhaseTimer { enabled, times: PhaseTimes::default() }
    }

    /// The NullTelemetry path: a disabled timer whose probes cost one
    /// branch each.
    pub fn null() -> Self {
        PhaseTimer::new(false)
    }

    /// Whether probes are live.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turn probes on (accumulated times are kept).
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Start timing a region. Returns `None` when disabled; pass the
    /// token to [`PhaseTimer::end`].
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Charge the elapsed time since `begin` to `phase`. No-op when the
    /// token is `None` (disabled timer).
    #[inline]
    pub fn end(&mut self, phase: Phase, token: Option<Instant>) {
        if let Some(start) = token {
            self.times.add_ns(phase, start.elapsed().as_nanos() as u64);
        }
    }

    /// The accumulated table.
    pub fn times(&self) -> PhaseTimes {
        self.times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timer_records_nothing() {
        let mut t = PhaseTimer::null();
        assert!(!t.is_enabled());
        let tok = t.begin();
        assert!(tok.is_none());
        t.end(Phase::TreeUpdate, tok);
        assert!(t.times().is_zero());
    }

    #[test]
    fn enabled_timer_accumulates_into_the_right_phase() {
        let mut t = PhaseTimer::new(true);
        let tok = t.begin();
        assert!(tok.is_some());
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(Phase::CostBenefit, tok);
        assert!(t.times().get(Phase::CostBenefit) > 0);
        assert_eq!(t.times().get(Phase::TreeUpdate), 0);
    }

    #[test]
    fn merge_is_element_wise() {
        let mut a = PhaseTimes::default();
        a.add_ns(Phase::TreeUpdate, 10);
        a.add_ns(Phase::CacheOps, 5);
        let mut b = PhaseTimes::default();
        b.add_ns(Phase::TreeUpdate, 3);
        b.add_ns(Phase::IoSubmission, 7);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.get(Phase::TreeUpdate), 13);
        assert_eq!(merged.get(Phase::CacheOps), 5);
        assert_eq!(merged.get(Phase::IoSubmission), 7);
        assert_eq!(merged.total_ns(), 25);
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            ["tree_update", "candidate_selection", "cost_benefit", "cache_ops", "io_submission"]
        );
    }
}
