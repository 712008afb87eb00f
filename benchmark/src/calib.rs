//! Calibration against the host's memory latency.
//!
//! On a shared sandbox the wall time of the very same binary on the very
//! same input drifts by tens of percent over minutes, as neighbours come
//! and go in the last-level cache; a pure ALU loop does not move, a
//! dependent-load loop moves with the workloads (all of which chase
//! pointers through hash maps and tree arenas). So every end-to-end host
//! time is reported **at a reference memory latency**: the raw time,
//! scaled by [`REF_NS_PER_LOAD`] over the latency of a dependent random
//! load measured immediately before and after it. Over 40 minutes on the
//! box this was written on, medians of runs spread 1.3× raw and 1.07×
//! calibrated.

use std::hint::black_box;
use std::time::Instant;

/// The latency all host times are scaled to, ns per dependent load —
/// about what this loop reads on the 2-core development box when it is
/// quiet, so calibrated and raw figures agree there.
pub const REF_NS_PER_LOAD: f64 = 160.0;

/// Table entries: 32 Mi × 4 B = 128 MiB, far beyond any cache share a
/// guest can hold, so a load is a last-level miss more often than not.
const ENTRIES: usize = 1 << 25;
/// Dependent loads per sample (≈ 0.25 s).
const LOADS: usize = 1_500_000;

/// A pointer-chasing loop over a fixed pseudo-random cycle.
pub struct Calibrator {
    next: Vec<u32>,
    at: u32,
    samples: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Build the table: `next[i] = (a·i + c) mod 2^25`, a full-period
    /// linear congruential map (c odd, a ≡ 1 mod 4), so following it
    /// visits every entry once before repeating — no short loop that
    /// would fit a cache — at a cost of one sequential fill.
    pub fn new() -> Self {
        let next = (0..ENTRIES as u32)
            .map(|i| i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) & (ENTRIES as u32 - 1))
            .collect();
        Calibrator { next, at: 0, samples: Vec::new() }
    }

    /// Time [`LOADS`] dependent loads, continuing along the cycle;
    /// returns ns per load.
    pub fn sample(&mut self) -> f64 {
        let started = Instant::now();
        let mut at = self.at;
        for _ in 0..LOADS {
            at = self.next[at as usize];
        }
        self.at = black_box(at);
        let ns = started.elapsed().as_nanos() as f64 / LOADS as f64;
        self.samples.push(ns);
        ns
    }

    /// Median of every sample taken so far, ns per load.
    pub fn median_ns_per_load(&self) -> f64 {
        crate::stats::median(&self.samples)
    }
}

/// `raw` host time, measured between calibration samples `before` and
/// `after`, at the reference latency.
pub fn at_reference(raw: f64, before: f64, after: f64) -> f64 {
    raw * REF_NS_PER_LOAD / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_map_is_one_full_cycle() {
        // Hull–Dobell on a small modulus with the same constants: every
        // entry is visited exactly once.
        let n = 1u32 << 12;
        let step = |i: u32| i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) & (n - 1);
        let mut seen = vec![false; n as usize];
        let mut at = 0;
        for _ in 0..n {
            assert!(!seen[at as usize]);
            seen[at as usize] = true;
            at = step(at);
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn scaling_is_neutral_at_the_reference() {
        assert_eq!(at_reference(1000.0, REF_NS_PER_LOAD, REF_NS_PER_LOAD), 1000.0);
        assert_eq!(at_reference(1000.0, 2.0 * REF_NS_PER_LOAD, 2.0 * REF_NS_PER_LOAD), 500.0);
        assert_eq!(at_reference(1000.0, 120.0, 200.0), 1000.0);
    }
}
