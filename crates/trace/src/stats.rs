//! Trace statistics used to validate the synthetic generators and populate
//! Table 1 of the paper.

use crate::{BlockId, Trace};
use std::collections::{HashMap, HashSet};

/// Summary statistics of a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStats {
    /// Number of references.
    pub refs: usize,
    /// Number of distinct blocks referenced.
    pub unique_blocks: usize,
    /// Fraction of transitions where the next block is `prev + 1`.
    pub sequential_fraction: f64,
    /// Fraction of transitions `(a, b)` that occurred earlier in the trace
    /// — a cheap proxy for how learnable the access pattern is.
    pub bigram_repetition: f64,
    /// Fraction of references to blocks seen before (1 − compulsory rate).
    pub reuse_fraction: f64,
    /// Number of distinct processes.
    pub processes: usize,
    /// Mean references per distinct block.
    pub mean_refs_per_block: f64,
}

impl TraceStats {
    /// Compute statistics over `trace` in one pass.
    pub fn compute(trace: &Trace) -> TraceStats {
        let refs = trace.len();
        if refs == 0 {
            return TraceStats {
                refs: 0,
                unique_blocks: 0,
                sequential_fraction: 0.0,
                bigram_repetition: 0.0,
                reuse_fraction: 0.0,
                processes: 0,
                mean_refs_per_block: 0.0,
            };
        }
        let mut seen: HashSet<BlockId> = HashSet::new();
        let mut bigrams: HashSet<(u64, u64)> = HashSet::new();
        let mut pids: HashSet<u32> = HashSet::new();
        let mut sequential = 0usize;
        let mut repeated_bigrams = 0usize;
        let mut reused = 0usize;
        let mut prev: Option<BlockId> = None;
        for r in trace.records() {
            pids.insert(r.pid);
            if !seen.insert(r.block) {
                reused += 1;
            }
            if let Some(p) = prev {
                if p.is_successor(r.block) {
                    sequential += 1;
                }
                if !bigrams.insert((p.0, r.block.0)) {
                    repeated_bigrams += 1;
                }
            }
            prev = Some(r.block);
        }
        let transitions = (refs - 1).max(1);
        TraceStats {
            refs,
            unique_blocks: seen.len(),
            sequential_fraction: sequential as f64 / transitions as f64,
            bigram_repetition: repeated_bigrams as f64 / transitions as f64,
            reuse_fraction: reused as f64 / refs as f64,
            processes: pids.len(),
            mean_refs_per_block: refs as f64 / seen.len() as f64,
        }
    }
}

/// Histogram of LRU reuse distances: `histogram[d]` holds references whose
/// reuse distance (number of *distinct* blocks referenced since the previous
/// access to the same block) is `d`; `cold` counts first references.
///
/// This is the classic Mattson single-pass characterization: an LRU cache of
/// `n` blocks hits exactly the references with distance `< n`, so
/// [`ReuseDistances::hit_rate`] yields H(n) for every `n` from one pass.
///
/// The implementation here is the simple O(refs × distinct) list-based one —
/// adequate for offline trace characterization. The simulator's *online*
/// estimator lives in `prefetch-cache` and uses a Fenwick tree.
#[derive(Clone, Debug, Default)]
pub struct ReuseDistances {
    /// `histogram[d]` = number of references at stack distance `d`
    pub histogram: Vec<u64>,
    /// references to never-before-seen blocks
    pub cold: u64,
    /// total references
    pub total: u64,
}

impl ReuseDistances {
    /// Compute reuse distances for the whole trace.
    pub fn compute(trace: &Trace) -> ReuseDistances {
        let mut stack: Vec<BlockId> = Vec::new(); // front = MRU
        let mut out = ReuseDistances::default();
        for r in trace.records() {
            out.total += 1;
            match stack.iter().position(|&b| b == r.block) {
                Some(d) => {
                    if out.histogram.len() <= d {
                        out.histogram.resize(d + 1, 0);
                    }
                    out.histogram[d] += 1;
                    stack.remove(d);
                    stack.insert(0, r.block);
                }
                None => {
                    out.cold += 1;
                    stack.insert(0, r.block);
                }
            }
        }
        out
    }

    /// Hit rate H(n) of an LRU cache with `n` blocks over this trace.
    pub fn hit_rate(&self, n: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hits: u64 = self.histogram.iter().take(n).sum();
        hits as f64 / self.total as f64
    }

    /// Marginal hit rate H(n) − H(n−1): the fraction of references that hit
    /// exactly at stack position n−1 (the LRU slot of a size-n cache).
    pub fn marginal_hit_rate(&self, n: usize) -> f64 {
        if self.total == 0 || n == 0 {
            return 0.0;
        }
        *self.histogram.get(n - 1).unwrap_or(&0) as f64 / self.total as f64
    }
}

/// Per-process reference counts, for workload characterization reports.
pub fn refs_per_process(trace: &Trace) -> HashMap<u32, usize> {
    let mut m = HashMap::new();
    for r in trace.records() {
        *m.entry(r.pid).or_insert(0) += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_empty_trace() {
        let s = TraceStats::compute(&Trace::empty());
        assert_eq!(s.refs, 0);
        assert_eq!(s.unique_blocks, 0);
        assert_eq!(s.sequential_fraction, 0.0);
    }

    #[test]
    fn stats_on_pure_sequential() {
        let t = Trace::from_blocks(0u64..100);
        let s = TraceStats::compute(&t);
        assert_eq!(s.refs, 100);
        assert_eq!(s.unique_blocks, 100);
        assert!((s.sequential_fraction - 1.0).abs() < 1e-12);
        assert_eq!(s.reuse_fraction, 0.0);
        assert_eq!(s.bigram_repetition, 0.0);
    }

    #[test]
    fn stats_on_repeated_loop() {
        // (1,2,3) × 10: after the first lap, all bigrams repeat and all
        // references reuse.
        let blocks: Vec<u64> = (0..10).flat_map(|_| [1u64, 2, 3]).collect();
        let t = Trace::from_blocks(blocks);
        let s = TraceStats::compute(&t);
        assert_eq!(s.unique_blocks, 3);
        assert_eq!(s.refs, 30);
        assert!((s.reuse_fraction - 27.0 / 30.0).abs() < 1e-12);
        assert!(s.bigram_repetition > 0.85);
        // 1→2 and 2→3 are sequential (2 per lap × 10 laps); 3→1 is not.
        assert!((s.sequential_fraction - 20.0 / 29.0).abs() < 1e-9);
    }

    #[test]
    fn reuse_distances_match_hand_computation() {
        // Accesses: a b a c b a
        // a: cold; b: cold; a: dist 1; c: cold; b: dist 2; a: dist 2
        let t = Trace::from_blocks([1u64, 2, 1, 3, 2, 1]);
        let rd = ReuseDistances::compute(&t);
        assert_eq!(rd.cold, 3);
        assert_eq!(rd.total, 6);
        assert_eq!(rd.histogram, vec![0, 1, 2]);
        // LRU(1) hits nothing; LRU(2) hits the distance-1 access;
        // LRU(3) hits all three reuses.
        assert_eq!(rd.hit_rate(1), 0.0);
        assert!((rd.hit_rate(2) - 1.0 / 6.0).abs() < 1e-12);
        assert!((rd.hit_rate(3) - 3.0 / 6.0).abs() < 1e-12);
        assert!((rd.marginal_hit_rate(3) - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(rd.marginal_hit_rate(0), 0.0);
    }

    #[test]
    fn hit_rate_is_monotone_in_n() {
        let t = crate::synth::TraceKind::Cad.generate(5000, 7);
        let rd = ReuseDistances::compute(&t);
        let mut prev = 0.0;
        for n in 0..200 {
            let h = rd.hit_rate(n);
            assert!(h >= prev - 1e-12, "H({n}) decreased");
            prev = h;
        }
        assert!(rd.hit_rate(usize::MAX) <= 1.0);
    }

    #[test]
    fn refs_per_process_counts() {
        let mut t = Trace::empty();
        t.push(crate::TraceRecord::read(1u64).with_pid(1));
        t.push(crate::TraceRecord::read(2u64).with_pid(1));
        t.push(crate::TraceRecord::read(3u64).with_pid(2));
        let m = refs_per_process(&t);
        assert_eq!(m[&1], 2);
        assert_eq!(m[&2], 1);
    }
}
