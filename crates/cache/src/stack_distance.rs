//! Online Mattson stack-distance estimation.
//!
//! Equation 13 of the paper prices the ejection of a demand-cache buffer at
//! `(H(n) − H(n−1)) · (T_driver + T_disk)`, where `H(n)` is the hit rate an
//! LRU cache of `n` buffers would achieve on the reference stream. A
//! single LRU *stack* simulation yields `H(n)` for **all** `n`
//! simultaneously (Mattson et al. 1970): a reference at stack distance `d`
//! hits in every cache of size `> d`.
//!
//! [`StackDistanceEstimator`] maintains that histogram online in
//! O(log U) per reference using the classic timestamp + Fenwick-tree
//! algorithm: each block remembers the slot of its last access, and the
//! number of *live* slots after it equals the number of distinct blocks
//! referenced since — its stack distance. Slots are compacted when the
//! timeline fills.
//!
//! The state is bounded by the horizon, not by the run: only the
//! `horizon + 1` most recently referenced distinct blocks are remembered.
//! A block that has aged past that many successors could only ever come
//! back at a distance beyond the last histogram bin, so it is forgotten
//! when the `horizon + 2`-th distinct block arrives and its next reference
//! counts as **cold** — "cold" means first-ever *or aged past the
//! horizon*. Every distance `≤ horizon` is exact, so
//! [`StackDistanceEstimator::hit_rate`] at `n ≤ horizon` and
//! [`StackDistanceEstimator::marginal_hit_rate`] wherever its smoothing
//! window ends below bin `horizon` (`n + n/16 ≤ horizon`) are what an
//! unbounded stack would report, bit for bit.
//!
//! **The horizon rule.** [`StackDistanceEstimator::new`] tracks
//! [`StackDistanceEstimator::MAX_TRACKED`] (64 Ki) bins, four times the
//! paper's largest cache. [`StackDistanceEstimator::for_cache`] sizes the
//! horizon by the cache it prices: Eq. 13 reads `marginal_hit_rate(n)` only
//! for `n ≤ cache`, and every estimator starts with 256 bins, so when
//! `cache + max(1, cache/16) ≤ 255` (caches of at most 240 blocks) no
//! window reaches past bin 254 and a horizon of 255 gives the very bits
//! the 64 Ki-bin estimator would — with ≤ 256 blocks tracked and a
//! timeline a quarter the size, where `pfserve`'s 64-block tenants carried
//! up to 64 Ki. Larger caches keep the full horizon.
//!
//! Because workloads shift phase, the histogram supports exponential
//! decay so the marginal hit rate tracks the *recent* stream (the paper
//! computes its dynamic values "during execution").

use crate::fenwick::FenwickTree;
use prefetch_hash::FxHashMap;

/// Online LRU stack-distance histogram with exponential decay.
#[derive(Clone, Debug)]
pub struct StackDistanceEstimator {
    /// block id → timeline slot of the most recent access; never more than
    /// `horizon + 1` entries
    last_access: FxHashMap<u64, u32>,
    /// 1 at live slots
    live: FenwickTree,
    /// timeline: the block recorded at each slot below `time`
    slot_block: Vec<u64>,
    /// one bit per slot, set while the slot is its block's latest access
    live_bits: Vec<u64>,
    /// next timeline slot
    time: u32,
    /// no live slot lies below this one
    oldest: u32,
    /// largest distance tracked: `MAX_TRACKED`, or `SMALL_HORIZON` for a
    /// small cache (others in tests)
    horizon: usize,
    /// decayed histogram over stack distances `0..=horizon`
    hist: Vec<f64>,
    /// decayed weight of cold references (first-ever, or aged past the
    /// horizon)
    cold_weight: f64,
    /// total decayed weight (hist mass + cold mass)
    total_weight: f64,
    /// weight of the next sample; grows by 1/decay each reference
    sample_weight: f64,
    /// per-reference decay factor in (0, 1]; 1.0 disables decay
    decay: f64,
}

impl StackDistanceEstimator {
    /// Largest distance tracked; a block with more distinct successors
    /// than this is forgotten and comes back cold. 64 Ki bins comfortably
    /// covers the paper's largest cache (16 Ki blocks) with a 4× margin.
    pub const MAX_TRACKED: usize = 1 << 16;

    /// The horizon [`Self::for_cache`] gives a small cache: the last bin
    /// of the initial histogram.
    const SMALL_HORIZON: usize = 255;

    const INITIAL_TIMELINE: usize = 1 << 12;

    /// A fresh estimator. `decay` is the per-reference weight decay in
    /// `(0, 1]`; `1.0` gives the cumulative (undecayed) histogram. A value
    /// like `0.99999` makes the estimate track roughly the last ~100k
    /// references.
    ///
    /// # Panics
    /// Panics unless `0 < decay <= 1`.
    pub fn new(decay: f64) -> Self {
        Self::with_horizon(decay, Self::MAX_TRACKED)
    }

    /// An estimator whose [`Self::marginal_hit_rate`] at every
    /// `n ≤ cache_blocks` is bit-equal to [`Self::new`]'s, tracking no
    /// more than the horizon that takes (see the module docs): 255 when
    /// the widest window, `cache + max(1, cache/16)`, ends at or below
    /// bin 255 (caches of at most 240 blocks), `MAX_TRACKED` otherwise.
    ///
    /// # Panics
    /// Panics unless `0 < decay <= 1`.
    pub fn for_cache(decay: f64, cache_blocks: usize) -> Self {
        let widest = cache_blocks.saturating_add((cache_blocks / 16).max(1));
        if widest <= Self::SMALL_HORIZON {
            Self::with_horizon(decay, Self::SMALL_HORIZON)
        } else {
            Self::new(decay)
        }
    }

    /// [`Self::new`] with the horizon as a parameter, so tests can age
    /// blocks out with streams of hundreds rather than 64 Ki blocks.
    fn with_horizon(decay: f64, horizon: usize) -> Self {
        assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0,1], got {decay}");
        let timeline = Self::timeline_floor(horizon);
        StackDistanceEstimator {
            last_access: FxHashMap::default(),
            live: FenwickTree::new(timeline),
            slot_block: vec![0; timeline],
            live_bits: vec![0; timeline.div_ceil(64)],
            time: 0,
            oldest: 0,
            horizon,
            hist: vec![0.0; 256],
            cold_weight: 0.0,
            total_weight: 0.0,
            sample_weight: 1.0,
            decay,
        }
    }

    /// The timeline an estimator starts with and never compacts below:
    /// four slots per tracked block, capped at the 4 Ki slots
    /// `MAX_TRACKED` starts with.
    fn timeline_floor(horizon: usize) -> usize {
        (4 * (horizon + 1)).next_power_of_two().min(Self::INITIAL_TIMELINE)
    }

    /// Record a reference to `block`; returns its stack distance (`None`
    /// for a cold reference: first-ever, or aged past the horizon).
    pub fn record(&mut self, block: u64) -> Option<usize> {
        if self.time as usize == self.slot_block.len() {
            self.compact();
        }
        let slot = self.time;
        self.time += 1;
        self.slot_block[slot as usize] = block;

        let distance = match self.last_access.insert(block, slot) {
            Some(prev) => {
                // Distinct blocks referenced strictly after `prev`: the map
                // holds one entry per live slot.
                let after = self.last_access.len() as u64 - self.live.prefix_sum(prev as usize);
                self.set_live(prev, false);
                Some(after as usize)
            }
            None => None,
        };
        self.set_live(slot, true);
        if self.last_access.len() > self.horizon + 1 {
            self.forget_oldest();
        }

        let w = self.sample_weight;
        match distance {
            Some(bin) => {
                debug_assert!(
                    bin <= self.horizon,
                    "a tracked block has at most `horizon` successors"
                );
                if bin >= self.hist.len() {
                    let new_len = (bin + 1).next_power_of_two().min(self.horizon + 1);
                    self.hist.resize(new_len.max(bin + 1), 0.0);
                }
                self.hist[bin] += w;
            }
            None => self.cold_weight += w,
        }
        self.total_weight += w;
        self.sample_weight /= self.decay;
        if self.sample_weight > 1e100 {
            self.rescale();
        }
        distance
    }

    /// Estimated LRU hit rate H(n) for a cache of `n` buffers.
    pub fn hit_rate(&self, n: usize) -> f64 {
        if self.total_weight <= 0.0 {
            return 0.0;
        }
        let upto = n.min(self.hist.len());
        let mass: f64 = self.hist[..upto].iter().sum();
        mass / self.total_weight
    }

    /// Estimated marginal hit rate H(n) − H(n−1): the value of the n-th
    /// buffer. Smoothed over a window of neighbouring bins because a single
    /// bin of a decayed histogram is noisy; the window grows with `n`
    /// (±max(1, n/16)).
    pub fn marginal_hit_rate(&self, n: usize) -> f64 {
        if n == 0 || self.total_weight <= 0.0 {
            return 0.0;
        }
        let center = n - 1;
        let half = (n / 16).max(1);
        let lo = center.saturating_sub(half);
        let hi = (center + half + 1).min(self.hist.len());
        if hi <= lo {
            return 0.0;
        }
        let mass: f64 = self.hist[lo.min(self.hist.len())..hi].iter().sum();
        mass / (hi - lo) as f64 / self.total_weight
    }

    /// Fraction of references that were cold: first-ever (compulsory) or
    /// to a block that had aged past the horizon.
    pub fn cold_fraction(&self) -> f64 {
        if self.total_weight <= 0.0 {
            0.0
        } else {
            self.cold_weight / self.total_weight
        }
    }

    /// Number of distinct blocks currently tracked (at most
    /// `horizon + 1`).
    pub fn tracked_blocks(&self) -> usize {
        self.last_access.len()
    }

    /// Mark `slot` live or dead in both the Fenwick tree and the bitmap.
    fn set_live(&mut self, slot: u32, live: bool) {
        let (word, bit) = (slot as usize / 64, 1u64 << (slot % 64));
        if live {
            self.live.add(slot as usize, 1);
            self.live_bits[word] |= bit;
        } else {
            self.live.add(slot as usize, -1);
            self.live_bits[word] &= !bit;
        }
    }

    fn is_live(&self, slot: u32) -> bool {
        self.live_bits[slot as usize / 64] & (1u64 << (slot % 64)) != 0
    }

    /// Forget the least recently referenced block: it has `horizon + 1`
    /// distinct successors, so its next reference could not land in a bin.
    fn forget_oldest(&mut self) {
        while !self.is_live(self.oldest) {
            self.oldest += 1;
        }
        self.last_access.remove(&self.slot_block[self.oldest as usize]);
        self.set_live(self.oldest, false);
        self.oldest += 1;
    }

    /// Rebuild the timeline, remapping live slots to 0..live_count in one
    /// in-order walk.
    fn compact(&mut self) {
        let mut kept = 0u32;
        for slot in self.oldest..self.time {
            if self.is_live(slot) {
                let block = self.slot_block[slot as usize];
                self.slot_block[kept as usize] = block;
                self.last_access.insert(block, kept);
                kept += 1;
            }
        }
        let needed = (kept as usize * 2).max(Self::timeline_floor(self.horizon));
        self.slot_block.resize(needed, 0);
        self.live = FenwickTree::new(needed);
        self.live_bits.clear();
        self.live_bits.resize(needed.div_ceil(64), 0);
        for slot in 0..kept {
            self.set_live(slot, true);
        }
        self.time = kept;
        self.oldest = 0;
    }

    /// Divide all weights by the current sample weight to avoid overflow.
    fn rescale(&mut self) {
        let s = self.sample_weight;
        for h in &mut self.hist {
            *h /= s;
        }
        self.cold_weight /= s;
        self.total_weight /= s;
        self.sample_weight = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_match_hand_example() {
        // a b a c b a  →  a:cold b:cold a:1 c:cold b:2 a:2
        let mut e = StackDistanceEstimator::new(1.0);
        assert_eq!(e.record(1), None);
        assert_eq!(e.record(2), None);
        assert_eq!(e.record(1), Some(1));
        assert_eq!(e.record(3), None);
        assert_eq!(e.record(2), Some(2));
        assert_eq!(e.record(1), Some(2));
    }

    #[test]
    fn hit_rates_match_offline_oracle() {
        use prefetch_trace::stats::ReuseDistances;
        use prefetch_trace::synth::TraceKind;
        let trace = TraceKind::Cad.generate(20_000, 5);
        let oracle = ReuseDistances::compute(&trace);
        let mut e = StackDistanceEstimator::new(1.0);
        for b in trace.blocks() {
            e.record(b.0);
        }
        for n in [1, 2, 8, 64, 256, 1024, 4096] {
            let got = e.hit_rate(n);
            let expect = oracle.hit_rate(n);
            assert!((got - expect).abs() < 1e-9, "H({n}): got {got}, expected {expect}");
        }
        assert!((e.cold_fraction() - oracle.cold as f64 / oracle.total as f64).abs() < 1e-9);
    }

    #[test]
    fn repeated_single_block_is_distance_zero() {
        let mut e = StackDistanceEstimator::new(1.0);
        e.record(9);
        for _ in 0..100 {
            assert_eq!(e.record(9), Some(0));
        }
        // A cache of one buffer captures everything after the cold miss.
        assert!((e.hit_rate(1) - 100.0 / 101.0).abs() < 1e-12);
        assert!(e.marginal_hit_rate(1) > 0.0);
        assert_eq!(e.marginal_hit_rate(0), 0.0);
    }

    #[test]
    fn compaction_preserves_distances() {
        // Force many compactions with a timeline-heavy pattern.
        let mut e = StackDistanceEstimator::new(1.0);
        // Cycle over k blocks: steady state distance is k-1.
        let k = 500u64;
        for round in 0..40 {
            for b in 0..k {
                let d = e.record(b);
                if round > 0 {
                    assert_eq!(d, Some((k - 1) as usize), "round {round} block {b}");
                }
            }
        }
        // 20k references over a 4096-slot initial timeline: compaction ran.
        assert!(e.time < 20_000);
    }

    /// What the estimator bounds: an LRU stack that never forgets, binning
    /// every distance past the horizon into one overflow bin.
    struct UnboundedStack {
        mru_first: Vec<u64>,
        hist: Vec<f64>,
        total: f64,
        weight: f64,
        decay: f64,
    }

    impl UnboundedStack {
        fn new(decay: f64, horizon: usize) -> Self {
            UnboundedStack {
                mru_first: Vec::new(),
                hist: vec![0.0; horizon + 1],
                total: 0.0,
                weight: 1.0,
                decay,
            }
        }

        fn record(&mut self, block: u64) -> Option<usize> {
            let distance = self.mru_first.iter().position(|&b| b == block);
            if let Some(d) = distance {
                self.mru_first.remove(d);
                let overflow = self.hist.len() - 1;
                self.hist[d.min(overflow)] += self.weight;
            }
            self.mru_first.insert(0, block);
            self.total += self.weight;
            self.weight /= self.decay;
            if self.weight > 1e100 {
                for h in &mut self.hist {
                    *h /= self.weight;
                }
                self.total /= self.weight;
                self.weight = 1.0;
            }
            distance
        }

        fn hit_rate(&self, n: usize) -> f64 {
            self.hist[..n].iter().sum::<f64>() / self.total
        }

        /// Mean of the bins within ±max(1, n/16) of bin `n − 1`.
        fn marginal_hit_rate(&self, n: usize) -> f64 {
            let half = (n / 16).max(1);
            let lo = (n - 1).saturating_sub(half);
            let hi = n + half;
            self.hist[lo..hi].iter().sum::<f64>() / (hi - lo) as f64 / self.total
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Forgetting blocks that aged past the horizon changes nothing a
        /// reader at `n ≤ horizon` can see: on streams with several times
        /// `horizon` distinct blocks (long enough to compact the timeline,
        /// and to rescale at the steepest decay) every distance up to the
        /// horizon, H(n) and the smoothed marginal are bit-equal to the
        /// unbounded stack's, with never more than `horizon + 1` blocks
        /// tracked.
        #[test]
        fn bounded_state_reads_like_the_unbounded_stack(
            horizon in 4usize..48,
            decay in 0usize..3,
            blocks in proptest::collection::vec((0u64..8, 0u64..40, 0u64..400), 4500..9000),
        ) {
            let decay = [1.0, 0.9995, 0.9][decay];
            let mut bounded = StackDistanceEstimator::with_horizon(decay, horizon);
            let mut unbounded = UnboundedStack::new(decay, horizon);
            for (i, &(which, near, far)) in blocks.iter().enumerate() {
                // Mostly a small working set, with excursions over a range
                // far wider than any horizon drawn.
                let block = if which < 6 { near } else { 1000 + far };
                let want = unbounded.record(block).filter(|&d| d <= horizon);
                proptest::prop_assert!(bounded.record(block) == want, "reference {}", i);
                proptest::prop_assert!(bounded.tracked_blocks() <= horizon + 1);
                if i % 97 == 0 {
                    for n in 0..=horizon {
                        proptest::prop_assert!(
                            bounded.hit_rate(n).to_bits() == unbounded.hit_rate(n).to_bits(),
                            "H({}) after {} references", n, i
                        );
                    }
                    // Every n whose smoothing window ends below the last
                    // bin, which the unbounded stack fills with overflow.
                    for n in (1..horizon).filter(|n| n + (n / 16).max(1) <= horizon) {
                        proptest::prop_assert!(
                            bounded.marginal_hit_rate(n).to_bits()
                                == unbounded.marginal_hit_rate(n).to_bits(),
                            "marginal({}) after {} references", n, i
                        );
                    }
                }
            }
            proptest::prop_assert!(unbounded.mru_first.len() > 2 * horizon);
        }
    }

    /// A stream for the `for_cache` differentials: a working set that
    /// fits the small horizon, with excursions over 2 000 blocks so that
    /// returns from beyond bin 255 (and past a 64-block cache) are common.
    fn small_and_far(draws: &[(u64, u64, u64)]) -> impl Iterator<Item = u64> + '_ {
        draws.iter().map(|&(which, near, far)| if which < 5 { near } else { 1000 + far })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// `for_cache(d, c)` prices every demand-cache length Eq. 13 can
        /// ask for, `n ≤ c`, with the bits of the 64 Ki-bin estimator —
        /// through compactions, rescales, and returns from beyond its
        /// horizon — while tracking at most 256 blocks when `c ≤ 240`.
        #[test]
        fn for_cache_prices_every_length_like_the_full_horizon(
            cache in 1usize..300,
            decay in 0usize..3,
            draws in proptest::collection::vec((0u64..8, 0u64..300, 0u64..2000), 3000..6000),
        ) {
            let decay = [1.0, 0.9995, 0.9][decay];
            let mut sized = StackDistanceEstimator::for_cache(decay, cache);
            let mut full = StackDistanceEstimator::new(decay);
            for (i, block) in small_and_far(&draws).enumerate() {
                sized.record(block);
                full.record(block);
                if cache <= 240 {
                    proptest::prop_assert!(sized.tracked_blocks() <= 256);
                }
                if i % 89 == 0 {
                    for n in 0..=cache {
                        proptest::prop_assert!(
                            sized.marginal_hit_rate(n).to_bits()
                                == full.marginal_hit_rate(n).to_bits(),
                            "marginal({}) at cache {} after {} references", n, cache, i
                        );
                    }
                }
            }
            proptest::prop_assert!(full.tracked_blocks() > 256, "no return from beyond 255");
        }
    }

    /// The size rule's edge: at 240 blocks the widest window ends at bin
    /// 254 and the horizon shrinks; at 241 it would reach bin 255 and the
    /// full horizon is kept. A horizon-255 estimator does drift from the
    /// full one once a window reaches past its last bin (n = 242).
    #[test]
    fn for_cache_shrinks_the_horizon_up_to_240_blocks() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let draws: Vec<(u64, u64, u64)> = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 8, (x >> 8) % 300, (x >> 24) % 2000)
            })
            .collect();
        let mut at_240 = StackDistanceEstimator::for_cache(1.0, 240);
        let mut at_241 = StackDistanceEstimator::for_cache(1.0, 241);
        let mut horizon_255 = StackDistanceEstimator::with_horizon(1.0, 255);
        let mut full = StackDistanceEstimator::new(1.0);
        for block in small_and_far(&draws) {
            for e in [&mut at_240, &mut at_241, &mut horizon_255, &mut full] {
                e.record(block);
            }
        }
        assert_eq!((at_240.horizon, at_241.horizon), (255, StackDistanceEstimator::MAX_TRACKED));
        assert!(at_240.tracked_blocks() <= 256 && at_241.tracked_blocks() > 256);
        assert_eq!(at_240.slot_block.len(), 1024, "a timeline a quarter of the full one");
        for n in 0..=241 {
            let want = full.marginal_hit_rate(n).to_bits();
            assert_eq!(at_241.marginal_hit_rate(n).to_bits(), want, "n = {n}");
            if n <= 240 {
                assert_eq!(at_240.marginal_hit_rate(n).to_bits(), want, "n = {n}");
            }
        }
        assert_ne!(
            horizon_255.marginal_hit_rate(242).to_bits(),
            full.marginal_hit_rate(242).to_bits(),
            "a window past bin 255 is clamped"
        );
    }

    #[test]
    fn decay_tracks_phase_changes() {
        let mut e = StackDistanceEstimator::new(0.999);
        // Phase 1: tight loop over 4 blocks → big marginal value at n<=4.
        for i in 0..4000u64 {
            e.record(i % 4);
        }
        let early = e.hit_rate(4);
        assert!(early > 0.9, "phase-1 hit rate {early}");
        // Phase 2: loop over 64 blocks → H(4) should fall substantially.
        for i in 0..4000u64 {
            e.record(100 + (i % 64));
        }
        let late = e.hit_rate(4);
        assert!(late < 0.3, "decayed H(4) still {late}");
        assert!(e.hit_rate(64) > 0.7);
    }

    #[test]
    fn undecayed_histogram_is_cumulative() {
        let mut e = StackDistanceEstimator::new(1.0);
        for i in 0..1000u64 {
            e.record(i % 10);
        }
        // H is monotone in n and bounded by 1.
        let mut prev = 0.0;
        for n in 0..32 {
            let h = e.hit_rate(n);
            assert!((0.0..=1.0).contains(&h));
            assert!(h >= prev);
            prev = h;
        }
    }

    #[test]
    fn marginal_sums_to_hit_rate_without_smoothing_error() {
        // The smoothed marginals should roughly integrate to H(n).
        let mut e = StackDistanceEstimator::new(1.0);
        for i in 0..5000u64 {
            e.record(i % 37);
        }
        let integral: f64 = (1..=64).map(|n| e.marginal_hit_rate(n)).sum();
        let h = e.hit_rate(64);
        assert!((integral - h).abs() < 0.15, "sum of marginals {integral} vs H(64) {h}");
    }

    #[test]
    #[should_panic(expected = "decay must be in (0,1]")]
    fn zero_decay_panics() {
        StackDistanceEstimator::new(0.0);
    }
}
