//! Lazy min-heap index over prefetch-partition ejection costs.
//!
//! The paper's Eq. 11 prices ejecting a prefetched block `b` at
//!
//! ```text
//! C_pr(b) = p_b · (T_driver + T_stall(x)) / (d_remaining(b) − x)
//! ```
//!
//! where `d_remaining = distance − (period − issued_at)` decays by one per
//! access period. The engine needs the *cheapest* such block once per
//! eviction decision; a full scan is O(n) in the prefetch-partition size on
//! a per-reference hot path. This index answers the same argmin query in
//! amortised O(log n) by exploiting three structural facts:
//!
//! 1. `T_driver + T_stall(x)` is a constant within one query, so ordering
//!    by cost equals ordering by the ratio `ρ(b) = p_b / (due_b − period − x)`
//!    with `due_b = issued_at + distance` (the period the block's free
//!    window closes).
//! 2. `ρ(b)` is monotone **non-decreasing** in `period` (the denominator
//!    only shrinks), so any previously computed ρ is a valid *lower bound*
//!    forever after: a classic lazy-heap invariant. A popped minimum is
//!    refreshed to its current ρ and re-inserted; it is the true minimum
//!    exactly when its refreshed value still beats the next entry's stored
//!    lower bound.
//! 3. Once `due_b ≤ period + x` the cost is exactly `0.0` and stays there
//!    (the scan's `d_remaining ≤ x` early-out), so such blocks move to a
//!    dedicated zero-cost set ordered by recency alone.
//!
//! Tie-breaking replicates the exact scan bit-for-bit: the scan keeps the
//! *first* strict minimum in MRU-first iteration order, i.e. among equal
//! costs the most recently inserted block wins. Entries are invalidated
//! lazily: each carries the insertion sequence number and the stored-key
//! bits, and is discarded on pop if the live state disagrees (the block was
//! referenced, evicted or re-inserted, or its key refreshed). Copies that
//! never reach the top are shed in bulk whenever a heap outgrows twice the
//! resident count, so the index holds O(resident) entries however long
//! the run.
//!
//! The index works in the ratio domain ρ rather than the engine's fully
//! rounded cost domain. The two orders can disagree only when two distinct
//! `(p, denominator)` pairs produce bit-identical *costs* but distinct
//! ratios (a ~1-ulp rounding coincidence); the engine re-verifies against
//! the exact scan under `debug_assertions`.

use crate::buffer_cache::PrefetchMeta;
use prefetch_hash::FxHashMap;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Live facts about one resident prefetch entry, against which lazy heap
/// entries are validated.
#[derive(Clone, Copy, Debug)]
struct EntryState {
    /// Insertion sequence number; also the recency tie-breaker.
    seq: u64,
    /// `p_b` at insertion.
    probability: f64,
    /// `issued_at + distance`: the period the free window closes.
    due: u64,
    /// Whether the cost has collapsed to exactly 0.0 (permanent).
    zeroed: bool,
    /// Bit pattern of the key currently stored in the fresh heap for this
    /// entry; older heap copies carry older bits and are discarded.
    key_bits: u64,
}

/// Max-heap entry ordered so that the heap's top is the *best* victim:
/// smallest stored key, then largest sequence number (most recent).
#[derive(Clone, Copy, Debug)]
struct FreshEntry {
    key: f64,
    seq: u64,
    block: u64,
}

impl PartialEq for FreshEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for FreshEntry {}

impl PartialOrd for FreshEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FreshEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed key comparison: BinaryHeap is a max-heap, so "greater"
        // must mean "cheaper, then more recent".
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| self.seq.cmp(&other.seq))
            .then_with(|| self.block.cmp(&other.block))
    }
}

/// Heap entries tolerated beyond twice the resident count before stale
/// copies are shed; keeps a near-empty partition from shedding on every
/// operation.
const SHED_SLACK: usize = 64;

/// The lazy victim index. Maintained by [`crate::BufferCache`] on every
/// prefetch-partition mutation; queried via
/// [`crate::BufferCache::cheapest_prefetch_victim`].
#[derive(Clone, Debug, Default)]
pub(crate) struct VictimIndex {
    states: FxHashMap<u64, EntryState>,
    /// Entries with (still) positive cost, keyed by a lower bound of ρ.
    fresh: BinaryHeap<FreshEntry>,
    /// `(due, seq, block)` min-heap: drains entries whose free window has
    /// closed into the zero set.
    due: BinaryHeap<Reverse<(u64, u64, u64)>>,
    /// `(seq, block)` max-heap over zero-cost entries: recency decides.
    zeroed: BinaryHeap<(u64, u64)>,
    next_seq: u64,
}

impl VictimIndex {
    /// Register a newly inserted prefetch entry.
    pub(crate) fn on_insert(&mut self, block: u64, meta: &PrefetchMeta) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let due = meta.issued_at.saturating_add(u64::from(meta.distance));
        // p ≤ 0 never yields a positive cost; park it in the zero set now.
        let zeroed = meta.probability <= 0.0 || meta.probability.is_nan();
        // ρ at `period = issued_at` is p/(distance − x) ≥ p/distance, so
        // p/distance is a valid lower bound for any query time (ρ only
        // grows). distance == 0 gives +inf, but such entries are due
        // immediately and drain to the zero set before the bound matters.
        let key = if zeroed { 0.0 } else { meta.probability / f64::from(meta.distance) };
        self.states.insert(
            block,
            EntryState { seq, probability: meta.probability, due, zeroed, key_bits: key.to_bits() },
        );
        if zeroed {
            self.zeroed.push((seq, block));
        } else {
            self.fresh.push(FreshEntry { key, seq, block });
            self.due.push(Reverse((due, seq, block)));
        }
        self.shed_stale();
    }

    /// Drop a departed entry (referenced, evicted, or cancelled). Heap
    /// copies are left behind: discarded on pop, or at the next shed.
    pub(crate) fn on_remove(&mut self, block: u64) {
        self.states.remove(&block);
        self.shed_stale();
    }

    /// The block the exact Eq. 11 scan would pick at `period` with free
    /// window `x`: minimum ejection cost, most recent insertion on ties.
    /// Amortised O(log n); `None` iff the prefetch partition is empty.
    ///
    /// Contract: the horizon `period + x` must be non-decreasing across
    /// queries on one index — both the zero set ("cost collapsed to 0.0,
    /// permanently") and the stored lower bounds rely on it. The engine
    /// satisfies this trivially: `x` is a run-constant from `ModelConfig`
    /// and the access period never goes backwards.
    pub(crate) fn query(&mut self, period: u64, x: u32) -> Option<u64> {
        if self.states.is_empty() {
            return None;
        }
        let horizon = period.saturating_add(u64::from(x));

        // (1) Entries whose free window closed cost exactly 0.0, permanently.
        while let Some(&Reverse((due, seq, block))) = self.due.peek() {
            if due > horizon {
                break;
            }
            self.due.pop();
            if let Some(st) = self.states.get_mut(&block) {
                if st.seq == seq && !st.zeroed {
                    st.zeroed = true;
                    self.zeroed.push((seq, block));
                }
            }
        }
        self.shed_stale();

        // (2) Any zero-cost entry beats every positive cost; the scan keeps
        // the first zero in MRU order, i.e. the largest seq.
        while let Some(&(seq, block)) = self.zeroed.peek() {
            match self.states.get(&block) {
                Some(st) if st.seq == seq && st.zeroed => return Some(block),
                _ => {
                    self.zeroed.pop();
                }
            }
        }

        // (3) Lazy pop: refresh the top's stale lower bound to its current
        // ρ and accept it once no stored lower bound can still beat it.
        loop {
            let top = self.pop_valid_fresh()?;
            let st = self.states[&top.block];
            // due > horizon is guaranteed by the drain in (1).
            let key_now = st.probability / (st.due - horizon) as f64;
            let next = self.peek_valid_fresh();
            let refreshed = FreshEntry { key: key_now, seq: top.seq, block: top.block };
            self.states.get_mut(&top.block).unwrap().key_bits = key_now.to_bits();
            self.fresh.push(refreshed);
            // `refreshed ≥ next` in heap order means: no other entry's
            // lower bound is cheaper (or equally cheap but more recent), so
            // `top` is the scan's answer. Since stored keys only ever
            // increase toward current ρ, a failed comparison makes the
            // next iteration pop `next` — strict progress, ≤ n refreshes.
            match next {
                None => return Some(top.block),
                Some(n) if refreshed.cmp(&n) != Ordering::Less => return Some(top.block),
                Some(_) => {}
            }
        }
    }

    /// Keep every heap within `2 · resident + SHED_SLACK` entries. A copy
    /// whose entry has departed, or been superseded by a refreshed key or
    /// a move to the zero set, is only discarded when it surfaces at the
    /// top — and most never do, because the zero set answers most queries
    /// — so without this each heap grows by one copy per prefetch ever
    /// issued. Survivors are exactly the copies `query` would accept, with
    /// their stored keys, and their order is total: answers and tie-breaks
    /// do not change. A shed costs O(heap) and at least half the heap has
    /// arrived or gone stale since the previous one: amortised O(1).
    fn shed_stale(&mut self) {
        let limit = 2 * self.states.len() + SHED_SLACK;
        let states = &self.states;
        if self.fresh.len() > limit {
            self.fresh.retain(|e| is_live(states, e));
        }
        if self.due.len() > limit {
            self.due.retain(|&Reverse((_, seq, block))| {
                states.get(&block).is_some_and(|st| st.seq == seq && !st.zeroed)
            });
        }
        if self.zeroed.len() > limit {
            self.zeroed.retain(|&(seq, block)| {
                states.get(&block).is_some_and(|st| st.seq == seq && st.zeroed)
            });
        }
    }

    /// Pop fresh-heap entries until one matches the live state.
    fn pop_valid_fresh(&mut self) -> Option<FreshEntry> {
        loop {
            let e = *self.fresh.peek()?;
            self.fresh.pop();
            if is_live(&self.states, &e) {
                return Some(e);
            }
        }
    }

    /// Peek the best fresh entry that matches the live state, discarding
    /// stale ones on the way.
    fn peek_valid_fresh(&mut self) -> Option<FreshEntry> {
        loop {
            let e = *self.fresh.peek()?;
            if is_live(&self.states, &e) {
                return Some(e);
            }
            self.fresh.pop();
        }
    }
}

/// Whether a fresh-heap copy is the current one for a resident entry.
fn is_live(states: &FxHashMap<u64, EntryState>, e: &FreshEntry) -> bool {
    states
        .get(&e.block)
        .is_some_and(|st| st.seq == e.seq && !st.zeroed && st.key_bits == e.key.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(p: f64, distance: u32, issued_at: u64) -> PrefetchMeta {
        PrefetchMeta { probability: p, distance, issued_at, sequential: false }
    }

    /// The exact scan in ρ space: min cost first, most recent on ties.
    fn reference_pick(entries: &[(u64, PrefetchMeta)], period: u64, x: u32) -> Option<u64> {
        let mut best: Option<(u64, f64)> = None;
        // MRU-first = reverse insertion order, first strict minimum wins.
        for &(b, m) in entries.iter().rev() {
            let elapsed = period.saturating_sub(m.issued_at);
            let remaining = u64::from(m.distance).saturating_sub(elapsed) as u32;
            let cost = if remaining <= x { 0.0 } else { m.probability / f64::from(remaining - x) };
            if best.is_none_or(|(_, bc)| cost < bc) {
                best = Some((b, cost));
            }
        }
        best.map(|(b, _)| b)
    }

    #[test]
    fn matches_the_exact_scan_under_churn() {
        // Deterministic pseudo-random workload of inserts, removals and
        // queries at advancing periods. `x` is fixed per index (it is a
        // run constant in the engine — the query contract).
        for x in [0u32, 1, 2, 5] {
            let mut rng = 0x243f_6a88_85a3_08d3u64 ^ u64::from(x);
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut idx = VictimIndex::default();
            let mut live: Vec<(u64, PrefetchMeta)> = Vec::new();
            let mut period = 0u64;
            for step in 0..4000u64 {
                match next() % 10 {
                    0..=4 => {
                        let block = 10_000 + step;
                        let m = meta(
                            (next() % 1000) as f64 / 1000.0,
                            (next() % 12) as u32,
                            period.saturating_sub(next() % 3),
                        );
                        idx.on_insert(block, &m);
                        live.push((block, m));
                    }
                    5 | 6 if !live.is_empty() => {
                        let i = (next() as usize) % live.len();
                        let (b, _) = live.remove(i);
                        idx.on_remove(b);
                    }
                    _ => period += next() % 3,
                }
                assert_eq!(
                    idx.query(period, x),
                    reference_pick(&live, period, x),
                    "diverged at step {step}, period {period}, x {x}"
                );
            }
        }
    }

    #[test]
    fn heaps_hold_o_resident_entries_however_long_the_churn() {
        // A 64-entry partition driven the way the engine drives it: insert
        // while there is room, otherwise reference a resident block (a
        // prefetch hit) or evict the index's own answer. Most queries are
        // answered from the zero set, so fresh/due copies of departed
        // entries never surface: only shedding bounds them.
        const PARTITION: usize = 64;
        let mut rng = 0x1319_8a2e_0370_7344u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut idx = VictimIndex::default();
        let mut live: Vec<(u64, PrefetchMeta)> = Vec::new();
        let mut period = 0u64;
        let mut sheds = 0u32;
        for step in 0..120_000u64 {
            let before = idx.fresh.len() + idx.due.len() + idx.zeroed.len();
            if live.len() < PARTITION && next() % 4 != 0 {
                let m = meta((next() % 1000) as f64 / 1000.0, 1 + (next() % 40) as u32, period);
                idx.on_insert(step, &m);
                live.push((step, m));
            } else if next() % 3 == 0 {
                let i = (next() as usize) % live.len();
                idx.on_remove(live.remove(i).0);
            } else if let Some(victim) = idx.query(period, 1) {
                live.retain(|&(b, _)| b != victim);
                idx.on_remove(victim);
            }
            period += next() % 2;
            assert_eq!(idx.query(period, 1), reference_pick(&live, period, 1), "step {step}");
            let limit = 2 * live.len() + SHED_SLACK;
            for (heap, len) in
                [("fresh", idx.fresh.len()), ("due", idx.due.len()), ("zeroed", idx.zeroed.len())]
            {
                assert!(len <= limit, "{heap} heap holds {len} > {limit} at step {step}");
            }
            // More than the two pops a query can make: a bulk shed ran.
            sheds += u32::from(idx.fresh.len() + idx.due.len() + idx.zeroed.len() + 16 < before);
        }
        assert!(sheds > 100, "the churn must cross many sheds, saw {sheds}");
    }

    #[test]
    fn recency_breaks_equal_cost_ties() {
        let mut idx = VictimIndex::default();
        // Identical meta: identical cost at any period; the scan keeps the
        // most recently inserted.
        idx.on_insert(1, &meta(0.5, 10, 0));
        idx.on_insert(2, &meta(0.5, 10, 0));
        idx.on_insert(3, &meta(0.5, 10, 0));
        assert_eq!(idx.query(0, 1), Some(3));
        idx.on_remove(3);
        assert_eq!(idx.query(0, 1), Some(2));
    }

    #[test]
    fn overdue_entries_cost_zero_and_win() {
        let mut idx = VictimIndex::default();
        idx.on_insert(1, &meta(0.9, 100, 0)); // cost 0.9/99 ≈ 0.0091
        idx.on_insert(2, &meta(0.1, 2, 0)); // cost 0.1/1 = 0.1, due at period 2
        assert_eq!(idx.query(0, 1), Some(1), "cheapest positive cost");
        assert_eq!(idx.query(5, 1), Some(2), "overdue → zero cost beats all");
        idx.on_remove(2);
        assert_eq!(idx.query(5, 1), Some(1));
        assert_eq!(idx.query(5, 1), Some(1), "queries are repeatable");
    }

    #[test]
    fn empty_index_returns_none() {
        let mut idx = VictimIndex::default();
        assert_eq!(idx.query(7, 1), None);
        idx.on_insert(4, &meta(0.5, 3, 0));
        idx.on_remove(4);
        assert_eq!(idx.query(7, 1), None);
    }
}
