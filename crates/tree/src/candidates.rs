//! Prefetch-candidate enumeration.
//!
//! A candidate is a descendant of the parse cursor, carrying the path
//! probability `p_b` (product of edge probabilities from the cursor), its
//! parent's path probability `p_x`, and the distance `d_b` (edges from the
//! cursor) — the three inputs the paper's benefit equation (Eq. 1) and
//! overhead equation (Eq. 14) need.
//!
//! Enumeration is *incremental*: `prefetch-core` maintains a best-first
//! frontier and calls [`PrefetchTree::child_candidates_pruned_soa`] to expand
//! a candidate's children only when the candidate itself has been settled
//! (prefetched, or found already cached). This realizes the paper's
//! "prefetch along multiple paths simultaneously" without materializing
//! whole subtrees.

use crate::node::NodeId;
use crate::tree::PrefetchTree;
use prefetch_trace::BlockId;

/// A prefetch candidate below the parse cursor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// Tree node of the candidate block.
    pub node: NodeId,
    /// The candidate block.
    pub block: BlockId,
    /// Path probability `p_b` from the anchor (cursor) to this node.
    pub probability: f64,
    /// Path probability `p_x` of this node's parent (1.0 for direct
    /// children of the anchor).
    pub parent_probability: f64,
    /// Distance `d_b`: edges from the anchor.
    pub depth: u32,
}

/// Struct-of-arrays candidate buffer: the fields of [`Candidate`] as
/// parallel columns, in the arena's SoA style. The cost-benefit engine
/// owns one as scratch and hands the probability/depth columns straight to
/// the batched pricing loop (`prefetch-core::kernel`) — with no AoS→SoA
/// transpose on the hot path.
///
/// Invariant: all five columns always have equal length; mutate through
/// [`Self::push`]/[`Self::clear`] or keep them in lockstep by hand.
#[derive(Clone, Debug, Default)]
pub struct CandidateBatch {
    /// Tree node per candidate.
    pub node: Vec<NodeId>,
    /// Candidate block per candidate.
    pub block: Vec<BlockId>,
    /// Path probability `p_b` per candidate.
    pub p_b: Vec<f64>,
    /// Parent path probability `p_x` per candidate.
    pub p_x: Vec<f64>,
    /// Distance `d_b` per candidate.
    pub d_b: Vec<u32>,
}

impl CandidateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Candidates in the batch.
    pub fn len(&self) -> usize {
        self.p_b.len()
    }

    /// True when no candidates are buffered.
    pub fn is_empty(&self) -> bool {
        self.p_b.is_empty()
    }

    /// Drop all candidates, keeping the column allocations.
    pub fn clear(&mut self) {
        self.node.clear();
        self.block.clear();
        self.p_b.clear();
        self.p_x.clear();
        self.d_b.clear();
    }

    /// Append one candidate across all columns.
    pub fn push(&mut self, c: Candidate) {
        self.node.push(c.node);
        self.block.push(c.block);
        self.p_b.push(c.probability);
        self.p_x.push(c.parent_probability);
        self.d_b.push(c.depth);
    }

    /// Reassemble row `i` as an AoS [`Candidate`] (heap entries stay AoS).
    pub fn candidate(&self, i: usize) -> Candidate {
        Candidate {
            node: self.node[i],
            block: self.block[i],
            probability: self.p_b[i],
            parent_probability: self.p_x[i],
            depth: self.d_b[i],
        }
    }
}

impl PrefetchTree {
    /// The one child-enumeration loop. Children are stored sorted by
    /// descending weight, so probabilities are non-increasing along the
    /// child list: enumeration stops at the first child below
    /// `min_probability` (or at zero probability — weight-free structural
    /// nodes), which keeps the work proportional to the number of *useful*
    /// candidates even below a root with tens of thousands of children.
    #[inline]
    fn for_each_child_candidate(
        &self,
        node: NodeId,
        base_probability: f64,
        base_depth: u32,
        min_probability: f64,
        limit: usize,
        mut emit: impl FnMut(Candidate),
    ) {
        let parent_weight = self.weight(node);
        if parent_weight == 0 {
            return;
        }
        for child in self.children(node).take(limit) {
            let p = base_probability * self.weight(child) as f64 / parent_weight as f64;
            if p < min_probability || p <= 0.0 {
                break; // children are weight-sorted: the rest are smaller
            }
            emit(Candidate {
                node: child,
                block: self.block(child).expect("children are never the root"),
                probability: p,
                parent_probability: base_probability,
                depth: base_depth + 1,
            });
        }
    }

    /// Candidates one edge below `node`.
    ///
    /// `base_probability` is the path probability of `node` itself
    /// relative to the anchor (1.0 when `node` *is* the anchor), and
    /// `base_depth` its distance from the anchor. Children with zero
    /// probability (possible after weight-free structural nodes) are
    /// skipped.
    pub fn child_candidates(
        &self,
        node: NodeId,
        base_probability: f64,
        base_depth: u32,
        out: &mut Vec<Candidate>,
    ) {
        self.child_candidates_topk(node, base_probability, base_depth, usize::MAX, out);
    }

    /// Candidates one edge below `node` whose path probability is at least
    /// `min_probability`, appended to a [`CandidateBatch`]'s SoA columns in
    /// descending-probability order. The engine's pricing loop consumes
    /// the columns directly.
    pub fn child_candidates_pruned_soa(
        &self,
        node: NodeId,
        base_probability: f64,
        base_depth: u32,
        min_probability: f64,
        out: &mut CandidateBatch,
    ) {
        self.for_each_child_candidate(
            node,
            base_probability,
            base_depth,
            min_probability,
            usize::MAX,
            |c| out.push(c),
        );
    }

    /// The `k` most probable candidates one edge below `node` — simply the
    /// first `k` children, because children are stored sorted by weight.
    /// Used by the `tree-children` baseline (Kroeger & Long).
    pub fn child_candidates_topk(
        &self,
        node: NodeId,
        base_probability: f64,
        base_depth: u32,
        k: usize,
        out: &mut Vec<Candidate>,
    ) {
        self.for_each_child_candidate(node, base_probability, base_depth, 0.0, k, |c| out.push(c));
    }

    /// All candidates within `max_depth` edges of `anchor`, best-first by
    /// probability. Convenience for analysis and the parametric baselines
    /// (`tree-threshold`, `tree-children`); the cost-benefit policy uses
    /// the incremental frontier instead.
    ///
    /// Selection runs on a [`std::collections::BinaryHeap`] — O((n + m)
    /// log n) for n frontier entries and m pops, replacing a linear
    /// `max_by` + `swap_remove` rescan per pop that was quadratic in the
    /// frontier size. Output (including the order of equal-probability
    /// candidates) is byte-identical to the historical loop: see
    /// [`HeapFrontier`] for how its tie-breaking is replicated.
    pub fn candidates_below(
        &self,
        anchor: NodeId,
        max_depth: u32,
        max_candidates: usize,
    ) -> Vec<Candidate> {
        let mut seed: Vec<Candidate> = Vec::new();
        self.child_candidates(anchor, 1.0, 0, &mut seed);
        let mut frontier = HeapFrontier::new(seed);
        let mut result: Vec<Candidate> = Vec::new();
        let mut kids: Vec<Candidate> = Vec::new();
        while let Some(c) = frontier.pop_max() {
            if result.len() >= max_candidates {
                break;
            }
            if c.depth < max_depth {
                kids.clear();
                self.child_candidates(c.node, c.probability, c.depth, &mut kids);
                for k in kids.drain(..) {
                    frontier.push(k);
                }
            }
            result.push(c);
        }
        result
    }
}

/// Sentinel position for removed frontier slots.
const GONE: u32 = u32::MAX;

/// Heap key: probability first, then the candidate's *current position* in
/// the mirrored vector. The historical selection loop used
/// `iter().enumerate().max_by(total_cmp)` — which keeps the **last**
/// maximal element — followed by `swap_remove`, so among equal
/// probabilities the entry at the largest vector index won, and the
/// relocation performed by `swap_remove` could change which entry that
/// was on the next pop. Ordering by `(probability, position)` and
/// re-keying the relocated entry reproduces those picks exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
struct FrontKey {
    probability: f64,
    pos: u32,
    id: u32,
}

impl Eq for FrontKey {}

impl PartialOrd for FrontKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FrontKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.probability
            .total_cmp(&other.probability)
            .then_with(|| self.pos.cmp(&other.pos))
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// Best-first frontier that replays the historical `Vec` + `max_by` +
/// `swap_remove` selection through a heap.
///
/// `positions` mirrors the old vector: `positions[p]` is the id of the
/// candidate the old loop would have had at index `p`. A pop performs a
/// literal `swap_remove` on the mirror; the relocated candidate gets a
/// fresh heap entry under its new position, and its old entry (still in
/// the heap under the stale position) is discarded lazily via the
/// `pos_of` check — `(id, pos)` pairs never repeat because a candidate's
/// position only ever decreases.
struct HeapFrontier {
    heap: std::collections::BinaryHeap<FrontKey>,
    /// All candidates ever pushed, addressed by id.
    slots: Vec<Candidate>,
    /// position → id: the mirror of the historical frontier vector.
    positions: Vec<u32>,
    /// id → current position (`GONE` once popped).
    pos_of: Vec<u32>,
}

impl HeapFrontier {
    fn new(seed: Vec<Candidate>) -> Self {
        let mut f = HeapFrontier {
            heap: std::collections::BinaryHeap::with_capacity(seed.len()),
            slots: Vec::with_capacity(seed.len()),
            positions: Vec::with_capacity(seed.len()),
            pos_of: Vec::with_capacity(seed.len()),
        };
        for c in seed {
            f.push(c);
        }
        f
    }

    fn push(&mut self, c: Candidate) {
        let id = self.slots.len() as u32;
        let pos = self.positions.len() as u32;
        self.slots.push(c);
        self.positions.push(id);
        self.pos_of.push(pos);
        self.heap.push(FrontKey { probability: c.probability, pos, id });
    }

    /// The candidate the historical loop's `max_by` + `swap_remove` would
    /// have returned next.
    fn pop_max(&mut self) -> Option<Candidate> {
        loop {
            let k = self.heap.pop()?;
            if self.pos_of[k.id as usize] != k.pos {
                continue; // superseded by a swap_remove relocation
            }
            // Mirror the swap_remove: the last entry moves into k.pos.
            let last = self.positions.pop().expect("a live position implies a non-empty mirror");
            if (k.pos as usize) < self.positions.len() {
                self.positions[k.pos as usize] = last;
                self.pos_of[last as usize] = k.pos;
                self.heap.push(FrontKey {
                    probability: self.slots[last as usize].probability,
                    pos: k.pos,
                    id: last,
                });
            }
            self.pos_of[k.id as usize] = GONE;
            return Some(self.slots[k.id as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_tree() -> PrefetchTree {
        let mut t = PrefetchTree::new();
        for b in [1u64, 1, 3, 1, 2, 1, 2, 1, 1, 2, 2, 2] {
            t.record_access(BlockId(b));
        }
        t
    }

    #[test]
    fn direct_children_probabilities() {
        let t = fig1_tree();
        let mut out = Vec::new();
        t.child_candidates(t.root(), 1.0, 0, &mut out);
        out.sort_by_key(|a| a.block.0);
        assert_eq!(out.len(), 2);
        // a: 5/6, b: 1/6, both at depth 1 with parent probability 1.
        assert_eq!(out[0].block, BlockId(1));
        assert!((out[0].probability - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(out[0].parent_probability, 1.0);
        assert_eq!(out[0].depth, 1);
        assert_eq!(out[1].block, BlockId(2));
        assert!((out[1].probability - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn path_probabilities_multiply() {
        // Paper Figure 1(a): p(c at distance 2 from root) = (5/6)·(1/5) = 1/6.
        let t = fig1_tree();
        let cands = t.candidates_below(t.root(), 2, 100);
        let c = cands.iter().find(|c| c.block == BlockId(3) && c.depth == 2).expect("c at d=2");
        assert!((c.probability - 1.0 / 6.0).abs() < 1e-12);
        assert!((c.parent_probability - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn candidates_below_is_best_first_and_bounded() {
        let t = fig1_tree();
        let cands = t.candidates_below(t.root(), 3, 3);
        assert_eq!(cands.len(), 3);
        // Non-increasing probability order.
        for w in cands.windows(2) {
            assert!(w[0].probability >= w[1].probability - 1e-12);
        }
        // The most probable candidate is node a (5/6).
        assert_eq!(cands[0].block, BlockId(1));
    }

    #[test]
    fn depth_limit_respected() {
        let t = fig1_tree();
        for c in t.candidates_below(t.root(), 1, 100) {
            assert_eq!(c.depth, 1);
        }
        for c in t.candidates_below(t.root(), 2, 100) {
            assert!(c.depth <= 2);
        }
    }

    #[test]
    fn empty_below_leaf() {
        let t = fig1_tree();
        let a = t.child_by_block(t.root(), BlockId(1)).unwrap();
        let c = t.child_by_block(a, BlockId(3)).unwrap();
        assert!(t.candidates_below(c, 4, 10).is_empty());
        let mut out = Vec::new();
        t.child_candidates(c, 1.0, 0, &mut out);
        assert!(out.is_empty());
    }

    /// The historical O(n²) selection loop, kept verbatim as the oracle
    /// for [`PrefetchTree::candidates_below`]'s heap rewrite.
    fn candidates_below_reference(
        t: &PrefetchTree,
        anchor: NodeId,
        max_depth: u32,
        max_candidates: usize,
    ) -> Vec<Candidate> {
        let mut frontier: Vec<Candidate> = Vec::new();
        t.child_candidates(anchor, 1.0, 0, &mut frontier);
        let mut result: Vec<Candidate> = Vec::new();
        while let Some((i, _)) =
            frontier.iter().enumerate().max_by(|a, b| a.1.probability.total_cmp(&b.1.probability))
        {
            let c = frontier.swap_remove(i);
            if result.len() >= max_candidates {
                break;
            }
            if c.depth < max_depth {
                t.child_candidates(c.node, c.probability, c.depth, &mut frontier);
            }
            result.push(c);
        }
        result
    }

    #[test]
    fn heap_selection_output_is_unchanged() {
        use rand::{Rng, SeedableRng};
        // Equal probabilities are common in LZ trees (sibling weights tie
        // constantly), so this exercises the tie-breaking replication, not
        // just the ordering. Exact equality: same candidates, same order,
        // same float bits.
        let mut trees = vec![fig1_tree()];
        for (seed, blocks, accesses) in [(8, 30, 20_000), (99, 6, 4_000), (5, 200, 10_000)] {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut t = PrefetchTree::new();
            for _ in 0..accesses {
                t.record_access(BlockId(rng.gen_range(0..blocks)));
            }
            trees.push(t);
        }
        for (ti, t) in trees.iter().enumerate() {
            for max_depth in [1, 2, 3, 5] {
                for max_candidates in [0, 1, 3, 17, 500] {
                    let got = t.candidates_below(t.root(), max_depth, max_candidates);
                    let want = candidates_below_reference(t, t.root(), max_depth, max_candidates);
                    assert_eq!(got, want, "tree {ti}, depth {max_depth}, cap {max_candidates}");
                }
            }
        }
    }

    /// Filter-after-full-enumeration oracle for the early exit: visit
    /// every child, keep exactly those the emitter's predicate accepts.
    fn filtered_full(
        t: &PrefetchTree,
        node: NodeId,
        base_probability: f64,
        base_depth: u32,
        min_probability: f64,
    ) -> Vec<Candidate> {
        let parent_weight = t.weight(node);
        t.children(node)
            .filter_map(|child| {
                let p = base_probability * t.weight(child) as f64 / parent_weight as f64;
                (p >= min_probability && p > 0.0).then(|| Candidate {
                    node: child,
                    block: t.block(child).unwrap(),
                    probability: p,
                    parent_probability: base_probability,
                    depth: base_depth + 1,
                })
            })
            .collect()
    }

    /// Anchors to compare at: the root plus its first few children (the
    /// emitter is called below arbitrary interior nodes too).
    fn sample_anchors(t: &PrefetchTree) -> Vec<(NodeId, f64, u32)> {
        let mut anchors = vec![(t.root(), 1.0f64, 0u32)];
        let mut kids = Vec::new();
        t.child_candidates(t.root(), 1.0, 0, &mut kids);
        anchors.extend(kids.iter().take(8).map(|c| (c.node, c.probability, c.depth)));
        anchors
    }

    /// Candidates as exactly comparable rows (probabilities by bit pattern).
    fn bits(cands: &[Candidate]) -> Vec<(NodeId, BlockId, u64, u64, u32)> {
        cands
            .iter()
            .map(|c| {
                (c.node, c.block, c.probability.to_bits(), c.parent_probability.to_bits(), c.depth)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The weight-sorted early-exit invariant: because children are
        /// stored by descending weight, breaking at the first child below
        /// the cutoff yields exactly the filter-after-full-enumeration
        /// result — same candidates, same order, same probability bits —
        /// for the SoA emitter and, at cutoff 0, for the unpruned and
        /// top-k wrappers.
        #[test]
        fn pruned_equals_filter_after_full_enumeration(
            accesses in proptest::collection::vec(0u64..24, 1..400),
            cutoff_scale in 0.0f64..1.2,
            k in 0usize..6,
        ) {
            let mut t = PrefetchTree::new();
            for &b in &accesses {
                t.record_access(BlockId(b));
            }
            for (node, base_p, base_d) in sample_anchors(&t) {
                // Cutoffs from 0 (keep everything) past base_p (drop
                // everything), relative to the anchor's own path prob.
                let min_p = cutoff_scale * base_p;
                let mut soa = CandidateBatch::new();
                t.child_candidates_pruned_soa(node, base_p, base_d, min_p, &mut soa);
                let pruned: Vec<Candidate> = (0..soa.len()).map(|i| soa.candidate(i)).collect();
                let want = filtered_full(&t, node, base_p, base_d, min_p);
                proptest::prop_assert_eq!(bits(&pruned), bits(&want));

                let all = filtered_full(&t, node, base_p, base_d, 0.0);
                let mut full = Vec::new();
                t.child_candidates(node, base_p, base_d, &mut full);
                proptest::prop_assert_eq!(bits(&full), bits(&all));
                let mut topk = Vec::new();
                t.child_candidates_topk(node, base_p, base_d, k, &mut topk);
                let first_k = &all[..k.min(all.len())];
                proptest::prop_assert_eq!(bits(&topk), bits(first_k));
            }
        }
    }

    #[test]
    fn candidate_batch_push_and_clear_keep_columns_aligned() {
        let t = fig1_tree();
        let mut batch = CandidateBatch::new();
        assert!(batch.is_empty());
        let mut aos = Vec::new();
        t.child_candidates(t.root(), 1.0, 0, &mut aos);
        for &c in &aos {
            batch.push(c);
        }
        assert_eq!(batch.len(), aos.len());
        for (i, want) in aos.iter().enumerate() {
            assert_eq!(&batch.candidate(i), want);
        }
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.node.len(), 0);
        assert_eq!(batch.d_b.len(), 0);
    }

    #[test]
    fn probabilities_are_valid() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(8);
        let mut t = PrefetchTree::new();
        for _ in 0..20_000 {
            t.record_access(BlockId(rng.gen_range(0..30)));
        }
        let cands = t.candidates_below(t.root(), 5, 500);
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(c.probability > 0.0 && c.probability <= 1.0 + 1e-12);
            assert!(c.probability <= c.parent_probability + 1e-12);
            assert!(c.depth >= 1);
        }
        // Direct children of the anchor sum to ≤ 1.
        let sum: f64 = cands.iter().filter(|c| c.depth == 1).map(|c| c.probability).sum();
        assert!(sum <= 1.0 + 1e-9, "children sum {sum}");
    }
}
