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
/// parallel columns. The cost-benefit engine
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
    /// probability (equal probabilities: larger node id first). A
    /// convenience for analysis, examples and tests; the policies use the
    /// incremental frontier in `prefetch-core` instead.
    pub fn candidates_below(
        &self,
        anchor: NodeId,
        max_depth: u32,
        max_candidates: usize,
    ) -> Vec<Candidate> {
        let mut frontier = std::collections::BinaryHeap::new();
        let mut kids: Vec<Candidate> = Vec::new();
        self.child_candidates(anchor, 1.0, 0, &mut kids);
        frontier.extend(kids.drain(..).map(ByProbability));
        let mut result: Vec<Candidate> = Vec::new();
        while result.len() < max_candidates {
            let Some(ByProbability(c)) = frontier.pop() else { break };
            if c.depth < max_depth {
                self.child_candidates(c.node, c.probability, c.depth, &mut kids);
                frontier.extend(kids.drain(..).map(ByProbability));
            }
            result.push(c);
        }
        result
    }
}

/// Max-heap order for [`PrefetchTree::candidates_below`]: probability, then
/// node id (a node is in the frontier at most once, so the order is total).
struct ByProbability(Candidate);

impl PartialEq for ByProbability {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for ByProbability {}

impl PartialOrd for ByProbability {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ByProbability {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let (a, b) = (&self.0, &other.0);
        a.probability.total_cmp(&b.probability).then_with(|| a.node.0.cmp(&b.node.0))
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
