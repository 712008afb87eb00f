//! Acceptance property for `pftree-snap/v2`: training interrupted by a
//! snapshot/restore cycle is indistinguishable from uninterrupted
//! training, across all four synthetic trace generators. "Indistinguishable"
//! is checked three ways — the advice stream over the continuation (the
//! highest-weight child at the prediction anchor after every access), the
//! statistics counters, and the canonical serialized image of the final
//! tree (byte equality implies every weight, edge, LRU link, cursor, and
//! counter matches).

use prefetch_trace::synth::TraceKind;
use prefetch_trace::BlockId;
use prefetch_tree::{OverflowPolicy, PrefetchTree};
use proptest::prelude::*;

fn snap(t: &PrefetchTree) -> Vec<u8> {
    let mut buf = Vec::new();
    t.write_snapshot(&mut buf).unwrap();
    buf
}

fn advise(t: &PrefetchTree, last: BlockId) -> Option<u64> {
    let anchor = t.prediction_anchor(last);
    t.children(anchor).next().and_then(|c| t.block(c)).map(|b| b.0)
}

fn train(t: &mut PrefetchTree, blocks: &[BlockId]) -> Vec<Option<u64>> {
    blocks
        .iter()
        .map(|&b| {
            t.record_access(b);
            advise(t, b)
        })
        .collect()
}

fn check_resume(mut control: PrefetchTree, mut half: PrefetchTree, blocks: &[BlockId], mid: usize) {
    train(&mut control, &blocks[..mid]);
    let control_advice = train(&mut control, &blocks[mid..]);

    train(&mut half, &blocks[..mid]);
    let image = snap(&half);
    let mut resumed = PrefetchTree::read_snapshot(&mut image.as_slice()).unwrap();
    resumed.check_invariants();
    let resumed_advice = train(&mut resumed, &blocks[mid..]);

    assert_eq!(resumed_advice, control_advice, "advice diverged after restore");
    assert_eq!(resumed.stats(), control.stats(), "stats diverged after restore");
    assert_eq!(snap(&resumed), snap(&control), "final state diverged after restore");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resume_is_bit_identical_across_generators(
        ki in 0usize..4,
        refs in 64usize..1500,
        seed in any::<u64>(),
        split in 0usize..1 << 20,
    ) {
        let kind = TraceKind::ALL[ki];
        let blocks: Vec<BlockId> = kind.generate(refs, seed).blocks().collect();
        let mid = split % blocks.len();
        check_resume(PrefetchTree::new(), PrefetchTree::new(), &blocks, mid);
    }

    /// The same property under a tight node budget: the snapshot carries
    /// the LRU recency order and the free list, so eviction decisions
    /// after restore match the uninterrupted run exactly.
    #[test]
    fn resume_is_bit_identical_under_eviction(
        ki in 0usize..4,
        refs in 64usize..1500,
        seed in any::<u64>(),
        split in 0usize..1 << 20,
        limit in 16usize..96,
    ) {
        let kind = TraceKind::ALL[ki];
        let blocks: Vec<BlockId> = kind.generate(refs, seed).blocks().collect();
        let mid = split % blocks.len();
        let mk = || PrefetchTree::with_node_budget(limit, OverflowPolicy::Evict);
        check_resume(mk(), mk(), &blocks, mid);
    }
}
