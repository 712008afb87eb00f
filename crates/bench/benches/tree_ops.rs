//! Criterion benches for the LZ prefetch tree: parse/update throughput and
//! candidate enumeration (pruned vs full).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use prefetch_trace::synth::TraceKind;
use prefetch_trace::BlockId;
use prefetch_tree::PrefetchTree;

fn bench_record_access(c: &mut Criterion) {
    let trace = TraceKind::Cad.generate(50_000, 1);
    let blocks: Vec<BlockId> = trace.blocks().collect();

    let mut g = c.benchmark_group("tree/record_access");
    g.throughput(Throughput::Elements(blocks.len() as u64));
    g.bench_function("cad_50k", |b| {
        b.iter(|| {
            let mut tree = PrefetchTree::new();
            for &blk in &blocks {
                black_box(tree.record_access(blk));
            }
            tree.node_count()
        })
    });
    g.bench_function("cad_50k_node_limited_8k", |b| {
        b.iter(|| {
            let mut tree = PrefetchTree::with_node_limit(8192);
            for &blk in &blocks {
                black_box(tree.record_access(blk));
            }
            tree.node_count()
        })
    });
    g.finish();
}

fn bench_candidates(c: &mut Criterion) {
    // A trained tree with a bushy root (cello-like novelty).
    let trace = TraceKind::Cello.generate(100_000, 2);
    let mut tree = PrefetchTree::new();
    for blk in trace.blocks() {
        tree.record_access(blk);
    }
    let root = tree.root();

    let mut g = c.benchmark_group("tree/candidates");
    g.bench_function("full_root_children", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            tree.child_candidates(root, 1.0, 0, &mut out);
            black_box(out.len())
        })
    });
    g.bench_function("pruned_root_children", |b| {
        let mut out = prefetch_tree::CandidateBatch::new();
        b.iter(|| {
            out.clear();
            // The engine's Patterson-constant cutoff.
            tree.child_candidates_pruned_soa(root, 1.0, 0, 0.0372, &mut out);
            black_box(out.len())
        })
    });
    g.bench_function("best_first_subtree_depth3", |b| {
        b.iter(|| black_box(tree.candidates_below(root, 3, 64).len()))
    });
    g.finish();
}

criterion_group!(benches, bench_record_access, bench_candidates);
criterion_main!(benches);
