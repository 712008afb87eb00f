//! Layer isolates: each replays a workload's exact call sequence against
//! one layer's public functions, timing chunk by chunk from outside.
//!
//! An isolate runs warm and uncontended, with nothing else evicting the
//! layer's data from the CPU caches, so its time is a *lower* bound on
//! what the layer costs inside the full step; the residuals the callers
//! derive by subtraction are *upper* bounds. Both are reported so the
//! bracket is visible.

use crate::inputs::{Op, Ops};
use crate::report::RunResult;
use crate::run::overhead_pct;
use crate::spans::{SpanId, Tracer};
use prefetch_cache::buffer_cache::RefOutcome;
use prefetch_cache::{BufferCache, StackDistanceEstimator};
use prefetch_core::kernel::{self, DepthTable};
use prefetch_core::policy::{apply_victim, PeriodActivity, RefContext, RefKind};
use prefetch_core::{EngineConfig, SystemParams};
use prefetch_sim::{PolicySpec, SimConfig, SimMetrics, Simulator};
use prefetch_trace::{BlockId, TraceRecord};
use prefetch_tree::{CandidateBatch, OverflowPolicy, PrefetchTree};
use std::hint::black_box;

/// The simulator configuration one tenant of `ops` runs under.
pub fn sim_config(ops: &Ops, policy: PolicySpec) -> SimConfig {
    let mut cfg = SimConfig::new(ops.cache_blocks, policy);
    cfg.engine.node_limit = ops.node_limit;
    cfg
}

/// Run `body` on every chunk of `ops`, one child span of `parent` per
/// chunk. The caller builds the layer's state outside the chunk spans,
/// so they hold nothing but calls into the layer.
pub fn replay(t: &mut Tracer, parent: SpanId, rep: u32, ops: &Ops, mut body: impl FnMut(&[Op])) {
    let chunk_name = format!("{}/chunk", t.span(parent).name);
    for chunk in ops.ops.chunks(ops.chunk) {
        let id = t.open(&chunk_name, Some(parent), rep);
        body(chunk);
        t.close(id, chunk.len() as u64);
    }
}

/// [`replay`] under a fresh top-level span `name`.
fn isolate(t: &mut Tracer, name: &str, rep: u32, ops: &Ops, body: impl FnMut(&[Op])) -> SpanId {
    let parent = t.open(name, None, rep);
    replay(t, parent, rep, ops, body);
    t.close(parent, ops.ops.len() as u64);
    parent
}

/// ns per unit of work inside the chunk spans of isolate `id`.
pub fn ns_per_op(t: &Tracer, id: SpanId) -> f64 {
    let (ns, count) = t.child_totals(id);
    ns as f64 / count.max(1) as f64
}

/// `cache`: the H(n) estimator. Returns the span and the blocks the
/// estimators ended up tracking.
pub fn hn_record(t: &mut Tracer, ops: &Ops, rep: u32) -> (SpanId, usize) {
    let decay = EngineConfig::default().stack_decay;
    let mut est: Vec<StackDistanceEstimator> =
        (0..ops.tenants).map(|_| StackDistanceEstimator::new(decay)).collect();
    let id = isolate(t, "cache.hn_record", rep, ops, |chunk| {
        for op in chunk {
            black_box(est[op.tenant as usize].record(op.block));
        }
    });
    (id, est.iter().map(StackDistanceEstimator::tracked_blocks).sum())
}

/// `cache`: the buffer cache as a plain demand LRU.
pub fn lru(t: &mut Tracer, ops: &Ops, rep: u32) -> SpanId {
    let mut caches: Vec<BufferCache> =
        (0..ops.tenants).map(|_| BufferCache::new(ops.cache_blocks)).collect();
    isolate(t, "cache.lru", rep, ops, |chunk| {
        for op in chunk {
            let cache = &mut caches[op.tenant as usize];
            let block = BlockId(op.block);
            if let RefOutcome::Miss = cache.reference(block) {
                if cache.is_full() {
                    black_box(cache.evict_demand_lru());
                }
                cache.insert_demand(block);
            }
        }
    })
}

fn new_tree(ops: &Ops) -> PrefetchTree {
    if ops.node_limit == usize::MAX {
        PrefetchTree::new()
    } else {
        PrefetchTree::with_node_budget(ops.node_limit, OverflowPolicy::Evict)
    }
}

/// `tree`: the LZ update. Returns the span and the trees it built.
pub fn tree_record(t: &mut Tracer, ops: &Ops, rep: u32) -> (SpanId, Vec<PrefetchTree>) {
    let mut trees: Vec<PrefetchTree> = (0..ops.tenants).map(|_| new_tree(ops)).collect();
    let id = isolate(t, "tree.record_access", rep, ops, |chunk| {
        for op in chunk {
            black_box(trees[op.tenant as usize].record_access(BlockId(op.block)));
        }
    });
    (id, trees)
}

/// The frontier-seed probability cutoff the engine enumerates with. With
/// the paper's constants one period of computation hides a whole disk
/// access, so `ΔT_pf` — and with it the cutoff — does not depend on the
/// dynamic prefetch rate `s`.
fn seed_cutoff(params: &SystemParams, dt: &DepthTable) -> f64 {
    dt.min_useful_probability(params.t_driver, 1.0, 1).max(EngineConfig::default().min_probability)
}

fn depth_table(params: &SystemParams) -> DepthTable {
    let engine = EngineConfig::default();
    let mut dt = DepthTable::default();
    dt.rebuild(params, engine.model.s_initial, engine.max_depth);
    dt
}

/// `tree`: the LZ update plus first-level candidate enumeration from the
/// cursor. Returns the span and the candidate count of every call.
pub fn tree_enumerate(t: &mut Tracer, ops: &Ops, rep: u32) -> (SpanId, Vec<u32>) {
    let params = SystemParams::patterson();
    let cutoff = seed_cutoff(&params, &depth_table(&params));
    let mut trees: Vec<PrefetchTree> = (0..ops.tenants).map(|_| new_tree(ops)).collect();
    let mut batch = CandidateBatch::new();
    let mut sizes = Vec::with_capacity(ops.ops.len());
    let id = isolate(t, "tree.record_access+enumerate", rep, ops, |chunk| {
        for op in chunk {
            let tree = &mut trees[op.tenant as usize];
            tree.record_access(BlockId(op.block));
            batch.clear();
            tree.child_candidates_pruned_soa(tree.cursor(), 1.0, 0, cutoff, &mut batch);
            sizes.push(batch.len() as u32);
        }
    });
    (id, sizes)
}

/// What snapshotting the final trees cost.
pub struct SnapshotCost {
    /// Span over the `write_snapshot` calls (count = nodes).
    pub write: SpanId,
    /// Span over the `read_snapshot` calls (count = nodes).
    pub read: SpanId,
    /// Nodes across all trees.
    pub nodes: u64,
    /// Snapshot bytes across all trees.
    pub bytes: u64,
}

/// `tree`: `pftree-snap/v1` write and read of every final tree.
///
/// # Panics
/// Panics if a snapshot does not restore to a tree of the same size —
/// the timing of a broken round trip means nothing.
pub fn tree_snapshot(t: &mut Tracer, trees: &[PrefetchTree], rep: u32) -> SnapshotCost {
    let nodes: u64 = trees.iter().map(|tr| tr.node_count() as u64).sum();
    let write = t.open("tree.snapshot_write", None, rep);
    let images: Vec<Vec<u8>> = trees
        .iter()
        .map(|tree| {
            let mut buf = Vec::new();
            tree.write_snapshot(&mut buf).expect("writing a snapshot to memory cannot fail");
            buf
        })
        .collect();
    t.close(write, nodes);
    let read = t.open("tree.snapshot_read", None, rep);
    for (tree, image) in trees.iter().zip(&images) {
        let back = PrefetchTree::read_snapshot(&mut image.as_slice())
            .expect("a snapshot just written must read back");
        assert_eq!(back.node_count(), tree.node_count(), "snapshot round trip changed the tree");
    }
    t.close(read, nodes);
    SnapshotCost { write, read, nodes, bytes: images.iter().map(|i| i.len() as u64).sum() }
}

/// `core`: the batched Eq. 1 − Eq. 14 kernel over the recorded batch
/// sizes (the arithmetic is branch-free, so synthetic probabilities cost
/// what real ones do). The span's count is candidates priced.
pub fn kernel_batches(t: &mut Tracer, sizes: &[u32], chunk: usize, rep: u32) -> SpanId {
    let params = SystemParams::patterson();
    let dt = depth_table(&params);
    let widest = sizes.iter().copied().max().unwrap_or(0) as usize;
    let p_b: Vec<f64> = (0..widest).map(|i| 1.0 / (i + 2) as f64).collect();
    let p_x = vec![1.0; widest];
    let d_b = vec![1u32; widest];
    let kern = kernel::active();
    let mut out = Vec::new();
    let parent = t.open("core.kernel", None, rep);
    for sizes in sizes.chunks(chunk) {
        let id = t.open("core.kernel/chunk", Some(parent), rep);
        let mut cands = 0;
        for &n in sizes {
            let n = n as usize;
            kern.net_benefit_batch(&p_b[..n], &p_x[..n], &d_b[..n], &dt, params.t_driver, &mut out);
            black_box(&out);
            cands += n as u64;
        }
        t.close(id, cands);
    }
    t.close(parent, sizes.len() as u64);
    parent
}

/// `core`: one policy's whole per-reference step — victim choice,
/// predictor update, selection, pricing, prefetch-cache ops — against a
/// harness-owned `BufferCache`, with no simulator around it. Returns the
/// span and the prefetches the policies issued.
pub fn policy_step(t: &mut Tracer, ops: &Ops, spec: PolicySpec, rep: u32) -> (SpanId, u64) {
    let cfg = sim_config(ops, spec);
    let mut tenants: Vec<_> = (0..ops.tenants)
        .map(|_| (spec.build(cfg.params, cfg.engine), BufferCache::new(ops.cache_blocks), 0u64))
        .collect();
    let mut act = PeriodActivity::default();
    let mut issued = 0;
    let id = isolate(t, "core.policy_step", rep, ops, |chunk| {
        for op in chunk {
            let (policy, cache, period) = &mut tenants[op.tenant as usize];
            let block = BlockId(op.block);
            let kind = match cache.reference(block) {
                RefOutcome::DemandHit => RefKind::DemandHit,
                RefOutcome::PrefetchHit(_) => RefKind::PrefetchHit,
                RefOutcome::Miss => {
                    if cache.is_full() {
                        let victim = policy.choose_demand_victim(cache);
                        apply_victim(victim, cache);
                    }
                    cache.insert_demand(block);
                    RefKind::Miss
                }
            };
            let ctx = RefContext { block, kind, next_block: None, period: *period };
            let mut blocks = std::mem::take(&mut act.prefetched_blocks);
            blocks.clear();
            act = PeriodActivity { prefetched_blocks: blocks, ..PeriodActivity::default() };
            policy.after_reference(&ctx, cache, &mut act);
            issued += u64::from(act.prefetches_issued);
            *period += 1;
        }
    });
    (id, issued)
}

/// `sim`: `Simulator::{new,step,finish}` under `spec`, one simulator per
/// tenant; the chunk spans hold the `step` calls alone. Returns the span
/// and the tenants' summed metrics.
pub fn sim_step(
    t: &mut Tracer,
    ops: &Ops,
    spec: PolicySpec,
    profile: bool,
    name: &str,
    rep: u32,
) -> (SpanId, SimMetrics) {
    let cfg = SimConfig { profile, ..sim_config(ops, spec) };
    let id = t.open(name, None, rep);
    let mut tenants: Vec<(Simulator, SimMetrics)> =
        (0..ops.tenants).map(|_| (Simulator::new(&cfg), SimMetrics::default())).collect();
    replay(t, id, rep, ops, |chunk| {
        for op in chunk {
            let (sim, metrics) = &mut tenants[op.tenant as usize];
            sim.step(TraceRecord::read(op.block), None, metrics);
        }
    });
    let mut total = SimMetrics::default();
    for (sim, mut metrics) in tenants {
        sim.finish(&mut metrics);
        add_metrics(&mut total, &metrics);
    }
    t.close(id, ops.ops.len() as u64);
    (id, total)
}

/// Run every model-layer isolate over `ops` and fill in the `cache`,
/// `tree`, `core` and `sim` metrics. `step` is the caller's own
/// measurement of `Simulator::step` under `policy` (ns per op, and the
/// counters it produced), which the isolates are subtracted from.
pub fn model_layers(
    t: &mut Tracer,
    ops: &Ops,
    policy: PolicySpec,
    step: (f64, SimMetrics),
    result: &mut RunResult,
) {
    let (step_ns, counters) = step;
    let n = ops.ops.len() as f64;

    let (hn, tracked) = hn_record(t, ops, 0);
    let hn_ns = ns_per_op(t, hn);
    result.set("cache.hn_record_ns_per_ref", hn_ns);
    result.set("cache.hn_tracked_blocks", tracked as f64);
    let lru = lru(t, ops, 0);
    let lru_ns = ns_per_op(t, lru);
    result.set("cache.lru_ns_per_ref", lru_ns);

    let (record, trees) = tree_record(t, ops, 0);
    let record_ns = ns_per_op(t, record);
    let nodes: usize = trees.iter().map(PrefetchTree::node_count).sum();
    let bytes: usize = trees.iter().map(PrefetchTree::bytes_in_use).sum();
    result.set("tree.record_access_ns_per_ref", record_ns);
    result.set("tree.nodes", nodes as f64);
    result.set("tree.bytes_per_node", bytes as f64 / nodes.max(1) as f64);
    let snap = tree_snapshot(t, &trees, 0);
    drop(trees);
    let per_node = |id| t.duration_ns(id) as f64 / snap.nodes.max(1) as f64;
    result.set("tree.snapshot_write_ns_per_node", per_node(snap.write));
    result.set("tree.snapshot_read_ns_per_node", per_node(snap.read));
    result.set("tree.snapshot_bytes_per_node", snap.bytes as f64 / snap.nodes.max(1) as f64);

    let (enumerate, sizes) = tree_enumerate(t, ops, 0);
    result.set("tree.enumerate_ns_per_ref", ns_per_op(t, enumerate) - record_ns);
    result.set("tree.cands_per_ref", sizes.iter().map(|&s| f64::from(s)).sum::<f64>() / n);
    let kern = kernel_batches(t, &sizes, ops.chunk, 0);
    result.set("core.kernel_ns_per_cand", ns_per_op(t, kern));

    let (pstep, issued) = policy_step(t, ops, policy, 0);
    assert_eq!(
        issued, counters.prefetches_issued,
        "the policy isolate must issue the simulator's prefetches"
    );
    let policy_ns = ns_per_op(t, pstep);
    result.set("core.policy_step_ns_per_ref", policy_ns);
    result.set("core.engine_residual_ns_per_ref", policy_ns - hn_ns - record_ns - lru_ns);

    let name = |p: PolicySpec| format!("sim.step_ns_per_ref.{}", p.name());
    result.set(&name(policy), step_ns);
    for other in PolicySpec::HEADLINE.into_iter().filter(|p| *p != policy) {
        let (id, _) = sim_step(t, ops, other, false, &format!("sim.step.{}", other.name()), 0);
        result.set(&name(other), ns_per_op(t, id));
    }
    result.set("sim.driver_residual_ns_per_ref", step_ns - policy_ns);
    // `--profile` is pfsim's; the server never turns it on.
    if ops.tenants == 1 {
        let (profiled, _) = sim_step(t, ops, policy, true, "sim.step.profiled", 0);
        result.set("sim.profile_overhead_pct", overhead_pct(ns_per_op(t, profiled), step_ns));
    }

    result.set("sim.prefetches_per_ref", counters.prefetches_issued as f64 / n);
    result.set("sim.prefetch_hit_pct", 100.0 * counters.prefetch_hit_rate());
    result.set("sim.predictable_pct", 100.0 * counters.prediction_accuracy());
    result.set("sim.disk_reads_per_ref", counters.disk_reads() as f64 / n);
    result.set("bench.layers_sum_ns_per_op", step_ns);
}

/// The counters [`add_metrics`] carries, bit for bit — what two runs of
/// one input must agree on.
pub fn counters_key(m: &SimMetrics) -> [u64; 8] {
    [
        m.refs,
        m.demand_hits,
        m.prefetch_hits,
        m.misses,
        m.prefetches_issued,
        m.predictable,
        m.elapsed_ms.to_bits(),
        m.stall_ms.to_bits(),
    ]
}

/// Fold one tenant's counters into a workload total (the fields the
/// benchmark reports).
pub fn add_metrics(total: &mut SimMetrics, m: &SimMetrics) {
    total.refs += m.refs;
    total.demand_hits += m.demand_hits;
    total.prefetch_hits += m.prefetch_hits;
    total.misses += m.misses;
    total.prefetches_issued += m.prefetches_issued;
    total.predictable += m.predictable;
    total.elapsed_ms += m.elapsed_ms;
    total.stall_ms += m.stall_ms;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::sim_blocks;
    use prefetch_trace::synth::TraceKind;

    fn small_ops() -> Ops {
        let ops = sim_blocks(TraceKind::Cad, 6_000, 5)
            .into_iter()
            .enumerate()
            .map(|(i, block)| Op { tenant: (i / 8 % 3) as u32, block })
            .collect();
        Ops { tenants: 3, cache_blocks: 32, node_limit: 256, chunk: 1_000, ops }
    }

    #[test]
    fn isolates_cover_every_op_in_chunk_spans() {
        let ops = small_ops();
        let mut t = Tracer::new("test");
        let (hn, tracked) = hn_record(&mut t, &ops, 0);
        assert_eq!(t.child_totals(hn).1, 6_000);
        assert_eq!(t.children(hn).count(), 6);
        assert!(tracked > 0);
        let l = lru(&mut t, &ops, 0);
        assert_eq!(t.child_totals(l).1, 6_000);
        let (tr, trees) = tree_record(&mut t, &ops, 0);
        assert_eq!(t.child_totals(tr).1, 6_000);
        assert_eq!(trees.len(), 3);
        assert!(trees.iter().all(|tree| tree.node_count() <= 256 && tree.node_count() > 0));
        let (en, sizes) = tree_enumerate(&mut t, &ops, 0);
        assert_eq!(sizes.len(), 6_000);
        assert!(ns_per_op(&t, en) > 0.0);
        let k = kernel_batches(&mut t, &sizes, 1_000, 0);
        assert_eq!(t.child_totals(k).1, sizes.iter().map(|&n| u64::from(n)).sum::<u64>());
        let snap = tree_snapshot(&mut t, &trees, 0);
        assert_eq!(snap.nodes, trees.iter().map(|tree| tree.node_count() as u64).sum::<u64>());
        assert!(snap.bytes > 0);
    }

    #[test]
    fn policy_step_drives_the_same_decisions_as_the_simulator() {
        // The harness's own cache-and-policy loop is only a fair isolate
        // of `core` if it makes the simulator's decisions: it must issue
        // exactly the prefetches the simulator run does.
        let ops = small_ops();
        let mut t = Tracer::new("test");
        let (_, metrics) = sim_step(&mut t, &ops, PolicySpec::TreeNextLimit, false, "sim.step", 0);
        assert_eq!(metrics.refs, 6_000);
        assert!(metrics.prefetches_issued > 0);
        let (_, again) = sim_step(&mut t, &ops, PolicySpec::TreeNextLimit, true, "sim.step", 1);
        assert_eq!(metrics, again, "profiling must not move simulated counters");
        let (p, issued) = policy_step(&mut t, &ops, PolicySpec::TreeNextLimit, 0);
        assert_eq!(t.child_totals(p).1, 6_000);
        assert_eq!(issued, metrics.prefetches_issued);
    }
}
