//! The `sim-*` workloads: `Simulator::{new,step,finish}` in process over
//! one synthetic trace, plus one streaming `pfsim` child for the peak
//! resident set and as a second opinion on the simulated counters.

use crate::calib::Calibrator;
use crate::inputs::{self, Op, Ops};
use crate::layers;
use crate::proc;
use crate::report::{RepSummary, RunResult, END_TO_END, PER_LAYER};
use crate::run::{
    calibrated_reps, conclude, overhead_pct, timed_reps, timed_setups, Ctx, MIN_REPS,
};
use crate::spans::Tracer;
use crate::stats::{median, percentile_or_max};
use prefetch_sim::{PolicySpec, SimConfig, SimMetrics, Simulator};
use prefetch_trace::synth::TraceKind;
use prefetch_trace::{BlockId, TraceRecord};
use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::Instant;

/// References at full scale. CAD runs a tenth longer: at 1 000 000 its
/// tree ends within 2 % of 229 376 nodes, where the edge index doubles,
/// so some seeds rehash and some do not and the peak resident set is
/// bimodal (55 vs 68 MB). At 1 100 000 every seed is past that step and
/// short of the next (≈ 1 225 000).
fn full_refs(kind: TraceKind) -> usize {
    if kind == TraceKind::Cad {
        1_100_000
    } else {
        1_000_000
    }
}
/// Modelled cache, blocks.
const CACHE_BLOCKS: usize = 1024;
/// The policy under test.
const POLICY: PolicySpec = PolicySpec::TreeNextLimit;
/// References per traced chunk span.
const CHUNK: usize = 50_000;
/// Times set-up is repeated for its median.
const SETUPS: usize = 3;

fn config() -> SimConfig {
    SimConfig::new(CACHE_BLOCKS, POLICY)
}

/// One untraced repetition: what a `pfsim` user pays per run, modelled
/// cache and tree starting empty. Returns wall ns and the counters.
fn e2e_rep(blocks: &[u64]) -> (u64, SimMetrics) {
    let cfg = config();
    let started = Instant::now();
    let mut metrics = SimMetrics::default();
    let mut sim = Simulator::new(&cfg);
    for (i, &block) in blocks.iter().enumerate() {
        let next = blocks.get(i + 1).map(|&b| BlockId(b));
        sim.step(TraceRecord::read(block), next, &mut metrics);
    }
    sim.finish(&mut metrics);
    (started.elapsed().as_nanos() as u64, metrics)
}

/// Generate the input, check its pin, and warm the host (allocator,
/// code, page cache) with a quarter-length repetition.
fn setup(ctx: &Ctx, kind: TraceKind) -> Result<Vec<u64>, String> {
    let blocks = inputs::sim_blocks(kind, ctx.scaled(full_refs(kind), 2_000), ctx.seed);
    if ctx.full_scale() && ctx.seed == inputs::DEFAULT_SEED {
        inputs::check_pin(&ctx.workload, inputs::fingerprint_blocks(&blocks))?;
    }
    e2e_rep(&blocks[..blocks.len() / 4]);
    Ok(blocks)
}

/// The summary row `pfsim` prints for one policy.
#[derive(Debug, PartialEq)]
struct PfsimRow {
    miss_pct: String,
    prefetches: u64,
    disk_reads: u64,
    ms_per_ref: String,
}

impl PfsimRow {
    /// The row `pfsim` must print for counters `m`.
    fn expected(m: &SimMetrics) -> Self {
        PfsimRow {
            miss_pct: format!("{:.2}%", 100.0 * m.miss_rate()),
            prefetches: m.prefetches_issued,
            disk_reads: m.disk_reads(),
            ms_per_ref: format!("{:.3}", m.elapsed_ms / m.refs.max(1) as f64),
        }
    }

    /// Parse `policy  miss%  pf-issued  pf-hit%  disk-reads  ms/ref`.
    fn parse(stdout: &str, policy: &str) -> Option<Self> {
        let row = stdout.lines().find(|l| l.split_ascii_whitespace().next() == Some(policy))?;
        let f: Vec<&str> = row.split_ascii_whitespace().collect();
        Some(PfsimRow {
            miss_pct: f.get(1)?.to_string(),
            prefetches: f.get(2)?.parse().ok()?,
            disk_reads: f.get(4)?.parse().ok()?,
            ms_per_ref: f.get(5)?.to_string(),
        })
    }
}

/// Stream the same trace through the real `pfsim`; returns its peak RSS
/// (MB) and its summary row.
fn pfsim_child(ctx: &Ctx, kind: TraceKind, refs: usize) -> Result<(f64, PfsimRow), String> {
    let exe = ctx.bin_dir.join("pfsim");
    let started = Instant::now();
    let mut child = Command::new(&exe)
        .args(["--trace", kind.name(), "--refs", &refs.to_string()])
        .args(["--seed", &ctx.seed.to_string(), "--policy", &POLICY.name()])
        .args(["--cache", &CACHE_BLOCKS.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    // The summary is a few hundred bytes, far below the pipe buffer, so
    // the child never blocks on us while we wait for it.
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let run = proc::wait_timed(child, started).map_err(|e| format!("waiting for pfsim: {e}"))?;
    let mut stdout = String::new();
    pipe.read_to_string(&mut stdout).map_err(|e| format!("reading pfsim output: {e}"))?;
    if !run.status.success() {
        return Err(format!("pfsim exited with {}", run.status));
    }
    let row = PfsimRow::parse(&stdout, &POLICY.name())
        .ok_or_else(|| format!("no {} row in pfsim output: {stdout:?}", POLICY.name()))?;
    Ok((run.peak_rss_mb(), row))
}

/// Run a `sim-*` workload.
pub fn run(ctx: &Ctx, cal: &mut Calibrator, kind: TraceKind) -> Result<RunResult, String> {
    if ctx.trace {
        traced(ctx, cal, kind)
    } else {
        end_to_end(ctx, cal, kind)
    }
}

fn end_to_end(ctx: &Ctx, cal: &mut Calibrator, kind: TraceKind) -> Result<RunResult, String> {
    let (blocks, setup_s) = timed_setups(cal, SETUPS, || setup(ctx, kind))?;
    let refs = blocks.len() as u64;
    let reps = calibrated_reps(cal, ctx.seconds, MIN_REPS, |_| Ok(e2e_rep(&blocks)))?;
    let (rss_mb, row) = pfsim_child(ctx, kind, blocks.len())?;

    let first = reps[0].0 .1;
    let mut problems = Vec::new();
    if row != PfsimRow::expected(&first) {
        problems.push(format!(
            "pfsim printed {row:?}, the in-process run gives {:?}",
            PfsimRow::expected(&first)
        ));
    }
    // A repetition whose counters differ from the first one's, or from
    // the pfsim child's summary, fails all its references.
    let bad_reps = if problems.is_empty() {
        reps.iter().filter(|((_, m), _)| *m != first).count() as u64
    } else {
        reps.len() as u64
    };

    let ns: Vec<(f64, f64)> =
        reps.iter().map(|((wall, _), scale)| (*wall as f64 / refs as f64, *scale)).collect();
    let mut result = RunResult::zeroed(&END_TO_END);
    result.attempted = refs * reps.len() as u64;
    result.failed = refs * bad_reps;
    let (summary, ns_per_op) = RepSummary::of(&ns, cal.median_ns_per_load());
    result.reps = summary;
    result.set("ns_per_op", ns_per_op);
    result.set("model_ms_per_op", first.elapsed_ms / refs as f64);
    result.set("miss_pct", 100.0 * first.miss_rate());
    result.set("peak_rss_mb", rss_mb);
    result.set("setup_s", setup_s);
    Ok(conclude(result, &problems))
}

fn traced(ctx: &Ctx, cal: &mut Calibrator, kind: TraceKind) -> Result<RunResult, String> {
    let mut t = Tracer::new(&ctx.workload);
    let mut result = RunResult::zeroed(&PER_LAYER);
    cal.sample();

    let warm = t.open("setup", None, 0);
    let blocks = setup(ctx, kind)?;
    t.close(warm, blocks.len() as u64);
    // Set-up also warms the host; generation alone is timed here.
    let gen = t.open("trace.gen", None, 0);
    drop(inputs::sim_blocks(kind, blocks.len(), ctx.seed));
    t.close(gen, blocks.len() as u64);
    result.set("trace.gen_ns_per_ref", t.duration_ns(gen) as f64 / blocks.len() as f64);

    let refs = blocks.len() as f64;
    let ops = Ops {
        tenants: 1,
        cache_blocks: CACHE_BLOCKS,
        node_limit: usize::MAX,
        chunk: CHUNK.min(blocks.len().div_ceil(4)),
        ops: blocks.iter().map(|&block| Op { tenant: 0, block }).collect(),
    };

    // Half the budget goes to alternating untraced and traced
    // repetitions; the isolates take about as long again.
    let mut untraced = Vec::new();
    let mut traced_ids = Vec::new();
    let mut counters = Vec::new();
    let pairs = timed_reps(ctx.seconds / 2.0, 2, |rep| {
        let (wall, m) = e2e_rep(&blocks);
        let (id, tm) =
            layers::sim_step(&mut t, &ops, POLICY, false, "sim.step.tree-next-limit", rep);
        Ok((wall, m, id, tm))
    })?;
    for (wall, m, id, tm) in pairs {
        untraced.push(wall as f64 / refs);
        traced_ids.push(id);
        counters.push(m);
        counters.push(tm);
    }
    let first = counters[0];
    let key = layers::counters_key(&first);
    let bad = counters.iter().filter(|m| layers::counters_key(m) != key).count() as u64;
    result.attempted = blocks.len() as u64 * counters.len() as u64;
    result.failed = blocks.len() as u64 * bad;

    let e2e = median(&untraced);
    let traced_wall: Vec<f64> =
        traced_ids.iter().map(|&id| t.duration_ns(id) as f64 / refs).collect();
    let step_tnl =
        median(&traced_ids.iter().map(|&id| layers::ns_per_op(&t, id)).collect::<Vec<_>>());
    result.set("bench.e2e_ns_per_op", e2e);
    result.set("bench.e2e_reps", untraced.len() as f64);
    result.set("bench.trace_overhead_pct", overhead_pct(median(&traced_wall), e2e));

    // Growth as the structures leave the CPU caches: the traced
    // repetitions' own chunk series.
    let chunks: Vec<f64> = traced_ids
        .iter()
        .flat_map(|&id| t.children(id).map(|s| (s.end_ns - s.start_ns) as f64 / s.count as f64))
        .collect();
    result.set("sim.chunk_ns_per_ref_p50", median(&chunks));
    result.set("sim.chunk_ns_per_ref_p90", percentile_or_max(&chunks, 90.0).0);
    let per_rep = chunks.len() / traced_ids.len();
    let firsts: Vec<f64> = chunks.iter().step_by(per_rep).copied().collect();
    let lasts: Vec<f64> = chunks.iter().skip(per_rep - 1).step_by(per_rep).copied().collect();
    result.set("sim.last_over_first_chunk", median(&lasts) / median(&firsts));

    cal.sample();
    layers::model_layers(&mut t, &ops, POLICY, (step_tnl, first), &mut result);
    cal.sample();
    result.set("bench.ns_per_load", cal.median_ns_per_load());
    eprintln!(
        "pfbench: {}: layers sum to {:.1} ns/ref against an end-to-end median of {e2e:.1} \
         ({:+.1} %)",
        ctx.workload,
        step_tnl,
        overhead_pct(step_tnl, e2e)
    );

    result.set("bench.build_s", ctx.build_s);
    result.set("bench.span_count", t.len() as f64);
    ctx.write_spans(&t)?;
    Ok(conclude(result, &[]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pfsim_row_parses_and_matches_in_process_formatting() {
        let out = "policy                    miss %   pf issued    pf hit %  disk reads      ms/ref\n\
                   tree-next-limit           61.16%     1028912       37.8%     1640486      60.368\n";
        let row = PfsimRow::parse(out, "tree-next-limit").unwrap();
        assert_eq!(
            row,
            PfsimRow {
                miss_pct: "61.16%".into(),
                prefetches: 1_028_912,
                disk_reads: 1_640_486,
                ms_per_ref: "60.368".into()
            }
        );
        assert!(PfsimRow::parse(out, "tree").is_none());
        let m = SimMetrics {
            refs: 1_000_000,
            misses: 611_574,
            prefetches_issued: 1_028_912,
            elapsed_ms: 60_368_400.0,
            ..SimMetrics::default()
        };
        assert_eq!(PfsimRow::expected(&m), row);
    }

    #[test]
    fn repetitions_are_deterministic() {
        let blocks = inputs::sim_blocks(TraceKind::Cad, 4_000, 9);
        let (_, a) = e2e_rep(&blocks);
        let (_, b) = e2e_rep(&blocks);
        assert_eq!(a, b);
        assert_eq!(a.refs, 4_000);
    }
}
