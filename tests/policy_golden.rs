//! Byte-for-byte pin of every policy's simulated outcome: an FNV-1a digest
//! over the bit patterns of every `SimMetrics` field, per policy × trace.
//! A refactor of the per-reference step (enumeration, pricing, policy
//! wiring) must leave every digest unchanged; a deliberate behaviour
//! change regenerates the table from the failure message.

use predictive_prefetch::prelude::*;
use prefetch_hash::Fnv64;

const REFS: usize = 20_000;
const SEED: u64 = 42;
const CACHE: usize = 128;

const POLICIES: [PolicySpec; 9] = [
    PolicySpec::NoPrefetch,
    PolicySpec::NextLimit,
    PolicySpec::Tree,
    PolicySpec::TreeNextLimit,
    PolicySpec::TreeLvc,
    PolicySpec::TreeThreshold(0.05),
    PolicySpec::TreeChildren(3),
    PolicySpec::PerfectSelector,
    PolicySpec::TreeReanchor,
];

/// `(trace, policy, digest)`, in `[Cad, Cello] × POLICIES` order.
const GOLDEN: [(&str, &str, u64); 18] = [
    ("cad", "no-prefetch", 0x739a4ad92a6ca63b),
    ("cad", "next-limit", 0x94491084415ec5f6),
    ("cad", "tree", 0x22c17aec71138aa2),
    ("cad", "tree-next-limit", 0xf0a917f552bfbc40),
    ("cad", "tree-lvc", 0x22fcc5cae75c1b45),
    ("cad", "tree-threshold(0.05)", 0xa5731aa118ed05c7),
    ("cad", "tree-children(3)", 0x3f0fd08c04a7843f),
    ("cad", "perfect-selector", 0xe102a3cc267bea1e),
    ("cad", "tree-reanchor", 0x40de95402094593a),
    ("cello", "no-prefetch", 0x3f57d86db27b3a77),
    ("cello", "next-limit", 0x9bd26456b84170ca),
    ("cello", "tree", 0xcd71f815347fff7b),
    ("cello", "tree-next-limit", 0x36663edb1a744324),
    ("cello", "tree-lvc", 0x62dfc2c68eb4254b),
    ("cello", "tree-threshold(0.05)", 0xfd28df4de07f2672),
    ("cello", "tree-children(3)", 0xf33b6fe6459184fd),
    ("cello", "perfect-selector", 0xe0dcc9e7aeeb0ac4),
    ("cello", "tree-reanchor", 0xb35461fa826d4a7b),
];

/// Destructured so that a new `SimMetrics` field fails to compile here
/// until it joins the digest.
fn digest(m: &SimMetrics) -> u64 {
    let SimMetrics {
        refs,
        demand_hits,
        prefetch_hits,
        misses,
        prefetches_issued,
        candidates_considered,
        candidates_already_cached,
        prefetch_evictions,
        demand_evictions_for_prefetch,
        prefetch_probability_sum,
        predictable,
        predictable_missed,
        lvc_opportunities,
        lvc_repeats,
        lvc_cached,
        elapsed_ms,
        stall_ms,
        disk_queue_ms,
        disk_queued_requests,
        disk_mean_utilization,
        demand_faults,
        demand_retries,
        demand_read_failures,
        retry_backoff_ms,
        prefetch_faults,
        blocks_quarantined,
        candidates_quarantined,
        disk_slowed_requests,
    } = *m;
    let mut h = Fnv64::new();
    for v in [
        refs,
        demand_hits,
        prefetch_hits,
        misses,
        prefetches_issued,
        candidates_considered,
        candidates_already_cached,
        prefetch_evictions,
        demand_evictions_for_prefetch,
        prefetch_probability_sum.to_bits(),
        predictable,
        predictable_missed,
        lvc_opportunities,
        lvc_repeats,
        lvc_cached,
        elapsed_ms.to_bits(),
        stall_ms.to_bits(),
        disk_queue_ms.to_bits(),
        disk_queued_requests,
        disk_mean_utilization.to_bits(),
        demand_faults,
        demand_retries,
        demand_read_failures,
        retry_backoff_ms.to_bits(),
        prefetch_faults,
        blocks_quarantined,
        candidates_quarantined,
        disk_slowed_requests,
    ] {
        h.u64(v);
    }
    h.finish()
}

#[test]
fn every_policy_reproduces_its_pinned_metrics_digest() {
    let mut got = Vec::new();
    for kind in [TraceKind::Cad, TraceKind::Cello] {
        let trace = kind.generate(REFS, SEED);
        for spec in POLICIES {
            let m = run_simulation(&trace, &SimConfig::new(CACHE, spec)).metrics;
            got.push((kind.name(), spec.name(), digest(&m)));
        }
    }
    let table: String =
        got.iter().map(|(t, p, d)| format!("    ({t:?}, {p:?}, {d:#018x}),\n")).collect();
    let want: Vec<(&str, String, u64)> =
        GOLDEN.iter().map(|&(t, p, d)| (t, p.to_string(), d)).collect();
    assert!(got == want, "SimMetrics digests moved; the table is now:\n{table}");
}
