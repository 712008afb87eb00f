//! The benchmark's metric and workload tables (mirrored by
//! `BENCHMARK.json`; a self-test holds the two together) and the result
//! a run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric the benchmark reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, better: "lower", bound }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "lower", bound: 0.0 }
}

const fn layer_up(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: "higher", bound: 0.0 }
}

/// What a user of `pfsim` / `pfserve` sees, measured with tracing off.
/// Every workload reports every one of them.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("ns_per_op", "ns", 0.25),
    e2e("model_ms_per_op", "ms", 0.05),
    e2e("miss_pct", "%", 0.10),
    e2e("peak_rss_mb", "MB", 0.10),
    e2e("setup_s", "s", 0.25),
];

/// Single-layer numbers from the traced run. A layer a workload never
/// enters reports 0 there.
pub const PER_LAYER: [MetricDef; 63] = [
    layer("trace.gen_ns_per_ref", "ns"),
    layer("cache.hn_record_ns_per_ref", "ns"),
    layer("cache.hn_tracked_blocks", "count"),
    layer("cache.lru_ns_per_ref", "ns"),
    layer("tree.record_access_ns_per_ref", "ns"),
    layer("tree.nodes", "count"),
    layer("tree.bytes_per_node", "B"),
    layer("tree.enumerate_ns_per_ref", "ns"),
    layer("tree.cands_per_ref", "1/ref"),
    layer("tree.snapshot_write_ns_per_node", "ns"),
    layer("tree.snapshot_read_ns_per_node", "ns"),
    layer("tree.snapshot_bytes_per_node", "B"),
    layer("core.kernel_ns_per_cand", "ns"),
    layer("core.policy_step_ns_per_ref", "ns"),
    layer("core.engine_residual_ns_per_ref", "ns"),
    layer("sim.step_ns_per_ref.no-prefetch", "ns"),
    layer("sim.step_ns_per_ref.next-limit", "ns"),
    layer("sim.step_ns_per_ref.tree", "ns"),
    layer("sim.step_ns_per_ref.tree-next-limit", "ns"),
    layer("sim.driver_residual_ns_per_ref", "ns"),
    layer("sim.chunk_ns_per_ref_p50", "ns"),
    layer("sim.chunk_ns_per_ref_p90", "ns"),
    layer("sim.last_over_first_chunk", "ratio"),
    layer("sim.profile_overhead_pct", "%"),
    layer("sim.prefetches_per_ref", "1/ref"),
    layer_up("sim.prefetch_hit_pct", "%"),
    layer_up("sim.predictable_pct", "%"),
    layer("sim.disk_reads_per_ref", "1/ref"),
    layer("serve.parse_ns_per_line", "ns"),
    layer("serve.tenant_step_ns_per_event", "ns"),
    layer("serve.process_batch_ns_per_event", "ns"),
    layer("serve.dispatch_residual_ns_per_event", "ns"),
    layer("serve.listener_residual_ns_per_event", "ns"),
    layer("serve.batch_p50_us", "us"),
    layer("serve.batch_p99_us", "us"),
    layer("serve.batch_max_us", "us"),
    layer("serve.batch_windows", "count"),
    layer("serve.metrics_overhead_pct", "%"),
    layer("serve.adv_bytes_per_event", "B"),
    layer("serve.sheds", "count"),
    layer("serve.rejects", "count"),
    layer("serve.wal_overhead_pct", "%"),
    layer("serve.recover_residual_ns_per_event", "ns"),
    layer("pool.dispatch_ns_per_batch.t1", "ns"),
    layer("pool.dispatch_ns_per_batch.t2", "ns"),
    layer_up("pool.t2_speedup", "ratio"),
    layer("wal.encode_ns_per_record", "ns"),
    layer("wal.append_ns_per_record", "ns"),
    layer("wal.bytes_per_record", "B"),
    layer("wal.scan_ns_per_record", "ns"),
    layer("wal.appends", "count"),
    layer("wal.fsyncs", "count"),
    layer("wal.checkpoints", "count"),
    layer("wal.disk_bytes_per_event", "B"),
    layer("wal.write_ns_per_event", "ns"),
    layer("wal.recover_ns_per_event", "ns"),
    layer("bench.ns_per_load", "ns"),
    layer("bench.e2e_ns_per_op", "ns"),
    layer("bench.e2e_reps", "count"),
    layer("bench.layers_sum_ns_per_op", "ns"),
    layer("bench.trace_overhead_pct", "%"),
    layer("bench.span_count", "count"),
    layer("bench.build_s", "s"),
];

/// Workload names and why each exists (the `why` of `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "sim-cello",
        "pfsim's step loop on the least predictable trace: estimator and unbounded tree grow \
         DRAM-resident, little is prefetched",
    ),
    (
        "sim-cad",
        "same loop on the most predictable trace: deep frontiers, most candidates priced, most \
         prefetch-cache churn; small tree",
    ),
    (
        "serve-mux",
        "pfserve at 1 thread, 200 interleaved tenants on small bounded evicting trees: service \
         overhead and cold tenant steps; bypassed by sim-*",
    ),
    (
        "serve-t2",
        "the serve-mux script at 2 threads: pool and per-slot locking; output must equal the \
         1-thread run byte for byte",
    ),
    (
        "serve-wal",
        "the same events with the write-ahead log on (fsync never): append and checkpoint cost on \
         the write side",
    ),
    (
        "serve-recover",
        "pfserve --recover over the logs serve-wal's command leaves: scan and replay on the read \
         side; a cheaper append that slows recovery shows here",
    ),
];

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, rendered from the tables above so the two cannot
/// drift apart (`pfbench manifest` prints it; a self-test compares).
pub fn manifest_json() -> String {
    let mut s = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Look up a metric's definition by name in either table.
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}

/// What one run of one workload produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations (references or events) in the timed repetitions.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The repetitions behind `ns_per_op` (printed beside it).
    pub reps: RepSummary,
}

/// The repetitions behind a reported `ns_per_op`, printed beside it.
#[derive(Clone, Debug, Default)]
pub struct RepSummary {
    /// Every timed repetition in order, ns per op at the reference
    /// memory latency (like the reported figure).
    pub ns_per_op: Vec<f64>,
    /// Their median.
    pub median: f64,
    /// Median repetition as the clock read it, ns per op.
    pub raw_median: f64,
    /// Median memory latency measured around the repetitions, ns per load.
    pub ns_per_load: f64,
}

impl RepSummary {
    /// Summarize repetitions given as `(raw ns per op, calibration
    /// scale)`; the second field is the figure to report, the mean of the
    /// faster half.
    pub fn of(reps: &[(f64, f64)], ns_per_load: f64) -> (Self, f64) {
        let scaled: Vec<f64> = reps.iter().map(|(raw, scale)| raw * scale).collect();
        let raw: Vec<f64> = reps.iter().map(|(raw, _)| *raw).collect();
        let reported = crate::stats::faster_half_mean(&scaled);
        let summary = RepSummary {
            median: crate::stats::median(&scaled),
            raw_median: crate::stats::median(&raw),
            ns_per_op: scaled,
            ns_per_load,
        };
        (summary, reported)
    }
}

impl RunResult {
    /// A result with every metric of `table` present and zero, ready to
    /// be filled in.
    pub fn zeroed(table: &'static [MetricDef]) -> Self {
        RunResult {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: table.iter().map(|m| (m.name, 0.0)).collect(),
            reps: RepSummary::default(),
        }
    }

    /// Set metric `name`.
    ///
    /// # Panics
    /// Panics if `name` is not in the table this result was built from,
    /// or the value is not finite: either is a harness bug, and a made-up
    /// metric must never reach the output.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let slot = self.metrics.get_mut(name);
        *slot.unwrap_or_else(|| panic!("metric {name} is not in this run's table")) = value;
    }

    /// Metric `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// The one-line JSON object the contract asks for.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = metric_def(name).expect("metrics come from the tables").unit;
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }

    /// Every metric by name with its unit, one per line, for people.
    pub fn to_table(&self, workload: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{workload}: correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        let r = &self.reps;
        // Traced runs time their repetitions per layer, not here.
        if !r.ns_per_op.is_empty() {
            let _ = writeln!(
                s,
                "  ns_per_op is the faster half's mean of {} reps {:.1?}: median {:.1}, \
                 uncalibrated median {:.1} at {:.1} ns/load",
                r.ns_per_op.len(),
                r.ns_per_op,
                r.median,
                r.raw_median,
                r.ns_per_load
            );
        }
        for (name, value) in &self.metrics {
            let unit = metric_def(name).expect("metrics come from the tables").unit;
            let _ = writeln!(s, "  {name:<40} {value:>16.4} {unit}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.bound <= 0.25);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = RunResult::zeroed(&END_TO_END);
        r.attempted = 10;
        r.set("ns_per_op", 1234.5678);
        let j = r.to_json();
        assert!(
            j.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {")
        );
        assert!(j.contains("\"ns_per_op\": {\"value\": 1234.5678, \"unit\": \"ns\"}"));
        assert!(j.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(!j.contains('\n'));
    }

    #[test]
    #[should_panic(expected = "not in this run's table")]
    fn unknown_metrics_are_refused() {
        RunResult::zeroed(&END_TO_END).set("tree.nodes", 1.0);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_values_are_refused() {
        RunResult::zeroed(&END_TO_END).set("ns_per_op", f64::NAN);
    }
}
