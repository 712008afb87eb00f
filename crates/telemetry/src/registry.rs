//! Live metrics registry.
//!
//! Keys are `(tenant, metric)`; values are counters, gauges (integer and
//! float), and the mergeable log-scaled [`Histogram`]s. The registry is a
//! plainly owned map with one writer: `pfserve` folds measurements into
//! each tenant's own pending deltas on the flush path and drains them
//! here, on the dispatch thread, only at snapshot/exposition boundaries
//! and when a tenant's state is dropped. Every `(tenant, metric)` cell is
//! therefore updated in the tenant's own event order whatever the worker
//! count, so float accumulation order (the one non-commutative operation
//! in play) never varies and snapshots are byte-identical.
//!
//! Reads collect one sorted view ([`MetricsRegistry::snapshot`]); the
//! snapshot renders to a JSONL schema ([`Snapshot::render_jsonl`],
//! `pfmetrics/v1`) and a Prometheus-style text exposition
//! ([`Snapshot::render_prometheus`]). Both renderings are byte-stable:
//! entries sort by `(metric, tenant)` and floats print via Rust's
//! shortest-round-trip formatter.

use crate::histogram::Histogram;
use std::collections::HashMap;
use std::fmt::Write;

/// Schema tag stamped on every JSONL metrics line.
pub const METRICS_SCHEMA: &str = "pfmetrics/v1";

/// One metric cell.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Last-written (or high-water) integer level.
    Gauge(u64),
    /// Last-written float level.
    FGauge(f64),
    /// Log-scaled sample distribution.
    Histogram(Histogram),
}

impl MetricValue {
    /// JSONL/Prometheus type tag.
    pub fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::FGauge(_) => "fgauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// The metrics of one tenant: metric name → cell. Names are `&'static
/// str` by design — the metric taxonomy is fixed at compile time, only
/// tenants are dynamic. The set is a small `Vec` kept sorted by name:
/// with ~a dozen fixed metrics, a linear scan with a pointer-equality
/// fast path (call sites pass the same literal every time) beats a
/// `BTreeMap`'s string comparisons on every hot-path update.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricSet {
    values: Vec<(&'static str, MetricValue)>,
}

impl MetricSet {
    /// The cell for `name`, inserted at its sorted position via
    /// `default` on first touch.
    fn cell(
        &mut self,
        name: &'static str,
        default: impl FnOnce() -> MetricValue,
    ) -> &mut MetricValue {
        let pos = self
            .values
            .iter()
            .position(|(n, _)| std::ptr::eq(*n as *const str, name as *const str) || *n == name);
        match pos {
            Some(i) => &mut self.values[i].1,
            None => {
                let i = self.values.partition_point(|(n, _)| *n < name);
                self.values.insert(i, (name, default()));
                &mut self.values[i].1
            }
        }
    }

    /// Add `n` to counter `name` (creating it at 0).
    pub fn add(&mut self, name: &'static str, n: u64) {
        match self.cell(name, || MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c += n,
            other => *other = MetricValue::Counter(n),
        }
    }

    /// Set gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &'static str, v: u64) {
        *self.cell(name, || MetricValue::Gauge(0)) = MetricValue::Gauge(v);
    }

    /// Raise gauge `name` to at least `v` (high-water mark).
    pub fn gauge_max(&mut self, name: &'static str, v: u64) {
        match self.cell(name, || MetricValue::Gauge(0)) {
            MetricValue::Gauge(g) => *g = (*g).max(v),
            other => *other = MetricValue::Gauge(v),
        }
    }

    /// Set float gauge `name` to `v`.
    pub fn fgauge_set(&mut self, name: &'static str, v: f64) {
        *self.cell(name, || MetricValue::FGauge(0.0)) = MetricValue::FGauge(v);
    }

    /// Record `sample` into histogram `name` (creating it empty).
    pub fn record(&mut self, name: &'static str, sample: u64) {
        match self.cell(name, || MetricValue::Histogram(Histogram::new())) {
            MetricValue::Histogram(h) => h.record(sample),
            other => {
                let mut h = Histogram::new();
                h.record(sample);
                *other = MetricValue::Histogram(h);
            }
        }
    }

    /// Fold `samples` into histogram `name` (creating it empty):
    /// bucket-wise addition, the same cell state as recording each of
    /// its samples here.
    pub fn merge_histogram(&mut self, name: &'static str, samples: &Histogram) {
        match self.cell(name, || MetricValue::Histogram(Histogram::new())) {
            MetricValue::Histogram(h) => h.merge(samples),
            other => *other = MetricValue::Histogram(samples.clone()),
        }
    }

    /// Iterate cells in metric-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &MetricValue)> {
        self.values.iter().map(|(k, v)| (*k, v))
    }

    /// Whether no metric has been touched.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A `(tenant, metric)` → [`MetricValue`] registry with one owner.
///
/// The global scope is the tenant `""`.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    tenants: HashMap<String, MetricSet>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Apply `f` to `tenant`'s [`MetricSet`]. The steady state (tenant
    /// already present) allocates nothing; only a tenant's first update
    /// pays for the owned key.
    pub fn update(&mut self, tenant: &str, f: impl FnOnce(&mut MetricSet)) {
        if !self.tenants.contains_key(tenant) {
            self.tenants.insert(tenant.to_string(), MetricSet::default());
        }
        f(self.tenants.get_mut(tenant).expect("inserted above"));
    }

    /// One deterministic point-in-time view, sorted by `(metric,
    /// tenant)`. Collects into a `Vec` and sorts once — far cheaper than
    /// a `BTreeMap` at snapshot cadence.
    pub fn snapshot(&self) -> Snapshot {
        let mut entries: Vec<((&'static str, String), MetricValue)> = Vec::new();
        for (tenant, set) in &self.tenants {
            entries.extend(set.iter().map(|(name, value)| ((name, tenant.clone()), value.clone())));
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Snapshot { entries }
    }
}

/// A sorted point-in-time view of a [`MetricsRegistry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Sorted by `(metric, tenant)`, no duplicate keys.
    entries: Vec<((&'static str, String), MetricValue)>,
}

/// Escape a tenant name for embedding in JSON/Prometheus label strings,
/// appending to `out`. Tenant names are protocol-validated to a
/// conservative charset, but the renderer should not rely on that; the
/// common clean case is a single `push_str` with no allocation.
fn escape_into(out: &mut String, s: &str) {
    if !s.chars().any(|c| matches!(c, '"' | '\\') || (c as u32) < 0x20) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// [`escape_into`] returning an owned `String`.
#[cfg(test)]
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

impl Snapshot {
    /// Number of `(metric, tenant)` entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(metric, tenant, value)` in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &str, &MetricValue)> {
        self.entries.iter().map(|((m, t), v)| (*m, t.as_str(), v))
    }

    /// Render the `pfmetrics/v1` JSONL schema: one object per `(metric,
    /// tenant)` line, sorted by `(metric, tenant)`. Scalars carry
    /// `"value"` (`null` for a non-finite float gauge); histograms carry
    /// `count/sum/min/max/p50/p90/p99`. The global scope (tenant `""`)
    /// renders as `"tenant":""`.
    pub fn render_jsonl(&self) -> String {
        // Rendering runs at snapshot cadence over O(tenants) lines, so it
        // writes straight into one buffer: no per-line temporaries.
        let mut out = String::with_capacity(self.entries.len() * 80);
        for ((metric, tenant), value) in &self.entries {
            out.push_str("{\"schema\":\"");
            out.push_str(METRICS_SCHEMA);
            out.push_str("\",\"metric\":\"");
            escape_into(&mut out, metric);
            out.push_str("\",\"tenant\":\"");
            escape_into(&mut out, tenant);
            out.push_str("\",\"type\":\"");
            out.push_str(value.type_name());
            out.push('"');
            match value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    let _ = write!(out, ",\"value\":{v}");
                }
                // JSON has no NaN or infinity.
                MetricValue::FGauge(v) if !v.is_finite() => out.push_str(",\"value\":null"),
                MetricValue::FGauge(v) => {
                    let _ = write!(out, ",\"value\":{v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\
                         \"p99\":{}",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                        h.p50(),
                        h.p90(),
                        h.p99()
                    );
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Render a Prometheus-style text exposition. Each metric gets one
    /// `# TYPE` header; tenants become a `tenant="..."` label (the global
    /// scope, tenant `""`, renders unlabeled); histograms render as
    /// summaries with `quantile` labels plus `_sum`/`_count` series.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 48);
        let mut last_metric: Option<&'static str> = None;
        for ((metric, tenant), value) in &self.entries {
            if last_metric != Some(metric) {
                let kind = match value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) | MetricValue::FGauge(_) => "gauge",
                    MetricValue::Histogram(_) => "summary",
                };
                let _ = writeln!(out, "# TYPE {metric} {kind}");
                last_metric = Some(metric);
            }
            // Append `metric{tenant="...",extra}` (label braces elided
            // when both parts are empty) straight into `out`.
            let label = |out: &mut String, extra: &str| match (tenant.is_empty(), extra.is_empty())
            {
                (true, true) => {}
                (true, false) => {
                    out.push('{');
                    out.push_str(extra);
                    out.push('}');
                }
                (false, _) => {
                    out.push_str("{tenant=\"");
                    escape_into(out, tenant);
                    out.push('"');
                    if !extra.is_empty() {
                        out.push(',');
                        out.push_str(extra);
                    }
                    out.push('}');
                }
            };
            match value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    out.push_str(metric);
                    label(&mut out, "");
                    let _ = writeln!(out, " {v}");
                }
                MetricValue::FGauge(v) => {
                    out.push_str(metric);
                    label(&mut out, "");
                    let _ = writeln!(out, " {v}");
                }
                MetricValue::Histogram(h) => {
                    for (q, v) in [
                        ("quantile=\"0.5\"", h.p50()),
                        ("quantile=\"0.9\"", h.p90()),
                        ("quantile=\"0.99\"", h.p99()),
                    ] {
                        out.push_str(metric);
                        label(&mut out, q);
                        let _ = writeln!(out, " {v}");
                    }
                    out.push_str(metric);
                    out.push_str("_sum");
                    label(&mut out, "");
                    let _ = writeln!(out, " {}", h.sum());
                    out.push_str(metric);
                    out.push_str("_count");
                    label(&mut out, "");
                    let _ = writeln!(out, " {}", h.count());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_round_trip() {
        let mut reg = MetricsRegistry::new();
        reg.update("a", |m| {
            m.add("events", 3);
            m.gauge_max("queue_hwm", 7);
            m.gauge_max("queue_hwm", 5);
            m.fgauge_set("cal", 0.25);
            m.record("stall_us", 100);
        });
        reg.update("a", |m| m.add("events", 2));
        let snap = reg.snapshot();
        let mut it = snap.iter();
        let (m, t, v) = it.next().unwrap();
        assert_eq!((m, t), ("cal", "a"));
        assert_eq!(v, &MetricValue::FGauge(0.25));
        let (m, _, v) = it.next().unwrap();
        assert_eq!(m, "events");
        assert_eq!(v, &MetricValue::Counter(5));
        let (m, _, v) = it.next().unwrap();
        assert_eq!(m, "queue_hwm");
        assert_eq!(v, &MetricValue::Gauge(7));
        let (m, _, v) = it.next().unwrap();
        assert_eq!(m, "stall_us");
        match v {
            MetricValue::Histogram(h) => assert_eq!(h.count(), 1),
            other => panic!("expected histogram, got {other:?}"),
        }
        assert!(it.next().is_none());
    }

    #[test]
    fn snapshot_sorts_by_metric_then_tenant() {
        let mut reg = MetricsRegistry::new();
        for tenant in ["zz", "aa", "mm"] {
            reg.update(tenant, |m| m.add("events", 1));
        }
        reg.update("aa", |m| m.gauge_set("depth", 2));
        let keys: Vec<_> = reg.snapshot().iter().map(|(m, t, _)| (m, t.to_string())).collect();
        assert_eq!(
            keys,
            vec![
                ("depth", "aa".to_string()),
                ("events", "aa".to_string()),
                ("events", "mm".to_string()),
                ("events", "zz".to_string()),
            ]
        );
    }

    #[test]
    fn merging_a_histogram_equals_recording_its_samples() {
        let samples = [0u64, 7, 900, 15_000, 15_000, 1 << 40];
        let mut recorded = MetricsRegistry::new();
        let mut merged = MetricsRegistry::new();
        let mut pending = Histogram::new();
        for (i, s) in samples.into_iter().enumerate() {
            recorded.update("a", |m| m.record("stall_us", s));
            pending.record(s);
            // Drain at an arbitrary boundary, then keep going.
            if i == 2 {
                merged.update("a", |m| m.merge_histogram("stall_us", &pending));
                pending = Histogram::new();
            }
        }
        merged.update("a", |m| m.merge_histogram("stall_us", &pending));
        assert_eq!(merged.snapshot(), recorded.snapshot());
    }

    #[test]
    fn non_finite_gauges_render_as_json_null() {
        let mut reg = MetricsRegistry::new();
        reg.update("a", |m| {
            m.fgauge_set("err_inf", f64::INFINITY);
            m.fgauge_set("err_nan", f64::NAN);
            m.fgauge_set("err_ok", 0.5);
        });
        let jsonl = reg.snapshot().render_jsonl();
        let values: Vec<&str> =
            jsonl.lines().map(|l| l.rsplit_once("\"value\":").unwrap().1).collect();
        assert_eq!(values, ["null}", "null}", "0.5}"]);
    }

    #[test]
    fn global_scope_renders_unlabeled_in_prometheus() {
        let mut reg = MetricsRegistry::new();
        reg.update("", |m| m.add("sheds", 4));
        reg.update("t1", |m| m.add("sheds", 1));
        let text = reg.snapshot().render_prometheus();
        assert_eq!(text, "# TYPE sheds counter\nsheds 4\nsheds{tenant=\"t1\"} 1\n");
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
