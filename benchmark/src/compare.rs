//! `pfbench compare A.jsonl B.jsonl`: per workload × end-to-end metric,
//! B's median against A's and the metric's bound, with the parent's own
//! run-to-run spread deciding whether the comparison resolves at all.

use crate::json::{self, Value};
use crate::report::{MetricDef, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// workload → metric → one value per run.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Parse a file of result lines (one JSON object per untraced run, as
/// `pfbench --json-out` appends them). Traced runs are skipped: only
/// end-to-end metrics carry bounds.
pub fn parse_runs(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if v.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let metrics = v
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("line {}: no metrics", n + 1))?;
        let slot = set.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("line {}: metric {name} has no value", n + 1))?;
            slot.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(set)
}

/// How one workload × metric pairing came out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// A's own interquartile spread exceeds the bound, so a difference of
    /// that size cannot be told from noise — and B does not beat A in
    /// every run either.
    Unresolved,
    /// One side has no runs for the pairing.
    Missing,
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub workload: &'static str,
    /// Metric.
    pub metric: &'static MetricDef,
    /// A's median and interquartile spread (share of the median).
    pub a: (f64, f64),
    /// B's median.
    pub b: f64,
    /// (B − A) / A; positive is worse for a lower-is-better metric.
    pub delta: f64,
    /// The outcome.
    pub verdict: Verdict,
}

fn judge(metric: &MetricDef, a: &[f64], b: &[f64]) -> ((f64, f64), f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let spread = if a.len() >= 2 { spread(a) } else { 0.0 };
    let delta = (mb - ma) / ma;
    let worse_by = if metric.better == "lower" { delta } else { -delta };
    let b_always_better = if metric.better == "lower" {
        b.iter().copied().fold(f64::MIN, f64::max) < a.iter().copied().fold(f64::MAX, f64::min)
    } else {
        b.iter().copied().fold(f64::MAX, f64::min) > a.iter().copied().fold(f64::MIN, f64::max)
    };
    let verdict = if spread > metric.bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    ((ma, spread), mb, delta, verdict)
}

/// Compare run set `b` (the change) against `a` (the parent).
pub fn compare(a: &RunSet, b: &RunSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, _) in &WORKLOADS {
        for metric in &END_TO_END {
            let side = |s: &RunSet| s.get(*workload).and_then(|m| m.get(metric.name)).cloned();
            let row = match (side(a), side(b)) {
                (Some(va), Some(vb)) if !va.is_empty() && !vb.is_empty() => {
                    let (a, b, delta, verdict) = judge(metric, &va, &vb);
                    Row { workload, metric, a, b, delta, verdict }
                }
                _ => Row {
                    workload,
                    metric,
                    a: (0.0, 0.0),
                    b: 0.0,
                    delta: 0.0,
                    verdict: Verdict::Missing,
                },
            };
            rows.push(row);
        }
    }
    rows
}

/// Render the comparison, one row per workload × metric.
pub fn render(rows: &[Row]) -> String {
    let mut s = format!(
        "{:<14} {:<16} {:>14} {:>8} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "A iqr%", "B median", "delta%", "bound%"
    );
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        };
        let _ = writeln!(
            s,
            "{:<14} {:<16} {:>14.4} {:>8.2} {:>14.4} {:>+8.2} {:>6.1}  {verdict}",
            r.workload,
            r.metric.name,
            r.a.0,
            100.0 * r.a.1,
            r.b,
            100.0 * r.delta,
            100.0 * r.metric.bound
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, trace: u8, ns: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": {trace}, \"correct\": true, \
             \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"ns_per_op\": {{\"value\": {ns}, \
             \"unit\": \"ns\"}}}}}}\n"
        )
    }

    fn set(workload: &str, values: &[f64]) -> RunSet {
        let text: String = values.iter().map(|&v| line(workload, 0, v)).collect();
        parse_runs(&text).unwrap()
    }

    fn verdict_of(a: &[f64], b: &[f64]) -> Verdict {
        let rows = compare(&set("sim-cad", a), &set("sim-cad", b));
        rows.iter()
            .find(|r| r.workload == "sim-cad" && r.metric.name == "ns_per_op")
            .unwrap()
            .verdict
    }

    #[test]
    fn traced_lines_are_skipped_and_values_grouped() {
        let text = format!(
            "{}{}\n{}",
            line("sim-cad", 0, 10.0),
            line("sim-cad", 1, 99.0),
            line("sim-cad", 0, 12.0)
        );
        let s = parse_runs(&text).unwrap();
        assert_eq!(s["sim-cad"]["ns_per_op"], vec![10.0, 12.0]);
        assert!(parse_runs("{\"trace\": 0}").is_err());
        assert!(parse_runs("not json").is_err());
    }

    #[test]
    fn verdicts_follow_bound_and_parent_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9];
        // ns_per_op is bounded at 25 %.
        assert_eq!(verdict_of(&steady, &steady.map(|v| v * 1.20)), Verdict::Ok);
        assert_eq!(verdict_of(&steady, &steady.map(|v| v * 1.30)), Verdict::Regression);
        assert_eq!(verdict_of(&steady, &steady.map(|v| v * 0.50)), Verdict::Ok);
        // A parent whose own quartiles sit 60 % apart resolves nothing...
        let noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 64.0, 136.0, 100.0, 100.0];
        assert_eq!(verdict_of(&noisy, &noisy.map(|v| v * 1.2)), Verdict::Unresolved);
        assert_eq!(verdict_of(&noisy, &noisy), Verdict::Unresolved);
        // ...unless every run of the change beats every run of the parent.
        assert_eq!(verdict_of(&noisy, &[50.0, 55.0, 59.0]), Verdict::Ok);
        // A workload with no runs on one side is reported, not skipped.
        let rows = compare(&set("sim-cad", &steady), &set("sim-cello", &steady));
        assert!(rows.iter().all(|r| r.verdict == Verdict::Missing));
        assert!(render(&rows).contains("missing"));
    }
}
