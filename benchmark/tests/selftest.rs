//! Every workload, at a hundredth of full scale, emits exactly the
//! metrics `BENCHMARK.json` names — none extra, none missing, all finite,
//! each with its unit — and answers every operation correctly.

use pfbench::json::{self, Value};
use pfbench::report::{self, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use pfbench::run::Ctx;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ sits in the repo").into()
}

/// The directory holding release `pfsim` and `pfserve`, building them at
/// the repo root (offline) if they are not there yet.
fn bin_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| repo_root().join("target"));
        let dir = target.join("release");
        if !(dir.join("pfsim").is_file() && dir.join("pfserve").is_file()) {
            let status = Command::new(env!("CARGO"))
                .args(["build", "--release", "--offline", "--quiet", "--manifest-path"])
                .arg(repo_root().join("Cargo.toml"))
                .args(["-p", "prefetch-sim", "-p", "prefetch-serve"])
                .status()
                .expect("cargo runs");
            assert!(status.success(), "building pfsim/pfserve failed");
        }
        dir
    })
}

fn manifest() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    json::parse(&text).unwrap()
}

/// `(name, unit)` of every entry of `BENCHMARK.json`'s list `key`.
fn listed(manifest: &Value, key: &str) -> BTreeSet<(String, String)> {
    manifest
        .get(key)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_small(workload: &str, trace: bool, seed: u64) -> (BTreeSet<(String, String)>, Value) {
    let ctx = Ctx {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        scale: 0.01,
        bin_dir: bin_dir().clone(),
        // One scratch tree per test thread: tests run in parallel.
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("selftest-{workload}-{}", u8::from(trace))),
        build_s: 0.0,
    };
    std::fs::create_dir_all(&ctx.out_dir).unwrap();
    let result = pfbench::run_workload(&ctx).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(result.correct, "{workload} trace={trace}: output checks failed");
    assert!(result.attempted >= 1 && result.failed == 0, "{workload}");
    // Through the printed line, as the driver reads it.
    let line = result.to_json();
    assert!(!line.contains('\n'));
    let parsed = json::parse(&line).unwrap();
    let keys: Vec<&String> = parsed.as_obj().unwrap().keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let metrics = parsed.get("metrics").and_then(Value::as_obj).unwrap();
    let emitted = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).unwrap();
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            (name.clone(), m.get("unit").and_then(Value::as_str).unwrap().to_string())
        })
        .collect();
    std::fs::remove_dir_all(&ctx.out_dir).unwrap();
    (emitted, parsed)
}

fn value(parsed: &Value, name: &str) -> f64 {
    parsed.get("metrics").and_then(|m| m.get(name)?.get("value")?.as_f64()).unwrap()
}

#[test]
fn benchmark_json_is_the_rendered_tables() {
    let on_disk = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    assert_eq!(on_disk, report::manifest_json(), "regenerate with `pfbench manifest`");
    let m = manifest();
    let keys: Vec<&String> = m.as_obj().unwrap().keys().collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
    let names = |table: &[MetricDef]| -> BTreeSet<(String, String)> {
        table.iter().map(|d| (d.name.to_string(), d.unit.to_string())).collect()
    };
    assert_eq!(listed(&m, "end_to_end"), names(&END_TO_END));
    assert_eq!(listed(&m, "per_layer"), names(&PER_LAYER));
    let workloads: Vec<&str> = m
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS.map(|(w, _)| w));
}

/// One test per workload, so they run in parallel and fail by name.
fn check_workload(workload: &str) {
    let m = manifest();
    let (emitted, parsed) = run_small(workload, false, 42);
    assert_eq!(emitted, listed(&m, "end_to_end"), "{workload}: end-to-end metric names");
    for d in &END_TO_END {
        assert!(value(&parsed, d.name) > 0.0, "{workload}: {} must never be 0", d.name);
    }
    let (emitted, parsed) = run_small(workload, true, 7);
    assert_eq!(emitted, listed(&m, "per_layer"), "{workload}: per-layer metric names");
    assert!(value(&parsed, "bench.e2e_ns_per_op") > 0.0);
    assert!(value(&parsed, "bench.span_count") > 0.0);
    // The layers a workload bypasses read 0; the ones it runs do not.
    let serve = workload.starts_with("serve-");
    assert_eq!(value(&parsed, "serve.tenant_step_ns_per_event") > 0.0, serve);
    assert_eq!(value(&parsed, "sim.chunk_ns_per_ref_p50") > 0.0, !serve);
    let wal = matches!(workload, "serve-wal" | "serve-recover");
    assert_eq!(value(&parsed, "wal.appends") > 0.0, wal);
    assert!(value(&parsed, "tree.record_access_ns_per_ref") > 0.0);
}

#[test]
fn sim_cello_emits_the_declared_metrics() {
    check_workload("sim-cello");
}

#[test]
fn sim_cad_emits_the_declared_metrics() {
    check_workload("sim-cad");
}

#[test]
fn serve_mux_emits_the_declared_metrics() {
    check_workload("serve-mux");
}

#[test]
fn serve_t2_emits_the_declared_metrics() {
    check_workload("serve-t2");
}

#[test]
fn serve_wal_emits_the_declared_metrics() {
    check_workload("serve-wal");
}

#[test]
fn serve_recover_emits_the_declared_metrics() {
    check_workload("serve-recover");
}
