//! `pfbench` — run the benchmark, or compare two sets of its runs.
//!
//! ```text
//! pfbench --workload sim-cad --seed 42 --seconds 10 --trace 0 --bin-dir DIR --out-dir DIR
//! pfbench --workload all [--traced] [--runs N] [--json-out FILE] ...
//! pfbench compare A.jsonl B.jsonl
//! pfbench manifest            # BENCHMARK.json, rendered from the metric tables
//! ```
//!
//! Normally started by `benchmark/run.sh`, which builds `pfsim`,
//! `pfserve` and this harness first. The last line on stdout is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`; exit code
//! 1 means an output check failed, 2 a usage or harness error.

use pfbench::compare;
use pfbench::inputs::DEFAULT_SEED;
use pfbench::report::WORKLOADS;
use pfbench::run::Ctx;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: pfbench [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1] \
[--traced] [--runs N] [--scale X] [--json-out FILE] [--build-s X] --bin-dir DIR --out-dir DIR
       pfbench compare A.jsonl B.jsonl
       pfbench manifest";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    scale: f64,
    json_out: Option<PathBuf>,
    build_s: f64,
    bin_dir: Option<PathBuf>,
    out_dir: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: WORKLOADS.iter().map(|(w, _)| w.to_string()).collect(),
        seed: DEFAULT_SEED,
        seconds: f64::from(pfbench::report::RUN_SECONDS),
        trace: false,
        runs: 1,
        scale: 1.0,
        json_out: None,
        build_s: 0.0,
        bin_dir: None,
        out_dir: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            a.trace = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                if !WORKLOADS.iter().any(|(w, _)| w == value) {
                    return Err(format!("unknown workload {value:?}"));
                }
                a.workloads = vec![value.clone()];
            }
            "--seed" => a.seed = value.parse().map_err(|_| num("an integer"))?,
            "--seconds" => a.seconds = value.parse().map_err(|_| num("a number"))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(num("0 or 1")),
                }
            }
            "--runs" => a.runs = value.parse().map_err(|_| num("an integer"))?,
            "--scale" => a.scale = value.parse().map_err(|_| num("a number"))?,
            "--json-out" => a.json_out = Some(value.into()),
            "--build-s" => a.build_s = value.parse().map_err(|_| num("a number"))?,
            "--bin-dir" => a.bin_dir = Some(value.into()),
            "--out-dir" => a.out_dir = Some(value.into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(a.seconds >= 0.0 && a.scale > 0.0 && a.scale <= 1.0 && a.runs >= 1) {
        return Err("--seconds must be ≥ 0, --scale in (0, 1], --runs ≥ 1".to_string());
    }
    Ok(a)
}

fn run(argv: &[String]) -> Result<bool, String> {
    let a = parse_args(argv)?;
    let bin_dir = a.bin_dir.ok_or("--bin-dir is required")?;
    let out_dir = a.out_dir.ok_or("--out-dir is required")?;
    for exe in ["pfsim", "pfserve"] {
        if !bin_dir.join(exe).is_file() {
            return Err(format!(
                "{} not found; build the root binaries first",
                bin_dir.join(exe).display()
            ));
        }
    }
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let mut all_correct = true;
    let mut last_json = String::new();
    for run in 0..a.runs {
        for workload in &a.workloads {
            let ctx = Ctx {
                workload: workload.clone(),
                seed: a.seed + run,
                seconds: a.seconds,
                trace: a.trace,
                scale: a.scale,
                bin_dir: bin_dir.clone(),
                out_dir: out_dir.clone(),
                build_s: a.build_s,
            };
            let result = pfbench::run_workload(&ctx)?;
            all_correct &= result.correct;
            eprint!(
                "{}",
                result.to_table(&format!(
                    "{workload} seed={} trace={}",
                    ctx.seed,
                    u8::from(a.trace)
                ))
            );
            last_json = result.to_json();
            if let Some(path) = &a.json_out {
                let line = format!(
                    "{{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {}, {}\n",
                    ctx.seed,
                    u8::from(a.trace),
                    &last_json[1..]
                );
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut f| f.write_all(line.as_bytes()))
                    .map_err(|e| format!("appending to {}: {e}", path.display()))?;
            }
            if a.workloads.len() > 1 || a.runs > 1 {
                println!("{workload} {last_json}");
            }
        }
    }
    if a.workloads.len() == 1 && a.runs == 1 {
        println!("{last_json}");
    }
    Ok(all_correct)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        compare::parse_runs(&text).map_err(|e| format!("{p}: {e}"))
    };
    let rows = compare::compare(&read(a)?, &read(b)?);
    print!("{}", compare::render(&rows));
    Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Regression))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => compare_files(&argv[1], &argv[2]),
        Some("compare") | Some("--help") | Some("-h") => Err(USAGE.to_string()),
        Some("manifest") => {
            print!("{}", pfbench::report::manifest_json());
            Ok(true)
        }
        _ => run(&argv),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("pfbench: {msg}");
            ExitCode::from(2)
        }
    }
}
