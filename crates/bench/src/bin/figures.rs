//! Regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! figures <id>|all [--quick] [--refs N] [--seed S] [--out DIR] [--csv]
//!         [--checkpoint DIR] [--resume] [--deadline-ms N] [--retries N]
//!         [--log-json PATH] [--threads N]
//!         [--save-tree DIR] [--load-tree DIR]
//! ```
//!
//! The `snapshot` experiment measures `pftree-snap/v2`: exact bytes/node
//! of the trained trees, snapshot size, and a
//! train → snapshot → restore → continue identity check. `--save-tree DIR`
//! persists the four trained trees as `DIR/<trace>.pftree`; `--load-tree
//! DIR` warm-starts training from those files (the flags compose across
//! invocations, so the trees keep growing run over run).
//!
//! `--threads N` sizes the sweep worker pool (default: one worker per
//! available hardware thread; `--threads 1` runs the exact sequential
//! path). Results are bit-identical at any thread count — the pool
//! collects cells in index order and the checkpoint journal flushes in
//! fingerprint order, so CSVs and journals never depend on the schedule.
//!
//! `--log-json PATH` mirrors the structured run log (JSONL) to a file.
//!
//! `<id>` is one of `table1 table2 table3 table4 fig6 fig7 fig8 fig9 fig10
//! fig11 fig12 fig13 fig14 fig15 fig16 fig17`. Markdown renderings go to
//! stdout; with `--out DIR` each report is also written as
//! `DIR/<report-id>.csv`.
//!
//! With `--checkpoint DIR` every completed sweep cell is journalled to
//! `DIR/journal.pfwl`, so a killed run can be relaunched with `--resume`
//! and only recompute the cells it lost. Without `--resume` any existing
//! journal is discarded so a fresh run cannot pick up stale results. Cells
//! that panic, time out (`--deadline-ms`), or exhaust their retries are
//! reported at the end and render as `NA` in the affected tables; the
//! process then exits with code 2 instead of aborting the whole sweep.

use prefetch_sim::checkpoint::JOURNAL_FILE;
use prefetch_sim::experiments::{run_all, run_experiment, ExperimentOpts, TraceSet, ALL_IDS};
use prefetch_telemetry::log as tlog;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    id: String,
    opts: ExperimentOpts,
    out: Option<PathBuf>,
    csv_stdout: bool,
    resume: bool,
    log_json: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let id = argv.next().ok_or_else(usage)?;
    let mut opts = ExperimentOpts::default();
    let mut out = None;
    let mut csv_stdout = false;
    let mut resume = false;
    let mut log_json = None;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--quick" => {
                let refs = opts.refs;
                let harness = std::mem::take(&mut opts.harness);
                opts = ExperimentOpts::quick();
                // Flags before --quick should still win; keep any
                // explicitly-set values that differ from the default.
                if refs != ExperimentOpts::default().refs {
                    opts.refs = refs;
                }
                opts.harness = harness;
            }
            "--refs" => {
                let v = argv.next().ok_or("--refs needs a value")?;
                opts.refs = v.parse().map_err(|_| format!("bad --refs {v:?}"))?;
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--out" => {
                let v = argv.next().ok_or("--out needs a directory")?;
                out = Some(PathBuf::from(v));
            }
            "--csv" => csv_stdout = true,
            "--checkpoint" => {
                let v = argv.next().ok_or("--checkpoint needs a directory")?;
                opts.harness.checkpoint_dir = Some(PathBuf::from(v));
            }
            "--resume" => resume = true,
            "--deadline-ms" => {
                let v = argv.next().ok_or("--deadline-ms needs a value")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad --deadline-ms {v:?}"))?;
                opts.harness.deadline_ms = Some(ms);
            }
            "--retries" => {
                let v = argv.next().ok_or("--retries needs a value")?;
                let n: u32 = v.parse().map_err(|_| format!("bad --retries {v:?}"))?;
                opts.harness.max_attempts = n.max(1);
            }
            "--log-json" => {
                let v = argv.next().ok_or("--log-json needs a path")?;
                log_json = Some(PathBuf::from(v));
            }
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --threads {v:?}"))?;
                prefetch_pool::set_threads(n);
            }
            "--save-tree" => {
                let v = argv.next().ok_or("--save-tree needs a directory")?;
                opts.save_tree = Some(PathBuf::from(v));
            }
            "--load-tree" => {
                let v = argv.next().ok_or("--load-tree needs a directory")?;
                opts.load_tree = Some(PathBuf::from(v));
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if resume && opts.harness.checkpoint_dir.is_none() {
        return Err("--resume needs --checkpoint DIR".to_string());
    }
    const EXTENSIONS: [&str; 4] = ["ablation", "disks", "resilience", "snapshot"];
    if (opts.save_tree.is_some() || opts.load_tree.is_some()) && id != "snapshot" {
        return Err("--save-tree/--load-tree apply to the snapshot experiment only".to_string());
    }
    if id != "all" && !EXTENSIONS.contains(&id.as_str()) && !ALL_IDS.contains(&id.as_str()) {
        return Err(format!(
            "unknown experiment {id:?}; known: all, {}, {}",
            EXTENSIONS.join(", "),
            ALL_IDS.join(", ")
        ));
    }
    Ok(Args { id, opts, out, csv_stdout, resume, log_json })
}

fn usage() -> String {
    "usage: figures <id>|all [--quick] [--refs N] [--seed S] [--out DIR] [--csv] \
     [--checkpoint DIR] [--resume] [--deadline-ms N] [--retries N] \
     [--log-json PATH] [--threads N] [--save-tree DIR] [--load-tree DIR]"
        .to_string()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &args.log_json {
        if let Err(e) = tlog::set_json_path(path) {
            eprintln!("cannot open --log-json {path:?}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(dir) = &args.opts.harness.checkpoint_dir {
        let journal = dir.join(JOURNAL_FILE);
        if args.resume {
            tlog::info("checkpoint_resume").str("path", journal.display().to_string()).emit();
        } else if journal.exists() {
            // A fresh run must not silently adopt another run's results.
            if let Err(e) = std::fs::remove_file(&journal) {
                tlog::error("journal_discard_failed")
                    .str("path", journal.display().to_string())
                    .str("error", e.to_string())
                    .emit();
                tlog::flush();
                return ExitCode::FAILURE;
            }
            tlog::warn("journal_discarded")
                .str("path", journal.display().to_string())
                .str("hint", "pass --resume to keep it")
                .emit();
        }
    }

    tlog::info("run_start")
        .str("id", args.id.clone())
        .u64("refs", args.opts.refs as u64)
        .u64("seed", args.opts.seed)
        .u64("threads", prefetch_pool::effective_threads() as u64)
        .emit();
    let t0 = Instant::now();
    let traces = TraceSet::generate(&args.opts);
    tlog::info("traces_ready").f64("elapsed_s", t0.elapsed().as_secs_f64()).emit();

    let reports = if args.id == "all" {
        run_all(&traces, &args.opts)
    } else {
        run_experiment(&args.id, &traces, &args.opts)
    };

    for r in &reports {
        if args.csv_stdout {
            println!("{}", r.to_csv());
        } else {
            println!("{}", r.to_markdown());
        }
        if let Some(dir) = &args.out {
            if let Err(e) = std::fs::create_dir_all(dir) {
                tlog::error("out_dir_failed")
                    .str("path", dir.display().to_string())
                    .str("error", e.to_string())
                    .emit();
                tlog::flush();
                return ExitCode::FAILURE;
            }
            let path = dir.join(format!("{}.csv", r.id));
            if let Err(e) = std::fs::write(&path, r.to_csv()) {
                tlog::error("csv_write_failed")
                    .str("path", path.display().to_string())
                    .str("error", e.to_string())
                    .emit();
                tlog::flush();
                return ExitCode::FAILURE;
            }
        }
    }
    tlog::info("run_done")
        .f64("elapsed_s", t0.elapsed().as_secs_f64())
        .u64("reports", reports.len() as u64)
        .emit();

    // Partial-result report: the experiments above absorb every cell
    // outcome into the shared sweep log instead of panicking, so surface
    // what (if anything) went wrong and fail the run visibly.
    let log = &args.opts.harness.log;
    for note in log.notes() {
        tlog::warn("note").str("note", note).emit();
    }
    let s = log.summary();
    if s.restored > 0 || s.retries > 0 {
        tlog::info("checkpoint_summary")
            .u64("restored", s.restored)
            .u64("retries", s.retries)
            .emit();
    }
    let failures = log.failures();
    if failures.is_empty() {
        tlog::flush();
        return ExitCode::SUCCESS;
    }
    tlog::warn("cells_incomplete")
        .u64("incomplete", s.incomplete())
        .u64("total", s.ok + s.restored + s.incomplete())
        .u64("failed", s.failed)
        .u64("timed_out", s.timed_out)
        .u64("skipped", s.skipped)
        .str("effect", "affected table entries are rendered as NA")
        .emit();
    for f in &failures {
        tlog::error("cell_incomplete")
            .str("trace", f.trace.clone())
            .str("cell", f.cell.clone())
            .str("error", f.error.clone())
            .emit();
    }
    tlog::flush();
    ExitCode::from(2)
}
