//! `pfsim` — run any prefetching policy over any trace.
//!
//! ```text
//! pfsim --trace cad --refs 100000 --policy tree-next-limit --cache 1024
//! pfsim --trace cello --refs 3500000 --policy tree --cache 4096
//! pfsim --trace-file mytrace.trc --policy tree --cache 4096 --t-cpu 20
//! pfsim --trace snake --policy all --cache 1024 --disks 4
//! pfsim --trace cad --policy tree --cache 1024 --disks 4 --fault-rate 0.05 --fault-seed 7
//! pfsim --trace cello --policy tree --histograms --profile --log-json run.jsonl
//! ```
//!
//! Telemetry flags: `--histograms` prints per-policy stall, demand-fetch
//! latency, queue-delay, and prefetch-depth percentile tables;
//! `--profile` prints a per-phase wall-clock breakdown; `--events-out
//! PATH` streams every [`prefetch_sim::SimEvent`] as JSONL (all policy
//! runs append to one file, each terminated by an `end` record);
//! `--log-json PATH` mirrors the structured run log to a JSONL file.
//!
//! Snapshot flags: `--save-tree PATH` writes the trained prefetch tree as
//! a `pftree-snap/v2` snapshot at end of run (one `--policy` required);
//! `--load-tree PATH` warm-starts every policy run from a snapshot, and
//! continued training is bit-identical to the run that produced it.
//!
//! `--trace` takes a synthetic workload name (cello|snake|cad|sitar);
//! `--trace-file` loads a `.trc` (binary) or text trace from disk. Traces
//! are **streamed** through the simulator — synthetic records are drawn
//! from the generator and file records decoded incrementally as the run
//! consumes them — so memory use is independent of `--refs` (paper-scale
//! runs like cello's 3.5 M references need no trace buffer at all).
//!
//! Runs go through the guarded harness: a policy bug that panics, a trace
//! that stops decoding, or a run that blows past `--deadline-ms` becomes a
//! one-line diagnostic and a structured exit code instead of an abort:
//!
//! | exit | meaning                                                   |
//! |------|-----------------------------------------------------------|
//! | 0    | all runs completed                                        |
//! | 1    | a simulation panicked (bug — please report)               |
//! | 2    | usage error                                               |
//! | 3    | invalid configuration                                     |
//! | 4    | trace I/O error                                           |
//! | 5    | `--deadline-ms` exceeded                                  |
//! | 6    | lossy trace skipped more records than `--max-skipped`     |

use prefetch_sim::{
    run_source_guarded, JsonlEventSink, PolicySpec, QueueDelayObserver, SimConfig,
    StallHistogramObserver, SweepError,
};
use prefetch_telemetry::{log as tlog, Histogram, Phase};
use prefetch_trace::io::{open_source, ReadOptions};
use prefetch_trace::synth::TraceKind;
use prefetch_trace::TraceSource;
use prefetch_tree::PrefetchTree;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    trace: TraceInput,
    refs: usize,
    seed: u64,
    cache: usize,
    policies: Vec<PolicySpec>,
    t_cpu: Option<f64>,
    disks: Option<usize>,
    fault_rate: Option<f64>,
    fault_seed: u64,
    lenient: bool,
    deadline_ms: Option<u64>,
    max_skipped: Option<u64>,
    histograms: bool,
    profile: bool,
    events_out: Option<std::path::PathBuf>,
    log_json: Option<std::path::PathBuf>,
    save_tree: Option<std::path::PathBuf>,
    load_tree: Option<std::path::PathBuf>,
}

/// Structured exit codes (see the module docs).
const EXIT_PANIC: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_INVALID_CONFIG: u8 = 3;
const EXIT_TRACE_IO: u8 = 4;
const EXIT_DEADLINE: u8 = 5;
const EXIT_CORRUPT: u8 = 6;

enum TraceInput {
    Synthetic(TraceKind),
    File(std::path::PathBuf),
}

fn parse_policy(s: &str) -> Result<Vec<PolicySpec>, String> {
    Ok(match s {
        "all" => vec![
            PolicySpec::NoPrefetch,
            PolicySpec::NextLimit,
            PolicySpec::Tree,
            PolicySpec::TreeNextLimit,
            PolicySpec::TreeLvc,
            PolicySpec::TreeThreshold(0.05),
            PolicySpec::TreeChildren(3),
            PolicySpec::PerfectSelector,
            PolicySpec::TreeReanchor,
        ],
        other => vec![PolicySpec::parse(other, "all, ", |_| true)?],
    })
}

fn parse_args() -> Result<Args, String> {
    let mut trace = None;
    let mut refs = 100_000usize;
    let mut seed = 42u64;
    let mut cache = 1024usize;
    let mut policies = parse_policy("all")?;
    let mut t_cpu = None;
    let mut disks = None;
    let mut fault_rate = None;
    let mut fault_seed = 1u64;
    let mut lenient = false;
    let mut deadline_ms = None;
    let mut max_skipped = None;
    let mut histograms = false;
    let mut profile = false;
    let mut events_out = None;
    let mut log_json = None;
    let mut save_tree = None;
    let mut load_tree = None;

    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut val = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--trace" => {
                trace = Some(TraceInput::Synthetic(val()?.parse::<TraceKind>()?));
            }
            "--trace-file" => trace = Some(TraceInput::File(val()?.into())),
            "--refs" => refs = val()?.parse().map_err(|e| format!("bad --refs: {e}"))?,
            "--seed" => seed = val()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--cache" => cache = val()?.parse().map_err(|e| format!("bad --cache: {e}"))?,
            "--policy" => policies = parse_policy(&val()?)?,
            "--t-cpu" => t_cpu = Some(val()?.parse().map_err(|e| format!("bad --t-cpu: {e}"))?),
            "--disks" => disks = Some(val()?.parse().map_err(|e| format!("bad --disks: {e}"))?),
            "--fault-rate" => {
                fault_rate = Some(val()?.parse().map_err(|e| format!("bad --fault-rate: {e}"))?)
            }
            "--fault-seed" => {
                fault_seed = val()?.parse().map_err(|e| format!("bad --fault-seed: {e}"))?
            }
            "--lenient" => lenient = true,
            "--deadline-ms" => {
                deadline_ms = Some(val()?.parse().map_err(|e| format!("bad --deadline-ms: {e}"))?)
            }
            "--max-skipped" => {
                max_skipped = Some(val()?.parse().map_err(|e| format!("bad --max-skipped: {e}"))?)
            }
            "--threads" => {
                let n: usize = val()?.parse().map_err(|e| format!("bad --threads: {e}"))?;
                prefetch_pool::set_threads(n);
            }
            "--histograms" => histograms = true,
            "--profile" => profile = true,
            "--events-out" => events_out = Some(std::path::PathBuf::from(val()?)),
            "--log-json" => log_json = Some(std::path::PathBuf::from(val()?)),
            "--save-tree" => save_tree = Some(std::path::PathBuf::from(val()?)),
            "--load-tree" => load_tree = Some(std::path::PathBuf::from(val()?)),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    let trace = trace.ok_or_else(|| format!("--trace or --trace-file required\n{}", usage()))?;
    Ok(Args {
        trace,
        refs,
        seed,
        cache,
        policies,
        t_cpu,
        disks,
        fault_rate,
        fault_seed,
        lenient,
        deadline_ms,
        max_skipped,
        histograms,
        profile,
        events_out,
        log_json,
        save_tree,
        load_tree,
    })
}

fn usage() -> String {
    "usage: pfsim --trace <cello|snake|cad|sitar> | --trace-file <path> [--lenient] \
     [--refs N] [--seed S] [--cache BLOCKS] [--policy NAME|all] [--t-cpu MS] [--disks N] \
     [--fault-rate P] [--fault-seed S] [--deadline-ms N] [--max-skipped N] [--threads N] \
     [--histograms] [--profile] [--events-out PATH] [--log-json PATH] [--save-tree PATH] \
     [--load-tree PATH]"
        .to_string()
}

/// One percentile row of a `--histograms` table. Latency histograms hold
/// integer microseconds; display converts to milliseconds.
fn hist_row(label: &str, h: &Histogram, scale_us: bool) {
    if h.is_empty() {
        println!("  {label:<18} (no samples)");
        return;
    }
    let f = |v: u64| if scale_us { v as f64 / 1000.0 } else { v as f64 };
    println!(
        "  {label:<18} {:>10} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
        h.count(),
        f(h.p50()),
        f(h.p90()),
        f(h.p99()),
        f(h.max()),
        if scale_us { h.mean() / 1000.0 } else { h.mean() },
    );
}

fn print_histograms(stalls: &StallHistogramObserver, queues: &QueueDelayObserver) {
    println!(
        "  {:<18} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "distribution", "samples", "p50", "p90", "p99", "max", "mean"
    );
    hist_row("stall ms", &stalls.stall_us, true);
    hist_row("demand fetch ms", &stalls.demand_fetch_us, true);
    hist_row("demand queue ms", &queues.demand_queue_us, true);
    hist_row("prefetch queue ms", &queues.prefetch_queue_us, true);
    hist_row("prefetch depth", &stalls.prefetch_depth, false);
}

fn print_phases(phases: &prefetch_telemetry::PhaseTimes) {
    let total = phases.total_ns().max(1) as f64;
    println!("  {:<22} {:>10} {:>7}", "phase", "ms", "%");
    for phase in Phase::ALL {
        let ns = phases.get(phase);
        println!(
            "  {:<22} {:>10.3} {:>6.1}%",
            phase.name(),
            ns as f64 / 1e6,
            100.0 * ns as f64 / total
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };

    if args.save_tree.is_some() && args.policies.len() != 1 {
        eprintln!("--save-tree needs exactly one --policy (whose tree would be saved?)");
        return ExitCode::from(EXIT_USAGE);
    }

    if let Some(path) = &args.log_json {
        if let Err(e) = tlog::set_json_path(path) {
            eprintln!("cannot open --log-json {path:?}: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    }

    // Restore the warm-start tree once; each policy run gets its own clone.
    let warm_tree = match &args.load_tree {
        Some(path) => match PrefetchTree::load_snapshot(path) {
            Ok(t) => {
                tlog::info("tree_loaded")
                    .str("path", path.display().to_string())
                    .u64("nodes", t.node_count() as u64)
                    .u64("bytes_in_use", t.bytes_in_use() as u64)
                    .emit();
                Some(t)
            }
            Err(e) => {
                eprintln!("cannot load --load-tree {}: {e}", path.display());
                tlog::flush();
                return ExitCode::from(EXIT_TRACE_IO);
            }
        },
        None => None,
    };

    let mut source: Box<dyn TraceSource> = match &args.trace {
        TraceInput::Synthetic(kind) => Box::new(kind.stream(args.refs, args.seed)),
        TraceInput::File(path) => match open_source(path, ReadOptions { strict: !args.lenient }) {
            Ok(f) => f,
            Err(e) => {
                tlog::error("trace_open_failed")
                    .str("path", path.display().to_string())
                    .str("error", e.to_string())
                    .emit();
                tlog::flush();
                return ExitCode::from(EXIT_TRACE_IO);
            }
        },
    };
    {
        let mut rec = tlog::info("trace_open")
            .str("trace", source.meta().name.clone())
            .u64("cache_blocks", args.cache as u64)
            .u64("threads", prefetch_pool::effective_threads() as u64);
        if let Some(n) = source.len_hint() {
            rec = rec.u64("refs", n);
        }
        rec.emit();
    }

    let mut sink = match &args.events_out {
        Some(path) => match JsonlEventSink::create(path) {
            Ok(s) => Some(s),
            Err(e) => {
                tlog::error("events_out_failed")
                    .str("path", path.display().to_string())
                    .str("error", e.to_string())
                    .emit();
                tlog::flush();
                return ExitCode::from(EXIT_USAGE);
            }
        },
        None => None,
    };

    let faults_on = args.fault_rate.is_some_and(|r| r > 0.0);
    if faults_on {
        println!(
            "{:<22} {:>9} {:>11} {:>11} {:>11} {:>8} {:>8} {:>8} {:>11}",
            "policy",
            "miss %",
            "pf issued",
            "pf hit %",
            "disk reads",
            "faults",
            "retries",
            "quarant",
            "ms/ref"
        );
    } else {
        println!(
            "{:<22} {:>9} {:>11} {:>11} {:>11} {:>11}",
            "policy", "miss %", "pf issued", "pf hit %", "disk reads", "ms/ref"
        );
    }
    let mut warned_skipped = false;
    for &spec in &args.policies {
        let mut cfg = SimConfig::new(args.cache, spec);
        if let Some(t) = args.t_cpu {
            cfg = cfg.with_t_cpu(t);
        }
        if let Some(n) = args.disks {
            cfg = cfg.with_disks(n);
        }
        if let Some(r) = args.fault_rate {
            cfg = cfg.with_fault_rate(args.fault_seed, r);
        }
        if args.profile {
            cfg = cfg.with_profiling();
        }
        if let Err(e) = source.rewind() {
            tlog::error("trace_rewind_failed").str("error", e.to_string()).emit();
            tlog::flush();
            return ExitCode::from(EXIT_TRACE_IO);
        }
        let mut stalls = args.histograms.then(StallHistogramObserver::new);
        let mut queues = args.histograms.then(QueueDelayObserver::new);
        let mut extra = (stalls.as_mut(), queues.as_mut(), sink.as_mut());
        let wall = Instant::now();
        let run = run_source_guarded(
            &mut source,
            &cfg,
            args.deadline_ms,
            &mut extra,
            warm_tree.clone(),
            args.save_tree.is_some(),
        );
        let (r, trained_tree) = match run {
            Ok(r) => r,
            Err(e) => {
                tlog::error("run_failed")
                    .str("policy", spec.name())
                    .str("error", e.to_string())
                    .emit();
                tlog::flush();
                let code = match e {
                    SweepError::InvalidConfig(_) => EXIT_INVALID_CONFIG,
                    SweepError::DeadlineExceeded { .. } => EXIT_DEADLINE,
                    SweepError::TraceIo { .. } => EXIT_TRACE_IO,
                    _ => EXIT_PANIC,
                };
                return ExitCode::from(code);
            }
        };
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let m = r.metrics;
        tlog::info("run_complete")
            .str("policy", spec.name())
            .u64("refs", m.refs)
            .f64("miss_pct", 100.0 * m.miss_rate())
            .f64("wall_ms", wall_ms)
            .emit();
        if let Some(max) = args.max_skipped {
            if r.skipped_records > max {
                tlog::error("trace_corrupt")
                    .u64("skipped_records", r.skipped_records)
                    .u64("limit", max)
                    .emit();
                tlog::flush();
                return ExitCode::from(EXIT_CORRUPT);
            }
        }
        if !warned_skipped && r.skipped_records > 0 {
            tlog::warn("trace_lossy").u64("skipped_records", r.skipped_records).emit();
            warned_skipped = true;
        }
        if faults_on {
            println!(
                "{:<22} {:>8.2}% {:>11} {:>10.1}% {:>11} {:>8} {:>8} {:>8} {:>11.3}",
                spec.name(),
                100.0 * m.miss_rate(),
                m.prefetches_issued,
                100.0 * m.prefetch_hit_rate(),
                m.disk_reads(),
                m.total_faults(),
                m.demand_retries,
                m.blocks_quarantined,
                m.elapsed_ms / m.refs.max(1) as f64,
            );
        } else {
            println!(
                "{:<22} {:>8.2}% {:>11} {:>10.1}% {:>11} {:>11.3}",
                spec.name(),
                100.0 * m.miss_rate(),
                m.prefetches_issued,
                100.0 * m.prefetch_hit_rate(),
                m.disk_reads(),
                m.elapsed_ms / m.refs.max(1) as f64,
            );
        }
        if let (Some(stalls), Some(queues)) = (&stalls, &queues) {
            print_histograms(stalls, queues);
        }
        if args.profile {
            print_phases(&r.phases);
        }
        if let Some(path) = &args.save_tree {
            let Some(tree) = trained_tree.as_ref() else {
                eprintln!("--save-tree: policy {:?} keeps no prefetch tree", spec.name());
                tlog::flush();
                return ExitCode::from(EXIT_USAGE);
            };
            match tree.save_snapshot(path) {
                Ok(bytes) => {
                    tlog::info("tree_saved")
                        .str("path", path.display().to_string())
                        .u64("nodes", tree.node_count() as u64)
                        .u64("bytes", bytes as u64)
                        .emit();
                }
                Err(e) => {
                    eprintln!("cannot save --save-tree {}: {e}", path.display());
                    tlog::flush();
                    return ExitCode::from(EXIT_TRACE_IO);
                }
            }
        }
    }
    if let Some(sink) = sink {
        if let Err(e) = sink.finish() {
            tlog::error("events_out_failed").str("error", e.to_string()).emit();
            tlog::flush();
            return ExitCode::from(EXIT_TRACE_IO);
        }
    }
    tlog::flush();
    ExitCode::SUCCESS
}
