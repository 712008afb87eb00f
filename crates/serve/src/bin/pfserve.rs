//! `pfserve` — the multi-tenant prefetch-advisor service.
//!
//! ```text
//! pfserve                                   # serve stdin -> stdout
//! pfserve --socket /tmp/pfserve.sock        # serve a unix socket
//! pfserve --threads 4 --queue-cap 256 \
//!         --max-tenants 2000 --memory-budget-mb 64 \
//!         --advice-dir out/advice
//! ```
//!
//! Requests are lines of the `prefetch-serve` protocol (`OPEN`, `EV`,
//! `STATS`, `CLOSE`, `PANIC`, `METRICS`, `HEALTH`, `SHUTDOWN`);
//! responses are typed lines (`OK`, `ADV`, `REJECT`, `SHED`, `ERR`,
//! `PANIC`, `TRACE`, `STATS`, `FINAL`, `METRIC`, `HEALTH`, `BYE`).
//! Overload and malformed input degrade gracefully — typed
//! shed/reject/skip responses, never a crash — and `SHUTDOWN` (or stdin
//! EOF) drains every tenant to a deterministic `FINAL` report.
//!
//! | exit | meaning                              |
//! |------|--------------------------------------|
//! | 0    | drained cleanly                      |
//! | 1    | internal panic (bug — please report) |
//! | 2    | usage error                          |
//! | 3    | invalid configuration                |
//! | 4    | listener I/O error                   |

use prefetch_serve::{ServeOpts, Service};
use std::process::ExitCode;

const EXIT_PANIC: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_INVALID_CONFIG: u8 = 3;
const EXIT_LISTENER_IO: u8 = 4;

struct Args {
    socket: Option<std::path::PathBuf>,
    threads: usize,
    batch: usize,
    opts: ServeOpts,
    log_json: Option<std::path::PathBuf>,
    quiet: bool,
}

fn usage() -> String {
    "usage: pfserve [--socket PATH] [--threads N] [--batch N] [--queue-cap N]\n\
     \x20             [--max-tenants N] [--memory-budget-mb N]\n\
     \x20             [--default-cache N] [--default-nodes N]\n\
     \x20             [--advice-dir DIR] [--snapshot-dir DIR]\n\
     \x20             [--wal-dir DIR] [--recover DIR]\n\
     \x20             [--fsync always|never|every-n=N|interval-ms=N]\n\
     \x20             [--checkpoint-every N] [--recover-cap-events N]\n\
     \x20             [--metrics-out PATH] [--metrics-every N] [--trace-ring N]\n\
     \x20             [--log-json PATH] [--no-echo-advice] [--quiet]\n\
     \n\
     Serves the pfserve line protocol on stdin (default) or a unix socket.\n\
     SHUTDOWN or stdin EOF drains every tenant and exits 0.\n\
     --threads N applies each batch's tenants on the dispatch thread plus\n\
     N-1 pool helpers that start once and park between batches, and\n\
     replays --recover's logs on the same workers; output is\n\
     byte-identical at any N. 0 (the default) means one per core, read\n\
     once at start-up.\n\
     --snapshot-dir persists each tenant's prefetch tree (pftree-snap/v2)\n\
     at CLOSE/drain and warm-starts same-named tenants on OPEN.\n\
     --wal-dir logs every accepted event to a per-tenant write-ahead log\n\
     (one write per tenant per batch, group-committed; --fsync picks the\n\
     durability/throughput point and governs checkpoint files too).\n\
     After a crash, --recover DIR replays the logs through the real\n\
     event path: tenant state, counters, and advice files come back\n\
     bit-identical; damaged logs quarantine only their own tenant.\n\
     --recover-cap-events bounds replay; longer logs warm-start degraded\n\
     from their latest checkpoint (--checkpoint-every, 0 disables).\n\
     --metrics-out enables the metrics registry and appends\n\
     pfmetrics-snap/v1 JSONL snapshots to PATH: every --metrics-every\n\
     events (0 = at drain only) and always once at drain. The METRICS\n\
     verb renders the same registry as Prometheus-style METRIC lines;\n\
     HEALTH answers one liveness line. --trace-ring N keeps the last N\n\
     request-lifecycle trace events per tenant (sequence-stamped, never\n\
     wall clock) and dumps them as TRACE lines on panic or WAL degrade."
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        socket: None,
        threads: 0,
        batch: 256,
        opts: ServeOpts::default(),
        log_json: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    let next_val = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => args.socket = Some(next_val(&mut it, "--socket")?.into()),
            "--threads" => {
                args.threads = next_val(&mut it, "--threads")?
                    .parse()
                    .map_err(|_| "--threads needs an integer".to_string())?;
            }
            "--batch" => {
                args.batch = next_val(&mut it, "--batch")?
                    .parse()
                    .map_err(|_| "--batch needs an integer".to_string())?;
            }
            "--queue-cap" => {
                args.opts.queue_cap = next_val(&mut it, "--queue-cap")?
                    .parse()
                    .map_err(|_| "--queue-cap needs an integer".to_string())?;
            }
            "--max-tenants" => {
                args.opts.admission.max_tenants = next_val(&mut it, "--max-tenants")?
                    .parse()
                    .map_err(|_| "--max-tenants needs an integer".to_string())?;
            }
            "--memory-budget-mb" => {
                let mb: u64 = next_val(&mut it, "--memory-budget-mb")?
                    .parse()
                    .map_err(|_| "--memory-budget-mb needs an integer".to_string())?;
                args.opts.admission.memory_budget_bytes = Some(mb * 1024 * 1024);
            }
            "--default-cache" => {
                args.opts.defaults.cache_blocks = next_val(&mut it, "--default-cache")?
                    .parse()
                    .map_err(|_| "--default-cache needs an integer".to_string())?;
            }
            "--default-nodes" => {
                args.opts.defaults.node_limit = next_val(&mut it, "--default-nodes")?
                    .parse()
                    .map_err(|_| "--default-nodes needs an integer".to_string())?;
            }
            "--advice-dir" => {
                args.opts.advice_dir = Some(next_val(&mut it, "--advice-dir")?.into())
            }
            "--snapshot-dir" => {
                args.opts.snapshot_dir = Some(next_val(&mut it, "--snapshot-dir")?.into())
            }
            "--wal-dir" => args.opts.wal.dir = Some(next_val(&mut it, "--wal-dir")?.into()),
            "--recover" => {
                args.opts.wal.dir = Some(next_val(&mut it, "--recover")?.into());
                args.opts.wal.recover = true;
            }
            "--fsync" => {
                args.opts.wal.fsync =
                    next_val(&mut it, "--fsync")?.parse().map_err(|e| format!("--fsync: {e}"))?;
            }
            "--checkpoint-every" => {
                args.opts.wal.checkpoint_every =
                    next_val(&mut it, "--checkpoint-every")?
                        .parse()
                        .map_err(|_| "--checkpoint-every needs an integer".to_string())?;
            }
            "--recover-cap-events" => {
                args.opts.wal.recover_cap_events = next_val(&mut it, "--recover-cap-events")?
                    .parse()
                    .map_err(|_| "--recover-cap-events needs an integer".to_string())?;
            }
            "--metrics-out" => {
                args.opts.metrics_out = Some(next_val(&mut it, "--metrics-out")?.into());
            }
            "--metrics-every" => {
                args.opts.metrics_every = next_val(&mut it, "--metrics-every")?
                    .parse()
                    .map_err(|_| "--metrics-every needs an integer".to_string())?;
            }
            "--trace-ring" => {
                args.opts.trace_ring = next_val(&mut it, "--trace-ring")?
                    .parse()
                    .map_err(|_| "--trace-ring needs an integer".to_string())?;
            }
            "--log-json" => args.log_json = Some(next_val(&mut it, "--log-json")?.into()),
            "--no-echo-advice" => args.opts.echo_advice = false,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

fn check_config(args: &Args) -> Result<(), String> {
    if args.batch == 0 {
        return Err("--batch must be positive".into());
    }
    if args.opts.queue_cap == 0 {
        return Err("--queue-cap must be positive".into());
    }
    if args.opts.admission.max_tenants == 0 {
        return Err("--max-tenants must be positive".into());
    }
    if args.opts.defaults.cache_blocks == 0 || args.opts.defaults.node_limit == 0 {
        return Err("--default-cache and --default-nodes must be positive".into());
    }
    if args.opts.metrics_every > 0 && args.opts.metrics_out.is_none() {
        return Err("--metrics-every needs --metrics-out".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if let Err(msg) = check_config(&args) {
        eprintln!("pfserve: {msg}");
        return ExitCode::from(EXIT_INVALID_CONFIG);
    }
    if let Some(path) = &args.log_json {
        if let Err(e) = prefetch_telemetry::log::set_json_path(path) {
            eprintln!("pfserve: cannot open --log-json {}: {e}", path.display());
            return ExitCode::from(EXIT_INVALID_CONFIG);
        }
    }
    prefetch_pool::set_threads(args.threads);

    let mut service = match Service::new(args.opts.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pfserve: cannot initialize service: {e}");
            return ExitCode::from(EXIT_INVALID_CONFIG);
        }
    };
    if args.opts.wal.recover {
        let r = service.recover();
        if !args.quiet {
            eprintln!(
                "pfserve: recovered: replayed={} degraded={} closed={} quarantined={} \
                 torn_truncated={} replayed_events={} elapsed_ms={}",
                r.replayed,
                r.degraded,
                r.closed,
                r.quarantined,
                r.torn_truncated,
                r.replayed_events,
                r.elapsed_ms
            );
            for (tenant, err) in &r.errors {
                eprintln!("pfserve: recovery: {tenant}: {err}");
            }
        }
    }
    if !args.quiet {
        eprintln!(
            "pfserve: serving on {} ({} worker threads, batch {})",
            args.socket.as_ref().map_or("stdin".to_string(), |p| p.display().to_string()),
            prefetch_pool::effective_threads(),
            args.batch,
        );
    }

    let served = match &args.socket {
        Some(path) => {
            #[cfg(unix)]
            {
                prefetch_serve::listener::run_unix(&mut service, path, args.batch)
            }
            #[cfg(not(unix))]
            {
                eprintln!("pfserve: --socket {} requires unix", path.display());
                return ExitCode::from(EXIT_USAGE);
            }
        }
        None => prefetch_serve::listener::run_stdin(&mut service, args.batch),
    };
    if let Err(e) = served {
        eprintln!("pfserve: listener I/O error: {e}");
        return ExitCode::from(EXIT_LISTENER_IO);
    }

    if !args.quiet {
        let s = &service.stats;
        eprintln!(
            "pfserve: drained: tenants={} events={} sheds={} rejects={} parse_errors={} \
             quarantined={}",
            s.opens, s.events, s.sheds, s.rejects, s.parse_errors, s.quarantined
        );
    }
    // Reaching here means every fault was contained; a panic that
    // escapes main (EXIT_PANIC via the default handler) is a bug.
    let _ = EXIT_PANIC;
    ExitCode::SUCCESS
}
