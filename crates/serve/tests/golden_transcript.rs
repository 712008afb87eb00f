//! Byte-for-byte pin of the service's response stream: an FNV-1a digest
//! over every response line, in order, `drain()` included, for one script
//! that walks the whole tenant lifecycle. A refactor of the routing,
//! flush, quarantine, recovery or reporting code must leave every digest
//! unchanged; a deliberate protocol change regenerates the table from the
//! failure message (and `GOLDEN_TRANSCRIPT_DUMP=<dir>` writes the
//! transcripts themselves, for a line diff against the old build).
//!
//! Each case runs at 1 and 4 pool threads and must produce the same
//! digest at both. The instrumented configuration (`--wal-dir` +
//! `--trace-ring` + `--metrics-out`) also folds in the metrics snapshot
//! file, every file the run leaves in the WAL directory, and the
//! transcript of a `--recover` pass over that directory.

use prefetch_hash::Fnv64;
use prefetch_serve::{ServeOpts, Service, WalOpts};
use prefetch_wal::FsyncPolicy;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// `prefetch_pool::set_threads` is a process-global knob; tests that
/// touch it serialize here so they cannot fight over it.
static KNOB: Mutex<()> = Mutex::new(());

const TENANTS: u64 = 10;
const ROUNDS: u64 = 44;
const BATCHES: [usize; 3] = [1, 7, 256];

/// `(configuration, batch size, digest)`, in `[plain, instrumented] ×
/// BATCHES` order.
const GOLDEN: [(&str, usize, u64); 6] = [
    ("plain", 1, 0x1d4e7c3309f1bf5f),
    ("plain", 7, 0xf801922c4bbb8d15),
    ("plain", 256, 0xafdeaf0038568abe),
    ("instrumented", 1, 0xd60f2e34ec8780bc),
    ("instrumented", 7, 0x949204bef2de2c98),
    ("instrumented", 256, 0xb90b7e18916d8d0e),
];

/// Each tenant walks a short cycle at its own stride, so the trees learn
/// structure and the advice carries hits, misses and prefetches.
fn block(round: u64, tenant: u64) -> u64 {
    round * (1 + tenant % 3) % 12 + tenant
}

/// OPEN / EV / STATS / CLOSE / re-OPEN / PANIC / EV-after-panic /
/// malformed lines / METRICS / HEALTH / SHUTDOWN over ten tenants, with
/// the control requests placed mid-stream so that — depending on the
/// batch size — they land in the same batch as the events around them or
/// in a later one.
fn script() -> Vec<String> {
    let mut lines: Vec<String> = Vec::new();
    let mut push = |s: &str| lines.push(s.to_string());
    for t in 0..TENANTS {
        match t {
            1 | 4 => push(&format!("OPEN t{t} cache=8 nodes=64")),
            8 => push(&format!("OPEN t{t} policy=tree cache=16")),
            9 => push(&format!("OPEN t{t} overflow=freeze nodes=32 cache=8")),
            _ => push(&format!("OPEN t{t}")),
        }
    }
    for round in 0..ROUNDS {
        for t in 0..TENANTS {
            push(&format!("EV t{t} {}", block(round, t)));
        }
        match round {
            4 => push("STATS t1"),
            7 => {
                // CLOSE, then an event for the closed name.
                push("CLOSE t2");
                push("EV t2 1");
            }
            9 => push("OPEN t2 cache=16"),
            11 => {
                // Arm, panic on the next event, refuse what follows.
                push("PANIC t3");
                push("EV t3 5");
                push("EV t3 6");
                push("OPEN t3");
                push("STATS t3");
            }
            14 => {
                push("EV t4 not-a-number");
                push("FROB t4 1");
                push("EV");
                push("EV t4");
                push("OPEN t5");
                push("OPEN bad/name");
                push("OPEN tz cache=0");
                push("OPEN ty cache");
                push("EV ghost 1");
                push("STATS ghost");
                push("# a comment");
                push("");
                push("METRICS now");
            }
            17 => {
                push("METRICS");
                push("HEALTH");
            }
            20 => {
                // CLOSE → OPEN → EV back to back.
                push("CLOSE t6");
                push("OPEN t6 cache=8");
                push("EV t6 3");
                push("STATS t6");
            }
            24 => {
                // Armed with events already queued; STATS sees it live.
                push("PANIC t7");
                push("STATS t7");
            }
            27 => {
                // A burst past the queue cap (sheds once the batch holds it).
                for k in 0..40 {
                    push(&format!("EV t9 {}", k % 11));
                }
                push("STATS t9");
            }
            31 => {
                push("CLOSE t7");
                push("CLOSE t3");
                push("PANIC ghost");
                push("CLOSE ghost");
            }
            36 => {
                push("STATS t0");
                push("HEALTH");
                push("CLOSE t8");
            }
            _ => {}
        }
    }
    push("METRICS");
    push("SHUTDOWN");
    // Lines behind SHUTDOWN in the same batch are still answered.
    push("EV t0 5");
    push("STATS t0");
    lines
}

/// What a `--recover` pass over the instrumented run's WAL directory is
/// then asked.
fn recovery_script() -> Vec<String> {
    let mut lines = Vec::new();
    for t in 0..TENANTS {
        lines.push(format!("EV t{t} {}", block(3, t)));
        lines.push(format!("EV t{t} {}", block(4, t)));
    }
    for t in [0, 3, 7, 8] {
        lines.push(format!("STATS t{t}"));
        lines.push(format!("OPEN t{t}"));
    }
    lines.push("HEALTH".to_string());
    lines
}

/// Feed `lines` in `batch`-line batches, spread over three connections,
/// then drain; every response line in order, behind the connection it
/// was routed to (`-` for the drain report).
fn transcript(service: &mut Service, lines: &[String], batch: usize) -> Vec<String> {
    let tagged: Vec<(u64, String)> =
        lines.iter().enumerate().map(|(i, l)| (i as u64 % 3, l.clone())).collect();
    let mut out = Vec::new();
    for chunk in tagged.chunks(batch) {
        out.extend(service.process_batch(chunk).into_iter().map(|(c, line)| format!("{c} {line}")));
        if service.shutdown_requested() {
            break;
        }
    }
    out.extend(service.drain().into_iter().map(|line| format!("- {line}")));
    out
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pfserve-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every file under `dir`, as `== <name> ==` plus its bytes, in name order.
fn dir_listing(dir: &Path) -> Vec<u8> {
    let mut names: Vec<PathBuf> = fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    names.sort();
    let mut out = Vec::new();
    for path in names {
        out.extend(format!("== {} ==\n", path.file_name().unwrap().to_string_lossy()).bytes());
        out.extend(fs::read(&path).unwrap());
    }
    out
}

/// Run one case and return everything it pins, as bytes.
fn run_case(config: &str, batch: usize, threads: usize) -> Vec<u8> {
    let base = ServeOpts { queue_cap: 32, ..ServeOpts::default() };
    prefetch_pool::set_threads(threads);
    let mut bytes = Vec::new();
    let mut lines_of = |lines: Vec<String>| {
        for line in lines {
            bytes.extend(line.bytes());
            bytes.push(b'\n');
        }
    };
    if config == "plain" {
        let mut service = Service::new(base).unwrap();
        lines_of(transcript(&mut service, &script(), batch));
    } else {
        let dir = tmp_dir(&format!("{batch}-{threads}"));
        let opts = ServeOpts {
            wal: WalOpts {
                dir: Some(dir.join("wal")),
                fsync: FsyncPolicy::Always,
                checkpoint_every: 16,
                ..WalOpts::default()
            },
            trace_ring: 8,
            metrics_out: Some(dir.join("metrics.jsonl")),
            metrics_every: 64,
            ..base
        };
        let mut service = Service::new(opts.clone()).unwrap();
        lines_of(transcript(&mut service, &script(), batch));
        drop(service);
        let metrics = fs::read(dir.join("metrics.jsonl")).unwrap();
        let wal = dir_listing(&dir.join("wal"));

        let mut recovered = Service::new(ServeOpts {
            wal: WalOpts { recover: true, ..opts.wal.clone() },
            metrics_out: Some(dir.join("metrics-recovered.jsonl")),
            ..opts
        })
        .unwrap();
        let report = recovered.recover();
        lines_of(vec![format!(
            "- recovered replayed={} degraded={} closed={} quarantined={} torn={} events={} \
             errors={:?}",
            report.replayed,
            report.degraded,
            report.closed,
            report.quarantined,
            report.torn_truncated,
            report.replayed_events,
            report.errors
        )]);
        lines_of(transcript(&mut recovered, &recovery_script(), batch));
        drop(recovered);
        bytes.extend(b"== metrics.jsonl ==\n");
        bytes.extend(metrics);
        bytes.extend(b"== metrics-recovered.jsonl ==\n");
        bytes.extend(fs::read(dir.join("metrics-recovered.jsonl")).unwrap());
        bytes.extend(wal);
        let _ = fs::remove_dir_all(&dir);
    }
    prefetch_pool::set_threads(0);
    bytes
}

#[test]
fn the_lifecycle_script_reproduces_its_pinned_transcript_digests() {
    let _knob = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let dump = std::env::var_os("GOLDEN_TRANSCRIPT_DUMP").map(PathBuf::from);
    let mut got = Vec::new();
    for config in ["plain", "instrumented"] {
        for batch in BATCHES {
            let one = run_case(config, batch, 1);
            let four = run_case(config, batch, 4);
            assert!(one == four, "{config} batch {batch}: 1 and 4 pool threads differ");
            if let Some(dir) = &dump {
                fs::create_dir_all(dir).unwrap();
                fs::write(dir.join(format!("{config}-{batch}.txt")), &one).unwrap();
            }
            let mut h = Fnv64::new();
            h.bytes(&one);
            got.push((config, batch, h.finish()));
        }
    }
    let table: String =
        got.iter().map(|(c, b, d)| format!("    ({c:?}, {b}, {d:#018x}),\n")).collect();
    assert!(got == GOLDEN, "transcript digests moved; the table is now:\n{table}");
}

/// The script must keep covering what the digests are there to pin.
#[test]
fn the_lifecycle_script_reaches_every_response_type() {
    let _knob = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let text = String::from_utf8_lossy(&run_case("instrumented", 256, 1)).into_owned();
    for prefix in [
        "OK open t2",
        "ADV t6 0 ",
        "REJECT t2 unknown-tenant",
        "REJECT t3 quarantined",
        "REJECT t5 duplicate",
        "REJECT tz bad-config",
        "REJECT ghost unknown-tenant",
        "SHED t9 queue-full",
        "ERR parse ",
        "PANIC t3 quarantined",
        "PANIC t7 quarantined",
        "TRACE t3 ",
        "STATS t1 ",
        "FINAL t2 ",
        "FINAL t3 events=",
        "METRIC ",
        "OK metrics lines=",
        "HEALTH status=ok",
        "OK shutdown",
        "BYE tenants=",
        "recovered replayed=",
    ] {
        assert!(
            text.lines()
                .any(|l| l.split_once(' ').is_some_and(|(_, body)| body.starts_with(prefix))),
            "no response line starts with {prefix:?}"
        );
    }
}
