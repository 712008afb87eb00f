//! Live-observability tests: the metrics registry's determinism
//! contract, the frozen `pfmetrics/v1` / Prometheus schemas,
//! and the service surface (`METRICS`/`HEALTH` verbs, `queue_hwm=` /
//! `rejects=` response fields, flight-recorder `TRACE` dumps, and
//! thread-count-invariant snapshot files).

use prefetch_serve::loadgen::{generate, Fate, LoadgenOpts};
use prefetch_serve::{ServeOpts, Service};
use prefetch_telemetry::registry::MetricsRegistry;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

/// `prefetch_pool::set_threads` is a process-global knob; tests that
/// touch it serialize here so they cannot fight over it.
static KNOB: Mutex<()> = Mutex::new(());

fn lock_knob() -> std::sync::MutexGuard<'static, ()> {
    KNOB.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pfserve-observe-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Feed a script through a fresh service in `chunk`-line batches and
/// return every response line plus the drain report.
fn run_script(lines: &[String], opts: ServeOpts, chunk: usize) -> (Vec<String>, Vec<String>) {
    let mut service = Service::new(opts).expect("service init");
    let mut responses = Vec::new();
    for batch in lines.chunks(chunk) {
        let tagged: Vec<(u64, String)> = batch.iter().map(|l| (0, l.clone())).collect();
        for (_, line) in service.process_batch(&tagged) {
            responses.push(line);
        }
        if service.shutdown_requested() {
            break;
        }
    }
    let finals = service.drain();
    (responses, finals)
}

fn feed(service: &mut Service, lines: &[&str]) -> Vec<String> {
    let tagged: Vec<(u64, String)> = lines.iter().map(|l| (0, l.to_string())).collect();
    service.process_batch(&tagged).into_iter().map(|(_, l)| l).collect()
}

// ---------------------------------------------------------------------------
// Registry determinism: only a tenant's own order matters.
// ---------------------------------------------------------------------------

const TENANTS: usize = 6;

fn apply(reg: &mut MetricsRegistry, tenant: &str, op: u8, val: u64) {
    reg.update(tenant, |m| match op % 5 {
        0 => m.add("events", val % 1000),
        1 => m.record("stall_us", val % 100_000),
        2 => m.gauge_max("queue_hwm", val % 512),
        3 => m.fgauge_set("cal", val as f64 * 0.125),
        _ => m.add("prefetches", val % 64),
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The registry contract behind the any-`--threads` bit-identity
    /// guarantee. Workers finish tenants in any order, but the single
    /// writer drains each tenant's deltas in that tenant's own order; so
    /// any interleaving of tenants that preserves each tenant's own
    /// sequence must render byte-identical JSONL and Prometheus text.
    #[test]
    fn tenant_interleaving_does_not_change_snapshot_bytes(
        ops in proptest::collection::vec((0usize..TENANTS, 0u8..5, 0u64..1_000_000), 10..200),
        rotate in 0usize..TENANTS,
    ) {
        let tenants: Vec<String> = (0..TENANTS).map(|i| format!("t{i:02}")).collect();
        let render = |order: Vec<&(usize, u8, u64)>| {
            let mut reg = MetricsRegistry::new();
            for (t, op, val) in order {
                apply(&mut reg, &tenants[*t], *op, *val);
            }
            let snap = reg.snapshot();
            (snap.render_jsonl(), snap.render_prometheus())
        };
        // Reference: the generated interleaving.
        let reference = render(ops.iter().collect());
        // Stable sorts keep each tenant's own order. One tenant at a time,
        // starting from an arbitrary one, is the interleaving furthest from
        // the generated one; two coarse groups is one in between.
        for groups in [TENANTS, 2] {
            let mut order: Vec<&(usize, u8, u64)> = ops.iter().collect();
            order.sort_by_key(|op| (op.0 + rotate) % groups);
            prop_assert_eq!(&render(order), &reference);
        }
    }
}

// ---------------------------------------------------------------------------
// Golden schema files: the exact bytes of both exposition formats.
// ---------------------------------------------------------------------------

/// A small registry exercising every metric type in both scopes.
fn golden_registry() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.update("", |m| {
        m.gauge_set("tenants_live", 2);
        m.add("sheds", 1);
    });
    reg.update("alpha", |m| {
        m.add("events", 42);
        m.fgauge_set("cal_benefit_err", 0.25);
        m.gauge_max("queue_hwm", 7);
        m.record("stall_us", 900);
        m.record("stall_us", 15000);
        m.record("stall_us", 15000);
    });
    reg.update("beta", |m| m.add("events", 7));
    reg
}

#[test]
fn jsonl_schema_matches_golden_file() {
    assert_eq!(
        golden_registry().snapshot().render_jsonl(),
        include_str!("golden/metrics.jsonl"),
        "pfmetrics/v1 JSONL schema drifted; update tests/golden/metrics.jsonl deliberately"
    );
}

#[test]
fn prometheus_schema_matches_golden_file() {
    assert_eq!(
        golden_registry().snapshot().render_prometheus(),
        include_str!("golden/metrics.prom"),
        "Prometheus exposition drifted; update tests/golden/metrics.prom deliberately"
    );
}

// ---------------------------------------------------------------------------
// Service surface.
// ---------------------------------------------------------------------------

fn metrics_opts(dir: &std::path::Path, every: u64, ring: usize) -> ServeOpts {
    ServeOpts {
        echo_advice: true,
        metrics_out: Some(dir.join("metrics.jsonl")),
        metrics_every: every,
        trace_ring: ring,
        ..ServeOpts::default()
    }
}

#[test]
fn metrics_and_health_verbs_answer_end_to_end() {
    let dir = tmp_dir("verbs");
    let mut service = Service::new(metrics_opts(&dir, 0, 8)).unwrap();
    let mut out = feed(&mut service, &["OPEN t1", "EV t1 1", "EV t1 2", "EV t1 1", "EV t1 2"]);
    out.extend(feed(&mut service, &["METRICS", "HEALTH"]));

    let metric_lines: Vec<&String> = out.iter().filter(|l| l.starts_with("METRIC ")).collect();
    assert!(!metric_lines.is_empty(), "METRICS returned no exposition lines:\n{out:?}");
    assert!(
        metric_lines.iter().any(|l| l.contains("events{tenant=\"t1\"} 4")),
        "per-tenant event counter missing: {metric_lines:?}"
    );
    assert!(
        metric_lines.iter().any(|l| l.starts_with("METRIC # TYPE ")),
        "exposition must carry # TYPE headers"
    );
    assert!(
        metric_lines.iter().any(|l| l.contains("cal_benefit_err{tenant=\"t1\"}")),
        "per-tenant calibration gauge missing: {metric_lines:?}"
    );
    let trailer = out.iter().find(|l| l.starts_with("OK metrics lines=")).unwrap();
    assert_eq!(
        trailer.strip_prefix("OK metrics lines=").unwrap().parse::<usize>().unwrap(),
        metric_lines.len()
    );

    let health = out.iter().find(|l| l.starts_with("HEALTH ")).unwrap();
    assert!(health.starts_with("HEALTH status=ok tenants=1 "), "unexpected: {health}");
    assert!(health.contains(" metrics=on "), "unexpected: {health}");
    assert!(health.ends_with(" trace_ring=8"), "unexpected: {health}");

    // Without --metrics-out the verb answers but reports itself disabled.
    let mut plain = Service::new(ServeOpts::default()).unwrap();
    let out = feed(&mut plain, &["METRICS", "HEALTH"]);
    assert!(out.contains(&"OK metrics lines=0 enabled=false".to_string()));
    assert!(out.iter().any(|l| l.contains(" metrics=off ")));
}

#[test]
fn stats_and_final_carry_queue_hwm_and_reject_tally() {
    let mut service =
        Service::new(ServeOpts { echo_advice: true, ..ServeOpts::default() }).unwrap();
    let out =
        feed(&mut service, &["OPEN t1", "EV t1 1", "EV t1 2", "EV t1 3", "OPEN t1", "STATS t1"]);
    let stats = out.iter().find(|l| l.starts_with("STATS t1 ")).unwrap();
    assert!(stats.contains(" queue_hwm=3 "), "three queued events in one batch: {stats}");
    assert!(
        stats.contains(
            " rejects=tenant-limit:0,memory-budget:0,quarantined:0,unknown-tenant:0,\
             duplicate:1,bad-config:0"
        ),
        "duplicate OPEN must be tallied: {stats}"
    );
    let finals = service.drain();
    let fin = finals.iter().find(|l| l.starts_with("FINAL t1 ")).unwrap();
    assert!(fin.contains(" queue_hwm=3 "), "drain FINAL keeps the high-water mark: {fin}");
    assert!(fin.contains(" rejects="), "drain FINAL carries the tally: {fin}");
}

#[test]
fn panic_dumps_flight_recorder_trace() {
    let dir = tmp_dir("trace");
    let mut service = Service::new(metrics_opts(&dir, 0, 16)).unwrap();
    let mut out = feed(&mut service, &["OPEN t1", "EV t1 1", "EV t1 2"]);
    out.extend(feed(&mut service, &["PANIC t1", "EV t1 3"]));

    assert!(
        out.iter().any(|l| l.starts_with("PANIC t1 quarantined")),
        "panic must quarantine: {out:?}"
    );
    let trace: Vec<&String> = out.iter().filter(|l| l.starts_with("TRACE t1 ")).collect();
    assert!(!trace.is_empty(), "quarantine must dump the flight ring: {out:?}");
    // Ring contents are sequence-stamped lifecycle stages, newest last.
    for stage in ["admission", "queue", "dispatch", "decision", "response"] {
        assert!(
            trace.iter().any(|l| l.contains(&format!(" {stage} "))),
            "missing {stage} stage in {trace:?}"
        );
    }
    // Stamps are sequence numbers, not wall clock: strictly increasing
    // small integers in field 3.
    let seqs: Vec<u64> =
        trace.iter().map(|l| l.split_ascii_whitespace().nth(2).unwrap().parse().unwrap()).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "non-monotonic stamps: {seqs:?}");

    // Without --trace-ring, no TRACE lines appear.
    let mut plain = Service::new(ServeOpts::default()).unwrap();
    let out = feed(&mut plain, &["OPEN t1", "EV t1 1", "PANIC t1", "EV t1 2"]);
    assert!(out.iter().all(|l| !l.starts_with("TRACE ")), "unexpected trace: {out:?}");
}

#[test]
fn metrics_snapshots_are_identical_across_thread_counts() {
    let _knob = lock_knob();
    let gen = generate(&LoadgenOpts {
        tenants: 60,
        events_per_tenant: 24,
        slice: 4,
        phase_len: 5,
        seed: 21,
        chaos: true,
        shutdown: false,
    });
    assert!(gen.manifest.iter().any(|(_, f)| *f == Fate::Panicked));

    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        let dir = tmp_dir(&format!("threads{threads}"));
        prefetch_pool::set_threads(threads);
        let (responses, finals) = run_script(&gen.lines, metrics_opts(&dir, 64, 8), 32);
        prefetch_pool::set_threads(0);
        let snapshot_bytes = fs::read(dir.join("metrics.jsonl")).unwrap();
        let traces: Vec<String> =
            responses.iter().filter(|l| l.starts_with("TRACE ")).cloned().collect();
        runs.push((snapshot_bytes, traces, finals));
    }
    assert!(!runs[0].1.is_empty(), "chaos run should dump flight traces");
    assert!(
        String::from_utf8_lossy(&runs[0].0).contains("pfmetrics-snap/v1"),
        "snapshot file must carry its schema header"
    );
    assert_eq!(runs[0].0, runs[1].0, "metrics snapshot files differ across thread counts");
    assert_eq!(runs[0].1, runs[1].1, "flight-recorder dumps differ across thread counts");
    assert_eq!(runs[0].2, runs[1].2, "drain reports differ across thread counts");
}

// ---------------------------------------------------------------------------
// Binary end-to-end: the CI job's contract in miniature.
// ---------------------------------------------------------------------------

#[test]
fn pfserve_binary_writes_identical_snapshots_at_any_thread_count() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    let gen = generate(&LoadgenOpts {
        tenants: 40,
        events_per_tenant: 16,
        slice: 4,
        phase_len: 5,
        seed: 33,
        chaos: true,
        shutdown: true,
    });
    let script = gen.lines.join("\n") + "\n";

    let mut outputs = Vec::new();
    for threads in ["1", "4"] {
        let dir = tmp_dir(&format!("bin{threads}"));
        let metrics = dir.join("metrics.jsonl");
        let mut child = Command::new(env!("CARGO_BIN_EXE_pfserve"))
            .args([
                "--threads",
                threads,
                "--batch",
                "32",
                "--metrics-out",
                metrics.to_str().unwrap(),
                "--metrics-every",
                "128",
                "--trace-ring",
                "8",
                "--no-echo-advice",
                "--quiet",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn pfserve");
        child.stdin.take().unwrap().write_all(script.as_bytes()).unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "pfserve exited with {:?}", out.status);
        outputs.push((fs::read(&metrics).unwrap(), out.stdout));
    }
    assert!(!outputs[0].0.is_empty(), "snapshot file must not be empty");
    assert_eq!(
        outputs[0].0, outputs[1].0,
        "--threads 1 vs 4 must write byte-identical metrics snapshots"
    );
    assert_eq!(outputs[0].1, outputs[1].1, "--threads 1 vs 4 must write byte-identical responses");
}

/// A line that is not UTF-8 is one more malformed line: answered with a
/// typed `ERR parse`, the lines behind it served, the drain complete, exit
/// status 0 — on stdin and on the unix socket alike.
#[test]
fn pfserve_binary_answers_a_non_utf8_line_with_a_typed_error() {
    use std::io::{Read, Write};
    use std::process::{Command, Stdio};

    let script: &[u8] = b"OPEN t\nEV t 1\n\xff\xfe\nEV t 2\nSHUTDOWN\n";
    let check = |mode: &str, stdout: &[u8]| {
        let text = String::from_utf8_lossy(stdout);
        let lines: Vec<&str> = text.lines().collect();
        let at = |prefix: &str| {
            lines
                .iter()
                .position(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("{mode}: no {prefix:?} line in {lines:?}"))
        };
        // The event behind the bad line is still advised.
        assert!(at("ERR parse ") < at("ADV t 1 "), "{mode}: {lines:?}");
        assert!(lines[at("FINAL t ")].contains(" events=2 "), "{mode}: {lines:?}");
        assert!(lines.last().unwrap().starts_with("BYE tenants=1 events=2 "), "{mode}: {lines:?}");
    };

    let mut child = Command::new(env!("CARGO_BIN_EXE_pfserve"))
        .args(["--quiet", "--batch", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pfserve");
    child.stdin.take().unwrap().write_all(script).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "stdin: pfserve exited with {:?}", out.status);
    check("stdin", &out.stdout);

    #[cfg(unix)]
    {
        let dir = tmp_dir("nonutf8");
        let path = dir.join("pfserve.sock");
        let mut child = Command::new(env!("CARGO_BIN_EXE_pfserve"))
            .args(["--quiet", "--socket", path.to_str().unwrap()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn pfserve");
        let mut stream = (0..500)
            .find_map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                std::os::unix::net::UnixStream::connect(&path).ok()
            })
            .expect("pfserve never bound its socket");
        stream.write_all(script).unwrap();
        let mut received = Vec::new();
        stream.read_to_end(&mut received).unwrap();
        assert!(child.wait().unwrap().success(), "socket: pfserve failed");
        check("socket", &received);
    }
}

/// Two clients stream over one unix socket at once, each a 2 000-line
/// `OPEN`/`EV`/`CLOSE` script for its own tenant, and half-close. Each
/// must receive exactly its own responses, byte for byte what a stdin run
/// of its script answers before the drain. `--batch 1` on both sides
/// keeps `FINAL`'s `queue_hwm=` independent of how the two streams
/// interleave.
#[cfg(unix)]
#[test]
fn concurrent_socket_clients_each_get_their_stdin_transcript() {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;
    use std::process::{Command, Stdio};

    let script = |tenant: &str, stride: u64| {
        let mut s = format!("OPEN {tenant} cache=16 nodes=256\n");
        for k in 0..1998u64 {
            s.push_str(&format!("EV {tenant} {}\n", (k * stride) % 53 + k % 7));
        }
        s.push_str(&format!("CLOSE {tenant}\n"));
        s.into_bytes()
    };
    let scripts = [script("alpha", 3), script("beta", 5)];
    let pfserve = || {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_pfserve"));
        cmd.args(["--quiet", "--batch", "1"]).stderr(Stdio::null());
        cmd
    };

    // What each script gets on stdin, less the drain (its BYE line).
    let expected: Vec<Vec<u8>> = scripts
        .iter()
        .map(|script| {
            let mut child =
                pfserve().stdin(Stdio::piped()).stdout(Stdio::piped()).spawn().expect("spawn");
            child.stdin.take().unwrap().write_all(script).unwrap();
            let out = child.wait_with_output().unwrap();
            assert!(out.status.success());
            let text = String::from_utf8(out.stdout).unwrap();
            let (kept, bye) = text.trim_end().rsplit_once('\n').unwrap();
            assert!(bye.starts_with("BYE tenants=1 events=1998 "), "{bye}");
            format!("{kept}\n").into_bytes()
        })
        .collect();

    let dir = tmp_dir("two-clients");
    let path = dir.join("pfserve.sock");
    let mut server = pfserve()
        .arg("--socket")
        .arg(&path)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn pfserve");
    let connect = || {
        (0..500)
            .find_map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                UnixStream::connect(&path).ok()
            })
            .expect("pfserve never bound its socket")
    };
    let clients: Vec<_> = scripts
        .iter()
        .map(|script| {
            let mut stream = connect();
            let mut writer = stream.try_clone().unwrap();
            let script = script.clone();
            std::thread::spawn(move || {
                let sender = std::thread::spawn(move || {
                    writer.write_all(&script).unwrap();
                    writer.shutdown(std::net::Shutdown::Write).unwrap();
                });
                let mut received = Vec::new();
                stream.read_to_end(&mut received).unwrap();
                sender.join().unwrap();
                received
            })
        })
        .collect();
    let received: Vec<Vec<u8>> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    let mut closer = connect();
    closer.write_all(b"SHUTDOWN\n").unwrap();
    let mut drain = String::new();
    closer.read_to_string(&mut drain).unwrap();
    assert!(server.wait().unwrap().success(), "socket: pfserve failed");
    assert!(drain.contains("BYE tenants=2 events=3996 "), "{drain}");

    for ((got, want), tenant) in received.iter().zip(&expected).zip(["alpha", "beta"]) {
        let text = String::from_utf8_lossy(got);
        assert_eq!(text.lines().count(), 2000, "{tenant}");
        assert!(text.lines().all(|l| l.contains(tenant)), "{tenant} got another client's line");
        assert!(got == want, "{tenant}: socket responses differ from its stdin run");
    }
}

/// A client that sends a few lines and hangs up at once still gets every
/// answer: its hangup reaches the dispatch loop while its lines wait in
/// the batch, and the batch is answered before the client is dropped.
#[cfg(unix)]
#[test]
fn a_socket_client_that_hangs_up_still_gets_its_answers() {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;
    use std::process::{Command, Stdio};

    let dir = tmp_dir("hangup");
    let path = dir.join("pfserve.sock");
    let mut server = Command::new(env!("CARGO_BIN_EXE_pfserve"))
        .args(["--quiet", "--socket", path.to_str().unwrap()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pfserve");
    let connect = || {
        (0..500)
            .find_map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                UnixStream::connect(&path).ok()
            })
            .expect("pfserve never bound its socket")
    };
    let mut client = connect();
    client.write_all(b"OPEN h\nEV h 1\nEV h 2\nCLOSE h\n").unwrap();
    client.shutdown(std::net::Shutdown::Write).unwrap();
    let mut got = String::new();
    client.read_to_string(&mut got).unwrap();
    let lines: Vec<&str> = got.lines().collect();
    assert_eq!(lines.len(), 4, "{got}");
    assert_eq!(lines[0], "OK open h");
    assert!(lines[1].starts_with("ADV h 0 ") && lines[2].starts_with("ADV h 1 "), "{got}");
    assert!(lines[3].starts_with("FINAL h events=2 "), "{got}");

    let mut closer = connect();
    closer.write_all(b"SHUTDOWN\n").unwrap();
    closer.read_to_end(&mut Vec::new()).unwrap();
    assert!(server.wait().unwrap().success(), "socket: pfserve failed");
}
