//! The `serve-*` workloads: the root-built `pfserve` binary fed a
//! generated request script, checked line by line against an oracle the
//! harness computes with its own `Simulator::step` calls.

use crate::calib::Calibrator;
use crate::inputs::{self, Ops, Script, ScriptShape};
use crate::layers;
use crate::proc::{self, ChildRun};
use crate::report::{RepSummary, RunResult, END_TO_END, PER_LAYER};
use crate::run::{
    calibrated_reps, conclude, overhead_pct, timed_reps, timed_setups, Ctx, MIN_REPS,
};
use crate::spans::Tracer;
use crate::stats::{median, percentile_or_max};
use prefetch_core::policy::RefKind;
use prefetch_serve::{
    parse_line, ServeOpts, Service, TenantDefaults, TenantSpec, TenantState, WalRecord,
};
use prefetch_sim::{PolicySpec, SimEvent, SimMetrics, SimObserver, Simulator};
use prefetch_trace::{BlockId, TraceRecord};
use prefetch_wal::AppendLog;
use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Tenants, all live at once.
const TENANTS: usize = 200;
/// `EV` lines per tenant at full scale.
const EVENTS_PER_TENANT: usize = 5_000;
/// Consecutive events per tenant turn.
const SLICE: usize = 8;
/// Events between a tenant's trace-kind shifts.
const PHASE_LEN: usize = 1_000;
/// `pfserve --batch`, and the lines per traced chunk span.
const BATCH: usize = 256;
/// The server's default tenant spec, which the scripts' bare `OPEN`s get:
/// the oracle pins it, so a changed default fails every event.
const CACHE_BLOCKS: usize = 64;
const NODE_LIMIT: usize = 4096;
const POLICY: PolicySpec = PolicySpec::TreeNextLimit;
/// Checkpoint cadence of the WAL workloads (≈ 4 cycles per tenant).
const CHECKPOINT_EVERY: &str = "1024";

/// Which `serve-*` workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// `--threads 1`.
    Mux,
    /// `--threads 2`, output compared with a `--threads 1` run.
    T2,
    /// `--threads 1` with the write-ahead log on.
    Wal,
    /// `--recover` over the logs the `Wal` command line leaves.
    Recover,
}

impl Variant {
    fn threads(self) -> &'static str {
        if self == Variant::T2 {
            "2"
        } else {
            "1"
        }
    }

    fn wal(self) -> bool {
        matches!(self, Variant::Wal | Variant::Recover)
    }

    /// Times set-up is repeated for its median: once where set-up holds
    /// a full run of the server (the `--threads 1` reference, the log
    /// that recovery replays).
    fn setups(self) -> usize {
        match self {
            Variant::Mux | Variant::Wal => 3,
            Variant::T2 | Variant::Recover => 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// What the server must answer, computed by the harness itself.
struct Oracle {
    /// Per tenant: its `ADV` lines in order, each newline-terminated.
    adv: Vec<Vec<u8>>,
    /// Per tenant: its `FINAL` line up to and including `quarantined=false`.
    finals: Vec<String>,
    /// Per tenant: events sent.
    events: Vec<u64>,
}

/// Captures one step's advice from the simulator's event stream.
#[derive(Default)]
struct Advice {
    kind: Option<RefKind>,
    stall_ms: f64,
    prefetched: Vec<BlockId>,
}

impl SimObserver for Advice {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        match event {
            SimEvent::Reference { kind, stall_ms, .. } => {
                self.kind = Some(*kind);
                self.stall_ms = *stall_ms;
            }
            SimEvent::Period { activity, .. } => {
                self.prefetched.extend_from_slice(&activity.prefetched_blocks);
            }
            _ => {}
        }
    }
}

/// Step one simulator per tenant through `ops` and render the protocol
/// lines a correct server answers with.
fn build_oracle(ops: &Ops) -> Oracle {
    let cfg = layers::sim_config(ops, POLICY);
    let names: Vec<String> = (0..ops.tenants).map(inputs::tenant_name).collect();
    let mut sims: Vec<(Simulator, SimMetrics)> =
        (0..ops.tenants).map(|_| (Simulator::new(&cfg), SimMetrics::default())).collect();
    let per_tenant = ops.ops.len() / ops.tenants.max(1) + 1;
    let mut adv: Vec<Vec<u8>> =
        (0..ops.tenants).map(|_| Vec::with_capacity(per_tenant * 40)).collect();
    let mut events = vec![0u64; ops.tenants];
    let mut advice = Advice::default();
    for op in &ops.ops {
        let i = op.tenant as usize;
        let (sim, metrics) = &mut sims[i];
        advice.prefetched.clear();
        sim.step(TraceRecord::read(op.block), None, &mut (&mut *metrics, &mut advice));
        let kind = match advice.kind.expect("every step reports its reference") {
            RefKind::DemandHit => 'h',
            RefKind::PrefetchHit => 'p',
            RefKind::Miss => 'm',
        };
        let out = &mut adv[i];
        let _ = write!(out, "ADV {} {} {kind} stall={} pf=", names[i], events[i], advice.stall_ms);
        if advice.prefetched.is_empty() {
            out.push(b'-');
        }
        for (k, b) in advice.prefetched.iter().enumerate() {
            let _ = write!(out, "{}{}", if k > 0 { "," } else { "" }, b.0);
        }
        out.push(b'\n');
        events[i] += 1;
    }
    let finals = sims
        .iter()
        .enumerate()
        .map(|(i, (sim, m))| {
            format!(
                "FINAL {} events={} skipped=0 shed=0 demand_hits={} prefetch_hits={} misses={} \
                 prefetches={} prefetch_faults=0 stall_ms={} elapsed_ms={} quarantined=false",
                names[i],
                events[i],
                m.demand_hits,
                m.prefetch_hits,
                m.misses,
                m.prefetches_issued,
                m.stall_ms,
                sim.clock().now()
            )
        })
        .collect();
    Oracle { adv, finals, events }
}

/// Tenant index of a protocol name `tNNNNN` at the start of `field`.
fn tenant_index(field: &[u8]) -> Option<usize> {
    let name = field.split(|&b| b == b' ').next()?;
    std::str::from_utf8(name.strip_prefix(b"t")?).ok()?.parse().ok()
}

/// What the server's output amounted to.
#[derive(Default)]
struct Checked {
    /// Events answered correctly.
    ok_events: u64,
    /// Σ simulated stall the server reported, ms.
    stall_ms: f64,
    /// References the server reported as misses.
    misses: u64,
    /// Bytes of `ADV` lines.
    adv_bytes: u64,
    /// The `BYE` line's fields.
    bye: BTreeMap<String, String>,
    /// Failed checks other than wrong or missing advice.
    problems: Vec<String>,
}

impl Checked {
    fn bye_u64(&self, key: &str) -> Option<u64> {
        self.bye.get(key)?.parse().ok()
    }

    /// Require `BYE` field `key` to equal `want`.
    fn expect_bye(&mut self, key: &str, want: u64) {
        if self.bye_u64(key) != Some(want) {
            let got = self.bye.get(key).cloned();
            self.problems.push(format!("BYE {key}={got:?}, expected {want}"));
        }
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_ascii_whitespace().find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
}

/// Check a server's whole stdout against the oracle.
///
/// Live runs (`recovered == false`): every `EV` must be answered by the
/// byte-exact `ADV` line, per tenant in order; a `SHED`, `REJECT`, `ERR`
/// or missing line leaves its event unanswered, hence failed. Recovery
/// runs print no advice; there a tenant's events count as correct when
/// its `FINAL` line reports the oracle's end state. Either way a wrong
/// `FINAL` fails all the tenant's events.
fn check_output(out: &[u8], oracle: &Oracle, recovered: bool) -> Checked {
    let tenants = oracle.events.len();
    let mut c = Checked::default();
    let mut cursor = vec![0usize; tenants];
    let mut matched = vec![0u64; tenants];
    let mut final_ok = vec![false; tenants];
    let mut stray = 0u64;
    let want_recovered = if recovered { "replayed" } else { "none" };
    for line in out.split(|&b| b == b'\n') {
        if let Some(rest) = line.strip_prefix(b"ADV ") {
            c.adv_bytes += line.len() as u64 + 1;
            let Some(i) = tenant_index(rest).filter(|&i| i < tenants) else {
                stray += 1;
                continue;
            };
            let want = &oracle.adv[i][cursor[i]..];
            if want.len() > line.len() && want[line.len()] == b'\n' && &want[..line.len()] == line {
                matched[i] += 1;
                cursor[i] += line.len() + 1;
            } else if let Some(nl) = want.iter().position(|&b| b == b'\n') {
                cursor[i] += nl + 1;
            }
            let mut f = rest.split(|&b| b == b' ').skip(2);
            if f.next() == Some(b"m") {
                c.misses += 1;
            }
            let stall = f.next().and_then(|s| std::str::from_utf8(s.strip_prefix(b"stall=")?).ok());
            c.stall_ms += stall.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
        } else if let Some(rest) = line.strip_prefix(b"FINAL ") {
            let Some(i) = tenant_index(rest).filter(|&i| i < tenants) else {
                stray += 1;
                continue;
            };
            let text = String::from_utf8_lossy(line);
            final_ok[i] = text.starts_with(oracle.finals[i].as_str())
                && field(&text, "recovered") == Some(want_recovered);
            if recovered {
                c.stall_ms += field(&text, "stall_ms").and_then(|s| s.parse().ok()).unwrap_or(0.0);
                c.misses += field(&text, "misses").and_then(|s| s.parse().ok()).unwrap_or(0);
            }
        } else if let Some(rest) = line.strip_prefix(b"BYE ") {
            for f in String::from_utf8_lossy(rest).split_ascii_whitespace() {
                if let Some((k, v)) = f.split_once('=') {
                    c.bye.insert(k.to_string(), v.to_string());
                }
            }
        } else if !line.is_empty() && !line.starts_with(b"OK ") {
            stray += 1;
            if c.problems.len() < 3 {
                c.problems.push(format!("unexpected line {:?}", String::from_utf8_lossy(line)));
            }
        }
    }
    if stray > 0 {
        c.problems.push(format!("{stray} unexpected response lines"));
    }
    let bad_finals = final_ok.iter().filter(|ok| !**ok).count();
    if bad_finals > 0 {
        c.problems.push(format!("{bad_finals} tenants without the expected FINAL line"));
    }
    if c.bye.is_empty() {
        c.problems.push("no BYE line".to_string());
    }
    c.ok_events = (0..tenants)
        .filter(|&i| final_ok[i])
        .map(|i| if recovered { oracle.events[i] } else { matched[i] })
        .sum();
    c
}

// ---------------------------------------------------------------------------
// Running the server
// ---------------------------------------------------------------------------

fn io_err(what: &str, path: &Path, e: std::io::Error) -> String {
    format!("{what} {}: {e}", path.display())
}

fn read_file(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| io_err("reading", path, e))
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| io_err("writing", path, e))
}

/// Remove `dir` if present and create it empty.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| io_err("clearing", dir, e))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| io_err("creating", dir, e))
}

/// The regular files directly under `dir`.
fn files_in(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| io_err("listing", dir, e))? {
        let path = entry.map_err(|e| io_err("listing", dir, e))?.path();
        if path.is_file() {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// Copy the (flat) WAL directory `from` to a fresh `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fresh_dir(to)?;
    for file in files_in(from)? {
        let dst = to.join(file.file_name().expect("listed files have names"));
        std::fs::copy(&file, &dst).map_err(|e| io_err("copying", &file, e))?;
    }
    Ok(())
}

/// Bytes in the files directly under `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for file in files_in(dir)? {
        total += file.metadata().map_err(|e| io_err("sizing", &file, e))?.len();
    }
    Ok(total)
}

/// Everything a `serve-*` run works from.
struct Prepared {
    dir: PathBuf,
    script: Script,
    script_path: PathBuf,
    ops: Ops,
    oracle: Oracle,
    /// `T2`: stdout of the `--threads 1` reference run.
    reference: Option<Vec<u8>>,
    /// `Recover`: the log directory recovery replays, and what writing
    /// it cost.
    wal_master: Option<(PathBuf, ChildRun, Checked)>,
}

impl Prepared {
    fn events(&self) -> u64 {
        self.ops.ops.len() as u64
    }
}

/// A `pfserve` command with its stderr appended to the scratch log.
fn pfserve(ctx: &Ctx, dir: &Path) -> Result<Command, String> {
    let log = dir.join("pfserve.stderr");
    let stderr = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
        .map_err(|e| io_err("opening", &log, e))?;
    let mut cmd = Command::new(ctx.bin_dir.join("pfserve"));
    cmd.stderr(stderr);
    Ok(cmd)
}

/// Run `cmd` with `stdin` and `stdout` as files; a non-zero exit is an
/// error, not a measurement.
fn run_to_file(mut cmd: Command, stdin: &Path, stdout: &Path) -> Result<ChildRun, String> {
    cmd.stdin(File::open(stdin).map_err(|e| io_err("opening", stdin, e))?);
    cmd.stdout(File::create(stdout).map_err(|e| io_err("creating", stdout, e))?);
    let run = proc::run_timed(&mut cmd).map_err(|e| format!("running {cmd:?}: {e}"))?;
    if !run.status.success() {
        return Err(format!("{cmd:?} exited with {}", run.status));
    }
    Ok(run)
}

/// The flags of a live (non-recovery) server; `wal` names the log
/// directory when the write-ahead log is on.
fn live_cmd(ctx: &Ctx, dir: &Path, threads: &str, wal: Option<&Path>) -> Result<Command, String> {
    let mut cmd = pfserve(ctx, dir)?;
    cmd.args(["--threads", threads, "--batch", &BATCH.to_string(), "--quiet"]);
    if let Some(wal) = wal {
        fresh_dir(wal)?;
        cmd.arg("--wal-dir").arg(wal);
        cmd.args(["--fsync", "never", "--checkpoint-every", CHECKPOINT_EVERY]);
    }
    Ok(cmd)
}

/// One live run of the whole script, checked.
fn live_run(
    ctx: &Ctx,
    p: &Prepared,
    threads: &str,
    wal: Option<&Path>,
    extra: &[&str],
) -> Result<(ChildRun, Checked, Vec<u8>), String> {
    let mut cmd = live_cmd(ctx, &p.dir, threads, wal)?;
    cmd.args(extra);
    let out_path = p.dir.join("stdout");
    let run = run_to_file(cmd, &p.script_path, &out_path)?;
    let out = read_file(&out_path)?;
    let mut c = check_output(&out, &p.oracle, false);
    c.expect_bye("events", p.events());
    for zero in ["sheds", "rejects", "parse_errors", "quarantined"] {
        c.expect_bye(zero, 0);
    }
    Ok((run, c, out))
}

/// One recovery run over a copy of `master`, checked.
fn recover_run(ctx: &Ctx, p: &Prepared, master: &Path) -> Result<(ChildRun, Checked), String> {
    let copy = p.dir.join("wal-recover");
    copy_dir(master, &copy)?;
    let shutdown = p.dir.join("shutdown");
    write_file(&shutdown, b"SHUTDOWN\n")?;
    let mut cmd = pfserve(ctx, &p.dir)?;
    cmd.arg("--recover").arg(&copy).args(["--fsync", "never", "--quiet"]);
    let out_path = p.dir.join("stdout");
    let run = run_to_file(cmd, &shutdown, &out_path)?;
    let mut c = check_output(&read_file(&out_path)?, &p.oracle, true);
    c.expect_bye("replayed_events", p.events());
    c.expect_bye("recovered_replayed", p.oracle.events.len() as u64);
    c.expect_bye("recovered_degraded", 0);
    c.expect_bye("recovered_quarantined", 0);
    Ok((run, c))
}

/// Set-up: generate and pin the script, write it out, compute the
/// oracle, and warm the host by running the server once — on a
/// sixteenth of the script, or in full where the run is needed anyway
/// (`T2`'s reference output, `Recover`'s logs).
fn prepare(ctx: &Ctx, variant: Variant) -> Result<Prepared, String> {
    let dir = ctx.out_dir.join(&ctx.workload);
    fresh_dir(&dir)?;
    let shape = ScriptShape {
        tenants: TENANTS,
        events_per_tenant: ctx.scaled(EVENTS_PER_TENANT, 16),
        slice: SLICE,
        phase_len: PHASE_LEN,
        close: !variant.wal(),
    };
    let script = inputs::serve_script(&shape, ctx.seed);
    if ctx.full_scale() && ctx.seed == inputs::DEFAULT_SEED {
        inputs::check_pin(&ctx.workload, inputs::fingerprint_script(&script))?;
    }
    let script_path = dir.join("script");
    write_file(&script_path, script.text.as_bytes())?;
    let ops = Ops {
        tenants: TENANTS,
        cache_blocks: CACHE_BLOCKS,
        node_limit: NODE_LIMIT,
        chunk: BATCH,
        ops: script.ops.clone(),
    };
    let oracle = build_oracle(&ops);
    let mut p =
        Prepared { dir, script, script_path, ops, oracle, reference: None, wal_master: None };

    match variant {
        Variant::Mux | Variant::Wal => {
            let prefix: String =
                p.script.text.split_inclusive('\n').take(p.script.lines / 16).collect();
            let warm = p.dir.join("warmup");
            write_file(&warm, prefix.as_bytes())?;
            let wal = p.dir.join("wal");
            let cmd = live_cmd(ctx, &p.dir, "1", variant.wal().then_some(wal.as_path()))?;
            run_to_file(cmd, &warm, &p.dir.join("stdout"))?;
        }
        Variant::T2 => {
            let (_, c, out) = live_run(ctx, &p, "1", None, &[])?;
            if c.ok_events != p.events() || !c.problems.is_empty() {
                return Err(format!("the --threads 1 reference run failed: {:?}", c.problems));
            }
            p.reference = Some(out);
        }
        Variant::Recover => {
            let master = p.dir.join("wal-master");
            let (run, c, _) = live_run(ctx, &p, "1", Some(&master), &[])?;
            if c.ok_events != p.events() || !c.problems.is_empty() {
                return Err(format!("the run that writes the logs failed: {:?}", c.problems));
            }
            p.wal_master = Some((master, run, c));
        }
    }
    Ok(p)
}

/// One timed repetition of `variant`.
fn one_rep(ctx: &Ctx, variant: Variant, p: &Prepared) -> Result<(ChildRun, Checked), String> {
    if let Some((master, _, _)) = &p.wal_master {
        return recover_run(ctx, p, master);
    }
    let wal = p.dir.join("wal");
    let (run, mut c, out) =
        live_run(ctx, p, variant.threads(), variant.wal().then_some(wal.as_path()), &[])?;
    if p.reference.as_ref().is_some_and(|r| *r != out) {
        c.problems.push("stdout differs from the --threads 1 run".to_string());
    }
    Ok((run, c))
}

/// Run a `serve-*` workload.
pub fn run(ctx: &Ctx, cal: &mut Calibrator, variant: Variant) -> Result<RunResult, String> {
    if ctx.trace {
        traced(ctx, cal, variant)
    } else {
        end_to_end(ctx, cal, variant)
    }
}

/// Fold the repetitions' checks into `result`: an event without its
/// exact answer fails; a repetition with a structural problem fails all
/// its events.
fn account(result: &mut RunResult, events: u64, reps: &[(ChildRun, Checked)]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, (_, c)) in reps.iter().enumerate() {
        result.attempted += events;
        result.failed +=
            if c.problems.is_empty() { events - c.ok_events.min(events) } else { events };
        problems.extend(c.problems.iter().map(|p| format!("rep {i}: {p}")));
    }
    problems
}

fn end_to_end(ctx: &Ctx, cal: &mut Calibrator, variant: Variant) -> Result<RunResult, String> {
    let (p, setup_s) = timed_setups(cal, variant.setups(), || prepare(ctx, variant))?;
    let events = p.events();
    let scaled = calibrated_reps(cal, ctx.seconds, MIN_REPS, |_| one_rep(ctx, variant, &p))?;
    let (reps, scales): (Vec<(ChildRun, Checked)>, Vec<f64>) = scaled.into_iter().unzip();

    let mut result = RunResult::zeroed(&END_TO_END);
    let problems = account(&mut result, events, &reps);
    let ns: Vec<(f64, f64)> = reps
        .iter()
        .zip(&scales)
        .map(|((r, _), scale)| (r.wall_ns as f64 / events as f64, *scale))
        .collect();
    let rss: Vec<f64> = reps.iter().map(|(r, _)| r.peak_rss_mb()).collect();
    let (summary, ns_per_op) = RepSummary::of(&ns, cal.median_ns_per_load());
    result.reps = summary;
    let first = &reps[0].1;
    result.set("ns_per_op", ns_per_op);
    result.set("model_ms_per_op", first.stall_ms / events as f64);
    result.set("miss_pct", 100.0 * first.misses as f64 / events as f64);
    result.set("peak_rss_mb", median(&rss));
    result.set("setup_s", setup_s);
    Ok(conclude(result, &problems))
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// Drive the server over pipes in lock step: send exactly one batch of
/// lines, wait until that many response lines are back, repeat. Every
/// request line draws exactly one response line, so counting suffices;
/// the last window closes stdin and reads the drain to the end. Returns
/// the parent span (one child span per window), the child's run, and its
/// whole output.
fn closed_loop(
    t: &mut Tracer,
    mut cmd: Command,
    script: &Script,
) -> Result<(crate::spans::SpanId, ChildRun, Vec<u8>), String> {
    cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
    let started = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawning {cmd:?}: {e}"))?;
    let mut stdin = child.stdin.take();
    let mut stdout = BufReader::with_capacity(1 << 16, child.stdout.take().expect("piped"));
    let mut out = Vec::with_capacity(script.text.len() * 2);
    let parent = t.open("serve.closed_loop", None, 0);

    let text = script.text.as_bytes();
    let mut at = 0;
    while at < text.len() {
        let mut end = at;
        let mut lines = 0;
        while lines < BATCH && end < text.len() {
            end += text[end..].iter().position(|&b| b == b'\n').expect("newline-terminated") + 1;
            lines += 1;
        }
        let last = end == text.len();
        let id = t.open("serve.closed_loop/window", Some(parent), 0);
        let pipe = stdin.as_mut().expect("stdin stays open until the last window");
        pipe.write_all(&text[at..end]).and_then(|()| pipe.flush()).map_err(|e| format!("{e}"))?;
        if last {
            drop(stdin.take());
            stdout.read_to_end(&mut out).map_err(|e| format!("reading the drain: {e}"))?;
        } else {
            for _ in 0..lines {
                let n = stdout.read_until(b'\n', &mut out).map_err(|e| format!("{e}"))?;
                if n == 0 {
                    return Err("the server closed its output mid-script".to_string());
                }
            }
        }
        t.close(id, lines as u64);
        at = end;
    }
    let run = proc::wait_timed(child, started).map_err(|e| format!("waiting: {e}"))?;
    t.close(parent, script.lines as u64);
    if !run.status.success() {
        return Err(format!("{cmd:?} exited with {}", run.status));
    }
    Ok((parent, run, out))
}

/// `serve`: `parse_line` over every script line.
fn parse_isolate(t: &mut Tracer, lines: &[&str]) -> f64 {
    let parent = t.open("serve.parse", None, 0);
    for chunk in lines.chunks(BATCH) {
        let id = t.open("serve.parse/chunk", Some(parent), 0);
        for line in chunk {
            let _ = black_box(parse_line(line));
        }
        t.close(id, chunk.len() as u64);
    }
    t.close(parent, lines.len() as u64);
    layers::ns_per_op(t, parent)
}

/// `serve`: `TenantState::{new,process_event}` in script order — the
/// per-event step with advice rendering, no service around it.
fn tenant_step_isolate(t: &mut Tracer, ops: &Ops) -> Result<f64, String> {
    let spec = TenantSpec::from_opts(&[], &TenantDefaults::default())
        .map_err(|e| format!("default tenant spec rejected: {e:?}"))?;
    let mut tenants = Vec::with_capacity(ops.tenants);
    for i in 0..ops.tenants {
        let state = TenantState::new(&inputs::tenant_name(i), spec.clone(), None)
            .map_err(|e| format!("creating a tenant: {e}"))?;
        tenants.push(state);
    }
    let parent = t.open("serve.tenant_step", None, 0);
    layers::replay(t, parent, 0, ops, |chunk| {
        for op in chunk {
            black_box(tenants[op.tenant as usize].process_event(op.block));
        }
    });
    t.close(parent, ops.ops.len() as u64);
    Ok(layers::ns_per_op(t, parent))
}

/// `serve`: in-process `Service::process_batch` over the script in
/// batches, one pool thread. Returns Σ ns over the batches.
fn process_batch_isolate(t: &mut Tracer, lines: &[&str]) -> Result<u64, String> {
    prefetch_pool::set_threads(1);
    let mut service =
        Service::new(ServeOpts::default()).map_err(|e| format!("creating a service: {e}"))?;
    let parent = t.open("serve.process_batch", None, 0);
    for chunk in lines.chunks(BATCH) {
        // Owning the lines is the listener's cost, not the batch core's.
        let batch: Vec<(u64, String)> = chunk.iter().map(|l| (0, l.to_string())).collect();
        let id = t.open("serve.process_batch/chunk", Some(parent), 0);
        black_box(service.process_batch(&batch));
        t.close(id, chunk.len() as u64);
    }
    t.close(parent, lines.len() as u64);
    black_box(service.drain());
    Ok(t.child_totals(parent).0)
}

/// `pool`: ns per `run_indexed` dispatch of one batch's worth of
/// tenants (no-op items) at `threads` workers.
fn pool_isolate(t: &mut Tracer, threads: usize) -> f64 {
    const CALLS: u64 = 2_000;
    prefetch_pool::set_threads(threads);
    let id = t.open(&format!("pool.dispatch.t{threads}"), None, 0);
    for _ in 0..CALLS {
        black_box(prefetch_pool::run_indexed(BATCH / SLICE, |i| i));
    }
    t.close(id, CALLS);
    prefetch_pool::set_threads(1);
    t.duration_ns(id) as f64 / CALLS as f64
}

/// `wal`: record encoding, then appends round-robin over one log per
/// tenant, in script order. Sets the three `wal.*_per_record` isolates.
fn wal_isolates(t: &mut Tracer, p: &Prepared, result: &mut RunResult) -> Result<(), String> {
    let parent = t.open("wal.encode", None, 0);
    layers::replay(t, parent, 0, &p.ops, |chunk| {
        for op in chunk {
            black_box(WalRecord::Event(op.block).encode());
        }
    });
    t.close(parent, p.events());
    result.set("wal.encode_ns_per_record", layers::ns_per_op(t, parent));

    let dir = p.dir.join("wal-isolate");
    fresh_dir(&dir)?;
    let mut logs = Vec::with_capacity(p.ops.tenants);
    for i in 0..p.ops.tenants {
        let path = dir.join(format!("{}.wal", inputs::tenant_name(i)));
        logs.push(AppendLog::create(&path).map_err(|e| io_err("creating", &path, e))?);
    }
    let parent = t.open("wal.append", None, 0);
    for chunk in p.ops.ops.chunks(p.ops.chunk) {
        let payloads: Vec<Vec<u8>> =
            chunk.iter().map(|op| WalRecord::Event(op.block).encode()).collect();
        let id = t.open("wal.append/chunk", Some(parent), 0);
        for (op, payload) in chunk.iter().zip(&payloads) {
            logs[op.tenant as usize].append(payload).map_err(|e| format!("appending: {e}"))?;
        }
        t.close(id, chunk.len() as u64);
    }
    t.close(parent, p.events());
    result.set("wal.append_ns_per_record", layers::ns_per_op(t, parent));
    let bytes: u64 = logs.iter().map(AppendLog::len).sum();
    result.set("wal.bytes_per_record", bytes as f64 / p.events() as f64);
    Ok(())
}

/// `wal`: `prefetch_wal::scan` over the logs a server run left in `dir`.
fn wal_scan_isolate(t: &mut Tracer, dir: &Path) -> Result<f64, String> {
    let logs: Vec<PathBuf> =
        files_in(dir)?.into_iter().filter(|f| f.extension().is_some_and(|e| e == "wal")).collect();
    let id = t.open("wal.scan", None, 0);
    let mut records = 0;
    for log in &logs {
        let scan = prefetch_wal::scan(log).map_err(|e| io_err("scanning", log, e))?;
        if !scan.resumable() {
            return Err(format!("{} scanned as corrupt", log.display()));
        }
        records += scan.records.len() as u64;
    }
    t.close(id, records);
    Ok(t.duration_ns(id) as f64 / records.max(1) as f64)
}

fn traced(ctx: &Ctx, cal: &mut Calibrator, variant: Variant) -> Result<RunResult, String> {
    let mut t = Tracer::new(&ctx.workload);
    let mut result = RunResult::zeroed(&PER_LAYER);
    cal.sample();

    let setup = t.open("setup", None, 0);
    let p = prepare(ctx, variant)?;
    let events = p.events();
    t.close(setup, events);
    let per_event = |ns: u64| ns as f64 / events as f64;
    result.set("trace.gen_ns_per_ref", per_event(p.script.drain_ns));

    // A quarter of the budget goes to untraced repetitions of the
    // workload's own command line; the rest of the run is single passes.
    let reps = timed_reps(ctx.seconds / 4.0, 1, |rep| {
        let (run, c) = one_rep(ctx, variant, &p)?;
        t.record("serve.e2e", None, rep, run.wall_ns, events);
        Ok((run, c))
    })?;
    let e2e = median(&reps.iter().map(|(r, _)| per_event(r.wall_ns)).collect::<Vec<_>>());
    result.set("bench.e2e_ns_per_op", e2e);
    result.set("bench.e2e_reps", reps.len() as f64);
    let mut problems = account(&mut result, events, &reps);
    let wal_dir = p.dir.join("wal");

    // The live command line this variant is built on, and its cost:
    // the workload itself, or for the WAL pair one plain run of the same
    // script, which also prices the log (`serve.wal_overhead_pct`).
    let live_ns = if variant.wal() {
        let (run, c, _) = live_run(ctx, &p, "1", None, &[])?;
        problems.extend(account(&mut result, events, &[(run, c)]));
        per_event(run.wall_ns)
    } else {
        e2e
    };

    // Lock-step pass: per-batch latency windows. This is the harness's
    // traced way of driving the server, so its extra cost over a
    // file-fed run is the tracing overhead.
    if variant != Variant::Recover {
        let cmd =
            live_cmd(ctx, &p.dir, variant.threads(), variant.wal().then_some(wal_dir.as_path()))?;
        let (parent, run, out) = closed_loop(&mut t, cmd, &p.script)?;
        let mut c = check_output(&out, &p.oracle, false);
        c.expect_bye("events", events);
        let mut windows: Vec<f64> =
            t.children(parent).map(|s| (s.end_ns - s.start_ns) as f64 / 1e3).collect();
        windows.pop(); // the last window is the drain, not a batch
        if !windows.is_empty() {
            let (p99, supported) = percentile_or_max(&windows, 99.0);
            if !supported {
                eprintln!(
                    "pfbench: {} windows cannot support a p99; reporting the max",
                    windows.len()
                );
            }
            result.set("serve.batch_p50_us", median(&windows));
            result.set("serve.batch_p99_us", p99);
            result.set("serve.batch_max_us", windows.iter().copied().fold(f64::MIN, f64::max));
            result.set("serve.batch_windows", windows.len() as f64);
        }
        let base = if variant.wal() { e2e } else { live_ns };
        result.set("bench.trace_overhead_pct", overhead_pct(per_event(run.wall_ns), base));
        problems.extend(account(&mut result, events, &[(run, c)]));
    }

    let first = &reps[0].1;
    match variant {
        Variant::Mux | Variant::T2 => {
            let metrics_out = p.dir.join("metrics.jsonl");
            let flag = metrics_out.to_string_lossy().into_owned();
            let (run, c, _) =
                live_run(ctx, &p, variant.threads(), None, &["--metrics-out", &flag])?;
            result.set("serve.metrics_overhead_pct", overhead_pct(per_event(run.wall_ns), e2e));
            problems.extend(account(&mut result, events, &[(run, c)]));
            let other = if variant == Variant::Mux { "2" } else { "1" };
            let (run, c, _) = live_run(ctx, &p, other, None, &[])?;
            let (t1, t2) = if variant == Variant::Mux {
                (e2e, per_event(run.wall_ns))
            } else {
                (per_event(run.wall_ns), e2e)
            };
            result.set("pool.t2_speedup", t1 / t2);
            problems.extend(account(&mut result, events, &[(run, c)]));
        }
        Variant::Wal | Variant::Recover => {
            let (write_ns, recover_ns, written) = match &p.wal_master {
                Some((_, run, c)) => (per_event(run.wall_ns), e2e, c),
                None => {
                    let (run, c) = recover_run(ctx, &p, &wal_dir)?;
                    let ns = per_event(run.wall_ns);
                    problems.extend(account(&mut result, events, &[(run, c)]));
                    (e2e, ns, first)
                }
            };
            let logs = p.wal_master.as_ref().map_or(wal_dir.as_path(), |(m, _, _)| m.as_path());
            result.set("wal.write_ns_per_event", write_ns);
            result.set("wal.recover_ns_per_event", recover_ns);
            result.set("serve.wal_overhead_pct", overhead_pct(write_ns, live_ns));
            result.set("wal.disk_bytes_per_event", dir_bytes(logs)? as f64 / events as f64);
            for (metric, key) in [
                ("wal.appends", "wal_appends"),
                ("wal.fsyncs", "wal_fsyncs"),
                ("wal.checkpoints", "checkpoints"),
            ] {
                result.set(metric, written.bye_u64(key).unwrap_or(0) as f64);
            }
            result.set("wal.scan_ns_per_record", wal_scan_isolate(&mut t, logs)?);
            wal_isolates(&mut t, &p, &mut result)?;
        }
    }
    let live = if variant == Variant::Recover {
        p.wal_master.as_ref().map(|(_, _, c)| c).expect("recover keeps its write run")
    } else {
        first
    };
    result.set("serve.adv_bytes_per_event", live.adv_bytes as f64 / events as f64);
    result.set("serve.sheds", live.bye_u64("sheds").unwrap_or(0) as f64);
    result.set("serve.rejects", live.bye_u64("rejects").unwrap_or(0) as f64);

    cal.sample();
    // In-process isolates of the service layers.
    let lines: Vec<&str> = p.script.text.lines().collect();
    let parse_ns = parse_isolate(&mut t, &lines) * lines.len() as f64 / events as f64;
    let step_ns = tenant_step_isolate(&mut t, &p.ops)?;
    let batch_ns = per_event(process_batch_isolate(&mut t, &lines)?);
    result.set("serve.parse_ns_per_line", parse_ns * events as f64 / lines.len() as f64);
    result.set("serve.tenant_step_ns_per_event", step_ns);
    result.set("serve.process_batch_ns_per_event", batch_ns);
    result.set("serve.dispatch_residual_ns_per_event", batch_ns - step_ns - parse_ns);
    result.set("serve.listener_residual_ns_per_event", live_ns - batch_ns);
    if variant.wal() {
        let scan = result.get("wal.scan_ns_per_record").unwrap_or(0.0);
        let recover = result.get("wal.recover_ns_per_event").unwrap_or(0.0);
        result.set("serve.recover_residual_ns_per_event", recover - scan - step_ns);
    }
    result.set("pool.dispatch_ns_per_batch.t1", pool_isolate(&mut t, 1));
    result.set("pool.dispatch_ns_per_batch.t2", pool_isolate(&mut t, 2));

    // The model layers under the service, driven the way it drives them:
    // one small bounded structure per tenant, interleaved.
    let (step, counters) =
        layers::sim_step(&mut t, &p.ops, POLICY, false, "sim.step.tree-next-limit", 0);
    let sim_step_ns = layers::ns_per_op(&t, step);
    layers::model_layers(&mut t, &p.ops, POLICY, (sim_step_ns, counters), &mut result);
    result.set("bench.layers_sum_ns_per_op", e2e);
    cal.sample();
    result.set("bench.ns_per_load", cal.median_ns_per_load());
    eprintln!(
        "pfbench: {}: end-to-end {e2e:.1} ns/event; live command {live_ns:.1} = listener {:.1} + \
         dispatch {:.1} + parse {parse_ns:.1} + tenant step {step_ns:.1}",
        ctx.workload,
        live_ns - batch_ns,
        batch_ns - step_ns - parse_ns,
    );

    result.set("bench.build_s", ctx.build_s);
    result.set("bench.span_count", t.len() as f64);
    ctx.write_spans(&t)?;
    Ok(conclude(result, &problems))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Op;

    fn tiny() -> (Ops, Oracle) {
        let shape =
            ScriptShape { tenants: 3, events_per_tenant: 40, slice: 8, phase_len: 10, close: true };
        let script = inputs::serve_script(&shape, 11);
        let ops = Ops {
            tenants: 3,
            cache_blocks: CACHE_BLOCKS,
            node_limit: NODE_LIMIT,
            chunk: 16,
            ops: script.ops,
        };
        let oracle = build_oracle(&ops);
        (ops, oracle)
    }

    /// The output a correct server gives for `ops`, produced through the
    /// serve crate's own `TenantState`.
    fn served(ops: &Ops) -> String {
        let spec = TenantSpec::from_opts(&[], &TenantDefaults::default()).unwrap();
        let mut tenants: Vec<TenantState> = (0..ops.tenants)
            .map(|i| TenantState::new(&inputs::tenant_name(i), spec.clone(), None).unwrap())
            .collect();
        let mut out = String::new();
        for i in 0..ops.tenants {
            out.push_str(&format!("OK open {}\n", inputs::tenant_name(i)));
        }
        for Op { tenant, block } in &ops.ops {
            out.push_str(&tenants[*tenant as usize].process_event(*block));
            out.push('\n');
        }
        for tenant in &mut tenants {
            out.push_str(&tenant.final_line());
            out.push_str(" queue_hwm=8 rejects=none\n");
        }
        out.push_str("OK shutdown\nBYE tenants=3 events=120 sheds=0 rejects=0\n");
        out
    }

    #[test]
    fn oracle_matches_the_serve_crates_own_rendering() {
        let (ops, oracle) = tiny();
        let out = served(&ops);
        let mut c = check_output(out.as_bytes(), &oracle, false);
        assert_eq!(c.problems, Vec::<String>::new());
        assert_eq!(c.ok_events, 120);
        c.expect_bye("events", 120);
        c.expect_bye("sheds", 0);
        assert!(c.problems.is_empty());
        assert!(c.stall_ms > 0.0 && c.misses > 0 && c.adv_bytes > 0);
        c.expect_bye("events", 121);
        assert_eq!(c.problems.len(), 1);
    }

    #[test]
    fn wrong_missing_and_refused_answers_fail_their_events() {
        let (ops, oracle) = tiny();
        let good = served(&ops);
        // One altered advice line fails exactly one event.
        let victim = good.lines().find(|l| l.starts_with("ADV t00001 7 ")).unwrap();
        let altered = good.replace(victim, &format!("{victim}9"));
        assert_eq!(check_output(altered.as_bytes(), &oracle, false).ok_events, 119);
        // A dropped line fails one event and leaves the tenant's later
        // answers one behind the oracle: they fail too.
        let dropped = good.replace(&format!("{victim}\n"), "");
        assert!(check_output(dropped.as_bytes(), &oracle, false).ok_events < 119);
        // A SHED in place of advice is an unexpected line and a failed event.
        let shed = good.replace(victim, "SHED t00001 queue-full cap=1");
        let c = check_output(shed.as_bytes(), &oracle, false);
        assert!(c.ok_events < 120);
        assert!(c.problems.iter().any(|p| p.contains("unexpected")));
        // A wrong FINAL fails all of its tenant's events.
        let bad_final = good.replace("FINAL t00002 events=40", "FINAL t00002 events=41");
        let c = check_output(bad_final.as_bytes(), &oracle, false);
        assert_eq!(c.ok_events, 80);
        assert!(c.problems.iter().any(|p| p.contains("FINAL")));
        // No BYE is a structural problem.
        let no_bye = good.replace("BYE ", "EYB ");
        assert!(check_output(no_bye.as_bytes(), &oracle, false)
            .problems
            .iter()
            .any(|p| p.contains("no BYE")));
    }

    #[test]
    fn recovery_output_is_judged_by_final_lines() {
        let (ops, oracle) = tiny();
        let finals: String = served(&ops)
            .lines()
            .filter(|l| l.starts_with("FINAL ") || l.starts_with("BYE "))
            .map(|l| format!("{}\n", l.replace("recovered=none", "recovered=replayed")))
            .collect();
        let c = check_output(finals.as_bytes(), &oracle, true);
        assert_eq!(c.problems, Vec::<String>::new());
        assert_eq!(c.ok_events, 120);
        assert!(c.stall_ms > 0.0 && c.misses > 0);
        // The same lines are wrong for a live run (and vice versa).
        assert_eq!(check_output(finals.as_bytes(), &oracle, false).ok_events, 0);
    }
}
