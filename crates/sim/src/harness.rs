//! Resilient sweep orchestration: panic isolation, deadlines, retries,
//! and crash-safe resume.
//!
//! [`run_cells_checkpointed`] is the crate's one sweep (with
//! [`HarnessOpts::default`], a plain parallel one). Paper-scale grids run
//! hundreds of cells over hours of wall-clock and must not be as fragile
//! as their weakest cell, so each cell is its own fault domain:
//!
//! * a panicking cell (simulator invariant violation, policy bug) is
//!   caught with [`std::panic::catch_unwind`] and reported as
//!   [`CellStatus::Failed`] while its siblings run to completion;
//! * a cell exceeding the per-cell wall-clock deadline is cut off
//!   cooperatively by [`DeadlineGuard`] and reported as
//!   [`CellStatus::TimedOut`];
//! * an invalid configuration is [`CellStatus::Skipped`] without burning
//!   a retry;
//! * transient failures are retried up to [`HarnessOpts::max_attempts`]
//!   times with exponential backoff;
//! * completed cells are journaled through a
//!   [`crate::checkpoint::CheckpointJournal`], so a killed run resumes
//!   where it stopped and reproduces the full grid bit-identically.
//!
//! The only hard error is [`SweepError::BadTraceIndex`] — a malformed
//! cell list is a caller bug, detected up front before any work runs.
//!
//! [`run_source_guarded`] is the single-run counterpart (`pfsim`); both
//! run [`crate::runner`]'s one run body inside [`prefetch_pool::catch_quiet`].

use crate::checkpoint::{cell_fingerprint, CheckpointJournal, JournalEntry};
use crate::config::{SimConfig, SimConfigError};
use crate::observer::{SimEvent, SimObserver};
use crate::runner::{run_body, SimResult};
use crate::sweep::SweepCell;
use prefetch_telemetry::{log as tlog, PhaseTimes};
use prefetch_trace::{Trace, TraceSource};
use prefetch_tree::PrefetchTree;
use prefetch_wal::Tail;
use std::any::Any;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/// Why a sweep — or one of its cells — could not produce a result.
#[derive(Clone, Debug, PartialEq)]
pub enum SweepError {
    /// A cell named a trace index outside the trace list. Caller bug;
    /// detected before any cell runs (the sweep-level hard error).
    BadTraceIndex {
        /// The offending index.
        index: usize,
        /// Length of the trace list.
        traces: usize,
    },
    /// The cell's configuration failed [`SimConfig::validate`].
    InvalidConfig(SimConfigError),
    /// The cell's simulation panicked (simulator or policy bug).
    Panicked {
        /// Rendered panic payload.
        message: String,
    },
    /// The cell exceeded its per-cell wall-clock deadline.
    DeadlineExceeded {
        /// The deadline it exceeded, in milliseconds.
        limit_ms: u64,
    },
    /// The cell's trace source failed (I/O error, corrupt stream).
    TraceIo {
        /// Rendered source error.
        message: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::BadTraceIndex { index, traces } => {
                write!(f, "trace index {index} out of range (sweep has {traces} traces)")
            }
            SweepError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            SweepError::Panicked { message } => write!(f, "simulation panicked: {message}"),
            SweepError::DeadlineExceeded { limit_ms } => {
                write!(f, "cell exceeded its {limit_ms} ms deadline")
            }
            SweepError::TraceIo { message } => write!(f, "trace source failed: {message}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Terminal state of one sweep cell.
#[derive(Clone, Debug)]
pub enum CellStatus {
    /// The cell completed (possibly restored from a checkpoint). Boxed:
    /// a result is an order of magnitude larger than any error variant,
    /// and sweeps hold one `CellStatus` per cell.
    Ok(Box<SimResult>),
    /// Every attempt failed; the error of the last attempt.
    Failed {
        /// What the final attempt died of.
        error: SweepError,
    },
    /// Every attempt exceeded the per-cell deadline.
    TimedOut {
        /// The configured deadline in milliseconds.
        limit_ms: u64,
    },
    /// The cell was not attempted (invalid configuration — deterministic,
    /// so retrying would be pointless).
    Skipped {
        /// Why, rendered for reports.
        reason: String,
    },
}

/// One cell's outcome with its execution provenance.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Index of the cell's trace in the sweep's trace list.
    pub trace_index: usize,
    /// The configuration the cell ran.
    pub config: SimConfig,
    /// How the cell ended.
    pub status: CellStatus,
    /// Simulation attempts spent (0 when restored or skipped).
    pub attempts: u32,
    /// Whether the result came from the checkpoint journal instead of a
    /// fresh simulation.
    pub restored: bool,
}

impl CellOutcome {
    /// The completed result, if any.
    pub fn result(&self) -> Option<&SimResult> {
        match &self.status {
            CellStatus::Ok(r) => Some(r.as_ref()),
            _ => None,
        }
    }
}

/// Outcome of a whole resilient sweep: one [`CellOutcome`] per input
/// cell, in input order.
#[derive(Clone, Debug)]
pub struct SweepRun {
    /// Per-cell outcomes, parallel to the input cell list.
    pub cells: Vec<CellOutcome>,
}

impl SweepRun {
    /// The completed cells as plain [`SweepCell`]s (failed, timed-out and
    /// skipped cells are absent — callers render those as `NA`).
    pub fn completed_cells(&self) -> Vec<SweepCell> {
        self.cells
            .iter()
            .filter_map(|c| {
                c.result().map(|r| SweepCell { trace_index: c.trace_index, result: r.clone() })
            })
            .collect()
    }

    /// Whether every cell completed.
    pub fn is_complete(&self) -> bool {
        self.cells.iter().all(|c| c.result().is_some())
    }
}

// ---------------------------------------------------------------------------
// Run log: cross-experiment tally of what went wrong (and what resumed)
// ---------------------------------------------------------------------------

/// Aggregate counters over one or more resilient sweeps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepSummary {
    /// Cells that completed by simulation.
    pub ok: u64,
    /// Cells restored from the checkpoint journal without re-running.
    pub restored: u64,
    /// Cells that failed every attempt.
    pub failed: u64,
    /// Cells that exceeded their deadline on every attempt.
    pub timed_out: u64,
    /// Cells skipped (invalid configuration).
    pub skipped: u64,
    /// Extra attempts spent on retries (attempts beyond the first).
    pub retries: u64,
}

impl SweepSummary {
    /// Cells that produced no result.
    pub fn incomplete(&self) -> u64 {
        self.failed + self.timed_out + self.skipped
    }
}

/// One failed/timed-out/skipped cell, rendered for reports.
#[derive(Clone, Debug)]
pub struct FailureRecord {
    /// Trace name of the cell.
    pub trace: String,
    /// Cell description (policy, cache size).
    pub cell: String,
    /// Rendered error.
    pub error: String,
}

#[derive(Debug, Default)]
struct SweepLogInner {
    summary: SweepSummary,
    failures: Vec<FailureRecord>,
    notes: Vec<String>,
}

/// Shared, thread-safe log that accumulates sweep outcomes across the
/// experiments of one invocation (the `figures` binary reports it at the
/// end and derives its exit code from it).
///
/// Poisoning is deliberately ignored: every access recovers the inner
/// state with `unwrap_or_else(|e| e.into_inner())`. The log only ever
/// appends counters and records, so a panic while a section holds the
/// lock leaves it consistent — and a harness whose whole point is
/// isolating panicking cells must keep logging after a sibling panics
/// instead of cascading `PoisonError` panics through every other cell.
#[derive(Debug, Default)]
pub struct SweepLog {
    inner: Mutex<SweepLogInner>,
}

impl SweepLog {
    /// Fold one sweep's outcomes into the log.
    pub fn absorb(&self, run: &SweepRun, trace_names: &[Arc<str>]) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for cell in &run.cells {
            let trace = trace_names
                .get(cell.trace_index)
                .map_or_else(|| format!("trace#{}", cell.trace_index), |n| n.to_string());
            let describe = |error: String| FailureRecord {
                trace: trace.clone(),
                cell: format!(
                    "{} @ {} blocks",
                    cell.config.policy.name(),
                    cell.config.cache_blocks
                ),
                error,
            };
            inner.summary.retries += u64::from(cell.attempts.saturating_sub(1));
            match &cell.status {
                CellStatus::Ok(_) if cell.restored => inner.summary.restored += 1,
                CellStatus::Ok(_) => inner.summary.ok += 1,
                CellStatus::Failed { error } => {
                    inner.summary.failed += 1;
                    let record = describe(error.to_string());
                    inner.failures.push(record);
                }
                CellStatus::TimedOut { limit_ms } => {
                    inner.summary.timed_out += 1;
                    let record = describe(format!("exceeded {limit_ms} ms deadline"));
                    inner.failures.push(record);
                }
                CellStatus::Skipped { reason } => {
                    inner.summary.skipped += 1;
                    let record = describe(format!("skipped: {reason}"));
                    inner.failures.push(record);
                }
            }
        }
    }

    /// Record an operational note (checkpoint degradation, resume counts).
    pub fn note(&self, message: String) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).notes.push(message);
    }

    /// Snapshot of the counters.
    pub fn summary(&self) -> SweepSummary {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).summary
    }

    /// Snapshot of the per-cell failure records.
    pub fn failures(&self) -> Vec<FailureRecord> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).failures.clone()
    }

    /// Snapshot of the operational notes.
    pub fn notes(&self) -> Vec<String> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).notes.clone()
    }
}

// ---------------------------------------------------------------------------
// Harness options
// ---------------------------------------------------------------------------

/// Knobs of the resilient harness. `Default` is the plain parallel sweep
/// (no checkpointing, no deadline) plus one retry and panic isolation.
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    /// Directory for the checkpoint journal; `None` disables
    /// checkpointing. A journal already present there is resumed from.
    pub checkpoint_dir: Option<PathBuf>,
    /// Per-cell wall-clock deadline in milliseconds; `None` means
    /// unlimited.
    pub deadline_ms: Option<u64>,
    /// Simulation attempts per cell, including the first (≥ 1).
    pub max_attempts: u32,
    /// Shared outcome log (cloned handles append to the same log).
    pub log: Arc<SweepLog>,
}

/// Backoff before a cell's first retry, in ms; doubles per retry.
const RETRY_BACKOFF_MS: u64 = 25;

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            checkpoint_dir: None,
            deadline_ms: None,
            max_attempts: 2,
            log: Arc::new(SweepLog::default()),
        }
    }
}

impl HarnessOpts {
    /// Options with checkpointing into `dir`.
    pub fn checkpointed(dir: impl Into<PathBuf>) -> Self {
        HarnessOpts { checkpoint_dir: Some(dir.into()), ..HarnessOpts::default() }
    }
}

// ---------------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------------

/// Payload thrown by [`DeadlineGuard`]; recognized by `classify_panic` so
/// a deadline cut-off is not misreported as a crash.
struct DeadlinePayload {
    limit_ms: u64,
}

/// The typed [`SweepError`] for what [`prefetch_pool::catch_quiet`] caught:
/// each run has its own panic domain, so a panic (including the deadline
/// payload) never unwinds into — and aborts — the sweep.
fn classify_panic(payload: Box<dyn Any + Send>) -> SweepError {
    match payload.downcast_ref::<DeadlinePayload>() {
        Some(d) => SweepError::DeadlineExceeded { limit_ms: d.limit_ms },
        None => SweepError::Panicked { message: prefetch_pool::panic_message(&*payload) },
    }
}

// ---------------------------------------------------------------------------
// Deadline guard
// ---------------------------------------------------------------------------

/// Cooperative per-cell deadline: an observer that checks the wall clock
/// every [`DeadlineGuard::CHECK_EVERY`] events and aborts the simulation
/// (with a typed payload, caught by the harness) once the budget is
/// spent. Cooperative, so it adds one decrement per event and needs no
/// watcher thread; a cell is cut off within `CHECK_EVERY` events of its
/// deadline rather than at the exact instant.
#[derive(Debug)]
pub struct DeadlineGuard {
    deadline: Option<(Instant, u64)>,
    countdown: u32,
}

impl DeadlineGuard {
    /// Events between clock reads (reading `Instant` per event would
    /// dominate small-cell runtime).
    pub const CHECK_EVERY: u32 = 4096;

    /// A guard enforcing `limit_ms` from now; `None` never fires.
    pub fn new(limit_ms: Option<u64>) -> Self {
        DeadlineGuard {
            deadline: limit_ms.map(|ms| (Instant::now(), ms)),
            countdown: Self::CHECK_EVERY,
        }
    }

    fn check(&mut self) {
        let Some((started, limit_ms)) = self.deadline else { return };
        self.countdown -= 1;
        if self.countdown > 0 {
            return;
        }
        self.countdown = Self::CHECK_EVERY;
        if started.elapsed() >= Duration::from_millis(limit_ms) {
            std::panic::panic_any(DeadlinePayload { limit_ms });
        }
    }
}

impl SimObserver for DeadlineGuard {
    fn on_event(&mut self, _event: &SimEvent<'_>) {
        self.check();
    }
}

// ---------------------------------------------------------------------------
// Guarded execution
// ---------------------------------------------------------------------------

/// Run a streaming source with panic isolation and an optional deadline:
/// the single-run counterpart of the sweep harness, used by `pfsim` to
/// turn every failure mode into a structured exit instead of an abort.
///
/// `extra` is spliced into the event stream after metrics and the
/// deadline guard, so front ends can attach histograms or an event sink
/// without giving up the guard rails. `warm_tree` (restored by the caller
/// from a `pftree-snap/v2` snapshot) is installed into the policy before
/// the first reference, and with `want_tree` the policy's trained tree is
/// returned beside the result so the caller can persist it. A warm tree
/// handed to a treeless policy (e.g. `no-prefetch`) is dropped; the run
/// proceeds cold and the mismatch is logged rather than fatal — the
/// caller asked for that policy.
pub fn run_source_guarded<S: TraceSource>(
    source: &mut S,
    config: &SimConfig,
    deadline_ms: Option<u64>,
    extra: &mut dyn SimObserver,
    warm_tree: Option<PrefetchTree>,
    want_tree: bool,
) -> Result<(SimResult, Option<PrefetchTree>), SweepError> {
    config.validate().map_err(SweepError::InvalidConfig)?;
    let mut guarded = (DeadlineGuard::new(deadline_ms), extra);
    prefetch_pool::catch_quiet(|| {
        run_body(source, config, None, &mut guarded, warm_tree, want_tree)
    })
    .map_err(classify_panic)?
    .map_err(|e| SweepError::TraceIo { message: e.to_string() })
}

fn attempt_cell(
    trace: &Trace,
    name: &Arc<str>,
    config: &SimConfig,
    fingerprint: u64,
    opts: &HarnessOpts,
) -> (Result<SimResult, SweepError>, u32) {
    let mut attempt = 0;
    loop {
        attempt += 1;
        let outcome = prefetch_pool::catch_quiet(|| {
            let mut guard = DeadlineGuard::new(opts.deadline_ms);
            run_body(&mut trace.source(), config, Some(name.clone()), &mut guard, None, false)
                .expect("in-memory sources cannot fail")
        })
        .map_err(classify_panic);
        match outcome {
            Ok((result, _)) => return (Ok(result), attempt),
            Err(error) => {
                if attempt >= opts.max_attempts.max(1) {
                    return (Err(error), attempt);
                }
                // Exponential backoff: in-process failures are
                // deterministic, but the deadline races the machine's
                // load, so give the machine a breather before retrying.
                let backoff = RETRY_BACKOFF_MS.saturating_mul(1 << (attempt - 1).min(16));
                tlog::warn("cell_retry")
                    .str("fp", format!("{fingerprint:016x}"))
                    .u64("attempt", u64::from(attempt))
                    .u64("backoff_ms", backoff)
                    .str("error", error.to_string())
                    .emit();
                std::thread::sleep(Duration::from_millis(backoff));
            }
        }
    }
}

/// Render one cell's terminal state as a structured log record — the
/// JSONL schema downstream parsers grep for (`cell_ok`, `cell_failed`,
/// `cell_timeout`, `cell_skipped`), pinned by the golden-file test.
pub fn cell_status_record(
    fingerprint: u64,
    trace: &str,
    status: &CellStatus,
    attempts: u32,
    restored: bool,
) -> tlog::Record {
    let fp = format!("{fingerprint:016x}");
    match status {
        CellStatus::Ok(result) => tlog::debug("cell_ok")
            .str("fp", fp)
            .str("trace", trace)
            .u64("attempts", u64::from(attempts))
            .bool("restored", restored)
            .u64("refs", result.metrics.refs)
            .f64("elapsed_ms", result.metrics.elapsed_ms),
        CellStatus::Failed { error } => tlog::error("cell_failed")
            .str("fp", fp)
            .str("trace", trace)
            .u64("attempts", u64::from(attempts))
            .str("error", error.to_string()),
        CellStatus::TimedOut { limit_ms } => tlog::warn("cell_timeout")
            .str("fp", fp)
            .str("trace", trace)
            .u64("attempts", u64::from(attempts))
            .u64("limit_ms", *limit_ms),
        CellStatus::Skipped { reason } => {
            tlog::warn("cell_skipped").str("fp", fp).str("trace", trace).str("reason", reason)
        }
    }
}

/// Open the checkpoint journal in `dir`, reporting what it restored. A
/// journal that cannot be opened, or that is damaged past a verified
/// prefix, never costs the sweep: the sweep runs uncheckpointed, or
/// re-runs the cells past the damage — and says so.
fn open_journal(dir: &Path, log: &SweepLog) -> Option<CheckpointJournal> {
    let journal = match CheckpointJournal::open(dir) {
        Ok(journal) => journal,
        Err(e) => {
            tlog::warn("checkpoint_disabled").str("error", e.to_string()).emit();
            log.note(format!("checkpointing disabled: {e}"));
            return None;
        }
    };
    let path = journal.path().display();
    let damage = match journal.tail() {
        Tail::Clean => None,
        Tail::Torn { at, dropped } => {
            Some(("checkpoint_torn", *at, format!("{dropped} trailing bytes of a torn record")))
        }
        Tail::Corrupt { at, reason } => Some(("checkpoint_corrupt", *at, reason.clone())),
    };
    if let Some((event, at, detail)) = damage {
        tlog::warn(event).u64("at", at).str("detail", detail.as_str()).emit();
        log.note(format!("{event}: {path} offset {at}: {detail}; the cells past it re-run"));
    }
    if journal.loaded() > 0 {
        tlog::debug("checkpoint_resume")
            .str("path", path.to_string())
            .u64("cells", journal.loaded() as u64)
            .emit();
        log.note(format!("resumed from {path} with {} journaled cells", journal.loaded()));
    }
    Some(journal)
}

/// What a sweep's pool runners share: the cells, their traces, and how
/// each cell is run and journaled.
struct Sweep {
    traces: Arc<[Trace]>,
    cells: Vec<(usize, SimConfig)>,
    /// One shared name allocation per trace: every cell clones an `Arc`
    /// pointer instead of the name string.
    names: Vec<Arc<str>>,
    journal: Option<CheckpointJournal>,
    opts: HarnessOpts,
}

impl Sweep {
    /// Run (or restore, or skip) cell `i`.
    fn cell(&self, i: usize) -> CellOutcome {
        let (trace_index, config) = self.cells[i];
        let (trace, name, opts) = (&self.traces[trace_index], &self.names[trace_index], &self.opts);
        let journal = self.journal.as_ref();
        let fp = cell_fingerprint(trace, &config);
        let (status, attempts, restored) = if let Some(entry) = journal.and_then(|j| j.lookup(fp)) {
            let result = SimResult {
                config,
                trace: name.clone(),
                metrics: entry.metrics,
                skipped_records: entry.skipped_records,
                phases: PhaseTimes::default(),
            };
            (CellStatus::Ok(Box::new(result)), 0, true)
        } else if let Err(e) = config.validate() {
            (CellStatus::Skipped { reason: e.to_string() }, 0, false)
        } else {
            let (outcome, attempts) = attempt_cell(trace, name, &config, fp, opts);
            let status = match outcome {
                Ok(result) => {
                    let entry = JournalEntry {
                        skipped_records: result.skipped_records,
                        metrics: result.metrics,
                    };
                    if let Some(Err(e)) = journal.map(|j| j.record(fp, entry)) {
                        tlog::warn("checkpoint_write_failed").str("error", e.to_string()).emit();
                        opts.log.note(format!("checkpoint write failed: {e}"));
                    }
                    CellStatus::Ok(Box::new(result))
                }
                Err(SweepError::DeadlineExceeded { limit_ms }) => CellStatus::TimedOut { limit_ms },
                Err(error) => CellStatus::Failed { error },
            };
            (status, attempts, false)
        };
        cell_status_record(fp, name, &status, attempts, restored).emit();
        CellOutcome { trace_index, config, status, attempts, restored }
    }
}

/// Run an explicit list of (trace index, config) cells in parallel,
/// preserving input order in the output: the crate's one sweep.
///
/// The traces come behind an `Arc` because the pool's helpers outlive
/// the call: the sweep hands them a handle instead of a copy.
/// Every cell terminates in one of the four [`CellStatus`] states; the
/// only `Err` is [`SweepError::BadTraceIndex`], raised before any work.
pub fn run_cells_checkpointed(
    traces: &Arc<[Trace]>,
    cells: &[(usize, SimConfig)],
    opts: &HarnessOpts,
) -> Result<SweepRun, SweepError> {
    if let Some(&(index, _)) = cells.iter().find(|&&(ti, _)| ti >= traces.len()) {
        return Err(SweepError::BadTraceIndex { index, traces: traces.len() });
    }
    tlog::debug("sweep_start")
        .u64("cells", cells.len() as u64)
        .u64("traces", traces.len() as u64)
        .bool("checkpointed", opts.checkpoint_dir.is_some())
        .emit();
    let sweep = Arc::new(Sweep {
        traces: Arc::clone(traces),
        cells: cells.to_vec(),
        names: traces.iter().map(|t| Arc::from(t.meta().name.as_str())).collect(),
        journal: opts.checkpoint_dir.as_deref().and_then(|dir| open_journal(dir, &opts.log)),
        opts: opts.clone(),
    });

    let shared = Arc::clone(&sweep);
    let outcomes = prefetch_pool::run_indexed(cells.len(), move |i| shared.cell(i));

    if let Some(Err(e)) = sweep.journal.as_ref().map(CheckpointJournal::flush) {
        tlog::warn("checkpoint_flush_failed").str("error", e.to_string()).emit();
        opts.log.note(format!("checkpoint flush failed: {e}"));
    }
    let run = SweepRun { cells: outcomes };
    opts.log.absorb(&run, &sweep.names);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicySpec;
    use crate::observer::NullObserver;
    use crate::runner::run_simulation;
    use prefetch_trace::synth::TraceKind;
    use std::fs;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("prefetch-harness-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Every (trace × config) combination, trace-major.
    fn grid(traces: &[Trace], configs: &[SimConfig]) -> Vec<(usize, SimConfig)> {
        (0..traces.len()).flat_map(|ti| configs.iter().map(move |c| (ti, *c))).collect()
    }

    #[test]
    fn uncheckpointed_run_matches_the_plain_sweep_bit_for_bit() {
        let traces: Arc<[Trace]> =
            Arc::new([TraceKind::Cad.generate(2000, 1), TraceKind::Snake.generate(2000, 2)]);
        let configs =
            vec![SimConfig::new(64, PolicySpec::NoPrefetch), SimConfig::new(64, PolicySpec::Tree)];
        let cells = grid(&traces, &configs);
        let resilient = run_cells_checkpointed(&traces, &cells, &HarnessOpts::default()).unwrap();
        assert!(resilient.is_complete());
        let completed = resilient.completed_cells();
        assert_eq!(completed.len(), cells.len());
        // The plain sweep is the serial loop over the cell list.
        for (&(ti, config), b) in cells.iter().zip(&completed) {
            assert_eq!(ti, b.trace_index);
            assert_eq!(run_simulation(&traces[ti], &config).metrics, b.result.metrics);
        }
    }

    #[test]
    fn bad_trace_index_is_a_typed_error_before_any_work() {
        let traces: Arc<[Trace]> = Arc::new([TraceKind::Cad.generate(100, 3)]);
        let err = run_cells_checkpointed(
            &traces,
            &[
                (0, SimConfig::new(32, PolicySpec::NoPrefetch)),
                (2, SimConfig::new(32, PolicySpec::Tree)),
            ],
            &HarnessOpts::default(),
        )
        .unwrap_err();
        assert_eq!(err, SweepError::BadTraceIndex { index: 2, traces: 1 });
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn a_panicking_cell_fails_alone_while_siblings_complete() {
        let traces: Arc<[Trace]> = Arc::new([TraceKind::Cad.generate(1500, 5)]);
        let cells = vec![
            (0, SimConfig::new(64, PolicySpec::Tree)),
            (0, SimConfig::new(64, PolicySpec::PanicProbe { after: 100 })),
            (0, SimConfig::new(128, PolicySpec::Tree)),
        ];
        let opts = HarnessOpts { max_attempts: 1, ..HarnessOpts::default() };
        let run = run_cells_checkpointed(&traces, &cells, &opts).unwrap();
        assert_eq!(run.cells.len(), 3);
        assert!(run.cells[0].result().is_some());
        assert!(run.cells[2].result().is_some());
        match &run.cells[1].status {
            CellStatus::Failed { error: SweepError::Panicked { message } } => {
                assert!(message.contains("panic probe"), "unexpected message: {message}");
            }
            other => panic!("expected Failed(Panicked), got {other:?}"),
        }
        assert_eq!(opts.log.summary().ok, 2);
        assert_eq!(opts.log.summary().failed, 1);
        assert_eq!(opts.log.failures().len(), 1);
    }

    #[test]
    fn persistent_panics_burn_every_attempt() {
        let traces: Arc<[Trace]> = Arc::new([TraceKind::Cad.generate(500, 5)]);
        let cells = vec![(0, SimConfig::new(64, PolicySpec::PanicProbe { after: 1 }))];
        let opts = HarnessOpts { max_attempts: 3, ..HarnessOpts::default() };
        let run = run_cells_checkpointed(&traces, &cells, &opts).unwrap();
        assert_eq!(run.cells[0].attempts, 3);
        assert!(matches!(run.cells[0].status, CellStatus::Failed { .. }));
        assert_eq!(opts.log.summary().retries, 2);
    }

    #[test]
    fn invalid_configs_are_skipped_without_attempts() {
        let traces: Arc<[Trace]> = Arc::new([TraceKind::Cad.generate(500, 5)]);
        // Active faults without disks: fails validation deterministically.
        let bad = SimConfig::new(64, PolicySpec::Tree).with_fault_rate(1, 0.5);
        let run = run_cells_checkpointed(
            &traces,
            &[(0, bad), (0, SimConfig::new(64, PolicySpec::Tree))],
            &HarnessOpts::default(),
        )
        .unwrap();
        assert!(
            matches!(&run.cells[0].status, CellStatus::Skipped { reason } if reason.contains("disk"))
        );
        assert_eq!(run.cells[0].attempts, 0);
        assert!(run.cells[1].result().is_some());
    }

    #[test]
    fn a_one_ms_deadline_times_out_a_large_cell() {
        // 300k references through the tree policy takes well over 1 ms.
        let traces: Arc<[Trace]> = Arc::new([TraceKind::Cad.generate(300_000, 5)]);
        let cells = vec![(0, SimConfig::new(4096, PolicySpec::TreeNextLimit))];
        let opts = HarnessOpts { deadline_ms: Some(1), max_attempts: 1, ..HarnessOpts::default() };
        let run = run_cells_checkpointed(&traces, &cells, &opts).unwrap();
        match run.cells[0].status {
            CellStatus::TimedOut { limit_ms } => assert_eq!(limit_ms, 1),
            ref other => panic!("expected TimedOut, got {other:?}"),
        }
        assert_eq!(opts.log.summary().timed_out, 1);
    }

    #[test]
    fn checkpointed_rerun_restores_instead_of_recomputing() {
        let dir = tmp_dir("restore");
        let traces: Arc<[Trace]> = Arc::new([TraceKind::Sitar.generate(2000, 9)]);
        let configs =
            vec![SimConfig::new(64, PolicySpec::Tree), SimConfig::new(128, PolicySpec::Tree)];
        let cells = grid(&traces, &configs);
        let first =
            run_cells_checkpointed(&traces, &cells, &HarnessOpts::checkpointed(&dir)).unwrap();
        assert!(first.is_complete());
        assert!(first.cells.iter().all(|c| !c.restored));

        let opts = HarnessOpts::checkpointed(&dir);
        let second = run_cells_checkpointed(&traces, &cells, &opts).unwrap();
        assert!(second.is_complete());
        assert!(second.cells.iter().all(|c| c.restored), "second run should restore everything");
        assert_eq!(opts.log.summary().restored, 2);
        for (a, b) in first.completed_cells().iter().zip(&second.completed_cells()) {
            assert_eq!(a.result.metrics, b.result.metrics, "restore must be bit-identical");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_cells_are_not_journaled_and_rerun_on_resume() {
        let dir = tmp_dir("failrerun");
        let traces: Arc<[Trace]> = Arc::new([TraceKind::Cad.generate(800, 4)]);
        let probe = SimConfig::new(64, PolicySpec::PanicProbe { after: 10 });
        let good = SimConfig::new(64, PolicySpec::Tree);
        let opts = HarnessOpts { max_attempts: 1, ..HarnessOpts::checkpointed(&dir) };
        let first = run_cells_checkpointed(&traces, &[(0, probe), (0, good)], &opts).unwrap();
        assert!(matches!(first.cells[0].status, CellStatus::Failed { .. }));
        assert!(first.cells[1].result().is_some());

        // On resume the good cell restores; the failed one is attempted
        // again (and fails again — the probe is deterministic).
        let second = run_cells_checkpointed(&traces, &[(0, probe), (0, good)], &opts).unwrap();
        assert!(!second.cells[0].restored);
        assert!(matches!(second.cells[0].status, CellStatus::Failed { .. }));
        assert!(second.cells[1].restored);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_checkpoint_dir_degrades_to_uncheckpointed() {
        // A file where the directory should be makes the journal unopenable.
        let dir = tmp_dir("degrade");
        fs::create_dir_all(dir.parent().unwrap()).unwrap();
        fs::write(&dir, b"not a directory").unwrap();
        let traces: Arc<[Trace]> = Arc::new([TraceKind::Cad.generate(500, 2)]);
        let opts = HarnessOpts::checkpointed(&dir);
        let run =
            run_cells_checkpointed(&traces, &[(0, SimConfig::new(64, PolicySpec::Tree))], &opts)
                .unwrap();
        assert!(run.is_complete(), "sweep must survive a broken checkpoint dir");
        assert!(
            opts.log.notes().iter().any(|n| n.contains("checkpointing disabled")),
            "degradation must be reported: {:?}",
            opts.log.notes()
        );
        let _ = fs::remove_file(&dir);
    }

    #[test]
    fn sweep_log_survives_a_poisoned_mutex() {
        // A cell that panics while a logging section holds the lock used
        // to poison it for everyone: absorb/note/summary all became
        // `PoisonError` panics, defeating the harness's panic isolation.
        // The log now recovers the inner state, so siblings keep logging.
        let log = Arc::new(SweepLog::default());
        let poisoner = Arc::clone(&log);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("cell panicked while holding the log lock");
        })
        .join();
        assert!(log.inner.is_poisoned(), "test must actually poison the mutex");

        // Every accessor must keep working on the poisoned lock.
        log.note("sibling cell still logs".into());
        let traces: Arc<[Trace]> = Arc::new([TraceKind::Cad.generate(500, 1)]);
        let cells = vec![(0usize, SimConfig::new(32, PolicySpec::NoPrefetch))];
        let opts = HarnessOpts { log: Arc::clone(&log), ..HarnessOpts::default() };
        let run = run_cells_checkpointed(&traces, &cells, &opts).unwrap();
        assert!(run.is_complete());
        assert_eq!(log.summary().ok, 1);
        assert_eq!(log.notes(), vec!["sibling cell still logs".to_string()]);
        assert!(log.failures().is_empty());
        assert_eq!(log.summary().incomplete(), 0);
    }

    #[test]
    fn guarded_source_run_matches_plain_and_reports_panics() {
        let trace = TraceKind::Cad.generate(2000, 3);
        let cfg = SimConfig::new(128, PolicySpec::Tree);
        let guarded = |cfg: &SimConfig| {
            run_source_guarded(&mut trace.source(), cfg, None, &mut NullObserver, None, false)
        };
        let plain = run_simulation(&trace, &cfg);
        let (result, tree) = guarded(&cfg).unwrap();
        assert_eq!(plain.metrics, result.metrics);
        assert!(tree.is_none(), "no tree was asked for");

        let probe = SimConfig::new(128, PolicySpec::PanicProbe { after: 5 });
        assert!(matches!(guarded(&probe).unwrap_err(), SweepError::Panicked { .. }));

        let bad = SimConfig { cache_blocks: 0, ..cfg };
        assert!(matches!(guarded(&bad).unwrap_err(), SweepError::InvalidConfig(_)));
    }
}
