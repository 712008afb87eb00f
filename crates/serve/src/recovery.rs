//! Start-up recovery: rebuild the tenant registry from the WAL directory
//! before the first request is served (`--recover`; the log format and
//! the durability model are in [`crate::wal`]).
//!
//! Recovery runs in two phases over the `.wal` files in name order, one
//! window of [`WINDOW_PER_WORKER`] logs per worker at a time:
//!
//! 1. **Replay, on the pool.** One [`prefetch_pool::run_indexed`] job per
//!    log of the window scans, decodes and classifies it, and for a live
//!    tenant builds and fully replays its [`TenantState`] (or warm-starts
//!    it degraded). A tenant's replay depends only on its own log, so the
//!    jobs share nothing. A job reads files, and writes one: the advice
//!    stream, under a temporary name. It emits nothing; what it would log
//!    travels back with its outcome, and its decoded records are dropped
//!    before it returns, so a worker holds one log at a time.
//! 2. **Apply, serially in name order.** Every side effect happens here,
//!    in the order a one-log-at-a-time loop would produce: admission, the
//!    advice file renamed into place (or deleted on refusal, which leaves
//!    the tenant's old advice untouched), the deferred log lines, the
//!    report, and the registry — so the result is identical at any
//!    `--threads`.
//!
//! Admission runs in phase 2, so a tenant the memory budget refuses has
//! been replayed by then; the window bounds how many such states are alive
//! at once (the window's, never the directory's), and the next window's
//! replay starts only after this one is applied.
//!
//! Recovered tenants enter the registry through the same two doors as
//! live ones — [`Service::register`] for a replayed (or degraded) live
//! state, [`Service::quarantine`] for a log that cannot be trusted or a
//! panic the replay reproduces — so a request cannot tell a recovered
//! tenant from one that never went away, except by the honest
//! `recovered=` marker.

use crate::service::{Service, Slot};
use crate::tenant::{advice_path, TenantSpec, TenantState};
use crate::wal::{
    apply_record, decode_log, LogDir, RecoveryError, RecoveryReport, TenantLog, WalRecord,
};
use prefetch_telemetry::log::{self as tlog, Record};
use prefetch_tree::PrefetchTree;
use prefetch_wal::{AppendLog, Tail};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

impl Service {
    /// Recover tenants from the WAL directory before serving.
    ///
    /// Per tenant log, in name order:
    ///
    /// * ends in `C` → the tenant closed cleanly; its artifacts are
    ///   deleted (the close-time snapshot under `--snapshot-dir`, when
    ///   configured, already carries its tree);
    /// * live, within `--recover-cap-events` → **full replay** through a
    ///   fresh tenant: advice file, counters, and future advice are
    ///   bit-identical to the uninterrupted run (a replayed panic
    ///   re-quarantines, faithfully);
    /// * live, over the cap → **degraded** warm start from the freshest
    ///   readable checkpoint generation (event counters restored from
    ///   the log, simulator cache state lost);
    /// * torn tail → truncated, then one of the above;
    /// * corrupt, malformed, or refused by admission → that one tenant
    ///   is quarantined with a typed [`RecoveryError`]; every other
    ///   tenant recovers normally. Recovery never aborts the service.
    ///
    /// Logs replay on the worker pool (`--threads`); see the module docs
    /// for what runs where.
    pub fn recover(&mut self) -> RecoveryReport {
        let t0 = Instant::now();
        let mut report = RecoveryReport::default();
        let Some(files) = self.wal.as_ref().map(|w| w.files.clone()) else {
            return report;
        };
        let mut logs: Vec<(String, PathBuf)> = match std::fs::read_dir(files.path()) {
            Ok(entries) => entries
                .filter_map(|e| {
                    let path = e.ok()?.path();
                    let name = path.file_name()?.to_str()?.strip_suffix(".wal")?.to_string();
                    Some((name, path))
                })
                .collect(),
            Err(e) => {
                tlog::warn("serve_recovery_listing_failed")
                    .str("dir", files.path().display().to_string())
                    .str("error", e.to_string())
                    .emit();
                return report;
            }
        };
        logs.sort();
        let jobs = Arc::new(Replay {
            logs,
            files,
            advice_dir: self.opts.advice_dir.clone(),
            snapshot_dir: self.opts.snapshot_dir.clone(),
            trace_ring: self.opts.trace_ring,
            cap: self.opts.wal.recover_cap_events,
        });
        let window = WINDOW_PER_WORKER * prefetch_pool::effective_threads();
        for start in (0..jobs.logs.len()).step_by(window) {
            let end = (start + window).min(jobs.logs.len());
            let shared = Arc::clone(&jobs);
            let outcomes = prefetch_pool::run_indexed(end - start, move |i| {
                let (name, path) = &shared.logs[start + i];
                shared.scan_and_replay(name, path)
            });
            for ((name, path), outcome) in jobs.logs[start..end].iter().zip(outcomes) {
                self.apply_recovered(name, path, outcome, &mut report);
            }
        }
        report.elapsed_ms = t0.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
        tlog::info("serve_recovered")
            .u64("replayed", report.replayed)
            .u64("degraded", report.degraded)
            .u64("closed", report.closed)
            .u64("quarantined", report.quarantined)
            .u64("torn_truncated", report.torn_truncated)
            .u64("replayed_events", report.replayed_events)
            .u64("elapsed_ms", report.elapsed_ms)
            .emit();
        self.recovery = Some(report.clone());
        report
    }

    /// Phase 2 for one log: apply what its replay job found (see
    /// [`Service::recover`]).
    fn apply_recovered(
        &mut self,
        name: &str,
        path: &Path,
        scanned: Scanned,
        report: &mut RecoveryReport,
    ) {
        #[cfg(test)]
        tests::count_pending(self.opts.advice_dir.as_deref());
        if scanned.torn {
            report.torn_truncated += 1;
        }
        let live = match scanned.outcome {
            Outcome::Unusable(error) => return self.refuse(name, error, report),
            Outcome::Closed => {
                // Closed cleanly; nothing lives here any more.
                if let Some(w) = self.wal.as_mut() {
                    w.retire(usize::MAX, name);
                }
                report.closed += 1;
                return;
            }
            Outcome::Empty => {
                // A crash before the O record became durable: the tenant
                // never observably existed; clean up.
                let _ = std::fs::remove_file(path);
                return;
            }
            Outcome::Live(live) => *live,
        };
        let advice = (self.opts.advice_dir.as_deref())
            .map(|dir| (tmp_advice_path(dir, name), advice_path(dir, name)));
        let estimate = live.spec.estimated_bytes();
        // The replayed advice takes its name only on admission.
        let placed = match self.admission.try_admit(estimate) {
            Err(reason) => {
                drop(live.replayed);
                Err(RecoveryError::AdmissionRefused(reason.render(name)))
            }
            Ok(()) => live
                .replayed
                .and_then(|replayed| match &advice {
                    Some((tmp, dst)) => {
                        std::fs::rename(tmp, dst).map(|()| replayed).map_err(|e| e.to_string())
                    }
                    None => Ok(replayed),
                })
                .map_err(|e| RecoveryError::Io(format!("advice file: {e}"))),
        };
        let Replayed { mut state, end, notes } = match placed {
            Ok(replayed) => replayed,
            Err(error) => {
                // Nothing of the replay survives; a refused tenant's old
                // advice file stays as it was.
                if let Some((tmp, _)) = &advice {
                    let _ = std::fs::remove_file(tmp);
                }
                if !matches!(error, RecoveryError::AdmissionRefused(_)) {
                    self.admission.release(estimate);
                }
                return self.refuse(name, error, report);
            }
        };
        for line in notes {
            line.emit();
        }
        match end {
            ReplayEnd::Full { events } => {
                report.replayed += 1;
                report.replayed_events += events;
            }
            ReplayEnd::Degraded => report.degraded += 1,
            ReplayEnd::Panicked { events, at, message } => {
                self.quarantine(name, Some(state), &message);
                report.quarantined += 1;
                report.replayed_events += events;
                report.errors.push((
                    name.to_string(),
                    format!("panic reproduced at record {at}: {message}"),
                ));
                tlog::warn("serve_recovery_requarantined")
                    .str("tenant", name.to_string())
                    .str("err", message)
                    .emit();
                return;
            }
        }
        // Resume the log in place (truncating any torn tail), re-price
        // the reservation as after any flush, and enter the registry.
        let resumed = AppendLog::resume(path, live.valid_len);
        if let (Some(w), Err(e)) = (self.wal.as_mut(), &resumed) {
            w.degrade(&mut state, &format!("resume failed: {e}"));
        }
        self.recharge(state.reprice());
        let idx = self.register(name, Slot::Live(Box::new(state)));
        if let (Some(w), Ok(log)) = (self.wal.as_mut(), resumed) {
            w.install(idx, TenantLog { log, since_ckpt: 0 });
        }
        self.stats.opens += 1;
    }

    /// Quarantine a tenant that could not be recovered: the slot exists
    /// (so requests get typed `REJECT ... quarantined` answers), the
    /// damaged log stays on disk for postmortem, and the failure is a
    /// typed entry in the report. Never aborts recovery.
    fn refuse(&mut self, name: &str, error: RecoveryError, report: &mut RecoveryReport) {
        let message = error.to_string();
        self.quarantine(name, None, &message);
        report.quarantined += 1;
        report.errors.push((name.to_string(), message.clone()));
        tlog::warn("serve_recovery_quarantined")
            .str("tenant", name.to_string())
            .str("err", message)
            .emit();
    }
}

/// Logs replayed per worker before their effects are applied: enough to
/// keep every worker busy past one slow log, few enough that replayed
/// states awaiting admission stay a handful per worker.
const WINDOW_PER_WORKER: usize = 4;

/// What the replay jobs share: the logs in name order and the read-only
/// options replay needs.
struct Replay {
    logs: Vec<(String, PathBuf)>,
    files: LogDir,
    advice_dir: Option<PathBuf>,
    snapshot_dir: Option<PathBuf>,
    trace_ring: usize,
    cap: u64,
}

/// One log as its replay job left it.
struct Scanned {
    /// The scan found a torn tail, which resuming the log truncates.
    torn: bool,
    outcome: Outcome,
}

enum Outcome {
    /// Unreadable, corrupt or malformed: quarantine with this error.
    Unusable(RecoveryError),
    /// Ends in `C`: the tenant closed cleanly.
    Closed,
    /// No record at all.
    Empty,
    /// A live tenant, replayed; admission decides whether it enters.
    Live(Box<LiveTenant>),
}

struct LiveTenant {
    spec: TenantSpec,
    /// End of the log's valid prefix, where the log resumes.
    valid_len: u64,
    /// The replayed tenant, or why its advice file could not be created.
    replayed: Result<Replayed, String>,
}

struct Replayed {
    state: TenantState,
    end: ReplayEnd,
    /// The log lines the replay produced, in order, for phase 2 to emit.
    notes: Vec<Record>,
}

/// How a live tenant's replay ended.
enum ReplayEnd {
    /// Every record applied.
    Full { events: u64 },
    /// Warm-started from a checkpoint instead (over the cap, or the base
    /// snapshot was lost).
    Degraded,
    /// Record `at` reproduced the panic that quarantined the live tenant.
    Panicked { events: u64, at: usize, message: String },
}

impl Replay {
    /// Phase 1 for one log: scan, decode, classify, and replay a live
    /// tenant into a fresh state.
    fn scan_and_replay(&self, name: &str, path: &Path) -> Scanned {
        let unusable = |torn, error| Scanned { torn, outcome: Outcome::Unusable(error) };
        let scan = match prefetch_wal::scan(path) {
            Ok(scan) => scan,
            Err(e) => return unusable(false, RecoveryError::Io(e.to_string())),
        };
        let torn = match scan.tail {
            Tail::Corrupt { at, reason } => {
                return unusable(false, RecoveryError::Corrupt { at, reason });
            }
            Tail::Torn { .. } => true,
            Tail::Clean => false,
        };
        let records = match decode_log(&scan.records) {
            Ok(records) => records,
            Err(e) => return unusable(torn, e),
        };
        drop(scan.records);
        let outcome = if matches!(records.last(), Some(WalRecord::Close)) {
            Outcome::Closed
        } else if let Some(WalRecord::Open { spec, base }) = records.first() {
            let replayed = self.replay(name, spec, *base, &records);
            Outcome::Live(Box::new(LiveTenant {
                spec: spec.clone(),
                valid_len: scan.valid_len,
                replayed,
            }))
        } else {
            // decode_log guarantees a leading Open when records exist.
            Outcome::Empty
        };
        Scanned { torn, outcome }
    }

    /// Build the tenant and feed every logged record through the real
    /// event path (or warm-start it degraded past the replay cap).
    fn replay(
        &self,
        name: &str,
        spec: &TenantSpec,
        base: bool,
        records: &[WalRecord],
    ) -> Result<Replayed, String> {
        let advice = self.advice_dir.as_deref().map(|dir| tmp_advice_path(dir, name));
        let mut state = TenantState::with_advice_file(name, spec.clone(), advice.as_deref())
            .map_err(|e| e.to_string())?;
        state.wal_state = "on";
        state.enable_flight(
            self.trace_ring,
            format_args!("recovered cache={} nodes={}", spec.cache_blocks, spec.node_limit),
        );
        let mut notes = Vec::new();
        let end = if self.cap > 0 && event_count(records) > self.cap {
            self.degrade(name, &mut state, records, &mut notes);
            ReplayEnd::Degraded
        } else {
            self.replay_full(name, &mut state, records, base, &mut notes)
        };
        Ok(Replayed { state, end, notes })
    }

    /// Full replay, from the captured base tree when the live tenant
    /// warm-started. A reproduced panic ends it, as it ended the live run.
    fn replay_full(
        &self,
        name: &str,
        state: &mut TenantState,
        records: &[WalRecord],
        base: bool,
        notes: &mut Vec<Record>,
    ) -> ReplayEnd {
        if base {
            // The live tenant warm-started; replay must start from the
            // captured base tree or the streams diverge.
            match PrefetchTree::load_snapshot(self.files.base(name)) {
                Ok(tree) => {
                    state.warm_start(tree);
                }
                Err(e) => {
                    notes.push(
                        tlog::warn("serve_recovery_base_lost")
                            .str("tenant", name.to_string())
                            .str("error", e.to_string()),
                    );
                    // Without the base the replay cannot be bit-identical;
                    // fall back to the degraded path honestly.
                    self.degrade(name, state, records, notes);
                    return ReplayEnd::Degraded;
                }
            }
        }
        let (mut events, mut scratch) = (0u64, Vec::new());
        for (at, record) in records.iter().enumerate() {
            match prefetch_pool::catch_quiet(|| apply_record(state, record, &mut scratch)) {
                Ok(applied) => events += u64::from(applied),
                Err(payload) => {
                    let message = prefetch_pool::panic_message(&*payload);
                    return ReplayEnd::Panicked { events, at, message };
                }
            }
        }
        state.recovered = "replayed";
        ReplayEnd::Full { events }
    }

    /// Degraded restore: the log exceeds the replay cap (or its base
    /// snapshot is gone). Restore the tree from the freshest readable
    /// checkpoint generation and the counters from the log; the
    /// simulator's cache state is lost — documented, bounded, honest.
    fn degrade(
        &self,
        name: &str,
        state: &mut TenantState,
        records: &[WalRecord],
        notes: &mut Vec<Record>,
    ) {
        let mut candidates =
            vec![self.files.ckpt(name), self.files.ckpt_prev(name), self.files.base(name)];
        if let Some(dir) = &self.snapshot_dir {
            candidates.push(dir.join(format!("{name}.pftree")));
        }
        let restored_from = candidates.into_iter().filter(|path| path.exists()).find(|path| {
            // An unreadable generation falls back to the previous one.
            PrefetchTree::load_snapshot(path).is_ok_and(|tree| state.warm_start(tree))
        });
        notes.push(match restored_from {
            Some(path) => tlog::info("serve_recovery_degraded_restore")
                .str("tenant", name.to_string())
                .str("snapshot", path.display().to_string()),
            None => tlog::warn("serve_recovery_degraded_cold").str("tenant", name.to_string()),
        });
        // Counters survive in the log even when the state does not.
        state.seq = event_count(records);
        state.skipped = records.iter().filter(|r| matches!(r, WalRecord::Skip)).count() as u64;
        state.shed = records.iter().filter(|r| matches!(r, WalRecord::Shed)).count() as u64;
        state.panic_armed = matches!(records.last(), Some(WalRecord::PanicArm));
        state.recovered = "degraded";
    }
}

/// Where replay writes a tenant's advice stream until phase 2 renames it
/// to [`advice_path`] (no advice file name ends in `.tmp`).
fn tmp_advice_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.advice.tmp"))
}

/// Events a decoded log holds.
fn event_count(records: &[WalRecord]) -> u64 {
    records.iter().filter(|r| matches!(r, WalRecord::Event(_))).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeOpts;
    use crate::tenant::TenantDefaults;
    use crate::wal::WalOpts;
    use std::cell::Cell;

    thread_local! {
        /// The most replayed tenants seen awaiting phase 2 at once.
        static PEAK_PENDING: Cell<usize> = const { Cell::new(0) };
    }

    /// Called as phase 2 takes up each log: every replayed tenant whose
    /// effects are not yet applied holds its advice file open under the
    /// temporary name, so counting those counts the states alive.
    pub(super) fn count_pending(advice_dir: Option<&Path>) {
        let Some(dir) = advice_dir else { return };
        let pending = std::fs::read_dir(dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".advice.tmp"))
            .count();
        PEAK_PENDING.with(|peak| peak.set(peak.get().max(pending)));
    }

    /// Many live logs under a budget that refuses nearly all of them: the
    /// refused tenants are replayed before admission sees them, but no
    /// more than one window of them is alive at a time.
    #[test]
    fn refused_replays_are_bounded_by_the_window() {
        const TENANTS: usize = 24;
        let root = std::env::temp_dir().join(format!("pfserve-window-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let opts = ServeOpts {
            advice_dir: Some(root.join("advice")),
            echo_advice: false,
            wal: WalOpts { dir: Some(root.join("wal")), ..WalOpts::default() },
            ..ServeOpts::default()
        };
        {
            // A service that crashes (drops without a drain) with every
            // tenant open.
            let mut s = Service::new(opts.clone()).unwrap();
            let mut lines: Vec<(u64, String)> =
                (0..TENANTS).map(|t| (0, format!("OPEN t{t:02} cache=8 nodes=128"))).collect();
            for e in 0..20u64 {
                lines.extend(
                    (0..TENANTS).map(|t| (0, format!("EV t{t:02} {}", (e * 7 + t as u64) % 31))),
                );
            }
            let _ = s.process_batch(&lines);
        }
        let spec =
            TenantSpec::from_opts(&[("cache", "8"), ("nodes", "128")], &TenantDefaults::default())
                .unwrap();
        let mut recovering = opts;
        recovering.wal.recover = true;
        recovering.admission.memory_budget_bytes = Some(2 * spec.estimated_bytes());
        prefetch_pool::set_threads(1);
        PEAK_PENDING.with(|peak| peak.set(0));
        let report = Service::new(recovering).unwrap().recover();
        prefetch_pool::set_threads(0);
        let refused = report.errors.iter().filter(|(_, e)| e.starts_with("admission refused"));
        assert!(refused.count() >= TENANTS - 2, "{report:?}");
        assert_eq!(PEAK_PENDING.with(Cell::get), WINDOW_PER_WORKER, "one window of one worker");
        let _ = std::fs::remove_dir_all(&root);
    }
}
