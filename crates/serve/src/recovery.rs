//! Start-up recovery: rebuild the tenant registry from the WAL directory
//! before the first request is served (`--recover`; the log format and
//! the durability model are in [`crate::wal`]).
//!
//! Recovered tenants enter the registry through the same two doors as
//! live ones — [`Service::register`] for a replayed (or degraded) live
//! state, [`Service::quarantine`] for a log that cannot be trusted or a
//! panic the replay reproduces — so a request cannot tell a recovered
//! tenant from one that never went away, except by the honest
//! `recovered=` marker.

use crate::service::{Service, Slot};
use crate::tenant::TenantState;
use crate::wal::{apply_record, decode_log, RecoveryError, RecoveryReport, TenantLog, WalRecord};
use prefetch_telemetry::log as tlog;
use prefetch_tree::PrefetchTree;
use prefetch_wal::{AppendLog, Tail};
use std::path::{Path, PathBuf};
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
    pub fn recover(&mut self) -> RecoveryReport {
        let t0 = Instant::now();
        let mut report = RecoveryReport::default();
        let Some(dir) = self.wal.as_ref().map(|w| w.dir().to_path_buf()) else {
            return report;
        };
        let mut logs: Vec<(String, PathBuf)> = match std::fs::read_dir(&dir) {
            Ok(entries) => entries
                .filter_map(|e| {
                    let path = e.ok()?.path();
                    let name = path.file_name()?.to_str()?.strip_suffix(".wal")?.to_string();
                    Some((name, path))
                })
                .collect(),
            Err(e) => {
                tlog::warn("serve_recovery_listing_failed")
                    .str("dir", dir.display().to_string())
                    .str("error", e.to_string())
                    .emit();
                return report;
            }
        };
        logs.sort();
        for (name, path) in logs {
            self.recover_tenant(&name, &path, &mut report);
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

    /// Recover one tenant from its log (see [`Service::recover`]).
    fn recover_tenant(&mut self, name: &str, path: &Path, report: &mut RecoveryReport) {
        let scan = match prefetch_wal::scan(path) {
            Ok(scan) => scan,
            Err(e) => return self.refuse(name, RecoveryError::Io(e.to_string()), report),
        };
        match &scan.tail {
            Tail::Corrupt { at, reason } => {
                let error = RecoveryError::Corrupt { at: *at, reason: reason.clone() };
                return self.refuse(name, error, report);
            }
            Tail::Torn { .. } => report.torn_truncated += 1,
            Tail::Clean => {}
        }
        let records = match decode_log(&scan.records) {
            Ok(records) => records,
            Err(e) => return self.refuse(name, e, report),
        };
        if matches!(records.last(), Some(WalRecord::Close)) {
            // Closed cleanly; nothing lives here any more.
            if let Some(w) = self.wal.as_mut() {
                w.retire(usize::MAX, name);
            }
            report.closed += 1;
            return;
        }
        let Some(WalRecord::Open { spec, base }) = records.first().cloned() else {
            // decode_log guarantees a leading Open when records exist, so
            // this is an empty log: a crash before the O record became
            // durable. The tenant never observably existed; clean up.
            let _ = std::fs::remove_file(path);
            return;
        };
        if let Err(reason) = self.admission.try_admit(spec.estimated_bytes()) {
            let error = RecoveryError::AdmissionRefused(reason.render(name));
            return self.refuse(name, error, report);
        }
        let mut state = match TenantState::new(name, spec.clone(), self.opts.advice_dir.as_deref())
        {
            Ok(state) => state,
            Err(e) => {
                self.admission.release(spec.estimated_bytes());
                return self.refuse(name, RecoveryError::Io(format!("advice file: {e}")), report);
            }
        };
        state.wal_state = "on";
        state.enable_flight(
            self.opts.trace_ring,
            format_args!("recovered cache={} nodes={}", spec.cache_blocks, spec.node_limit),
        );
        let cap = self.opts.wal.recover_cap_events;
        if cap > 0 && event_count(&records) > cap {
            self.recover_degraded(name, &mut state, &records, report);
        } else {
            match self.recover_replayed(name, state, &records, base, report) {
                Some(replayed) => state = replayed,
                None => return, // quarantined during replay
            }
        }
        // Resume the log in place (truncating any torn tail), re-price
        // the reservation as after any flush, and enter the registry.
        let resumed = AppendLog::resume(path, scan.valid_len);
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

    /// Full replay: feed every logged record through the real event
    /// path. Returns the replayed state, or `None` when a reproduced
    /// panic quarantined the tenant exactly like the live run did.
    fn recover_replayed(
        &mut self,
        name: &str,
        mut state: TenantState,
        records: &[WalRecord],
        base: bool,
        report: &mut RecoveryReport,
    ) -> Option<TenantState> {
        if base {
            // The live tenant warm-started; replay must start from the
            // captured base tree or the streams diverge.
            let base_path = self.wal.as_ref().expect("recover requires wal").base_path(name);
            match PrefetchTree::load_snapshot(&base_path) {
                Ok(tree) => {
                    state.warm_start(tree);
                }
                Err(e) => {
                    tlog::warn("serve_recovery_base_lost")
                        .str("tenant", name.to_string())
                        .str("error", e.to_string())
                        .emit();
                    // Without the base the replay cannot be bit-identical;
                    // fall back to the degraded path honestly.
                    self.recover_degraded(name, &mut state, records, report);
                    return Some(state);
                }
            }
        }
        let (mut replayed, mut scratch) = (0u64, Vec::new());
        for (i, record) in records.iter().enumerate() {
            match prefetch_pool::catch_quiet(|| apply_record(&mut state, record, &mut scratch)) {
                Ok(applied) => replayed += u64::from(applied),
                Err(payload) => {
                    let message = prefetch_pool::panic_message(&*payload);
                    self.quarantine(name, Some(state), &message);
                    report.quarantined += 1;
                    report.replayed_events += replayed;
                    report.errors.push((
                        name.to_string(),
                        format!("panic reproduced at record {i}: {message}"),
                    ));
                    tlog::warn("serve_recovery_requarantined")
                        .str("tenant", name.to_string())
                        .str("err", message)
                        .emit();
                    return None;
                }
            }
        }
        state.recovered = "replayed";
        report.replayed += 1;
        report.replayed_events += replayed;
        Some(state)
    }

    /// Degraded restore: the log exceeds the replay cap (or its base
    /// snapshot is gone). Restore the tree from the freshest readable
    /// checkpoint generation and the counters from the log; the
    /// simulator's cache state is lost — documented, bounded, honest.
    fn recover_degraded(
        &mut self,
        name: &str,
        state: &mut TenantState,
        records: &[WalRecord],
        report: &mut RecoveryReport,
    ) {
        let candidates: Vec<PathBuf> = {
            let w = self.wal.as_ref().expect("recover requires wal");
            let mut c = vec![w.ckpt_path(name), w.ckpt_prev_path(name), w.base_path(name)];
            if let Some(dir) = &self.opts.snapshot_dir {
                c.push(dir.join(format!("{name}.pftree")));
            }
            c
        };
        let mut restored = false;
        for path in candidates {
            if !path.exists() {
                continue;
            }
            match PrefetchTree::load_snapshot(&path) {
                Ok(tree) => {
                    restored = state.warm_start(tree);
                    if restored {
                        tlog::info("serve_recovery_degraded_restore")
                            .str("tenant", name.to_string())
                            .str("snapshot", path.display().to_string())
                            .emit();
                        break;
                    }
                }
                Err(_) => continue, // try the previous generation
            }
        }
        if !restored {
            tlog::warn("serve_recovery_degraded_cold").str("tenant", name.to_string()).emit();
        }
        // Counters survive in the log even when the state does not.
        state.seq = event_count(records);
        state.skipped = records.iter().filter(|r| matches!(r, WalRecord::Skip)).count() as u64;
        state.shed = records.iter().filter(|r| matches!(r, WalRecord::Shed)).count() as u64;
        state.panic_armed = matches!(records.last(), Some(WalRecord::PanicArm));
        state.recovered = "degraded";
        report.degraded += 1;
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

/// Events a decoded log holds.
fn event_count(records: &[WalRecord]) -> u64 {
    records.iter().filter(|r| matches!(r, WalRecord::Event(_))).count() as u64
}
