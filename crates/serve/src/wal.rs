//! Crash durability for the service: per-tenant write-ahead logs,
//! periodic checkpoints, and the typed recovery vocabulary.
//!
//! Every admitted tenant gets an append-only `prefetch-wal` log at
//! `<wal_dir>/<name>.wal` holding its complete accepted history: one
//! `O` record (the resolved [`TenantSpec`], re-encoded in the `OPEN`
//! option grammar), one `E` record per accepted event, `S`/`H` markers
//! for attributed skips and sheds (so `FINAL` counters survive a
//! crash), `P` when the chaos hook arms, and `C` at close. A record is
//! *staged* at accept time — a copy into the buffer the tenant's log owns,
//! no allocation, no syscall — and the log is flushed, one `write_all`
//! per tenant per batch, immediately before that tenant's queued events
//! are applied: nothing is processed that is not in the file. A
//! group-commit pass ([`prefetch_wal::GroupCommit`]) at each batch end
//! flushes what is still staged and syncs dirty logs before the batch's
//! responses are released; under `--fsync always` every acknowledged
//! response is therefore durable. Batch size changes the number of
//! writes, never a byte of a log.
//!
//! Recovery (`Service::recover`) replays each live log **in full**
//! through a fresh tenant, the logs side by side on the worker pool: a
//! tenant's advice stream is a pure function
//! of its own ordered events (the crate's determinism contract), so the
//! replayed advice — file and counters — is bit-identical to the
//! uninterrupted run. Periodic checkpoints (`<name>.ckpt.pftree`, with
//! one `.prev` generation; tmp-write + rename, synced only as the
//! `--fsync` policy syncs — under `never` not at all, and a snapshot that
//! does not scan clean falls back a generation) exist to bound
//! *degraded* recovery: a log longer than `--recover-cap-events` is not
//! replayed but warm-started from the freshest readable checkpoint,
//! trading the simulator's cache state for O(1) restart. Damage is
//! classified by the scan: torn tails (crash artifacts) are truncated and
//! the log resumes; corruption quarantines that one tenant with a typed
//! [`RecoveryError`] while every sibling recovers normally.

use crate::lines::push_u64;
use crate::service::{lock_slot, Service};
use crate::tenant::{TenantDefaults, TenantSpec, TenantState};
use prefetch_telemetry::log as tlog;
use prefetch_tree::{PrefetchTree, TreeIoError};
use prefetch_wal::{atomic, AppendLog, FsyncPolicy, GroupCommit};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Durability configuration carried inside `ServeOpts`.
#[derive(Clone, Debug)]
pub struct WalOpts {
    /// Per-tenant WAL directory; `None` disables durability entirely.
    pub dir: Option<PathBuf>,
    /// When the group-commit pass syncs dirty logs.
    pub fsync: FsyncPolicy,
    /// Checkpoint a tenant's tree after this many logged events
    /// (0 disables checkpointing).
    pub checkpoint_every: u64,
    /// Run recovery from `dir` before serving.
    pub recover: bool,
    /// Replay at most this many events per tenant; longer logs recover
    /// degraded from the freshest checkpoint (0 = unbounded replay).
    pub recover_cap_events: u64,
}

impl Default for WalOpts {
    fn default() -> Self {
        WalOpts {
            dir: None,
            fsync: FsyncPolicy::Always,
            checkpoint_every: 4096,
            recover: false,
            recover_cap_events: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

/// One decoded WAL record (see the module docs for the grammar).
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Tenant admitted: the resolved spec, and whether a warm-start base
    /// snapshot (`<name>.base.pftree`) was captured at open.
    Open {
        /// Resolved configuration the tenant was admitted under.
        spec: TenantSpec,
        /// Replay must warm-start from the captured base snapshot.
        base: bool,
    },
    /// One accepted access event.
    Event(u64),
    /// A malformed line was charged to this tenant (`skipped` counter).
    Skip,
    /// An event was shed by backpressure (`shed` counter).
    Shed,
    /// The chaos hook armed: the next event processing panics.
    PanicArm,
    /// The tenant closed cleanly (its snapshot, if any, was saved first).
    Close,
}

impl WalRecord {
    /// Encode to the record payload (ASCII, one logical line).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Push the record payload onto `out` (which it only extends).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Open { spec, base } => {
                let mut s = format!(
                    "O cache={} policy={} nodes={} overflow={} base={}",
                    spec.cache_blocks,
                    spec.policy.key_value(),
                    spec.node_limit,
                    if spec.freeze { "freeze" } else { "evict" },
                    u8::from(*base),
                );
                if let Some(d) = spec.disks {
                    s.push_str(&format!(" disks={d}"));
                }
                if spec.fault_rate > 0.0 {
                    s.push_str(&format!(
                        " fault_rate={} fault_seed={}",
                        spec.fault_rate, spec.fault_seed
                    ));
                }
                out.extend_from_slice(s.as_bytes());
            }
            // One per event: rendered digit by digit, not through `fmt`.
            WalRecord::Event(block) => {
                out.extend_from_slice(b"E ");
                push_u64(out, *block);
            }
            WalRecord::Skip => out.push(b'S'),
            WalRecord::Shed => out.push(b'H'),
            WalRecord::PanicArm => out.push(b'P'),
            WalRecord::Close => out.push(b'C'),
        }
    }

    /// Decode one record payload.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "record is not UTF-8".to_string())?;
        let mut fields = text.split_ascii_whitespace();
        match fields.next() {
            Some("O") => {
                let mut base = false;
                let mut opts: Vec<(&str, &str)> = Vec::new();
                for opt in fields {
                    let Some((k, v)) = opt.split_once('=') else {
                        return Err(format!("O option {opt:?} is not key=value"));
                    };
                    if k == "base" {
                        base = v == "1";
                    } else {
                        opts.push((k, v));
                    }
                }
                // Every field is explicit in the record, so the defaults
                // in force at replay time cannot skew the spec.
                let spec = TenantSpec::from_opts(&opts, &TenantDefaults::default())
                    .map_err(|e| format!("O record does not resolve: {}", e.render("?")))?;
                Ok(WalRecord::Open { spec, base })
            }
            Some("E") => {
                let raw = fields.next().ok_or("E record lacks a block")?;
                let block = raw.parse().map_err(|_| format!("E block {raw:?} is not a u64"))?;
                Ok(WalRecord::Event(block))
            }
            Some("S") => Ok(WalRecord::Skip),
            Some("H") => Ok(WalRecord::Shed),
            Some("P") => Ok(WalRecord::PanicArm),
            Some("C") => Ok(WalRecord::Close),
            other => Err(format!("unknown record tag {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Live-side bookkeeping
// ---------------------------------------------------------------------------

/// One tenant's open log plus its checkpoint countdown.
pub(crate) struct TenantLog {
    pub(crate) log: AppendLog,
    /// Events appended since the last checkpoint.
    pub(crate) since_ckpt: u64,
}

/// The WAL directory and the names of the files a tenant keeps in it.
/// Cloned into recovery's replay jobs, which read a tenant's snapshots
/// off the dispatch thread.
#[derive(Clone, Debug)]
pub(crate) struct LogDir(PathBuf);

impl LogDir {
    /// The directory itself.
    pub(crate) fn path(&self) -> &Path {
        &self.0
    }

    /// A tenant's WAL file.
    pub(crate) fn wal(&self, name: &str) -> PathBuf {
        self.0.join(format!("{name}.wal"))
    }

    /// A tenant's warm-start base snapshot (captured at open so replay
    /// starts from the same tree the live tenant did, even after later
    /// checkpoints overwrite the main snapshot).
    pub(crate) fn base(&self, name: &str) -> PathBuf {
        self.0.join(format!("{name}.base.pftree"))
    }

    /// A tenant's freshest checkpoint snapshot.
    pub(crate) fn ckpt(&self, name: &str) -> PathBuf {
        self.0.join(format!("{name}.ckpt.pftree"))
    }

    /// The previous checkpoint generation.
    pub(crate) fn ckpt_prev(&self, name: &str) -> PathBuf {
        self.0.join(format!("{name}.ckpt.pftree.prev"))
    }

    /// The checkpoint being written, renamed over [`LogDir::ckpt`] when
    /// complete.
    fn ckpt_tmp(&self, name: &str) -> PathBuf {
        self.0.join(format!("{name}.ckpt.pftree.tmp"))
    }
}

/// The service's durability state: the WAL directory, every open
/// tenant log (at its tenant's slot index), the group-commit tracker, and
/// the counters surfaced in `BYE`.
pub(crate) struct Durability {
    pub(crate) files: LogDir,
    pub(crate) commit: GroupCommit,
    pub(crate) checkpoint_every: u64,
    logs: Vec<Option<TenantLog>>,
    /// Every checkpoint snapshot is serialised into this one buffer.
    snapshot: Vec<u8>,
    /// Records appended across all logs.
    pub(crate) appends: u64,
    /// Successful group-commit fsync passes (log-level syncs).
    pub(crate) fsyncs: u64,
    /// Sync failures (each degrades its tenant to in-memory).
    pub(crate) sync_errors: u64,
    /// Tenants that lost durability mid-run and kept serving in-memory.
    pub(crate) degraded_tenants: u64,
    /// Checkpoint snapshots written.
    pub(crate) checkpoints: u64,
}

impl Durability {
    /// Open the durability layer, creating the WAL directory.
    pub(crate) fn new(dir: &Path, fsync: FsyncPolicy, checkpoint_every: u64) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Durability {
            files: LogDir(dir.to_path_buf()),
            commit: GroupCommit::new(fsync),
            checkpoint_every,
            logs: Vec::new(),
            snapshot: Vec::new(),
            appends: 0,
            fsyncs: 0,
            sync_errors: 0,
            degraded_tenants: 0,
            checkpoints: 0,
        })
    }

    /// Create a fresh log for a newly admitted tenant and stage its
    /// `O` record.
    pub(crate) fn create_log(
        &mut self,
        name: &str,
        spec: &TenantSpec,
        base: bool,
    ) -> io::Result<TenantLog> {
        let mut log = AppendLog::create(&self.files.wal(name))?;
        let open = WalRecord::Open { spec: spec.clone(), base };
        log.append_with(|buf| open.encode_into(buf))?;
        self.appends += 1;
        self.commit.note(1);
        Ok(TenantLog { log, since_ckpt: 0 })
    }

    /// The open log of the tenant at slot `idx`, if it has one.
    pub(crate) fn log_mut(&mut self, idx: usize) -> Option<&mut TenantLog> {
        self.logs.get_mut(idx)?.as_mut()
    }

    /// One past the highest slot index that ever had a log.
    pub(crate) fn slots(&self) -> usize {
        self.logs.len()
    }

    /// Enter a created or resumed log at its tenant's slot index.
    pub(crate) fn install(&mut self, idx: usize, log: TenantLog) {
        if self.logs.len() <= idx {
            self.logs.resize_with(idx + 1, || None);
        }
        self.logs[idx] = Some(log);
    }

    /// Stage one record in a tenant's log — a copy into the buffer the
    /// log owns (no-op when the tenant has no log — already degraded).
    /// Errors must degrade the tenant.
    pub(crate) fn append(&mut self, idx: usize, record: &WalRecord) -> io::Result<()> {
        let Some(t) = self.log_mut(idx) else { return Ok(()) };
        t.log.append_with(|buf| record.encode_into(buf))?;
        if matches!(record, WalRecord::Event(_)) {
            t.since_ckpt += 1;
        }
        self.appends += 1;
        self.commit.note(1);
        Ok(())
    }

    /// Write a tenant's staged records to its file (one `write_all`).
    /// Errors must degrade the tenant.
    pub(crate) fn flush_log(&mut self, idx: usize) -> io::Result<()> {
        self.log_mut(idx).map_or(Ok(()), |t| t.log.flush())
    }

    /// Delete every on-disk artifact of a closed tenant (log, base
    /// snapshot, checkpoint generations). Best-effort: the tenant is
    /// gone either way, and a surviving log ends in `C`, which recovery
    /// treats as closed.
    pub(crate) fn retire(&mut self, idx: usize, name: &str) {
        self.drop_log(idx);
        for path in [
            self.files.wal(name),
            self.files.base(name),
            self.files.ckpt(name),
            self.files.ckpt_prev(name),
        ] {
            let _ = std::fs::remove_file(path);
        }
    }

    /// A tenant lost its log (it could not be created, resumed, appended
    /// to or synced) and serves on in memory: counted, flagged in its
    /// `STATS`/`FINAL`, logged.
    pub(crate) fn degrade(&mut self, state: &mut TenantState, reason: &str) {
        self.degraded_tenants += 1;
        state.wal_state = "degraded";
        tlog::warn("serve_wal_degraded")
            .str("tenant", state.name.to_string())
            .str("reason", reason)
            .emit();
    }

    /// Drop a tenant's log without touching its files (mid-run
    /// degradation keeps the history for postmortem, quarantine keeps it
    /// so recovery reproduces the failure).
    pub(crate) fn drop_log(&mut self, idx: usize) {
        if let Some(log) = self.logs.get_mut(idx) {
            *log = None;
        }
    }

    /// Flush and sync one tenant's log now (close and quarantine seal
    /// their history ahead of the group commit); counts like a
    /// group-commit sync and returns whether the log is durable. `false`
    /// when the tenant has no log.
    pub(crate) fn sync_log(&mut self, idx: usize) -> bool {
        let Some(t) = self.log_mut(idx) else { return false };
        let synced = t.log.sync().is_ok();
        if synced {
            self.fsyncs += 1;
        } else {
            self.sync_errors += 1;
        }
        synced
    }

    /// Sync every dirty log; returns the slot indices whose sync failed
    /// (the caller degrades those tenants).
    pub(crate) fn sync_all(&mut self) -> Vec<usize> {
        let mut failed = Vec::new();
        for (idx, t) in self.logs.iter_mut().enumerate() {
            let Some(t) = t else { continue };
            if t.log.dirty() == 0 {
                continue;
            }
            match t.log.sync() {
                Ok(()) => self.fsyncs += 1,
                Err(_) => {
                    self.sync_errors += 1;
                    failed.push(idx);
                }
            }
        }
        failed
    }

    /// Slot indices whose checkpoint countdown expired.
    pub(crate) fn checkpoint_due(&mut self) -> Vec<usize> {
        if self.checkpoint_every == 0 {
            return Vec::new();
        }
        let mut due = Vec::new();
        for (idx, t) in self.logs.iter_mut().enumerate() {
            let Some(t) = t else { continue };
            if t.since_ckpt >= self.checkpoint_every {
                t.since_ckpt = 0;
                due.push(idx);
            }
        }
        due
    }

    /// Whether the fsync policy syncs anything while serving; under
    /// `never` a checkpoint is written and renamed but not synced.
    pub(crate) fn syncs(&self) -> bool {
        self.commit.policy() != FsyncPolicy::Never
    }

    /// Write one checkpoint generation of `tree`: rotate the previous one
    /// aside, then tmp-write + rename a fresh `pftree-snap/v2`. The
    /// directory is the caller's to sync, once per commit pass.
    fn write_checkpoint(&mut self, name: &str, tree: &PrefetchTree) -> Result<(), TreeIoError> {
        self.snapshot.clear();
        tree.write_snapshot(&mut self.snapshot)?;
        let ckpt = self.files.ckpt(name);
        // Fails when there is no generation to rotate yet.
        let _ = std::fs::rename(&ckpt, self.files.ckpt_prev(name));
        let tmp = self.files.ckpt_tmp(name);
        atomic::write_then_rename(&tmp, &ckpt, &self.snapshot, self.syncs())?;
        self.checkpoints += 1;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Recovery vocabulary
// ---------------------------------------------------------------------------

/// Why one tenant could not be recovered (the other tenants are
/// unaffected; the damaged one is quarantined with this reason).
#[derive(Clone, Debug, PartialEq)]
pub enum RecoveryError {
    /// The scan found damage no crash can produce.
    Corrupt {
        /// Byte offset of the damage.
        at: u64,
        /// Scanner's cause.
        reason: String,
    },
    /// A record decoded to garbage or violated the protocol (no leading
    /// `O`, a duplicate `O`, records after `C`).
    Malformed {
        /// Record index in the log.
        index: usize,
        /// What was wrong.
        reason: String,
    },
    /// Admission control refused the restored tenant (the budget shrank
    /// between runs).
    AdmissionRefused(String),
    /// The log could not be read at all.
    Io(String),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Corrupt { at, reason } => {
                write!(f, "corrupt wal at byte {at}: {reason}")
            }
            RecoveryError::Malformed { index, reason } => {
                write!(f, "malformed wal record {index}: {reason}")
            }
            RecoveryError::AdmissionRefused(r) => write!(f, "admission refused: {r}"),
            RecoveryError::Io(e) => write!(f, "wal unreadable: {e}"),
        }
    }
}

/// What `Service::recover` did, per class; rendered into the recovery
/// bench artifact and the startup log line.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Tenants restored by full replay (bit-identical state).
    pub replayed: u64,
    /// Tenants warm-started from a checkpoint because their log
    /// exceeded the replay cap (tree restored, cache state lost).
    pub degraded: u64,
    /// Logs that ended in `C`: the tenant closed cleanly, nothing to do.
    pub closed: u64,
    /// Tenants quarantined by a typed [`RecoveryError`] (or by a panic
    /// faithfully reproduced during replay).
    pub quarantined: u64,
    /// Logs whose torn tail was truncated before resuming.
    pub torn_truncated: u64,
    /// Events replayed across all tenants.
    pub replayed_events: u64,
    /// Wall-clock recovery time.
    pub elapsed_ms: u64,
    /// Per-tenant failure detail, in recovery order.
    pub errors: Vec<(String, String)>,
}

/// Decode and sequence-check a scanned log: exactly one leading `O`,
/// nothing after `C`. Returns the records (first is always the `Open`).
pub(crate) fn decode_log(records: &[Vec<u8>]) -> Result<Vec<WalRecord>, RecoveryError> {
    let mut out = Vec::with_capacity(records.len());
    for (index, payload) in records.iter().enumerate() {
        let rec = WalRecord::decode(payload)
            .map_err(|reason| RecoveryError::Malformed { index, reason })?;
        match (&rec, index, out.last()) {
            (WalRecord::Open { .. }, 0, _) => {}
            (WalRecord::Open { .. }, _, _) => {
                return Err(RecoveryError::Malformed {
                    index,
                    reason: "duplicate O record".into(),
                });
            }
            (_, 0, _) => {
                return Err(RecoveryError::Malformed {
                    index,
                    reason: "first record is not O".into(),
                });
            }
            (_, _, Some(WalRecord::Close)) => {
                return Err(RecoveryError::Malformed { index, reason: "record after C".into() });
            }
            _ => {}
        }
        out.push(rec);
    }
    Ok(out)
}

/// Replay a decoded event history into a fresh tenant (no `catch_unwind`
/// here — the caller wraps each event so a reproduced panic quarantines
/// exactly like the live run). An event's `ADV` line is rendered into
/// `scratch`, which the caller reuses, and dropped. Returns whether the
/// record was an event.
pub(crate) fn apply_record(
    state: &mut TenantState,
    record: &WalRecord,
    scratch: &mut Vec<u8>,
) -> bool {
    match record {
        WalRecord::Open { .. } | WalRecord::Close => false,
        WalRecord::Event(block) => {
            scratch.clear();
            state.process_event_into(*block, scratch);
            true
        }
        WalRecord::Skip => {
            state.skipped += 1;
            false
        }
        WalRecord::Shed => {
            state.shed += 1;
            false
        }
        WalRecord::PanicArm => {
            state.panic_armed = true;
            false
        }
    }
}

// ---------------------------------------------------------------------------
// The service's durability stage
// ---------------------------------------------------------------------------

impl Service {
    /// Stage one record in a tenant's WAL; an append failure degrades
    /// that one tenant to in-memory-only (typed, logged, counted) while
    /// everything else keeps its durability.
    pub(crate) fn wal_append(&mut self, idx: usize, record: &WalRecord) {
        let Some(w) = self.wal.as_mut() else { return };
        if let Err(e) = w.append(idx, record) {
            self.degrade_tenant_wal(idx, &format!("append failed: {e}"));
        }
    }

    /// Write a tenant's staged records ahead of applying its queued
    /// events (the write-ahead order); a failure degrades that tenant
    /// like a failed append.
    pub(crate) fn wal_flush(&mut self, idx: usize) {
        let Some(w) = self.wal.as_mut() else { return };
        if let Err(e) = w.flush_log(idx) {
            self.degrade_tenant_wal(idx, &format!("flush failed: {e}"));
        }
    }

    /// Retire a closing tenant's WAL: durable `C`, then delete its
    /// on-disk artifacts. The close-time snapshot was already saved, so
    /// after this the tenant's whole life collapses to the snapshot.
    pub(crate) fn wal_close(&mut self, idx: usize, tenant: &str) {
        let Some(w) = self.wal.as_mut() else { return };
        if w.append(idx, &WalRecord::Close).is_ok() && w.sync_log(idx) {
            w.retire(idx, tenant);
        } else {
            // Could not seal: keep the log on disk — it ends mid-life,
            // so a recovery replays the tenant live, which is the safe
            // direction (at-least-once, never lost).
            w.drop_log(idx);
            tlog::warn("serve_wal_close_unsealed").str("tenant", tenant.to_string()).emit();
        }
    }

    /// Lose durability for one tenant but keep serving it: drop the log
    /// handle (the file stays for postmortem), flag the tenant, count it.
    fn degrade_tenant_wal(&mut self, idx: usize, reason: &str) {
        let Some(w) = self.wal.as_mut() else { return };
        // What was staged ahead of the failure still belongs in the file
        // (nothing is left to write when it was the flush that failed).
        let _ = w.flush_log(idx);
        w.drop_log(idx);
        let tenant = &self.tenants[idx];
        let mut slot = lock_slot(&tenant.slot);
        let Ok(state) = slot.live() else { return };
        w.degrade(state, reason);
        // Losing durability is exactly the moment the request timeline
        // matters: dump the ring to the telemetry log.
        if let Some(trace) = state.flight().map(|fr| fr.dump_lines()).filter(|t| !t.is_empty()) {
            tlog::warn("serve_wal_degraded_trace")
                .str("tenant", tenant.name.to_string())
                .u64("lines", trace.len() as u64)
                .str("trace", trace.join(" | "))
                .emit();
        }
    }

    /// Batch-end durability pass: flush what is still staged (`O`, `S`,
    /// `H` and `P` records — events were flushed ahead of their own
    /// processing), sync dirty logs when the group-commit policy says so
    /// (a failed flush or sync degrades its tenant), then write any due
    /// checkpoint snapshots.
    pub(crate) fn wal_commit_pass(&mut self) {
        for idx in 0..self.wal.as_ref().map_or(0, Durability::slots) {
            self.wal_flush(idx);
        }
        let Some(w) = self.wal.as_mut() else { return };
        let sync_failures = if w.commit.due() { w.sync_all() } else { Vec::new() };
        let ckpt_due = w.checkpoint_due();
        for idx in sync_failures {
            self.degrade_tenant_wal(idx, "fsync failed");
        }
        let mut renamed = false;
        for idx in ckpt_due {
            renamed |= self.checkpoint_tenant(idx);
        }
        // One directory sync covers every rename of the pass.
        if let Some(w) = self.wal.as_ref().filter(|w| renamed && w.syncs()) {
            atomic::sync_dir(w.files.path());
        }
    }

    /// Write one tenant's periodic checkpoint and return whether a new
    /// generation was renamed into place. Failures only warn —
    /// checkpoints accelerate degraded recovery, they are not
    /// load-bearing for the sound (full-replay) path, and a snapshot that
    /// fails its fingerprint falls back a generation.
    fn checkpoint_tenant(&mut self, idx: usize) -> bool {
        let tenant = &self.tenants[idx];
        let Some(w) = self.wal.as_mut() else { return false };
        let mut slot = lock_slot(&tenant.slot);
        let Some(tree) = slot.live().ok().and_then(|state| state.tree()) else { return false };
        match w.write_checkpoint(&tenant.name, tree) {
            Ok(()) => {
                tlog::info("serve_wal_checkpoint").str("tenant", tenant.name.to_string()).emit();
                true
            }
            Err(e) => {
                tlog::warn("serve_wal_checkpoint_failed")
                    .str("tenant", tenant.name.to_string())
                    .str("error", e.to_string())
                    .emit();
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(pairs: &[(&str, &str)]) -> TenantSpec {
        TenantSpec::from_opts(pairs, &TenantDefaults::default()).unwrap()
    }

    #[test]
    fn records_roundtrip() {
        let cases = vec![
            WalRecord::Open { spec: spec(&[]), base: false },
            WalRecord::Open {
                spec: spec(&[
                    ("cache", "128"),
                    ("policy", "tree-threshold=0.25"),
                    ("nodes", "512"),
                    ("overflow", "freeze"),
                    ("disks", "4"),
                    ("fault_rate", "0.125"),
                    ("fault_seed", "77"),
                ]),
                base: true,
            },
            WalRecord::Event(0),
            WalRecord::Event(u64::MAX),
            WalRecord::Skip,
            WalRecord::Shed,
            WalRecord::PanicArm,
            WalRecord::Close,
        ];
        for rec in cases {
            let back = WalRecord::decode(&rec.encode()).unwrap();
            match (&rec, &back) {
                (WalRecord::Open { spec: a, base: ba }, WalRecord::Open { spec: b, base: bb }) => {
                    assert_eq!(ba, bb);
                    assert_eq!(a.cache_blocks, b.cache_blocks);
                    assert_eq!(a.policy, b.policy);
                    assert_eq!(a.node_limit, b.node_limit);
                    assert_eq!(a.freeze, b.freeze);
                    assert_eq!(a.disks, b.disks);
                    assert_eq!(a.fault_rate, b.fault_rate);
                    assert_eq!(a.fault_seed, b.fault_seed);
                }
                _ => assert_eq!(rec, back),
            }
        }
    }

    /// `O` records copied out of logs that `pfserve --wal-dir` wrote before
    /// the policy grammar moved to `PolicySpec`: such a log must still
    /// replay, and a new one must say the same.
    #[test]
    fn open_records_written_before_the_shared_grammar_still_decode() {
        let pinned: [(&[u8], TenantSpec); 2] = [
            (b"O cache=64 policy=tree-next-limit nodes=4096 overflow=evict base=0", spec(&[])),
            (
                b"O cache=128 policy=tree-threshold=0.25 nodes=512 overflow=freeze base=0 \
                  disks=4 fault_rate=0.125 fault_seed=77",
                spec(&[
                    ("cache", "128"),
                    ("policy", "tree-threshold=0.25"),
                    ("nodes", "512"),
                    ("overflow", "freeze"),
                    ("disks", "4"),
                    ("fault_rate", "0.125"),
                    ("fault_seed", "77"),
                ]),
            ),
        ];
        for (bytes, spec) in pinned {
            let want = WalRecord::Open { spec, base: false };
            assert_eq!(WalRecord::decode(bytes).unwrap(), want);
            assert_eq!(want.encode(), bytes);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        for bad in [&b"X 1"[..], b"E", b"E not-a-number", b"O cache", b"", b"\xff\xfe"] {
            assert!(WalRecord::decode(bad).is_err(), "{bad:?} must not decode");
        }
    }

    #[test]
    fn sequence_violations_are_typed() {
        let img = |recs: &[WalRecord]| recs.iter().map(|r| r.encode()).collect::<Vec<_>>();
        let open = WalRecord::Open { spec: spec(&[]), base: false };

        // Event before open.
        let e = decode_log(&img(&[WalRecord::Event(1)])).unwrap_err();
        assert!(matches!(e, RecoveryError::Malformed { index: 0, .. }), "{e}");

        // Duplicate open.
        let e = decode_log(&img(&[open.clone(), open.clone()])).unwrap_err();
        assert!(matches!(e, RecoveryError::Malformed { index: 1, .. }), "{e}");

        // Records after close.
        let e =
            decode_log(&img(&[open.clone(), WalRecord::Close, WalRecord::Event(3)])).unwrap_err();
        assert!(matches!(e, RecoveryError::Malformed { index: 2, .. }), "{e}");

        // The happy path decodes.
        let recs =
            decode_log(&img(&[open, WalRecord::Event(1), WalRecord::Shed, WalRecord::Close]))
                .unwrap();
        assert_eq!(recs.len(), 4);
    }

    #[test]
    fn unexpressible_policies_fail_closed() {
        let mut s = spec(&[]);
        s.policy = prefetch_sim::PolicySpec::PerfectSelector;
        let rec = WalRecord::Open { spec: s, base: false };
        assert!(WalRecord::decode(&rec.encode()).is_err());
    }
}
