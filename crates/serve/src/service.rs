//! The multi-tenant advisor service core.
//!
//! [`Service`] owns the tenant registry and processes request lines in
//! batches. Within a batch, per-tenant event queues are built in arrival
//! order and then flushed across the `prefetch-pool` workers — one tenant
//! is one work item, so the pool's work stealing spreads thousands of
//! tenants over the cores while each tenant's own events stay strictly
//! ordered. Every flush runs under its own `catch_unwind`: a panicking
//! tenant (chaos hook or real policy bug) is quarantined through the
//! `prefetch-core` [`Quarantine`] machinery and reported with a typed
//! `PANIC` response; its siblings — including those sharing the same
//! worker — never notice.
//!
//! ## Fault domains
//!
//! * **tenant** — panic, malformed input, memory blowup: contained by
//!   `catch_unwind`, per-tenant node budgets, and per-tenant skip
//!   counters; the blast radius is one tenant.
//! * **shard (worker)** — a pool worker only ever holds one tenant's lock
//!   at a time and the panic never crosses the `catch_unwind`, so a
//!   poisoned tenant mutex is recovered (`into_inner`) and the slot is
//!   retired.
//! * **listener** — parse errors and overload are answered with typed
//!   `ERR`/`SHED`/`REJECT` lines, never a disconnect.
//! * **process** — graceful drain emits deterministic per-tenant `FINAL`
//!   reports and flushes telemetry before exit.
//!
//! ## Determinism
//!
//! A tenant's advice stream is a pure function of its own event sequence:
//! tenant state is touched only under its slot lock, events are applied in
//! arrival order, and nothing a sibling does feeds back into the
//! computation. Any `--threads N` therefore yields byte-identical
//! per-tenant advice streams (asserted by the crate's integration tests
//! and the `serve-chaos` CI job).

use crate::admission::{Admission, AdmissionConfig};
use crate::protocol::{parse_line, render_reject_tally, RejectReason, Request, N_REJECT_REASONS};
use crate::tenant::{BatchCounts, PendingMetrics, TenantDefaults, TenantSpec, TenantState};
use crate::wal::{Durability, RecoveryError, RecoveryReport, WalOpts, WalRecord};
use prefetch_core::Quarantine;
use prefetch_hash::FxHashMap;
use prefetch_telemetry::registry::MetricSet;
use prefetch_telemetry::registry::DEFAULT_SHARDS;
use prefetch_telemetry::{log as tlog, Histogram, MetricsRegistry};
use prefetch_trace::BlockId;
use prefetch_wal::{AppendLog, Tail};
use std::cell::Cell;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, Once};
use std::time::Instant;

/// Identifies the connection a request arrived on, so responses can be
/// routed back (stdin mode uses a single id 0).
pub type ConnId = u64;

/// Registry metric names for the per-reason reject tally, in
/// [`crate::protocol::REJECT_CODES`] order.
const REJECT_METRIC_NAMES: [&str; N_REJECT_REASONS] = [
    "rejects_tenant_limit",
    "rejects_memory_budget",
    "rejects_quarantined",
    "rejects_unknown_tenant",
    "rejects_duplicate",
    "rejects_bad_config",
];

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeOpts {
    /// Admission budgets.
    pub admission: AdmissionConfig,
    /// Defaults for `OPEN` options.
    pub defaults: TenantDefaults,
    /// Bounded per-tenant input queue: at most this many events per
    /// tenant per batch; the excess is shed with a typed response.
    pub queue_cap: usize,
    /// Per-tenant advice files are written under this directory.
    pub advice_dir: Option<PathBuf>,
    /// Echo `ADV` lines to the requesting connection (disable for load
    /// tests that only want the advice files and final reports).
    pub echo_advice: bool,
    /// Persist per-tenant prefetch trees as `pftree-snap/v1` snapshots
    /// under this directory: written at `CLOSE` and drain, restored
    /// (warm start) when a tenant of the same name `OPEN`s. A corrupt or
    /// unreadable snapshot is logged and ignored — the tenant opens cold.
    pub snapshot_dir: Option<PathBuf>,
    /// Crash durability: per-tenant write-ahead logs, group commit, and
    /// recovery (see [`crate::wal`]). An unusable WAL directory degrades
    /// the service to in-memory-only with a warning, never a hard exit.
    pub wal: WalOpts,
    /// Append `pfmetrics-snap/v1` JSONL metric snapshots to this file.
    /// Setting it also turns metric *recording* on — without it the
    /// registry is never built and the hot path pays only a branch.
    pub metrics_out: Option<PathBuf>,
    /// Write a metrics snapshot every this many processed events
    /// (checked at batch boundaries); `0` writes only the final
    /// snapshot at drain.
    pub metrics_every: u64,
    /// Per-tenant flight-recorder ring capacity (trace events); `0`
    /// disables tracing.
    pub trace_ring: usize,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            admission: AdmissionConfig::default(),
            defaults: TenantDefaults::default(),
            queue_cap: 1024,
            advice_dir: None,
            echo_advice: true,
            snapshot_dir: None,
            wal: WalOpts::default(),
            metrics_out: None,
            metrics_every: 0,
            trace_ring: 0,
        }
    }
}

/// Why a slot no longer holds live state.
#[derive(Debug)]
enum Gone {
    /// Closed by request; its `FINAL` line was emitted at close time.
    Closed,
    /// Quarantined after a panic, with retained counters and the final
    /// flight-recorder dump for the drain report. Never silently
    /// resurrected: later requests are refused with
    /// `REJECT <tenant> quarantined`.
    Quarantined {
        message: String,
        events: u64,
        skipped: u64,
        shed: u64,
        queue_hwm: u64,
        trace: Vec<String>,
    },
}

/// One tenant slot. The mutex makes slots shareable with pool workers;
/// it is uncontended (a tenant is flushed by exactly one worker per
/// batch) and poison is always recovered — a panic inside a flush is the
/// *expected* failure mode this service exists to contain.
#[derive(Default)]
struct Slot {
    state: Option<TenantState>,
    gone: Option<Gone>,
}

fn lock_slot(slot: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
    slot.lock().unwrap_or_else(|e| e.into_inner())
}

/// Service-wide counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Access events processed to advice.
    pub events: u64,
    /// Events dropped by backpressure.
    pub sheds: u64,
    /// Typed request refusals.
    pub rejects: u64,
    /// Malformed lines skipped.
    pub parse_errors: u64,
    /// Tenants admitted.
    pub opens: u64,
    /// Tenants closed by request.
    pub closes: u64,
    /// Tenants quarantined after a panic.
    pub quarantined: u64,
    /// Batches processed.
    pub batches: u64,
}

/// What one tenant's batch flush produced.
struct TenantFlush {
    responses: Vec<(ConnId, String)>,
    latencies_us: Vec<u64>,
    /// Set when the flush panicked: index of the event that was being
    /// processed, and the rendered panic payload.
    panicked: Option<(usize, String)>,
}

/// The multi-tenant advisor service. See the module docs for the fault
/// domains and the determinism contract.
pub struct Service {
    opts: ServeOpts,
    slots: Vec<Arc<Mutex<Slot>>>,
    names: Vec<Arc<str>>,
    index: FxHashMap<String, usize>,
    quarantine: Quarantine,
    admission: Admission,
    /// Service-wide counters (readable between batches).
    pub stats: ServiceStats,
    advice_latency_us: Histogram,
    shutdown: bool,
    started: Instant,
    /// Durability layer; `None` when no WAL directory is configured or
    /// when it was unusable at startup (see `wal_disabled`).
    wal: Option<Durability>,
    /// Why durability was disabled at startup, when it was requested
    /// but the directory could not be used.
    wal_disabled: Option<String>,
    /// Report of the recovery pass, when one ran.
    recovery: Option<RecoveryReport>,
    /// Sharded metrics registry; built only when `metrics_out` asks for
    /// recording, so the plain path stays unmetered.
    registry: Option<Arc<MetricsRegistry>>,
    /// Per-slot reject tallies, indexed like `slots` (grown lazily).
    tallies: Vec<[u64; N_REJECT_REASONS]>,
    /// Service-wide reject tally by [`RejectReason`] code.
    reject_global: [u64; N_REJECT_REASONS],
    /// `stats.events` at the last periodic metrics snapshot.
    metrics_last_events: u64,
    /// Metric snapshots written so far (the snapshot header counter).
    metrics_snapshots: u64,
}

impl Service {
    /// Build a service; creates the advice directory when configured.
    ///
    /// An unusable WAL directory does **not** fail construction: the
    /// service degrades to in-memory-only operation with a telemetry
    /// warning and a `wal=degraded` marker in `BYE` — losing durability
    /// must never take down an otherwise healthy advisor.
    pub fn new(opts: ServeOpts) -> std::io::Result<Self> {
        install_quiet_panic_hook();
        if let Some(dir) = &opts.advice_dir {
            std::fs::create_dir_all(dir)?;
        }
        if let Some(dir) = &opts.snapshot_dir {
            std::fs::create_dir_all(dir)?;
        }
        let mut wal_disabled = None;
        let wal = match &opts.wal.dir {
            Some(dir) => match Durability::new(dir, opts.wal.fsync, opts.wal.checkpoint_every) {
                Ok(d) => Some(d),
                Err(e) => {
                    let reason = format!("wal dir {} unusable: {e}", dir.display());
                    tlog::warn("serve_wal_disabled").str("reason", reason.clone()).emit();
                    wal_disabled = Some(reason);
                    None
                }
            },
            None => None,
        };
        let registry =
            opts.metrics_out.as_ref().map(|_| Arc::new(MetricsRegistry::new(DEFAULT_SHARDS)));
        Ok(Service {
            admission: Admission::new(opts.admission),
            opts,
            slots: Vec::new(),
            names: Vec::new(),
            index: FxHashMap::default(),
            // One panic quarantines: a tenant that took down a worker
            // once is never trusted again without operator action.
            quarantine: Quarantine::new(1),
            stats: ServiceStats::default(),
            advice_latency_us: Histogram::new(),
            shutdown: false,
            started: Instant::now(),
            wal,
            wal_disabled,
            recovery: None,
            registry,
            tallies: Vec::new(),
            reject_global: [0; N_REJECT_REASONS],
            metrics_last_events: 0,
            metrics_snapshots: 0,
        })
    }

    /// The live metrics registry, when `metrics_out` enabled recording.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.registry.as_deref()
    }

    /// Whether a `SHUTDOWN` request has been seen (the listener drains
    /// and exits after the current batch).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Tenants currently admitted.
    pub fn live_tenants(&self) -> usize {
        self.admission.live()
    }

    /// The advice-latency histogram (microseconds per event).
    pub fn advice_latency_us(&self) -> &Histogram {
        &self.advice_latency_us
    }

    fn is_quarantined(&self, idx: usize) -> bool {
        self.quarantine.is_quarantined(BlockId(idx as u64))
    }

    /// Process one batch of request lines and return the responses.
    ///
    /// Responses preserve per-tenant request order. Control requests are
    /// answered in line order; event advice for a tenant is grouped at
    /// the point its queue is flushed (inline when a control request for
    /// the same tenant needs the events applied first, otherwise at the
    /// end of the batch).
    pub fn process_batch(&mut self, lines: &[(ConnId, String)]) -> Vec<(ConnId, String)> {
        self.stats.batches += 1;
        let mut out: Vec<(ConnId, String)> = Vec::new();
        let mut pending: FxHashMap<usize, Vec<(ConnId, u64)>> = FxHashMap::default();
        let mut order: Vec<usize> = Vec::new();

        for (conn, raw) in lines {
            let conn = *conn;
            let req = match parse_line(raw) {
                Ok(None) => continue,
                Ok(Some(req)) => req,
                Err(e) => {
                    self.stats.parse_errors += 1;
                    if let Some(t) = &e.tenant {
                        if let Some(&i) = self.index.get(t) {
                            let charged = {
                                let mut guard = lock_slot(&self.slots[i]);
                                match guard.state.as_mut() {
                                    Some(state) => {
                                        state.skipped += 1;
                                        true
                                    }
                                    None => false,
                                }
                            };
                            if charged {
                                self.wal_append(i, &WalRecord::Skip);
                            }
                        }
                    }
                    out.push((conn, format!("ERR parse {}", e.message)));
                    continue;
                }
            };
            match req {
                Request::Event { tenant, block } => match self.index.get(&tenant) {
                    Some(&i) if !self.is_quarantined(i) => {
                        let first = !pending.contains_key(&i);
                        let batch = self.stats.batches;
                        // One lock serves both the liveness check and the
                        // first-enqueue trace record.
                        let gone = {
                            let mut guard = lock_slot(&self.slots[i]);
                            match guard.state.as_mut() {
                                None => true,
                                Some(state) => {
                                    if first {
                                        if let Some(fr) = state.flight_mut() {
                                            fr.record_kv("queue", "batch", batch);
                                        }
                                    }
                                    false
                                }
                            }
                        };
                        if gone {
                            self.reject(&mut out, conn, &tenant, RejectReason::UnknownTenant);
                            continue;
                        }
                        let queue = pending.entry(i).or_insert_with(|| {
                            order.push(i);
                            Vec::new()
                        });
                        if queue.len() >= self.opts.queue_cap {
                            self.stats.sheds += 1;
                            if let Some(state) = lock_slot(&self.slots[i]).state.as_mut() {
                                state.shed += 1;
                            }
                            self.wal_append(i, &WalRecord::Shed);
                            out.push((
                                conn,
                                format!("SHED {tenant} queue-full cap={}", self.opts.queue_cap),
                            ));
                        } else {
                            queue.push((conn, block));
                            // Logged at accept time: the WAL holds exactly
                            // the events that will be processed, in order.
                            self.wal_append(i, &WalRecord::Event(block));
                            if self.wal.as_ref().is_some_and(|w| w.logs.contains_key(&i)) {
                                self.record_flight(i, "wal", "block", block);
                            }
                        }
                    }
                    Some(&i) => {
                        debug_assert!(self.is_quarantined(i));
                        self.reject(&mut out, conn, &tenant, RejectReason::Quarantined);
                    }
                    None => self.reject(&mut out, conn, &tenant, RejectReason::UnknownTenant),
                },
                Request::Open { tenant, opts } => {
                    self.open_tenant(&mut out, conn, tenant, &opts);
                }
                Request::Stats { tenant } => match self.lookup_live(&tenant) {
                    Ok(i) => {
                        self.flush_and_absorb(i, &mut pending, &mut out);
                        let line = lock_slot(&self.slots[i])
                            .state
                            .as_ref()
                            .map(|s| (s.stats_line(), s.queue_hwm));
                        match line {
                            Some((line, queue_hwm)) => {
                                let tally = render_reject_tally(&self.tally(i));
                                out.push((
                                    conn,
                                    format!("{line} queue_hwm={queue_hwm} rejects={tally}"),
                                ));
                            }
                            // The inline flush itself quarantined it.
                            None => self.reject(&mut out, conn, &tenant, RejectReason::Quarantined),
                        }
                    }
                    Err(reason) => self.reject(&mut out, conn, &tenant, reason),
                },
                Request::Close { tenant } => match self.lookup_live(&tenant) {
                    Ok(i) => {
                        self.flush_and_absorb(i, &mut pending, &mut out);
                        let taken = {
                            let mut guard = lock_slot(&self.slots[i]);
                            let state = guard.state.take();
                            if state.is_some() {
                                guard.gone = Some(Gone::Closed);
                            }
                            state
                        };
                        match taken {
                            Some(mut state) => {
                                // Closing drops the state: drain its last
                                // batch's metric deltas first.
                                if let Some(reg) = self.registry.as_ref() {
                                    reg.update(&self.names[i], |m| {
                                        publish_pending(m, &state.pending_metrics);
                                    });
                                }
                                let line = state.final_line();
                                self.persist_tree(&state);
                                // Snapshot first, then the durable C: a
                                // crash in between replays the tenant
                                // live, never resurrects it half-closed.
                                self.wal_close(i, &tenant);
                                self.admission.release(state.charged_bytes);
                                self.stats.closes += 1;
                                let tally = render_reject_tally(&self.tally(i));
                                out.push((
                                    conn,
                                    format!("{line} queue_hwm={} rejects={tally}", state.queue_hwm),
                                ));
                            }
                            None => self.reject(&mut out, conn, &tenant, RejectReason::Quarantined),
                        }
                    }
                    Err(reason) => self.reject(&mut out, conn, &tenant, reason),
                },
                Request::Panic { tenant } => match self.lookup_live(&tenant) {
                    Ok(i) => {
                        // Events earlier in the batch keep sequential
                        // semantics: apply them before arming the hook.
                        self.flush_and_absorb(i, &mut pending, &mut out);
                        let armed = {
                            let mut guard = lock_slot(&self.slots[i]);
                            match guard.state.as_mut() {
                                Some(state) => {
                                    state.panic_armed = true;
                                    true
                                }
                                None => false,
                            }
                        };
                        if armed {
                            self.wal_append(i, &WalRecord::PanicArm);
                            out.push((conn, format!("OK panic-armed {tenant}")));
                        } else {
                            self.reject(&mut out, conn, &tenant, RejectReason::Quarantined)
                        }
                    }
                    Err(reason) => self.reject(&mut out, conn, &tenant, reason),
                },
                Request::Metrics => {
                    // A snapshot reflects every event accepted before it:
                    // apply everything queued so far, then render.
                    let active: Vec<usize> = order.to_vec();
                    for i in active {
                        self.flush_and_absorb(i, &mut pending, &mut out);
                    }
                    match self.registry.clone() {
                        Some(reg) => {
                            self.refresh_gauges();
                            let text = reg.snapshot().render_prometheus();
                            let mut n = 0u64;
                            for line in text.lines() {
                                out.push((conn, format!("METRIC {line}")));
                                n += 1;
                            }
                            out.push((conn, format!("OK metrics lines={n}")));
                        }
                        None => out.push((conn, "OK metrics lines=0 enabled=false".to_string())),
                    }
                }
                Request::Health => {
                    out.push((conn, self.health_line()));
                }
                Request::Shutdown => {
                    // Apply everything queued so far, then flag the drain.
                    let active: Vec<usize> = order.to_vec();
                    for i in active {
                        self.flush_and_absorb(i, &mut pending, &mut out);
                    }
                    self.shutdown = true;
                    out.push((conn, "OK shutdown".to_string()));
                }
            }
        }

        // Batch end: flush every tenant with queued events across the
        // pool workers. One tenant = one work item; results come back in
        // `order` (first-appearance) order, so the response stream is
        // independent of the worker count.
        let active: Vec<(usize, Vec<(ConnId, u64)>)> = order
            .into_iter()
            .filter_map(|i| {
                let events = pending.remove(&i)?;
                (!events.is_empty()).then_some((i, events))
            })
            .collect();
        if !active.is_empty() {
            let slots = &self.slots;
            let metrics_on = self.registry.is_some();
            let flushes = prefetch_pool::run_indexed(active.len(), |j| {
                let (idx, events) = &active[j];
                flush_tenant(&slots[*idx], events, metrics_on)
            });
            for ((idx, events), flush) in active.iter().zip(flushes) {
                self.absorb_flush(*idx, events, flush, &mut out);
            }
        }
        // Group commit BEFORE the responses leave this method: under
        // `--fsync always` every acknowledged line is durable.
        self.wal_commit_pass();
        self.maybe_write_metrics();
        out
    }

    /// Record one `key=value` flight-recorder stage for a live tenant
    /// (no-op when tracing is off or the tenant is gone). The payload is
    /// two words, so the disabled path really is one branch.
    fn record_flight(&self, idx: usize, stage: &'static str, key: &'static str, v: u64) {
        if self.opts.trace_ring == 0 {
            return;
        }
        if let Some(state) = lock_slot(&self.slots[idx]).state.as_mut() {
            if let Some(fr) = state.flight_mut() {
                fr.record_kv(stage, key, v);
            }
        }
    }

    /// This slot's reject tally (zeros when nothing was ever rejected).
    fn tally(&self, idx: usize) -> [u64; N_REJECT_REASONS] {
        self.tallies.get(idx).copied().unwrap_or([0; N_REJECT_REASONS])
    }

    /// The one-line `HEALTH` response: liveness plus the load/containment
    /// counters an operator triages with first.
    fn health_line(&self) -> String {
        let s = &self.stats;
        let wal = if self.wal.is_some() {
            "on"
        } else if self.wal_disabled.is_some() {
            "degraded"
        } else {
            "off"
        };
        format!(
            "HEALTH status=ok tenants={} opened={} quarantined={} sheds={} rejects={} \
             parse_errors={} batches={} wal={} metrics={} trace_ring={}",
            self.admission.live(),
            s.opens,
            s.quarantined,
            s.sheds,
            s.rejects,
            s.parse_errors,
            s.batches,
            wal,
            if self.registry.is_some() { "on" } else { "off" },
            self.opts.trace_ring,
        )
    }

    /// Append one record to a tenant's WAL; an append failure degrades
    /// that one tenant to in-memory-only (typed, logged, counted) while
    /// everything else keeps its durability.
    fn wal_append(&mut self, idx: usize, record: &WalRecord) {
        let Some(w) = self.wal.as_mut() else { return };
        if let Err(e) = w.append(idx, record) {
            self.degrade_tenant_wal(idx, &format!("append failed: {e}"));
        }
    }

    /// Retire a closing tenant's WAL: durable `C`, then delete its
    /// on-disk artifacts. The close-time snapshot was already saved, so
    /// after this the tenant's whole life collapses to the snapshot.
    fn wal_close(&mut self, idx: usize, tenant: &str) {
        let Some(w) = self.wal.as_mut() else { return };
        let sealed = match w.append(idx, &WalRecord::Close) {
            Ok(()) => match w.logs.get_mut(&idx) {
                Some(t) => match t.log.sync() {
                    Ok(()) => {
                        w.fsyncs += 1;
                        true
                    }
                    Err(_) => {
                        w.sync_errors += 1;
                        false
                    }
                },
                None => false,
            },
            Err(_) => false,
        };
        if sealed {
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
        if let Some(w) = self.wal.as_mut() {
            w.drop_log(idx);
            w.degraded_tenants += 1;
        }
        let mut trace = Vec::new();
        if let Some(state) = lock_slot(&self.slots[idx]).state.as_mut() {
            state.wal_state = "degraded";
            if let Some(fr) = state.flight() {
                trace = fr.dump_lines();
            }
        }
        tlog::warn("serve_wal_degraded")
            .str("tenant", self.names[idx].to_string())
            .str("reason", reason)
            .emit();
        // Losing durability is exactly the moment the request timeline
        // matters: dump the ring to the telemetry log.
        if !trace.is_empty() {
            tlog::warn("serve_wal_degraded_trace")
                .str("tenant", self.names[idx].to_string())
                .u64("lines", trace.len() as u64)
                .str("trace", trace.join(" | "))
                .emit();
        }
    }

    /// Batch-end durability pass: sync dirty logs when the group-commit
    /// policy says so (a failed sync degrades its tenant), then write
    /// any due checkpoint snapshots.
    fn wal_commit_pass(&mut self) {
        let (sync_failures, ckpt_due) = {
            let Some(w) = self.wal.as_mut() else { return };
            let failures = if w.commit.due() { w.sync_all() } else { Vec::new() };
            (failures, w.checkpoint_due())
        };
        for idx in sync_failures {
            self.degrade_tenant_wal(idx, "fsync failed");
        }
        for idx in ckpt_due {
            self.checkpoint_tenant(idx);
        }
    }

    /// Write one tenant's periodic checkpoint: rotate the previous
    /// generation aside, then save a fresh `pftree-snap/v1`. Failures
    /// only warn — checkpoints accelerate degraded recovery, they are
    /// not load-bearing for the sound (full-replay) path.
    fn checkpoint_tenant(&mut self, idx: usize) {
        let name = Arc::clone(&self.names[idx]);
        let (ckpt, prev) = match self.wal.as_ref() {
            Some(w) => (w.ckpt_path(&name), w.ckpt_prev_path(&name)),
            None => return,
        };
        let guard = lock_slot(&self.slots[idx]);
        let Some(state) = guard.state.as_ref() else { return };
        let Some(tree) = state.tree() else { return };
        if ckpt.exists() {
            let _ = std::fs::rename(&ckpt, &prev);
        }
        match tree.save_snapshot(&ckpt) {
            Ok(_) => {
                drop(guard);
                if let Some(w) = self.wal.as_mut() {
                    w.checkpoints += 1;
                }
                tlog::info("serve_wal_checkpoint").str("tenant", name.to_string()).emit();
            }
            Err(e) => {
                drop(guard);
                tlog::warn("serve_wal_checkpoint_failed")
                    .str("tenant", name.to_string())
                    .str("error", e.to_string())
                    .emit();
            }
        }
    }

    /// Look up a live tenant, with the typed reason when it is not.
    fn lookup_live(&self, tenant: &str) -> Result<usize, RejectReason> {
        match self.index.get(tenant) {
            Some(&i) if self.is_quarantined(i) => Err(RejectReason::Quarantined),
            Some(&i) => {
                if lock_slot(&self.slots[i]).state.is_some() {
                    Ok(i)
                } else {
                    Err(RejectReason::UnknownTenant)
                }
            }
            None => Err(RejectReason::UnknownTenant),
        }
    }

    fn reject(
        &mut self,
        out: &mut Vec<(ConnId, String)>,
        conn: ConnId,
        tenant: &str,
        reason: RejectReason,
    ) {
        self.stats.rejects += 1;
        self.reject_global[reason.index()] += 1;
        if let Some(&i) = self.index.get(tenant) {
            if self.tallies.len() <= i {
                self.tallies.resize(i + 1, [0; N_REJECT_REASONS]);
            }
            self.tallies[i][reason.index()] += 1;
        }
        out.push((conn, reason.render(tenant)));
    }

    fn open_tenant(
        &mut self,
        out: &mut Vec<(ConnId, String)>,
        conn: ConnId,
        tenant: String,
        opts: &[(String, String)],
    ) {
        if let Some(&i) = self.index.get(&tenant) {
            if self.is_quarantined(i) {
                return self.reject(out, conn, &tenant, RejectReason::Quarantined);
            }
            let guard = lock_slot(&self.slots[i]);
            if guard.state.is_some() {
                drop(guard);
                return self.reject(out, conn, &tenant, RejectReason::Duplicate);
            }
            // Closed slot: fall through and re-open in place.
        }
        let spec = match TenantSpec::from_opts(opts, &self.opts.defaults) {
            Ok(spec) => spec,
            Err(reason) => return self.reject(out, conn, &tenant, reason),
        };
        if let Err(reason) = self.admission.try_admit(spec.estimated_bytes()) {
            return self.reject(out, conn, &tenant, reason);
        }
        let mut state =
            match TenantState::new(&tenant, spec.clone(), self.opts.advice_dir.as_deref()) {
                Ok(state) => state,
                Err(e) => {
                    self.admission.release(spec.estimated_bytes());
                    return self.reject(
                        out,
                        conn,
                        &tenant,
                        RejectReason::BadConfig(format!("advice file: {e}")),
                    );
                }
            };
        let warm_from = self.try_warm_start(&tenant, &mut state);
        if self.opts.trace_ring > 0 {
            state.enable_flight(self.opts.trace_ring);
            if let Some(fr) = state.flight_mut() {
                fr.record_text(
                    "admission",
                    format!(
                        "cache={} nodes={} warm={}",
                        spec.cache_blocks,
                        spec.node_limit,
                        warm_from.is_some()
                    ),
                );
            }
        }
        // Durability: capture the warm-start base (so replay starts from
        // the very tree this tenant did, even after later checkpoints
        // rewrite the main snapshot), then open the tenant's log. Any
        // failure degrades this tenant to in-memory-only — an `OPEN`
        // is never refused over durability.
        let mut tenant_log = None;
        if let Some(w) = self.wal.as_mut() {
            let base = match &warm_from {
                Some(snap) => std::fs::copy(snap, w.base_path(&tenant)).is_ok(),
                None => false,
            };
            match w.create_log(&tenant, &spec, base) {
                Ok(tl) => {
                    state.wal_state = "on";
                    tenant_log = Some(tl);
                }
                Err(e) => {
                    w.degraded_tenants += 1;
                    state.wal_state = "degraded";
                    tlog::warn("serve_wal_degraded")
                        .str("tenant", tenant.clone())
                        .str("reason", format!("open failed: {e}"))
                        .emit();
                }
            }
        }
        let i = match self.index.get(&tenant) {
            Some(&i) => {
                let mut guard = lock_slot(&self.slots[i]);
                guard.state = Some(state);
                guard.gone = None;
                i
            }
            None => {
                let i = self.slots.len();
                self.slots.push(Arc::new(Mutex::new(Slot { state: Some(state), gone: None })));
                self.names.push(Arc::from(tenant.as_str()));
                self.index.insert(tenant.clone(), i);
                i
            }
        };
        if let (Some(w), Some(tl)) = (self.wal.as_mut(), tenant_log) {
            w.logs.insert(i, tl);
        }
        self.stats.opens += 1;
        out.push((conn, format!("OK open {tenant}")));
    }

    /// Warm-start a freshly-opened tenant from `<snapshot_dir>/<name>.pftree`
    /// when one exists. Restore failures (corrupt, truncated, version
    /// mismatch) are logged and ignored — the tenant opens cold; a bad
    /// snapshot must never refuse an otherwise-valid `OPEN`. A restored
    /// tree immediately re-prices the tenant's reservation to its exact
    /// measured bytes.
    /// Returns the snapshot path when a tree was installed, so the
    /// durability layer can capture it as the tenant's replay base.
    fn try_warm_start(&mut self, tenant: &str, state: &mut TenantState) -> Option<PathBuf> {
        let dir = self.opts.snapshot_dir.as_ref()?;
        let path = dir.join(format!("{tenant}.pftree"));
        if !path.exists() {
            return None;
        }
        match prefetch_tree::PrefetchTree::load_snapshot(&path) {
            Ok(tree) => {
                let nodes = tree.node_count() as u64;
                if state.warm_start(tree) {
                    let resident = state.resident_bytes();
                    let over = self.admission.recharge(state.charged_bytes, resident);
                    state.charged_bytes = resident;
                    tlog::info("serve_warm_start")
                        .str("tenant", tenant)
                        .u64("nodes", nodes)
                        .u64("resident_bytes", resident)
                        .emit();
                    if over {
                        self.log_over_budget();
                    }
                    Some(path)
                } else {
                    tlog::warn("serve_warm_start_dropped")
                        .str("tenant", tenant)
                        .str("reason", "policy keeps no tree")
                        .emit();
                    None
                }
            }
            Err(e) => {
                tlog::warn("serve_snapshot_unreadable")
                    .str("tenant", tenant)
                    .str("path", path.display().to_string())
                    .str("error", e.to_string())
                    .emit();
                None
            }
        }
    }

    /// Persist a tenant's tree under the snapshot directory (close and
    /// drain paths; quarantined tenants are deliberately not persisted —
    /// a state that just took down a worker is not worth resurrecting).
    fn persist_tree(&self, state: &TenantState) {
        let Some(dir) = &self.opts.snapshot_dir else { return };
        let Some(tree) = state.tree() else { return };
        let path = dir.join(format!("{}.pftree", state.name));
        match tree.save_snapshot(&path) {
            Ok(info) => {
                tlog::info("serve_snapshot_saved")
                    .str("tenant", state.name.to_string())
                    .u64("nodes", tree.node_count() as u64)
                    .u64("encoded_bytes", info.encoded_bytes as u64)
                    .bool("entropy_coded", info.entropy_coded)
                    .emit();
            }
            Err(e) => {
                tlog::warn("serve_snapshot_failed")
                    .str("tenant", state.name.to_string())
                    .str("error", e.to_string())
                    .emit();
            }
        }
    }

    fn log_over_budget(&self) {
        tlog::warn("serve_budget_exceeded")
            .u64("reserved_bytes", self.admission.reserved_bytes())
            .emit();
    }

    /// Flush one tenant's queued events inline (control-request path).
    fn flush_and_absorb(
        &mut self,
        idx: usize,
        pending: &mut FxHashMap<usize, Vec<(ConnId, u64)>>,
        out: &mut Vec<(ConnId, String)>,
    ) {
        let Some(events) = pending.get_mut(&idx) else { return };
        if events.is_empty() {
            return;
        }
        let events = std::mem::take(events);
        let flush = flush_tenant(&self.slots[idx], &events, self.registry.is_some());
        self.absorb_flush(idx, &events, flush, out);
    }

    /// Fold one tenant's flush results into service state and responses.
    fn absorb_flush(
        &mut self,
        idx: usize,
        events: &[(ConnId, u64)],
        flush: TenantFlush,
        out: &mut Vec<(ConnId, String)>,
    ) {
        self.stats.events += flush.latencies_us.len() as u64;
        for us in &flush.latencies_us {
            self.advice_latency_us.record(*us);
        }
        // Exact accounting: re-price the reservation from the tenant's
        // measured footprint now that this batch's events are applied.
        // Skipped on a panic — quarantine releases the whole reservation.
        if flush.panicked.is_none() {
            let (old, new) = {
                let mut guard = lock_slot(&self.slots[idx]);
                match guard.state.as_mut() {
                    Some(state) => {
                        let resident = state.resident_bytes();
                        let old = state.charged_bytes;
                        state.charged_bytes = resident;
                        (old, resident)
                    }
                    None => (0, 0),
                }
            };
            if old != new && self.admission.recharge(old, new) {
                self.log_over_budget();
            }
        }
        if self.opts.echo_advice {
            out.extend(flush.responses);
        }
        if let Some((at, message)) = flush.panicked {
            let trace = self.quarantine_tenant(idx, &message);
            let name = Arc::clone(&self.names[idx]);
            let conn = events.get(at).map_or(0, |(c, _)| *c);
            out.push((conn, format!("PANIC {name} quarantined err={message:?}")));
            // The flight-recorder dump rides along with the PANIC line:
            // the last moments of the request lifecycle, already ordered.
            for line in &trace {
                out.push((conn, format!("TRACE {name} {line}")));
            }
            // Events behind the panic are refused explicitly, never
            // silently dropped.
            for (conn, _) in &events[(at + 1).min(events.len())..] {
                self.reject(out, *conn, &name, RejectReason::Quarantined);
            }
        }
    }

    /// Retire a panicked tenant: drop its state (freeing its budget),
    /// retain its counters and flight-recorder dump for the drain report,
    /// and record it in the quarantine so it is never silently
    /// resurrected. Returns the trace dump for immediate emission.
    fn quarantine_tenant(&mut self, idx: usize, message: &str) -> Vec<String> {
        let mut guard = lock_slot(&self.slots[idx]);
        let (events, skipped, shed, charged, queue_hwm, trace) = match guard.state.take() {
            Some(mut state) => {
                state.flush_advice();
                let trace = state.flight().map(|fr| fr.dump_lines()).unwrap_or_default();
                // The dying tenant still publishes the events it served
                // before the panic: drain its pending deltas now, before
                // the state drops.
                if let Some(reg) = self.registry.as_ref() {
                    reg.update(&self.names[idx], |m| {
                        publish_pending(m, &state.pending_metrics);
                    });
                }
                (state.seq, state.skipped, state.shed, state.charged_bytes, state.queue_hwm, trace)
            }
            None => (0, 0, 0, 0, 0, Vec::new()),
        };
        guard.gone = Some(Gone::Quarantined {
            message: message.to_string(),
            events,
            skipped,
            shed,
            queue_hwm,
            trace: trace.clone(),
        });
        drop(guard);
        // Make the poisonous history durable and keep the file: recovery
        // replays it and reproduces this quarantine faithfully.
        if let Some(w) = self.wal.as_mut() {
            if let Some(t) = w.logs.get_mut(&idx) {
                match t.log.sync() {
                    Ok(()) => w.fsyncs += 1,
                    Err(_) => w.sync_errors += 1,
                }
            }
            w.drop_log(idx);
        }
        self.quarantine.record_failure(BlockId(idx as u64));
        if charged > 0 {
            self.admission.release(charged);
        }
        self.stats.quarantined += 1;
        tlog::warn("serve_tenant_quarantined")
            .str("tenant", self.names[idx].to_string())
            .str("err", message)
            .emit();
        trace
    }

    /// Graceful drain: deterministic per-tenant `FINAL` reports in
    /// admission order (quarantined tenants report their retained
    /// counters), then a `BYE` summary.
    pub fn drain(&mut self) -> Vec<String> {
        // Final metrics snapshot first, while every tenant is still live.
        if self.opts.metrics_out.is_some() {
            self.write_metrics_snapshot();
        }
        let mut out = Vec::new();
        for i in 0..self.slots.len() {
            let tally = render_reject_tally(&self.tally(i));
            let mut guard = lock_slot(&self.slots[i]);
            if let Some(state) = guard.state.as_mut() {
                let line = state.final_line();
                out.push(format!("{line} queue_hwm={} rejects={tally}", state.queue_hwm));
                self.persist_tree(state);
            } else if let Some(Gone::Quarantined {
                message,
                events,
                skipped,
                shed,
                queue_hwm,
                trace,
            }) = &guard.gone
            {
                out.push(format!(
                    "FINAL {} events={events} skipped={skipped} shed={shed} quarantined=true \
                     err={message:?} queue_hwm={queue_hwm} rejects={tally}",
                    self.names[i]
                ));
                for line in trace {
                    out.push(format!("TRACE {} {line}", self.names[i]));
                }
            }
            // Closed tenants already reported at close time.
        }
        // Final durability pass: whatever is still dirty becomes durable
        // (a clean drain leaves resumable logs — `--recover` after a
        // graceful shutdown restores the live tenants too).
        if let Some(w) = self.wal.as_mut() {
            // Tenants are already drained; sync_all counts any failures.
            let _ = w.sync_all();
        }
        let s = &self.stats;
        let mut bye = format!(
            "BYE tenants={} events={} sheds={} rejects={} parse_errors={} quarantined={}",
            s.opens, s.events, s.sheds, s.rejects, s.parse_errors, s.quarantined
        );
        bye.push_str(&self.durability_fields());
        out.push(bye);
        self.log_summary();
        out
    }

    /// The durability/recovery fields appended to `BYE` (stable order,
    /// always rendered so consumers can rely on their presence).
    fn durability_fields(&self) -> String {
        let mut s = match &self.wal {
            Some(w) => format!(
                " wal=on wal_appends={} wal_fsyncs={} wal_sync_errors={} wal_degraded={} \
                 checkpoints={}",
                w.appends, w.fsyncs, w.sync_errors, w.degraded_tenants, w.checkpoints
            ),
            None if self.wal_disabled.is_some() => " wal=degraded".to_string(),
            None => " wal=off".to_string(),
        };
        if let Some(r) = &self.recovery {
            s.push_str(&format!(
                " recovered_replayed={} recovered_degraded={} recovered_closed={} \
                 recovered_quarantined={} replayed_events={}",
                r.replayed, r.degraded, r.closed, r.quarantined, r.replayed_events
            ));
        }
        s
    }

    /// Refresh the point-in-time gauges the flush path cannot maintain
    /// incrementally: per-tenant queue high-water marks and calibration
    /// accumulators, plus the service-wide counters and the per-reason
    /// reject tally. Called right before each snapshot/exposition so the
    /// rendered values are current.
    fn refresh_gauges(&mut self) {
        let Some(reg) = self.registry.clone() else { return };
        for i in 0..self.slots.len() {
            let (queue_hwm, cal, pending) = {
                let mut guard = lock_slot(&self.slots[i]);
                let Some(state) = guard.state.as_mut() else { continue };
                (
                    state.queue_hwm,
                    state.calibration().cloned(),
                    std::mem::take(&mut state.pending_metrics),
                )
            };
            reg.update(&self.names[i], |m| {
                publish_pending(m, &pending);
                m.gauge_set("queue_hwm", queue_hwm);
                if let Some(c) = &cal {
                    m.fgauge_set("cal_benefit_err", c.benefit_error());
                    m.fgauge_set("cal_eject_err", c.eject_error());
                    m.fgauge_set("cal_pred_benefit_ms", c.predicted_benefit_ms());
                    m.fgauge_set("cal_real_benefit_ms", c.realized_benefit_ms());
                    m.fgauge_set("cal_pred_eject_ms", c.predicted_eject_ms());
                    m.fgauge_set("cal_real_eject_ms", c.realized_eject_ms());
                }
            });
        }
        let s = self.stats;
        let live = self.admission.live() as u64;
        let rejects = self.reject_global;
        reg.update("", |m| {
            m.gauge_set("tenants_live", live);
            m.gauge_set("tenants_opened", s.opens);
            m.gauge_set("service_events", s.events);
            m.gauge_set("sheds", s.sheds);
            m.gauge_set("rejects", s.rejects);
            m.gauge_set("parse_errors", s.parse_errors);
            m.gauge_set("quarantined", s.quarantined);
            m.gauge_set("batches", s.batches);
            for (name, n) in REJECT_METRIC_NAMES.into_iter().zip(rejects) {
                m.gauge_set(name, n);
            }
        });
    }

    /// Batch-boundary snapshot cadence: write a snapshot once
    /// `metrics_every` further events have been processed. Cadence is
    /// driven by the deterministic event counter, never the wall clock,
    /// so snapshot files are byte-identical at any `--threads N`.
    fn maybe_write_metrics(&mut self) {
        let every = self.opts.metrics_every;
        if every == 0 || self.registry.is_none() {
            return;
        }
        if self.stats.events - self.metrics_last_events < every {
            return;
        }
        self.metrics_last_events = self.stats.events;
        self.write_metrics_snapshot();
    }

    /// Append one `pfmetrics-snap/v1` snapshot (header line + the
    /// `pfmetrics/v1` JSONL body) to the `metrics_out` file. Write
    /// failures warn and keep serving — metrics are never load-bearing.
    fn write_metrics_snapshot(&mut self) {
        let Some(path) = self.opts.metrics_out.clone() else { return };
        self.refresh_gauges();
        let Some(reg) = self.registry.as_ref() else { return };
        let snap = reg.snapshot();
        self.metrics_snapshots += 1;
        let mut buf = format!(
            "{{\"schema\":\"pfmetrics-snap/v1\",\"snapshot\":{},\"events\":{}}}\n",
            self.metrics_snapshots, self.stats.events
        );
        buf.push_str(&snap.render_jsonl());
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(buf.as_bytes()));
        if let Err(e) = written {
            tlog::warn("serve_metrics_write_failed")
                .str("path", path.display().to_string())
                .str("error", e.to_string())
                .emit();
        }
    }

    /// Emit a live-stats record to the telemetry log (the listener calls
    /// this periodically; with `--log-json` these become the service's
    /// JSONL events endpoint).
    pub fn log_live_stats(&self) {
        let s = &self.stats;
        tlog::info("serve_stats")
            .u64("tenants_live", self.admission.live() as u64)
            .u64("tenants_opened", s.opens)
            .u64("events", s.events)
            .u64("sheds", s.sheds)
            .u64("rejects", s.rejects)
            .u64("parse_errors", s.parse_errors)
            .u64("quarantined", s.quarantined)
            .u64("batches", s.batches)
            .u64("reserved_bytes", self.admission.reserved_bytes())
            .u64("advice_p99_us", self.advice_latency_us.p99())
            .emit();
    }

    fn log_summary(&self) {
        let s = &self.stats;
        let elapsed = self.started.elapsed().as_secs_f64();
        tlog::info("serve_drain")
            .u64("tenants_opened", s.opens)
            .u64("events", s.events)
            .u64("sheds", s.sheds)
            .u64("rejects", s.rejects)
            .u64("parse_errors", s.parse_errors)
            .u64("quarantined", s.quarantined)
            .f64("elapsed_s", elapsed)
            .f64("events_per_sec", if elapsed > 0.0 { s.events as f64 / elapsed } else { 0.0 })
            .u64("advice_p50_us", self.advice_latency_us.p50())
            .u64("advice_p99_us", self.advice_latency_us.p99())
            .emit();
    }

    // -- recovery -----------------------------------------------------------

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
    fn recover_tenant(&mut self, name: &str, path: &PathBuf, report: &mut RecoveryReport) {
        let scan = match prefetch_wal::scan(path) {
            Ok(scan) => scan,
            Err(e) => {
                return self.quarantine_recovered(name, RecoveryError::Io(e.to_string()), report);
            }
        };
        match &scan.tail {
            Tail::Corrupt { at, reason } => {
                return self.quarantine_recovered(
                    name,
                    RecoveryError::Corrupt { at: *at, reason: reason.clone() },
                    report,
                );
            }
            Tail::Torn { .. } => report.torn_truncated += 1,
            Tail::Clean => {}
        }
        let records = match crate::wal::decode_log(&scan.records) {
            Ok(records) => records,
            Err(e) => return self.quarantine_recovered(name, e, report),
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
            return self.quarantine_recovered(
                name,
                RecoveryError::AdmissionRefused(reason.render(name)),
                report,
            );
        }
        let events = records.iter().filter(|r| matches!(r, WalRecord::Event(_))).count() as u64;
        let cap = self.opts.wal.recover_cap_events;
        let mut state = match TenantState::new(name, spec.clone(), self.opts.advice_dir.as_deref())
        {
            Ok(state) => state,
            Err(e) => {
                self.admission.release(spec.estimated_bytes());
                return self.quarantine_recovered(
                    name,
                    RecoveryError::Io(format!("advice file: {e}")),
                    report,
                );
            }
        };
        state.wal_state = "on";
        if self.opts.trace_ring > 0 {
            state.enable_flight(self.opts.trace_ring);
            if let Some(fr) = state.flight_mut() {
                fr.record_text(
                    "admission",
                    format!("recovered cache={} nodes={}", spec.cache_blocks, spec.node_limit),
                );
            }
        }
        if cap > 0 && events > cap {
            self.recover_degraded(name, &mut state, &records, events, report);
        } else if !self.recover_replayed(name, &mut state, &records, base, report) {
            return; // quarantined during replay; slot already registered
        }
        // Resume the log in place (truncating any torn tail) and
        // register the live slot.
        let resumed = AppendLog::resume(path, scan.valid_len);
        let idx = self.register_recovered(name, state);
        if let Some(w) = self.wal.as_mut() {
            match resumed {
                Ok(log) => {
                    w.logs.insert(idx, crate::wal::TenantLog { log, since_ckpt: 0 });
                }
                Err(e) => {
                    w.degraded_tenants += 1;
                    if let Some(s) = lock_slot(&self.slots[idx]).state.as_mut() {
                        s.wal_state = "degraded";
                    }
                    tlog::warn("serve_wal_degraded")
                        .str("tenant", name.to_string())
                        .str("reason", format!("resume failed: {e}"))
                        .emit();
                }
            }
        }
        // Exact accounting, as after any flush.
        let (old, new) = {
            let mut guard = lock_slot(&self.slots[idx]);
            match guard.state.as_mut() {
                Some(s) => {
                    let resident = s.resident_bytes();
                    let old = s.charged_bytes;
                    s.charged_bytes = resident;
                    (old, resident)
                }
                None => (0, 0),
            }
        };
        if old != new && self.admission.recharge(old, new) {
            self.log_over_budget();
        }
        self.stats.opens += 1;
    }

    /// Full replay: feed every logged record through the real event
    /// path. Returns `false` when a reproduced panic quarantined the
    /// tenant (the slot is registered and quarantined before returning).
    fn recover_replayed(
        &mut self,
        name: &str,
        state: &mut TenantState,
        records: &[WalRecord],
        base: bool,
        report: &mut RecoveryReport,
    ) -> bool {
        if base {
            // The live tenant warm-started; replay must start from the
            // captured base tree or the streams diverge.
            let base_path = self.wal.as_ref().expect("recover requires wal").base_path(name);
            match prefetch_tree::PrefetchTree::load_snapshot(&base_path) {
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
                    let events =
                        records.iter().filter(|r| matches!(r, WalRecord::Event(_))).count() as u64;
                    self.recover_degraded(name, state, records, events, report);
                    return true;
                }
            }
        }
        let mut replayed = 0u64;
        for (i, record) in records.iter().enumerate() {
            SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
            let result = catch_unwind(AssertUnwindSafe(|| crate::wal::apply_record(state, record)));
            SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
            match result {
                Ok(true) => replayed += 1,
                Ok(false) => {}
                Err(payload) => {
                    // The panic reproduces: quarantine exactly like the
                    // live run did.
                    let message = payload_message(payload);
                    state.flush_advice();
                    let (events, skipped, shed) = (state.seq, state.skipped, state.shed);
                    let trace = state.flight().map(|fr| fr.dump_lines()).unwrap_or_default();
                    let idx = self.register_recovered_gone(
                        name,
                        Gone::Quarantined {
                            message: message.clone(),
                            events,
                            skipped,
                            shed,
                            queue_hwm: state.queue_hwm,
                            trace,
                        },
                    );
                    self.quarantine.record_failure(BlockId(idx as u64));
                    self.admission.release(state.spec.estimated_bytes());
                    self.stats.quarantined += 1;
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
                    return false;
                }
            }
        }
        state.recovered = "replayed";
        report.replayed += 1;
        report.replayed_events += replayed;
        true
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
        events: u64,
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
            match prefetch_tree::PrefetchTree::load_snapshot(&path) {
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
        state.seq = events;
        state.skipped = records.iter().filter(|r| matches!(r, WalRecord::Skip)).count() as u64;
        state.shed = records.iter().filter(|r| matches!(r, WalRecord::Shed)).count() as u64;
        state.panic_armed = matches!(records.last(), Some(WalRecord::PanicArm));
        state.recovered = "degraded";
        report.degraded += 1;
    }

    /// Register a recovered live tenant in the registry (fresh service:
    /// names cannot collide).
    fn register_recovered(&mut self, name: &str, state: TenantState) -> usize {
        let i = self.slots.len();
        self.slots.push(Arc::new(Mutex::new(Slot { state: Some(state), gone: None })));
        self.names.push(Arc::from(name));
        self.index.insert(name.to_string(), i);
        i
    }

    /// Register a recovered-but-gone tenant (quarantined at recovery).
    fn register_recovered_gone(&mut self, name: &str, gone: Gone) -> usize {
        let i = self.slots.len();
        self.slots.push(Arc::new(Mutex::new(Slot { state: None, gone: Some(gone) })));
        self.names.push(Arc::from(name));
        self.index.insert(name.to_string(), i);
        i
    }

    /// Quarantine a tenant that could not be recovered: the slot exists
    /// (so requests get typed `REJECT ... quarantined` answers), the
    /// damaged log stays on disk for postmortem, and the failure is a
    /// typed entry in the report. Never aborts recovery.
    fn quarantine_recovered(
        &mut self,
        name: &str,
        error: RecoveryError,
        report: &mut RecoveryReport,
    ) {
        let message = error.to_string();
        let idx = self.register_recovered_gone(
            name,
            Gone::Quarantined {
                message: message.clone(),
                events: 0,
                skipped: 0,
                shed: 0,
                queue_hwm: 0,
                trace: Vec::new(),
            },
        );
        self.quarantine.record_failure(BlockId(idx as u64));
        self.stats.quarantined += 1;
        report.quarantined += 1;
        report.errors.push((name.to_string(), message.clone()));
        tlog::warn("serve_recovery_quarantined")
            .str("tenant", name.to_string())
            .str("err", message)
            .emit();
    }

    /// The report of the recovery pass, when `recover` ran.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Arm injected durability faults on `tenant`'s live WAL (fault-drill
    /// support: chaos tests hand in a [`prefetch_wal::WriteFaults`]
    /// schedule, e.g. `prefetch_disk::DurabilityInjector`). Returns false
    /// when the tenant has no live log to arm.
    pub fn inject_wal_faults(
        &mut self,
        tenant: &str,
        faults: Box<dyn prefetch_wal::WriteFaults>,
    ) -> bool {
        let Some(&idx) = self.index.get(tenant) else { return false };
        let Some(w) = self.wal.as_mut() else { return false };
        match w.logs.get_mut(&idx) {
            Some(t) => {
                t.log.set_faults(Some(faults));
                true
            }
            None => false,
        }
    }
}

thread_local! {
    /// True while this worker runs a tenant flush under `catch_unwind`:
    /// the panic hook stays silent (the panic becomes a typed `PANIC`
    /// response and a quarantine, so the default hook's backtrace spam
    /// would only obscure the service's real output).
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

fn install_quiet_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Render a panic payload the way the sweep harness does.
fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Fold a tenant's pending metric deltas into its registry cells. Called
/// inside a `MetricsRegistry::update` at the drain points: every
/// snapshot/exposition (via `refresh_gauges`) and the close/quarantine
/// teardowns — the last flush's deltas survive the state drop.
fn publish_pending(m: &mut MetricSet, pending: &PendingMetrics) {
    if pending.is_empty() {
        return;
    }
    m.add("events", pending.events);
    m.add("demand_hits", pending.demand_hits);
    m.add("prefetch_hits", pending.prefetch_hits);
    m.add("misses", pending.misses);
    m.add("prefetches", pending.prefetches);
    m.record_many("stall_us", &pending.stall_us);
}

/// Apply one tenant's queued events in order, under `catch_unwind`.
///
/// Responses produced before a panic are preserved (pushed through a
/// mutex the unwinding cannot tear), so a tenant that dies mid-batch
/// still delivers the advice it computed. Registry-bound measurements
/// fold into the tenant's own [`PendingMetrics`] under the slot lock the
/// flush already holds — the shared registry is never touched here; the
/// snapshot/exposition paths drain it later. A panic loses nothing: the
/// folds already applied stay in the state, and the quarantine drain
/// publishes them. Runs on a pool worker; touches only the one slot it
/// was given.
fn flush_tenant(slot: &Mutex<Slot>, events: &[(ConnId, u64)], metrics_on: bool) -> TenantFlush {
    // One scratch mutex instead of one per collection: the per-event
    // publish is a single uncontended lock, and unwinding cannot tear
    // what was already pushed. Metric deltas accumulate here too — the
    // scratch is flush-local and cache-hot, where the per-tenant
    // `PendingMetrics` is one of hundreds and almost always cold.
    struct Scratch {
        responses: Vec<(ConnId, String)>,
        latencies: Vec<u64>,
        counts: BatchCounts,
        stall_us: Vec<u64>,
    }
    let scratch: Mutex<Scratch> = Mutex::new(Scratch {
        responses: Vec::with_capacity(events.len()),
        latencies: Vec::with_capacity(events.len()),
        counts: BatchCounts::default(),
        stall_us: if metrics_on { Vec::with_capacity(events.len()) } else { Vec::new() },
    });
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut guard = lock_slot(slot);
        let Some(state) = guard.state.as_mut() else {
            return;
        };
        // Batch composition is listener-formed, so the high-water mark
        // is deterministic at any worker count.
        state.queue_hwm = state.queue_hwm.max(events.len() as u64);
        if let Some(fr) = state.flight_mut() {
            fr.record_kv("dispatch", "events", events.len() as u64);
        }
        for (conn, block) in events {
            let t0 = Instant::now();
            let outcome = state.process_event_full(*block);
            let us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            let mut s = scratch.lock().unwrap_or_else(|e| e.into_inner());
            if metrics_on {
                s.counts.fold(&outcome);
                // Whole microseconds of *virtual* stall: no wall clock,
                // so merged histograms are bit-identical across runs.
                s.stall_us.push((outcome.stall_ms * 1000.0).round() as u64);
            }
            s.latencies.push(us);
            s.responses.push((*conn, outcome.line));
        }
        // Reaching here means every event was served. Bank the metric
        // deltas and record the "response" stage on the lock this flush
        // already holds. A panicking flush records no response — the
        // quarantine dump is the record.
        if metrics_on {
            let (counts, stalls) = {
                let mut s = scratch.lock().unwrap_or_else(|e| e.into_inner());
                (std::mem::take(&mut s.counts), std::mem::take(&mut s.stall_us))
            };
            state.pending_metrics.fold_batch(&counts, &stalls);
        }
        if let Some(fr) = state.flight_mut() {
            fr.record_kv("response", "n", events.len() as u64);
        }
    }));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
    let Scratch { responses, latencies, counts, stall_us } =
        scratch.into_inner().unwrap_or_else(|e| e.into_inner());
    if metrics_on && counts.events > 0 {
        // Only a panic leaves deltas here: the tenant still banks the
        // events it served before dying (its state is only taken later,
        // by the quarantine in `absorb_flush`).
        let mut guard = lock_slot(slot);
        if let Some(state) = guard.state.as_mut() {
            state.pending_metrics.fold_batch(&counts, &stall_us);
        }
    }
    let panicked = match result {
        Ok(()) => None,
        Err(payload) => Some((responses.len(), payload_message(payload))),
    };
    TenantFlush { responses, latencies_us: latencies, panicked }
}
