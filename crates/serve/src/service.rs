//! The multi-tenant advisor service core: route, batch, flush.
//!
//! [`Service`] owns the tenant registry and processes request lines in
//! batches. Within a batch, per-tenant event queues are built in arrival
//! order and then flushed across the `prefetch-pool` workers — one tenant
//! is one work item, so the pool spreads thousands of tenants over the
//! cores while each tenant's own events stay strictly ordered. Every
//! flush runs under its own `catch_unwind`: a panicking
//! tenant (chaos hook or real policy bug) is retired to
//! [`Slot::Quarantined`] and reported with a typed `PANIC` response; its
//! siblings — including those sharing the same worker — never notice.
//!
//! `Service` is one type split by stage: this module routes, batches and
//! flushes; `wal` appends and commits; `recovery` replays at start-up;
//! `report` renders (drain, `HEALTH`, `METRICS`, telemetry records).
//!
//! ## Tenant lifecycle
//!
//! A tenant is one registry entry holding one [`Slot`] — `Live`, `Closed`
//! or `Quarantined` — and that enum is the only record of liveness.
//! Routing reads it once per tenant per batch, under the slot lock taken
//! when the tenant first appears, and remembers the answer until an
//! inline `CLOSE` or panic changes it. Entries are created in one place
//! ([`Service::register`]) and retired to `Quarantined` in one place
//! ([`Service::quarantine`]): live, during replay, or never recovered.
//!
//! ## Fault domains
//!
//! * **tenant** — panic, malformed input, memory blowup: contained by
//!   `catch_unwind`, per-tenant node budgets, and per-tenant skip
//!   counters; the blast radius is one tenant.
//! * **shard (worker)** — a pool worker only ever holds one tenant's lock
//!   at a time and the panic never crosses the `catch_unwind`, so the
//!   slot is retired by the dispatch thread after the worker has let go.
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
use crate::lines::LineBuf;
use crate::protocol::{parse_line, RejectReason, Request, N_REJECT_REASONS};
use crate::report::report_suffix;
use crate::tenant::{TenantDefaults, TenantSpec, TenantState};
use crate::wal::{Durability, RecoveryReport, WalOpts, WalRecord};
use prefetch_hash::FxHashMap;
use prefetch_telemetry::{log as tlog, MetricsRegistry};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Identifies the connection a request arrived on, so responses can be
/// routed back (stdin mode uses a single id 0).
pub type ConnId = u64;

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
    /// Persist per-tenant prefetch trees as `pftree-snap/v2` snapshots
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

/// One tenant's lifecycle state — the only record of whether it is live.
pub(crate) enum Slot {
    /// Admitted and serving.
    Live(Box<TenantState>),
    /// Closed by request; its `FINAL` line was emitted at close time and
    /// the name can be opened again, in place.
    Closed,
    /// Retired after a panic or an unrecoverable log, with retained
    /// counters and the final flight-recorder dump for the drain report.
    /// Never silently resurrected: later requests are refused with
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

impl Slot {
    /// The live state, or the typed refusal a request for this tenant
    /// gets.
    pub(crate) fn live(&mut self) -> Result<&mut TenantState, RejectReason> {
        match self {
            Slot::Live(state) => Ok(state),
            Slot::Closed => Err(RejectReason::UnknownTenant),
            Slot::Quarantined { .. } => Err(RejectReason::Quarantined),
        }
    }

    /// Take the live state out, leaving the slot `Closed`; or the typed
    /// refusal, leaving it as it was.
    fn take(&mut self) -> Result<TenantState, RejectReason> {
        self.live()?;
        let Slot::Live(state) = std::mem::replace(self, Slot::Closed) else {
            unreachable!("checked live above")
        };
        Ok(*state)
    }
}

/// One tenant's registry entry. The `Arc` lets a flush hand the slot to
/// a pool helper, which outlives the batch; the mutex is uncontended (a
/// tenant is flushed by exactly one worker per batch) and poison is
/// always recovered — a panic inside a flush is the *expected* failure
/// mode this service exists to contain.
pub(crate) struct Tenant {
    pub(crate) name: Arc<str>,
    pub(crate) slot: Arc<Mutex<Slot>>,
    /// Refusals addressed to this name, by [`RejectReason`] code.
    pub(crate) rejects: [u64; N_REJECT_REASONS],
}

pub(crate) fn lock_slot(slot: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
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

/// One tenant's share of the batch being routed.
#[derive(Default)]
struct Queued {
    /// Accepted events awaiting the flush, in arrival order. The vector
    /// comes back after each flush and is reused.
    events: Vec<(ConnId, u64)>,
    /// Whether an event was accepted for the tenant this batch, which
    /// puts it in [`Batch::order`].
    queued: bool,
    /// The tenant's liveness as read under its slot lock; cleared when an
    /// inline `CLOSE` or panic retires the state, so the next event reads
    /// it again.
    live: bool,
}

/// Routing state of the batch in progress. The service keeps it from
/// batch to batch, so its vectors keep their capacity.
#[derive(Default)]
struct Batch {
    /// Every tenant's share of the batch, by registry index.
    queues: Vec<Queued>,
    /// The tenants with an event accepted this batch, in first-appearance
    /// order: the flush order, whatever the worker count.
    order: Vec<usize>,
    /// The batch's responses, in the order they leave.
    out: LineBuf,
}

impl Batch {
    /// Return a flushed tenant's event vector, emptied, for reuse.
    fn give_back(&mut self, i: usize, mut events: Vec<(ConnId, u64)>) {
        events.clear();
        self.queues[i].events = events;
    }

    /// Forget the batch's routing (every queue was flushed empty).
    fn reset(&mut self) {
        for &i in &self.order {
            let queue = &mut self.queues[i];
            debug_assert!(queue.events.is_empty(), "a batch ends flushed");
            (queue.queued, queue.live) = (false, false);
        }
        self.order.clear();
    }
}

/// One tenant's share of a pool flush: its registry index, its slot,
/// and the events to apply.
struct Flushing {
    i: usize,
    slot: Arc<Mutex<Slot>>,
    events: Vec<(ConnId, u64)>,
}

/// What one tenant's batch flush produced, besides the `ADV` lines it
/// left in the tenant's `responses` buffer.
struct TenantFlush {
    /// Events served.
    served: usize,
    /// The tenant's re-priced reservation, `(old, new)` bytes, measured
    /// under the lock the flush held. `(0, 0)` — nothing to apply — when
    /// the flush panicked: quarantine releases the whole reservation.
    repriced: (u64, u64),
    /// Set when the flush panicked: index of the event that was being
    /// processed, and the rendered panic payload.
    panicked: Option<(usize, String)>,
}

/// The multi-tenant advisor service. See the module docs for the fault
/// domains and the determinism contract.
pub struct Service {
    pub(crate) opts: ServeOpts,
    /// Every tenant ever admitted or recovered, in admission order.
    pub(crate) tenants: Vec<Tenant>,
    index: FxHashMap<String, usize>,
    pub(crate) admission: Admission,
    /// Service-wide counters (readable between batches).
    pub stats: ServiceStats,
    shutdown: bool,
    pub(crate) started: Instant,
    /// Durability layer; `None` when no WAL directory is configured or
    /// when it was unusable at startup (see `wal_disabled`).
    pub(crate) wal: Option<Durability>,
    /// Why durability was disabled at startup, when it was requested
    /// but the directory could not be used.
    pub(crate) wal_disabled: Option<String>,
    /// Report of the recovery pass, when one ran.
    pub(crate) recovery: Option<RecoveryReport>,
    /// Metrics registry, written only by the dispatch thread at drain
    /// boundaries (see `report`); built only when `metrics_out` asks for
    /// recording, so the plain path stays unmetered.
    pub(crate) registry: Option<MetricsRegistry>,
    /// Service-wide reject tally by [`RejectReason`] code.
    pub(crate) reject_global: [u64; N_REJECT_REASONS],
    /// `stats.events` at the last periodic metrics snapshot.
    pub(crate) metrics_last_events: u64,
    /// Metric snapshots written so far (the snapshot header counter).
    pub(crate) metrics_snapshots: u64,
    /// The routing state, kept between batches for its capacity.
    batch: Batch,
}

impl Service {
    /// Build a service; creates the advice directory when configured.
    ///
    /// An unusable WAL directory does **not** fail construction: the
    /// service degrades to in-memory-only operation with a telemetry
    /// warning and a `wal=degraded` marker in `BYE` — losing durability
    /// must never take down an otherwise healthy advisor.
    pub fn new(opts: ServeOpts) -> std::io::Result<Self> {
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
        let registry = opts.metrics_out.as_ref().map(|_| MetricsRegistry::new());
        Ok(Service {
            admission: Admission::new(opts.admission),
            opts,
            tenants: Vec::new(),
            index: FxHashMap::default(),
            stats: ServiceStats::default(),
            shutdown: false,
            started: Instant::now(),
            wal,
            wal_disabled,
            recovery: None,
            registry,
            reject_global: [0; N_REJECT_REASONS],
            metrics_last_events: 0,
            metrics_snapshots: 0,
            batch: Batch::default(),
        })
    }

    /// Whether a `SHUTDOWN` request has been seen (the listener drains
    /// and exits after the current batch).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Process one batch of request lines and return the responses: the
    /// `process_lines` core behind owned strings, for callers
    /// that hold their lines that way. Every response is byte for byte
    /// the core's.
    pub fn process_batch(&mut self, lines: &[(ConnId, String)]) -> Vec<(ConnId, String)> {
        let mut input = LineBuf::new();
        for (conn, line) in lines {
            input.push(*conn, line.as_bytes());
        }
        let mut out = LineBuf::new();
        self.process_lines(&input, &mut out);
        out.iter().map(|(conn, line)| (conn, String::from_utf8_lossy(line).into_owned())).collect()
    }

    /// Process one batch of request lines, appending the responses to
    /// `out`. This is the one line path: both listeners call it, and
    /// [`Service::process_batch`] adapts it.
    ///
    /// A line is parsed where it lies when it is UTF-8; only a line that
    /// is not is decoded lossily, and it draws the `ERR parse` it always
    /// did. Responses preserve per-tenant request order. Control requests
    /// are answered in line order; event advice for a tenant is grouped
    /// at the point its queue is flushed (inline when a control request
    /// for the same tenant needs the events applied first, otherwise at
    /// the end of the batch).
    pub(crate) fn process_lines(&mut self, lines: &LineBuf, out: &mut LineBuf) {
        self.stats.batches += 1;
        let mut batch = std::mem::take(&mut self.batch);
        batch.out = std::mem::take(out);
        for (conn, raw) in lines.iter() {
            let line = String::from_utf8_lossy(raw);
            match parse_line(&line) {
                Ok(None) => {}
                Ok(Some(req)) => self.route(&mut batch, conn, req),
                Err(e) => {
                    self.stats.parse_errors += 1;
                    if let Some(&i) = e.tenant.as_deref().and_then(|t| self.index.get(t)) {
                        let charged = lock_slot(&self.tenants[i].slot).live().is_ok_and(|state| {
                            state.skipped += 1;
                            true
                        });
                        if charged {
                            self.wal_append(i, &WalRecord::Skip);
                        }
                    }
                    batch.out.push(conn, format!("ERR parse {}", e.message).as_bytes());
                }
            }
        }
        self.flush_queued(&mut batch);
        // Group commit BEFORE the responses leave this method: under
        // `--fsync always` every acknowledged line is durable.
        self.wal_commit_pass();
        self.maybe_write_metrics();
        *out = std::mem::take(&mut batch.out);
        batch.reset();
        self.batch = batch;
    }

    /// Answer one request, or queue it (events).
    fn route(&mut self, batch: &mut Batch, conn: ConnId, req: Request<'_>) {
        match req {
            Request::Event { tenant, block } => self.route_event(batch, conn, tenant, block),
            Request::Open { tenant, opts } => {
                let opened = self.open_tenant(tenant, &opts);
                self.respond(batch, conn, tenant, opened);
            }
            Request::Stats { tenant } => {
                let line = self.settle(batch, tenant).and_then(|i| {
                    let t = &self.tenants[i];
                    let mut slot = lock_slot(&t.slot);
                    let state = slot.live()?;
                    Ok(state.stats_line() + &report_suffix(state.queue_hwm, &t.rejects))
                });
                self.respond(batch, conn, tenant, line);
            }
            Request::Close { tenant } => {
                let closed = self.close_tenant(batch, tenant);
                self.respond(batch, conn, tenant, closed);
            }
            Request::Panic { tenant } => {
                // Events earlier in the batch keep sequential semantics:
                // `settle` applies them before the hook is armed.
                let armed = self.settle(batch, tenant).and_then(|i| {
                    lock_slot(&self.tenants[i].slot).live()?.panic_armed = true;
                    Ok(i)
                });
                if let Ok(i) = armed {
                    self.wal_append(i, &WalRecord::PanicArm);
                }
                self.respond(
                    batch,
                    conn,
                    tenant,
                    armed.map(|_| format!("OK panic-armed {tenant}")),
                );
            }
            Request::Metrics => {
                // A snapshot reflects every event accepted before it.
                self.flush_queued(batch);
                self.render_metrics(conn, &mut batch.out);
            }
            Request::Health => batch.out.push(conn, self.health_line().as_bytes()),
            Request::Shutdown => {
                // Apply everything queued so far, then flag the drain.
                self.flush_queued(batch);
                self.shutdown = true;
                batch.out.push(conn, b"OK shutdown");
            }
        }
    }

    /// Queue one event behind its tenant's earlier ones, or refuse it.
    fn route_event(&mut self, batch: &mut Batch, conn: ConnId, tenant: &str, block: u64) {
        let Some(&i) = self.index.get(tenant) else {
            return self.reject(batch, conn, tenant, RejectReason::UnknownTenant);
        };
        if batch.queues.len() <= i {
            batch.queues.resize_with(i + 1, Queued::default);
        }
        if !batch.queues[i].live {
            // The one liveness read of the batch, which also stamps the
            // tenant's first enqueue into its flight ring.
            let first = !batch.queues[i].queued;
            let number = self.stats.batches;
            let seen = lock_slot(&self.tenants[i].slot).live().map(|state| {
                if let (true, Some(fr)) = (first, state.flight_mut()) {
                    fr.record_kv("queue", "batch", number);
                }
            });
            if let Err(reason) = seen {
                return self.reject(batch, conn, tenant, reason);
            }
            if first {
                batch.order.push(i);
            }
            (batch.queues[i].queued, batch.queues[i].live) = (true, true);
        }
        let queue = &mut batch.queues[i];
        if queue.events.len() >= self.opts.queue_cap {
            self.stats.sheds += 1;
            if let Ok(state) = lock_slot(&self.tenants[i].slot).live() {
                state.shed += 1;
            }
            self.wal_append(i, &WalRecord::Shed);
            let cap = self.opts.queue_cap;
            batch.out.push(conn, format!("SHED {tenant} queue-full cap={cap}").as_bytes());
        } else {
            queue.events.push((conn, block));
            // Logged at accept time (staged; the flush that applies the
            // queue writes it first): the WAL holds exactly the events
            // that will be processed, in order.
            self.wal_append(i, &WalRecord::Event(block));
            if self.opts.trace_ring > 0 && self.wal.as_mut().is_some_and(|w| w.log_mut(i).is_some())
            {
                if let Ok(state) = lock_slot(&self.tenants[i].slot).live() {
                    if let Some(fr) = state.flight_mut() {
                        fr.record_kv("wal", "block", block);
                    }
                }
            }
        }
    }

    /// Resolve the target of a tenant verb (`STATS`, `CLOSE`, `PANIC`):
    /// events queued for it earlier in the batch are applied first, so
    /// the verb acts on what a sequential reading of the script expects.
    fn settle(&mut self, batch: &mut Batch, tenant: &str) -> Result<usize, RejectReason> {
        let i = *self.index.get(tenant).ok_or(RejectReason::UnknownTenant)?;
        self.flush_inline(batch, i);
        Ok(i)
    }

    /// Push a verb's answer, or its typed refusal.
    fn respond(
        &mut self,
        batch: &mut Batch,
        conn: ConnId,
        tenant: &str,
        answer: Result<String, RejectReason>,
    ) {
        match answer {
            Ok(line) => batch.out.push(conn, line.as_bytes()),
            Err(reason) => self.reject(batch, conn, tenant, reason),
        }
    }

    fn reject(&mut self, batch: &mut Batch, conn: ConnId, tenant: &str, reason: RejectReason) {
        self.stats.rejects += 1;
        self.reject_global[reason.index()] += 1;
        if let Some(&i) = self.index.get(tenant) {
            self.tenants[i].rejects[reason.index()] += 1;
        }
        batch.out.push(conn, reason.render(tenant).as_bytes());
    }

    /// Install `slot` under `name`: in place when the name already has
    /// an entry (a closed tenant re-opening, a live one being retired),
    /// as a new entry otherwise. The one place an entry is created.
    pub(crate) fn register(&mut self, name: &str, slot: Slot) -> usize {
        match self.index.get(name) {
            Some(&i) => {
                *lock_slot(&self.tenants[i].slot) = slot;
                i
            }
            None => {
                let i = self.tenants.len();
                self.tenants.push(Tenant {
                    name: Arc::from(name),
                    slot: Arc::new(Mutex::new(slot)),
                    rejects: [0; N_REJECT_REASONS],
                });
                self.index.insert(name.to_string(), i);
                i
            }
        }
    }

    /// Apply one re-pricing measured by [`TenantState::reprice`] to the
    /// aggregate reservation — exact accounting: tenants are admitted on
    /// a pessimistic estimate and re-charged with their measured
    /// footprint after a warm start, a recovery and every flush.
    pub(crate) fn recharge(&mut self, (old, new): (u64, u64)) {
        if old != new && self.admission.recharge(old, new) {
            tlog::warn("serve_budget_exceeded")
                .u64("reserved_bytes", self.admission.reserved_bytes())
                .emit();
        }
    }

    /// Admit a tenant; the `OK` line, or why not.
    fn open_tenant(&mut self, tenant: &str, opts: &[(&str, &str)]) -> Result<String, RejectReason> {
        if let Some(&i) = self.index.get(tenant) {
            match *lock_slot(&self.tenants[i].slot) {
                Slot::Live(_) => return Err(RejectReason::Duplicate),
                Slot::Quarantined { .. } => return Err(RejectReason::Quarantined),
                // Re-opened in place.
                Slot::Closed => {}
            }
        }
        let spec = TenantSpec::from_opts(opts, &self.opts.defaults)?;
        self.admission.try_admit(spec.estimated_bytes())?;
        let mut state =
            match TenantState::new(tenant, spec.clone(), self.opts.advice_dir.as_deref()) {
                Ok(state) => state,
                Err(e) => {
                    self.admission.release(spec.estimated_bytes());
                    return Err(RejectReason::BadConfig(format!("advice file: {e}")));
                }
            };
        let warm_from = self.try_warm_start(tenant, &mut state);
        let warm = warm_from.is_some();
        state.enable_flight(
            self.opts.trace_ring,
            format_args!("cache={} nodes={} warm={warm}", spec.cache_blocks, spec.node_limit),
        );
        // Durability: capture the warm-start base (so replay starts from
        // the very tree this tenant did, even after later checkpoints
        // rewrite the main snapshot), then open the tenant's log. Any
        // failure degrades this tenant to in-memory-only — an `OPEN`
        // is never refused over durability.
        let mut tenant_log = None;
        if let Some(w) = self.wal.as_mut() {
            let base = match &warm_from {
                Some(snap) => std::fs::copy(snap, w.files.base(tenant)).is_ok(),
                None => false,
            };
            match w.create_log(tenant, &spec, base) {
                Ok(tl) => {
                    state.wal_state = "on";
                    tenant_log = Some(tl);
                }
                Err(e) => w.degrade(&mut state, &format!("open failed: {e}")),
            }
        }
        let i = self.register(tenant, Slot::Live(Box::new(state)));
        if let (Some(w), Some(tl)) = (self.wal.as_mut(), tenant_log) {
            w.install(i, tl);
        }
        self.stats.opens += 1;
        Ok(format!("OK open {tenant}"))
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
                    let repriced = state.reprice();
                    tlog::info("serve_warm_start")
                        .str("tenant", tenant)
                        .u64("nodes", nodes)
                        .u64("resident_bytes", repriced.1)
                        .emit();
                    self.recharge(repriced);
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
    pub(crate) fn persist_tree(&self, state: &TenantState) {
        let Some(dir) = &self.opts.snapshot_dir else { return };
        let Some(tree) = state.tree() else { return };
        let path = dir.join(format!("{}.pftree", state.name));
        match tree.save_snapshot(&path) {
            Ok(bytes) => {
                tlog::info("serve_snapshot_saved")
                    .str("tenant", state.name.to_string())
                    .u64("nodes", tree.node_count() as u64)
                    .u64("bytes", bytes as u64)
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

    /// Close a tenant; its `FINAL` line, or why not.
    fn close_tenant(&mut self, batch: &mut Batch, tenant: &str) -> Result<String, RejectReason> {
        let i = self.settle(batch, tenant)?;
        let mut state = lock_slot(&self.tenants[i].slot).take()?;
        if let Some(queue) = batch.queues.get_mut(i) {
            queue.live = false;
        }
        // Closing drops the state: drain its last batch's metric deltas
        // first.
        self.publish(tenant, state.pending_metrics.take());
        let line = state.final_line();
        self.persist_tree(&state);
        // Snapshot first, then the durable C: a crash in between replays
        // the tenant live, never resurrects it half-closed.
        self.wal_close(i, tenant);
        self.admission.release(state.charged_bytes);
        self.stats.closes += 1;
        Ok(line + &report_suffix(state.queue_hwm, &self.tenants[i].rejects))
    }

    /// Flush every tenant with queued events across the pool workers
    /// (batch end, and before `METRICS`/`SHUTDOWN` answer). One tenant =
    /// one work item; results come back in first-appearance order, so
    /// the response stream is independent of the worker count.
    fn flush_queued(&mut self, batch: &mut Batch) {
        let mut active: Arc<[Flushing]> = batch
            .order
            .iter()
            .filter_map(|&i| {
                let events = std::mem::take(&mut batch.queues[i].events);
                let slot = &self.tenants[i].slot;
                (!events.is_empty()).then(|| Flushing { i, slot: Arc::clone(slot), events })
            })
            .collect();
        if active.is_empty() {
            return;
        }
        // Write-ahead: a tenant's records are in its file before its
        // events are applied.
        for a in active.iter() {
            self.wal_flush(a.i);
        }
        let metrics_on = self.registry.is_some();
        let shared = Arc::clone(&active);
        let flushes = prefetch_pool::run_indexed(active.len(), move |j| {
            let a = &shared[j];
            flush_tenant(&a.slot, &a.events, metrics_on)
        });
        for (a, flush) in active.iter().zip(flushes) {
            self.absorb_flush(batch, a.i, &a.events, flush);
        }
        // The pool has let go of the list (its closure is dropped before
        // `run_indexed` returns): hand each event vector back for reuse.
        if let Some(active) = Arc::get_mut(&mut active) {
            for a in active {
                batch.give_back(a.i, std::mem::take(&mut a.events));
            }
        }
    }

    /// Flush one tenant's queued events inline (tenant-verb path).
    fn flush_inline(&mut self, batch: &mut Batch, i: usize) {
        let Some(queue) = batch.queues.get_mut(i) else { return };
        if queue.events.is_empty() {
            return;
        }
        let events = std::mem::take(&mut queue.events);
        self.wal_flush(i);
        let flush = flush_tenant(&self.tenants[i].slot, &events, self.registry.is_some());
        self.absorb_flush(batch, i, &events, flush);
        batch.give_back(i, events);
    }

    /// Fold one tenant's flush results into service state and responses.
    fn absorb_flush(
        &mut self,
        batch: &mut Batch,
        i: usize,
        events: &[(ConnId, u64)],
        flush: TenantFlush,
    ) {
        self.stats.events += flush.served as u64;
        self.recharge(flush.repriced);
        let mut slot = lock_slot(&self.tenants[i].slot);
        if let (true, Ok(state)) = (self.opts.echo_advice, slot.live()) {
            batch.out.append(&state.responses);
        }
        let Some((at, message)) = flush.panicked else { return };
        let state = slot.take().ok();
        drop(slot);
        batch.queues[i].live = false;
        let name = Arc::clone(&self.tenants[i].name);
        let trace = self.quarantine(&name, state, &message);
        tlog::warn("serve_tenant_quarantined")
            .str("tenant", name.to_string())
            .str("err", message.as_str())
            .emit();
        let conn = events.get(at).map_or(0, |(c, _)| *c);
        batch.out.push(conn, format!("PANIC {name} quarantined err={message:?}").as_bytes());
        // The flight-recorder dump rides along with the PANIC line: the
        // last moments of the request lifecycle, already ordered.
        for line in &trace {
            batch.out.push(conn, format!("TRACE {name} {line}").as_bytes());
        }
        // Events behind the panic are refused explicitly, never silently
        // dropped.
        for (conn, _) in &events[(at + 1).min(events.len())..] {
            self.reject(batch, *conn, &name, RejectReason::Quarantined);
        }
    }

    /// The one retire path: a tenant that panicked live, panicked again
    /// under replay, or could not be recovered at all (`state` is `None`).
    /// Its state is dropped — last metric deltas published, reservation
    /// released — its counters and flight-recorder dump are retained for
    /// the drain report, and the name is never silently resurrected.
    /// Returns the trace dump for immediate emission.
    pub(crate) fn quarantine(
        &mut self,
        name: &str,
        state: Option<TenantState>,
        message: &str,
    ) -> Vec<String> {
        let (mut events, mut skipped, mut shed, mut queue_hwm) = (0, 0, 0, 0);
        let mut trace = Vec::new();
        if let Some(mut state) = state {
            state.flush_advice();
            if let Some(fr) = state.flight() {
                trace = fr.dump_lines();
            }
            self.publish(name, state.pending_metrics.take());
            self.admission.release(state.charged_bytes);
            (events, skipped, shed, queue_hwm) =
                (state.seq, state.skipped, state.shed, state.queue_hwm);
        }
        let i = self.register(
            name,
            Slot::Quarantined {
                message: message.to_string(),
                events,
                skipped,
                shed,
                queue_hwm,
                trace: trace.clone(),
            },
        );
        // Make the poisonous history durable and keep the file: recovery
        // replays it and reproduces this quarantine faithfully.
        if let Some(w) = self.wal.as_mut() {
            w.sync_log(i);
            w.drop_log(i);
        }
        self.stats.quarantined += 1;
        trace
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
        match w.log_mut(idx) {
            Some(t) => {
                t.log.set_faults(Some(faults));
                true
            }
            None => false,
        }
    }
}

/// Apply one tenant's queued events in order, under `catch_unwind`,
/// rendering each `ADV` line in place into the tenant's `responses`
/// buffer, which the dispatch thread appends to the batch's responses.
///
/// Responses produced before a panic are preserved: the buffer lives
/// outside the unwinding closure, and a panic fires inside
/// `process_event_into`, before that event appends anything — so a tenant
/// that dies mid-batch still delivers the advice it computed.
/// Registry-bound measurements fold into the tenant's own
/// `PendingMetrics` under the slot lock the flush holds — the registry is
/// never touched here; the dispatch thread drains them at the next
/// snapshot/exposition, and the quarantine drain publishes what a dying
/// tenant served before its panic. Nothing here reads the wall clock.
/// Runs on a pool worker; touches only the one slot it was given, and
/// holds its lock from the first event to the last.
fn flush_tenant(slot: &Mutex<Slot>, events: &[(ConnId, u64)], metrics_on: bool) -> TenantFlush {
    let mut flush = TenantFlush { served: 0, repriced: (0, 0), panicked: None };
    let mut guard = lock_slot(slot);
    let Ok(state) = guard.live() else { return flush };
    // Batch composition is listener-formed, so the high-water mark is
    // deterministic at any worker count.
    state.queue_hwm = state.queue_hwm.max(events.len() as u64);
    if let Some(fr) = state.flight_mut() {
        fr.record_kv("dispatch", "events", events.len() as u64);
    }
    let mut responses = std::mem::take(&mut state.responses);
    responses.clear();
    let served = prefetch_pool::catch_quiet(|| {
        for &(conn, block) in events {
            let outcome = responses.push_with(conn, |out| state.process_event_into(block, out));
            if metrics_on {
                state.pending_metrics.get_or_insert_with(Default::default).fold(&outcome);
            }
        }
    });
    flush.served = responses.len();
    state.responses = responses;
    match served {
        Ok(()) => {
            // A panicking flush records no response — the quarantine
            // dump is the record.
            if let Some(fr) = state.flight_mut() {
                fr.record_kv("response", "n", events.len() as u64);
            }
            flush.repriced = state.reprice();
        }
        Err(payload) => {
            let message = prefetch_pool::panic_message(&*payload);
            flush.panicked = Some((flush.served, message));
        }
    }
    flush
}
