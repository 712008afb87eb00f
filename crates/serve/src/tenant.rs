//! Per-tenant advisor state: one [`Simulator`] (prefetch tree +
//! cost-benefit cache model) per tenant, plus the service-side counters.
//!
//! A tenant is configured at `OPEN` time by [`TenantSpec`]: cache size,
//! policy, node budget (the tree crate's `OverflowPolicy` enforced through
//! `EngineConfig`), and optional per-tenant fault injection. Every access
//! event steps the tenant's simulator one period and captures the
//! resulting prefetch advice; the tenant's whole evolution depends only on
//! its own event sequence, which is what makes per-tenant advice streams
//! byte-identical at any worker count.

use crate::lines::LineBuf;
use crate::protocol::{render_adv, RejectReason};
use prefetch_core::policy::RefKind;
use prefetch_core::CalibrationTracker;
use prefetch_sim::{PolicySpec, SimConfig, SimEvent, SimMetrics, SimObserver, Simulator};
use prefetch_telemetry::{FlightRecorder, Histogram};
use prefetch_trace::{BlockId, TraceRecord};
use prefetch_tree::PrefetchTree;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Server-side defaults applied when an `OPEN` omits an option.
#[derive(Clone, Copy, Debug)]
pub struct TenantDefaults {
    /// Cache blocks per tenant.
    pub cache_blocks: usize,
    /// Prefetch-tree node budget per tenant.
    pub node_limit: usize,
    /// Freeze (true) or evict (false) at the node budget.
    pub freeze: bool,
}

impl Default for TenantDefaults {
    fn default() -> Self {
        TenantDefaults { cache_blocks: 64, node_limit: 4096, freeze: false }
    }
}

/// A tenant's parsed `OPEN` configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSpec {
    /// Cache blocks.
    pub cache_blocks: usize,
    /// Policy to advise with.
    pub policy: PolicySpec,
    /// Prefetch-tree node budget.
    pub node_limit: usize,
    /// Freeze instead of evicting at the node budget.
    pub freeze: bool,
    /// Finite disk array size for fault pricing, if any.
    pub disks: Option<usize>,
    /// Per-tenant deterministic fault rate (requires `disks`).
    pub fault_rate: f64,
    /// Seed of the tenant's fault plan.
    pub fault_seed: u64,
}

impl TenantSpec {
    /// Build a spec from `OPEN` options over the server defaults. Every
    /// malformed option is a typed [`RejectReason::BadConfig`] — admission
    /// never panics on hostile input.
    pub fn from_opts(
        opts: &[(&str, &str)],
        defaults: &TenantDefaults,
    ) -> Result<Self, RejectReason> {
        let mut spec = TenantSpec {
            cache_blocks: defaults.cache_blocks,
            policy: PolicySpec::TreeNextLimit,
            node_limit: defaults.node_limit,
            freeze: defaults.freeze,
            disks: None,
            fault_rate: 0.0,
            fault_seed: 0,
        };
        let bad = |msg: String| Err(RejectReason::BadConfig(msg));
        for &(k, v) in opts {
            match k {
                "cache" => match v.parse::<usize>() {
                    Ok(n) if n > 0 => spec.cache_blocks = n,
                    _ => return bad(format!("cache={v} must be a positive integer")),
                },
                // pfsim's grammar, less the oracle: a live event stream has
                // no lookahead to give it.
                "policy" => match PolicySpec::parse(v, "", |p| !p.uses_lookahead()) {
                    Ok(p) => spec.policy = p,
                    Err(e) => return bad(e),
                },
                "nodes" => match v.parse::<usize>() {
                    Ok(n) if n > 0 => spec.node_limit = n,
                    _ => return bad(format!("nodes={v} must be a positive integer")),
                },
                "overflow" => match v {
                    "evict" => spec.freeze = false,
                    "freeze" => spec.freeze = true,
                    _ => return bad(format!("overflow={v} must be evict or freeze")),
                },
                "disks" => match v.parse::<usize>() {
                    Ok(n) if n > 0 => spec.disks = Some(n),
                    _ => return bad(format!("disks={v} must be a positive integer")),
                },
                "fault_rate" => match v.parse::<f64>() {
                    Ok(r) if r.is_finite() && (0.0..=1.0).contains(&r) => spec.fault_rate = r,
                    _ => return bad(format!("fault_rate={v} must be in [0,1]")),
                },
                "fault_seed" => match v.parse::<u64>() {
                    Ok(s) => spec.fault_seed = s,
                    _ => return bad(format!("fault_seed={v} must be a u64")),
                },
                other => return bad(format!("unknown option {other:?}")),
            }
        }
        // The full SimConfig validation catches cross-field problems
        // (faults without disks, degenerate retry schedules, ...).
        let config = spec.to_sim_config();
        if let Err(e) = config.validate() {
            return bad(e.to_string());
        }
        Ok(spec)
    }

    /// The simulator configuration this spec describes.
    pub fn to_sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::new(self.cache_blocks, self.policy);
        cfg.engine.node_limit = self.node_limit;
        cfg.engine.freeze_at_node_limit = self.freeze;
        if let Some(d) = self.disks {
            cfg = cfg.with_disks(d);
        }
        if self.fault_rate > 0.0 {
            cfg = cfg.with_fault_rate(self.fault_seed, self.fault_rate);
        }
        cfg
    }

    /// Rough resident bytes this tenant may reach, charged against the
    /// server's aggregate memory budget at admission time. Per tree node:
    /// 96 B — the 40-byte node, its position and slab slot, and a share of
    /// the wide-node index. That is *below* what a tree full at the
    /// default 4 096-node budget is charged, 104–120 B/node (133–136
    /// before the 40-byte node): `PrefetchTree::bytes_in_use` counts
    /// capacity, and 4 096 nodes plus the root and one transient
    /// overshoot double the node vector to 8 192 slots. Per cache block:
    /// LRU + prefetch metadata (~64 B); plus a fixed floor for the
    /// simulator itself. The estimate only gates the `OPEN`; afterwards
    /// the reservation is re-priced to the tenant's measured
    /// [`TenantState::resident_bytes`] at every flush.
    pub fn estimated_bytes(&self) -> u64 {
        const NODE_BYTES: u64 = 96;
        let nodes = self.node_limit.min(1 << 32) as u64;
        FIXED_BYTES + nodes * NODE_BYTES + self.cache_blocks as u64 * CACHE_BLOCK_BYTES
    }
}

/// Where a tenant's advice stream goes under `--advice-dir`.
pub(crate) fn advice_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.advice"))
}

/// Per-cache-block overhead (LRU + prefetch metadata) used by both the
/// admission estimate and the exact re-pricing.
const CACHE_BLOCK_BYTES: u64 = 64;
/// Fixed floor for the simulator itself.
const FIXED_BYTES: u64 = 8 * 1024;

/// Captures one event's advice from the simulator event stream: how the
/// reference was served, the stall it absorbed, and the blocks the policy
/// chose to prefetch this period. A tenant keeps one and clears it per
/// event, so the prefetch list reuses its allocation.
#[derive(Default)]
struct AdviceCapture {
    kind: Option<RefKind>,
    stall_ms: f64,
    prefetched: Vec<BlockId>,
}

impl AdviceCapture {
    fn clear(&mut self) {
        self.kind = None;
        self.stall_ms = 0.0;
        self.prefetched.clear();
    }
}

impl SimObserver for AdviceCapture {
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

/// Registry-bound metric deltas accumulated on the flush path (under
/// the slot lock the flush already holds) and drained into the
/// [`prefetch_telemetry::MetricsRegistry`] by the dispatch thread, only
/// at snapshot/exposition boundaries — so the per-event hot path touches
/// nothing shared. Only deterministic quantities live here (per-kind
/// counts and *virtual* stall); the wall clock is never read. Drains are
/// exact (counter sums, bucket-wise histogram merge with integer-valued
/// sums), so published totals at a snapshot boundary are identical at
/// any `--threads N` and any drain cadence. The size is fixed: a tenant
/// that is never drained holds one histogram, however many events it
/// serves.
#[derive(Default)]
pub struct PendingMetrics {
    /// Events processed since the last drain.
    pub events: u64,
    /// References served from cache (demand-fetched blocks).
    pub demand_hits: u64,
    /// References served by a completed prefetch.
    pub prefetch_hits: u64,
    /// References that missed and stalled on disk.
    pub misses: u64,
    /// Prefetches issued.
    pub prefetches: u64,
    /// Virtual stall per reference, whole microseconds.
    pub stall_us: Histogram,
}

impl PendingMetrics {
    /// Fold one processed event's outcome in.
    pub(crate) fn fold(&mut self, outcome: &EventOutcome) {
        self.events += 1;
        match outcome.kind {
            RefKind::DemandHit => self.demand_hits += 1,
            RefKind::PrefetchHit => self.prefetch_hits += 1,
            RefKind::Miss => self.misses += 1,
        }
        self.prefetches += outcome.prefetched as u64;
        // Whole microseconds of *virtual* stall: no wall clock, so merged
        // histograms are bit-identical across runs.
        self.stall_us.record((outcome.stall_ms * 1000.0).round() as u64);
    }
}

/// Live state of one admitted tenant.
pub struct TenantState {
    /// Tenant name (shared with the registry index).
    pub name: Arc<str>,
    /// The spec it was admitted under.
    pub spec: TenantSpec,
    sim: Simulator,
    metrics: SimMetrics,
    /// Events processed (the advice sequence number).
    pub seq: u64,
    /// Malformed lines charged to this tenant.
    pub skipped: u64,
    /// Events dropped by backpressure.
    pub shed: u64,
    /// Chaos hook: the next event processing panics.
    pub panic_armed: bool,
    /// Bytes currently reserved against the server's memory budget for
    /// this tenant: the admission estimate at `OPEN`, then the measured
    /// [`TenantState::resident_bytes`] after each flush re-prices it.
    pub charged_bytes: u64,
    /// How this tenant's state came to be: `"none"` (opened live),
    /// `"replayed"` (full WAL replay, bit-identical), or `"degraded"`
    /// (checkpoint warm start after a capped replay).
    pub recovered: &'static str,
    /// Durability health: `"off"` (no WAL configured), `"on"` (events
    /// are logged), or `"degraded"` (the WAL failed mid-run; the tenant
    /// keeps serving in-memory only).
    pub wal_state: &'static str,
    /// High-water mark of this tenant's per-batch input queue depth.
    /// Batch composition is formed by the listener independent of the
    /// worker count, so this is deterministic at any `--threads N`.
    pub queue_hwm: u64,
    /// Metric deltas awaiting the next registry drain (see
    /// [`PendingMetrics`]): `None` until an event folds in after a drain,
    /// and always when metrics are off.
    pub pending_metrics: Option<Box<PendingMetrics>>,
    /// The `ADV` lines of the tenant's last flush, each tagged with the
    /// connection its event came from; kept so the buffer is reused.
    pub(crate) responses: LineBuf,
    /// Flight recorder, when `--trace-ring` enabled tracing at admission.
    flight: Option<FlightRecorder>,
    advice_file: Option<BufWriter<File>>,
    /// The current event's advice, reused from event to event.
    capture: AdviceCapture,
}

/// What one processed event measured, besides its `ADV` line: what the
/// metrics registry records.
#[derive(Clone, Copy, Debug)]
pub struct EventOutcome {
    /// How the reference was served.
    pub kind: RefKind,
    /// Virtual stall charged to the reference (ms).
    pub stall_ms: f64,
    /// Blocks the policy chose to prefetch this period.
    pub prefetched: usize,
}

impl TenantState {
    /// Admit a tenant. When `advice_dir` is set, the tenant's advice
    /// stream is also appended to `<dir>/<name>.advice`.
    pub fn new(name: &str, spec: TenantSpec, advice_dir: Option<&Path>) -> std::io::Result<Self> {
        let path = advice_dir.map(|dir| advice_path(dir, name));
        Self::with_advice_file(name, spec, path.as_deref())
    }

    /// [`TenantState::new`] with the advice stream appended to the file at
    /// `advice_file` (created, or truncated): recovery replays into a
    /// temporary name and renames it into place on admission.
    pub(crate) fn with_advice_file(
        name: &str,
        spec: TenantSpec,
        advice_file: Option<&Path>,
    ) -> std::io::Result<Self> {
        let advice_file = match advice_file {
            Some(path) => Some(BufWriter::new(File::create(path)?)),
            None => None,
        };
        let config = spec.to_sim_config();
        let charged_bytes = spec.estimated_bytes();
        Ok(TenantState {
            name: Arc::from(name),
            sim: Simulator::new(&config),
            spec,
            metrics: SimMetrics::default(),
            seq: 0,
            skipped: 0,
            shed: 0,
            panic_armed: false,
            charged_bytes,
            recovered: "none",
            wal_state: "off",
            queue_hwm: 0,
            pending_metrics: None,
            responses: LineBuf::new(),
            flight: None,
            advice_file,
            capture: AdviceCapture::default(),
        })
    }

    /// Turn on flight recording with a ring of `cap` events (`0` leaves
    /// tracing off), opened by an `admission` record saying how the
    /// tenant came in.
    pub fn enable_flight(&mut self, cap: usize, admission: std::fmt::Arguments<'_>) {
        if cap > 0 {
            let mut ring = FlightRecorder::new(cap);
            ring.record_text("admission", admission.to_string());
            self.flight = Some(ring);
        }
    }

    /// The flight recorder, when tracing is enabled.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Mutable flight-recorder access (service stages record through it).
    pub fn flight_mut(&mut self) -> Option<&mut FlightRecorder> {
        self.flight.as_mut()
    }

    /// The tenant's predicted-vs-realized calibration accumulators, when
    /// its policy tracks them (cost-benefit engine policies do).
    pub fn calibration(&self) -> Option<&CalibrationTracker> {
        self.sim.calibration()
    }

    /// The tenant's prefetch tree, when its policy keeps one.
    pub fn tree(&self) -> Option<&PrefetchTree> {
        self.sim.tree()
    }

    /// Warm-start the tenant's policy from a restored snapshot (called at
    /// `OPEN` before any event). Returns `false` when the policy keeps no
    /// tree.
    pub fn warm_start(&mut self, tree: PrefetchTree) -> bool {
        self.sim.install_tree(tree)
    }

    /// Exact resident bytes of this tenant right now: the tree's measured
    /// arena footprint (`PrefetchTree::bytes_in_use`, zero for treeless
    /// policies) plus the cache and simulator overheads of the admission
    /// model. Replaces the `OPEN`-time estimate once events flow.
    pub fn resident_bytes(&self) -> u64 {
        let tree_bytes = self.sim.tree().map_or(0, |t| t.bytes_in_use() as u64);
        FIXED_BYTES + tree_bytes + self.spec.cache_blocks as u64 * CACHE_BLOCK_BYTES
    }

    /// Re-price this tenant's reservation to its measured footprint;
    /// returns the `(old, new)` charged bytes for the admission ledger
    /// (`Service::recharge`).
    pub(crate) fn reprice(&mut self) -> (u64, u64) {
        let resident = self.resident_bytes();
        (std::mem::replace(&mut self.charged_bytes, resident), resident)
    }

    /// Process one access event and return its `ADV` response line: the
    /// [`TenantState::process_event_into`] rendering, as a `String`.
    ///
    /// # Panics
    /// Same contract as [`TenantState::process_event_into`].
    pub fn process_event(&mut self, block: u64) -> String {
        let mut line = Vec::new();
        self.process_event_into(block, &mut line);
        line.pop();
        String::from_utf8(line).expect("an ADV line is UTF-8")
    }

    /// Process one access event: append its `\n`-terminated `ADV` line to
    /// `out` (and to the advice file, when one is open), record the
    /// `decision` flight stage, and return what the metrics registry
    /// records. Nothing is allocated once the tenant's prefetch list has
    /// grown to a period's worth.
    ///
    /// # Panics
    /// Panics when the chaos hook armed by a `PANIC` request fires, or if
    /// the underlying policy has a bug — the service catches either,
    /// quarantines the tenant, and keeps every other tenant running. Either
    /// panic comes before anything is appended to `out`.
    pub fn process_event_into(&mut self, block: u64, out: &mut Vec<u8>) -> EventOutcome {
        if self.panic_armed {
            panic!("injected tenant panic (chaos hook)");
        }
        let capture = &mut self.capture;
        capture.clear();
        self.sim.step(TraceRecord::read(block), None, &mut (&mut self.metrics, &mut *capture));
        let seq = self.seq;
        self.seq += 1;
        let kind = capture.kind.unwrap_or(RefKind::Miss);
        let kind_ch = match kind {
            RefKind::DemandHit => b'h',
            RefKind::PrefetchHit => b'p',
            RefKind::Miss => b'm',
        };
        let start = out.len();
        render_adv(out, &self.name, seq, kind_ch, capture.stall_ms, &capture.prefetched);
        if let Some(f) = &mut self.advice_file {
            let _ = f.write_all(&out[start..]);
        }
        if let Some(fr) = self.flight.as_mut() {
            // Per-event hot path: the decision is stored in binary form
            // (virtual stall as whole microseconds) and only rendered if
            // a dump is requested — a record is a few word writes.
            let stall_us = (capture.stall_ms * 1000.0).round() as u64;
            fr.record_decision(seq, kind_ch as char, stall_us, capture.prefetched.len() as u64);
        }
        EventOutcome { kind, stall_ms: capture.stall_ms, prefetched: capture.prefetched.len() }
    }

    /// Render the live `STATS` response line. The durability field is
    /// appended last so consumers pinned to the counter prefix keep
    /// parsing. The service appends its own observability fields
    /// (`queue_hwm=`, `rejects=`) to the *response* only — the advice
    /// file keeps this stable batch-composition-independent form.
    pub fn stats_line(&self) -> String {
        format!(
            "STATS {} events={} skipped={} shed={} demand_hits={} prefetch_hits={} misses={} \
             prefetches={} prefetch_faults={} quarantined_blocks={} stall_ms={} elapsed_ms={} \
             wal={}",
            self.name,
            self.seq,
            self.skipped,
            self.shed,
            self.metrics.demand_hits,
            self.metrics.prefetch_hits,
            self.metrics.misses,
            self.metrics.prefetches_issued,
            self.metrics.prefetch_faults,
            self.metrics.blocks_quarantined,
            self.metrics.stall_ms,
            self.sim.clock().now(),
            self.wal_state,
        )
    }

    /// Render the end-of-life `FINAL` report line, appending it to the
    /// advice file when one is open (so per-tenant files are complete,
    /// self-contained records). The service's observability fields
    /// (`queue_hwm=`, `rejects=`) go on the response only: the advice
    /// file stays bit-identical across batch compositions, which the
    /// recovery replay contract depends on.
    pub fn final_line(&mut self) -> String {
        let line = format!(
            "FINAL {} events={} skipped={} shed={} demand_hits={} prefetch_hits={} misses={} \
             prefetches={} prefetch_faults={} stall_ms={} elapsed_ms={} quarantined=false \
             recovered={} wal={}",
            self.name,
            self.seq,
            self.skipped,
            self.shed,
            self.metrics.demand_hits,
            self.metrics.prefetch_hits,
            self.metrics.misses,
            self.metrics.prefetches_issued,
            self.metrics.prefetch_faults,
            self.metrics.stall_ms,
            self.sim.clock().now(),
            self.recovered,
            self.wal_state,
        );
        if let Some(f) = &mut self.advice_file {
            let _ = writeln!(f, "{line}");
            let _ = f.flush();
        }
        line
    }

    /// Flush the advice file (drain path).
    pub fn flush_advice(&mut self) {
        if let Some(f) = &mut self.advice_file {
            let _ = f.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> TenantDefaults {
        TenantDefaults::default()
    }

    #[test]
    fn spec_applies_defaults_and_overrides() {
        let spec = TenantSpec::from_opts(&[], &defaults()).unwrap();
        assert_eq!(spec.cache_blocks, 64);
        assert_eq!(spec.node_limit, 4096);
        assert!(!spec.freeze);

        let spec = TenantSpec::from_opts(
            &[
                ("cache", "128"),
                ("policy", "tree"),
                ("nodes", "512"),
                ("overflow", "freeze"),
                ("disks", "2"),
                ("fault_rate", "0.1"),
                ("fault_seed", "9"),
            ],
            &defaults(),
        )
        .unwrap();
        assert_eq!(spec.cache_blocks, 128);
        assert_eq!(spec.policy, PolicySpec::Tree);
        assert_eq!(spec.node_limit, 512);
        assert!(spec.freeze);
        assert_eq!(spec.disks, Some(2));
        let cfg = spec.to_sim_config();
        cfg.validate().unwrap();
        assert!(cfg.engine.freeze_at_node_limit);
        assert_eq!(cfg.engine.node_limit, 512);
    }

    #[test]
    fn bad_options_are_typed_rejections() {
        for (k, v) in [
            ("cache", "0"),
            ("cache", "x"),
            ("policy", "perfect-selector"),
            ("policy", "nonsense"),
            ("nodes", "0"),
            ("overflow", "melt"),
            ("disks", "0"),
            ("fault_rate", "1.5"),
            ("fault_rate", "NaN"),
            ("fault_seed", "-1"),
            ("frobnicate", "1"),
        ] {
            let err = TenantSpec::from_opts(&[(k, v)], &defaults())
                .expect_err(&format!("{k}={v} must be rejected"));
            assert!(matches!(err, RejectReason::BadConfig(_)), "{k}={v}");
        }
        // Cross-field validation: faults need a disk array to inject into.
        let err = TenantSpec::from_opts(&[("fault_rate", "0.2")], &defaults()).unwrap_err();
        assert!(matches!(err, RejectReason::BadConfig(_)));
    }

    #[test]
    fn open_accepts_pfsim_policies_less_the_oracle() {
        for name in [
            "no-prefetch",
            "next-limit",
            "tree",
            "tree-next-limit",
            "tree-lvc",
            "tree-reanchor",
            "perfect-selector",
            "tree-threshold=0.05",
            "tree-threshold=x",
            "tree-children=3",
            "tree-children=-1",
            "tree-threshold(0.05)",
            "panic-probe=3",
            "all",
            "Tree",
            "",
        ] {
            let pfsim = PolicySpec::parse(name, "all, ", |_| true);
            let open = TenantSpec::from_opts(&[("policy", name)], &defaults());
            match (pfsim, open) {
                (Ok(p), Ok(spec)) => assert_eq!(spec.policy, p, "{name}"),
                // The one serve-only refusal: no lookahead on a live stream.
                (Ok(p), Err(_)) => assert!(p.uses_lookahead(), "{name}"),
                (Err(_), Err(_)) => {}
                (Err(e), Ok(_)) => panic!("OPEN accepted {name:?}, pfsim refuses it: {e}"),
            }
        }
    }

    #[test]
    fn events_produce_deterministic_advice() {
        let spec = TenantSpec::from_opts(&[("cache", "32")], &defaults()).unwrap();
        let mut a = TenantState::new("a", spec.clone(), None).unwrap();
        let mut b = TenantState::new("b", spec, None).unwrap();
        let blocks = [1u64, 2, 3, 1, 2, 3, 1, 2, 3, 4];
        for &blk in &blocks {
            let la = a.process_event(blk);
            let lb = b.process_event(blk);
            assert_eq!(la.strip_prefix("ADV a"), lb.strip_prefix("ADV b"));
        }
        assert_eq!(a.seq, blocks.len() as u64);
        // A loop over more blocks than the cache holds forces evictions,
        // so once the tree has learned the cycle the policy must start
        // advising prefetches for the predicted successors.
        let spec = TenantSpec::from_opts(&[("cache", "16")], &defaults()).unwrap();
        let mut c = TenantState::new("c", spec, None).unwrap();
        let mut saw_prefetch = false;
        for i in 0..400u64 {
            let line = c.process_event(i % 64);
            if !line.ends_with("pf=-") {
                saw_prefetch = true;
            }
        }
        assert!(saw_prefetch, "tree policy should advise prefetches on an evicting loop");
        assert!(a.stats_line().starts_with("STATS a events=10"));
        assert!(a.final_line().contains("quarantined=false"));
    }

    #[test]
    fn undrained_pending_metrics_do_not_grow_with_events() {
        use crate::service::{lock_slot, ServeOpts, Service};
        const EVENTS: u64 = 100_000;
        // Metrics on, `metrics_every` 0, no `METRICS` verb: nothing drains
        // before shutdown. The file is only written by `drain`.
        let out = std::env::temp_dir().join(format!("pfserve-pending-{}", std::process::id()));
        let opts = ServeOpts { metrics_out: Some(out), echo_advice: false, ..ServeOpts::default() };
        let mut service = Service::new(opts).unwrap();
        service.process_batch(&[(0, "OPEN t".to_string())]);
        let blocks: Vec<u64> = (0..EVENTS).map(|i| (i * i) % 97).collect();
        for chunk in blocks.chunks(1000) {
            let lines: Vec<_> = chunk.iter().map(|b| (0, format!("EV t {b}"))).collect();
            service.process_batch(&lines);
        }
        let mut slot = lock_slot(&service.tenants[0].slot);
        let pending = slot.live().unwrap().pending_metrics.as_ref().expect("metrics are on");
        assert_eq!(pending.events, EVENTS);
        assert_eq!(pending.stall_us.count(), EVENTS);
        // The backlog is one fixed-layout histogram: even written out in
        // full it is bounded by the bucket count, not the event count.
        let words = pending.stall_us.to_words().len();
        assert!(words <= 6 + 2 * prefetch_telemetry::histogram::BUCKETS, "{words} words pending");
    }

    #[test]
    fn memory_estimate_scales_with_budgets() {
        let small = TenantSpec::from_opts(&[("nodes", "64")], &defaults()).unwrap();
        let large = TenantSpec::from_opts(&[("nodes", "65536")], &defaults()).unwrap();
        assert!(small.estimated_bytes() < large.estimated_bytes());
    }

    #[test]
    fn process_event_into_appends_the_process_event_line() {
        let spec = TenantSpec::from_opts(&[("cache", "16")], &defaults()).unwrap();
        let mut a = TenantState::new("a", spec.clone(), None).unwrap();
        let mut b = TenantState::new("a", spec, None).unwrap();
        let mut out = Vec::new();
        for i in 0..300u64 {
            let start = out.len();
            let outcome = a.process_event_into(i % 40, &mut out);
            let line = b.process_event(i % 40);
            assert_eq!(&out[start..], format!("{line}\n").as_bytes());
            assert_eq!(
                outcome.prefetched,
                line.rsplit_once("pf=").unwrap().1.split(',').count()
                    - usize::from(line.ends_with("pf=-"))
            );
        }
    }
}
