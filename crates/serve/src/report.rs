//! What the service tells an operator: the graceful drain (`FINAL` per
//! tenant, then `BYE`), the `HEALTH` and `METRICS` answers, the
//! `pfmetrics-snap/v1` snapshot file, and the `serve_stats` /
//! `serve_drain` telemetry records.
//!
//! Everything here reads service state and renders it; nothing here
//! decides anything about a tenant. Metric *recording* happens on the
//! flush path into each tenant's own `PendingMetrics`; this module, on
//! the dispatch thread, is the registry's only writer: those deltas reach
//! it at every snapshot or exposition, and when a closing or dying
//! tenant's state is dropped.

use crate::lines::LineBuf;
use crate::protocol::{render_reject_tally, N_REJECT_REASONS};
use crate::service::{lock_slot, ConnId, Service, Slot};
use crate::tenant::PendingMetrics;
use prefetch_telemetry::log as tlog;
use prefetch_telemetry::registry::MetricSet;
use std::io::Write;

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

/// The fields the service appends to a tenant's `STATS` / `FINAL`
/// response (never to its advice file, which stays independent of batch
/// composition).
pub(crate) fn report_suffix(queue_hwm: u64, rejects: &[u64; N_REJECT_REASONS]) -> String {
    format!(" queue_hwm={queue_hwm} rejects={}", render_reject_tally(rejects))
}

/// Fold a tenant's pending metric deltas into its registry cells.
fn publish_pending(m: &mut MetricSet, pending: &PendingMetrics) {
    m.add("events", pending.events);
    m.add("demand_hits", pending.demand_hits);
    m.add("prefetch_hits", pending.prefetch_hits);
    m.add("misses", pending.misses);
    m.add("prefetches", pending.prefetches);
    m.merge_histogram("stall_us", &pending.stall_us);
}

impl Service {
    /// Publish the deltas of a tenant whose state is about to drop (close
    /// and quarantine): its last flush survives it.
    pub(crate) fn publish(&mut self, name: &str, pending: Option<Box<PendingMetrics>>) {
        if let (Some(reg), Some(pending)) = (&mut self.registry, pending) {
            reg.update(name, |m| publish_pending(m, &pending));
        }
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
        for t in &self.tenants {
            match &mut *lock_slot(&t.slot) {
                Slot::Live(state) => {
                    out.push(state.final_line() + &report_suffix(state.queue_hwm, &t.rejects));
                    self.persist_tree(state);
                }
                Slot::Quarantined { message, events, skipped, shed, queue_hwm, trace } => {
                    out.push(format!(
                        "FINAL {} events={events} skipped={skipped} shed={shed} quarantined=true \
                         err={message:?}{}",
                        t.name,
                        report_suffix(*queue_hwm, &t.rejects)
                    ));
                    for line in trace.iter() {
                        out.push(format!("TRACE {} {line}", t.name));
                    }
                }
                // Already reported at close time.
                Slot::Closed => {}
            }
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

    /// `on`, `off`, or `degraded` (requested, but the directory could not
    /// be used).
    fn wal_mode(&self) -> &'static str {
        match (&self.wal, &self.wal_disabled) {
            (Some(_), _) => "on",
            (None, Some(_)) => "degraded",
            (None, None) => "off",
        }
    }

    /// The durability/recovery fields appended to `BYE` (stable order,
    /// always rendered so consumers can rely on their presence).
    fn durability_fields(&self) -> String {
        let mut s = format!(" wal={}", self.wal_mode());
        if let Some(w) = &self.wal {
            s.push_str(&format!(
                " wal_appends={} wal_fsyncs={} wal_sync_errors={} wal_degraded={} checkpoints={}",
                w.appends, w.fsyncs, w.sync_errors, w.degraded_tenants, w.checkpoints
            ));
        }
        if let Some(r) = &self.recovery {
            s.push_str(&format!(
                " recovered_replayed={} recovered_degraded={} recovered_closed={} \
                 recovered_quarantined={} replayed_events={}",
                r.replayed, r.degraded, r.closed, r.quarantined, r.replayed_events
            ));
        }
        s
    }

    /// The one-line `HEALTH` response: liveness plus the load/containment
    /// counters an operator triages with first.
    pub(crate) fn health_line(&self) -> String {
        let s = &self.stats;
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
            self.wal_mode(),
            if self.registry.is_some() { "on" } else { "off" },
            self.opts.trace_ring,
        )
    }

    /// The `METRICS` response: the registry as Prometheus-style `METRIC`
    /// lines plus an `OK metrics` trailer. The caller has already applied
    /// every queued event.
    pub(crate) fn render_metrics(&mut self, conn: ConnId, out: &mut LineBuf) {
        self.refresh_gauges();
        let Some(reg) = &self.registry else {
            return out.push(conn, b"OK metrics lines=0 enabled=false");
        };
        let text = reg.snapshot().render_prometheus();
        let before = out.len();
        for line in text.lines() {
            out.push(conn, format!("METRIC {line}").as_bytes());
        }
        out.push(conn, format!("OK metrics lines={}", out.len() - before).as_bytes());
    }

    /// The drain boundary: publish every live tenant's pending deltas and
    /// refresh the point-in-time gauges the flush path cannot maintain
    /// incrementally — per-tenant queue high-water marks and calibration
    /// accumulators, plus the service-wide counters and the per-reason
    /// reject tally. Called right before each snapshot/exposition so the
    /// rendered values are current.
    fn refresh_gauges(&mut self) {
        let Some(reg) = &mut self.registry else { return };
        for t in &self.tenants {
            let (queue_hwm, cal, pending) = {
                let mut slot = lock_slot(&t.slot);
                let Ok(state) = slot.live() else { continue };
                (state.queue_hwm, state.calibration().cloned(), state.pending_metrics.take())
            };
            reg.update(&t.name, |m| {
                if let Some(pending) = &pending {
                    publish_pending(m, pending);
                }
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
        reg.update("", |m| {
            m.gauge_set("tenants_live", live);
            m.gauge_set("tenants_opened", s.opens);
            m.gauge_set("service_events", s.events);
            m.gauge_set("sheds", s.sheds);
            m.gauge_set("rejects", s.rejects);
            m.gauge_set("parse_errors", s.parse_errors);
            m.gauge_set("quarantined", s.quarantined);
            m.gauge_set("batches", s.batches);
            for (name, n) in REJECT_METRIC_NAMES.into_iter().zip(self.reject_global) {
                m.gauge_set(name, n);
            }
        });
    }

    /// Batch-boundary snapshot cadence: write a snapshot once
    /// `metrics_every` further events have been processed. Cadence is
    /// driven by the deterministic event counter, never the wall clock,
    /// so snapshot files are byte-identical at any `--threads N`.
    pub(crate) fn maybe_write_metrics(&mut self) {
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
        self.refresh_gauges();
        let (Some(path), Some(reg)) = (&self.opts.metrics_out, &self.registry) else { return };
        self.metrics_snapshots += 1;
        let mut buf = format!(
            "{{\"schema\":\"pfmetrics-snap/v1\",\"snapshot\":{},\"events\":{}}}\n",
            self.metrics_snapshots, self.stats.events
        );
        buf.push_str(&reg.snapshot().render_jsonl());
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
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
        self.counters(tlog::info("serve_stats").u64("tenants_live", self.admission.live() as u64))
            .u64("batches", self.stats.batches)
            .u64("reserved_bytes", self.admission.reserved_bytes())
            .emit();
    }

    fn log_summary(&self) {
        let events = self.stats.events as f64;
        let elapsed = self.started.elapsed().as_secs_f64();
        self.counters(tlog::info("serve_drain"))
            .f64("elapsed_s", elapsed)
            .f64("events_per_sec", if elapsed > 0.0 { events / elapsed } else { 0.0 })
            .emit();
    }

    /// The counters both telemetry records carry, in their fixed order.
    fn counters(&self, record: tlog::Record) -> tlog::Record {
        let s = &self.stats;
        record
            .u64("tenants_opened", s.opens)
            .u64("events", s.events)
            .u64("sheds", s.sheds)
            .u64("rejects", s.rejects)
            .u64("parse_errors", s.parse_errors)
            .u64("quarantined", s.quarantined)
    }
}
