//! Telemetry observers: distribution-aware instrumentation over the
//! [`crate::observer::SimEvent`] stream.
//!
//! The paper's results are distributional (stall behavior across traces
//! and policies), yet [`crate::SimMetrics`] only keeps scalar totals.
//! These observers fold the same event stream into
//! [`prefetch_telemetry::Histogram`]s — per-reference stall, demand-fetch
//! latency, disk queue delay, prefetch depth — and, for offline analysis,
//! [`JsonlEventSink`] streams every event as one JSON object per line.
//! All of them compose with the metrics observer through the tuple
//! fan-out impls, so one pass over the trace feeds everything.
//!
//! Latencies are recorded in **integer microseconds** (virtual-time
//! milliseconds × 1000, rounded): sub-millisecond stalls like `t_hit`
//! stay resolvable while the histogram's 6.25% relative quantization
//! holds at every magnitude.

use crate::observer::{SimEvent, SimObserver};
use prefetch_core::policy::RefKind;
use prefetch_telemetry::Histogram;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Virtual-time milliseconds → integer microseconds (clamped at zero).
#[inline]
pub fn ms_to_us(ms: f64) -> u64 {
    (ms * 1000.0).round().max(0.0) as u64
}

/// Stall and prefetch-depth distributions of one run.
///
/// * `stall_us` — the stall absorbed by **every** reference (hits record
///   0 µs, so quantiles are over the full reference stream);
/// * `demand_fetch_us` — the demand-fetch latency of miss-path
///   references only (queueing, retries, and give-up penalties included);
/// * `prefetch_depth` — prefetches issued per *prefetching* access
///   period (periods that issued none are excluded, so the median
///   describes burst size rather than collapsing to zero).
#[derive(Clone, Debug, Default)]
pub struct StallHistogramObserver {
    /// Per-reference stall (µs), all references.
    pub stall_us: Histogram,
    /// Demand-fetch latency (µs), misses only.
    pub demand_fetch_us: Histogram,
    /// Prefetches issued per prefetching period.
    pub prefetch_depth: Histogram,
}

impl StallHistogramObserver {
    /// Empty histograms.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SimObserver for StallHistogramObserver {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        match *event {
            SimEvent::Reference { kind, stall_ms, .. } => {
                self.stall_us.record(ms_to_us(stall_ms));
                if kind == RefKind::Miss {
                    self.demand_fetch_us.record(ms_to_us(stall_ms));
                }
            }
            SimEvent::Period { activity, .. } if activity.prefetches_issued > 0 => {
                self.prefetch_depth.record(u64::from(activity.prefetches_issued));
            }
            _ => {}
        }
    }
}

/// Disk queue-delay distributions, split by read purpose. Built from
/// [`SimEvent::DiskRead`], which the infinite disk also emits (with zero
/// queueing), so the observer works on every configuration.
#[derive(Clone, Debug, Default)]
pub struct QueueDelayObserver {
    /// Queue delay of demand reads (µs).
    pub demand_queue_us: Histogram,
    /// Queue delay of prefetch reads (µs).
    pub prefetch_queue_us: Histogram,
}

impl QueueDelayObserver {
    /// Empty histograms.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SimObserver for QueueDelayObserver {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        if let SimEvent::DiskRead { prefetch, queue_ms, .. } = *event {
            if prefetch {
                self.prefetch_queue_us.record(ms_to_us(queue_ms));
            } else {
                self.demand_queue_us.record(ms_to_us(queue_ms));
            }
        }
    }
}

/// Streams every [`SimEvent`] as one JSON object per line (hand-rolled:
/// the workspace has no JSON dependency). Write errors are captured on
/// first occurrence and surfaced by [`JsonlEventSink::finish`]; the
/// simulation itself never aborts over a full disk.
pub struct JsonlEventSink {
    writer: BufWriter<File>,
    error: Option<io::Error>,
}

impl JsonlEventSink {
    /// Create (truncate) `path` and stream events into it.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(JsonlEventSink { writer: BufWriter::new(File::create(path)?), error: None })
    }

    /// Flush and report the first write error, if any.
    pub fn finish(mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.writer, "{line}") {
            self.error = Some(e);
        }
    }
}

fn kind_name(kind: RefKind) -> &'static str {
    match kind {
        RefKind::DemandHit => "demand_hit",
        RefKind::PrefetchHit => "prefetch_hit",
        RefKind::Miss => "miss",
    }
}

impl SimObserver for JsonlEventSink {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        let line = match *event {
            SimEvent::Reference { period, record, kind, stall_ms, evicted_prefetch } => format!(
                "{{\"type\":\"reference\",\"period\":{period},\"block\":{},\"kind\":\"{}\",\
                 \"stall_ms\":{stall_ms},\"evicted_prefetch\":{evicted_prefetch}}}",
                record.block.0,
                kind_name(kind),
            ),
            SimEvent::DemandFault { period, block, attempt, retried, backoff_ms } => format!(
                "{{\"type\":\"demand_fault\",\"period\":{period},\"block\":{},\
                 \"attempt\":{attempt},\"retried\":{retried},\"backoff_ms\":{backoff_ms}}}",
                block.0,
            ),
            SimEvent::DemandGiveUp { period, block, penalty_ms } => format!(
                "{{\"type\":\"demand_give_up\",\"period\":{period},\"block\":{},\
                 \"penalty_ms\":{penalty_ms}}}",
                block.0,
            ),
            SimEvent::DiskRead { period, block, prefetch, queue_ms } => format!(
                "{{\"type\":\"disk_read\",\"period\":{period},\"block\":{},\
                 \"prefetch\":{prefetch},\"queue_ms\":{queue_ms}}}",
                block.0,
            ),
            SimEvent::PrefetchFault { period, block, quarantined } => format!(
                "{{\"type\":\"prefetch_fault\",\"period\":{period},\"block\":{},\
                 \"quarantined\":{quarantined}}}",
                block.0,
            ),
            SimEvent::Period { period, kind, activity } => format!(
                "{{\"type\":\"period\",\"period\":{period},\"kind\":\"{}\",\
                 \"prefetches_issued\":{},\"candidates_considered\":{},\
                 \"prefetch_evictions\":{},\"predictable\":{}}}",
                kind_name(kind),
                activity.prefetches_issued,
                activity.candidates_considered,
                activity.prefetch_evictions,
                activity.predictable,
            ),
            SimEvent::End { elapsed_ms, disk } => match disk {
                Some(d) => format!(
                    "{{\"type\":\"end\",\"elapsed_ms\":{elapsed_ms},\"disk_queue_ms\":{},\
                     \"disk_queued_requests\":{}}}",
                    d.queue_ms, d.queued_requests,
                ),
                None => format!("{{\"type\":\"end\",\"elapsed_ms\":{elapsed_ms}}}"),
            },
        };
        self.write_line(&line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PolicySpec, SimConfig};
    use crate::metrics::SimMetrics;
    use crate::simulator::Simulator;
    use prefetch_trace::synth::TraceKind;

    fn run_instrumented(
        cfg: &SimConfig,
    ) -> (SimMetrics, StallHistogramObserver, QueueDelayObserver) {
        let trace = TraceKind::Snake.generate(3000, 5);
        let mut obs =
            (SimMetrics::default(), StallHistogramObserver::new(), QueueDelayObserver::new());
        Simulator::run(&mut trace.source(), cfg, &mut obs).unwrap();
        (obs.0, obs.1, obs.2)
    }

    #[test]
    fn stall_histogram_covers_every_reference() {
        let cfg = SimConfig::new(128, PolicySpec::TreeNextLimit);
        let (metrics, stalls, _) = run_instrumented(&cfg);
        assert_eq!(stalls.stall_us.count(), metrics.refs);
        assert_eq!(stalls.demand_fetch_us.count(), metrics.misses);
        // Sum of recorded stalls (µs) tracks the scalar total (ms) within
        // rounding: one reference rounds by at most half a microsecond.
        let sum_ms = stalls.stall_us.sum() / 1000.0;
        assert!(
            (sum_ms - metrics.stall_ms).abs() <= 0.0005 * metrics.refs as f64,
            "histogram sum {sum_ms} vs scalar {}",
            metrics.stall_ms
        );
        assert!(stalls.stall_us.p99() >= stalls.stall_us.p50());
    }

    #[test]
    fn prefetch_depth_counts_only_prefetching_periods() {
        let cfg = SimConfig::new(128, PolicySpec::TreeNextLimit);
        let (metrics, stalls, _) = run_instrumented(&cfg);
        assert!(stalls.prefetch_depth.count() > 0, "snake under tree-next-limit prefetches");
        assert!(stalls.prefetch_depth.count() <= metrics.refs);
        assert!(stalls.prefetch_depth.min() >= 1, "zero-prefetch periods are excluded");
        assert_eq!(stalls.prefetch_depth.sum() as u64, metrics.prefetches_issued);
    }

    #[test]
    fn queue_delay_observer_counts_every_disk_read() {
        // Finite 1-disk array on the CAD trace: prefetch bursts contend
        // for the single disk, so some delays are nonzero.
        let trace = TraceKind::Cad.generate(3000, 5);
        let cfg = SimConfig::new(128, PolicySpec::TreeNextLimit).with_disks(1);
        let mut obs =
            (SimMetrics::default(), StallHistogramObserver::new(), QueueDelayObserver::new());
        Simulator::run(&mut trace.source(), &cfg, &mut obs).unwrap();
        let (metrics, _, queues) = (obs.0, obs.1, obs.2);
        assert_eq!(queues.demand_queue_us.count(), metrics.misses);
        assert!(queues.prefetch_queue_us.count() > 0);
        assert!(metrics.disk_queued_requests > 0, "CAD on one disk must queue");
        assert!(
            queues.demand_queue_us.max() > 0 || queues.prefetch_queue_us.max() > 0,
            "queueing must show up in the delay histograms"
        );

        // Infinite disk: same counts, all delays zero.
        let cfg = SimConfig::new(128, PolicySpec::TreeNextLimit);
        let (metrics, _, queues) = run_instrumented(&cfg);
        assert_eq!(queues.demand_queue_us.count(), metrics.misses);
        assert_eq!(queues.demand_queue_us.max(), 0);
        assert_eq!(queues.prefetch_queue_us.max(), 0);
    }

    #[test]
    fn instrumentation_does_not_perturb_metrics() {
        let trace = TraceKind::Cad.generate(3000, 7);
        let cfg = SimConfig::new(256, PolicySpec::Tree).with_disks(2).with_fault_rate(3, 0.05);
        cfg.validate().unwrap();
        let mut plain = SimMetrics::default();
        Simulator::run(&mut trace.source(), &cfg, &mut plain).unwrap();
        let mut fat = (
            SimMetrics::default(),
            StallHistogramObserver::new(),
            QueueDelayObserver::new(),
            SimMetrics::default(),
        );
        Simulator::run(&mut trace.source(), &cfg, &mut fat).unwrap();
        assert_eq!(plain, fat.0);
        assert_eq!(plain, fat.3, "fan-out order must not affect folding");
    }

    #[test]
    fn jsonl_sink_streams_one_line_per_event() {
        let dir = std::env::temp_dir().join(format!("pf-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let trace = TraceKind::Snake.generate(500, 3);
        let cfg = SimConfig::new(64, PolicySpec::TreeNextLimit).with_disks(2);
        let mut obs = (SimMetrics::default(), JsonlEventSink::create(&path).unwrap());
        Simulator::run(&mut trace.source(), &cfg, &mut obs).unwrap();
        let (metrics, sink) = obs;
        sink.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        let refs = lines.iter().filter(|l| l.contains("\"type\":\"reference\"")).count();
        assert_eq!(refs as u64, metrics.refs);
        let ends = lines.iter().filter(|l| l.contains("\"type\":\"end\"")).count();
        assert_eq!(ends, 1);
        let reads = lines.iter().filter(|l| l.contains("\"type\":\"disk_read\"")).count();
        assert!(reads > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fan_out_order_matches_emission_order() {
        // Satellite check: a tuple observer delivers each event to every
        // member before the next event arrives, and the per-member stream
        // follows the documented emission order (faults → DiskRead →
        // Reference → Period → prefetch DiskReads/faults → End).
        #[derive(Default)]
        struct Recorder {
            tags: Vec<&'static str>,
        }
        impl SimObserver for Recorder {
            fn on_event(&mut self, event: &SimEvent<'_>) {
                self.tags.push(match event {
                    SimEvent::Reference { .. } => "ref",
                    SimEvent::DemandFault { .. } => "dfault",
                    SimEvent::DemandGiveUp { .. } => "giveup",
                    SimEvent::DiskRead { prefetch: false, .. } => "dread",
                    SimEvent::DiskRead { prefetch: true, .. } => "pread",
                    SimEvent::PrefetchFault { .. } => "pfault",
                    SimEvent::Period { .. } => "period",
                    SimEvent::End { .. } => "end",
                });
            }
        }
        let trace = TraceKind::Snake.generate(800, 3);
        let cfg = SimConfig::new(64, PolicySpec::TreeNextLimit).with_disks(1);
        let mut obs = (Recorder::default(), Recorder::default(), Recorder::default());
        Simulator::run(&mut trace.source(), &cfg, &mut obs).unwrap();
        assert_eq!(obs.0.tags, obs.1.tags, "every member sees the identical stream");
        assert_eq!(obs.1.tags, obs.2.tags);
        let tags = &obs.0.tags;
        assert_eq!(*tags.last().unwrap(), "end");
        // Emission order within a reference: any demand DiskRead directly
        // precedes its Reference; every Reference is followed by its
        // Period before the next Reference.
        for (i, t) in tags.iter().enumerate() {
            match *t {
                "dread" => assert_eq!(tags[i + 1], "ref", "demand read must precede its reference"),
                "ref" => {
                    let next = tags[i + 1];
                    assert_eq!(next, "period", "reference must be followed by its period");
                }
                "pread" | "pfault" => {
                    // Prefetch activity belongs between a Period and the
                    // next reference's events.
                    let prev_period = tags[..i].iter().rev().any(|t| *t == "period");
                    assert!(prev_period, "prefetch activity before any period");
                }
                _ => {}
            }
        }
    }
}
