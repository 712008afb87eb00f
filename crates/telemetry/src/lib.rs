//! # prefetch-telemetry
//!
//! Observability primitives for the prefetching workspace, built the same
//! way as the vendored stubs: std-only, offline-friendly, no third-party
//! dependencies. Three pieces:
//!
//! * [`Histogram`] — a log-scaled fixed-bucket latency/size histogram with
//!   `u64` counts: mergeable across shards, p50/p90/p99/max queries, and a
//!   bit-exact word serialization consistent with the checkpoint journal's
//!   bit-cast convention.
//! * [`log`] — a structured logging facade: leveled events with `key=value`
//!   fields, rendered to a human sink on stderr and (optionally) a JSONL
//!   file sink, so every harness outcome is a typed, greppable record.
//! * [`phase`] — [`PhaseTimer`] profiling over the simulator's five hot
//!   phases, with a disabled ("NullTelemetry") path that costs one branch
//!   per probe so tier-1 timing is unaffected.
//! * [`registry`] — a live [`MetricsRegistry`] keyed by `(tenant,
//!   metric)`: a plainly owned map with one writer, with JSONL and
//!   Prometheus-style renderers.
//! * [`flight`] — the [`FlightRecorder`], a fixed-size per-tenant ring of
//!   request-lifecycle trace events stamped with sequence numbers (never
//!   wall clock), dumped on panic/WAL-degrade for post-mortem context.

#![forbid(unsafe_code)]

pub mod flight;
pub mod histogram;
pub mod log;
pub mod phase;
pub mod registry;

pub use flight::{FlightEvent, FlightRecorder};
pub use histogram::Histogram;
pub use phase::{Phase, PhaseTimer, PhaseTimes};
pub use registry::{MetricSet, MetricValue, MetricsRegistry, Snapshot};
