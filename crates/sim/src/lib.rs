//! # prefetch-sim
//!
//! Trace-driven simulator for the SC'99 cost-benefit prefetching study:
//! the driver loop that feeds a trace through a partitioned
//! [`prefetch_cache::BufferCache`] under a [`prefetch_core::policy`]
//! policy, the metrics the paper reports, one panic-isolated, resumable
//! parallel sweep ([`run_cells_checkpointed`]), and the experiment
//! implementations that regenerate every table and
//! figure of the paper's evaluation (Section 9).
//!
//! ## Quick example
//!
//! ```
//! use prefetch_sim::{PolicySpec, SimConfig, run_simulation};
//! use prefetch_trace::synth::TraceKind;
//!
//! let trace = TraceKind::Cad.generate(20_000, 42);
//! let cfg = SimConfig::new(1024, PolicySpec::TreeNextLimit);
//! let result = run_simulation(&trace, &cfg);
//! assert!(result.metrics.miss_rate() < 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod clock;
pub mod config;
pub mod experiments;
pub mod harness;
pub mod instrument;
pub mod io_subsystem;
pub mod metrics;
pub mod observer;
pub mod report;
pub mod runner;
pub mod simulator;
pub mod sweep;

pub use checkpoint::{cell_fingerprint, CheckpointError, CheckpointJournal, JournalEntry};
pub use clock::VirtualClock;
pub use config::{FaultConfig, PolicySpec, SimConfig, SimConfigError};
pub use harness::{
    cell_status_record, run_cells_checkpointed, run_source_guarded, CellOutcome, CellStatus,
    DeadlineGuard, HarnessOpts, SweepError, SweepLog, SweepRun, SweepSummary,
};
pub use instrument::{JsonlEventSink, QueueDelayObserver, StallHistogramObserver};
pub use io_subsystem::IoSubsystem;
pub use metrics::SimMetrics;
pub use observer::{DiskSummary, NullObserver, SimEvent, SimObserver};
pub use runner::{run_simulation, run_source, SimResult};
pub use simulator::Simulator;
pub use sweep::SweepCell;
