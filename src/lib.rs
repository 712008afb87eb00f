//! # predictive-prefetch
//!
//! A full reproduction of Vellanki & Chervenak, *A Cost-Benefit Scheme for
//! High Performance Predictive Prefetching* (SC 1999), as a Rust workspace.
//!
//! This meta-crate re-exports the workspace's public API:
//!
//! * [`trace`] ([`prefetch_trace`]) — I/O trace model, formats, synthetic
//!   workload generators for the paper's four traces, trace statistics;
//! * [`cache`] ([`prefetch_cache`]) — LRU, the partitioned demand/prefetch
//!   buffer cache, online Mattson stack-distance estimation;
//! * [`tree`] ([`prefetch_tree`]) — the LZ prefetch tree with candidate
//!   enumeration and LRU node limiting;
//! * [`core`] ([`prefetch_core`]) — the paper's cost-benefit model
//!   (Eq. 1-14) and all eight prefetching policies;
//! * [`sim`] ([`prefetch_sim`]) — the trace-driven simulator, parallel
//!   sweeps, and the per-figure/table experiment reproductions.
//!
//! ## Quickstart
//!
//! ```
//! use predictive_prefetch::prelude::*;
//!
//! // Generate the paper's CAD-like workload and compare policies.
//! let trace = TraceKind::Cad.generate(20_000, 42);
//! let base = run_simulation(&trace, &SimConfig::new(1024, PolicySpec::NoPrefetch));
//! let tree = run_simulation(&trace, &SimConfig::new(1024, PolicySpec::Tree));
//! assert!(tree.metrics.miss_rate() <= base.metrics.miss_rate());
//! ```

#![forbid(unsafe_code)]

pub use prefetch_cache as cache;
pub use prefetch_core as core;
pub use prefetch_disk as disk;
pub use prefetch_sim as sim;
pub use prefetch_telemetry as telemetry;
pub use prefetch_trace as trace;
pub use prefetch_tree as tree;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use prefetch_cache::{BufferCache, PrefetchMeta, StackDistanceEstimator};
    pub use prefetch_core::policy::{
        ChildPolicy, EnginePolicy, NextLimit, NoPrefetch, PerfectSelector, PeriodActivity,
        PrefetchPolicy, RefContext, RefKind, Victim,
    };
    pub use prefetch_core::{
        CostBenefitEngine, CostBenefitModel, EngineConfig, ModelConfig, Quarantine, RetryPolicy,
        SystemParams,
    };
    pub use prefetch_disk::{
        Completion, DiskArray, DiskArrayConfig, DiskFault, DiskStats, FaultPlan, Striping,
    };
    pub use prefetch_sim::experiments::{run_all, run_experiment, ExperimentOpts, TraceSet};
    pub use prefetch_sim::{
        cell_fingerprint, cell_status_record, run_cells_checkpointed, run_simulation, run_source,
        run_source_guarded, CellOutcome, CellStatus, CheckpointJournal, DiskSummary, FaultConfig,
        HarnessOpts, IoSubsystem, JournalEntry, JsonlEventSink, NullObserver, PolicySpec,
        QueueDelayObserver, SimConfig, SimConfigError, SimEvent, SimMetrics, SimObserver,
        SimResult, Simulator, StallHistogramObserver, SweepError, SweepLog, SweepRun, VirtualClock,
    };
    pub use prefetch_telemetry::{Histogram, Phase, PhaseTimer, PhaseTimes};
    pub use prefetch_trace::io::open_source;
    pub use prefetch_trace::stats::{ReuseDistances, TraceStats};
    pub use prefetch_trace::synth::{SynthSource, TraceKind};
    pub use prefetch_trace::{BlockId, Trace, TraceCursor, TraceMeta, TraceRecord, TraceSource};
    pub use prefetch_tree::{PrefetchTree, TreeStats};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_core_flow() {
        let trace = TraceKind::Sitar.generate(2000, 1);
        let r = run_simulation(&trace, &SimConfig::new(256, PolicySpec::TreeNextLimit));
        assert_eq!(r.metrics.refs, 2000);
    }
}
