//! # prefetch-trace
//!
//! I/O trace substrate for the predictive-prefetching study of
//! Vellanki & Chervenak, *A Cost-Benefit Scheme for High Performance
//! Predictive Prefetching* (SC 1999).
//!
//! The paper evaluates its prefetching schemes with trace-driven simulation
//! over four workloads (cello, snake, CAD, sitar). Those original traces are
//! not publicly distributable, so this crate provides:
//!
//! * a compact trace model ([`TraceRecord`], [`Trace`]),
//! * text and binary on-disk formats ([`io`]),
//! * **synthetic generators** that reproduce the statistical character of
//!   each of the paper's four traces ([`synth`]), plus reusable workload
//!   primitives (sequential runs, Zipf sampling, Markov patterns, repeated
//!   loops, multi-process interleaving, and first-level-cache filtering),
//! * trace statistics used to validate the generators ([`stats`]).
//!
//! All generators are deterministic given a seed, so every experiment in the
//! companion crates is exactly reproducible.
//!
//! ## Quick example
//!
//! ```
//! use prefetch_trace::synth::{CadConfig, generate_cad};
//! use prefetch_trace::stats::TraceStats;
//!
//! let trace = generate_cad(&CadConfig { refs: 10_000, ..CadConfig::default() }, 42);
//! assert_eq!(trace.len(), 10_000);
//! let stats = TraceStats::compute(&trace);
//! // CAD object references have almost no block-sequential adjacency.
//! assert!(stats.sequential_fraction < 0.1);
//! ```

#![forbid(unsafe_code)]

pub mod io;
pub mod record;
pub mod source;
pub mod stats;
pub mod synth;
pub mod trace;

pub use io::open_source;
pub use record::{AccessKind, BlockId, TraceRecord};
pub use source::{L1FilterSource, TraceCursor, TraceSource};
pub use trace::{Trace, TraceMeta};
