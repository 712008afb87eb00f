//! Synthetic workload generators.
//!
//! The paper drives its simulator with four traces (Table 1): cello and
//! snake (disk-block traces captured *below* a first-level file buffer
//! cache), CAD (object references from a CAD tool) and sitar (file block
//! traces of daily student usage). Those traces are not redistributable, so
//! this module synthesizes workloads that reproduce each trace's *defining
//! statistical character* — the properties the paper's results hinge on:
//!
//! | trace | defining properties we reproduce |
//! |-------|----------------------------------|
//! | cello | filtered through a 30 MB L1 → little residual locality; low predictability; some surviving sequentiality |
//! | snake | filtered through a 5 MB L1 → moderate repeated structure (~60% predictable) plus sequential runs |
//! | CAD   | no block-sequential adjacency at all; strongly repeated traversal sequences (~60% predictable, high prefetch-hit rate) |
//! | sitar | whole-file sequential reads; very high sequentiality; repeats mostly cache-resident |
//!
//! The building blocks are [`Workload`] implementations — sequential runs,
//! Zipf-random references, Markov pattern replay, repeated loop replay —
//! composed with [`Interleave`] (multi-process mixing) and [`L1Filter`]
//! (emit only the misses of a first-level LRU cache, matching how the
//! original cello/snake traces were captured).
//!
//! Everything is deterministic given the seed.

mod cad;
mod cello;
mod interleave;
mod l1filter;
mod loops;
mod markov;
mod primitives;
mod sitar;
mod snake;
mod zipf;

pub use cad::{generate_cad, stream_cad, CadConfig};
pub use cello::{generate_cello, stream_cello, CelloConfig};
pub use interleave::Interleave;
pub use l1filter::{L1Filter, LruSet};
pub use loops::LoopReplay;
pub use markov::MarkovPatterns;
pub use primitives::{SequentialRuns, UniformRandom, ZipfRandom};
pub use sitar::{generate_sitar, stream_sitar, SitarConfig};
pub use snake::{generate_snake, stream_snake, SnakeConfig};
pub use zipf::ZipfSampler;

use crate::{Trace, TraceMeta, TraceRecord};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Block size assumed when converting the paper's L1 cache sizes (in bytes)
/// to block counts. The paper does not state the block size; 4 KiB is the
/// classic UNIX file-system block and keeps the cello (30 MB) and snake
/// (5 MB) L1 caches at 7680 and 1280 blocks respectively.
pub const BLOCK_BYTES: u64 = 4096;

/// A source of trace records. Implementations hold their own workload state
/// (current file offset, Markov state, ...) and draw randomness from the
/// caller-provided RNG so composition stays deterministic.
pub trait Workload {
    /// Produce the next reference.
    fn next_record(&mut self, rng: &mut SmallRng) -> TraceRecord;
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn next_record(&mut self, rng: &mut SmallRng) -> TraceRecord {
        (**self).next_record(rng)
    }
}

/// Drive `workload` for `refs` references into a [`Trace`] with the given
/// metadata and seed.
///
/// This materializes the whole trace; for constant-memory streaming use a
/// [`SynthSource`] (the named generators expose one via `stream_*` /
/// [`TraceKind::stream`]). Both paths draw records identically: a
/// `SmallRng` seeded with `seed` drives the workload one record at a time.
pub fn generate(mut workload: impl Workload, refs: usize, seed: u64, meta: TraceMeta) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut trace = Trace::new(TraceMeta { seed: Some(seed), ..meta });
    trace.reserve(refs);
    for _ in 0..refs {
        let r = workload.next_record(&mut rng);
        trace.push(r);
    }
    trace
}

/// Builds a fresh, deterministic [`Workload`] instance; [`SynthSource`]
/// invokes it on construction and on every rewind, so one factory call
/// must always produce the same workload state.
pub type WorkloadFactory = Box<dyn Fn() -> Box<dyn Workload + Send> + Send + Sync>;

/// A streaming [`crate::source::TraceSource`] over a synthetic workload:
/// records are drawn on the fly (memory independent of `refs`), and
/// rewinding rebuilds the workload from its factory and reseeds the RNG,
/// reproducing the stream bit for bit.
///
/// The stream is identical to what [`generate`] materializes from the same
/// workload, seed, and reference count.
pub struct SynthSource {
    factory: WorkloadFactory,
    workload: Box<dyn Workload + Send>,
    rng: SmallRng,
    seed: u64,
    refs: u64,
    emitted: u64,
    meta: TraceMeta,
}

impl SynthSource {
    /// A source yielding `refs` records from the workload the factory
    /// builds, seeded with `seed` (stamped into the metadata, as
    /// [`generate`] does).
    pub fn new(refs: usize, seed: u64, meta: TraceMeta, factory: WorkloadFactory) -> Self {
        let workload = factory();
        SynthSource {
            factory,
            workload,
            rng: SmallRng::seed_from_u64(seed),
            seed,
            refs: refs as u64,
            emitted: 0,
            meta: TraceMeta { seed: Some(seed), ..meta },
        }
    }

    /// Materialize the remaining records into a [`Trace`] (infallible,
    /// unlike the generic [`crate::source::TraceSource::materialize`]).
    pub fn into_trace(mut self) -> Trace {
        use crate::source::TraceSource as _;
        self.materialize().expect("synthetic sources cannot fail")
    }
}

impl crate::source::TraceSource for SynthSource {
    fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.refs)
    }

    fn next_record(&mut self) -> Result<Option<TraceRecord>, crate::io::TraceIoError> {
        if self.emitted == self.refs {
            return Ok(None);
        }
        self.emitted += 1;
        Ok(Some(self.workload.next_record(&mut self.rng)))
    }

    fn rewind(&mut self) -> Result<(), crate::io::TraceIoError> {
        self.workload = (self.factory)();
        self.rng = SmallRng::seed_from_u64(self.seed);
        self.emitted = 0;
        Ok(())
    }
}

/// Which of the paper's four traces to synthesize.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Timesharing-system disk blocks, post-30MB-L1 (Ruemmler & Wilkes).
    Cello,
    /// File-server disk blocks, post-5MB-L1 (Ruemmler & Wilkes).
    Snake,
    /// Object references from a CAD tool (Curewitz et al.).
    Cad,
    /// File blocks from normal daily student usage (Griffioen & Appleton).
    Sitar,
}

impl TraceKind {
    /// All four kinds in the paper's Table 1 order.
    pub const ALL: [TraceKind; 4] =
        [TraceKind::Cello, TraceKind::Snake, TraceKind::Cad, TraceKind::Sitar];

    /// The trace's short name as used throughout the paper.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Cello => "cello",
            TraceKind::Snake => "snake",
            TraceKind::Cad => "cad",
            TraceKind::Sitar => "sitar",
        }
    }

    /// Generate this trace with `refs` references from `seed`.
    pub fn generate(self, refs: usize, seed: u64) -> Trace {
        self.stream(refs, seed).into_trace()
    }

    /// Stream this trace with `refs` references from `seed` without
    /// materializing it; bit-identical to [`TraceKind::generate`].
    pub fn stream(self, refs: usize, seed: u64) -> SynthSource {
        match self {
            TraceKind::Cello => stream_cello(&CelloConfig { refs, ..CelloConfig::default() }, seed),
            TraceKind::Snake => stream_snake(&SnakeConfig { refs, ..SnakeConfig::default() }, seed),
            TraceKind::Cad => stream_cad(&CadConfig { refs, ..CadConfig::default() }, seed),
            TraceKind::Sitar => stream_sitar(&SitarConfig { refs, ..SitarConfig::default() }, seed),
        }
    }
}

impl std::str::FromStr for TraceKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cello" => Ok(TraceKind::Cello),
            "snake" => Ok(TraceKind::Snake),
            "cad" => Ok(TraceKind::Cad),
            "sitar" => Ok(TraceKind::Sitar),
            other => Err(format!("unknown trace kind {other:?} (expected cello|snake|cad|sitar)")),
        }
    }
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Generate the full four-trace suite at `refs` references each.
pub fn standard_suite(refs: usize, seed: u64) -> Vec<Trace> {
    TraceKind::ALL.iter().map(|k| k.generate(refs, seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        for kind in TraceKind::ALL {
            let a = kind.generate(2000, 7);
            let b = kind.generate(2000, 7);
            assert_eq!(a.records(), b.records(), "{kind} not deterministic");
            let c = kind.generate(2000, 8);
            assert_ne!(a.records(), c.records(), "{kind} ignores seed");
        }
    }

    #[test]
    fn generators_honour_refs() {
        for kind in TraceKind::ALL {
            assert_eq!(kind.generate(1234, 1).len(), 1234);
        }
    }

    #[test]
    fn trace_kind_round_trips_from_str() {
        for kind in TraceKind::ALL {
            let parsed: TraceKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("bogus".parse::<TraceKind>().is_err());
    }

    #[test]
    fn suite_has_four_named_traces() {
        let suite = standard_suite(100, 3);
        let names: Vec<_> = suite.iter().map(|t| t.meta().name.clone()).collect();
        assert_eq!(names, vec!["cello", "snake", "cad", "sitar"]);
    }
}
