//! Streaming trace sources.
//!
//! [`TraceSource`] is the abstraction the simulator consumes: a rewindable
//! stream of [`TraceRecord`]s with attached [`TraceMeta`]. It decouples
//! *where references come from* (an in-memory [`Trace`], a synthetic
//! generator emitting records on the fly, an on-disk file read
//! incrementally) from *who consumes them*, so paper-scale runs (the
//! original cello trace is 3.5 M references) need memory independent of
//! trace length.
//!
//! Implementations in this crate:
//!
//! * [`TraceCursor`] — over a materialized [`Trace`] (via
//!   [`Trace::source`]);
//! * [`crate::synth::SynthSource`] — the four synthetic generators,
//!   emitting records on the fly (including their L1-filter stage);
//! * [`crate::io::TextSource`], [`crate::io::BinarySource`] — incremental
//!   on-disk readers ([`crate::io::open_source`] picks by extension);
//! * [`L1FilterSource`] — a streaming first-level-cache filter over any
//!   other source.

use crate::io::TraceIoError;
use crate::synth::LruSet;
use crate::{Trace, TraceMeta, TraceRecord};

/// A rewindable stream of trace records with metadata.
///
/// Sources are *fused after failure*: when [`TraceSource::next_record`]
/// returns an error, later calls return `Ok(None)` until the source is
/// rewound. In-memory and synthetic sources never fail.
pub trait TraceSource {
    /// Metadata describing the trace. File sources may refine this while
    /// streaming (a `#!meta` line), so callers wanting the final metadata
    /// should re-read it after exhaustion.
    fn meta(&self) -> &TraceMeta;

    /// Number of records this source will yield from the start, if known
    /// up front (in-memory, synthetic, and binary-file sources know;
    /// text-file sources do not).
    fn len_hint(&self) -> Option<u64>;

    /// Produce the next record, `Ok(None)` at end of stream.
    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceIoError>;

    /// Reset the source so the next [`TraceSource::next_record`] yields
    /// the first record again, bit-identically.
    fn rewind(&mut self) -> Result<(), TraceIoError>;

    /// Malformed records skipped so far by a lossy reader (this pass;
    /// counters reset on rewind). Sources that cannot lose records —
    /// in-memory, synthetic, strict file readers — report `0`, the
    /// default.
    fn skipped(&self) -> u64 {
        0
    }

    /// Drain the source into an in-memory [`Trace`] (the bridge back to
    /// the materialized world; the inverse of [`Trace::source`]).
    fn materialize(&mut self) -> Result<Trace, TraceIoError>
    where
        Self: Sized,
    {
        // A file's declared count is a claim, and a record is at least
        // one byte of it: reserve one chunk on the hint's word and let
        // growth follow what actually decodes.
        const RESERVE_CHUNK: u64 = 1 << 16;
        let mut trace = Trace::new(self.meta().clone());
        if let Some(n) = self.len_hint() {
            trace.reserve(n.min(RESERVE_CHUNK) as usize);
        }
        while let Some(r) = self.next_record()? {
            trace.push(r);
        }
        // Pick up metadata refined while streaming (text `#!meta` lines).
        *trace.meta_mut() = self.meta().clone();
        Ok(trace)
    }
}

impl<S: TraceSource + ?Sized> TraceSource for &mut S {
    fn meta(&self) -> &TraceMeta {
        (**self).meta()
    }
    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }
    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceIoError> {
        (**self).next_record()
    }
    fn rewind(&mut self) -> Result<(), TraceIoError> {
        (**self).rewind()
    }
    fn skipped(&self) -> u64 {
        (**self).skipped()
    }
}

impl<S: TraceSource + ?Sized> TraceSource for Box<S> {
    fn meta(&self) -> &TraceMeta {
        (**self).meta()
    }
    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }
    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceIoError> {
        (**self).next_record()
    }
    fn rewind(&mut self) -> Result<(), TraceIoError> {
        (**self).rewind()
    }
    fn skipped(&self) -> u64 {
        (**self).skipped()
    }
}

/// Streaming view over a materialized [`Trace`] (see [`Trace::source`]).
#[derive(Debug)]
pub struct TraceCursor<'a> {
    trace: &'a Trace,
    pos: usize,
}

impl<'a> TraceCursor<'a> {
    /// A cursor positioned at the start of `trace`.
    pub fn new(trace: &'a Trace) -> Self {
        TraceCursor { trace, pos: 0 }
    }
}

impl TraceSource for TraceCursor<'_> {
    fn meta(&self) -> &TraceMeta {
        self.trace.meta()
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.trace.len() as u64)
    }

    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceIoError> {
        let r = self.trace.records().get(self.pos).copied();
        if r.is_some() {
            self.pos += 1;
        }
        Ok(r)
    }

    fn rewind(&mut self) -> Result<(), TraceIoError> {
        self.pos = 0;
        Ok(())
    }
}

/// Streaming first-level-cache filter: forwards only the records that
/// *miss* an LRU cache of the configured size, reproducing how the
/// original cello/snake traces were captured at the disk level (the
/// streaming counterpart of [`crate::synth::L1Filter`], usable over file
/// sources too).
pub struct L1FilterSource<S> {
    inner: S,
    capacity_blocks: usize,
    cache: LruSet,
}

impl<S: TraceSource> L1FilterSource<S> {
    /// Filter `inner` through an LRU cache of `capacity_blocks` blocks.
    ///
    /// # Panics
    /// Panics if `capacity_blocks` is zero.
    pub fn new(inner: S, capacity_blocks: usize) -> Self {
        L1FilterSource { inner, capacity_blocks, cache: LruSet::new(capacity_blocks) }
    }

    /// The wrapped source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: TraceSource> TraceSource for L1FilterSource<S> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    /// Unknown: depends on how many inner records hit the filter cache.
    fn len_hint(&self) -> Option<u64> {
        None
    }

    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceIoError> {
        while let Some(r) = self.inner.next_record()? {
            if !self.cache.access(r.block) {
                return Ok(Some(r));
            }
        }
        Ok(None)
    }

    fn rewind(&mut self) -> Result<(), TraceIoError> {
        self.inner.rewind()?;
        self.cache = LruSet::new(self.capacity_blocks);
        Ok(())
    }

    fn skipped(&self) -> u64 {
        self.inner.skipped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::TraceKind;

    #[test]
    fn cursor_streams_the_trace_and_rewinds() {
        let t = Trace::from_blocks([3u64, 1, 4, 1, 5]);
        let mut s = t.source();
        assert_eq!(s.len_hint(), Some(5));
        let mut seen = Vec::new();
        while let Some(r) = s.next_record().unwrap() {
            seen.push(r.block.0);
        }
        assert_eq!(seen, [3, 1, 4, 1, 5]);
        assert_eq!(s.next_record().unwrap(), None);
        s.rewind().unwrap();
        assert_eq!(s.next_record().unwrap().unwrap().block.0, 3);
    }

    #[test]
    fn materialize_round_trips_the_cursor() {
        let t = TraceKind::Cad.generate(500, 9);
        let back = t.source().materialize().unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn sources_are_object_safe_and_usable_boxed() {
        let t = Trace::from_blocks(0u64..10);
        let mut boxed: Box<dyn TraceSource + '_> = Box::new(t.source());
        let mut n = 0;
        while boxed.next_record().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
        boxed.rewind().unwrap();
        assert!(boxed.next_record().unwrap().is_some());
    }

    #[test]
    fn l1_filter_source_matches_the_workload_filter() {
        // Filter a materialized trace and compare against an LruSet run
        // by hand.
        let t = TraceKind::Snake.generate(3000, 4);
        let mut expected = Vec::new();
        let mut lru = LruSet::new(64);
        for r in t.records() {
            if !lru.access(r.block) {
                expected.push(*r);
            }
        }
        let mut filtered = L1FilterSource::new(t.source(), 64);
        assert_eq!(filtered.len_hint(), None);
        let got = filtered.materialize().unwrap();
        assert_eq!(got.records(), &expected[..]);

        // Rewinding resets the filter cache: a second pass is identical.
        filtered.rewind().unwrap();
        let again = filtered.materialize().unwrap();
        assert_eq!(again.records(), &expected[..]);
    }
}
