//! The [`Trace`] container: an in-memory sequence of [`TraceRecord`]s plus
//! descriptive metadata, mirroring Table 1 of the paper.

use crate::record::{BlockId, TraceRecord};

/// Descriptive metadata attached to a trace (the columns of the paper's
/// Table 1).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceMeta {
    /// Short name, e.g. `"cello"`.
    pub name: String,
    /// Human-readable description, e.g. `"Disk block traces from a
    /// timesharing system"`.
    pub description: String,
    /// Size in bytes of the first-level cache the trace was filtered
    /// through, if any (cello: 30 MB, snake: 5 MB, others: none).
    pub l1_cache_bytes: Option<u64>,
    /// Seed the synthetic generator used, for provenance.
    pub seed: Option<u64>,
}

/// An in-memory I/O trace.
///
/// Traces are append-only during generation and immutable during simulation;
/// the simulator iterates over [`Trace::records`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    meta: TraceMeta,
    records: Vec<TraceRecord>,
}

impl Trace {
    /// An empty trace with the given metadata.
    pub fn new(meta: TraceMeta) -> Self {
        Trace { meta, records: Vec::new() }
    }

    /// An empty, anonymous trace.
    pub fn empty() -> Self {
        Trace::default()
    }

    /// An anonymous trace over the given block ids (convenient in tests).
    pub fn from_blocks<I>(blocks: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<BlockId>,
    {
        Trace {
            meta: TraceMeta::default(),
            records: blocks.into_iter().map(|b| TraceRecord::read(b.into())).collect(),
        }
    }

    /// Trace metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Mutable access to the metadata (generators stamp seeds etc.).
    pub fn meta_mut(&mut self) -> &mut TraceMeta {
        &mut self.meta
    }

    /// The record sequence.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace has no references.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append one record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// Append many records.
    pub fn extend<I: IntoIterator<Item = TraceRecord>>(&mut self, records: I) {
        self.records.extend(records);
    }

    /// Reserve capacity for `additional` more records.
    pub fn reserve(&mut self, additional: usize) {
        self.records.reserve(additional);
    }

    /// Iterator over the referenced block ids.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.records.iter().map(|r| r.block)
    }

    /// A copy truncated to the first `n` references (used to scale
    /// experiments down for tests).
    pub fn truncated(&self, n: usize) -> Trace {
        Trace {
            meta: self.meta.clone(),
            records: self.records[..self.records.len().min(n)].to_vec(),
        }
    }

    /// A streaming [`crate::source::TraceSource`] view over this trace.
    pub fn source(&self) -> crate::source::TraceCursor<'_> {
        crate::source::TraceCursor::new(self)
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceRecord>>(iter: T) -> Self {
        Trace { meta: TraceMeta::default(), records: iter.into_iter().collect() }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_blocks_builds_reads() {
        let t = Trace::from_blocks([1u64, 2, 3]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.records()[0], TraceRecord::read(1u64));
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_trace() {
        let t = Trace::empty();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.blocks().count(), 0);
    }

    #[test]
    fn truncated_keeps_prefix_and_meta() {
        let mut t = Trace::from_blocks(0u64..100);
        t.meta_mut().name = "x".into();
        let s = t.truncated(10);
        assert_eq!(s.len(), 10);
        assert_eq!(s.meta().name, "x");
        assert_eq!(s.records()[9].block, BlockId(9));
        // Truncating beyond the length is a no-op copy.
        assert_eq!(t.truncated(1000).len(), 100);
    }

    #[test]
    fn push_and_extend() {
        let mut t = Trace::empty();
        t.push(TraceRecord::read(1u64));
        t.extend([TraceRecord::read(2u64), TraceRecord::read(3u64)]);
        assert_eq!(t.blocks().map(|b| b.0).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn iterate_by_ref() {
        let t = Trace::from_blocks([5u64, 6]);
        let v: Vec<u64> = (&t).into_iter().map(|r| r.block.0).collect();
        assert_eq!(v, vec![5, 6]);
    }
}
