//! Trace record types.
//!
//! The simulator follows the paper's system model: an application issues I/O
//! requests as *single block* requests, each serviceable by one disk access
//! (Section 3). A trace is therefore a sequence of block identifiers,
//! optionally annotated with the issuing process and the access kind.

use std::fmt;

/// Identifier of a disk block (or object, for object-reference traces such
/// as CAD). Block ids are opaque: sequentiality is defined as
/// `next.0 == prev.0 + 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

impl BlockId {
    /// The block immediately following this one on disk, used by
    /// one-block-lookahead prefetching (`next-limit` in the paper).
    #[inline]
    pub fn next(self) -> BlockId {
        BlockId(self.0.wrapping_add(1))
    }

    /// Whether `other` is the block immediately following `self`.
    #[inline]
    pub fn is_successor(self, other: BlockId) -> bool {
        other.0 == self.0.wrapping_add(1)
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for BlockId {
    fn from(v: u64) -> Self {
        BlockId(v)
    }
}

/// Read or write. The paper's model treats every reference as a fetch into
/// the buffer cache; we keep the distinction in the trace format so that
/// workload generators can record it and future policies can use it.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    #[default]
    Read,
    Write,
}

/// One I/O reference in a trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// The referenced block.
    pub block: BlockId,
    /// Issuing process (0 when unknown / single-process).
    pub pid: u32,
    /// Read or write.
    pub kind: AccessKind,
}

impl TraceRecord {
    /// A read of `block` by process 0.
    pub fn read(block: impl Into<BlockId>) -> Self {
        TraceRecord { block: block.into(), pid: 0, kind: AccessKind::Read }
    }

    /// A write of `block` by process 0.
    pub fn write(block: impl Into<BlockId>) -> Self {
        TraceRecord { block: block.into(), pid: 0, kind: AccessKind::Write }
    }

    /// Same record attributed to process `pid`.
    pub fn with_pid(mut self, pid: u32) -> Self {
        self.pid = pid;
        self
    }
}

impl From<u64> for TraceRecord {
    fn from(v: u64) -> Self {
        TraceRecord::read(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_next_is_successor() {
        let a = BlockId(41);
        assert_eq!(a.next(), BlockId(42));
        assert!(a.is_successor(BlockId(42)));
        assert!(!a.is_successor(BlockId(43)));
        assert!(!a.is_successor(BlockId(41)));
    }

    #[test]
    fn block_next_wraps_instead_of_panicking() {
        let max = BlockId(u64::MAX);
        assert_eq!(max.next(), BlockId(0));
        assert!(max.is_successor(BlockId(0)));
    }

    #[test]
    fn record_constructors() {
        let r = TraceRecord::read(7u64).with_pid(3);
        assert_eq!(r.block, BlockId(7));
        assert_eq!(r.pid, 3);
        assert_eq!(r.kind, AccessKind::Read);
        let w = TraceRecord::write(9u64);
        assert_eq!(w.kind, AccessKind::Write);
        assert_eq!(w.pid, 0);
    }

    #[test]
    fn block_display_and_debug() {
        assert_eq!(format!("{}", BlockId(5)), "5");
        assert_eq!(format!("{:?}", BlockId(5)), "b5");
    }

    #[test]
    fn record_from_u64_is_read() {
        let r: TraceRecord = 11u64.into();
        assert_eq!(r, TraceRecord::read(11u64));
    }
}
