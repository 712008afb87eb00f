//! Injectable durability faults.
//!
//! The log layer asks a [`WriteFaults`] implementation, per operation,
//! whether to sabotage the write path. Implementations live with the
//! workspace's fault-plan machinery (`prefetch-disk`'s
//! `DurabilityFaultPlan`) so every fault stream is seeded and
//! deterministic; this crate only defines the interface it consumes.

/// What to do to one append operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppendFault {
    /// Cut the record to its first `keep` bytes; the flush that writes it
    /// (everything staged before it intact, this prefix last) then fails —
    /// the torn tail a crash mid-flush leaves behind.
    ShortWrite {
        /// Bytes of the record buffer actually written.
        keep: usize,
    },
    /// Flip bit `bit` (counting from the buffer start) and report success —
    /// silent media corruption, caught later by the record fingerprint.
    BitFlip {
        /// Absolute bit index into the record buffer.
        bit: u32,
    },
}

/// Per-operation durability fault decisions (see the module docs).
pub trait WriteFaults: Send {
    /// Fault for append number `index` (0-based) of a `len`-byte record
    /// buffer, or `None` for a healthy write.
    fn on_append(&mut self, index: u64, len: usize) -> Option<AppendFault>;

    /// Whether sync number `index` (0-based) fails with an injected error.
    fn on_sync(&mut self, index: u64) -> bool;
}
