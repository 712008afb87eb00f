//! `prefetch-wal`: the crash-durability substrate shared by the
//! checkpoint journal (`prefetch-sim`), the tree snapshots
//! (`prefetch-tree`), and the pfserve write-ahead log (`prefetch-serve`).
//!
//! Two disciplines cover every durable artifact in the workspace:
//!
//! * **Append-only logs** ([`AppendLog`], [`record`]): fingerprinted,
//!   length-prefixed binary records staged in memory, flushed to a file
//!   and group-committed under a configurable [`FsyncPolicy`]. Because a
//!   flush is a single prefix-write of whole records, a crash can only
//!   leave a *strict prefix* of the bytes — so on open ([`scan`]) a
//!   record that extends past EOF is a **torn tail** (truncated, work
//!   re-runs), while a fully-present record whose FNV-1a fingerprint
//!   mismatches can only be **corruption** (bit rot, a flipped bit) and
//!   is surfaced as a typed [`Tail::Corrupt`] for the caller to
//!   quarantine.
//! * **Atomic replace-writes** ([`atomic::replace_file`]): whole-file
//!   artifacts (checkpoint journals, tree snapshots) are written to a
//!   sibling temp file, fsync'd, and renamed over the live file, so a
//!   crash leaves either the old file or the new one — never a torn one.
//!
//! Both paths accept injectable durability faults ([`WriteFaults`]:
//! short writes, fsync errors, silent bit flips) so the degradation
//! machinery above them is exercised deterministically in tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod fault;
pub mod log;
pub mod record;

pub use fault::{AppendFault, WriteFaults};
pub use log::{AppendLog, FsyncPolicy, GroupCommit};
pub use record::{
    scan, scan_bytes, Scan, Tail, FILE_HEADER_LEN, MAX_RECORD_LEN, RECORD_HEADER_LEN,
};
