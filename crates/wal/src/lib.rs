//! `prefetch-wal`: the crash-durability substrate shared by the
//! checkpoint journal (`prefetch-sim`), the tree snapshots
//! (`prefetch-tree`), and the pfserve write-ahead log (`prefetch-serve`).
//!
//! Every durable file in the workspace uses one record framing
//! ([`record`]: an 8-byte `PFWL` header, then length-prefixed records
//! each fingerprinted with FNV-1a) and is read back by one scanner
//! ([`scan`] / [`scan_bytes`]). Two write disciplines put the records on
//! disk:
//!
//! * **Append-only logs** ([`AppendLog`]): records are staged in memory,
//!   flushed to a file and group-committed under a configurable
//!   [`FsyncPolicy`]. Because a flush is a single prefix-write of whole
//!   records, a crash can only leave a *strict prefix* of the bytes — so
//!   on open a record that extends past EOF is a **torn tail**
//!   (truncated, work re-runs), while a fully-present record whose
//!   fingerprint mismatches can only be **corruption** (bit rot, a
//!   flipped bit) and is surfaced as a typed [`Tail::Corrupt`] for the
//!   caller to quarantine. The pfserve write-ahead log is one per tenant.
//! * **Whole images, replaced atomically** ([`atomic::replace_file`]):
//!   the sweep journal and tree snapshots build a complete image with
//!   [`record::file_header`] and [`record::push_record`], write it to a
//!   sibling temp file, fsync, and rename it over the live file, so a
//!   crash leaves either the old file or the new one — never a torn one.
//!   Their readers accept only a scan that ends [`Tail::Clean`].
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
