//! `prefetch-serve`: a fault-tolerant multi-tenant prefetch-advisor
//! service over the cost-benefit simulator.
//!
//! The paper's advisor is a per-process algorithm; this crate turns it
//! into a long-running service: many independent tenants stream access
//! events over a line protocol ([`protocol`]) and receive per-event
//! prefetch advice, with one `PrefetchTree` + cost-benefit cache state
//! per tenant ([`tenant`]). Tenants are flushed across the
//! `prefetch-pool` workers each batch ([`service`]); per-tenant
//! `catch_unwind` plus a one-way `Quarantined` slot state give panic
//! isolation, and admission control ([`admission`]) bounds tenant count
//! and aggregate memory.
//!
//! Robustness contract (what the integration tests pin down):
//!
//! * overload, malformed input, and panics produce **typed responses**
//!   (`SHED`, `ERR`, `REJECT`, `PANIC`) — never a process abort;
//! * per-tenant advice streams are **byte-identical at any worker
//!   count** and to a sequential run, because a tenant's state depends
//!   only on its own ordered events;
//! * shutdown **drains**: every tenant (including quarantined ones)
//!   gets a deterministic `FINAL` report before the process exits;
//! * with `--wal-dir`, tenants are **crash-durable** ([`wal`]): every
//!   accepted event is logged before processing, group-committed per
//!   batch, and `--recover` replays each tenant through the real event
//!   path to bit-identical state — damage quarantines one tenant, a
//!   vanished WAL directory degrades to in-memory, never a crash.
//!
//! Binaries: `pfserve` (the server, stdin or unix-socket mode) and
//! `pfserve-loadgen` (script generator, [`loadgen`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
mod lines;
pub mod listener;
pub mod loadgen;
pub mod protocol;
mod recovery;
mod report;
pub mod service;
pub mod tenant;
pub mod wal;

pub use admission::{Admission, AdmissionConfig};
pub use protocol::{parse_line, ParseError, RejectReason, Request};
pub use service::{ConnId, ServeOpts, Service, ServiceStats};
pub use tenant::{TenantDefaults, TenantSpec, TenantState};
pub use wal::{RecoveryError, RecoveryReport, WalOpts, WalRecord};
