//! # prefetch-disk
//!
//! A finite disk-array substrate for the SC'99 predictive-prefetching
//! study.
//!
//! The paper's timing model assumes "an infinite number of available disks
//! and no wait time for disk accesses" (Section 6.3) — prefetch traffic is
//! free except for `T_driver`. That assumption is flagged in the paper
//! itself: Figure 8's discussion notes prefetching "contributes to an
//! increase in the amount of disk traffic" (up to 180% for snake). This
//! crate supplies what the paper leaves out: a disk array with
//!
//! * **striped block placement** ([`Striping`]): block → disk by
//!   stripe-unit round robin, the classic RAID-0 layout;
//! * **per-disk FIFO queues** ([`DiskArray`]): each access occupies its
//!   disk for a constant service time `T_disk`; a busy disk delays the
//!   request — prefetches and demand fetches compete;
//! * **utilization and queueing statistics** ([`DiskStats`]);
//! * **deterministic fault injection** ([`FaultPlan`], [`FaultInjector`]):
//!   seeded per-disk streams of transient read errors, slow-disk episodes,
//!   and bounded unavailability windows, surfaced from
//!   [`DiskArray::submit`] as typed [`DiskFault`]s.
//!
//! `prefetch-sim` uses it (optionally) to price stalls under congestion,
//! the `disks` extension experiment sweeps the number of disks to show
//! where aggressive prefetching turns counter-productive, and the
//! `resilience` experiment sweeps fault rates to show how gracefully each
//! policy degrades.

#![forbid(unsafe_code)]

pub mod array;
pub mod fault;
pub mod stats;

pub use array::{Completion, DiskArray, DiskArrayConfig, Striping};
pub use fault::{
    ConfigError, DiskFault, DurabilityFaultPlan, DurabilityInjector, FaultDecision, FaultInjector,
    FaultPlan,
};
pub use stats::DiskStats;
