//! # prefetch-cache
//!
//! Buffer-cache substrate for the SC'99 predictive-prefetching study.
//!
//! The paper's system model (Section 3) partitions the file buffer cache
//! into a **demand cache** (blocks that have been referenced; LRU) and a
//! **prefetch cache** (blocks prefetched but not yet referenced). A block
//! migrates prefetch→demand when referenced; when a fetch needs a buffer,
//! the replacement candidate is chosen by comparing the cost of shrinking
//! the demand cache (Eq. 13 — which needs the *marginal LRU hit rate*
//! `H(n) − H(n−1)`) against the cheapest prefetch-cache ejection (Eq. 11).
//!
//! This crate provides the mechanical pieces:
//!
//! * [`LruCache`] — an O(1) intrusive-list LRU with per-entry values;
//! * [`FenwickTree`] — prefix sums, used by the stack-distance estimator;
//! * [`StackDistanceEstimator`] — an online Mattson stack-distance
//!   histogram (O(log n) per reference) with exponential decay, yielding
//!   `H(n)` and `H(n) − H(n−1)` estimates for any cache size;
//! * [`BufferCache`] — the partitioned demand/prefetch cache with the
//!   migration and eviction mechanics, policy-agnostic.
//!
//! Cost/benefit *decisions* live in `prefetch-core`; this crate only moves
//! buffers.

#![forbid(unsafe_code)]

pub mod buffer_cache;
pub mod fenwick;
pub mod lru;
pub mod stack_distance;
mod victim;

pub use buffer_cache::{BufferCache, Partition, PrefetchMeta};
pub use fenwick::FenwickTree;
pub use lru::LruCache;
pub use stack_distance::StackDistanceEstimator;
