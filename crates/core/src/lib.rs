//! # prefetch-core
//!
//! The primary contribution of Vellanki & Chervenak, *A Cost-Benefit Scheme
//! for High Performance Predictive Prefetching* (SC 1999): a prefetching
//! scheme that selects candidate blocks from an LZ prefetch tree by their
//! probability of access and decides *whether* to prefetch each one with a
//! cost-benefit analysis adapted from Patterson's informed prefetching to
//! probabilistic hints.
//!
//! ## Layout
//!
//! * [`params`] — the system model constants (`T_hit`, `T_driver`,
//!   `T_disk`, `T_cpu`; Section 3/8.1);
//! * [`timing`] — stall/overlap model, Eq. 2-6;
//! * [`benefit`] — the buffer-allocation benefit `B(b)`, Eq. 1;
//! * [`cost`] — replacement costs `C_pr` (Eq. 11) and `C_dc` (Eq. 13);
//! * [`overhead`] — wasted-initiation overhead `T_oh`, Eq. 14;
//! * [`model`] — the assembled model with its dynamic `s`/`h` state
//!   (Figure 4);
//! * [`kernel`] — batched SoA evaluation of Eq. 1 − Eq. 14 over a
//!   per-`s` `ΔT_pf` memo;
//! * [`engine`] — the Section 7 algorithm: benefit frontier + cheapest
//!   victim + stopping rule;
//! * [`policy`] — the eight policies evaluated in the paper;
//! * [`resilience`] — graceful degradation under injected disk faults:
//!   retry backoff pricing and a prefetch quarantine.
//!
//! ## Quick example
//!
//! ```
//! use prefetch_core::policy::{PrefetchPolicy, RefContext, RefKind, PeriodActivity, EnginePolicy};
//! use prefetch_core::{CostBenefitEngine, SystemParams};
//! use prefetch_cache::BufferCache;
//! use prefetch_trace::BlockId;
//!
//! let engine = CostBenefitEngine::new(SystemParams::patterson(), Default::default());
//! let mut policy = EnginePolicy::tree(engine);
//! let mut cache = BufferCache::new(64);
//! // Train on a repeating pattern; the tree learns 1 → 2 → 3.
//! for _ in 0..20 {
//!     for b in [1u64, 2, 3] {
//!         let ctx = RefContext {
//!             block: BlockId(b),
//!             kind: RefKind::DemandHit,
//!             next_block: None,
//!             period: 0,
//!         };
//!         let mut act = PeriodActivity::default();
//!         policy.after_reference(&ctx, &mut cache, &mut act);
//!     }
//! }
//! // The successors of the current position are now prefetched.
//! assert!(cache.prefetch_len() + cache.demand_len() > 0);
//! ```

#![forbid(unsafe_code)]

pub mod benefit;
pub mod calibration;
pub mod cost;
pub mod engine;
pub mod kernel;
pub mod model;
pub mod overhead;
pub mod params;
pub mod policy;
pub mod resilience;
pub mod timing;

pub use calibration::CalibrationTracker;
pub use engine::{CostBenefitEngine, EngineConfig};
pub use kernel::{DepthTable, KernelImpl};
pub use model::{CostBenefitModel, ModelConfig};
pub use params::SystemParams;
pub use resilience::{Quarantine, RetryPolicy};
