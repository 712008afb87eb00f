//! # prefetch-tree
//!
//! The Lempel-Ziv **prefetch tree** of Vitter & Krishnan / Curewitz et al.,
//! as used by the SC'99 cost-benefit prefetching paper (Section 2).
//!
//! The tree is a trie over "substrings" of the disk-access stream, parsed
//! LZ78-style: starting from the root, each access follows (and reweights)
//! an existing edge; the first access with no matching edge adds one new
//! node and resets the parse to the root. Node weights count visits, so the
//! probability that block *B* follows the current position is
//! `weight(B-child) / weight(current)`, and the probability of a deeper
//! descendant is the product of edge probabilities along the path — exactly
//! the `p_b` of the paper's benefit equation. The number of edges along
//! that path is the prefetch *distance* `d_b`.
//!
//! Provided here:
//!
//! * [`PrefetchTree`] — arena-based tree with O(1) edge lookup, the LZ
//!   cursor, per-access outcome reporting (predictability, last-visited
//!   child — Tables 2 and 3 of the paper), and optional **LRU node
//!   limiting** (Figure 13; Section 9.3 memory study);
//! * [`Candidate`] and [`PrefetchTree::child_candidates`] — enumeration of
//!   prefetch candidates below any position with path probabilities and
//!   depths, consumed by the cost-benefit frontier in `prefetch-core`;
//! * [`TreeStats`] — the counters behind the paper's Tables 2 and 3.
//!
//! ## The paper's worked example
//!
//! ```
//! use prefetch_tree::PrefetchTree;
//! use prefetch_trace::BlockId;
//!
//! // Accesses (a)(ac)(ab)(aba)(abb)(b) with a=1, b=2, c=3 (paper Fig. 1a).
//! let mut t = PrefetchTree::new();
//! for b in [1u64, 1, 3, 1, 2, 1, 2, 1, 1, 2, 2, 2] {
//!     t.record_access(BlockId(b));
//! }
//! let root = t.root();
//! let a = t.child_by_block(root, BlockId(1)).unwrap();
//! assert_eq!(t.weight(a), 5);                       // node a: weight 5
//! assert_eq!(t.child_probability(root, a), 5.0 / 6.0);
//! ```

#![forbid(unsafe_code)]

pub(crate) mod arena;
pub mod candidates;
pub mod io;
pub mod node;
pub mod snap;
pub mod stats;
pub mod tree;

pub use candidates::{Candidate, CandidateBatch};
pub use io::{to_dot, TreeIoError};
pub use node::NodeId;
pub use stats::TreeStats;
pub use tree::{AccessOutcome, OverflowPolicy, PrefetchTree};
