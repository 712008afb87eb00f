//! Node identity for the arena-backed tree.
//!
//! Storage lives in [`crate::arena::Arena`]; this module keeps only what
//! identifies a node and the paper's per-node memory constant.
//!
//! Children-index invariant (held by the arena for every live node `c`
//! with parent `p`): `c` sits in `children(p)` at or below
//! `pos_in_parent[c]`; `pos_in_parent` is the one per-node field the
//! arena keeps outside the node.

/// Sentinel for "no node".
pub(crate) const NIL: u32 = u32::MAX;

/// The per-node memory the paper's Figure 13 assumes (Section 9.3), and
/// the size of one arena node (asserted there at compile time).
/// [`crate::PrefetchTree::approx_memory_bytes`] accounts memory this way,
/// while `bytes_in_use()` adds everything around the nodes.
pub(crate) const PAPER_BYTES: usize = 40;

/// Opaque handle to a node in a [`crate::PrefetchTree`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Index into the arena (for diagnostics / serialization).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_exposes_index() {
        assert_eq!(NodeId(7).index(), 7);
    }

    #[test]
    fn nil_is_not_a_valid_index() {
        assert_eq!(NIL as usize, u32::MAX as usize);
    }
}
