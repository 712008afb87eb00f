//! Tree statistics: the counters behind Tables 2 and 3 of the paper.

/// Counters accumulated by [`crate::PrefetchTree::record_access`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Total accesses recorded.
    pub accesses: u64,
    /// Accesses that were *predictable*: present as a child of the cursor
    /// (paper Section 9.4, Table 2).
    pub predictable: u64,
    /// Visits to a node that already had a last-visited child
    /// (the denominator of Table 3).
    pub lvc_opportunities: u64,
    /// Visits that repeated the last-visited child (Table 3 numerator).
    pub lvc_repeats: u64,
    /// Nodes created (substrings parsed).
    pub nodes_created: u64,
    /// Nodes evicted by the LRU node limit.
    pub nodes_evicted: u64,
    /// Node creations refused because the tree was at its budget under
    /// [`crate::tree::OverflowPolicy::Freeze`] (always zero when evicting
    /// or unlimited).
    pub nodes_capped: u64,
    /// Parse resets (completed substrings).
    pub resets: u64,
}

impl TreeStats {
    /// Prediction accuracy: fraction of accesses that were predictable
    /// (Table 2).
    pub fn prediction_accuracy(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.predictable as f64 / self.accesses as f64
        }
    }

    /// Fraction of node re-visits that followed the last-visited child
    /// (Table 3).
    pub fn lvc_repeat_rate(&self) -> f64 {
        if self.lvc_opportunities == 0 {
            0.0
        } else {
            self.lvc_repeats as f64 / self.lvc_opportunities as f64
        }
    }

    /// Mean substring length of the LZ parse (accesses per completed
    /// substring). Longer substrings mean more learnable structure.
    pub fn mean_substring_len(&self) -> f64 {
        if self.resets == 0 {
            0.0
        } else {
            self.accesses as f64 / self.resets as f64
        }
    }
}

/// Build a tree over a block sequence and return its statistics —
/// the one-pass analysis behind Tables 2 and 3.
pub fn analyze_blocks<I>(blocks: I, node_limit: usize) -> TreeStats
where
    I: IntoIterator<Item = prefetch_trace::BlockId>,
{
    let mut tree = if node_limit == usize::MAX {
        crate::PrefetchTree::new()
    } else {
        crate::PrefetchTree::with_node_limit(node_limit)
    };
    for b in blocks {
        tree.record_access(b);
    }
    *tree.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefetch_trace::BlockId;

    #[test]
    fn rates_on_empty_stats() {
        let s = TreeStats::default();
        assert_eq!(s.prediction_accuracy(), 0.0);
        assert_eq!(s.lvc_repeat_rate(), 0.0);
        assert_eq!(s.mean_substring_len(), 0.0);
    }

    #[test]
    fn analyze_blocks_runs_full_pipeline() {
        let blocks: Vec<BlockId> = (0..100).map(|i| BlockId(i % 4)).collect();
        let s = analyze_blocks(blocks, usize::MAX);
        assert_eq!(s.accesses, 100);
        assert!(s.prediction_accuracy() > 0.5, "cycle should become predictable");
        assert!(s.mean_substring_len() > 1.0);
    }

    #[test]
    fn perfectly_repetitive_stream_approaches_full_predictability() {
        let blocks: Vec<BlockId> = (0..4000).map(|i| BlockId(i % 3)).collect();
        let s = analyze_blocks(blocks, usize::MAX);
        assert!(s.prediction_accuracy() > 0.9, "accuracy {}", s.prediction_accuracy());
        assert!(s.lvc_repeat_rate() > 0.8, "lvc {}", s.lvc_repeat_rate());
    }

    #[test]
    fn random_unique_stream_is_unpredictable() {
        let blocks: Vec<BlockId> = (0..2000).map(BlockId).collect();
        let s = analyze_blocks(blocks, usize::MAX);
        assert_eq!(s.prediction_accuracy(), 0.0);
        assert_eq!(s.nodes_created, 2000);
        assert_eq!(s.resets, 2000);
        assert_eq!(s.mean_substring_len(), 1.0);
    }

    #[test]
    fn node_limit_flows_through() {
        let blocks: Vec<BlockId> = (0..1000).map(BlockId).collect();
        let s = analyze_blocks(blocks, 16);
        assert!(s.nodes_evicted >= 1000 - 16 - 1);
    }
}
