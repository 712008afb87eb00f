//! The prefetch tree proper: LZ78 parsing, weights, probabilities, and LRU
//! node limiting.

use crate::arena::{Arena, Node, MAX_FANOUT};
use crate::node::{NodeId, NIL, PAPER_BYTES};
use crate::snap::RawTree;
use crate::stats::TreeStats;
use prefetch_trace::BlockId;

/// What happened when an access was recorded — the per-reference signals
/// behind the paper's Tables 2 and 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The block was present as a child of the cursor before the access
    /// (the paper's definition of a *predictable* request, Section 9.4).
    pub predictable: bool,
    /// If the cursor node had a last-visited child, whether this access
    /// repeated it (`None` when the node had no previous visit —
    /// Section 9.6 / Table 3 counts only nodes with history).
    pub lvc_repeat: Option<bool>,
    /// A new node was created (the access ended a substring).
    pub created_node: bool,
    /// The parse returned to the root after this access.
    pub reset: bool,
}

/// What a node-budgeted tree does when a novel access would push it past
/// its limit (Section 9.3 memory study; the budget guards the one
/// unbounded structure in the system).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Evict least-recently-visited leaves to make room (the paper's
    /// scheme: substrings are kept in an LRU list and the least recently
    /// used discarded).
    #[default]
    Evict,
    /// Stop learning: refuse the node creation (counting it in
    /// [`TreeStats::nodes_capped`]) and keep the existing structure
    /// intact. The parse still resets, so prediction over the frozen
    /// structure continues to work.
    Freeze,
}

/// The LZ prefetch tree.
///
/// See the crate docs for semantics. Node storage is the [`Arena`] (one
/// vector of 40-byte nodes plus one shared child slab); all operations are
/// O(1) amortized except candidate enumeration (proportional to candidates
/// returned), child lookup below a narrow node (a scan of at most 16
/// children, almost always ended by the first) and node eviction (bounded
/// leaf scan).
#[derive(Clone, Debug)]
pub struct PrefetchTree {
    arena: Arena,
    /// parse position
    cursor: u32,
    /// true before the first access of a substring (root weight is bumped
    /// lazily so it equals the number of substrings *started*)
    fresh_substring: bool,
    /// maximum live node count (root exempt); `usize::MAX` = unlimited
    node_limit: usize,
    /// what to do when a creation would exceed `node_limit`
    overflow: OverflowPolicy,
    /// intrusive LRU list over non-root nodes: head = MRU, tail = LRU
    lru_head: u32,
    lru_tail: u32,
    stats: TreeStats,
}

impl Default for PrefetchTree {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefetchTree {
    /// An unlimited tree.
    pub fn new() -> Self {
        Self::with_node_limit(usize::MAX)
    }

    /// A tree that holds at most `node_limit` non-root nodes, evicting the
    /// least-recently-visited leaves when full (the paper's Section 9.3
    /// memory-limiting scheme).
    ///
    /// # Panics
    /// Panics if `node_limit == 0`.
    pub fn with_node_limit(node_limit: usize) -> Self {
        Self::with_node_budget(node_limit, OverflowPolicy::Evict)
    }

    /// A tree that holds at most `node_limit` non-root nodes, with an
    /// explicit [`OverflowPolicy`] deciding what happens when a novel
    /// access would exceed the budget.
    ///
    /// # Panics
    /// Panics if `node_limit == 0`.
    pub fn with_node_budget(node_limit: usize, overflow: OverflowPolicy) -> Self {
        assert!(node_limit > 0, "node limit must be positive");
        PrefetchTree {
            arena: Arena::with_root(),
            cursor: 0,
            fresh_substring: true,
            node_limit,
            overflow,
            lru_head: NIL,
            lru_tail: NIL,
            stats: TreeStats::default(),
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// The current parse position. Prefetch candidates are enumerated below
    /// this node.
    pub fn cursor(&self) -> NodeId {
        NodeId(self.cursor)
    }

    /// Number of live nodes, excluding the root.
    pub fn node_count(&self) -> usize {
        self.arena.len() - self.arena.free.len() - 1
    }

    /// The node budget this tree was built with (`usize::MAX` = unlimited).
    pub fn node_limit(&self) -> usize {
        self.node_limit
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &TreeStats {
        &self.stats
    }

    /// Visit count of a node.
    pub fn weight(&self, n: NodeId) -> u64 {
        self.arena.nodes[n.0 as usize].weight
    }

    /// The block a node represents (`None` for the root).
    pub fn block(&self, n: NodeId) -> Option<BlockId> {
        if n.0 == 0 {
            None
        } else {
            Some(BlockId(self.arena.nodes[n.0 as usize].block))
        }
    }

    /// Parent of a node (`None` for the root).
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        let p = self.arena.nodes[n.0 as usize].parent;
        if p == NIL {
            None
        } else {
            Some(NodeId(p))
        }
    }

    /// Iterate a node's children.
    pub fn children(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.arena.children(n.0).iter().map(|&c| NodeId(c))
    }

    /// The child of `n` representing `block`, if present.
    pub fn child_by_block(&self, n: NodeId, block: BlockId) -> Option<NodeId> {
        self.arena.find_child(n.0, block.0).map(NodeId)
    }

    /// The child taken on the most recent visit to `n`.
    pub fn last_visited_child(&self, n: NodeId) -> Option<NodeId> {
        let c = self.arena.nodes[n.0 as usize].lvc;
        if c == NIL {
            None
        } else {
            Some(NodeId(c))
        }
    }

    /// Conditional probability `weight(child) / weight(parent)` that
    /// `child` follows `parent` (paper Section 2). Returns 0 for a
    /// zero-weight parent.
    pub fn child_probability(&self, parent: NodeId, child: NodeId) -> f64 {
        debug_assert_eq!(self.arena.nodes[child.0 as usize].parent, parent.0);
        let pw = self.arena.nodes[parent.0 as usize].weight;
        if pw == 0 {
            0.0
        } else {
            self.arena.nodes[child.0 as usize].weight as f64 / pw as f64
        }
    }

    /// Approximate resident memory of the tree, counting 40 bytes per node
    /// the way the paper's Figure 13 does — the size of one arena node. For
    /// the footprint including child lists, positions, the wide-node index
    /// and unused `Vec` capacity use [`PrefetchTree::bytes_in_use`].
    pub fn approx_memory_bytes(&self) -> usize {
        self.node_count() * PAPER_BYTES
    }

    /// Exact heap bytes owned by this tree, computed from container
    /// capacities (see [`Arena::bytes_in_use`]). This is what `pfserve`
    /// admission control charges per tenant.
    pub fn bytes_in_use(&self) -> usize {
        std::mem::size_of::<Self>() + self.arena.bytes_in_use()
    }

    /// Record one access and advance the parse. Returns the per-access
    /// outcome used by the simulator's statistics.
    pub fn record_access(&mut self, block: BlockId) -> AccessOutcome {
        self.stats.accesses += 1;
        if self.fresh_substring {
            // Root weight counts substrings started.
            self.arena.nodes[0].weight += 1;
            self.fresh_substring = false;
        }
        let cur = self.cursor;
        let existing = self.arena.find_child(cur, block.0);

        // Table 2: was the request predictable from the current position?
        let predictable = existing.is_some();
        if predictable {
            self.stats.predictable += 1;
        }

        // Table 3: does this visit repeat the node's last-visited child?
        let lvc = self.arena.nodes[cur as usize].lvc;
        let lvc_repeat = if lvc != NIL {
            self.stats.lvc_opportunities += 1;
            let repeat = existing == Some(lvc);
            if repeat {
                self.stats.lvc_repeats += 1;
            }
            Some(repeat)
        } else {
            None
        };

        match existing {
            Some(child) => {
                self.increment_child_weight(cur, child);
                self.arena.nodes[cur as usize].lvc = child;
                self.cursor = child;
                self.touch_lru(child);
                AccessOutcome { predictable, lvc_repeat, created_node: false, reset: false }
            }
            None => {
                if self.overflow == OverflowPolicy::Freeze && self.node_count() >= self.node_limit {
                    // At budget and frozen: refuse the creation but keep
                    // the parse semantics — the novel access still ends
                    // the substring.
                    self.stats.nodes_capped += 1;
                    self.cursor = 0;
                    self.fresh_substring = true;
                    self.stats.resets += 1;
                    return AccessOutcome {
                        predictable,
                        lvc_repeat,
                        created_node: false,
                        reset: true,
                    };
                }
                let child = self.create_child(cur, block);
                self.arena.nodes[child as usize].weight = 1;
                self.arena.nodes[cur as usize].lvc = child;
                self.touch_lru(child);
                // Novel access ends the substring: back to the root.
                self.cursor = 0;
                self.fresh_substring = true;
                self.stats.resets += 1;
                self.maybe_evict();
                AccessOutcome { predictable, lvc_repeat, created_node: true, reset: true }
            }
        }
    }

    /// Reset the parse to the root without recording an access (used by
    /// tests and by policies that re-anchor after trace discontinuities).
    pub fn reset_cursor(&mut self) {
        self.cursor = 0;
        self.fresh_substring = true;
    }

    /// A *prediction anchor* for the current position: the cursor itself,
    /// except right after an LZ reset, where the parse stands at the root
    /// and has forgotten the block just accessed. Re-anchoring at the
    /// root's child for `last_block` (the order-1 context) recovers
    /// predictions across substring boundaries — an extension beyond the
    /// paper (its Section 9.5/9.6 shows a large gap between `tree` and
    /// `perfect-selector` that boundary blindness contributes to).
    pub fn prediction_anchor(&self, last_block: BlockId) -> NodeId {
        if self.cursor != 0 {
            return NodeId(self.cursor);
        }
        self.child_by_block(NodeId(0), last_block).unwrap_or(NodeId(0))
    }

    /// Increment a child's weight, keeping the parent's child list sorted
    /// by descending weight (candidate enumeration prunes on this order).
    /// The child swaps with the leftmost member of its old weight class:
    /// O(log k) via binary search, O(1) data movement.
    fn increment_child_weight(&mut self, parent: u32, child: u32) {
        let pos = self.arena.position(parent, child);
        let w = self.arena.nodes[child as usize].weight;
        // Leftmost index in 0..=pos whose weight equals w (the weight
        // class is contiguous because the list is sorted descending).
        let class_start = {
            let mut lo = 0usize;
            let mut hi = pos;
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.arena.nodes[self.arena.child_at(parent, mid) as usize].weight > w {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        if class_start != pos {
            self.arena.child_swap(parent, class_start, pos);
            let other = self.arena.child_at(parent, pos);
            self.arena.pos_in_parent[other as usize] = pos as u32;
            self.arena.pos_in_parent[child as usize] = class_start as u32;
        }
        self.arena.nodes[child as usize].weight = w + 1;
    }

    fn create_child(&mut self, parent: u32, block: BlockId) -> u32 {
        let pos = self.arena.nodes[parent as usize].ch_len() as u32;
        let idx = self.arena.alloc(block, parent, pos);
        self.arena.child_push(parent, idx);
        self.stats.nodes_created += 1;
        idx
    }

    /// Move `n` to the MRU end of the node LRU list.
    fn touch_lru(&mut self, n: u32) {
        debug_assert_ne!(n, 0, "root is not in the LRU list");
        // Unlink if present.
        let node = &self.arena.nodes[n as usize];
        let (prev, next) = (node.lru_prev, node.lru_next);
        if prev != NIL || next != NIL || self.lru_head == n {
            if prev != NIL {
                self.arena.nodes[prev as usize].lru_next = next;
            } else {
                self.lru_head = next;
            }
            if next != NIL {
                self.arena.nodes[next as usize].lru_prev = prev;
            } else {
                self.lru_tail = prev;
            }
        }
        // Push front.
        let node = &mut self.arena.nodes[n as usize];
        node.lru_prev = NIL;
        node.lru_next = self.lru_head;
        if self.lru_head != NIL {
            self.arena.nodes[self.lru_head as usize].lru_prev = n;
        }
        self.lru_head = n;
        if self.lru_tail == NIL {
            self.lru_tail = n;
        }
    }

    fn unlink_lru(&mut self, n: u32) {
        let node = &self.arena.nodes[n as usize];
        let (prev, next) = (node.lru_prev, node.lru_next);
        if prev != NIL {
            self.arena.nodes[prev as usize].lru_next = next;
        } else if self.lru_head == n {
            self.lru_head = next;
        }
        if next != NIL {
            self.arena.nodes[next as usize].lru_prev = prev;
        } else if self.lru_tail == n {
            self.lru_tail = prev;
        }
        let node = &mut self.arena.nodes[n as usize];
        node.lru_prev = NIL;
        node.lru_next = NIL;
    }

    /// Enforce the node limit by evicting least-recently-visited leaves
    /// (the paper maintains substrings in an LRU list and discards the
    /// least recently used, Section 9.3).
    fn maybe_evict(&mut self) {
        const MAX_SCAN: usize = 64;
        while self.node_count() > self.node_limit {
            // Walk from the LRU end looking for an evictable leaf. The
            // cursor node is pinned (the parse stands on it).
            let mut candidate = self.lru_tail;
            let mut scanned = 0;
            let victim = loop {
                if candidate == NIL {
                    break NIL;
                }
                if scanned >= MAX_SCAN {
                    break NIL;
                }
                if self.arena.is_leaf(candidate) && candidate != self.cursor {
                    break candidate;
                }
                candidate = self.arena.nodes[candidate as usize].lru_prev;
                scanned += 1;
            };
            if victim != NIL {
                self.remove_leaf(victim);
                continue;
            }
            // Fallback (rare: LRU tail region is all-internal): evict the
            // tail node's entire subtree, sparing the cursor's path.
            let tail = self.lru_tail;
            if tail == NIL || tail == self.cursor || self.is_ancestor(tail, self.cursor) {
                // Nothing safely evictable; give up this round rather than
                // loop forever. (Can only happen with tiny limits.)
                return;
            }
            self.remove_subtree(tail);
        }
    }

    /// Whether `a` is an ancestor of `b` (or equal).
    fn is_ancestor(&self, a: u32, b: u32) -> bool {
        let mut n = b;
        while n != NIL {
            if n == a {
                return true;
            }
            n = self.arena.nodes[n as usize].parent;
        }
        false
    }

    fn remove_leaf(&mut self, n: u32) {
        debug_assert!(self.arena.is_leaf(n));
        debug_assert_ne!(n, 0);
        let parent = self.arena.nodes[n as usize].parent;
        let pos = self.arena.position(parent, n);
        // Shifting removal keeps the children sorted by weight; the
        // shifted suffix's positions become bounds. Eviction only
        // happens under a node limit, which also bounds the fan-out.
        debug_assert_eq!(self.arena.child_at(parent, pos), n);
        self.arena.child_remove_at(parent, pos);
        if self.arena.nodes[parent as usize].lvc == n {
            self.arena.nodes[parent as usize].lvc = NIL;
        }
        self.unlink_lru(n);
        self.arena.release(n);
        self.stats.nodes_evicted += 1;
    }

    fn remove_subtree(&mut self, n: u32) {
        // Depth-first removal, leaves first.
        let mut stack = vec![n];
        let mut order = Vec::new();
        while let Some(x) = stack.pop() {
            order.push(x);
            stack.extend_from_slice(self.arena.children(x));
        }
        for &x in order.iter().rev() {
            self.remove_leaf(x);
        }
    }

    /// Snapshot support: debug-verify a freshly restored tree.
    pub(crate) fn check_restored(&self) {
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Dump complete tree state (arena arrays, free list, parse position,
    /// LRU order, stats, budget) for the `pftree-snap/v2` writer. The dump
    /// is everything needed to continue training bit-identically.
    pub(crate) fn to_raw(&self) -> RawTree {
        let n = self.arena.len();
        RawTree {
            node_limit: if self.node_limit == usize::MAX {
                u64::MAX
            } else {
                self.node_limit as u64
            },
            overflow: match self.overflow {
                OverflowPolicy::Evict => 0,
                OverflowPolicy::Freeze => 1,
            },
            cursor: self.cursor,
            fresh_substring: self.fresh_substring,
            lru_head: self.lru_head,
            lru_tail: self.lru_tail,
            stats: self.stats,
            blocks: self.arena.nodes.iter().map(|x| x.block).collect(),
            weights: self.arena.nodes.iter().map(|x| x.weight).collect(),
            lvc: self.arena.nodes.iter().map(|x| x.lvc).collect(),
            lru_prev: self.arena.nodes.iter().map(|x| x.lru_prev).collect(),
            lru_next: self.arena.nodes.iter().map(|x| x.lru_next).collect(),
            children: (0..n).map(|i| self.arena.children(i as u32).to_vec()).collect(),
            free: self.arena.free.clone(),
        }
    }

    /// Rebuild a tree from a decoded [`RawTree`], validating every
    /// structural invariant so corrupt or adversarial snapshots fail with
    /// an error instead of panicking (or worse, yielding a tree that
    /// panics later). Child slots and the wide-node index are rebuilt
    /// compactly; node ids, child order, LRU order, free-list order, the
    /// parse position and statistics are restored verbatim, so continued
    /// training is bit-identical to the snapshotted tree's future.
    pub(crate) fn from_raw(raw: RawTree) -> Result<PrefetchTree, &'static str> {
        let n = raw.blocks.len();
        if n == 0 || n > NIL as usize {
            return Err("node array empty or too large");
        }
        if raw.weights.len() != n
            || raw.lvc.len() != n
            || raw.lru_prev.len() != n
            || raw.lru_next.len() != n
            || raw.children.len() != n
        {
            return Err("array length mismatch");
        }
        if raw.node_limit == 0 {
            return Err("zero node limit");
        }
        if raw.overflow > 1 {
            return Err("unknown overflow policy");
        }

        // Liveness: everything not on the free list. The root is never free.
        let mut live = vec![true; n];
        for &f in &raw.free {
            let fi = f as usize;
            if fi == 0 || fi >= n {
                return Err("free-list entry out of range");
            }
            if !live[fi] {
                return Err("duplicate free-list entry");
            }
            live[fi] = false;
        }
        let live_count = n - raw.free.len();

        // Children: derive parents/pos_in_parent, enforcing single-parent,
        // weight order, and that freed nodes hold no children.
        let mut parents = vec![NIL; n];
        let mut pos_in_parent = vec![NIL; n];
        for (i, kids) in raw.children.iter().enumerate() {
            if !live[i] {
                if !kids.is_empty() {
                    return Err("freed node has children");
                }
                continue;
            }
            if kids.len() > MAX_FANOUT {
                return Err("too many children under one node");
            }
            let mut prev_weight = u64::MAX;
            let mut child_sum = 0u64;
            for (pos, &c) in kids.iter().enumerate() {
                let ci = c as usize;
                if ci == 0 || ci >= n || !live[ci] {
                    return Err("child reference out of range or dead");
                }
                if parents[ci] != NIL {
                    return Err("node has two parents");
                }
                parents[ci] = i as u32;
                pos_in_parent[ci] = pos as u32;
                let w = raw.weights[ci];
                if w == 0 {
                    return Err("zero node weight");
                }
                if w > prev_weight {
                    return Err("children not in descending weight order");
                }
                prev_weight = w;
                child_sum = child_sum.checked_add(w).ok_or("weight overflow")?;
            }
            if child_sum > raw.weights[i] {
                return Err("children outweigh their parent");
            }
        }
        // Reachability from the root covers every live node exactly once
        // (rules out cycles and orphans).
        let mut reached = 1usize;
        let mut stack = vec![0u32];
        while let Some(x) = stack.pop() {
            for &c in &raw.children[x as usize] {
                reached += 1;
                stack.push(c);
            }
        }
        if reached != live_count {
            return Err("unreachable nodes");
        }

        // Parse position must be a live node.
        if raw.cursor as usize >= n || !live[raw.cursor as usize] {
            return Err("cursor out of range or dead");
        }
        // lvc must be NIL or an actual child of its node.
        for (i, &l) in raw.lvc.iter().enumerate().take(n) {
            if l != NIL && (!live[i] || (l as usize) >= n || parents[l as usize] != i as u32) {
                return Err("last-visited child is not a child");
            }
        }
        // The LRU list must thread every live non-root node exactly once.
        let mut seen = 0usize;
        let mut prev = NIL;
        let mut cur = raw.lru_head;
        while cur != NIL {
            let ci = cur as usize;
            if ci == 0 || ci >= n || !live[ci] || seen >= live_count {
                return Err("lru link out of range, dead, or cyclic");
            }
            if raw.lru_prev[ci] != prev {
                return Err("lru prev link inconsistent");
            }
            seen += 1;
            prev = cur;
            cur = raw.lru_next[ci];
        }
        if prev != raw.lru_tail || seen != live_count - 1 {
            return Err("lru list does not cover live nodes");
        }

        // Rebuild child slots compactly (minimal power-of-two class per
        // list — slab geometry is not behavior, see DESIGN.md §12) and the
        // wide-node index. Nothing above made node 0 anyone's child, so
        // the root's parent and position are NIL.
        let mut arena = Arena::with_root();
        arena.nodes = (0..n)
            .map(|i| {
                let mut node = Node::new(raw.blocks[i], parents[i]);
                node.weight = raw.weights[i];
                node.lvc = raw.lvc[i];
                node.lru_prev = raw.lru_prev[i];
                node.lru_next = raw.lru_next[i];
                node
            })
            .collect();
        arena.pos_in_parent = pos_in_parent;
        arena.free = raw.free;
        for (i, kids) in raw.children.iter().enumerate() {
            for &c in kids {
                if arena.find_child(i as u32, raw.blocks[c as usize]).is_some() {
                    return Err("duplicate child block");
                }
                arena.child_push(i as u32, c);
            }
        }

        let tree = PrefetchTree {
            arena,
            cursor: raw.cursor,
            fresh_substring: raw.fresh_substring,
            node_limit: if raw.node_limit == u64::MAX {
                usize::MAX
            } else {
                raw.node_limit as usize
            },
            overflow: if raw.overflow == 0 {
                OverflowPolicy::Evict
            } else {
                OverflowPolicy::Freeze
            },
            lru_head: raw.lru_head,
            lru_tail: raw.lru_tail,
            stats: raw.stats,
        };
        tree.check_restored();
        Ok(tree)
    }

    /// Validate internal invariants (test support; O(nodes)).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut is_live = vec![true; self.arena.len()];
        for &f in &self.arena.free {
            assert!(is_live[f as usize], "node {f} freed twice");
            is_live[f as usize] = false;
        }
        let mut live = 0usize;
        let mut edges = 0usize;
        for i in (0..self.arena.len()).filter(|&i| is_live[i]) {
            live += 1;
            // Children sum ≤ weight; sorted by descending weight; links
            // and positions agree with the child list.
            let mut child_sum = 0u64;
            let mut prev_weight = u64::MAX;
            for (pos, &c) in self.arena.children(i as u32).iter().enumerate() {
                assert_eq!(
                    self.arena.nodes[c as usize].parent, i as u32,
                    "parent link broken at {c}"
                );
                assert!(
                    self.arena.pos_in_parent[c as usize] as usize >= pos,
                    "pos_in_parent below the position at {c}"
                );
                assert_eq!(self.arena.find_position(i as u32, c), pos, "position broken at {c}");
                assert!(is_live[c as usize], "freed node {c} is still a child of {i}");
                edges += 1;
                let w = self.arena.nodes[c as usize].weight;
                assert!(w <= prev_weight, "children not weight-sorted at {i}");
                prev_weight = w;
                child_sum += w;
            }
            assert!(
                child_sum <= self.arena.nodes[i].weight,
                "children weight {child_sum} exceeds node weight {} at {i}",
                self.arena.nodes[i].weight
            );
        }
        assert_eq!(live, self.node_count() + 1, "live node accounting broken");
        assert_eq!(edges, self.node_count(), "edge count mismatch");
        self.arena.check_index(&is_live);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::WIDE_FANOUT;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The paper's Figure 1(a): accesses (a)(ac)(ab)(aba)(abb)(b) with
    /// a=1, b=2, c=3.
    const FIG1_ACCESSES: [u64; 12] = [1, 1, 3, 1, 2, 1, 2, 1, 1, 2, 2, 2];

    fn fig1_tree() -> PrefetchTree {
        let mut t = PrefetchTree::new();
        for b in FIG1_ACCESSES {
            t.record_access(BlockId(b));
        }
        t
    }

    #[test]
    fn paper_figure_1a_weights() {
        let t = fig1_tree();
        let root = t.root();
        let a = t.child_by_block(root, BlockId(1)).expect("node a");
        let b_root = t.child_by_block(root, BlockId(2)).expect("node b under root");
        let c = t.child_by_block(a, BlockId(3)).expect("node c under a");
        let ab = t.child_by_block(a, BlockId(2)).expect("node b under a");
        let aba = t.child_by_block(ab, BlockId(1)).expect("node a under ab");
        let abb = t.child_by_block(ab, BlockId(2)).expect("node b under ab");
        assert_eq!(t.weight(a), 5);
        assert_eq!(t.weight(b_root), 1);
        assert_eq!(t.weight(c), 1);
        assert_eq!(t.weight(ab), 3);
        assert_eq!(t.weight(aba), 1);
        assert_eq!(t.weight(abb), 1);
        // 6 substrings → root weight 6.
        assert_eq!(t.weight(root), 6);
        assert_eq!(t.node_count(), 6);
        t.check_invariants();
    }

    /// A wide node's child is incremented and evicted after removals to
    /// its left have left its stored position a bound: the child list
    /// must follow a `Vec` model exactly (`Vec::remove` for a removal,
    /// the weight-class swap for an increment) through scripted and
    /// pseudo-random churn.
    #[test]
    fn positions_stay_readable_after_removals_to_the_left() {
        let mut t = PrefetchTree::new();
        let mut model: Vec<u32> = Vec::new();
        let mut next_block = 0u64;
        let add = |t: &mut PrefetchTree, model: &mut Vec<u32>, block: &mut u64| {
            model.push(t.create_child(0, BlockId(*block)));
            *block += 1;
        };
        let increment = |t: &mut PrefetchTree, model: &mut Vec<u32>, c: u32| {
            let weight = |k: u32| t.arena.nodes[k as usize].weight;
            let pos = model.iter().position(|&k| k == c).unwrap();
            let class_start = model.iter().position(|&k| weight(k) == weight(c)).unwrap();
            model.swap(class_start, pos);
            t.arena.nodes[0].weight += 1;
            t.increment_child_weight(0, c);
        };
        let evict = |t: &mut PrefetchTree, model: &mut Vec<u32>, c: u32| {
            model.retain(|&k| k != c);
            t.remove_leaf(c);
        };
        for _ in 0..40 {
            add(&mut t, &mut model, &mut next_block);
        }
        let target = model[30];
        for pos in [10, 5, 0] {
            let left = model[pos];
            evict(&mut t, &mut model, left);
        }
        assert!(t.arena.pos_in_parent[target as usize] > 27, "the bound is stale");
        increment(&mut t, &mut model, target);
        assert_eq!(model[0], target, "the first increment moves it to the front");
        assert_eq!(t.arena.children(0), &model[..]);
        let left = model[3];
        evict(&mut t, &mut model, left);
        evict(&mut t, &mut model, target);
        assert_eq!(t.arena.children(0), &model[..]);
        t.check_invariants();

        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pick = model[(x >> 8) as usize % model.len()];
            match x % 5 {
                0 if model.len() < 120 => add(&mut t, &mut model, &mut next_block),
                1 | 2 => increment(&mut t, &mut model, pick),
                _ if model.len() > WIDE_FANOUT / 2 => evict(&mut t, &mut model, pick),
                _ => add(&mut t, &mut model, &mut next_block),
            }
            assert_eq!(t.arena.children(0), &model[..], "step {step}");
            if step % 250 == 0 {
                t.check_invariants();
            }
        }
        t.check_invariants();
    }

    /// `pfserve` charges `bytes_in_use()`, which counts the struct itself,
    /// against its memory budget: a field that grows `PrefetchTree` moves
    /// which tenants a budget admits, a change no advice stream shows.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn the_tree_struct_keeps_its_size() {
        assert_eq!(std::mem::size_of::<PrefetchTree>(), 720);
    }

    #[test]
    fn paper_figure_1b_after_b_from_root() {
        // Figure 1(b): one more access of b from the root increments b.
        let mut t = fig1_tree();
        let out = t.record_access(BlockId(2));
        assert!(out.predictable, "b is now a child of root");
        assert!(!out.created_node);
        let b_root = t.child_by_block(t.root(), BlockId(2)).unwrap();
        assert_eq!(t.weight(b_root), 2);
        assert_eq!(t.weight(t.root()), 7);
        assert_eq!(t.cursor(), b_root);
    }

    #[test]
    fn probabilities_follow_weights() {
        let t = fig1_tree();
        let root = t.root();
        let a = t.child_by_block(root, BlockId(1)).unwrap();
        let ab = t.child_by_block(a, BlockId(2)).unwrap();
        assert!((t.child_probability(root, a) - 5.0 / 6.0).abs() < 1e-12);
        assert!((t.child_probability(a, ab) - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn substring_parse_matches_paper() {
        // Count resets: one per substring = 6.
        let mut t = PrefetchTree::new();
        let mut resets = 0;
        for b in FIG1_ACCESSES {
            if t.record_access(BlockId(b)).reset {
                resets += 1;
            }
        }
        assert_eq!(resets, 6);
        assert_eq!(t.stats().resets, 6);
        assert_eq!(t.stats().nodes_created, 6);
    }

    #[test]
    fn predictability_counting() {
        let mut t = PrefetchTree::new();
        // First pass over a,b,a,b creates nodes; second pass is partly
        // predictable.
        let mut predictable = 0;
        for b in [1u64, 2, 1, 2, 1, 2] {
            if t.record_access(BlockId(b)).predictable {
                predictable += 1;
            }
        }
        // Parse: (1)(2)(1 2)(1 2…)
        //  1: root has no child 1 → not predictable, create, reset
        //  2: root has no child 2 → not predictable, create, reset
        //  1: root has child 1 → predictable, cursor=a
        //  2: a has no child 2 → not predictable, create, reset
        //  1: predictable (root child), cursor=a
        //  2: a now has child 2 → predictable, cursor=ab
        assert_eq!(predictable, 3);
        assert_eq!(t.stats().predictable, 3);
        assert_eq!(t.stats().accesses, 6);
    }

    #[test]
    fn lvc_tracking() {
        let mut t = PrefetchTree::new();
        // root visits: each substring start. Pattern: 1,1,1 → substrings
        // (1)(1 1)(1 …
        let o1 = t.record_access(BlockId(1)); // create 1; root lvc=1
        assert_eq!(o1.lvc_repeat, None); // root had no lvc yet
        let o2 = t.record_access(BlockId(1)); // root→1 again: lvc repeat
        assert_eq!(o2.lvc_repeat, Some(true));
        let o3 = t.record_access(BlockId(1)); // at node 1: no lvc yet
        assert_eq!(o3.lvc_repeat, None);
        let o4 = t.record_access(BlockId(2)); // at root (reset): lvc=1, access 2
        assert_eq!(o4.lvc_repeat, Some(false));
        assert_eq!(t.stats().lvc_opportunities, 2);
        assert_eq!(t.stats().lvc_repeats, 1);
    }

    #[test]
    fn node_limit_evicts_lru_leaves() {
        let mut t = PrefetchTree::with_node_limit(8);
        // Stream of unique blocks: every access creates a root child leaf.
        for b in 0..100u64 {
            t.record_access(BlockId(b));
        }
        assert!(t.node_count() <= 8, "count {}", t.node_count());
        assert_eq!(t.stats().nodes_created, 100);
        assert_eq!(t.stats().nodes_evicted, 92);
        t.check_invariants();
        // The survivors are the most recent blocks.
        for b in 96..100u64 {
            assert!(t.child_by_block(t.root(), BlockId(b)).is_some(), "recent block {b} evicted");
        }
        assert!(t.child_by_block(t.root(), BlockId(0)).is_none());
    }

    #[test]
    fn limited_tree_keeps_hot_paths() {
        let mut t = PrefetchTree::with_node_limit(64);
        // A hot repeated pattern plus unique noise.
        for i in 0..2000u64 {
            t.record_access(BlockId(1));
            t.record_access(BlockId(2));
            t.record_access(BlockId(3));
            t.record_access(BlockId(1_000_000 + i)); // unique noise
        }
        t.check_invariants();
        // The hot pattern keeps *some* presence in the tree (which hot
        // block anchors a substring drifts with the LZ parse, so we only
        // require at least one hot root child), while the unique noise
        // leaves are what gets evicted.
        let root = t.root();
        let hot_children =
            [1u64, 2, 3].iter().filter(|&&b| t.child_by_block(root, BlockId(b)).is_some()).count();
        assert!(hot_children >= 1, "all hot blocks evicted from root");
        assert!(t.node_count() <= 64);
    }

    #[test]
    fn eviction_never_removes_cursor() {
        let mut t = PrefetchTree::with_node_limit(2);
        for b in 0..50u64 {
            t.record_access(BlockId(b % 5));
            // After each access the cursor must be a live node: touching
            // it must not panic and invariants must hold.
            let _ = t.cursor();
        }
        t.check_invariants();
    }

    #[test]
    fn weights_equal_visit_counts_on_random_stream() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let mut t = PrefetchTree::new();
        for _ in 0..5000 {
            t.record_access(BlockId(rng.gen_range(0..20)));
        }
        t.check_invariants();
        // Root weight equals substrings *started*: one per completed
        // substring (reset) plus one if the parse stands mid-substring
        // (the cursor is below the root exactly then).
        let mid_substring = (t.cursor() != t.root()) as u64;
        assert_eq!(t.weight(t.root()), t.stats().resets + mid_substring);
    }

    #[test]
    fn prediction_anchor_recovers_context_after_reset() {
        let mut t = PrefetchTree::new();
        // Parse (1)(2)(1 2): after the final access the parse reset to
        // root (node "1 2" was just created)... actually (1 2) completes
        // without a reset only if the edge exists. Build: 1,2,1,2 →
        // substrings (1)(2)(1 2), cursor at root after the last creation.
        for b in [1u64, 2, 1, 2] {
            t.record_access(BlockId(b));
        }
        assert_eq!(t.cursor(), t.root(), "parse should stand at root");
        // Root-anchored prediction forgets that we just accessed 2; the
        // anchor recovers the order-1 context: root's child for block 2.
        let anchor = t.prediction_anchor(BlockId(2));
        assert_ne!(anchor, t.root());
        assert_eq!(t.block(anchor), Some(BlockId(2)));
        // Unknown block: falls back to the root.
        assert_eq!(t.prediction_anchor(BlockId(99)), t.root());
        // Mid-substring the anchor IS the cursor.
        t.record_access(BlockId(1));
        assert_ne!(t.cursor(), t.root());
        assert_eq!(t.prediction_anchor(BlockId(1)), t.cursor());
    }

    #[test]
    fn reset_cursor_restarts_parse() {
        let mut t = fig1_tree();
        t.record_access(BlockId(1));
        assert_ne!(t.cursor(), t.root());
        t.reset_cursor();
        assert_eq!(t.cursor(), t.root());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_node_limit_panics() {
        PrefetchTree::with_node_limit(0);
    }

    #[test]
    fn frozen_tree_stops_growing_and_counts_refusals() {
        let mut t = PrefetchTree::with_node_budget(8, OverflowPolicy::Freeze);
        for b in 0..100u64 {
            t.record_access(BlockId(b));
        }
        t.check_invariants();
        assert_eq!(t.node_count(), 8, "frozen tree must stay at its budget");
        assert_eq!(t.stats().nodes_created, 8);
        assert_eq!(t.stats().nodes_evicted, 0, "freeze must not evict");
        assert_eq!(t.stats().nodes_capped, 92);
        assert_eq!(t.stats().resets, 100, "every unique access still ends a substring");
        // The survivors are the *first* blocks (the opposite of eviction).
        for b in 0..8u64 {
            assert!(t.child_by_block(t.root(), BlockId(b)).is_some(), "early block {b} lost");
        }
        assert!(t.child_by_block(t.root(), BlockId(99)).is_none());
    }

    #[test]
    fn freeze_at_the_exact_budget_boundary() {
        // The creation that lands *exactly on* the budget must succeed;
        // only the first creation *beyond* it is refused. An off-by-one
        // here would either waste the last budgeted node or briefly
        // exceed the budget — pfserve sizes per-tenant memory from this
        // boundary being exact.
        let limit = 5;
        let mut t = PrefetchTree::with_node_budget(limit, OverflowPolicy::Freeze);
        for b in 0..limit as u64 {
            let out = t.record_access(BlockId(b));
            assert!(out.created_node, "creation {b} is within budget");
            assert_eq!(t.stats().nodes_capped, 0, "no refusal at or below the budget");
        }
        assert_eq!(t.node_count(), limit, "tree sits exactly at its budget");

        // A *predictable* access at the boundary touches existing
        // structure and must not count as a refusal.
        let out = t.record_access(BlockId(0));
        assert!(out.predictable);
        assert!(!out.created_node);
        assert_eq!(t.stats().nodes_capped, 0);

        // Novel accesses at the boundary are refused one-for-one, both at
        // the root and deeper in the parse (cursor at node 0's child).
        let out = t.record_access(BlockId(limit as u64));
        assert!(!out.created_node);
        assert!(out.reset, "a refused creation still ends the substring");
        assert_eq!(t.stats().nodes_capped, 1);
        assert_eq!(t.node_count(), limit, "budget never exceeded");
        t.check_invariants();

        // Contrast: Evict at the same boundary makes room instead.
        let mut e = PrefetchTree::with_node_budget(limit, OverflowPolicy::Evict);
        for b in 0..=limit as u64 {
            e.record_access(BlockId(b));
        }
        assert_eq!(e.node_count(), limit);
        assert_eq!(e.stats().nodes_capped, 0);
        assert_eq!(e.stats().nodes_evicted, 1);
        e.check_invariants();
    }

    #[test]
    fn frozen_tree_still_predicts_learned_structure() {
        let mut t = PrefetchTree::with_node_budget(4, OverflowPolicy::Freeze);
        // Learn a 2-block pattern, then flood with unique noise.
        for _ in 0..4 {
            t.record_access(BlockId(1));
            t.record_access(BlockId(2));
        }
        for b in 100..200u64 {
            t.record_access(BlockId(b));
        }
        // The learned root children survive and keep predicting.
        let out = t.record_access(BlockId(1));
        assert!(out.predictable, "frozen structure should still predict block 1");
        assert!(t.stats().nodes_capped > 0);
        t.check_invariants();
    }

    #[test]
    fn unlimited_trees_never_cap_or_evict() {
        let mut t = PrefetchTree::new();
        for b in 0..1000u64 {
            t.record_access(BlockId(b));
        }
        assert_eq!(t.stats().nodes_capped, 0);
        assert_eq!(t.stats().nodes_evicted, 0);
    }

    /// `record_access` with every lookup checked against `model`, the
    /// test's own `(parent, block) → child` map.
    fn access_checked(t: &mut PrefetchTree, model: &mut HashMap<(u32, u64), u32>, block: u64) {
        let cur = t.cursor;
        let expected = model.get(&(cur, block)).copied();
        assert_eq!(t.arena.find_child(cur, block), expected, "lookup of {block} under {cur}");
        let out = t.record_access(BlockId(block));
        assert_eq!(out.predictable, expected.is_some());
        if out.created_node {
            // A new child has the lowest weight: it is appended.
            let child = *t.arena.children(cur).last().expect("a child was created");
            assert!(model.insert((cur, block), child).is_none());
        }
    }

    /// Evict leaves, chosen by walking down from the root along `picks`,
    /// until the root has at most `target` children.
    fn evict_checked(
        t: &mut PrefetchTree,
        model: &mut HashMap<(u32, u64), u32>,
        picks: &[usize],
        target: usize,
    ) {
        t.reset_cursor(); // the root is never a leaf here, so no victim is the cursor
        let mut picks = picks.iter().cycle();
        while t.arena.children(0).len() > target {
            let mut leaf = 0;
            while !t.arena.is_leaf(leaf) {
                let kids = t.arena.children(leaf);
                leaf = kids[picks.next().expect("picks is not empty") % kids.len()];
            }
            let (parent, block) = (t.arena.nodes[leaf as usize].parent, t.block(NodeId(leaf)));
            let block = block.expect("a leaf below the root has a block").0;
            assert_eq!(model.remove(&(parent, block)), Some(leaf));
            t.remove_leaf(leaf);
            assert_eq!(t.arena.find_child(parent, block), None, "evicted edge still found");
        }
    }

    fn assert_every_edge_is_found(t: &PrefetchTree, model: &HashMap<(u32, u64), u32>) {
        t.check_invariants();
        assert_eq!(model.len(), t.node_count());
        for (&(parent, block), &child) in model {
            assert_eq!(t.arena.find_child(parent, block), Some(child));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Insert / hit / evict churn that takes the root (and, on the
        /// narrower alphabets, its hot children) across the fan-out
        /// threshold in both directions: grow past it, evict back under
        /// it, regrow.
        #[test]
        fn find_child_agrees_with_an_edge_map_across_the_fanout_threshold(
            alphabet in WIDE_FANOUT as u64 + 8..4 * WIDE_FANOUT as u64,
            grow in proptest::collection::vec(any::<u64>(), 2_000..12_000),
            picks in proptest::collection::vec(any::<usize>(), 1..64),
            regrow in proptest::collection::vec(any::<u64>(), 500..2_000),
        ) {
            let mut t = PrefetchTree::new();
            let mut model = HashMap::new();
            for b in grow {
                access_checked(&mut t, &mut model, b % alphabet);
            }
            prop_assert!(t.arena.children(0).len() > WIDE_FANOUT, "the root never grew wide");
            assert_every_edge_is_found(&t, &model);

            evict_checked(&mut t, &mut model, &picks, WIDE_FANOUT / 2);
            assert_every_edge_is_found(&t, &model);

            for b in regrow {
                access_checked(&mut t, &mut model, b % alphabet);
            }
            prop_assert!(t.arena.children(0).len() > WIDE_FANOUT, "the root never regrew wide");
            assert_every_edge_is_found(&t, &model);
        }
    }

    #[test]
    fn bytes_in_use_is_exact_scale_not_paper_estimate() {
        let mut t = PrefetchTree::new();
        for b in 0..10_000u64 {
            t.record_access(BlockId(b % 500));
        }
        let exact = t.bytes_in_use();
        let paper = t.approx_memory_bytes();
        // The exact figure charges real container capacities: nonzero,
        // and within a small constant factor of the 40-byte/node study.
        assert!(exact > 0);
        assert!(exact < paper * 8, "exact {exact} vs paper {paper}");
        assert!(exact > paper / 8, "exact {exact} vs paper {paper}");
    }
}
