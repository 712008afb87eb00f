//! Index-based struct-of-arrays node arena.
//!
//! The seed layout kept one `Node` struct per tree node, each owning a
//! `Vec<u32>` of children — 64 bytes of struct (with padding) plus a
//! separately-allocated child vector per internal node. This module
//! replaces that with parallel arrays (one `Vec` per field) and a single
//! shared child *slab*: every node's child list lives in a power-of-two
//! sized slot of one backing `Vec<u32>`, handed out and reclaimed through
//! per-class free lists. Wins:
//!
//! * ~36 bytes of scalar state per node instead of 64, no per-node
//!   allocator traffic, and fields that hot loops never touch (LRU links)
//!   no longer share cache lines with the ones they always touch
//!   (weights);
//! * exact [`Arena::bytes_in_use`] accounting from container capacities —
//!   what `pfserve` admission charges — instead of the paper's flat
//!   40-byte estimate.
//!
//! Child lists preserve *positional* semantics exactly: `child_push`
//! appends, `child_remove_at` shifts the suffix left (refreshing the
//! shifted nodes' `pos_in_parent`), `child_swap` exchanges two slots.
//! The weight-sorted child order that candidate pruning depends on is
//! therefore byte-identical to the per-node-`Vec` layout it replaces.
//!
//! Node ids are reused through [`Arena::free`] (LIFO, matching the seed's
//! free list) so `OverflowPolicy::Evict` churn cannot grow the arrays
//! without bound.

use crate::node::NIL;
use prefetch_hash::FxHashMap;
use prefetch_trace::BlockId;

/// `ch_class` value for "no child slot allocated".
pub(crate) const NO_CLASS: u8 = u8::MAX;

/// Shared storage for all child lists: one backing slab, carved into
/// power-of-two slots recycled through per-class free lists.
#[derive(Clone, Debug, Default)]
pub(crate) struct ChildPool {
    pub(crate) slab: Vec<u32>,
    /// `free[c]` holds start offsets of reclaimed slots of capacity `1 << c`.
    pub(crate) free: Vec<Vec<u32>>,
}

impl ChildPool {
    /// Hand out a slot of capacity `1 << class`, reusing a freed one when
    /// available.
    fn alloc(&mut self, class: u8) -> u32 {
        if let Some(list) = self.free.get_mut(class as usize) {
            if let Some(off) = list.pop() {
                return off;
            }
        }
        let size = 1usize << class;
        assert!(self.slab.len() + size < NIL as usize, "child slab overflow");
        let off = self.slab.len() as u32;
        self.slab.resize(self.slab.len() + size, NIL);
        off
    }

    fn release(&mut self, off: u32, class: u8) {
        if self.free.len() <= class as usize {
            self.free.resize(class as usize + 1, Vec::new());
        }
        self.free[class as usize].push(off);
    }
}

/// The struct-of-arrays node store. All `Vec`s are indexed by node id and
/// always have identical lengths; a node id is live unless it appears in
/// [`Arena::free`].
///
/// Invariant (the seed kept this comment on `Node::pos_in_parent`): for
/// every live node `c` with parent `p`, `children(p)[pos_in_parent[c]] == c`,
/// so child removal stays O(1) lookup + O(suffix) shift.
#[derive(Clone, Debug)]
pub(crate) struct Arena {
    /// The disk block each node represents (undefined for the root).
    pub(crate) blocks: Vec<u64>,
    /// Visit counts.
    pub(crate) weights: Vec<u64>,
    /// Parent node ids (NIL for the root).
    pub(crate) parents: Vec<u32>,
    /// Each node's position in its parent's child list.
    pub(crate) pos_in_parent: Vec<u32>,
    /// Last-visited child (NIL if never visited).
    pub(crate) lvc: Vec<u32>,
    /// Intrusive LRU links for node limiting.
    pub(crate) lru_prev: Vec<u32>,
    pub(crate) lru_next: Vec<u32>,
    /// Child slot start offset into `pool.slab`.
    pub(crate) ch_start: Vec<u32>,
    /// Live children in the slot.
    pub(crate) ch_len: Vec<u32>,
    /// Slot capacity class (`1 << class` slots), NO_CLASS when none.
    pub(crate) ch_class: Vec<u8>,
    pub(crate) pool: ChildPool,
    /// Reusable node ids (LIFO).
    pub(crate) free: Vec<u32>,
    /// (parent id, block) → child id.
    pub(crate) edges: FxHashMap<(u32, u64), u32>,
}

impl Arena {
    /// An arena holding only the root (id 0).
    pub(crate) fn with_root() -> Self {
        Arena {
            blocks: vec![u64::MAX],
            weights: vec![0],
            parents: vec![NIL],
            pos_in_parent: vec![NIL],
            lvc: vec![NIL],
            lru_prev: vec![NIL],
            lru_next: vec![NIL],
            ch_start: vec![0],
            ch_len: vec![0],
            ch_class: vec![NO_CLASS],
            pool: ChildPool::default(),
            free: Vec::new(),
            edges: FxHashMap::default(),
        }
    }

    /// Total slots (live + freed), including the root.
    pub(crate) fn len(&self) -> usize {
        self.weights.len()
    }

    /// Allocate a node, reusing a freed id when available. The new node
    /// has weight 0, no children, and unlinked LRU state.
    pub(crate) fn alloc(&mut self, block: BlockId, parent: u32, pos: u32) -> u32 {
        match self.free.pop() {
            Some(i) => {
                let ni = i as usize;
                self.blocks[ni] = block.0;
                self.weights[ni] = 0;
                self.parents[ni] = parent;
                self.pos_in_parent[ni] = pos;
                self.lvc[ni] = NIL;
                self.lru_prev[ni] = NIL;
                self.lru_next[ni] = NIL;
                debug_assert_eq!(self.ch_len[ni], 0, "freed node kept children");
                debug_assert_eq!(self.ch_class[ni], NO_CLASS, "freed node kept a child slot");
                i
            }
            None => {
                assert!(self.len() < NIL as usize, "prefetch tree arena overflow");
                self.blocks.push(block.0);
                self.weights.push(0);
                self.parents.push(parent);
                self.pos_in_parent.push(pos);
                self.lvc.push(NIL);
                self.lru_prev.push(NIL);
                self.lru_next.push(NIL);
                self.ch_start.push(0);
                self.ch_len.push(0);
                self.ch_class.push(NO_CLASS);
                (self.len() - 1) as u32
            }
        }
    }

    /// Return a node id (and its child slot) to the free lists.
    pub(crate) fn release(&mut self, n: u32) {
        let ni = n as usize;
        debug_assert_eq!(self.ch_len[ni], 0, "releasing a node that still has children");
        if self.ch_class[ni] != NO_CLASS {
            self.pool.release(self.ch_start[ni], self.ch_class[ni]);
            self.ch_start[ni] = 0;
            self.ch_class[ni] = NO_CLASS;
        }
        self.free.push(n);
    }

    /// The live children of `n`, in weight-sorted order.
    pub(crate) fn children(&self, n: u32) -> &[u32] {
        let ni = n as usize;
        let start = self.ch_start[ni] as usize;
        &self.pool.slab[start..start + self.ch_len[ni] as usize]
    }

    pub(crate) fn child_at(&self, n: u32, i: usize) -> u32 {
        debug_assert!(i < self.ch_len[n as usize] as usize);
        self.pool.slab[self.ch_start[n as usize] as usize + i]
    }

    pub(crate) fn is_leaf(&self, n: u32) -> bool {
        self.ch_len[n as usize] == 0
    }

    /// Append a child id, growing the slot to the next capacity class
    /// (copying into a fresh slot, reclaiming the old one) when full.
    pub(crate) fn child_push(&mut self, n: u32, c: u32) {
        let ni = n as usize;
        let len = self.ch_len[ni];
        let class = self.ch_class[ni];
        if class == NO_CLASS {
            self.ch_start[ni] = self.pool.alloc(0);
            self.ch_class[ni] = 0;
        } else if len == 1u32 << class {
            let grown = self.pool.alloc(class + 1);
            let old = self.ch_start[ni];
            self.pool.slab.copy_within(old as usize..(old + len) as usize, grown as usize);
            self.pool.release(old, class);
            self.ch_start[ni] = grown;
            self.ch_class[ni] = class + 1;
        }
        self.pool.slab[self.ch_start[ni] as usize + len as usize] = c;
        self.ch_len[ni] = len + 1;
    }

    /// Shifting removal at `pos` — exactly `Vec::remove` semantics — with
    /// the shifted suffix's `pos_in_parent` refreshed (the seed's
    /// `remove_leaf` did both steps; fusing them keeps the refresh from
    /// re-reading the list).
    pub(crate) fn child_remove_at(&mut self, n: u32, pos: usize) {
        let ni = n as usize;
        let len = self.ch_len[ni] as usize;
        debug_assert!(pos < len);
        let start = self.ch_start[ni] as usize;
        self.pool.slab.copy_within(start + pos + 1..start + len, start + pos);
        self.ch_len[ni] = (len - 1) as u32;
        for i in pos..len - 1 {
            let moved = self.pool.slab[start + i] as usize;
            self.pos_in_parent[moved] = i as u32;
        }
    }

    /// Swap two child positions (the weight-class swap in
    /// `increment_child_weight`). Callers fix `pos_in_parent`.
    pub(crate) fn child_swap(&mut self, n: u32, i: usize, j: usize) {
        let start = self.ch_start[n as usize] as usize;
        debug_assert!(i < self.ch_len[n as usize] as usize);
        debug_assert!(j < self.ch_len[n as usize] as usize);
        self.pool.slab.swap(start + i, start + j);
    }

    /// Exact bytes owned by the arena: every container's *capacity* times
    /// its element size. The hash map's open-addressing table is charged
    /// at one metadata byte plus one entry per usable slot — deterministic
    /// and within the allocator-rounding noise of the true figure; every
    /// other term is exact.
    pub(crate) fn bytes_in_use(&self) -> usize {
        fn vec_bytes<T>(v: &[T]) -> usize {
            std::mem::size_of_val(v)
        }
        let scalar = self.blocks.capacity() * 8
            + self.weights.capacity() * 8
            + self.parents.capacity() * 4
            + self.pos_in_parent.capacity() * 4
            + self.lvc.capacity() * 4
            + self.lru_prev.capacity() * 4
            + self.lru_next.capacity() * 4
            + self.ch_start.capacity() * 4
            + self.ch_len.capacity() * 4
            + self.ch_class.capacity();
        let slab = self.pool.slab.capacity() * 4;
        let pool_free: usize = self.pool.free.capacity() * std::mem::size_of::<Vec<u32>>()
            + self.pool.free.iter().map(|v| v.capacity() * 4).sum::<usize>();
        let free = self.free.capacity() * 4;
        let edges = self.edges.capacity()
            * (std::mem::size_of::<((u32, u64), u32)>() + 1/* swiss-table metadata byte */);
        let _ = vec_bytes::<u32>(&[]);
        scalar + slab + pool_free + free + edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_reuses_freed_ids_lifo() {
        let mut a = Arena::with_root();
        let x = a.alloc(BlockId(1), 0, 0);
        let y = a.alloc(BlockId(2), 0, 1);
        assert_eq!((x, y), (1, 2));
        a.release(x);
        a.release(y);
        // LIFO: y comes back first.
        assert_eq!(a.alloc(BlockId(3), 0, 0), y);
        assert_eq!(a.alloc(BlockId(4), 0, 1), x);
        assert_eq!(a.len(), 3, "no new slots were grown");
    }

    #[test]
    fn child_slots_grow_by_doubling_and_recycle() {
        let mut a = Arena::with_root();
        let kids: Vec<u32> = (0..6).map(|i| a.alloc(BlockId(i), 0, i as u32)).collect();
        for &k in &kids {
            a.child_push(0, k);
        }
        assert_eq!(a.children(0), &kids[..]);
        assert_eq!(a.ch_class[0], 3, "6 children fit a class-3 (8-slot) slot");
        // The outgrown class-0/1/2 slots were reclaimed.
        let reclaimed: usize = a.pool.free.iter().map(Vec::len).sum();
        assert_eq!(reclaimed, 3);
        // A fresh node reuses the freed class-0 slot instead of growing.
        let slab_before = a.pool.slab.len();
        let n = a.alloc(BlockId(9), 1, 0);
        a.child_push(1, n);
        assert_eq!(a.pool.slab.len(), slab_before);
    }

    #[test]
    fn child_remove_shifts_and_refreshes_positions() {
        let mut a = Arena::with_root();
        let kids: Vec<u32> = (0..5).map(|i| a.alloc(BlockId(i), 0, i as u32)).collect();
        for &k in &kids {
            a.child_push(0, k);
        }
        a.child_remove_at(0, 1);
        assert_eq!(a.children(0), &[kids[0], kids[2], kids[3], kids[4]]);
        for (pos, &k) in a.children(0).iter().enumerate() {
            assert_eq!(a.pos_in_parent[k as usize] as usize, pos);
        }
    }

    #[test]
    fn bytes_in_use_tracks_growth() {
        let mut a = Arena::with_root();
        let empty = a.bytes_in_use();
        for i in 0..1000 {
            let n = a.alloc(BlockId(i), 0, i as u32);
            a.child_push(0, n);
            a.edges.insert((0, i), n);
        }
        assert!(a.bytes_in_use() > empty + 1000 * 36, "per-node scalars must be charged");
    }
}
