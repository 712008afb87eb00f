//! Index-based node arena: one `Vec` of 40-byte nodes.
//!
//! Every tree node is one [`Node`] — block, weight, parent, last-visited
//! child, LRU links and a child-slot descriptor — exactly the 40 bytes the
//! paper's Figure 13 budgets (Section 9.3), so one `record_access` reads
//! one or two cache lines per node it visits. Child lists live out of line
//! in one shared *slab*: every node's children occupy a power-of-two sized
//! slot of one backing `Vec<u32>`, handed out and reclaimed through
//! per-class free lists.
//!
//! **There is no second copy of the edges.** A child is found by scanning
//! the parent's child list and comparing `nodes[c].block`
//! ([`Arena::find_child`]). The list is kept sorted by descending weight
//! for candidate pruning, which is also the order a lookup wants: on the
//! four synthetic traces 96–99 % of non-root hits land on the first entry,
//! and no node but the root ever has more than 64 children. Only nodes
//! whose fan-out exceeds [`WIDE_FANOUT`] (in practice the root, with
//! 34 k–450 k children, and a few hubs) have their edges in the
//! [`WideIndex`], 8 bytes an edge slot and grown a sixteenth of itself at
//! a time; [`Arena::child_push`] / [`Arena::child_remove_at`] move a node
//! in and out of it as its fan-out crosses the threshold. The layout this
//! replaced (ten parallel field vectors plus a global
//! `(parent, block) → child` map) measured 125–128 B/node and 220–280 ns
//! per `record_access` on cello where this one measures 96–99 and
//! 150–180; EXPERIMENTS.md (PR 23) has the pairs.
//!
//! One field stays columnar: `pos_in_parent`, and it is an *upper bound*
//! on a child's index in its parent's list, not the index itself.
//! `child_remove_at` shifts the suffix left and writes no position, so
//! every shifted sibling's bound stays true; [`Arena::position`] scans
//! back from the bound to the child and writes the exact index back.
//! Under `--node-limit` the root of a `pfserve` tenant has ≈ 4 000
//! children, and refreshing the shifted suffix on every eviction cost
//! 133–186 ns of a 1.2–1.5 µs tenant step where the shift itself costs
//! 14–18 ns. In a tree that never removes a node every bound is exact and
//! the scan ends at its first compare, on a word the weight-class search
//! beside it reads anyway (`sim-cello` and `sim-cad` do not move:
//! EXPERIMENTS.md). Kept beside the nodes rather than in them: with the
//! position inside the node each eviction dirtied ≈ 4 000 nodes instead of
//! 16 KB of positions (`serve-mux` +4…+38 % in 6 of 6 pairs).
//!
//! Child lists preserve *positional* semantics exactly: `child_push`
//! appends, `child_remove_at` shifts the suffix left, `child_swap`
//! exchanges two slots.
//!
//! Node ids are reused through [`Arena::free`] (LIFO) so
//! `OverflowPolicy::Evict` churn cannot grow the arena without bound. A
//! freed node keeps its stale scalars: `pftree-snap/v2` serializes every
//! slot, so what a freed slot holds is part of the snapshot bytes.

use crate::node::{NIL, PAPER_BYTES};
use prefetch_hash::FxBuildHasher;
use prefetch_trace::BlockId;
use std::hash::BuildHasher;

/// Fan-out above which a node's children are hash-indexed instead of
/// scanned. A fan-out census of the four synthetic traces (1 M refs,
/// seed 42): the root has 450 845 / 34 181 / 229 805 / 136 205 children on
/// cello / cad / snake / sitar, every other node ≤ 42 / 19 / 8 / 64, and
/// 80 % of cello's nodes are leaves. 16 keeps every scan inside one
/// 64-byte line of child ids and leaves the index to the root and a few
/// hubs (319 / 2 / 0 / 18 nodes, 7 732 edges on cello beside the root's
/// 450 845).
pub(crate) const WIDE_FANOUT: usize = 16;

/// `ch_meta` packs the live child count (low 27 bits) with the slot's
/// capacity class (high 5 bits).
const LEN_BITS: u32 = 27;
const LEN_MASK: u32 = (1 << LEN_BITS) - 1;
/// Class value for "no child slot allocated".
const NO_CLASS: u32 = 31;

/// Most children one node can hold (2²⁷ − 1). A node that wide implies an
/// arena of several GB; `child_push` asserts it and `from_raw` refuses a
/// snapshot that exceeds it.
pub(crate) const MAX_FANOUT: usize = LEN_MASK as usize;

/// One tree node. 8 + 8 + 6 × 4 = 40 bytes, no padding.
#[derive(Clone, Debug)]
pub(crate) struct Node {
    /// The disk block this node represents (undefined for the root).
    pub(crate) block: u64,
    /// Visit count.
    pub(crate) weight: u64,
    /// Parent node id (NIL for the root).
    pub(crate) parent: u32,
    /// Last-visited child (NIL if never visited).
    pub(crate) lvc: u32,
    /// Intrusive LRU links for node limiting.
    pub(crate) lru_prev: u32,
    pub(crate) lru_next: u32,
    /// Child slot start offset into the slab.
    ch_start: u32,
    /// Live children in the slot and the slot's capacity class.
    ch_meta: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == PAPER_BYTES);

impl Node {
    pub(crate) fn new(block: u64, parent: u32) -> Self {
        Node {
            block,
            weight: 0,
            parent,
            lvc: NIL,
            lru_prev: NIL,
            lru_next: NIL,
            ch_start: 0,
            ch_meta: NO_CLASS << LEN_BITS,
        }
    }

    /// Live children.
    pub(crate) fn ch_len(&self) -> usize {
        (self.ch_meta & LEN_MASK) as usize
    }

    /// Slot capacity class (`1 << class` slots), NO_CLASS when none.
    fn ch_class(&self) -> u32 {
        self.ch_meta >> LEN_BITS
    }

    fn set_child_slot(&mut self, start: u32, class: u32, len: usize) {
        debug_assert!(len <= MAX_FANOUT && class <= NO_CLASS);
        self.ch_start = start;
        self.ch_meta = class << LEN_BITS | len as u32;
    }
}

/// Shared storage for all child lists: one backing slab, carved into
/// power-of-two slots recycled through per-class free lists.
#[derive(Clone, Debug, Default)]
struct ChildPool {
    slab: Vec<u32>,
    /// `free[c]` holds start offsets of reclaimed slots of capacity `1 << c`.
    free: Vec<Vec<u32>>,
}

impl ChildPool {
    /// Hand out a slot of capacity `1 << class`, reusing a freed one when
    /// available.
    fn alloc(&mut self, class: u32) -> u32 {
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

    fn release(&mut self, off: u32, class: u32) {
        if self.free.len() <= class as usize {
            self.free.resize(class as usize + 1, Vec::new());
        }
        self.free[class as usize].push(off);
    }
}

/// An unoccupied [`WideIndex`] slot: no node has id [`NIL`].
const EMPTY: u64 = u64::MAX;

/// Tables the [`WideIndex`] is split into.
const SHARDS: usize = 16;

/// `(parent, block) → child` for the edges of wide nodes, and only those:
/// open addressing with linear probing over 8-byte slots, each the high
/// half of the key's Fx hash above the child id. A probe compares hash
/// halves and confirms a match against the child's own node (`parent`,
/// `block`), which the caller reads next anyway; the key is not stored.
///
/// The footprint follows the entry count closely, and that is what the
/// shape is for. Cello's root ends a 1 M-ref run with 451 k–469 k children
/// depending on the seed; one std `HashMap` doubles at 458 752 entries and
/// holds the old and the new table at once while it rehashes, and peak
/// RSS read 52 or 70 MB by seed. Here a slot's home is
/// `hash × capacity >> 32`, so a capacity need not be a power of two and
/// a table grows by a quarter; and the edges are dealt by hash over
/// [`SHARDS`] tables that grow one at a time, so a rehash holds a
/// sixteenth of the index twice, not all of it. The home is monotone in
/// the hash: a rehash reads the old table and writes the new one front to
/// back, which is what keeps the extra rehashes cheap.
#[derive(Clone, Debug, Default)]
struct WideIndex {
    shards: [Shard; SHARDS],
}

#[derive(Clone, Debug, Default)]
struct Shard {
    slots: Vec<u64>,
    len: usize,
}

impl WideIndex {
    /// An edge's shard (hash bits just below the stored half) and slot.
    fn locate(parent: u32, block: u64, child: u32) -> (usize, u64) {
        let hash = FxBuildHasher::default().hash_one((parent, block));
        ((hash >> 28) as usize % SHARDS, (hash >> 32 << 32) | u64::from(child))
    }

    fn find(&self, nodes: &[Node], parent: u32, block: u64) -> Option<u32> {
        let (shard, key) = Self::locate(parent, block, 0);
        let shard = &self.shards[shard];
        if shard.len == 0 {
            return None;
        }
        let mut i = shard.home(key);
        loop {
            let s = shard.slots[i];
            if s == EMPTY {
                return None;
            }
            if (s ^ key) >> 32 == 0 {
                let node = &nodes[s as u32 as usize];
                if node.block == block && node.parent == parent {
                    return Some(s as u32);
                }
            }
            i = shard.next(i);
        }
    }

    /// Enter an edge that is not indexed.
    fn insert(&mut self, parent: u32, block: u64, child: u32) {
        let (shard, slot) = Self::locate(parent, block, child);
        self.shards[shard].insert(slot);
    }

    /// Retire an edge that is indexed.
    fn remove(&mut self, parent: u32, block: u64, child: u32) {
        let (shard, slot) = Self::locate(parent, block, child);
        self.shards[shard].remove(slot);
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len).sum()
    }

    fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.slots.capacity() * 8).sum()
    }
}

impl Shard {
    fn home(&self, slot: u64) -> usize {
        (((slot >> 32) as u128 * self.slots.len() as u128) >> 32) as usize
    }

    fn next(&self, i: usize) -> usize {
        if i + 1 == self.slots.len() {
            0
        } else {
            i + 1
        }
    }

    /// At most two slots in three are ever occupied, so every probe
    /// sequence ends at an empty one.
    fn insert(&mut self, slot: u64) {
        if (self.len + 1) * 3 > self.slots.len() * 2 {
            let grown = (self.slots.len() + self.slots.len() / 4).max(8);
            let old = std::mem::replace(&mut self.slots, vec![EMPTY; grown]);
            for s in old.into_iter().filter(|&s| s != EMPTY) {
                self.place(s);
            }
        }
        self.place(slot);
        self.len += 1;
    }

    fn place(&mut self, slot: u64) {
        let mut i = self.home(slot);
        while self.slots[i] != EMPTY {
            i = self.next(i);
        }
        self.slots[i] = slot;
    }

    /// Close the gap by shifting back every later entry of the run that
    /// may move without passing its home — no tombstones, so eviction
    /// churn leaves no residue. The last edge out frees the table.
    fn remove(&mut self, slot: u64) {
        let mut hole = self.home(slot);
        while self.slots[hole] != slot {
            assert_ne!(self.slots[hole], EMPTY, "edge to {} is not indexed", slot as u32);
            hole = self.next(hole);
        }
        let mut i = hole;
        loop {
            i = self.next(i);
            let s = self.slots[i];
            if s == EMPTY {
                break;
            }
            // `s` stays put iff its home lies cyclically in (hole, i].
            let home = self.home(s);
            let stays = if hole <= i { hole < home && home <= i } else { hole < home || home <= i };
            if !stays {
                self.slots[hole] = s;
                hole = i;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
        if self.len == 0 {
            self.slots = Vec::new();
        }
    }
}

/// The node store. `nodes` and `pos_in_parent` are indexed by node id and
/// always have identical lengths; a node id is live unless it appears in
/// [`Arena::free`].
///
/// Invariants: for every live node `c` with parent `p`, `c` sits in
/// `children(p)` at an index `≤ pos_in_parent[c]`; `wide` holds exactly the
/// edges of the nodes with more than [`WIDE_FANOUT`] children.
#[derive(Clone, Debug)]
pub(crate) struct Arena {
    pub(crate) nodes: Vec<Node>,
    /// An upper bound on each node's position in its parent's child list,
    /// exact until a removal shifts the list (tightened by
    /// [`Arena::position`]).
    pub(crate) pos_in_parent: Vec<u32>,
    pool: ChildPool,
    /// Reusable node ids (LIFO).
    pub(crate) free: Vec<u32>,
    /// The edges of wide nodes: 8 B a slot where the old global map of
    /// every edge cost 25.
    wide: WideIndex,
}

impl Arena {
    /// An arena holding only the root (id 0).
    pub(crate) fn with_root() -> Self {
        Arena {
            nodes: vec![Node::new(u64::MAX, NIL)],
            pos_in_parent: vec![NIL],
            pool: ChildPool::default(),
            free: Vec::new(),
            wide: WideIndex::default(),
        }
    }

    /// Total slots (live + freed), including the root.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Allocate a node, reusing a freed id when available. The new node
    /// has weight 0, no children, and unlinked LRU state.
    pub(crate) fn alloc(&mut self, block: BlockId, parent: u32, pos: u32) -> u32 {
        match self.free.pop() {
            Some(i) => {
                let node = &mut self.nodes[i as usize];
                debug_assert_eq!(node.ch_len(), 0, "freed node kept children");
                debug_assert_eq!(node.ch_class(), NO_CLASS, "freed node kept a child slot");
                *node = Node::new(block.0, parent);
                self.pos_in_parent[i as usize] = pos;
                i
            }
            None => {
                assert!(self.len() < NIL as usize, "prefetch tree arena overflow");
                self.nodes.push(Node::new(block.0, parent));
                self.pos_in_parent.push(pos);
                (self.len() - 1) as u32
            }
        }
    }

    /// Return a node id (and its child slot) to the free lists.
    pub(crate) fn release(&mut self, n: u32) {
        let node = &mut self.nodes[n as usize];
        debug_assert_eq!(node.ch_len(), 0, "releasing a node that still has children");
        if node.ch_class() != NO_CLASS {
            self.pool.release(node.ch_start, node.ch_class());
            node.set_child_slot(0, NO_CLASS, 0);
        }
        self.free.push(n);
    }

    /// The live children of `n`, in weight-sorted order.
    pub(crate) fn children(&self, n: u32) -> &[u32] {
        let node = &self.nodes[n as usize];
        let start = node.ch_start as usize;
        &self.pool.slab[start..start + node.ch_len()]
    }

    pub(crate) fn child_at(&self, n: u32, i: usize) -> u32 {
        self.children(n)[i]
    }

    pub(crate) fn is_leaf(&self, n: u32) -> bool {
        self.nodes[n as usize].ch_len() == 0
    }

    /// The child of `parent` representing `block`: a scan of the
    /// weight-sorted child list for narrow nodes, the hash index for wide
    /// ones.
    pub(crate) fn find_child(&self, parent: u32, block: u64) -> Option<u32> {
        let kids = self.children(parent);
        if kids.len() > WIDE_FANOUT {
            return self.wide.find(&self.nodes, parent, block);
        }
        kids.iter().copied().find(|&c| self.nodes[c as usize].block == block)
    }

    /// Append a child id, growing the slot to the next capacity class
    /// (copying into a fresh slot, reclaiming the old one) when full. A
    /// node pushed past [`WIDE_FANOUT`] enters the hash index.
    pub(crate) fn child_push(&mut self, n: u32, c: u32) {
        let node = &self.nodes[n as usize];
        let (mut start, mut class, len) = (node.ch_start, node.ch_class(), node.ch_len());
        assert!(len < MAX_FANOUT, "child list overflow");
        if class == NO_CLASS {
            start = self.pool.alloc(0);
            class = 0;
        } else if len == 1usize << class {
            let grown = self.pool.alloc(class + 1);
            self.pool.slab.copy_within(start as usize..start as usize + len, grown as usize);
            self.pool.release(start, class);
            start = grown;
            class += 1;
        }
        self.pool.slab[start as usize + len] = c;
        self.nodes[n as usize].set_child_slot(start, class, len + 1);

        if len + 1 > WIDE_FANOUT {
            debug_assert_eq!(self.nodes[c as usize].parent, n, "child pushed under a stranger");
            // Crossing the threshold enters every edge, not just the new one.
            let first = if len == WIDE_FANOUT { 0 } else { len };
            for i in first..=len {
                let k = self.pool.slab[start as usize + i];
                self.wide.insert(n, self.nodes[k as usize].block, k);
            }
        }
    }

    /// Shifting removal at `pos` — exactly `Vec::remove` semantics. The
    /// shifted suffix keeps its `pos_in_parent`, now one too high: a
    /// bound that [`Arena::position`] tightens when it is next read. A
    /// node that falls back to [`WIDE_FANOUT`] children leaves the hash
    /// index.
    pub(crate) fn child_remove_at(&mut self, n: u32, pos: usize) {
        let node = &self.nodes[n as usize];
        let (start, class, len) = (node.ch_start as usize, node.ch_class(), node.ch_len());
        debug_assert!(pos < len);
        if len > WIDE_FANOUT {
            // Falling back to the threshold retires every edge.
            let going = if len - 1 == WIDE_FANOUT { 0..len } else { pos..pos + 1 };
            for i in going {
                let k = self.pool.slab[start + i];
                self.wide.remove(n, self.nodes[k as usize].block, k);
            }
        }
        self.pool.slab.copy_within(start + pos + 1..start + len, start + pos);
        self.nodes[n as usize].set_child_slot(start as u32, class, len - 1);
    }

    /// The index of `child` in `parent`'s child list: the stored bound
    /// scanned back to the child, and the exact index written back.
    pub(crate) fn position(&mut self, parent: u32, child: u32) -> usize {
        let pos = self.find_position(parent, child);
        self.pos_in_parent[child as usize] = pos as u32;
        pos
    }

    /// [`Arena::position`] without the write-back.
    pub(crate) fn find_position(&self, parent: u32, child: u32) -> usize {
        let kids = self.children(parent);
        let bound = (self.pos_in_parent[child as usize] as usize).min(kids.len() - 1);
        kids[..=bound]
            .iter()
            .rposition(|&c| c == child)
            .expect("a child lies at or below its bound")
    }

    /// Swap two child positions (the weight-class swap in
    /// `increment_child_weight`). Callers write both exact positions.
    pub(crate) fn child_swap(&mut self, n: u32, i: usize, j: usize) {
        let node = &self.nodes[n as usize];
        debug_assert!(i < node.ch_len() && j < node.ch_len());
        let start = node.ch_start as usize;
        self.pool.slab.swap(start + i, start + j);
    }

    /// Bytes owned by the arena: every container's *capacity* times its
    /// element size.
    pub(crate) fn bytes_in_use(&self) -> usize {
        use std::mem::size_of;
        let nodes = self.nodes.capacity() * size_of::<Node>();
        let pos = self.pos_in_parent.capacity() * 4;
        let slab = self.pool.slab.capacity() * 4;
        let pool_free: usize = self.pool.free.capacity() * size_of::<Vec<u32>>()
            + self.pool.free.iter().map(|v| v.capacity() * 4).sum::<usize>();
        let free = self.free.capacity() * 4;
        nodes + pos + slab + pool_free + free + self.wide.bytes()
    }

    /// Cross-check the index against the child lists (test support):
    /// `find_child` returns slab truth for every edge, and the index holds
    /// one entry per edge of a wide live node and nothing else.
    pub(crate) fn check_index(&self, live: &[bool]) {
        let mut wide_edges = 0usize;
        for (n, _) in live.iter().enumerate().filter(|(_, &l)| l) {
            let kids = self.children(n as u32);
            if kids.len() > WIDE_FANOUT {
                wide_edges += kids.len();
            }
            for &c in kids {
                let block = self.nodes[c as usize].block;
                assert_eq!(self.find_child(n as u32, block), Some(c), "edge lookup broken at {c}");
            }
        }
        assert_eq!(self.wide.len(), wide_edges, "index size != Σ fan-out of wide nodes");
        let slots = self.wide.shards.iter().flat_map(|s| &s.slots);
        let occupied = slots.filter(|&&s| s != EMPTY).count();
        assert_eq!(occupied, wide_edges, "index holds a stale or duplicate entry");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Root with `k` children for blocks `0..k`.
    fn root_with(k: u64) -> (Arena, Vec<u32>) {
        let mut a = Arena::with_root();
        let kids: Vec<u32> = (0..k)
            .map(|i| {
                let c = a.alloc(BlockId(i), 0, i as u32);
                a.child_push(0, c);
                c
            })
            .collect();
        (a, kids)
    }

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
        let (mut a, kids) = root_with(6);
        assert_eq!(a.children(0), &kids[..]);
        assert_eq!(a.nodes[0].ch_class(), 3, "6 children fit a class-3 (8-slot) slot");
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
        let (mut a, kids) = root_with(5);
        a.child_remove_at(0, 4);
        a.child_remove_at(0, 1);
        assert_eq!(a.children(0), &[kids[0], kids[2], kids[3]]);
        // The shifted suffix kept its old positions: bounds, one too high.
        assert_eq!(a.pos_in_parent[kids[3] as usize], 3);
        for (pos, &k) in a.children(0).to_vec().iter().enumerate() {
            assert!(a.pos_in_parent[k as usize] as usize >= pos);
            assert_eq!(a.position(0, k), pos);
            assert_eq!(a.pos_in_parent[k as usize] as usize, pos, "position writes back");
        }
        assert_eq!(a.find_child(0, 1), None);
        assert_eq!(a.find_child(0, 3), Some(kids[3]));
    }

    #[test]
    fn a_node_is_indexed_exactly_while_it_is_wide() {
        let wide = WIDE_FANOUT as u64;
        let (mut a, kids) = root_with(wide);
        assert_eq!(a.wide.len(), 0, "{WIDE_FANOUT} children are scanned");
        let extra = a.alloc(BlockId(wide), 0, wide as u32);
        a.child_push(0, extra);
        assert_eq!(a.wide.len(), WIDE_FANOUT + 1, "every edge enters the index at once");
        assert_eq!(a.find_child(0, 3), Some(kids[3]));
        assert_eq!(a.find_child(0, wide), Some(extra));
        assert_eq!(a.find_child(0, wide + 1), None);
        a.child_remove_at(0, 3);
        assert_eq!(a.wide.bytes(), 0, "back at the threshold the index is dropped");
        assert_eq!(a.find_child(0, 3), None);
        assert_eq!(a.find_child(0, wide), Some(extra));
        a.check_index(&vec![true; a.len()]);
    }

    #[test]
    fn the_index_follows_churn_through_growth_and_backward_shifts() {
        // 3 000 edges put ~190 in each shard: tables that grew a dozen
        // times, with runs long enough to wrap and to shift on removal.
        let (mut a, _) = root_with(3000);
        a.check_index(&vec![true; a.len()]);
        let mut live = vec![true; a.len()];
        // Drop two children in three, from the back so positions stay put.
        for pos in (0..3000).rev().filter(|p| p % 3 != 0) {
            let c = a.child_at(0, pos);
            a.child_remove_at(0, pos);
            a.release(c);
            live[c as usize] = false;
        }
        a.check_index(&live);
        assert_eq!(a.wide.len(), 1000);
        for b in 3000..5000u64 {
            let c = a.alloc(BlockId(b), 0, a.children(0).len() as u32);
            a.child_push(0, c);
            live[c as usize] = true;
        }
        a.check_index(&live);
        assert_eq!(a.find_child(0, 1), None);
        assert!(a.find_child(0, 3).is_some() && a.find_child(0, 4999).is_some());
        // Two slots in three at most, a quarter's growth at a time (and some
        // slack: a shard keeps the capacity of its fullest moment).
        assert!(a.wide.bytes() <= 3000 * 8 * 3 / 2 * 5 / 4 + SHARDS * 512, "{}", a.wide.bytes());
    }

    #[test]
    fn bytes_in_use_tracks_growth() {
        let empty = Arena::with_root().bytes_in_use();
        let (a, _) = root_with(1000);
        let grown = a.bytes_in_use();
        // 40 B node + 4 B position + 4 B slab slot, and the root's index.
        assert!(grown > empty + 1000 * (PAPER_BYTES + 8 + 12), "every container must be charged");
        assert!(grown < empty + 1000 * 200, "and nothing charged twice: {grown}");
    }
}
