//! The partitioned demand/prefetch buffer cache (paper Figure 2).
//!
//! One pool of `capacity` buffers is split dynamically between a **demand
//! cache** (blocks that have been referenced; LRU ordered) and a **prefetch
//! cache** (blocks prefetched but not yet referenced). The three arrows of
//! the paper's Figure 2 map to:
//!
//! * (i)/(ii) reclaiming a buffer from either partition — [`BufferCache::evict_demand_lru`]
//!   and [`BufferCache::evict_prefetch`] (the *choice* is the policy's,
//!   driven by Eq. 11 vs Eq. 13);
//! * (iii) a referenced prefetch block migrating into the demand cache —
//!   handled inside [`BufferCache::reference`].
//!
//! The struct enforces the single invariant `demand + prefetch ≤ capacity`
//! and leaves all replacement *decisions* to the caller.

use crate::lru::LruCache;
use crate::victim::VictimIndex;
use prefetch_trace::BlockId;
use std::cell::RefCell;

/// Which partition a block lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partition {
    /// Previously referenced blocks (LRU replacement).
    Demand,
    /// Prefetched, not-yet-referenced blocks.
    Prefetch,
}

/// Bookkeeping attached to each prefetched block, recorded at prefetch time
/// and consumed by the Eq. 11 ejection-cost computation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PrefetchMeta {
    /// Path probability `p_b` the prefetch tree assigned when the block was
    /// chosen.
    pub probability: f64,
    /// Depth `d_b` (expected accesses until use) at prefetch time.
    pub distance: u32,
    /// Access period in which the prefetch was issued.
    pub issued_at: u64,
    /// Whether this block was fetched by one-block-lookahead (`next-limit`)
    /// rather than the prefetch tree; such blocks are subject to the
    /// 10%-of-cache partition cap (paper Section 9).
    pub sequential: bool,
}

/// Outcome of referencing a block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RefOutcome {
    /// Hit in the demand cache (block moved to MRU).
    DemandHit,
    /// Hit in the prefetch cache (block migrated to the demand cache); the
    /// prefetch bookkeeping is returned.
    PrefetchHit(PrefetchMeta),
    /// Not resident; the caller must fetch it (and free a buffer first if
    /// the cache is full).
    Miss,
}

/// The partitioned buffer cache.
#[derive(Clone, Debug)]
pub struct BufferCache {
    capacity: usize,
    demand: LruCache<()>,
    prefetch: LruCache<PrefetchMeta>,
    /// Number of prefetch-cache entries with `meta.sequential` set, kept
    /// incrementally so the `next-limit` partition cap is O(1) to check.
    sequential_count: usize,
    /// Lazy min-heap over prefetch ejection costs (see [`crate::victim`]),
    /// kept in sync with the prefetch partition on every mutation. In a
    /// `RefCell` because the argmin query is logically read-only (`&self`)
    /// but physically restructures the heaps.
    victims: RefCell<VictimIndex>,
}

impl BufferCache {
    /// A cache of `capacity` buffers, all initially free.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache needs at least one buffer");
        BufferCache {
            capacity,
            demand: LruCache::with_capacity(capacity),
            prefetch: LruCache::new(),
            sequential_count: 0,
            victims: RefCell::new(VictimIndex::default()),
        }
    }

    /// Number of resident prefetched blocks that were issued by
    /// one-block-lookahead (`meta.sequential`). O(1).
    pub fn sequential_prefetch_len(&self) -> usize {
        self.sequential_count
    }

    /// Total buffer count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Buffers currently in the demand partition.
    pub fn demand_len(&self) -> usize {
        self.demand.len()
    }

    /// Buffers currently in the prefetch partition.
    pub fn prefetch_len(&self) -> usize {
        self.prefetch.len()
    }

    /// Total occupied buffers.
    pub fn len(&self) -> usize {
        self.demand.len() + self.prefetch.len()
    }

    /// Whether no buffers are occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Unoccupied buffers.
    pub fn free_buffers(&self) -> usize {
        self.capacity - self.len()
    }

    /// Whether every buffer is occupied.
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity
    }

    /// Where `block` currently resides, if cached. Does not touch recency.
    pub fn whereis(&self, block: BlockId) -> Option<Partition> {
        if self.demand.contains(block) {
            Some(Partition::Demand)
        } else if self.prefetch.contains(block) {
            Some(Partition::Prefetch)
        } else {
            None
        }
    }

    /// Whether `block` is resident in either partition.
    pub fn contains(&self, block: BlockId) -> bool {
        self.whereis(block).is_some()
    }

    /// Reference `block`: demand hits are touched to MRU, prefetch hits
    /// migrate to the demand cache (Figure 2 arrow iii), misses are
    /// reported for the caller to handle.
    pub fn reference(&mut self, block: BlockId) -> RefOutcome {
        if self.demand.touch(block) {
            return RefOutcome::DemandHit;
        }
        if let Some(meta) = self.prefetch.remove(block) {
            self.sequential_count -= meta.sequential as usize;
            self.victims.get_mut().on_remove(block.0);
            self.demand.insert(block, ());
            return RefOutcome::PrefetchHit(meta);
        }
        RefOutcome::Miss
    }

    /// Insert a demand-fetched block at the demand MRU position.
    ///
    /// # Panics
    /// Panics if the cache is full (free a buffer first) or the block is
    /// already resident.
    pub fn insert_demand(&mut self, block: BlockId) {
        assert!(!self.is_full(), "insert_demand on a full cache");
        assert!(!self.contains(block), "block {block:?} already cached");
        self.demand.insert(block, ());
    }

    /// Insert a prefetched block into the prefetch cache.
    ///
    /// # Panics
    /// Panics if the cache is full or the block is already resident.
    pub fn insert_prefetch(&mut self, block: BlockId, meta: PrefetchMeta) {
        assert!(!self.is_full(), "insert_prefetch on a full cache");
        assert!(!self.contains(block), "block {block:?} already cached");
        self.sequential_count += meta.sequential as usize;
        self.victims.get_mut().on_insert(block.0, &meta);
        self.prefetch.insert(block, meta);
    }

    /// Evict the demand-cache LRU block, returning it (Figure 2 arrow i).
    pub fn evict_demand_lru(&mut self) -> Option<BlockId> {
        self.demand.pop_lru().map(|(b, ())| b)
    }

    /// Evict a specific block from the prefetch cache (arrow ii), returning
    /// its bookkeeping.
    pub fn evict_prefetch(&mut self, block: BlockId) -> Option<PrefetchMeta> {
        let meta = self.prefetch.remove(block)?;
        self.sequential_count -= meta.sequential as usize;
        self.victims.get_mut().on_remove(block.0);
        Some(meta)
    }

    /// Cancel a prefetch whose disk read failed: the reserved buffer is
    /// released and the block is simply not resident. Mechanically an
    /// [`Self::evict_prefetch`], named separately so fault-handling call
    /// sites read as cancellations rather than replacement decisions.
    pub fn cancel_prefetch(&mut self, block: BlockId) -> Option<PrefetchMeta> {
        self.evict_prefetch(block)
    }

    /// Evict the oldest (least recently inserted) prefetched block.
    pub fn evict_prefetch_lru(&mut self) -> Option<(BlockId, PrefetchMeta)> {
        let (b, meta) = self.prefetch.pop_lru()?;
        self.sequential_count -= meta.sequential as usize;
        self.victims.get_mut().on_remove(b.0);
        Some((b, meta))
    }

    /// The demand-cache LRU block (the replacement candidate Eq. 13
    /// prices), without evicting it.
    pub fn demand_lru(&self) -> Option<BlockId> {
        self.demand.lru().map(|(b, _)| b)
    }

    /// Iterate prefetch-cache entries (most recently inserted first) for
    /// ejection-cost scans.
    pub fn prefetch_iter(&self) -> impl Iterator<Item = (BlockId, &PrefetchMeta)> {
        self.prefetch.iter()
    }

    /// Iterate prefetch-cache entries oldest-first (least recently
    /// inserted first), for finding stale victims in O(1) expected.
    pub fn prefetch_iter_lru(&self) -> impl Iterator<Item = (BlockId, &PrefetchMeta)> {
        self.prefetch.iter_lru()
    }

    /// Bookkeeping for a prefetched block.
    pub fn prefetch_meta(&self, block: BlockId) -> Option<&PrefetchMeta> {
        self.prefetch.peek(block)
    }

    /// The block the exact Eq. 11 cost scan would evict at `period` with
    /// free window `x`: minimum `p_b/(d_remaining − x)`, ties broken toward
    /// the most recent insertion. Amortised O(log n) against the lazy
    /// victim index; `None` iff the prefetch partition is empty.
    ///
    /// The caller supplies the scale-free ordering inputs only — the
    /// constant `T_driver + T_stall(x)` factor of Eq. 11 does not affect
    /// the argmin (the engine special-cases a zero scale, under which
    /// every cost collapses to `0.0` and MRU order decides).
    pub fn cheapest_prefetch_victim(&self, period: u64, x: u32) -> Option<BlockId> {
        self.victims.borrow_mut().query(period, x).map(BlockId)
    }

    /// Iterate demand-cache blocks from MRU to LRU (diagnostics).
    pub fn demand_iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.demand.iter().map(|(b, _)| b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(p: f64, d: u32) -> PrefetchMeta {
        PrefetchMeta { probability: p, distance: d, issued_at: 0, sequential: false }
    }

    #[test]
    fn demand_hits_and_misses() {
        let mut c = BufferCache::new(4);
        assert_eq!(c.reference(BlockId(1)), RefOutcome::Miss);
        c.insert_demand(BlockId(1));
        assert_eq!(c.reference(BlockId(1)), RefOutcome::DemandHit);
        assert_eq!(c.whereis(BlockId(1)), Some(Partition::Demand));
        assert_eq!(c.len(), 1);
        assert_eq!(c.free_buffers(), 3);
    }

    #[test]
    fn prefetch_hit_migrates_to_demand() {
        let mut c = BufferCache::new(4);
        c.insert_prefetch(BlockId(7), meta(0.5, 2));
        assert_eq!(c.whereis(BlockId(7)), Some(Partition::Prefetch));
        assert_eq!(c.prefetch_len(), 1);
        match c.reference(BlockId(7)) {
            RefOutcome::PrefetchHit(m) => {
                assert_eq!(m.probability, 0.5);
                assert_eq!(m.distance, 2);
            }
            other => panic!("expected prefetch hit, got {other:?}"),
        }
        assert_eq!(c.whereis(BlockId(7)), Some(Partition::Demand));
        assert_eq!(c.prefetch_len(), 0);
        assert_eq!(c.demand_len(), 1);
        // Total unchanged by the migration.
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_frees_buffers() {
        let mut c = BufferCache::new(3);
        c.insert_demand(BlockId(1));
        c.insert_demand(BlockId(2));
        c.insert_prefetch(BlockId(3), meta(0.9, 1));
        assert!(c.is_full());
        assert_eq!(c.evict_demand_lru(), Some(BlockId(1)));
        assert_eq!(c.free_buffers(), 1);
        assert_eq!(c.evict_prefetch(BlockId(3)).unwrap().probability, 0.9);
        assert_eq!(c.evict_prefetch(BlockId(3)), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.demand_lru(), Some(BlockId(2)));
    }

    #[test]
    fn demand_lru_order_follows_references() {
        let mut c = BufferCache::new(4);
        for b in [1u64, 2, 3] {
            c.insert_demand(BlockId(b));
        }
        assert_eq!(c.demand_lru(), Some(BlockId(1)));
        c.reference(BlockId(1));
        assert_eq!(c.demand_lru(), Some(BlockId(2)));
        let order: Vec<u64> = c.demand_iter().map(|b| b.0).collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn evict_prefetch_lru_is_insertion_ordered() {
        let mut c = BufferCache::new(4);
        c.insert_prefetch(BlockId(1), meta(0.1, 1));
        c.insert_prefetch(BlockId(2), meta(0.2, 2));
        let (b, m) = c.evict_prefetch_lru().unwrap();
        assert_eq!(b, BlockId(1));
        assert_eq!(m.probability, 0.1);
    }

    #[test]
    fn cancel_prefetch_releases_the_slot() {
        let mut c = BufferCache::new(2);
        c.insert_prefetch(BlockId(4), meta(0.7, 1));
        assert!(c.is_full() || c.free_buffers() == 1);
        let m = c.cancel_prefetch(BlockId(4)).expect("slot was reserved");
        assert_eq!(m.probability, 0.7);
        assert!(!c.contains(BlockId(4)));
        assert_eq!(c.free_buffers(), 2);
        // Cancelling a block with no slot is a no-op.
        assert_eq!(c.cancel_prefetch(BlockId(4)), None);
    }

    #[test]
    #[should_panic(expected = "full cache")]
    fn insert_into_full_cache_panics() {
        let mut c = BufferCache::new(1);
        c.insert_demand(BlockId(1));
        c.insert_demand(BlockId(2));
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_insert_panics() {
        let mut c = BufferCache::new(2);
        c.insert_demand(BlockId(1));
        c.insert_prefetch(BlockId(1), meta(0.5, 1));
    }

    #[test]
    #[should_panic(expected = "at least one buffer")]
    fn zero_capacity_panics() {
        BufferCache::new(0);
    }
}
