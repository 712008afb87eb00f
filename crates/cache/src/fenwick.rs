//! Fenwick (binary indexed) tree over `u32` counts.
//!
//! Used by [`crate::StackDistanceEstimator`] to count, in O(log n), how many
//! *distinct* blocks were referenced after a given timestamp — the Mattson
//! stack distance.

/// A Fenwick tree supporting point updates and prefix sums over
/// `0..len`.
#[derive(Clone, Debug)]
pub struct FenwickTree {
    // 1-based internal array; tree[i] covers a range ending at i.
    tree: Vec<u32>,
}

impl FenwickTree {
    /// A tree of `len` zeroed slots.
    pub fn new(len: usize) -> Self {
        FenwickTree { tree: vec![0; len + 1] }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Whether the tree has zero slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Add `delta` to slot `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn add(&mut self, i: usize, delta: i32) {
        assert!(i < self.len(), "index {i} out of bounds {}", self.len());
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of slots `0..=i` (inclusive); an `i` past the end sums every
    /// slot, and an empty tree sums to 0.
    #[inline]
    pub fn prefix_sum(&self, i: usize) -> u64 {
        let mut i = (i + 1).min(self.tree.len() - 1);
        let mut s: u64 = 0;
        while i > 0 {
            s += self.tree[i] as u64;
            i -= i & i.wrapping_neg();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_updates_and_prefix_sums() {
        let mut f = FenwickTree::new(10);
        f.add(0, 1);
        f.add(4, 2);
        f.add(9, 3);
        assert_eq!(f.prefix_sum(0), 1);
        assert_eq!(f.prefix_sum(3), 1);
        assert_eq!(f.prefix_sum(4), 3);
        assert_eq!(f.prefix_sum(9), 6);
        assert_eq!(f.prefix_sum(usize::MAX - 1), 6, "past the end sums every slot");
    }

    #[test]
    fn negative_deltas() {
        let mut f = FenwickTree::new(4);
        f.add(2, 5);
        f.add(2, -3);
        assert_eq!(f.prefix_sum(2), 2);
        f.add(2, -2);
        assert_eq!(f.prefix_sum(3), 0);
    }

    #[test]
    fn range_sums() {
        let mut f = FenwickTree::new(8);
        for i in 0..8 {
            f.add(i, (i + 1) as i32); // 1,2,...,8
        }
        // A range sum is the difference of two prefix sums.
        assert_eq!(f.prefix_sum(7), 36);
        assert_eq!(f.prefix_sum(4) - f.prefix_sum(1), 3 + 4 + 5);
        assert_eq!(f.prefix_sum(0), 1);
    }

    #[test]
    fn matches_naive_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let n = 64;
        let mut f = FenwickTree::new(n);
        let mut naive = vec![0i64; n];
        for _ in 0..2000 {
            let i = rng.gen_range(0..n);
            // Keep each slot non-negative so u32 storage is valid.
            let delta = rng.gen_range(-3..=3i64).max(-naive[i]) as i32;
            f.add(i, delta);
            naive[i] += delta as i64;
            let q = rng.gen_range(0..n);
            let expect: i64 = naive[..=q].iter().sum();
            assert_eq!(f.prefix_sum(q), expect as u64);
        }
    }

    #[test]
    fn empty_tree() {
        let f = FenwickTree::new(0);
        assert!(f.is_empty());
        assert_eq!(f.prefix_sum(0), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_add_panics() {
        let mut f = FenwickTree::new(3);
        f.add(3, 1);
    }
}
