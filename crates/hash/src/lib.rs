//! Shared dependency-free hashers.
//!
//! Two hashers with two different jobs:
//!
//! * [`Fnv64`] — FNV-1a, 64-bit. Stable across platforms, processes, and
//!   compiler versions, so it is safe to persist (checkpoint fingerprints)
//!   and to embed in on-disk formats. Byte-at-a-time, so it is *not* the
//!   fastest choice for hot in-memory tables.
//! * [`FxHasher`] — the rustc-style "Fx" word-at-a-time multiply-rotate
//!   hash. Much faster than `std`'s SipHash for small fixed-size keys
//!   (integers, tuples of integers) but with no DoS resistance and no
//!   stability guarantee beyond this crate. Use it for in-memory maps on
//!   trusted keys; never persist its output.
//!
//! [`FxHashMap`]/[`FxHashSet`] are drop-in aliases for the std collections
//! with the Fx hasher plugged in.

#![forbid(unsafe_code)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

// ---------------------------------------------------------------------------
// FNV-1a (stable, persistable)
// ---------------------------------------------------------------------------

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms and
/// runs (unlike `std`'s `DefaultHasher`, whose output is unspecified).
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// The accumulated 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.0
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Floats hash by bit pattern: distinct values (incl. `-0.0` vs `0.0`)
    /// are distinct configurations.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn bool(&mut self, v: bool) {
        self.u64(u64::from(v));
    }

    /// Length-prefixed so `("ab", "c")` and `("a", "bc")` differ.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Presence tag so `None` and `Some(default)` differ.
    pub fn opt(&mut self, v: Option<u64>) {
        match v {
            None => self.u64(0),
            Some(x) => {
                self.u64(1);
                self.u64(x);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// FxHash (fast, in-memory only)
// ---------------------------------------------------------------------------

const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Word-at-a-time multiply-rotate hasher in the style of rustc's FxHash.
///
/// Not cryptographic, not DoS-resistant, not stable across crate versions —
/// strictly for in-memory tables over trusted keys.
#[derive(Clone, Debug, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Length tag keeps ["a", ""] and ["", "a"] distinct.
            self.add(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed by the fast Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed by the fast Fx hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit vectors.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325); // offset basis
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_str_is_length_prefixed() {
        let digest = |parts: &[&str]| {
            let mut h = Fnv64::new();
            for p in parts {
                h.str(p);
            }
            h.finish()
        };
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
    }

    #[test]
    fn fnv_option_presence_is_tagged() {
        let digest = |v: Option<u64>| {
            let mut h = Fnv64::new();
            h.opt(v);
            h.finish()
        };
        assert_ne!(digest(None), digest(Some(0)));
    }

    fn fx_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(&v)
    }

    #[test]
    fn fx_is_deterministic_within_a_process() {
        assert_eq!(fx_of((3u32, 7u64)), fx_of((3u32, 7u64)));
        assert_ne!(fx_of((3u32, 7u64)), fx_of((7u32, 3u64)));
    }

    #[test]
    fn fx_byte_tail_is_length_tagged() {
        let hash_bytes = |b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(hash_bytes(b"a\0"), hash_bytes(b"a"));
        assert_ne!(hash_bytes(b"12345678x"), hash_bytes(b"12345678"));
    }

    #[test]
    fn fx_map_behaves_like_a_map() {
        let mut m: FxHashMap<(u32, u64), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, u64::from(i) * 3), i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, u64::from(i) * 3)), Some(&i));
        }
        assert_eq!(m.remove(&(4, 12)), Some(4));
        assert!(!m.contains_key(&(4, 12)));
    }
}
