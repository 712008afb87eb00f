//! `pftree-snap/v1`: versioned, compressed, fingerprinted tree snapshots.
//!
//! This module persists the *complete* training state — arena arrays, the
//! free list, the parse cursor, LRU recency, statistics, and the node
//! budget — so a restored tree's future is **bit-identical** to the
//! snapshotted tree's future. That is what `pfserve --snapshot-dir`
//! warm-starts from and what lets a drained tenant resume exactly where
//! it stopped (the same guarantee the PR 3 checkpoint journal gives
//! sweeps, achieved the same way: raw state, never re-derived state).
//!
//! ## On-disk format (see DESIGN.md §12)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "PFSN"
//! 4       2     version (u16 LE) — readers reject versions they don't know
//! 6       2     codec  (u16 LE) — 0 = raw, 1 = canonical-Huffman
//! 8       8     FNV-1a fingerprint of the uncompressed payload (u64 LE)
//! 16      8     uncompressed payload length (u64 LE)
//! 24      ..    frame body
//! ```
//!
//! The payload is a varint stream of the tree's raw state. The tree *is*
//! an LZ parse, so the payload is already an LZ match encoding of the
//! trace it learned; the codec layer entropy-codes its bytes with a
//! canonical Huffman table (256 code lengths, then an MSB-first
//! bit stream). When the coded form wouldn't pay — tiny trees, high-entropy
//! varints — the writer stores the payload raw, so a snapshot is never
//! bigger than raw + 24 bytes of header.
//!
//! Restoration validates every structural invariant (see
//! [`crate::PrefetchTree`]'s `from_raw`) so corrupt or adversarial bytes
//! yield a typed [`TreeIoError`], never a panic.

use crate::io::{get_varint, put_varint, TreeIoError};
use crate::stats::TreeStats;
use crate::tree::PrefetchTree;
use prefetch_hash::Fnv64;
use std::io::{Read, Write};
use std::path::Path;

pub(crate) const MAGIC: [u8; 4] = *b"PFSN";
pub(crate) const VERSION: u16 = 1;
const CODEC_RAW: u16 = 0;
const CODEC_HUFFMAN: u16 = 1;
/// Bit-at-a-time canonical decoding accumulates into a u64; depths beyond
/// this would need a payload larger than 2^56 bytes to arise.
const MAX_CODE_LEN: u32 = 56;

/// What a snapshot write produced — sizes for benchmarks and the
/// compression-ratio tables in EXPERIMENTS.md.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotInfo {
    /// Uncompressed payload bytes (the varint state stream).
    pub payload_bytes: usize,
    /// Bytes written, including the 24-byte header.
    pub encoded_bytes: usize,
    /// Whether the Huffman codec paid for itself (false = stored raw).
    pub entropy_coded: bool,
}

/// Complete decoded tree state: the bridge between the byte format and
/// `PrefetchTree::{to_raw, from_raw}`. Parents, positions, child-slot
/// geometry, and the wide-node index are *derived* (and validated) from the
/// children lists on restore rather than trusted from the wire.
#[derive(Clone, Debug)]
pub(crate) struct RawTree {
    pub node_limit: u64,
    pub overflow: u8,
    pub cursor: u32,
    pub fresh_substring: bool,
    pub lru_head: u32,
    pub lru_tail: u32,
    pub stats: TreeStats,
    pub blocks: Vec<u64>,
    pub weights: Vec<u64>,
    pub lvc: Vec<u32>,
    pub lru_prev: Vec<u32>,
    pub lru_next: Vec<u32>,
    pub children: Vec<Vec<u32>>,
    pub free: Vec<u32>,
}

// ---------------------------------------------------------------------------
// Bit-level I/O
// ---------------------------------------------------------------------------

/// MSB-first bit accumulator flushed byte-at-a-time into a `Vec<u8>`.
struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter { out: Vec::new(), acc: 0, nbits: 0 }
    }

    fn write_bits(&mut self, code: u64, len: u32) {
        debug_assert!((1..=MAX_CODE_LEN).contains(&len));
        self.acc = (self.acc << len) | (code & ((1u64 << len) - 1));
        self.nbits += len;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.out.push((self.acc >> self.nbits) as u8);
        }
    }

    /// Flush, zero-padding the final partial byte.
    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.acc <<= pad;
            self.out.push(self.acc as u8);
            self.nbits = 0;
        }
        self.out
    }
}

/// MSB-first bit reader with typed exhaustion errors.
struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0, acc: 0, nbits: 0 }
    }

    fn read_bit(&mut self) -> Result<u64, TreeIoError> {
        if self.nbits == 0 {
            let byte =
                *self.buf.get(self.pos).ok_or(TreeIoError::Corrupt("bit stream exhausted"))?;
            self.pos += 1;
            self.acc = u64::from(byte);
            self.nbits = 8;
        }
        self.nbits -= 1;
        Ok((self.acc >> self.nbits) & 1)
    }
}

// ---------------------------------------------------------------------------
// Canonical Huffman over payload bytes
// ---------------------------------------------------------------------------

/// Deterministic Huffman code lengths for the byte histogram: ties in the
/// merge heap break on first-created order, so the same payload always
/// yields the same table. Returns `None` when a code would exceed
/// [`MAX_CODE_LEN`] (callers fall back to the raw codec).
fn code_lengths(freq: &[u64; 256]) -> Option<[u8; 256]> {
    #[derive(PartialEq, Eq)]
    struct Item {
        freq: u64,
        order: u32,
        node: u32,
    }
    impl Ord for Item {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse: BinaryHeap is a max-heap, we want min-first.
            other.freq.cmp(&self.freq).then_with(|| other.order.cmp(&self.order))
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut heap = std::collections::BinaryHeap::new();
    // Tree nodes: 0..256 are symbol leaves, internals appended after.
    let mut kids: Vec<(u32, u32)> = Vec::new();
    let mut order = 0u32;
    for (sym, &f) in freq.iter().enumerate() {
        if f > 0 {
            heap.push(Item { freq: f, order, node: sym as u32 });
            order += 1;
        }
    }
    match heap.len() {
        0 => return Some([0; 256]),
        1 => {
            // A single distinct symbol still needs one bit per occurrence.
            let mut lens = [0u8; 256];
            lens[heap.pop().expect("len 1").node as usize] = 1;
            return Some(lens);
        }
        _ => {}
    }
    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1");
        let b = heap.pop().expect("len > 1");
        let node = 256 + kids.len() as u32;
        kids.push((a.node, b.node));
        heap.push(Item { freq: a.freq.saturating_add(b.freq), order, node });
        order += 1;
    }
    // Walk depths down from the final merge.
    let root = heap.pop().expect("one root").node;
    let mut lens = [0u8; 256];
    let mut stack = vec![(root, 0u32)];
    while let Some((node, depth)) = stack.pop() {
        if node < 256 {
            if depth > MAX_CODE_LEN {
                return None;
            }
            lens[node as usize] = depth as u8;
        } else {
            let (a, b) = kids[(node - 256) as usize];
            stack.push((a, depth + 1));
            stack.push((b, depth + 1));
        }
    }
    Some(lens)
}

/// Canonical code assignment: symbols sorted by (length, value) get
/// consecutive codes — the table on the wire is just the 256 lengths.
fn canonical_codes(lens: &[u8; 256]) -> Result<[(u64, u8); 256], TreeIoError> {
    let mut by_len: Vec<(u8, u8)> = Vec::new(); // (len, symbol)
    for (sym, &l) in lens.iter().enumerate() {
        if l > 0 {
            if u32::from(l) > MAX_CODE_LEN {
                return Err(TreeIoError::Corrupt("huffman code too long"));
            }
            by_len.push((l, sym as u8));
        }
    }
    by_len.sort_unstable();
    let mut codes = [(0u64, 0u8); 256];
    let mut code = 0u64;
    let mut prev_len = 0u8;
    for &(l, sym) in &by_len {
        code <<= l - prev_len;
        prev_len = l;
        codes[sym as usize] = (code, l);
        code = code.checked_add(1).ok_or(TreeIoError::Corrupt("huffman table overflows"))?;
        // Kraft check: the last code of length l must fit in l bits.
        if code > (1u64 << l) {
            return Err(TreeIoError::Corrupt("huffman lengths violate kraft inequality"));
        }
    }
    Ok(codes)
}

fn huffman_encode(payload: &[u8]) -> Option<Vec<u8>> {
    let mut freq = [0u64; 256];
    for &b in payload {
        freq[b as usize] += 1;
    }
    let lens = code_lengths(&freq)?;
    let codes = canonical_codes(&lens).ok()?;
    let mut w = BitWriter::new();
    w.out.extend_from_slice(&lens);
    for &b in payload {
        let (code, len) = codes[b as usize];
        w.write_bits(code, u32::from(len));
    }
    Some(w.finish())
}

fn huffman_decode(body: &[u8], payload_len: usize) -> Result<Vec<u8>, TreeIoError> {
    if body.len() < 256 {
        return Err(TreeIoError::Corrupt("huffman table truncated"));
    }
    let mut lens = [0u8; 256];
    lens.copy_from_slice(&body[..256]);
    let codes = canonical_codes(&lens)?;
    // Invert canonically: per length, the first code and the symbol list.
    let mut first_code = [0u64; (MAX_CODE_LEN + 2) as usize];
    let mut count = [0u32; (MAX_CODE_LEN + 2) as usize];
    let mut syms_by_len: Vec<Vec<u8>> = vec![Vec::new(); (MAX_CODE_LEN + 2) as usize];
    let mut by_len: Vec<(u8, u8)> = Vec::new();
    for (sym, &l) in lens.iter().enumerate() {
        if l > 0 {
            by_len.push((l, sym as u8));
        }
    }
    if by_len.is_empty() && payload_len > 0 {
        return Err(TreeIoError::Corrupt("empty huffman table for nonempty payload"));
    }
    by_len.sort_unstable();
    for &(l, sym) in &by_len {
        let li = l as usize;
        if count[li] == 0 {
            first_code[li] = codes[sym as usize].0;
        }
        count[li] += 1;
        syms_by_len[li].push(sym);
    }
    let mut r = BitReader::new(&body[256..]);
    let mut out = Vec::with_capacity(payload_len);
    while out.len() < payload_len {
        let mut code = 0u64;
        let mut len = 0usize;
        loop {
            code = (code << 1) | r.read_bit()?;
            len += 1;
            if len > MAX_CODE_LEN as usize {
                return Err(TreeIoError::Corrupt("huffman code exceeds max length"));
            }
            let offset = code.wrapping_sub(first_code[len]);
            if count[len] > 0 && offset < u64::from(count[len]) {
                out.push(syms_by_len[len][offset as usize]);
                break;
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    for &v in vs {
        put_varint(out, u64::from(v));
    }
}

fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32, TreeIoError> {
    let v = get_varint(buf, pos)?;
    u32::try_from(v).map_err(|_| TreeIoError::Corrupt("value exceeds u32"))
}

fn encode_payload(raw: &RawTree) -> Vec<u8> {
    let n = raw.blocks.len();
    let mut out = Vec::with_capacity(32 + n * 8);
    put_varint(&mut out, raw.node_limit);
    out.push(raw.overflow);
    put_varint(&mut out, u64::from(raw.cursor));
    out.push(u8::from(raw.fresh_substring));
    put_varint(&mut out, u64::from(raw.lru_head));
    put_varint(&mut out, u64::from(raw.lru_tail));
    for s in [
        raw.stats.accesses,
        raw.stats.predictable,
        raw.stats.lvc_opportunities,
        raw.stats.lvc_repeats,
        raw.stats.nodes_created,
        raw.stats.nodes_evicted,
        raw.stats.nodes_capped,
        raw.stats.resets,
    ] {
        put_varint(&mut out, s);
    }
    put_varint(&mut out, n as u64);
    for &b in &raw.blocks {
        put_varint(&mut out, b);
    }
    for &w in &raw.weights {
        put_varint(&mut out, w);
    }
    put_u32s(&mut out, &raw.lvc);
    put_u32s(&mut out, &raw.lru_prev);
    put_u32s(&mut out, &raw.lru_next);
    for kids in &raw.children {
        put_varint(&mut out, kids.len() as u64);
        put_u32s(&mut out, kids);
    }
    put_varint(&mut out, raw.free.len() as u64);
    put_u32s(&mut out, &raw.free);
    out
}

fn decode_payload(buf: &[u8]) -> Result<RawTree, TreeIoError> {
    let pos = &mut 0usize;
    let node_limit = get_varint(buf, pos)?;
    let overflow = *buf.get(*pos).ok_or(TreeIoError::Corrupt("truncated overflow byte"))?;
    *pos += 1;
    let cursor = get_u32(buf, pos)?;
    let fresh = *buf.get(*pos).ok_or(TreeIoError::Corrupt("truncated fresh flag"))?;
    *pos += 1;
    if fresh > 1 {
        return Err(TreeIoError::Corrupt("bad fresh flag"));
    }
    let lru_head = get_u32(buf, pos)?;
    let lru_tail = get_u32(buf, pos)?;
    let mut s = [0u64; 8];
    for v in &mut s {
        *v = get_varint(buf, pos)?;
    }
    let stats = TreeStats {
        accesses: s[0],
        predictable: s[1],
        lvc_opportunities: s[2],
        lvc_repeats: s[3],
        nodes_created: s[4],
        nodes_evicted: s[5],
        nodes_capped: s[6],
        resets: s[7],
    };
    let n = get_varint(buf, pos)? as usize;
    // Every node costs at least one byte in each array below: a count that
    // exceeds the remaining bytes is corrupt, not a huge allocation.
    if n == 0 || n > buf.len() - *pos {
        return Err(TreeIoError::Corrupt("implausible node count"));
    }
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        blocks.push(get_varint(buf, pos)?);
    }
    let mut weights = Vec::with_capacity(n);
    for _ in 0..n {
        weights.push(get_varint(buf, pos)?);
    }
    let read_u32s = |count: usize, pos: &mut usize| -> Result<Vec<u32>, TreeIoError> {
        let mut v = Vec::with_capacity(count);
        for _ in 0..count {
            v.push(get_u32(buf, pos)?);
        }
        Ok(v)
    };
    let lvc = read_u32s(n, pos)?;
    let lru_prev = read_u32s(n, pos)?;
    let lru_next = read_u32s(n, pos)?;
    let mut children = Vec::with_capacity(n);
    let mut total_kids = 0usize;
    for _ in 0..n {
        let k = get_varint(buf, pos)? as usize;
        total_kids += k;
        // Each live non-root node is someone's child exactly once.
        if k >= n || total_kids >= n {
            return Err(TreeIoError::Corrupt("child count exceeds node count"));
        }
        children.push(read_u32s(k, pos)?);
    }
    let free_len = get_varint(buf, pos)? as usize;
    if free_len >= n {
        return Err(TreeIoError::Corrupt("free list longer than arena"));
    }
    let free = read_u32s(free_len, pos)?;
    if *pos != buf.len() {
        return Err(TreeIoError::Corrupt("trailing payload bytes"));
    }
    Ok(RawTree {
        node_limit,
        overflow,
        cursor,
        fresh_substring: fresh == 1,
        lru_head,
        lru_tail,
        stats,
        blocks,
        weights,
        lvc,
        lru_prev,
        lru_next,
        children,
        free,
    })
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

fn fingerprint(payload: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.bytes(payload);
    h.finish()
}

impl PrefetchTree {
    /// Write a `pftree-snap/v1` snapshot of the complete training state.
    /// The restored tree continues bit-identically (see module docs).
    pub fn write_snapshot<W: Write>(&self, w: &mut W) -> Result<SnapshotInfo, TreeIoError> {
        let payload = encode_payload(&self.to_raw());
        let coded = huffman_encode(&payload).filter(|c| c.len() < payload.len());
        let (codec, body): (u16, &[u8]) = match &coded {
            Some(c) => (CODEC_HUFFMAN, c),
            None => (CODEC_RAW, &payload),
        };
        let mut header = Vec::with_capacity(24);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&codec.to_le_bytes());
        header.extend_from_slice(&fingerprint(&payload).to_le_bytes());
        header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        w.write_all(&header)?;
        w.write_all(body)?;
        w.flush()?;
        Ok(SnapshotInfo {
            payload_bytes: payload.len(),
            encoded_bytes: 24 + body.len(),
            entropy_coded: codec == CODEC_HUFFMAN,
        })
    }

    /// Read a snapshot written by [`PrefetchTree::write_snapshot`],
    /// validating the header, fingerprint, and every structural invariant.
    pub fn read_snapshot<R: Read>(r: &mut R) -> Result<PrefetchTree, TreeIoError> {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        if buf.len() < 24 || buf[..4] != MAGIC {
            return Err(TreeIoError::BadHeader);
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != VERSION {
            return Err(TreeIoError::UnsupportedVersion(version));
        }
        let codec = u16::from_le_bytes([buf[6], buf[7]]);
        let want_print = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
        let payload_len = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
        let body = &buf[24..];
        let payload: Vec<u8> = match codec {
            CODEC_RAW => {
                if body.len() as u64 != payload_len {
                    return Err(TreeIoError::Corrupt("raw body length mismatch"));
                }
                body.to_vec()
            }
            CODEC_HUFFMAN => {
                // Each payload byte needs ≥1 coded bit: bounds allocation.
                if payload_len > (body.len().saturating_sub(256) as u64).saturating_mul(8) {
                    return Err(TreeIoError::Corrupt("implausible payload length"));
                }
                huffman_decode(body, payload_len as usize)?
            }
            _ => return Err(TreeIoError::Corrupt("unknown codec")),
        };
        let got_print = fingerprint(&payload);
        if got_print != want_print {
            return Err(TreeIoError::FingerprintMismatch {
                expected: want_print,
                actual: got_print,
            });
        }
        let raw = decode_payload(&payload)?;
        PrefetchTree::from_raw(raw).map_err(TreeIoError::Corrupt)
    }

    /// Snapshot to a file (atomic: tmp + fsync + rename via
    /// [`prefetch_wal::atomic::replace_file`], the write-then-rename
    /// discipline shared with the checkpoint journal, so a crash mid-write
    /// never leaves a torn snapshot under the final name).
    pub fn save_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<SnapshotInfo, TreeIoError> {
        let path = path.as_ref();
        let tmp = path.with_extension("pftree.tmp");
        let mut buf = Vec::new();
        let info = self.write_snapshot(&mut buf)?;
        prefetch_wal::atomic::replace_file(&tmp, path, &buf)?;
        Ok(info)
    }

    /// Load a snapshot file written by [`PrefetchTree::save_snapshot`].
    pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<PrefetchTree, TreeIoError> {
        let mut f = std::fs::File::open(path)?;
        Self::read_snapshot(&mut f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::OverflowPolicy;
    use prefetch_trace::BlockId;

    fn snap_bytes(t: &PrefetchTree) -> Vec<u8> {
        let mut buf = Vec::new();
        t.write_snapshot(&mut buf).unwrap();
        buf
    }

    fn trained(accesses: usize, blocks: u64, seed: u64) -> PrefetchTree {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut t = PrefetchTree::new();
        for _ in 0..accesses {
            t.record_access(BlockId(rng.gen_range(0..blocks)));
        }
        t
    }

    #[test]
    fn round_trip_is_bit_identical() {
        for t in [
            trained(5_000, 40, 7),
            trained(200, 1000, 8), // mostly novel blocks
            PrefetchTree::new(),   // empty tree
        ] {
            let bytes = snap_bytes(&t);
            let back = PrefetchTree::read_snapshot(&mut &bytes[..]).unwrap();
            back.check_invariants();
            // Snapshot of the restored tree is byte-identical: node ids,
            // LRU order, cursor, free list and stats all survived.
            assert_eq!(snap_bytes(&back), bytes);
            assert_eq!(back.node_count(), t.node_count());
            assert_eq!(back.stats(), t.stats());
            assert_eq!(back.cursor(), t.cursor());
        }
    }

    #[test]
    fn continued_training_is_bit_identical() {
        use rand::{Rng, SeedableRng};
        for (limit, overflow) in [
            (usize::MAX, OverflowPolicy::Evict),
            (64, OverflowPolicy::Evict),
            (64, OverflowPolicy::Freeze),
        ] {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
            let stream: Vec<u64> = (0..4_000).map(|_| rng.gen_range(0..50)).collect();
            let mut uninterrupted = PrefetchTree::with_node_budget(limit, overflow);
            let mut snapped = PrefetchTree::with_node_budget(limit, overflow);
            for &b in &stream[..2_000] {
                uninterrupted.record_access(BlockId(b));
                snapped.record_access(BlockId(b));
            }
            // Snapshot → restore mid-stream.
            let bytes = snap_bytes(&snapped);
            let mut restored = PrefetchTree::read_snapshot(&mut &bytes[..]).unwrap();
            for &b in &stream[2_000..] {
                let a = uninterrupted.record_access(BlockId(b));
                let r = restored.record_access(BlockId(b));
                assert_eq!(a, r, "outcomes diverged (limit {limit}, {overflow:?})");
            }
            assert_eq!(uninterrupted.stats(), restored.stats());
            assert_eq!(snap_bytes(&uninterrupted), snap_bytes(&restored));
        }
    }

    #[test]
    fn entropy_coding_pays_on_real_trees_and_is_skipped_on_tiny_ones() {
        let big = trained(200_000, 60, 3);
        let mut buf = Vec::new();
        let info = big.write_snapshot(&mut buf).unwrap();
        assert!(info.entropy_coded, "a large low-entropy tree should compress");
        assert!(info.encoded_bytes < info.payload_bytes, "compression must pay");

        let tiny = trained(4, 4, 1);
        let mut buf = Vec::new();
        let info = tiny.write_snapshot(&mut buf).unwrap();
        assert!(info.encoded_bytes <= info.payload_bytes + 24, "never worse than raw plus header");
    }

    #[test]
    fn version_negotiation_rejects_unknown_versions() {
        let t = trained(100, 10, 2);
        let mut bytes = snap_bytes(&t);
        bytes[4] = 9; // version 9
        match PrefetchTree::read_snapshot(&mut &bytes[..]) {
            Err(TreeIoError::UnsupportedVersion(9)) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_catches_payload_tampering() {
        let t = trained(100, 10, 2);
        let mut bytes = snap_bytes(&t);
        // Find a byte past the header whose flip is caught by the
        // fingerprint (not merely by the entropy decoder).
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(PrefetchTree::read_snapshot(&mut &bytes[..]).is_err());
    }

    #[test]
    fn truncation_and_garbage_error_not_panic() {
        let t = trained(2_000, 30, 4);
        let bytes = snap_bytes(&t);
        for cut in 0..bytes.len().min(64) {
            let shorter = &bytes[..cut];
            assert!(PrefetchTree::read_snapshot(&mut &shorter[..]).is_err(), "cut {cut}");
        }
        assert!(PrefetchTree::read_snapshot(&mut &b"PFSNnonsense"[..]).is_err());
        assert!(PrefetchTree::read_snapshot(&mut &[][..]).is_err());
    }

    #[test]
    fn save_and_load_files() {
        let dir = std::env::temp_dir().join("pftree-snap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pftree");
        let t = trained(3_000, 25, 6);
        t.save_snapshot(&path).unwrap();
        let back = PrefetchTree::load_snapshot(&path).unwrap();
        assert_eq!(snap_bytes(&back), snap_bytes(&t));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_preserves_eviction_state() {
        // Under a node limit the free list and LRU order steer future
        // evictions; a snapshot taken mid-churn must preserve them.
        let mut t = PrefetchTree::with_node_limit(16);
        for b in 0..500u64 {
            t.record_access(BlockId(b % 37));
        }
        let bytes = snap_bytes(&t);
        let mut back = PrefetchTree::read_snapshot(&mut &bytes[..]).unwrap();
        for b in 500..1_000u64 {
            let a = t.record_access(BlockId(b % 37));
            let r = back.record_access(BlockId(b % 37));
            assert_eq!(a, r);
        }
        assert_eq!(t.stats(), back.stats());
        assert_eq!(snap_bytes(&t), snap_bytes(&back));
    }
}
