//! `pftree-snap/v2`: tree snapshots as PFWL record images.
//!
//! This module persists the *complete* training state — arena arrays, the
//! free list, the parse cursor, LRU recency, statistics, and the node
//! budget — so a restored tree's future is **bit-identical** to the
//! snapshotted tree's future. That is what `pfserve --snapshot-dir`
//! warm-starts from and what lets a drained tenant resume exactly where
//! it stopped (the same guarantee the checkpoint journal gives sweeps,
//! achieved the same way: raw state, never re-derived state).
//!
//! ## On-disk format (see DESIGN.md §12.2)
//!
//! A snapshot is framed exactly like a write-ahead log or the sweep
//! journal ([`prefetch_wal::record`]):
//!
//! ```text
//! file header   "PFWL" u16(1) u16(0)                       8 bytes
//! record 0      the tag "pftree-snap/v2"
//! records 1..n  the payload, in consecutive slices of at most
//!               MAX_RECORD_LEN (1 MiB) bytes
//! ```
//!
//! Every record carries its length and the FNV-1a fingerprint of its
//! bytes, so damage is classified by [`prefetch_wal::scan_bytes`], the
//! one scanner: the reader accepts only a clean scan whose first record
//! is the tag, then decodes the concatenation of the rest.
//!
//! The payload is a varint stream of the tree's raw state. The tree *is*
//! an LZ78 parse, so the payload is already an LZ match encoding of the
//! trace it learned; it is stored as is, with no entropy coder on top.
//!
//! Restoration validates every structural invariant (see
//! [`crate::PrefetchTree`]'s `from_raw`) so corrupt or adversarial bytes
//! yield a typed [`TreeIoError`], never a panic. A payload cut short or
//! run long — a record dropped at a boundary, say — fails to decode.

use crate::io::{get_varint, put_varint, TreeIoError};
use crate::stats::TreeStats;
use crate::tree::PrefetchTree;
use prefetch_wal::record::{self, FILE_HEADER_LEN, MAX_RECORD_LEN, RECORD_HEADER_LEN};
use prefetch_wal::Tail;
use std::io::{Read, Write};
use std::path::Path;

/// Record 0 of every snapshot image: what the file is and which payload
/// grammar follows.
const TAG: &[u8] = b"pftree-snap/v2";

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

impl PrefetchTree {
    /// Write a `pftree-snap/v2` image of the complete training state and
    /// return its length in bytes. The restored tree continues
    /// bit-identically (see module docs).
    pub fn write_snapshot<W: Write>(&self, w: &mut W) -> Result<usize, TreeIoError> {
        let payload = encode_payload(&self.to_raw());
        let records = 1 + payload.len().div_ceil(MAX_RECORD_LEN);
        let mut image = Vec::with_capacity(
            FILE_HEADER_LEN + records * RECORD_HEADER_LEN + TAG.len() + payload.len(),
        );
        image.extend_from_slice(&record::file_header());
        record::push_record(&mut image, TAG);
        for slice in payload.chunks(MAX_RECORD_LEN) {
            record::push_record(&mut image, slice);
        }
        w.write_all(&image)?;
        w.flush()?;
        Ok(image.len())
    }

    /// Read a snapshot written by [`PrefetchTree::write_snapshot`]: the
    /// image must scan clean and carry the tag, and the payload must pass
    /// every structural invariant.
    pub fn read_snapshot<R: Read>(r: &mut R) -> Result<PrefetchTree, TreeIoError> {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        let scan = prefetch_wal::scan_bytes(&buf);
        match scan.tail {
            Tail::Clean => {}
            Tail::Torn { .. } => {
                return Err(TreeIoError::Corrupt("torn image: the file ends inside a record"))
            }
            Tail::Corrupt { at: 0, .. } => {
                return Err(TreeIoError::Corrupt("not a prefetch-tree snapshot (no PFWL header)"))
            }
            Tail::Corrupt { .. } => {
                return Err(TreeIoError::Corrupt("a record fails its length or fingerprint check"))
            }
        }
        match scan.records.split_first() {
            Some((tag, payload)) if tag == TAG => {
                let raw = decode_payload(&payload.concat())?;
                PrefetchTree::from_raw(raw).map_err(TreeIoError::Corrupt)
            }
            _ => Err(TreeIoError::Corrupt("not a prefetch-tree snapshot (no pftree-snap/v2 tag)")),
        }
    }

    /// Snapshot to a file and return its length in bytes. Atomic: written
    /// to `<path>.tmp`, synced and renamed over `path` by
    /// [`prefetch_wal::atomic::replace_file_auto`], the discipline the
    /// checkpoint journal uses, so a crash mid-write never leaves a torn
    /// snapshot under the final name.
    pub fn save_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<usize, TreeIoError> {
        let mut image = Vec::new();
        let bytes = self.write_snapshot(&mut image)?;
        prefetch_wal::atomic::replace_file_auto(path.as_ref(), &image)?;
        Ok(bytes)
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

    /// A tree whose payload outgrows one record is framed as several
    /// consecutive slices and restores from their concatenation.
    #[test]
    fn a_payload_over_one_record_round_trips_through_several() {
        let big = trained(120_000, 1 << 30, 5);
        let bytes = snap_bytes(&big);
        let scan = prefetch_wal::scan_bytes(&bytes);
        assert_eq!(scan.tail, Tail::Clean);
        assert_eq!(scan.records[0], TAG);
        assert!(scan.records.len() >= 3, "{} records", scan.records.len());
        assert!(scan.records[1..].iter().all(|r| r.len() <= MAX_RECORD_LEN));
        assert_eq!(scan.records[1].len(), MAX_RECORD_LEN, "slices are filled before the next");
        let back = PrefetchTree::read_snapshot(&mut &bytes[..]).unwrap();
        back.check_invariants();
        assert_eq!(snap_bytes(&back), bytes);
    }

    /// A clean PFWL image that is not a snapshot — no records, a foreign
    /// tag, the payload without its tag — is refused.
    #[test]
    fn a_pfwl_file_that_is_not_a_snapshot_is_refused() {
        let image = |records: &[&[u8]]| {
            let mut buf = record::file_header().to_vec();
            for r in records {
                record::push_record(&mut buf, r);
            }
            buf
        };
        let payload = encode_payload(&trained(100, 10, 2).to_raw());
        for bytes in
            [Vec::new(), image(&[]), image(&[b"pftree-snap/v1", &payload]), image(&[&payload])]
        {
            match PrefetchTree::read_snapshot(&mut &bytes[..]) {
                Err(TreeIoError::Corrupt(what)) => assert!(what.contains("tag"), "{what}"),
                other => panic!("expected a refused tag, got {other:?}"),
            }
        }
        let good = image(&[TAG, &payload]);
        assert!(PrefetchTree::read_snapshot(&mut &good[..]).is_ok());
    }

    #[test]
    fn fingerprint_catches_payload_tampering() {
        let t = trained(100, 10, 2);
        let mut bytes = snap_bytes(&t);
        // The last payload byte: only its record's fingerprint sees it.
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
        assert!(PrefetchTree::read_snapshot(&mut &b"PFWL\x01\0\0\0nonsense"[..]).is_err());
        assert!(PrefetchTree::read_snapshot(&mut &b"nonsense"[..]).is_err());
        assert!(PrefetchTree::read_snapshot(&mut &[][..]).is_err());
        // Whole records followed by anything else do not scan clean.
        for tail in [&b"\0"[..], b"junk", &[0; 12], &bytes[8..]] {
            let longer = [&bytes[..], tail].concat();
            assert!(PrefetchTree::read_snapshot(&mut &longer[..]).is_err(), "{} extra", tail.len());
        }
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

    /// The temp file is `<path>.tmp`, so saves to names that differ only
    /// in their extension never share one.
    #[test]
    fn save_appends_tmp_to_the_whole_name() {
        let dir = std::env::temp_dir().join(format!("pftree-snap-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("t.pftree.tmp")).unwrap();
        let t = trained(500, 20, 9);
        t.save_snapshot(dir.join("t.a")).unwrap();
        t.save_snapshot(dir.join("t.b")).unwrap();
        assert_eq!(std::fs::read(dir.join("t.a")).unwrap(), snap_bytes(&t));
        assert_eq!(std::fs::read(dir.join("t.b")).unwrap(), snap_bytes(&t));
        assert!(!dir.join("t.a.tmp").exists() && !dir.join("t.b.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
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
