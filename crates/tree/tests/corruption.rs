//! Corruption robustness: any byte-level damage to a serialized tree —
//! truncation, bit flips, random byte rewrites — must surface as a typed
//! `TreeIoError`, never a panic (`read_snapshot`, `pftree-snap/v2`). When
//! a mutation happens to still parse, the decoded tree must satisfy every
//! structural invariant: the reader admits nothing it cannot vouch for.
//! A snapshot is a PFWL record image, so one flipped bit anywhere and a
//! cut at any record boundary are always refused.

use prefetch_trace::BlockId;
use prefetch_tree::{PrefetchTree, TreeIoError};
use prefetch_wal::{FILE_HEADER_LEN, MAX_RECORD_LEN, RECORD_HEADER_LEN};
use proptest::prelude::*;

fn trained(blocks: &[u64]) -> PrefetchTree {
    let mut t = PrefetchTree::new();
    for &b in blocks {
        t.record_access(BlockId(b));
    }
    t
}

fn snap_bytes(t: &PrefetchTree) -> Vec<u8> {
    let mut buf = Vec::new();
    t.write_snapshot(&mut buf).unwrap();
    buf
}

/// Small alphabet so the tree has real structure (shared prefixes,
/// multi-child nodes) rather than a root fan.
fn blocks() -> proptest::collection::VecStrategy<core::ops::Range<u64>> {
    proptest::collection::vec(0u64..12, 1..200)
}

/// (position-seed, new-byte) pairs applied to the serialized image.
fn mutations() -> proptest::collection::VecStrategy<(core::ops::Range<usize>, core::ops::Range<u8>)>
{
    proptest::collection::vec((0usize..1 << 20, 0u8..255), 1..16)
}

fn mutate(buf: &mut [u8], muts: &[(usize, u8)]) {
    for &(pos, byte) in muts {
        let at = pos % buf.len();
        buf[at] = byte;
    }
}

proptest! {
    #[test]
    fn mutated_snapshot_errors_but_never_panics(
        blocks in blocks(),
        muts in mutations(),
    ) {
        let mut buf = snap_bytes(&trained(&blocks));
        mutate(&mut buf, &muts);
        if let Ok(t) = PrefetchTree::read_snapshot(&mut &buf[..]) {
            t.check_invariants();
        }
    }

    #[test]
    fn truncated_snapshot_errors_but_never_panics(
        blocks in blocks(),
        keep in 0usize..1 << 20,
    ) {
        let buf = snap_bytes(&trained(&blocks));
        let cut = keep % buf.len();
        if let Ok(t) = PrefetchTree::read_snapshot(&mut &buf[..cut]) {
            t.check_invariants();
        }
    }

    /// One flipped bit anywhere — file header, a record's length or
    /// fingerprint, the tag, the payload — can never restore silently: the
    /// scan calls it corrupt or torn, and the reader wants it clean.
    #[test]
    fn snapshot_bit_flips_anywhere_are_always_detected(
        blocks in blocks(),
        pos in 0usize..1 << 20,
        bit in 0u8..8,
    ) {
        let mut buf = snap_bytes(&trained(&blocks));
        let at = pos % buf.len();
        buf[at] ^= 1 << bit;
        prop_assert!(PrefetchTree::read_snapshot(&mut &buf[..]).is_err(), "flip at {}", at);
    }

    /// A cut at a record boundary leaves a clean scan of fewer records; the
    /// payload decoder still refuses what is left.
    #[test]
    fn snapshot_cut_at_a_record_boundary_is_rejected(blocks in blocks()) {
        let buf = snap_bytes(&trained(&blocks));
        for cut in record_boundaries(&buf) {
            prop_assert!(PrefetchTree::read_snapshot(&mut &buf[..cut]).is_err(), "cut at {}", cut);
        }
    }
}

/// Every offset at which a proper prefix of `image` ends on a record
/// boundary: 0, the end of the file header, and the end of each record
/// but the last.
fn record_boundaries(image: &[u8]) -> Vec<usize> {
    let mut cuts = vec![0, FILE_HEADER_LEN];
    let mut at = FILE_HEADER_LEN;
    loop {
        let len = u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize;
        at += RECORD_HEADER_LEN + len;
        if at == image.len() {
            return cuts;
        }
        cuts.push(at);
    }
}

/// The image of a tree whose payload is over 1 MiB: every access is a
/// novel block, so each one adds a node.
fn over_one_record() -> Vec<u8> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
    let mut t = PrefetchTree::new();
    for _ in 0..120_000 {
        t.record_access(BlockId(rng.gen_range(0..1u64 << 40)));
    }
    snap_bytes(&t)
}

#[test]
fn a_cut_between_payload_slices_is_rejected() {
    let buf = over_one_record();
    let cuts = record_boundaries(&buf);
    // 0, the file header, the tag, then at least one cut between slices.
    assert!(cuts.len() >= 4, "{} boundaries in {} bytes", cuts.len(), buf.len());
    assert!(buf.len() > MAX_RECORD_LEN + 2 * RECORD_HEADER_LEN);
    assert!(PrefetchTree::read_snapshot(&mut &buf[..]).is_ok());
    for cut in cuts {
        assert!(PrefetchTree::read_snapshot(&mut &buf[..cut]).is_err(), "cut at {cut}");
    }
}

/// A write-ahead log is a clean PFWL file too, but its first record is
/// not the snapshot tag: refused with a typed error.
#[test]
fn a_write_ahead_log_is_not_a_snapshot() {
    let dir = std::env::temp_dir().join(format!("pftree-corruption-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t0.wal");
    let mut log = prefetch_wal::AppendLog::create(&path).unwrap();
    for record in [&b"O cache=8 policy=tree nodes=128"[..], b"E 3", b"E 4", b"C"] {
        log.append(record).unwrap();
    }
    log.sync().unwrap();
    assert_eq!(prefetch_wal::scan(&path).unwrap().tail, prefetch_wal::Tail::Clean);
    match PrefetchTree::load_snapshot(&path) {
        Err(TreeIoError::Corrupt(what)) => assert!(what.contains("tag"), "{what}"),
        other => panic!("a log restored as a tree: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn arbitrary_garbage_is_rejected() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(41);
    for len in [0usize, 1, 6, 24, 25, 100, 4096] {
        let noise: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        assert!(
            PrefetchTree::read_snapshot(&mut &noise[..]).is_err(),
            "snapshot accepted {len}B of noise"
        );
    }
}
