//! Corruption robustness: any byte-level damage to a serialized tree —
//! truncation, bit flips, random byte rewrites — must surface as a typed
//! `TreeIoError`, never a panic (`read_snapshot`, `pftree-snap/v1`). When
//! a mutation happens to still parse, the decoded tree must satisfy every
//! structural invariant: the reader admits nothing it cannot vouch for.

use prefetch_trace::BlockId;
use prefetch_tree::PrefetchTree;
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

    /// Payload damage behind an intact header must be caught by the
    /// FNV-1a fingerprint — a flipped payload byte can never restore
    /// silently.
    #[test]
    fn snapshot_payload_flips_are_always_detected(
        blocks in blocks(),
        pos in 0usize..1 << 20,
        bit in 0u8..8,
    ) {
        let mut buf = snap_bytes(&trained(&blocks));
        // Header: magic(4) + version(2) + codec(2) + fingerprint(8) + len(8).
        const HEADER: usize = 24;
        prop_assert!(buf.len() > HEADER, "snapshots always carry a payload");
        let at = HEADER + pos % (buf.len() - HEADER);
        buf[at] ^= 1 << bit;
        prop_assert!(PrefetchTree::read_snapshot(&mut &buf[..]).is_err());
    }
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
