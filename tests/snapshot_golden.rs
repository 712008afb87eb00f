//! Golden-snapshot compatibility: `tests/golden/cad-10k.pftree` is a
//! checked-in `pftree-snap/v2` file (CAD trace, 10 k refs, `tree`
//! policy). Every future reader must keep restoring it bit-exactly —
//! if the format evolves, bump the version and say why the fixture was
//! regenerated. It was regenerated once, when `v2` replaced `v1`'s header
//! and entropy coder with PFWL framing around the same payload; the
//! warm-start baseline the CI `snapshot-compat-v2` job diffs a `pfsim`
//! run against (`tests/golden/snapshot-compat.txt`) did not move.

use prefetch_tree::PrefetchTree;

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cad-10k.pftree")
}

#[test]
fn golden_snapshot_restores_with_pinned_state() {
    let tree = PrefetchTree::load_snapshot(fixture_path()).expect("golden fixture must restore");
    tree.check_invariants();
    // Pinned at fixture-creation time; a mismatch means the reader's
    // interpretation of the format drifted, which is a compatibility break.
    assert_eq!(tree.node_count(), 7041);
    assert_eq!(tree.stats().accesses, 10_000);
    assert_eq!(tree.stats().nodes_created, 7041);
    assert_eq!(tree.node_limit(), usize::MAX);
}

#[test]
fn golden_snapshot_continues_training_deterministically() {
    use prefetch_trace::synth::TraceKind;
    let mut tree = PrefetchTree::load_snapshot(fixture_path()).unwrap();
    // Continue on a fresh CAD stream (different seed than training).
    for b in TraceKind::Cad.generate(5_000, 7).blocks() {
        tree.record_access(b);
    }
    tree.check_invariants();
    assert_eq!(tree.stats().accesses, 15_000);
    // Re-serializing the continued tree is stable across runs: snapshot
    // bytes are a pure function of the access history.
    let mut a = Vec::new();
    let mut b = Vec::new();
    tree.write_snapshot(&mut a).unwrap();
    tree.write_snapshot(&mut b).unwrap();
    assert_eq!(a, b);
}

/// FNV-1a of the snapshot *payload* (records 1…n of the image, joined)
/// after 10 k refs (seed 42). Each value is the fingerprint field the
/// `pftree-snap/v1` writer put in its header for the same history, read
/// off v1 files: the payload, and so the tree state, did not change with
/// the framing, nor with the array-of-structs arena before it. Snapshot
/// bytes are a pure function of the access history: the evicting rows
/// also pin what freed slots hold and the free-list order.
#[test]
fn snapshot_bytes_do_not_depend_on_the_arena_layout() {
    use prefetch_trace::synth::TraceKind;
    const PINNED: [(TraceKind, usize, u64); 4] = [
        (TraceKind::Cad, usize::MAX, 0xccfd_1525_b3e5_bf2a),
        (TraceKind::Cello, usize::MAX, 0x2fc6_7192_6226_1875),
        (TraceKind::Cad, 512, 0xd02e_fd27_d559_9cc4),
        (TraceKind::Cello, 512, 0x8279_b219_7903_5050),
    ];
    for (kind, limit, pinned) in PINNED {
        let mut tree = PrefetchTree::with_node_limit(limit);
        for b in kind.generate(10_000, 42).blocks() {
            tree.record_access(b);
        }
        let mut bytes = Vec::new();
        tree.write_snapshot(&mut bytes).unwrap();
        let scan = prefetch_wal::scan_bytes(&bytes);
        assert_eq!(scan.tail, prefetch_wal::Tail::Clean);
        let payload = scan.records[1..].concat();
        let mut fnv = prefetch_hash::Fnv64::new();
        fnv.bytes(&payload);
        assert_eq!(
            fnv.finish(),
            pinned,
            "{kind:?} limit {limit}: {:#018x} over a {}-byte payload",
            fnv.finish(),
            payload.len()
        );
    }
}
