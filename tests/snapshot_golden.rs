//! Golden-snapshot compatibility: `tests/golden/cad-10k.pftree` is a
//! checked-in `pftree-snap/v1` file (CAD trace, 10 k refs, `tree`
//! policy). Every future reader must keep restoring it bit-exactly —
//! if the format evolves, bump the version and add a new fixture
//! instead of regenerating this one. The CI `snapshot-compat` job
//! additionally replays a warm-started `pfsim` run against the
//! checked-in advice baseline (`tests/golden/snapshot-compat.txt`).

use prefetch_tree::PrefetchTree;

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cad-10k.pftree")
}

#[test]
fn golden_snapshot_restores_with_pinned_state() {
    let tree = PrefetchTree::load_snapshot(fixture_path()).expect("golden fixture must restore");
    tree.check_invariants();
    // Pinned at fixture-creation time; a mismatch means the reader's
    // interpretation of v1 drifted, which is a compatibility break.
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

/// FNV-1a of `write_snapshot` after 10 k refs (seed 42), computed at the
/// commit before the array-of-structs arena (PR 23). Snapshot bytes are a
/// pure function of the access history, not of the arena layout: the
/// evicting rows also pin what freed slots hold and the free-list order.
#[test]
fn snapshot_bytes_do_not_depend_on_the_arena_layout() {
    use prefetch_trace::synth::TraceKind;
    const PINNED: [(TraceKind, usize, u64); 4] = [
        (TraceKind::Cad, usize::MAX, 0x101f_930d_5f44_259d),
        (TraceKind::Cello, usize::MAX, 0x5d46_7055_3c30_7509),
        (TraceKind::Cad, 512, 0x2a36_672d_5e37_594b),
        (TraceKind::Cello, 512, 0x4bdb_76d3_cc58_7a91),
    ];
    for (kind, limit, pinned) in PINNED {
        let mut tree = PrefetchTree::with_node_limit(limit);
        for b in kind.generate(10_000, 42).blocks() {
            tree.record_access(b);
        }
        let mut bytes = Vec::new();
        tree.write_snapshot(&mut bytes).unwrap();
        let mut fnv = prefetch_hash::Fnv64::new();
        fnv.bytes(&bytes);
        assert_eq!(
            fnv.finish(),
            pinned,
            "{kind:?} limit {limit}: {:#018x} over {} bytes",
            fnv.finish(),
            bytes.len()
        );
    }
}
