//! Snapshot extension: `pftree-snap/v2` measurements per trace — exact
//! arena bytes/node against the paper's 40-byte estimate, the snapshot's
//! size on disk, and a split-run check that train → snapshot → restore →
//! continue reproduces the uninterrupted run's advice and final tree state
//! bit-for-bit.
//!
//! A snapshot is the tree's varint state stream framed as a PFWL record
//! image; there is no entropy coder. The tree is an LZ78 parse, so its
//! state is already an LZ match encoding of the trace, and the entropy
//! coder the `v1` format stacked on top saved about a quarter of the bytes
//! at more than twice the cost of writing them (EXPERIMENTS.md §snapshot).
//!
//! With [`ExperimentOpts::save_tree`] the trained trees are persisted as
//! `<dir>/<trace>.pftree`; with [`ExperimentOpts::load_tree`] training
//! warm-starts from those files instead of an empty tree (the two flags
//! compose: save one run, load the next, and the tree keeps growing).

use crate::experiments::{ExperimentOpts, TraceSet};
use crate::report::{f3, Report};
use prefetch_trace::Trace;
use prefetch_tree::PrefetchTree;

/// The paper's per-node estimate (Section 9.3): 40 bytes.
const PAPER_BYTES_PER_NODE: usize = 40;

/// Serialize to memory, panicking only on the unreachable in-memory I/O
/// error path.
fn snap_bytes(tree: &PrefetchTree) -> Vec<u8> {
    let mut buf = Vec::new();
    tree.write_snapshot(&mut buf).expect("in-memory snapshot cannot fail");
    buf
}

/// First predicted child (highest-weight child of the prediction anchor)
/// after each access — the advice stream the resume check compares.
fn advise(tree: &PrefetchTree, last: prefetch_trace::BlockId) -> Option<u64> {
    let anchor = tree.prediction_anchor(last);
    tree.children(anchor).next().and_then(|c| tree.block(c)).map(|b| b.0)
}

/// Train `tree` over `blocks`, collecting the advice stream.
fn train(tree: &mut PrefetchTree, blocks: &[prefetch_trace::BlockId]) -> Vec<Option<u64>> {
    let mut advice = Vec::with_capacity(blocks.len());
    for &b in blocks {
        tree.record_access(b);
        advice.push(advise(tree, b));
    }
    advice
}

/// Train on the first half, snapshot, restore, continue on the second
/// half; true iff the advice stream over the second half *and* the final
/// serialized state are identical to the uninterrupted run's.
fn resume_is_identical(trace: &Trace) -> bool {
    let blocks: Vec<_> = trace.blocks().collect();
    let mid = blocks.len() / 2;

    let mut control = PrefetchTree::new();
    train(&mut control, &blocks[..mid]);
    let control_advice = train(&mut control, &blocks[mid..]);

    let mut half = PrefetchTree::new();
    train(&mut half, &blocks[..mid]);
    let bytes = snap_bytes(&half);
    let mut restored = PrefetchTree::read_snapshot(&mut bytes.as_slice())
        .expect("snapshot of a live tree must restore");
    restored.check_invariants();
    let resumed_advice = train(&mut restored, &blocks[mid..]);

    resumed_advice == control_advice && snap_bytes(&restored) == snap_bytes(&control)
}

/// Report: per trace, trained-tree size (nodes, exact bytes, bytes/node vs
/// the paper's 40 B), snapshot bytes, and the resume-identity check.
pub fn snapshot(traces: &TraceSet, opts: &ExperimentOpts) -> Report {
    let mut r = Report::new(
        "snapshot",
        "pftree-snap/v2: exact tree memory and snapshot sizes per trace",
        &[
            "trace",
            "refs",
            "nodes",
            "exact_bytes",
            "bytes_per_node",
            "paper_bytes",
            "snapshot_bytes",
            "resume_identical",
        ],
    );
    for (kind, trace) in traces.iter() {
        let mut tree = match &opts.load_tree {
            Some(dir) => {
                let path = dir.join(format!("{}.pftree", kind.name()));
                let t = PrefetchTree::load_snapshot(&path).unwrap_or_else(|e| {
                    panic!("--load-tree: cannot restore {}: {e}", path.display())
                });
                r.note(format!(
                    "{}: warm-started from {} ({} nodes)",
                    kind.name(),
                    path.display(),
                    t.node_count()
                ));
                t
            }
            None => PrefetchTree::new(),
        };
        let blocks: Vec<_> = trace.blocks().collect();
        train(&mut tree, &blocks);
        let nodes = tree.node_count();
        let exact = tree.bytes_in_use();
        let snapshot_bytes = snap_bytes(&tree).len();
        if let Some(dir) = &opts.save_tree {
            std::fs::create_dir_all(dir).expect("--save-tree: cannot create directory");
            let path = dir.join(format!("{}.pftree", kind.name()));
            tree.save_snapshot(&path)
                .unwrap_or_else(|e| panic!("--save-tree: cannot write {}: {e}", path.display()));
            r.note(format!("{}: saved to {}", kind.name(), path.display()));
        }
        r.push_row(vec![
            kind.name().to_string(),
            blocks.len().to_string(),
            nodes.to_string(),
            exact.to_string(),
            f3(exact as f64 / nodes.max(1) as f64),
            (nodes * PAPER_BYTES_PER_NODE).to_string(),
            snapshot_bytes.to_string(),
            resume_is_identical(trace).to_string(),
        ]);
    }
    r.note(
        "exact_bytes is PrefetchTree::bytes_in_use (40 B nodes + positions + child slab + the \
         wide-node index, each charged at its capacity); \
         paper_bytes is the 40 B/node estimate of Section 9.3. snapshot_bytes is the \
         pftree-snap/v2 image: the varint state stream in PFWL records, not entropy-coded.",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_report_covers_all_traces_and_resumes_identically() {
        let opts = ExperimentOpts::quick();
        let ts = TraceSet::generate(&opts);
        let r = snapshot(&ts, &opts);
        assert_eq!(r.rows.len(), 4);
        for row in &r.rows {
            assert_eq!(row.last().unwrap(), "true", "resume mismatch for {}", row[0]);
            let exact: f64 = row[3].parse().unwrap();
            let snapshot: f64 = row[6].parse().unwrap();
            assert!(exact > 0.0 && snapshot > 0.0);
        }
    }

    #[test]
    fn save_then_load_warm_starts() {
        let dir = std::env::temp_dir().join(format!("pf-snap-exp-{}", std::process::id()));
        let mut opts = ExperimentOpts::quick();
        opts.refs = 2_000;
        let ts = TraceSet::generate(&opts);
        opts.save_tree = Some(dir.clone());
        let cold = snapshot(&ts, &opts);
        opts.save_tree = None;
        opts.load_tree = Some(dir.clone());
        let warm = snapshot(&ts, &opts);
        // Warm-started trees have seen the trace twice: never fewer nodes.
        for (c, w) in cold.rows.iter().zip(&warm.rows) {
            let cn: usize = c[2].parse().unwrap();
            let wn: usize = w[2].parse().unwrap();
            assert!(wn >= cn, "{}: warm {wn} < cold {cn}", c[0]);
        }
        assert!(warm.notes.iter().any(|n| n.contains("warm-started")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
