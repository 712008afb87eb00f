//! Train a prefetch tree, snapshot it to disk, reload it, and keep
//! predicting — plus a Graphviz dump of what it learned. This is the
//! "warm start" workflow an OS would use across reboots (the paper's
//! Section 9.3 shows ~1.25 MB of tree captures a workload).
//!
//! ```text
//! cargo run --release --example tree_snapshot [out_dir]
//! ```

use predictive_prefetch::prelude::*;
use predictive_prefetch::tree::to_dot;

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("prefetch-tree-snapshot"));
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    // Day 1: train on the CAD workload.
    let day1 = TraceKind::Cad.generate(150_000, 5);
    let mut tree = PrefetchTree::new();
    for b in day1.blocks() {
        tree.record_access(b);
    }
    println!(
        "day 1: trained on {} refs → {} nodes (~{} KB), {:.1}% predictable",
        day1.len(),
        tree.node_count(),
        tree.approx_memory_bytes() / 1024,
        100.0 * tree.stats().prediction_accuracy(),
    );

    // Snapshot: a `pftree-snap/v2` file, the tree's varint state framed in
    // the same fingerprinted PFWL records as the write-ahead log.
    let snap_path = out_dir.join("cad.pftree");
    let bytes = tree.save_snapshot(&snap_path).expect("write snapshot");
    println!(
        "snapshot: {} ({} KB on disk — {:.1} bytes/node)",
        snap_path.display(),
        bytes / 1024,
        bytes as f64 / tree.node_count() as f64,
    );

    // Graphviz of the hottest paths under the root.
    let dot_path = out_dir.join("cad-top.dot");
    let dot = to_dot(&tree, tree.root(), 3, 40);
    std::fs::write(&dot_path, &dot).expect("write dot");
    println!("graphviz: {} (render with `dot -Tsvg`)", dot_path.display());

    // Day 2: a new process reloads the snapshot and is predictive from
    // the first access — no cold start.
    let mut warm = PrefetchTree::load_snapshot(&snap_path).expect("read snapshot");
    let mut cold = PrefetchTree::new();
    let day2 = TraceKind::Cad.generate(20_000, 6); // same design, new session
    let (mut warm_hits, mut cold_hits) = (0u64, 0u64);
    for b in day2.blocks() {
        if warm.record_access(b).predictable {
            warm_hits += 1;
        }
        if cold.record_access(b).predictable {
            cold_hits += 1;
        }
    }
    println!(
        "day 2 ({} refs): warm-started tree predicts {:.1}% vs cold start {:.1}%",
        day2.len(),
        100.0 * warm_hits as f64 / day2.len() as f64,
        100.0 * cold_hits as f64 / day2.len() as f64,
    );
}
