//! Shared pieces of prefetch-tree persistence and inspection: the typed
//! [`TreeIoError`] and varint helpers the `pftree-snap/v2` payload
//! ([`crate::snap`]) is built on, and Graphviz export ([`to_dot`]) for
//! inspecting what the tree learned.

use crate::node::NodeId;
use crate::tree::PrefetchTree;
use std::fmt::Write as _;

/// Errors from tree snapshot I/O.
#[derive(Debug)]
pub enum TreeIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The image did not scan clean, is not a snapshot, or its payload
    /// ended early or contained invalid structure.
    Corrupt(&'static str),
}

impl std::fmt::Display for TreeIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeIoError::Io(e) => write!(f, "tree i/o error: {e}"),
            TreeIoError::Corrupt(what) => write!(f, "corrupt tree snapshot: {what}"),
        }
    }
}

impl std::error::Error for TreeIoError {}

impl From<std::io::Error> for TreeIoError {
    fn from(e: std::io::Error) -> Self {
        TreeIoError::Io(e)
    }
}

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, TreeIoError> {
    let mut v: u64 = 0;
    for shift in (0..70).step_by(7) {
        let byte = *buf.get(*pos).ok_or(TreeIoError::Corrupt("truncated varint"))?;
        *pos += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(TreeIoError::Corrupt("oversized varint"))
}

/// Render the subtree below `anchor` (up to `max_depth` levels and
/// `max_nodes` nodes) as Graphviz dot, labelling edges with conditional
/// probabilities.
pub fn to_dot(tree: &PrefetchTree, anchor: NodeId, max_depth: u32, max_nodes: usize) -> String {
    let mut out = String::from("digraph prefetch_tree {\n  rankdir=LR;\n  node [shape=box];\n");
    let label = |n: NodeId| match tree.block(n) {
        Some(b) => format!("b{} (w={})", b.0, tree.weight(n)),
        None => format!("root (w={})", tree.weight(n)),
    };
    let _ = writeln!(out, "  n{} [label=\"{}\"];", anchor.index(), label(anchor));
    let mut queue = std::collections::VecDeque::from([(anchor, 0u32)]);
    let mut emitted = 1usize;
    while let Some((n, depth)) = queue.pop_front() {
        if depth >= max_depth {
            continue;
        }
        for c in tree.children(n) {
            if emitted >= max_nodes {
                let _ = writeln!(out, "  // truncated at {max_nodes} nodes");
                out.push_str("}\n");
                return out;
            }
            emitted += 1;
            let _ = writeln!(out, "  n{} [label=\"{}\"];", c.index(), label(c));
            let _ = writeln!(
                out,
                "  n{} -> n{} [label=\"{:.2}\"];",
                n.index(),
                c.index(),
                tree.child_probability(n, c)
            );
            queue.push_back((c, depth + 1));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefetch_trace::BlockId;

    fn trained() -> PrefetchTree {
        let mut t = PrefetchTree::new();
        for b in [1u64, 1, 3, 1, 2, 1, 2, 1, 1, 2, 2, 2] {
            t.record_access(BlockId(b));
        }
        t
    }

    #[test]
    fn dot_export_contains_nodes_and_probabilities() {
        let t = trained();
        let dot = to_dot(&t, t.root(), 3, 100);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("root (w=6)"));
        assert!(dot.contains("b1 (w=5)"));
        assert!(dot.contains("0.83")); // p(a|root) = 5/6
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn dot_export_truncates() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let mut t = PrefetchTree::new();
        for _ in 0..5000 {
            t.record_access(BlockId(rng.gen_range(0..500)));
        }
        let dot = to_dot(&t, t.root(), 4, 20);
        assert!(dot.contains("truncated"));
    }
}
