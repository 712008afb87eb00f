//! Reproductions of every table and figure in the paper's evaluation
//! (Section 9). Each experiment returns one or more [`Report`]s; the
//! `figures` binary in `prefetch-bench` renders them to CSV/markdown.
//!
//! The mapping from experiment id to paper artifact is in DESIGN.md §4;
//! expected-vs-measured values are recorded in EXPERIMENTS.md.

pub mod ablation;
pub mod disks;
pub mod headline;
pub mod memory;
pub mod oracle;
pub mod parametric;
pub mod resilience;
pub mod snapshot;
pub mod tables;
pub mod tcpu;
pub mod tree_behavior;

use crate::config::SimConfig;
use crate::harness::{run_cells_checkpointed, HarnessOpts};
use crate::report::Report;
use crate::sweep::SweepCell;
use prefetch_trace::synth::TraceKind;
use prefetch_trace::Trace;
use std::sync::Arc;

/// Options shared by all experiments.
#[derive(Clone, Debug)]
pub struct ExperimentOpts {
    /// References per synthetic trace. The paper's traces range from 147 k
    /// (CAD) to 3.9 M; the default 400 k keeps a full sweep to minutes.
    /// CAD is capped at 150 k to match its original length.
    pub refs: usize,
    /// Seed for the synthetic generators.
    pub seed: u64,
    /// Cache sizes (blocks) to sweep.
    pub cache_sizes: Vec<usize>,
    /// Resilient-harness knobs: checkpointing, deadlines, retries, and the
    /// shared outcome log. Cloning shares the log, so every experiment of
    /// one invocation reports into the same tally.
    pub harness: HarnessOpts,
    /// `figures --save-tree DIR`: the `snapshot` experiment persists each
    /// trained tree as `DIR/<trace>.pftree`.
    pub save_tree: Option<std::path::PathBuf>,
    /// `figures --load-tree DIR`: the `snapshot` experiment warm-starts
    /// training from `DIR/<trace>.pftree` instead of an empty tree.
    pub load_tree: Option<std::path::PathBuf>,
}

impl Default for ExperimentOpts {
    fn default() -> Self {
        ExperimentOpts {
            refs: 400_000,
            seed: 1999,
            cache_sizes: crate::sweep::PAPER_CACHE_SIZES.to_vec(),
            harness: HarnessOpts::default(),
            save_tree: None,
            load_tree: None,
        }
    }
}

impl ExperimentOpts {
    /// A scaled-down configuration for tests and smoke runs.
    pub fn quick() -> Self {
        ExperimentOpts {
            refs: 8_000,
            seed: 1999,
            cache_sizes: vec![64, 256, 1024],
            harness: HarnessOpts::default(),
            save_tree: None,
            load_tree: None,
        }
    }

    /// References for a given trace (CAD is capped at its original
    /// length).
    pub fn refs_for(&self, kind: TraceKind) -> usize {
        match kind {
            TraceKind::Cad => self.refs.min(150_000),
            _ => self.refs,
        }
    }

    /// Run a cell list through the resilient harness with this
    /// experiment's options. Cells that fail, time out, or are skipped are
    /// simply absent from the output (experiments render them as `NA`);
    /// the details land in [`HarnessOpts::log`]. The only hard error — a
    /// malformed cell list — is an experiment bug, so it panics here.
    pub fn run_cells(&self, traces: &Arc<[Trace]>, cells: &[(usize, SimConfig)]) -> Vec<SweepCell> {
        run_cells_checkpointed(traces, cells, &self.harness)
            .expect("experiment built an invalid cell list")
            .completed_cells()
    }
}

/// The four synthetic traces, generated once and shared by experiments.
pub struct TraceSet {
    /// Traces in [`TraceKind::ALL`] order, shared with the sweep's pool
    /// helpers without a copy.
    pub traces: Arc<[Trace]>,
}

impl TraceSet {
    /// Generate the suite per `opts`.
    pub fn generate(opts: &ExperimentOpts) -> Self {
        let traces =
            TraceKind::ALL.iter().map(|&k| k.generate(opts.refs_for(k), opts.seed)).collect();
        TraceSet { traces }
    }

    /// Trace of the given kind.
    pub fn get(&self, kind: TraceKind) -> &Trace {
        let idx = TraceKind::ALL.iter().position(|&k| k == kind).expect("known kind");
        &self.traces[idx]
    }

    /// (kind, trace) pairs in Table 1 order.
    pub fn iter(&self) -> impl Iterator<Item = (TraceKind, &Trace)> {
        TraceKind::ALL.iter().copied().zip(self.traces.iter())
    }
}

/// All experiment ids, in paper order.
pub const ALL_IDS: [&str; 16] = [
    "table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig16", "fig17", "table2", "table3", "table4",
];

/// Run one experiment by id.
///
/// # Panics
/// Panics on an unknown id (see [`ALL_IDS`]).
pub fn run_experiment(id: &str, traces: &TraceSet, opts: &ExperimentOpts) -> Vec<Report> {
    match id {
        "table1" => vec![tables::table1(traces)],
        "table2" => vec![tables::table2(traces)],
        "table3" => vec![tables::table3(traces)],
        "table4" => vec![parametric::table4(traces, opts)],
        "fig6" => headline::fig6(traces, opts),
        "fig7" | "fig8" | "fig9" | "fig10" | "fig14" | "fig16" => {
            let all = tree_behavior::reports(traces, opts);
            all.into_iter().filter(|r| r.id == id).collect()
        }
        "fig11" | "fig12" => {
            let all = tcpu::reports(traces, opts);
            all.into_iter().filter(|r| r.id == id).collect()
        }
        "fig13" => vec![memory::fig13(traces, opts)],
        "fig15" => oracle::fig15(traces, opts),
        "fig17" => parametric::fig17(traces, opts),
        "ablation" => vec![ablation::ablation(traces, opts)],
        "disks" => disks::disks(traces, opts),
        "resilience" => resilience::resilience(traces, opts),
        "snapshot" => vec![snapshot::snapshot(traces, opts)],
        other => panic!("unknown experiment id {other:?}; known: {ALL_IDS:?}"),
    }
}

/// Run every experiment, sharing the expensive sweeps.
pub fn run_all(traces: &TraceSet, opts: &ExperimentOpts) -> Vec<Report> {
    let mut out = Vec::new();
    out.push(tables::table1(traces));
    out.extend(headline::fig6(traces, opts));
    out.extend(tree_behavior::reports(traces, opts)); // fig7-10, 14, 16
    out.extend(tcpu::reports(traces, opts)); // fig11, 12
    out.push(memory::fig13(traces, opts));
    out.extend(oracle::fig15(traces, opts));
    out.extend(parametric::fig17(traces, opts));
    out.push(tables::table2(traces));
    out.push(tables::table3(traces));
    out.push(parametric::table4(traces, opts));
    out.push(ablation::ablation(traces, opts));
    out.extend(disks::disks(traces, opts));
    out.extend(resilience::resilience(traces, opts));
    // Order reports by paper artifact order.
    let rank = |id: &str| ALL_IDS.iter().position(|&x| id.starts_with(x)).unwrap_or(usize::MAX);
    out.sort_by_key(|r| rank(&r.id));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_opts_are_small() {
        let o = ExperimentOpts::quick();
        assert!(o.refs <= 10_000);
        assert!(o.cache_sizes.len() <= 4);
    }

    #[test]
    fn cad_refs_are_capped() {
        let o = ExperimentOpts::default();
        assert_eq!(o.refs_for(TraceKind::Cad), 150_000);
        assert_eq!(o.refs_for(TraceKind::Cello), 400_000);
    }

    #[test]
    fn traceset_orders_by_table1() {
        let o = ExperimentOpts { refs: 500, ..ExperimentOpts::quick() };
        let ts = TraceSet::generate(&o);
        let names: Vec<_> = ts
            .iter()
            .map(|(k, t)| {
                assert_eq!(k.name(), t.meta().name);
                t.meta().name.clone()
            })
            .collect();
        assert_eq!(names, ["cello", "snake", "cad", "sitar"]);
        assert_eq!(ts.get(TraceKind::Cad).meta().name, "cad");
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        let o = ExperimentOpts { refs: 100, ..ExperimentOpts::quick() };
        let ts = TraceSet::generate(&o);
        run_experiment("fig99", &ts, &o);
    }
}
