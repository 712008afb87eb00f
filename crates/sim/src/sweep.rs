//! The vocabulary of a parameter sweep.
//!
//! Every figure of the paper is a sweep over (trace × policy × cache size)
//! or (trace × policy × T_cpu) cells; each cell is an independent
//! simulation, so the sweep is embarrassingly parallel. Per the HPC
//! guidance, each cell carries its own deterministic inputs — results are
//! identical regardless of thread count or schedule.
//!
//! The sweep itself is [`crate::harness::run_cells_checkpointed`] (with
//! [`crate::harness::HarnessOpts::default`], a plain parallel sweep); this
//! module holds what its callers share: the completed-cell type and the
//! paper's two swept axes.

use crate::runner::SimResult;

/// One point of a sweep: a configuration plus its result.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Index of the trace within the sweep's trace list.
    pub trace_index: usize,
    /// The run's result (carries config, trace name and metrics).
    pub result: SimResult,
}

/// The cache sizes (in blocks) the paper sweeps in its figures.
pub const PAPER_CACHE_SIZES: [usize; 9] = [64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384];

/// The `T_cpu` values (ms) of the Section 9.2.3 sweep (20-640 ms), extended
/// downward: with the printed Eq. 6 and Patterson constants, `T_stall` is
/// identically zero once `T_cpu > T_disk = 15 ms`, so the paper's own range
/// cannot vary the model — the rise-then-plateau of Figure 11 lives below
/// 15 ms (see EXPERIMENTS.md).
pub const PAPER_T_CPU_VALUES: [f64; 10] =
    [1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PolicySpec, SimConfig};
    use crate::harness::{run_cells_checkpointed, HarnessOpts, SweepError};
    use crate::runner::run_simulation;
    use prefetch_trace::synth::TraceKind;
    use prefetch_trace::Trace;
    use std::sync::Arc;

    /// The sweep with default options, as every experiment runs it.
    fn sweep(traces: &Arc<[Trace]>, cells: &[(usize, SimConfig)]) -> Vec<SweepCell> {
        run_cells_checkpointed(traces, cells, &HarnessOpts::default()).unwrap().completed_cells()
    }

    #[test]
    fn grid_preserves_order_and_matches_serial_runs() {
        let traces: Arc<[Trace]> =
            Arc::new([TraceKind::Cad.generate(2000, 1), TraceKind::Sitar.generate(2000, 1)]);
        let configs =
            [SimConfig::new(64, PolicySpec::NoPrefetch), SimConfig::new(64, PolicySpec::Tree)];
        // Order: (t0,c0), (t0,c1), (t1,c0), (t1,c1).
        let cells: Vec<(usize, SimConfig)> =
            (0..traces.len()).flat_map(|ti| configs.iter().map(move |c| (ti, *c))).collect();
        let grid = sweep(&traces, &cells);
        assert_eq!(grid.len(), 4);
        for (&(ti, config), cell) in cells.iter().zip(&grid) {
            assert_eq!(cell.trace_index, ti);
            assert_eq!(cell.result.config, config);
            // Parallel result equals serial result.
            assert_eq!(cell.result.metrics, run_simulation(&traces[ti], &config).metrics);
        }
    }

    #[test]
    fn run_cells_executes_exact_list() {
        let traces: Arc<[Trace]> = Arc::new([TraceKind::Cad.generate(1000, 2)]);
        let cells = vec![
            (0usize, SimConfig::new(32, PolicySpec::NextLimit)),
            (0usize, SimConfig::new(64, PolicySpec::NextLimit)),
        ];
        let out = sweep(&traces, &cells);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].result.config.cache_blocks, 32);
        assert_eq!(out[1].result.config.cache_blocks, 64);
    }

    #[test]
    fn cells_of_one_trace_share_the_name_allocation() {
        let traces: Arc<[Trace]> = Arc::new([TraceKind::Snake.generate(500, 4)]);
        let cells = vec![
            (0usize, SimConfig::new(32, PolicySpec::NoPrefetch)),
            (0usize, SimConfig::new(64, PolicySpec::NextLimit)),
            (0usize, SimConfig::new(128, PolicySpec::Tree)),
        ];
        let grid = sweep(&traces, &cells);
        assert!(Arc::ptr_eq(&grid[0].result.trace, &grid[1].result.trace));
        assert!(Arc::ptr_eq(&grid[0].result.trace, &grid[2].result.trace));
        assert_eq!(&*grid[0].result.trace, "snake");
    }

    #[test]
    fn bad_trace_index_is_a_typed_error() {
        let traces: Arc<[Trace]> = Arc::new([TraceKind::Cad.generate(100, 3)]);
        let cells = [(1, SimConfig::new(32, PolicySpec::NoPrefetch))];
        let err = run_cells_checkpointed(&traces, &cells, &HarnessOpts::default()).unwrap_err();
        assert_eq!(err, SweepError::BadTraceIndex { index: 1, traces: 1 });
    }
}
