//! Multi-thread determinism: a sweep run on N worker threads must be
//! bit-identical to the sequential run — per-cell metrics, checkpoint
//! journal bytes, cell fingerprints, and summary counters — including
//! when a cell panics or is cut off by the deadline guard (DESIGN.md
//! §10).
//!
//! `prefetch_pool::set_threads` is process-global, so every test that
//! moves it holds [`KNOB`] for its whole run and restores the default
//! (auto) on drop. Each file under `tests/` is its own process, so the
//! mutex only needs to cover this binary.

use predictive_prefetch::prelude::*;
use predictive_prefetch::sim::checkpoint::JOURNAL_FILE;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

static KNOB: Mutex<()> = Mutex::new(());

/// Hold the knob, pin the pool to `n` threads, restore auto on drop.
struct Threads(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Threads {
    fn pinned(n: usize) -> Self {
        let guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        prefetch_pool::set_threads(n);
        Threads(guard)
    }

    fn repin(&self, n: usize) {
        prefetch_pool::set_threads(n);
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        prefetch_pool::set_threads(0);
    }
}

/// Fresh scratch directory under the system temp dir; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(prefix: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("pfsim-parallel-{prefix}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn journal_bytes(&self) -> Vec<u8> {
        std::fs::read(self.0.join(JOURNAL_FILE)).expect("journal written")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn checkpointed(dir: &PathBuf, max_attempts: u32) -> HarnessOpts {
    HarnessOpts { max_attempts, ..HarnessOpts::checkpointed(dir) }
}

/// Statuses must agree across schedules, including failure payloads.
fn assert_same_status(a: &CellStatus, b: &CellStatus, cell: usize) {
    match (a, b) {
        (CellStatus::Ok(x), CellStatus::Ok(y)) => {
            assert_eq!(x.metrics, y.metrics, "cell {cell}: metrics must be bit-identical");
        }
        (CellStatus::Failed { error: x }, CellStatus::Failed { error: y }) => {
            assert_eq!(x.to_string(), y.to_string(), "cell {cell}: failure must match");
        }
        (CellStatus::TimedOut { limit_ms: x }, CellStatus::TimedOut { limit_ms: y }) => {
            assert_eq!(x, y, "cell {cell}: deadline must match");
        }
        (x, y) => panic!("cell {cell}: status diverged across thread counts: {x:?} vs {y:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline contract: the same checkpointed grid — healthy cells
    /// plus one that panics — run sequentially and on N threads produces
    /// identical per-cell results, identical journal bytes, identical
    /// cell fingerprints, and identical summary counters.
    #[test]
    fn n_thread_sweep_is_bit_identical_to_sequential(
        seed in 0u64..500,
        refs in 600usize..1500,
        threads in 2usize..6,
    ) {
        let traces: Arc<[Trace]> = Arc::new([
            TraceKind::Cad.generate(refs, seed),
            TraceKind::Snake.generate(refs, seed.wrapping_add(1)),
        ]);
        let mut cells = Vec::new();
        for ti in 0..traces.len() {
            for &cache in &[64usize, 256] {
                for p in [PolicySpec::NoPrefetch, PolicySpec::Tree] {
                    cells.push((ti, SimConfig::new(cache, p)));
                }
            }
        }
        // A poisoned cell among healthy siblings: isolation must not
        // depend on the schedule.
        cells.insert(3, (0, SimConfig::new(64, PolicySpec::PanicProbe { after: 40 })));

        let knob = Threads::pinned(1);
        let seq_dir = Scratch::new("seq");
        let seq_opts = checkpointed(&seq_dir.0, 1);
        let seq = run_cells_checkpointed(&traces, &cells, &seq_opts).unwrap();

        knob.repin(threads);
        let par_dir = Scratch::new("par");
        let par_opts = checkpointed(&par_dir.0, 1);
        let par = run_cells_checkpointed(&traces, &cells, &par_opts).unwrap();

        prop_assert_eq!(seq.cells.len(), par.cells.len());
        for (i, (a, b)) in seq.cells.iter().zip(&par.cells).enumerate() {
            prop_assert_eq!(a.trace_index, b.trace_index);
            prop_assert_eq!(&a.config, &b.config);
            assert_same_status(&a.status, &b.status, i);
            prop_assert_eq!(
                cell_fingerprint(&traces[a.trace_index], &a.config),
                cell_fingerprint(&traces[b.trace_index], &b.config)
            );
        }
        // The journal writes its records in cell-fingerprint order, so
        // the file bytes are schedule-independent.
        prop_assert_eq!(seq_dir.journal_bytes(), par_dir.journal_bytes());
        prop_assert_eq!(seq_opts.log.summary(), par_opts.log.summary());
    }
}

/// A cell that trips the cooperative deadline guard must be reported
/// `TimedOut` on every schedule while its short siblings complete with
/// bit-identical metrics. With a zero deadline the guard fires at its
/// first clock check (every 4096 events), so a short trace (< 4096
/// events) always completes and a long one always times out.
#[test]
fn deadline_guard_cell_times_out_identically_across_thread_counts() {
    let traces: Arc<[Trace]> =
        Arc::new([TraceKind::Cad.generate(200, 11), TraceKind::Cad.generate(20_000, 11)]);
    let cells = vec![
        (0, SimConfig::new(64, PolicySpec::Tree)),
        (1, SimConfig::new(64, PolicySpec::Tree)),
        (0, SimConfig::new(256, PolicySpec::NoPrefetch)),
    ];

    let knob = Threads::pinned(1);
    let run_with = |dir: &Scratch| {
        let opts = HarnessOpts { deadline_ms: Some(0), ..checkpointed(&dir.0, 1) };
        let run = run_cells_checkpointed(&traces, &cells, &opts).unwrap();
        (run, opts.log.summary())
    };

    let seq_dir = Scratch::new("deadline-seq");
    let (seq, seq_summary) = run_with(&seq_dir);
    knob.repin(4);
    let par_dir = Scratch::new("deadline-par");
    let (par, par_summary) = run_with(&par_dir);

    assert!(matches!(seq.cells[1].status, CellStatus::TimedOut { limit_ms: 0 }));
    assert!(seq.cells[0].result().is_some() && seq.cells[2].result().is_some());
    for (i, (a, b)) in seq.cells.iter().zip(&par.cells).enumerate() {
        assert_same_status(&a.status, &b.status, i);
    }
    assert_eq!(seq_summary, par_summary);
    assert_eq!(seq_summary.timed_out, 1);
    assert_eq!(seq_dir.journal_bytes(), par_dir.journal_bytes());
}

/// Experiment-level check: a full report (the figure pipeline that
/// `figures` renders to CSV) has byte-identical CSV on 1 and 4 threads.
#[test]
fn experiment_csv_bytes_match_across_thread_counts() {
    let opts = ExperimentOpts {
        refs: 2_000,
        seed: 42,
        cache_sizes: vec![64, 256],
        ..ExperimentOpts::default()
    };
    let traces = TraceSet::generate(&opts);

    let knob = Threads::pinned(1);
    let csv_at = |n: usize| -> Vec<String> {
        knob.repin(n);
        run_experiment("fig6", &traces, &opts).iter().map(|r| r.to_csv()).collect()
    };

    let sequential = csv_at(1);
    assert!(!sequential.is_empty());
    assert_eq!(csv_at(4), sequential, "fig6 CSV must be byte-identical on 4 threads");
}
