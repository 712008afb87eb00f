//! Integration tests for the resilient experiment harness: a checkpointed
//! sweep that is interrupted and relaunched must reproduce the
//! uninterrupted run bit for bit, and a cell that panics must fail alone
//! while its siblings complete.

use predictive_prefetch::prelude::*;
use predictive_prefetch::sim::checkpoint::JOURNAL_FILE;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Fresh scratch directory under the system temp dir; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(prefix: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("pfsim-harness-{prefix}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn grid(cache_sizes: &[usize]) -> Vec<SimConfig> {
    let policies = [PolicySpec::NoPrefetch, PolicySpec::Tree, PolicySpec::TreeNextLimit];
    let mut configs = Vec::new();
    for &cache in cache_sizes {
        for &p in &policies {
            configs.push(SimConfig::new(cache, p));
        }
    }
    configs
}

fn cells_of(traces: &[Trace], configs: &[SimConfig]) -> Vec<(usize, SimConfig)> {
    let mut cells = Vec::new();
    for ti in 0..traces.len() {
        for cfg in configs {
            cells.push((ti, *cfg));
        }
    }
    cells
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kill-and-resume determinism: run the first `k` cells of a grid into
    /// a checkpoint journal (the "interrupted" run), then relaunch the
    /// full grid against the same journal. The resumed grid must be
    /// bit-identical to an uninterrupted reference run, and exactly the
    /// journalled cells must be restored rather than recomputed.
    #[test]
    fn interrupted_then_resumed_grid_is_bit_identical(
        seed in 0u64..1000,
        refs in 500usize..2000,
        kill_frac in 0.0f64..1.0,
    ) {
        let scratch = Scratch::new("resume");
        let traces: Arc<[Trace]> = Arc::new([
            TraceKind::Cad.generate(refs, seed),
            TraceKind::Snake.generate(refs, seed.wrapping_add(1)),
        ]);
        let configs = grid(&[64, 256]);
        let cells = cells_of(&traces, &configs);
        let k = ((cells.len() as f64) * kill_frac) as usize;

        // Reference: one uninterrupted, uncheckpointed run.
        let reference = run_cells_checkpointed(&traces, &cells, &HarnessOpts::default())
            .unwrap()
            .completed_cells();
        prop_assert_eq!(reference.len(), cells.len());

        // "Interrupted" run: only the first k cells reach the journal.
        let partial = run_cells_checkpointed(
            &traces,
            &cells[..k],
            &HarnessOpts::checkpointed(&scratch.0),
        )
        .unwrap();
        prop_assert!(partial.is_complete());

        // Relaunch over the full grid with the same journal.
        let opts = HarnessOpts::checkpointed(&scratch.0);
        let resumed = run_cells_checkpointed(&traces, &cells, &opts).unwrap();
        prop_assert!(resumed.is_complete());
        prop_assert_eq!(opts.log.summary().restored, k as u64);

        let resumed_cells = resumed.completed_cells();
        prop_assert_eq!(resumed_cells.len(), reference.len());
        for (a, b) in reference.iter().zip(&resumed_cells) {
            prop_assert_eq!(a.trace_index, b.trace_index);
            prop_assert_eq!(&a.result.config, &b.result.config);
            // SimMetrics equality is field-exact (floats compared by
            // value), so this is the bit-identical check.
            prop_assert_eq!(&a.result.metrics, &b.result.metrics);
        }
    }
}

/// A panicking policy must not take the sweep down: its cell ends
/// `Failed`, every sibling completes, and a relaunch against the journal
/// restores the good cells without touching their results.
#[test]
fn panicking_cell_fails_alone_and_resume_skips_completed_siblings() {
    let scratch = Scratch::new("panic");
    let traces: Arc<[Trace]> = Arc::new([TraceKind::Cad.generate(1500, 7)]);
    let cells = vec![
        (0, SimConfig::new(64, PolicySpec::Tree)),
        (0, SimConfig::new(64, PolicySpec::PanicProbe { after: 50 })),
        (0, SimConfig::new(256, PolicySpec::Tree)),
    ];
    let opts = HarnessOpts { max_attempts: 1, ..HarnessOpts::checkpointed(&scratch.0) };
    let run = run_cells_checkpointed(&traces, &cells, &opts).unwrap();

    assert!(!run.is_complete());
    assert!(run.cells[0].result().is_some());
    assert!(run.cells[2].result().is_some());
    assert!(
        matches!(&run.cells[1].status, CellStatus::Failed { error: SweepError::Panicked { .. } }),
        "probe cell should fail with a panic, got {:?}",
        run.cells[1].status
    );
    assert_eq!(opts.log.summary().ok, 2);
    assert_eq!(opts.log.summary().failed, 1);

    // Relaunch: the two good cells restore bit-identically, the probe is
    // re-attempted (failures are never journalled) and fails again.
    let opts2 = HarnessOpts { max_attempts: 1, ..HarnessOpts::checkpointed(&scratch.0) };
    let again = run_cells_checkpointed(&traces, &cells, &opts2).unwrap();
    assert!(again.cells[0].restored && again.cells[2].restored);
    assert!(!again.cells[1].restored);
    assert!(matches!(&again.cells[1].status, CellStatus::Failed { .. }));
    for i in [0usize, 2] {
        assert_eq!(
            run.cells[i].result().unwrap().metrics,
            again.cells[i].result().unwrap().metrics,
            "restored cell {i} must be bit-identical"
        );
    }
}

/// The journal survives torn writes: cutting into the last record (the
/// strict-prefix damage a crash can leave) costs at most one cell, never
/// the whole journal, and the harness says what it dropped.
#[test]
fn torn_journal_tail_loses_at_most_one_cell() {
    let scratch = Scratch::new("torn");
    let traces: Arc<[Trace]> = Arc::new([TraceKind::Sitar.generate(1000, 3)]);
    let configs = grid(&[64]);
    let cells = cells_of(&traces, &configs);
    let opts = HarnessOpts::checkpointed(&scratch.0);
    run_cells_checkpointed(&traces, &cells, &opts).unwrap();

    // Tear the last journal record.
    let journal = scratch.0.join(JOURNAL_FILE);
    let image = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &image[..image.len() - 10]).unwrap();

    let opts2 = HarnessOpts::checkpointed(&scratch.0);
    let resumed = run_cells_checkpointed(&traces, &cells, &opts2).unwrap();
    assert!(resumed.is_complete());
    let s = opts2.log.summary();
    assert_eq!(s.restored, cells.len() as u64 - 1, "exactly the torn cell recomputes");
    assert_eq!(s.ok, 1);
    let notes = opts2.log.notes();
    assert!(notes.iter().any(|n| n.starts_with("checkpoint_torn")), "unreported: {notes:?}");
}

/// One flipped bit inside the middle record of a 3-cell journal is damage
/// no crash can produce: the record before it is restored, the flipped
/// one and everything after it re-run, the grid still matches the
/// undamaged run bit for bit, and the harness reports the corruption.
#[test]
fn flipped_bit_keeps_the_verified_prefix_and_reruns_the_rest() {
    let scratch = Scratch::new("bitflip");
    let traces: Arc<[Trace]> = Arc::new([TraceKind::Sitar.generate(1000, 3)]);
    let cells = cells_of(&traces, &grid(&[64]));
    assert_eq!(cells.len(), 3);
    let first = run_cells_checkpointed(&traces, &cells, &HarnessOpts::checkpointed(&scratch.0))
        .unwrap()
        .completed_cells();

    let journal = scratch.0.join(JOURNAL_FILE);
    let mut image = std::fs::read(&journal).unwrap();
    let middle = image.len() / 2;
    image[middle] ^= 0x10;
    std::fs::write(&journal, &image).unwrap();

    let opts = HarnessOpts::checkpointed(&scratch.0);
    let resumed = run_cells_checkpointed(&traces, &cells, &opts).unwrap();
    assert!(resumed.is_complete());
    let s = opts.log.summary();
    assert_eq!((s.restored, s.ok), (1, 2), "one verified record, two cells re-run");
    // The journal holds its records in fingerprint order, so the restored
    // cell is the one with the smallest fingerprint.
    let smallest = (0..cells.len())
        .min_by_key(|&i| cell_fingerprint(&traces[cells[i].0], &cells[i].1))
        .unwrap();
    assert!(resumed.cells[smallest].restored);
    for (a, b) in first.iter().zip(&resumed.completed_cells()) {
        assert_eq!(a.result.metrics, b.result.metrics);
    }
    let notes = opts.log.notes();
    assert!(notes.iter().any(|n| n.starts_with("checkpoint_corrupt")), "unreported: {notes:?}");

    // The re-run rewrote the whole file: a third launch restores all three.
    let opts = HarnessOpts::checkpointed(&scratch.0);
    run_cells_checkpointed(&traces, &cells, &opts).unwrap();
    assert_eq!(opts.log.summary().restored, 3);
}
