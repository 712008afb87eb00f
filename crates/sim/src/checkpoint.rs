//! Crash-safe sweep checkpointing.
//!
//! A [`CheckpointJournal`] keeps every completed sweep cell as one
//! `prefetch-wal` record in `<dir>/`[`JOURNAL_FILE`]. Cells are keyed by a
//! deterministic [`cell_fingerprint`] over the trace identity (name, seed,
//! length) and the *complete* [`SimConfig`], so a relaunched run recomputes
//! the same fingerprints, restores every journaled cell without
//! re-simulating it, and re-executes only the missing ones — yielding a
//! bit-identical grid (see `crate::harness`).
//!
//! ```text
//! file    := prefetch-wal header ("PFWL" …)  record*     ; records in fingerprint order
//! record  := u32(len) u64(fnv1a(payload)) payload        ; prefetch_wal::record
//! payload := u64 × 31, little-endian:
//!            JOURNAL_VERSION, cell fingerprint, skipped_records, 28 metric words
//! ```
//!
//! Durability is write-then-rename ([`prefetch_wal::atomic::replace_file`]):
//! each flush writes the whole image to a sibling `.tmp`, fsyncs it and
//! renames it over the live file, so a crash at any instant leaves either
//! the previous journal or the new one. The file is read back through
//! [`prefetch_wal::scan`], which verifies every record and classifies what
//! follows the verified prefix as clean, torn or corrupt; whatever the
//! class, the prefix is restored and the remaining cells simply re-run
//! ([`CheckpointJournal::tail`] lets the harness say so).
//!
//! Floating-point metrics are stored as IEEE-754 bit patterns
//! ([`f64::to_bits`]), so a resumed cell restores *exactly* the value the
//! original run produced.

use crate::config::{FaultConfig, PolicySpec, SimConfig};
use crate::metrics::SimMetrics;
use prefetch_core::{EngineConfig, ModelConfig, RetryPolicy, SystemParams};
use prefetch_disk::{DiskArrayConfig, FaultPlan, Striping};
use prefetch_trace::Trace;
use prefetch_wal::record::{file_header, push_record};
use prefetch_wal::Tail;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Record-payload version; bumped on any encoding change so stale
/// journals are ignored rather than misread.
pub const JOURNAL_VERSION: u64 = 2;

/// Fingerprint-schema version, folded into every fingerprint: bump it when
/// the set of hashed fields changes and every old journal entry silently
/// misses (re-runs) instead of aliasing a different configuration.
const FINGERPRINT_VERSION: u64 = 1;

/// File name of the journal inside a checkpoint directory.
pub const JOURNAL_FILE: &str = "journal.pfwl";

/// Completed cells between durable flushes.
const FLUSH_EVERY: usize = 16;

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// The stable FNV-1a fingerprint hasher, hoisted to `prefetch-hash` so the
/// tree/cache crates can share it; the alias keeps the call sites short.
use prefetch_hash::Fnv64 as Fnv;

fn hash_policy(h: &mut Fnv, policy: &PolicySpec) {
    match *policy {
        PolicySpec::NoPrefetch => h.u64(0),
        PolicySpec::NextLimit => h.u64(1),
        PolicySpec::Tree => h.u64(2),
        PolicySpec::TreeNextLimit => h.u64(3),
        PolicySpec::TreeLvc => h.u64(4),
        PolicySpec::TreeThreshold(t) => {
            h.u64(5);
            h.f64(t);
        }
        PolicySpec::TreeChildren(k) => {
            h.u64(6);
            h.usize(k);
        }
        PolicySpec::PerfectSelector => h.u64(7),
        PolicySpec::TreeReanchor => h.u64(8),
        PolicySpec::PanicProbe { after } => {
            h.u64(9);
            h.u64(after);
        }
    }
}

// Every struct is destructured without `..`, so a new configuration field
// fails to compile here until it is hashed (bump `FINGERPRINT_VERSION`) or
// explicitly excluded. The hash order below is the fingerprint schema.
fn hash_config(h: &mut Fnv, config: &SimConfig) {
    // `profile` is deliberately NOT hashed: profiling measures wall clock
    // without touching simulated metrics, so a profiled cell must hit the
    // same checkpoint fingerprint as the plain run it restores.
    let SimConfig { cache_blocks, params, engine, policy, disks, faults, profile: _ } = *config;
    h.usize(cache_blocks);

    let SystemParams { t_hit, t_driver, t_disk, t_cpu } = params;
    h.f64(t_hit);
    h.f64(t_driver);
    h.f64(t_disk);
    h.f64(t_cpu);

    let EngineConfig {
        model: ModelConfig { x, s_alpha, s_initial },
        max_depth,
        max_per_period,
        max_considered_per_period,
        min_probability,
        stack_decay,
        node_limit,
        freeze_at_node_limit,
        reanchor_after_reset,
    } = engine;
    h.u64(u64::from(x));
    h.f64(s_alpha);
    h.f64(s_initial);
    h.u64(u64::from(max_depth));
    h.u64(u64::from(max_per_period));
    h.u64(u64::from(max_considered_per_period));
    h.f64(min_probability);
    h.f64(stack_decay);
    h.usize(node_limit);
    h.bool(freeze_at_node_limit);
    h.bool(reanchor_after_reset);

    hash_policy(h, &policy);

    match disks {
        None => h.u64(0),
        Some(DiskArrayConfig { num_disks, service_ms, striping }) => {
            h.u64(1);
            h.usize(num_disks);
            h.f64(service_ms);
            match striping {
                Striping::RoundRobin { stripe_unit } => {
                    h.u64(0);
                    h.u64(stripe_unit);
                }
                Striping::Hashed => h.u64(1),
            }
        }
    }

    match faults {
        None => h.u64(0),
        Some(FaultConfig { plan, retry }) => {
            let FaultPlan {
                seed,
                transient_error_rate,
                slow_episode_rate,
                slow_factor,
                slow_episode_ms,
                unavailable_rate,
                unavailable_ms,
            } = plan;
            let RetryPolicy { max_attempts, backoff_base_ms, backoff_cap_ms, give_up_penalty_ms } =
                retry;
            h.u64(1);
            h.u64(seed);
            h.f64(transient_error_rate);
            h.f64(slow_episode_rate);
            h.f64(slow_factor);
            h.f64(slow_episode_ms);
            h.f64(unavailable_rate);
            h.f64(unavailable_ms);
            h.u64(u64::from(max_attempts));
            h.f64(backoff_base_ms);
            h.f64(backoff_cap_ms);
            h.f64(give_up_penalty_ms);
        }
    }
}

/// Deterministic identity of one sweep cell, from the trace's identity
/// (name, generator seed, record count) and every field of its config.
/// Stable across runs, platforms, and thread schedules — the journal key.
pub fn cell_fingerprint(trace: &Trace, config: &SimConfig) -> u64 {
    let mut h = Fnv::new();
    h.u64(FINGERPRINT_VERSION);
    h.str(&trace.meta().name);
    h.opt(trace.meta().seed);
    h.u64(trace.len() as u64);
    hash_config(&mut h, config);
    h.finish()
}

// ---------------------------------------------------------------------------
// Record payload: positional u64 words, floats as IEEE-754 bits
// ---------------------------------------------------------------------------

/// The metric layout, written once: field and word kind, in word order.
/// Expands to `metrics_to_words` — which destructures [`SimMetrics`]
/// without `..`, so a new metric fails to compile until it is given a
/// word here (bump `JOURNAL_VERSION`) — and to its inverse.
macro_rules! metric_words {
    ($($field:ident: $kind:ident,)*) => {
        /// Number of [`SimMetrics`] fields.
        const METRIC_WORDS: usize = [$(stringify!($field)),*].len();

        fn metrics_to_words(m: &SimMetrics) -> [u64; METRIC_WORDS] {
            let SimMetrics { $($field),* } = *m;
            [$(metric_words!(@to_word $kind $field)),*]
        }

        fn metrics_from_words(words: [u64; METRIC_WORDS]) -> SimMetrics {
            let mut words = words.into_iter();
            let mut next = || words.next().expect("one word per field");
            SimMetrics { $($field: metric_words!(@from_word $kind next())),* }
        }
    };
    (@to_word count $value:expr) => { $value };
    (@to_word float $value:expr) => { $value.to_bits() };
    (@from_word count $word:expr) => { $word };
    (@from_word float $word:expr) => { f64::from_bits($word) };
}

metric_words! {
    refs: count,
    demand_hits: count,
    prefetch_hits: count,
    misses: count,
    prefetches_issued: count,
    candidates_considered: count,
    candidates_already_cached: count,
    prefetch_evictions: count,
    demand_evictions_for_prefetch: count,
    prefetch_probability_sum: float,
    predictable: count,
    predictable_missed: count,
    lvc_opportunities: count,
    lvc_repeats: count,
    lvc_cached: count,
    elapsed_ms: float,
    stall_ms: float,
    disk_queue_ms: float,
    disk_queued_requests: count,
    disk_mean_utilization: float,
    demand_faults: count,
    demand_retries: count,
    demand_read_failures: count,
    retry_backoff_ms: float,
    prefetch_faults: count,
    blocks_quarantined: count,
    candidates_quarantined: count,
    disk_slowed_requests: count,
}

/// Words in one record payload: version, cell fingerprint, skipped
/// records, then the metrics. A payload of any other size was written by
/// a different layout and is ignored (the cell re-runs).
const PAYLOAD_WORDS: usize = 3 + METRIC_WORDS;

/// One journaled cell: everything needed to reconstruct its
/// [`crate::runner::SimResult`] besides the config and trace name (which
/// the resuming run recomputes and verifies via the fingerprint).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JournalEntry {
    /// Malformed records the trace reader skipped during the original run.
    pub skipped_records: u64,
    /// The run's full metrics, bit-exact.
    pub metrics: SimMetrics,
}

fn encode_payload(fingerprint: u64, entry: &JournalEntry) -> Vec<u8> {
    [JOURNAL_VERSION, fingerprint, entry.skipped_records]
        .iter()
        .chain(&metrics_to_words(&entry.metrics))
        .flat_map(|w| w.to_le_bytes())
        .collect()
}

fn decode_payload(payload: &[u8]) -> Option<(u64, JournalEntry)> {
    if payload.len() != 8 * PAYLOAD_WORDS {
        return None;
    }
    let mut words = payload
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes")));
    if words.next()? != JOURNAL_VERSION {
        return None;
    }
    let (fingerprint, skipped_records) = (words.next()?, words.next()?);
    let metrics = metrics_from_words(words.collect::<Vec<_>>().try_into().ok()?);
    Some((fingerprint, JournalEntry { skipped_records, metrics }))
}

// ---------------------------------------------------------------------------
// The journal
// ---------------------------------------------------------------------------

/// A checkpoint I/O failure. Carries the path and a rendered cause; the
/// harness treats it as degradation (run without checkpointing), never as
/// a reason to lose simulation work.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointError {
    /// The file or directory the operation touched.
    pub path: PathBuf,
    /// Rendered I/O error.
    pub message: String,
}

impl CheckpointError {
    fn new(path: &Path, err: &std::io::Error) -> Self {
        CheckpointError { path: path.to_path_buf(), message: err.to_string() }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint journal {}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for CheckpointError {}

#[derive(Debug, Default)]
struct JournalState {
    /// Fingerprint → entry: the resume lookup table *and*, iterated in key
    /// order, the file image — so the bytes depend only on *which* cells
    /// completed, never on the thread schedule that completed them, and
    /// memory and disk cannot disagree.
    entries: BTreeMap<u64, JournalEntry>,
    /// Records since the last flush that reached the disk.
    dirty: usize,
}

/// Crash-safe journal of completed sweep cells (see the module docs).
///
/// Thread-safe: `record`/`lookup` take `&self` so the sweep's pool workers can share
/// one journal.
#[derive(Debug)]
pub struct CheckpointJournal {
    path: PathBuf,
    loaded: usize,
    tail: Tail,
    state: Mutex<JournalState>,
}

impl CheckpointJournal {
    /// Open (creating `dir` if needed) the journal at
    /// `dir/`[`JOURNAL_FILE`], restoring the verified prefix of whatever a
    /// previous run left behind. Damage past that prefix is not an error:
    /// it is reported by [`CheckpointJournal::tail`], its cells re-run,
    /// and the next flush replaces the file. A durable flush happens
    /// automatically every 16 records (and on [`CheckpointJournal::flush`]).
    pub fn open(dir: &Path) -> Result<Self, CheckpointError> {
        fs::create_dir_all(dir).map_err(|e| CheckpointError::new(dir, &e))?;
        let path = dir.join(JOURNAL_FILE);
        let scan = prefetch_wal::scan(&path).map_err(|e| CheckpointError::new(&path, &e))?;
        // A verified record of another version or size decodes to `None`
        // and is skipped: that cell re-runs, its neighbours are kept.
        let entries: BTreeMap<u64, JournalEntry> =
            scan.records.iter().filter_map(|payload| decode_payload(payload)).collect();
        Ok(CheckpointJournal {
            path,
            loaded: entries.len(),
            tail: scan.tail,
            state: Mutex::new(JournalState { entries, dirty: 0 }),
        })
    }

    fn state(&self) -> MutexGuard<'_, JournalState> {
        // Every update leaves the map and the counter valid at every
        // step, so a worker that panicked mid-call costs nothing here.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of entries restored from disk at open time.
    pub fn loaded(&self) -> usize {
        self.loaded
    }

    /// How the file found at open time ended: [`Tail::Clean`], or where
    /// the verified prefix stopped and why.
    pub fn tail(&self) -> &Tail {
        &self.tail
    }

    /// The journal file this journal persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The entry for `fingerprint`, if a previous (or this) run completed
    /// that cell.
    pub fn lookup(&self, fingerprint: u64) -> Option<JournalEntry> {
        self.state().entries.get(&fingerprint).copied()
    }

    /// Record a completed cell (the last record for a fingerprint wins);
    /// durably flushed every 16 records.
    pub fn record(&self, fingerprint: u64, entry: JournalEntry) -> Result<(), CheckpointError> {
        let mut state = self.state();
        state.entries.insert(fingerprint, entry);
        state.dirty += 1;
        self.flush_when(&mut state, FLUSH_EVERY)
    }

    /// Durably persist every recorded entry: write the full image to a
    /// temporary sibling, fsync it, and atomically rename it over the live
    /// file ([`prefetch_wal::atomic::replace_file_auto`], the same
    /// discipline the WAL checkpoints use), so a crash mid-flush can never
    /// tear the journal. After a failed flush the entries stay pending and
    /// the next call tries again.
    pub fn flush(&self) -> Result<(), CheckpointError> {
        self.flush_when(&mut self.state(), 1)
    }

    /// Flush once `due` records are pending. The caller's lock is held
    /// across the write: concurrent flushes share one temporary file, and
    /// `dirty` may only be cleared for an image known to be on disk.
    fn flush_when(&self, state: &mut JournalState, due: usize) -> Result<(), CheckpointError> {
        if state.dirty < due {
            return Ok(());
        }
        let mut image = file_header().to_vec();
        for (&fingerprint, entry) in &state.entries {
            push_record(&mut image, &encode_payload(fingerprint, entry));
        }
        prefetch_wal::atomic::replace_file_auto(&self.path, &image)
            .map_err(|e| CheckpointError::new(&self.path, &e))?;
        state.dirty = 0;
        Ok(())
    }
}

impl Drop for CheckpointJournal {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefetch_trace::synth::TraceKind;

    fn sample_metrics() -> SimMetrics {
        SimMetrics {
            refs: 100,
            demand_hits: 50,
            prefetch_hits: 20,
            misses: 30,
            prefetches_issued: 40,
            prefetch_probability_sum: 0.1 + 0.2, // deliberately non-representable
            elapsed_ms: 1234.567,
            stall_ms: 89.0125,
            ..SimMetrics::default()
        }
    }

    /// A distinguishable entry per `tag`.
    fn entry(tag: u64) -> JournalEntry {
        JournalEntry {
            skipped_records: tag,
            metrics: SimMetrics { refs: 100 + tag, ..sample_metrics() },
        }
    }

    /// Equality of every word, floats by bit pattern (not `==`).
    fn assert_bit_equal(a: &JournalEntry, b: &JournalEntry) {
        assert_eq!(a.skipped_records, b.skipped_records);
        assert_eq!(metrics_to_words(&a.metrics), metrics_to_words(&b.metrics));
    }

    /// The verified record payloads currently in the journal file.
    fn on_disk(j: &CheckpointJournal) -> Vec<Vec<u8>> {
        prefetch_wal::scan(j.path()).unwrap().records
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prefetch-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        let trace = TraceKind::Cad.generate(500, 7);
        let cfg = SimConfig::new(64, PolicySpec::Tree);
        let fp = cell_fingerprint(&trace, &cfg);
        assert_eq!(fp, cell_fingerprint(&trace, &cfg), "not deterministic");

        // Stable across commits too: journals written under this
        // `FINGERPRINT_VERSION` must keep hitting. One plain config, one
        // that reaches the disk, fault-plan and retry fields.
        assert_eq!(fp, 0x6a4b_3a0c_d022_b3ff);
        let faulted = SimConfig::new(256, PolicySpec::TreeThreshold(0.05))
            .with_disks(4)
            .with_fault_rate(9, 0.125);
        assert_eq!(cell_fingerprint(&trace, &faulted), 0x9d36_0f57_660a_8504);

        // Every identity component must matter.
        assert_ne!(fp, cell_fingerprint(&trace, &SimConfig::new(65, PolicySpec::Tree)));
        assert_ne!(fp, cell_fingerprint(&trace, &SimConfig::new(64, PolicySpec::TreeLvc)));
        assert_ne!(fp, cell_fingerprint(&trace, &cfg.with_t_cpu(51.0)));
        assert_ne!(fp, cell_fingerprint(&trace, &cfg.with_node_limit(10)));
        assert_ne!(fp, cell_fingerprint(&trace, &cfg.with_disks(4)));
        assert_ne!(fp, cell_fingerprint(&trace, &cfg.with_disks(4).with_fault_rate(1, 0.1)));
        let mut frozen = cfg.with_node_limit(10);
        frozen.engine.freeze_at_node_limit = true;
        assert_ne!(
            cell_fingerprint(&trace, &cfg.with_node_limit(10)),
            cell_fingerprint(&trace, &frozen)
        );

        let other = TraceKind::Cad.generate(501, 7);
        assert_ne!(fp, cell_fingerprint(&other, &cfg), "trace length ignored");
        let reseeded = TraceKind::Cad.generate(500, 8);
        assert_ne!(fp, cell_fingerprint(&reseeded, &cfg), "trace seed ignored");
    }

    #[test]
    fn parameterized_policies_hash_their_parameter() {
        let trace = TraceKind::Sitar.generate(100, 1);
        let a = cell_fingerprint(&trace, &SimConfig::new(64, PolicySpec::TreeThreshold(0.05)));
        let b = cell_fingerprint(&trace, &SimConfig::new(64, PolicySpec::TreeThreshold(0.06)));
        assert_ne!(a, b);
        let a = cell_fingerprint(&trace, &SimConfig::new(64, PolicySpec::TreeChildren(2)));
        let b = cell_fingerprint(&trace, &SimConfig::new(64, PolicySpec::TreeChildren(3)));
        assert_ne!(a, b);
    }

    #[test]
    fn entry_round_trips_bit_exactly_through_the_record_codec() {
        let entry = JournalEntry { skipped_records: 17, metrics: sample_metrics() };
        let mut image = file_header().to_vec();
        push_record(&mut image, &encode_payload(0xdead_beef_0bad_f00d, &entry));
        let scan = prefetch_wal::scan_bytes(&image);
        assert_eq!(scan.tail, Tail::Clean);
        let (fp, back) = decode_payload(&scan.records[0]).expect("round trip");
        assert_eq!(fp, 0xdead_beef_0bad_f00d);
        assert_bit_equal(&back, &entry);
    }

    #[test]
    fn stale_or_short_payloads_are_rejected_not_misread() {
        let payload = encode_payload(42, &entry(0));
        assert!(decode_payload(&payload).is_some());
        assert!(decode_payload(&[]).is_none());
        assert!(decode_payload(&payload[..payload.len() / 2]).is_none(), "short payload accepted");
        // A payload with more or fewer metric words means a different layout.
        assert!(decode_payload(&payload[..payload.len() - 8]).is_none());
        assert!(decode_payload(&[&payload[..], &[0u8; 8]].concat()).is_none());
        let mut other_version = payload.clone();
        other_version[..8].copy_from_slice(&(JOURNAL_VERSION + 1).to_le_bytes());
        assert!(decode_payload(&other_version).is_none());
    }

    #[test]
    fn journal_persists_and_reloads_across_instances() {
        let dir = tmp_dir("reload");
        {
            let j = CheckpointJournal::open(&dir).unwrap();
            assert_eq!(j.loaded(), 0);
            j.record(1, entry(3)).unwrap();
            j.record(2, entry(4)).unwrap();
            j.flush().unwrap();
        }
        let j = CheckpointJournal::open(&dir).unwrap();
        assert_eq!(j.loaded(), 2);
        assert_eq!(j.tail(), &Tail::Clean);
        assert_eq!(j.lookup(1), Some(entry(3)));
        assert_eq!(j.lookup(2), Some(entry(4)));
        assert_eq!(j.lookup(3), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn periodic_flush_hits_disk_without_an_explicit_flush() {
        let dir = tmp_dir("periodic");
        let j = CheckpointJournal::open(&dir).unwrap();
        for fp in 1..FLUSH_EVERY as u64 {
            j.record(fp, entry(fp)).unwrap();
        }
        assert!(!j.path().exists(), "flushed before the cadence was due");
        j.record(FLUSH_EVERY as u64, entry(0)).unwrap(); // crosses FLUSH_EVERY
        assert_eq!(on_disk(&j).len(), FLUSH_EVERY);
        drop(j);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Cut a 3-cell journal at every byte: reopening never fails, restores
    /// a prefix of the fingerprint-ordered cells, and every restored entry
    /// is bit-equal to what was recorded.
    #[test]
    fn every_truncation_restores_a_bit_exact_prefix() {
        let dir = tmp_dir("torn");
        // Recorded out of order; the file holds them in fingerprint order.
        let cells = [(10u64, entry(1)), (20, entry(2)), (30, entry(3))];
        {
            let j = CheckpointJournal::open(&dir).unwrap();
            for i in [2, 0, 1] {
                j.record(cells[i].0, cells[i].1).unwrap();
            }
            j.flush().unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let image = fs::read(&path).unwrap();
        let header = prefetch_wal::FILE_HEADER_LEN;
        let record_len = (image.len() - header) / cells.len();
        // Cuts on a record boundary are shorter journals, not damage.
        let boundaries: Vec<usize> =
            std::iter::once(0).chain((0..=cells.len()).map(|k| header + k * record_len)).collect();
        for cut in 0..=image.len() {
            fs::write(&path, &image[..cut]).unwrap();
            let j = CheckpointJournal::open(&dir).unwrap();
            let whole = cut.saturating_sub(header) / record_len;
            assert_eq!(j.loaded(), whole, "cut at byte {cut}");
            for (i, (fp, recorded)) in cells.iter().enumerate() {
                match j.lookup(*fp) {
                    Some(restored) if i < whole => assert_bit_equal(&restored, recorded),
                    None if i >= whole => {}
                    other => panic!("cut at byte {cut}: cell {i} restored as {other:?}"),
                }
            }
            let clean = j.tail() == &Tail::Clean;
            assert_eq!(clean, boundaries.contains(&cut), "cut at byte {cut}: {:?}", j.tail());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_fingerprints_keep_one_line() {
        let dir = tmp_dir("dup");
        let j = CheckpointJournal::open(&dir).unwrap();
        j.record(7, entry(1)).unwrap();
        j.record(7, entry(2)).unwrap();
        j.flush().unwrap();
        let in_memory = j.lookup(7);
        assert_eq!(in_memory, Some(entry(2)), "the last record wins");
        assert_eq!(on_disk(&j).len(), 1);
        drop(j);
        // Memory and disk are one map: a reopen sees what this process saw.
        assert_eq!(CheckpointJournal::open(&dir).unwrap().lookup(7), in_memory);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_flush_is_retried_not_forgotten() {
        let dir = tmp_dir("failed-flush");
        let j = CheckpointJournal::open(&dir).unwrap();
        // A directory where the journal file belongs: the rename fails.
        fs::create_dir(j.path()).unwrap();
        j.record(1, entry(1)).unwrap();
        j.record(2, entry(2)).unwrap();
        assert!(j.flush().is_err(), "replacing a directory with a file must fail");

        fs::remove_dir(j.path()).unwrap();
        j.flush().expect("the entries are still pending");
        drop(j);
        let j = CheckpointJournal::open(&dir).unwrap();
        assert_eq!(j.loaded(), 2);
        assert_eq!(j.lookup(1), Some(entry(1)));
        assert_eq!(j.lookup(2), Some(entry(2)));
        let _ = fs::remove_dir_all(&dir);
    }
}
