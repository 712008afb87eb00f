//! What every workload shares: the run's settings, the repetition rule,
//! and where spans and scratch files go.

use crate::calib::{at_reference, Calibrator};
use crate::report::RunResult;
use crate::spans::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// Settings of one benchmark run.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Workload name (one of [`crate::report::WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the timed repetitions measure, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Input size as a share of full scale (self-tests use 0.01; only
    /// full scale is pinned and comparable).
    pub scale: f64,
    /// Directory holding the release `pfsim` and `pfserve`.
    pub bin_dir: PathBuf,
    /// Scratch directory (scripts, outputs, WAL dirs, spans).
    pub out_dir: PathBuf,
    /// Seconds the builds before this run took (reported, never timed
    /// into set-up).
    pub build_s: f64,
}

impl Ctx {
    /// `count` scaled by [`Ctx::scale`], never below `floor`.
    pub fn scaled(&self, count: usize, floor: usize) -> usize {
        ((count as f64 * self.scale).round() as usize).max(floor)
    }

    /// True at full scale — the only scale whose inputs are pinned.
    pub fn full_scale(&self) -> bool {
        self.scale == 1.0
    }

    /// Write the traced run's spans to `<out>/spans.jsonl`.
    pub fn write_spans(&self, tracer: &Tracer) -> Result<(), String> {
        let path = self.out_dir.join("spans.jsonl");
        tracer.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Fewest timed repetitions behind a reported end-to-end median.
pub const MIN_REPS: usize = 3;
/// Most repetitions one run makes, however short each is.
pub const MAX_REPS: usize = 31;

/// Repeat `rep` until `seconds` have been spent measuring, but at least
/// `min_reps` and at most [`MAX_REPS`] times.
pub fn timed_reps<T>(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut(u32) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps
        || (out.len() < MAX_REPS && started.elapsed().as_secs_f64() < seconds)
    {
        out.push(rep(out.len() as u32)?);
    }
    Ok(out)
}

/// [`timed_reps`] with a calibration sample before the first repetition
/// and after each: every value comes with the factor that scales a host
/// time measured inside it to the reference memory latency (see
/// [`crate::calib`]).
pub fn calibrated_reps<T>(
    cal: &mut Calibrator,
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut(u32) -> Result<T, String>,
) -> Result<Vec<(T, f64)>, String> {
    let mut before = cal.sample();
    timed_reps(seconds, min_reps, |i| {
        let value = rep(i)?;
        let after = cal.sample();
        let scale = at_reference(1.0, before, after);
        before = after;
        Ok((value, scale))
    })
}

/// Run `setup` `times` times and return the last product with the median
/// set-up time (at the reference memory latency): a later change that
/// moves work into set-up must show, and one sample of a short set-up is
/// mostly noise.
pub fn timed_setups<T>(
    cal: &mut Calibrator,
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    let mut before = cal.sample();
    for _ in 0..times.max(1) {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup()?);
        let raw = started.elapsed().as_secs_f64();
        let after = cal.sample();
        secs.push(at_reference(raw, before, after));
        before = after;
    }
    Ok((last.expect("at least one set-up ran"), crate::stats::median(&secs)))
}

/// Percent by which `with` exceeds `without`.
pub fn overhead_pct(with: f64, without: f64) -> f64 {
    (with - without) / without * 100.0
}

/// Finish a run: a failed check makes the result incorrect.
pub fn conclude(mut result: RunResult, problems: &[String]) -> RunResult {
    for p in problems {
        eprintln!("pfbench: check failed: {p}");
    }
    result.correct = problems.is_empty() && result.failed == 0;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reps_respect_floor_and_ceiling() {
        let n = timed_reps(0.0, MIN_REPS, Ok).unwrap();
        assert_eq!(n, vec![0, 1, 2], "a zero budget still yields a median of three");
        let n = timed_reps(1e9, 1, Ok).unwrap();
        assert_eq!(n.len(), MAX_REPS);
        assert!(timed_reps(1.0, 1, |_| Err::<u32, _>("boom".to_string())).is_err());
    }

    #[test]
    fn setups_report_their_median_and_keep_the_last_product() {
        let mut calls = 0;
        let mut cal = Calibrator::new();
        let (last, secs) = timed_setups(&mut cal, 3, || {
            calls += 1;
            Ok(calls)
        })
        .unwrap();
        assert_eq!((last, calls), (3, 3));
        assert!(secs >= 0.0);
        let reps = calibrated_reps(&mut cal, 0.0, 2, Ok).unwrap();
        assert_eq!(reps.iter().map(|(i, _)| *i).collect::<Vec<_>>(), [0, 1]);
        assert!(reps.iter().all(|(_, scale)| *scale > 0.0 && scale.is_finite()));
    }
}
