//! Dependency-free work-stealing thread pool with deterministic,
//! index-ordered result collection.
//!
//! [`run_indexed`] evaluates `f(0), f(1), …, f(n-1)` across a set of scoped
//! worker threads and returns the results **in index order**, so callers
//! that previously ran a sequential `map` observe byte-identical output.
//! The determinism contract:
//!
//! * Result `i` of the returned vector is exactly `f(i)` — scheduling never
//!   reorders, drops, or duplicates work items.
//! * If one or more closure invocations panic, every index *smaller* than
//!   the panicking one still runs, and the panic payload that propagates to
//!   the caller is the one from the **smallest** panicking index — the same
//!   payload a sequential left-to-right loop would have surfaced. Payload
//!   types are preserved (`resume_unwind`), so `&str`/`String`/custom
//!   payload downcasts keep working across the pool boundary.
//! * `threads == 1` (or `n <= 1`) bypasses the pool entirely and runs the
//!   plain sequential loop on the calling thread.
//!
//! Scheduling is chunked work stealing: each worker owns a contiguous slice
//! of the index range behind a mutex, pops small batches from its front,
//! and when empty steals the back half of the largest remaining slice. With
//! coarse work items (a sweep cell is milliseconds to minutes of
//! simulation) the per-batch lock is noise.
//!
//! The pool size is a process-global knob ([`set_threads`]) rather than a
//! per-call argument so that deep call chains (CLI → experiment grid →
//! sweep) need no plumbing; `0` means "use
//! [`std::thread::available_parallelism`]".

#![forbid(unsafe_code)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Global thread-count setting; `0` = auto (available parallelism).
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Set the pool size for subsequent [`run_indexed`] calls. `0` restores the
/// default of one worker per available hardware thread.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// The raw configured value (`0` = auto). See [`effective_threads`] for the
/// resolved worker count.
pub fn configured_threads() -> usize {
    THREADS.load(Ordering::Relaxed)
}

/// The number of workers a `run_indexed` call would use right now, after
/// resolving `0` to the machine's available parallelism. Always ≥ 1.
pub fn effective_threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        n => n,
    }
}

/// One worker's half-open slice of the index range.
#[derive(Clone, Copy)]
struct Range {
    lo: usize,
    hi: usize,
}

impl Range {
    fn len(&self) -> usize {
        self.hi - self.lo
    }
}

/// Pop a batch from the front of the worker's own range.
fn take_front(range: &Mutex<Range>) -> Option<Range> {
    let mut r = range.lock().unwrap();
    if r.lo >= r.hi {
        return None;
    }
    // Small front batches keep the tail available for thieves.
    let take = (r.len() / 8).clamp(1, 16);
    let batch = Range { lo: r.lo, hi: r.lo + take };
    r.lo += take;
    Some(batch)
}

/// Steal the back half of the largest remaining range.
fn steal(me: usize, ranges: &[Mutex<Range>]) -> Option<Range> {
    loop {
        // Snapshot sizes, then re-check the chosen victim under its lock;
        // ranges only ever shrink, so "all empty" is a stable exit.
        let victim = ranges
            .iter()
            .enumerate()
            .filter(|&(w, _)| w != me)
            .map(|(w, r)| (w, r.lock().unwrap().len()))
            .max_by_key(|&(_, len)| len)?;
        if victim.1 == 0 {
            return None;
        }
        let mut r = ranges[victim.0].lock().unwrap();
        let len = r.len();
        if len == 0 {
            continue; // raced with the owner; rescan
        }
        let take = len.div_ceil(2);
        let batch = Range { lo: r.hi - take, hi: r.hi };
        r.hi -= take;
        return Some(batch);
    }
}

/// Evaluate `f(0..n)` on the configured number of threads and return the
/// results in index order. See the module docs for the determinism and
/// panic-propagation contract.
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = effective_threads().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    // Balanced contiguous slices: worker w owns [w*n/workers, (w+1)*n/workers).
    let ranges: Vec<Mutex<Range>> = (0..workers)
        .map(|w| Mutex::new(Range { lo: w * n / workers, hi: (w + 1) * n / workers }))
        .collect();
    // Smallest panicking index seen so far (usize::MAX = none); lets
    // workers skip items that can no longer influence the outcome.
    let min_panic = AtomicUsize::new(usize::MAX);
    let panic_slot: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (ranges, f) = (&ranges, &f);
                let (min_panic, panic_slot) = (&min_panic, &panic_slot);
                scope.spawn(move || {
                    let mut out: Vec<(usize, T)> = Vec::new();
                    loop {
                        let batch = match take_front(&ranges[w]) {
                            Some(b) => b,
                            None => match steal(w, ranges) {
                                // Deposit the loot in our own (empty) range
                                // so it stays visible to other thieves.
                                Some(loot) => {
                                    *ranges[w].lock().unwrap() = loot;
                                    continue;
                                }
                                None => break,
                            },
                        };
                        for i in batch.lo..batch.hi {
                            // An item above the smallest recorded panic can
                            // neither be returned nor beat that panic.
                            if i > min_panic.load(Ordering::Relaxed) {
                                continue;
                            }
                            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                                Ok(v) => out.push((i, v)),
                                Err(payload) => {
                                    min_panic.fetch_min(i, Ordering::Relaxed);
                                    let mut slot = panic_slot.lock().unwrap();
                                    match &*slot {
                                        Some((j, _)) if *j <= i => {}
                                        _ => *slot = Some((i, payload)),
                                    }
                                }
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => {
                    for (i, v) in part {
                        debug_assert!(slots[i].is_none(), "index {i} produced twice");
                        slots[i] = Some(v);
                    }
                }
                // The worker loop only panics outside `catch_unwind` on
                // internal errors (poisoned lock, allocation failure);
                // surface those as-is.
                Err(payload) => resume_unwind(payload),
            }
        }
    });

    if let Some((_, payload)) = panic_slot.into_inner().unwrap() {
        drop(slots);
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, v)| v.unwrap_or_else(|| panic!("pool lost item {i}")))
        .collect()
}

/// Map an owned vector through `f` in parallel, preserving order.
pub fn map_vec<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|v| Mutex::new(Some(v))).collect();
    run_indexed(cells.len(), |i| {
        let item = cells[i].lock().unwrap().take().expect("item taken twice");
        f(item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Serialise tests that touch the global thread knob.
    static KNOB: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(n);
        let r = f();
        set_threads(0);
        r
    }

    #[test]
    fn results_are_index_ordered() {
        for threads in [1, 2, 3, 8, 64] {
            let got = with_threads(threads, || run_indexed(100, |i| i * i));
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let counts: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        with_threads(4, || {
            run_indexed(counts.len(), |i| counts[i].fetch_add(1, Ordering::Relaxed))
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<usize> = with_threads(4, || run_indexed(0, |i| i));
        assert!(empty.is_empty());
        assert_eq!(with_threads(4, || run_indexed(1, |i| i + 41)), vec![41]);
    }

    #[test]
    fn skewed_work_is_stolen() {
        // Front-loaded heavy items: without stealing, worker 0 would own
        // all the work while the rest idle. The assertion here is just
        // correctness; the stealing path is exercised by the skew.
        let got = with_threads(4, || {
            run_indexed(64, |i| {
                let spins = if i < 8 { 200_000 } else { 10 };
                let mut acc = i as u64;
                for _ in 0..spins {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                std::hint::black_box(acc);
                i
            })
        });
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn smallest_index_panic_wins() {
        for threads in [1, 4] {
            let result = with_threads(threads, || {
                catch_unwind(AssertUnwindSafe(|| {
                    run_indexed(50, |i| {
                        if i == 33 {
                            std::panic::panic_any(format!("boom {i}"));
                        }
                        if i == 7 {
                            std::panic::panic_any(format!("boom {i}"));
                        }
                        i
                    })
                }))
            });
            let payload = result.expect_err("must panic");
            let msg = payload.downcast_ref::<String>().expect("String payload survives");
            assert_eq!(msg, "boom 7", "threads={threads}");
        }
    }

    #[test]
    fn str_payloads_survive_the_pool_boundary() {
        let result = with_threads(4, || {
            catch_unwind(AssertUnwindSafe(|| {
                run_indexed(16, |i| {
                    if i == 3 {
                        panic!("static message");
                    }
                    i
                })
            }))
        });
        let payload = result.expect_err("must panic");
        let msg = payload.downcast_ref::<&str>().expect("&str payload survives");
        assert_eq!(*msg, "static message");
    }

    #[test]
    fn indices_below_a_panic_all_run() {
        // Sequential semantics: everything left of the surfaced panic has
        // observably executed.
        let ran: Vec<AtomicU64> = (0..40).map(|_| AtomicU64::new(0)).collect();
        let result = with_threads(4, || {
            catch_unwind(AssertUnwindSafe(|| {
                run_indexed(ran.len(), |i| {
                    ran[i].fetch_add(1, Ordering::Relaxed);
                    if i == 25 {
                        panic!("stop");
                    }
                })
            }))
        });
        assert!(result.is_err());
        for (i, c) in ran.iter().enumerate().take(26) {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i} must have run");
        }
    }

    #[test]
    fn map_vec_preserves_order_and_moves_items() {
        let items: Vec<String> = (0..30).map(|i| format!("v{i}")).collect();
        let got = with_threads(4, || map_vec(items, |s| s + "!"));
        let want: Vec<String> = (0..30).map(|i| format!("v{i}!")).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn auto_threads_resolves_to_at_least_one() {
        let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(0);
        assert!(effective_threads() >= 1);
        assert_eq!(configured_threads(), 0);
    }
}
