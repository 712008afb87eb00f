//! Dependency-free scoped thread pool with deterministic, index-ordered
//! result collection, and the workspace's one panic-capture helper.
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
//! Scheduling is one shared cursor: a worker claims the next unclaimed
//! index with a single `fetch_add`, so indices are claimed in increasing
//! order and a slow item never strands the ones behind it. Work items are
//! a tenant's batch flush (microseconds) or a sweep cell (milliseconds to
//! minutes of simulation); one atomic add per item is below both.
//!
//! The pool size is a process-global knob ([`set_threads`]) rather than a
//! per-call argument so that deep call chains (CLI → experiment grid →
//! sweep) need no plumbing; `0` means "use
//! [`std::thread::available_parallelism`]".
//!
//! [`catch_quiet`] is how the callers that *contain* a panic (a sweep
//! cell, a tenant flush) run their closure: under `catch_unwind`, with the
//! process's one panic hook silenced on that thread for the duration, the
//! payload handed back for the caller to classify ([`panic_message`]
//! renders the usual `&str`/`String` payloads).

#![forbid(unsafe_code)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

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

thread_local! {
    /// True while this thread runs a closure under [`catch_quiet`]: the
    /// panic hook stays silent (the panic becomes a typed error at the
    /// caller, so the default hook's backtrace spam would only obscure
    /// the program's real output).
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` in its own panic domain with the panic hook silenced on this
/// thread: a panic comes back as its payload instead of unwinding into
/// the caller. The first call installs the hook (once per process), which
/// defers to the previous hook on every thread that is not inside a
/// `catch_quiet`.
pub fn catch_quiet<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send>> {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(Cell::get) {
                previous(info);
            }
        }));
    });
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
    outcome
}

/// Render a panic payload: the message of a `panic!` (`&str` or `String`),
/// or a fixed placeholder for any other payload type.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
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

    // Next unclaimed index. Claims are in increasing order, so every
    // index below a panicking one was claimed — and checked against
    // `min_panic` — before any panic at or above it could be recorded.
    let next = AtomicUsize::new(0);
    // Smallest panicking index seen so far (usize::MAX = none); lets
    // workers skip items that can no longer influence the outcome.
    let min_panic = AtomicUsize::new(usize::MAX);
    let panic_slot: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, f) = (&next, &f);
                let (min_panic, panic_slot) = (&min_panic, &panic_slot);
                scope.spawn(move || {
                    let mut out: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
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
    fn front_loaded_work_keeps_index_order() {
        // Front-loaded heavy items: the workers holding them finish last,
        // after the rest have claimed everything behind. The assertion is
        // just correctness: results come back by index, not by finish time.
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
    fn catch_quiet_returns_the_payload_for_the_caller_to_classify() {
        struct Custom(u32);
        assert_eq!(catch_quiet(|| 7).ok(), Some(7));
        let payload = catch_quiet(|| panic!("static message")).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "static message");
        let payload = catch_quiet(|| std::panic::panic_any(format!("boom {}", 3))).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "boom 3");
        let payload = catch_quiet(|| std::panic::panic_any(Custom(9))).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
        assert_eq!(payload.downcast_ref::<Custom>().map(|c| c.0), Some(9));
    }

    #[test]
    fn auto_threads_resolves_to_at_least_one() {
        let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(0);
        assert!(effective_threads() >= 1);
        assert_eq!(configured_threads(), 0);
    }
}
