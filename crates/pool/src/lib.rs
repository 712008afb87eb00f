//! Dependency-free thread pool of long-lived helpers with deterministic,
//! index-ordered result collection, and the workspace's one panic-capture
//! helper.
//!
//! [`run_indexed`] evaluates `f(0), f(1), …, f(n-1)` on the calling thread
//! and up to `threads − 1` helper threads, and returns the results **in
//! index order**, so callers that previously ran a sequential `map`
//! observe byte-identical output. The determinism contract:
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
//! * When the call returns, no helper holds anything of it: `f` and what
//!   it captured are dropped on the calling thread, as a scoped pool would.
//!
//! Scheduling is one shared cursor: a runner claims the next unclaimed
//! index with a single `fetch_add`, so indices are claimed in increasing
//! order and a slow item never strands the ones behind it. Work items are
//! a tenant's batch flush (microseconds) or a sweep cell (milliseconds to
//! minutes of simulation); one atomic add per item is below both.
//!
//! The helpers start once per process, lazily, and grow to the largest
//! count any call has asked for; between calls they park on a condvar. A
//! call opens `threads − 1` seats on itself, wakes the helpers and claims
//! items itself straight away, so it costs one wake-up, not a spawn and a
//! join, and the caller never sits idle while a helper wakes. A helper
//! outlives the call it serves, which is why `f` and its results must be
//! `'static`: safe Rust cannot lend a borrow to a thread that may outlive
//! it, so callers share their data through an `Arc` instead. A call made
//! from inside an item (nested) or from several threads at once always
//! completes, because its caller can run every item alone; it gets those
//! helpers that are idle while its seats are open.
//!
//! The pool size is a process-global knob ([`set_threads`]) rather than a
//! per-call argument so that deep call chains (CLI → experiment grid →
//! sweep) need no plumbing; `0` means "use
//! [`std::thread::available_parallelism`]", read once per process.
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};

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
///
/// The machine's parallelism is read on the first call that needs it and
/// kept: the lookup reads cgroup files, far too slow to repeat per batch.
pub fn effective_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    match THREADS.load(Ordering::Relaxed) {
        0 => {
            *AUTO.get_or_init(|| std::thread::available_parallelism().map(usize::from).unwrap_or(1))
        }
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
/// panic-propagation contract, and for why the bounds are `'static`.
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    POOL.run(effective_threads(), n, f)
}

type Payload = Box<dyn Any + Send>;

/// The process's helpers and the one pool [`run_indexed`] dispatches to.
static POOL: Pool = Pool::new();

/// A set of helper threads and the calls with seats open to them.
struct Pool {
    queue: Mutex<Queue>,
    /// Signalled when a call opens seats.
    work: Condvar,
}

struct Queue {
    /// Helper threads started so far; never shrinks.
    helpers: usize,
    /// Calls with seats no helper has taken yet, oldest first. A call's
    /// entry leaves when its last seat is taken or its caller has claimed
    /// past the end, whichever is first.
    open: Vec<Seats>,
}

struct Seats {
    call: Arc<dyn Task>,
    left: usize,
}

/// One call as a helper sees it.
trait Task: Send + Sync {
    /// Claim and run items until the cursor passes the end, then report
    /// the results to the caller — after dropping this handle, so the
    /// caller's own is the last one.
    fn serve(self: Arc<Self>);
}

/// One `run_indexed` call: the closure, the cursor, and where its runners
/// report.
struct Call<T, F> {
    f: F,
    n: usize,
    /// Next unclaimed index. Claims are in increasing order, so every
    /// index below a panicking one was claimed — and checked against
    /// `min_panic` — before any panic at or above it could be recorded.
    next: AtomicUsize,
    /// Smallest panicking index seen so far (usize::MAX = none); lets
    /// runners skip items that can no longer influence the outcome.
    min_panic: AtomicUsize,
    done: Arc<Done<T>>,
}

/// What one runner (the caller or a helper) produced: its items, and the
/// first — hence smallest — index that panicked on it.
struct Part<T> {
    items: Vec<(usize, T)>,
    panic: Option<(usize, Payload)>,
}

/// The results gathered so far; the caller waits on `reported`.
struct Done<T> {
    tally: Mutex<Tally<T>>,
    reported: Condvar,
}

struct Tally<T> {
    slots: Vec<Option<T>>,
    panic: Option<(usize, Payload)>,
    /// Helpers that have handed in their part.
    reports: usize,
}

fn relock<G>(r: Result<G, PoisonError<G>>) -> G {
    // Every guarded update leaves its data valid at every step; poison
    // only means an unrelated thread died holding the lock.
    r.unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    const fn new() -> Self {
        Pool { queue: Mutex::new(Queue { helpers: 0, open: Vec::new() }), work: Condvar::new() }
    }

    fn queue(&self) -> MutexGuard<'_, Queue> {
        relock(self.queue.lock())
    }

    /// `run_indexed` on `workers` runners of this pool: the caller plus up
    /// to `workers − 1` of its helpers, started here on first need.
    fn run<T, F>(&'static self, workers: usize, n: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        let seats = workers.min(n).saturating_sub(1);
        if seats == 0 {
            return (0..n).map(f).collect();
        }
        let call = Arc::new(Call {
            f,
            n,
            next: AtomicUsize::new(0),
            min_panic: AtomicUsize::new(usize::MAX),
            done: Arc::new(Done {
                tally: Mutex::new(Tally {
                    slots: (0..n).map(|_| None).collect(),
                    panic: None,
                    reports: 0,
                }),
                reported: Condvar::new(),
            }),
        });
        {
            let mut queue = self.queue();
            while queue.helpers < seats {
                let spawned = std::thread::Builder::new()
                    .name("prefetch-pool".into())
                    .spawn(move || self.help());
                if spawned.is_err() {
                    // The caller can run every item alone.
                    break;
                }
                queue.helpers += 1;
            }
            queue.open.push(Seats { call: call.clone(), left: seats });
        }
        if seats == 1 {
            self.work.notify_one();
        } else {
            self.work.notify_all();
        }

        let mine = call.claim();
        // Close the seats: from here on no helper can join, so the ones
        // that did are exactly the reports to wait for.
        let joined = {
            let mut queue = self.queue();
            let this = Arc::as_ptr(&call) as *const ();
            match queue.open.iter().position(|s| Arc::as_ptr(&s.call) as *const () == this) {
                Some(k) => seats - queue.open.remove(k).left,
                None => seats,
            }
        };
        let (slots, panic) = {
            let done = &call.done;
            let mut tally = relock(done.tally.lock());
            tally.absorb(mine);
            while tally.reports < joined {
                tally = relock(done.reported.wait(tally));
            }
            (std::mem::take(&mut tally.slots), tally.panic.take())
        };
        drop(call);
        if let Some((_, payload)) = panic {
            drop(slots);
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, v)| v.unwrap_or_else(|| panic!("pool lost item {i}")))
            .collect()
    }

    /// A helper's life: take a seat on the oldest open call, serve it,
    /// park when there is none. Helpers live as long as the process and
    /// are never joined; nothing they run unwinds out of `serve`, since
    /// every item runs under `catch_unwind`.
    fn help(&self) {
        let mut queue = self.queue();
        loop {
            let Some(seats) = queue.open.first_mut() else {
                queue = relock(self.work.wait(queue));
                continue;
            };
            seats.left -= 1;
            let call =
                if seats.left == 0 { queue.open.remove(0).call } else { Arc::clone(&seats.call) };
            drop(queue);
            call.serve();
            queue = self.queue();
        }
    }
}

impl<T, F: Fn(usize) -> T> Call<T, F> {
    fn claim(&self) -> Part<T> {
        let mut part = Part { items: Vec::new(), panic: None };
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return part;
            }
            // An item above the smallest recorded panic can neither be
            // returned nor beat that panic.
            if i > self.min_panic.load(Ordering::Relaxed) {
                continue;
            }
            match catch_unwind(AssertUnwindSafe(|| (self.f)(i))) {
                Ok(v) => part.items.push((i, v)),
                Err(payload) => {
                    self.min_panic.fetch_min(i, Ordering::Relaxed);
                    part.panic = Some((i, payload));
                }
            }
        }
    }
}

impl<T, F> Task for Call<T, F>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    fn serve(self: Arc<Self>) {
        let done = Arc::clone(&self.done);
        let part = self.claim();
        drop(self);
        let mut tally = relock(done.tally.lock());
        tally.absorb(part);
        tally.reports += 1;
        drop(tally);
        done.reported.notify_one();
    }
}

impl<T> Tally<T> {
    fn absorb(&mut self, part: Part<T>) {
        for (i, v) in part.items {
            debug_assert!(self.slots[i].is_none(), "index {i} produced twice");
            self.slots[i] = Some(v);
        }
        if let Some((i, payload)) = part.panic {
            if self.panic.as_ref().is_none_or(|(j, _)| i < *j) {
                self.panic = Some((i, payload));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;
    use std::thread::ThreadId;

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
        let counts: Arc<Vec<AtomicU64>> = Arc::new((0..257).map(|_| AtomicU64::new(0)).collect());
        let shared = Arc::clone(&counts);
        with_threads(4, || {
            run_indexed(counts.len(), move |i| shared[i].fetch_add(1, Ordering::Relaxed))
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
        let ran: Arc<Vec<AtomicU64>> = Arc::new((0..40).map(|_| AtomicU64::new(0)).collect());
        let shared = Arc::clone(&ran);
        let result = with_threads(4, || {
            catch_unwind(AssertUnwindSafe(|| {
                run_indexed(ran.len(), move |i| {
                    shared[i].fetch_add(1, Ordering::Relaxed);
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

    #[test]
    fn auto_threads_are_resolved_once() {
        let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(0);
        let first = effective_threads();
        assert!((0..1_000).all(|_| effective_threads() == first));
        set_threads(first + 3);
        assert_eq!(effective_threads(), first + 3);
        set_threads(0);
        assert_eq!(configured_threads(), 0, "0 still means auto");
        assert_eq!(effective_threads(), first);
    }

    // The tests below run on pools of their own, so the helper set they
    // observe is the one their calls grew.

    #[test]
    fn helpers_outlive_the_call() {
        static PRIVATE: Pool = Pool::new();
        // The thread every item of every call ran on.
        let seen: Arc<Mutex<HashSet<ThreadId>>> = Arc::default();
        for call in 0..1_000 {
            let seen_by_items = Arc::clone(&seen);
            let got = PRIVATE.run(4, 16, move |i| {
                seen_by_items.lock().unwrap().insert(std::thread::current().id());
                std::hint::black_box((0..200).fold(i, |a, b| a ^ b));
                i * call
            });
            assert_eq!(got, (0..16).map(|i| i * call).collect::<Vec<_>>());
        }
        let mut ids = seen.lock().unwrap().clone();
        ids.remove(&std::thread::current().id());
        assert!(ids.len() <= 3, "1 000 calls ran on {} helper threads", ids.len());
        assert_eq!(PRIVATE.queue().helpers, 3);
        assert!(PRIVATE.queue().open.is_empty(), "a returned call left its seats open");
    }

    #[test]
    fn a_nested_call_returns() {
        static PRIVATE: Pool = Pool::new();
        let got = PRIVATE.run(4, 8, |i| PRIVATE.run(4, 8, move |j| i * 8 + j));
        let want: Vec<Vec<usize>> = (0..8).map(|i| (0..8).map(|j| i * 8 + j).collect()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn concurrent_callers_get_their_own_results() {
        static PRIVATE: Pool = Pool::new();
        let start = Arc::new(Barrier::new(2));
        let callers: Vec<_> = [(2, 1_000), (4, 2_000)]
            .into_iter()
            .map(|(workers, base)| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for round in 0..200 {
                        let got = PRIVATE.run(workers, 37, move |i| base + round * 100 + i);
                        let want: Vec<usize> = (0..37).map(|i| base + round * 100 + i).collect();
                        assert_eq!(got, want, "workers={workers} round={round}");
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("a concurrent caller failed");
        }
    }

    #[test]
    fn helpers_serve_the_call_after_a_panic() {
        static PRIVATE: Pool = Pool::new();
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            PRIVATE.run(4, 32, |i| {
                if i == 5 {
                    panic!("item {i}");
                }
                i
            })
        }));
        assert!(panicked.is_err());

        // Items 0 and 1 meet at a barrier: a runner holds one item at a
        // time, so the call finishes only if a helper runs one of them
        // while the caller runs the other.
        let meet = Arc::new(Barrier::new(2));
        let got = PRIVATE.run(4, 32, move |i| {
            if i < 2 {
                meet.wait();
            }
            i
        });
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }
}
