//! Running a program under test as a child process: spawn→exit wall
//! time and the child's peak resident set.

use std::io;
use std::process::{Child, Command, ExitStatus};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What one child run cost.
#[derive(Clone, Copy, Debug)]
pub struct ChildRun {
    /// Spawn to exit, ns.
    pub wall_ns: u64,
    /// Highest `VmHWM` seen in `/proc/<pid>/status`, kB.
    pub peak_rss_kb: u64,
    /// How the child ended.
    pub status: ExitStatus,
}

impl ChildRun {
    /// Peak resident set in MB (10^6 bytes; `VmHWM` is in KiB).
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_kb as f64 * 1024.0 / 1e6
    }
}

/// `VmHWM` of process `pid`, kB; `None` once the process is a zombie or
/// gone (the line disappears with the address space).
fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Poll `pid`'s high-water mark into `peak` until `stop` is set. The
/// mark only rises, so the last poll before exit is the peak to within
/// what the child allocates in its final poll interval.
fn poll_rss(pid: u32, stop: &AtomicBool, peak: &AtomicU64) {
    while !stop.load(Ordering::Acquire) {
        if let Some(kb) = vm_hwm_kb(pid) {
            peak.fetch_max(kb, Ordering::Relaxed);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Wait for `child` (spawned at `started`), polling its peak RSS from a
/// second thread so the wait itself is a plain blocking `wait`.
pub fn wait_timed(mut child: Child, started: Instant) -> io::Result<ChildRun> {
    let pid = child.id();
    let stop = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let (status, wall_ns) = std::thread::scope(|s| {
        s.spawn(|| poll_rss(pid, &stop, &peak));
        let status = child.wait();
        let wall_ns = started.elapsed().as_nanos() as u64;
        // Release pairs with the poller's Acquire load: it sees the flag
        // and stops; `peak` is a lone statistic and needs no ordering.
        stop.store(true, Ordering::Release);
        (status, wall_ns)
    });
    Ok(ChildRun { wall_ns, peak_rss_kb: peak.load(Ordering::Relaxed), status: status? })
}

/// Spawn `cmd` and wait for it, timing spawn→exit.
pub fn run_timed(cmd: &mut Command) -> io::Result<ChildRun> {
    let started = Instant::now();
    let child = cmd.spawn()?;
    wait_timed(child, started)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_a_child_and_sees_its_memory() {
        let run = run_timed(Command::new("sleep").arg("0.05")).unwrap();
        assert!(run.status.success());
        assert!(run.wall_ns >= 50_000_000, "{run:?}");
        assert!(run.peak_rss_kb > 0, "{run:?}");
        assert!(run.peak_rss_mb() > 0.0);
    }

    #[test]
    fn a_missing_program_is_an_error() {
        assert!(run_timed(&mut Command::new("/nonexistent/pfbench-no-such-program")).is_err());
    }
}
