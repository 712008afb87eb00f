//! Front ends feeding request lines into a [`Service`].
//!
//! Two listeners share one service core:
//!
//! * **stdin** — reads request lines from standard input in batches and
//!   writes responses to standard output; `SHUTDOWN` or EOF drains.
//!   This is the mode the load generator and the CI chaos job use.
//! * **unix socket** — accepts any number of client connections on a
//!   `SOCK_STREAM` unix socket; each connection gets a reader thread
//!   that tags lines with its [`ConnId`] so responses route back to the
//!   right client. The accept/dispatch loop is single-threaded; the
//!   parallelism lives in the service's batch flush.
//!
//! Listener failures are their own fault domain: a client disconnecting
//! mid-request, a write to a closed socket, or a poisoned writer-registry
//! lock never take down the service — the connection is dropped and the
//! remaining clients keep streaming.

use crate::service::{ConnId, Service};
use std::io::{BufRead, BufReader, Write};

/// How often the service emits a live `serve_stats` telemetry record.
const STATS_EVERY_BATCHES: u64 = 64;

/// Drive the service from stdin, writing responses to stdout. Returns
/// when the input ends or a `SHUTDOWN` request drains the service.
pub fn run_stdin(service: &mut Service, batch: usize) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut lines: Vec<(ConnId, String)> = Vec::with_capacity(batch);
    let (mut input, mut buf) = (stdin.lock(), Vec::new());
    while let Some(line) = read_line_lossy(&mut input, &mut buf)? {
        lines.push((0, line));
        if lines.len() >= batch {
            pump(service, &mut lines, &mut out)?;
            if service.shutdown_requested() {
                break;
            }
        }
    }
    if !service.shutdown_requested() && !lines.is_empty() {
        pump(service, &mut lines, &mut out)?;
    }
    for line in service.drain() {
        writeln!(out, "{line}")?;
    }
    out.flush()?;
    prefetch_telemetry::log::flush();
    Ok(())
}

/// Read one line as `BufRead::lines` does, but decode it lossily: bytes
/// that are not UTF-8 reach `parse_line` as U+FFFD and are answered with
/// a typed `ERR parse`, where `lines()` would end the stream with an I/O
/// error. `None` at end of input.
fn read_line_lossy(input: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Option<String>> {
    buf.clear();
    if input.read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    Ok(Some(String::from_utf8_lossy(buf).into_owned()))
}

fn pump(
    service: &mut Service,
    lines: &mut Vec<(ConnId, String)>,
    out: &mut impl Write,
) -> std::io::Result<()> {
    let responses = service.process_batch(lines);
    lines.clear();
    for (_, line) in responses {
        writeln!(out, "{line}")?;
    }
    out.flush()?;
    if service.stats.batches.is_multiple_of(STATS_EVERY_BATCHES) {
        service.log_live_stats();
    }
    Ok(())
}

#[cfg(unix)]
pub use unix::run_unix;

#[cfg(unix)]
mod unix {
    use super::*;
    use std::collections::HashMap;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::Path;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// What a reader thread reports to the dispatch loop.
    enum Inbound {
        Line(ConnId, String),
        Hangup(ConnId),
    }

    /// Serve on a unix socket at `path` until a `SHUTDOWN` request.
    ///
    /// One reader thread per connection feeds a single dispatch loop
    /// that batches up to `batch` lines (or whatever arrived within the
    /// batching window) into each `process_batch` call.
    pub fn run_unix(service: &mut Service, path: &Path, batch: usize) -> std::io::Result<()> {
        // A stale socket file from a killed process must not block
        // restart — that is the crash-recovery path the chaos job tests.
        match std::fs::remove_file(path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let (tx, rx) = mpsc::sync_channel::<Inbound>(batch.max(1) * 4);
        let writers: Arc<Mutex<HashMap<ConnId, UnixStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let mut next_conn: ConnId = 1;
        let mut lines: Vec<(ConnId, String)> = Vec::with_capacity(batch);

        loop {
            // Accept whatever is waiting (non-blocking).
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let conn = next_conn;
                        next_conn += 1;
                        let reader = stream.try_clone()?;
                        lock_writers(&writers).insert(conn, stream);
                        let tx = tx.clone();
                        std::thread::spawn(move || {
                            let (mut input, mut buf) = (BufReader::new(reader), Vec::new());
                            while let Ok(Some(line)) = read_line_lossy(&mut input, &mut buf) {
                                if tx.send(Inbound::Line(conn, line)).is_err() {
                                    return;
                                }
                            }
                            let _ = tx.send(Inbound::Hangup(conn));
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }

            // Gather a batch (bounded wait so accepts stay responsive).
            let deadline = Duration::from_millis(20);
            loop {
                match rx.recv_timeout(deadline) {
                    Ok(Inbound::Line(conn, line)) => {
                        lines.push((conn, line));
                        if lines.len() >= batch {
                            break;
                        }
                    }
                    Ok(Inbound::Hangup(conn)) => {
                        lock_writers(&writers).remove(&conn);
                    }
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }

            if !lines.is_empty() {
                let responses = service.process_batch(&lines);
                lines.clear();
                route(&writers, responses);
                if service.stats.batches.is_multiple_of(STATS_EVERY_BATCHES) {
                    service.log_live_stats();
                }
            }
            if service.shutdown_requested() {
                break;
            }
        }

        // Graceful drain: the final reports go to every still-connected
        // client (each gets the complete picture).
        let finals = service.drain();
        let mut writers = lock_writers(&writers);
        for (_, stream) in writers.iter_mut() {
            let mut w = std::io::BufWriter::new(stream);
            for line in &finals {
                if writeln!(w, "{line}").is_err() {
                    break;
                }
            }
            let _ = w.flush();
        }
        drop(writers);
        let _ = std::fs::remove_file(path);
        prefetch_telemetry::log::flush();
        Ok(())
    }

    fn lock_writers(
        writers: &Mutex<HashMap<ConnId, UnixStream>>,
    ) -> std::sync::MutexGuard<'_, HashMap<ConnId, UnixStream>> {
        writers.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Write responses back to their connections; a dead client just
    /// loses its responses, it cannot stall or crash the service.
    fn route(writers: &Mutex<HashMap<ConnId, UnixStream>>, responses: Vec<(ConnId, String)>) {
        let mut writers = lock_writers(writers);
        let mut dead: Vec<ConnId> = Vec::new();
        for (conn, line) in responses {
            let Some(stream) = writers.get_mut(&conn) else { continue };
            if writeln!(stream, "{line}").is_err() {
                dead.push(conn);
            }
        }
        for conn in dead {
            writers.remove(&conn);
        }
    }
}
