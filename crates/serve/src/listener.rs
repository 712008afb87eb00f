//! Front ends feeding request lines into a [`Service`].
//!
//! Two listeners share one service core, `Service::process_lines`:
//!
//! * **stdin** — [`run_stdin`], which is [`run_stream`] over standard
//!   input and output: reads request lines in batches and writes each
//!   batch's responses with one write; `SHUTDOWN` or EOF drains. This is
//!   the mode the load generator and the CI chaos job use.
//! * **unix socket** — accepts any number of client connections on a
//!   `SOCK_STREAM` unix socket; each connection gets a reader thread that
//!   sends chunks of whole lines tagged with its
//!   [`ConnId`](crate::ConnId), so responses route back to the right
//!   client. The accept/dispatch loop is single-threaded; the
//!   parallelism lives in the service's batch flush.
//!
//! Either way a batch is read into one reused `LineBuf` and answered
//! into another, and each connection gets its share of the answers in one
//! write: nothing on the line path is allocated per line.
//!
//! Listener failures are their own fault domain: a client disconnecting
//! mid-request or a write to a closed socket never takes down the
//! service — the connection is dropped and the remaining clients keep
//! streaming.

use crate::lines::LineBuf;
use crate::service::Service;
use std::io::{self, BufRead, Write};

/// How often the service emits a live `serve_stats` telemetry record.
const STATS_EVERY_BATCHES: u64 = 64;

/// Drive the service from stdin, writing responses to stdout. Returns
/// when the input ends or a `SHUTDOWN` request drains the service.
pub fn run_stdin(service: &mut Service, batch: usize) -> io::Result<()> {
    let stdout = io::stdout();
    let served = run_stream(service, io::stdin().lock(), io::BufWriter::new(stdout.lock()), batch);
    prefetch_telemetry::log::flush();
    served
}

/// Drive the service from `input`, `batch` lines at a time (a batch of 0
/// is a batch of 1), writing each batch's responses to `output` with one
/// write and a flush. Returns when the input ends or a `SHUTDOWN` request
/// drains the service; lines behind a `SHUTDOWN` in its own batch are
/// answered, later ones are not read. `\n` or `\r\n` ends a line, a last
/// line may lack it, and a line that is not UTF-8 draws `ERR parse`.
pub fn run_stream(
    service: &mut Service,
    mut input: impl BufRead,
    mut output: impl Write,
    batch: usize,
) -> io::Result<()> {
    let (mut lines, mut out) = (LineBuf::new(), LineBuf::new());
    while lines.read_line(0, &mut input)? {
        if lines.len() >= batch {
            pump(service, &mut lines, &mut out, &mut output)?;
            if service.shutdown_requested() {
                break;
            }
        }
    }
    if !service.shutdown_requested() && !lines.is_empty() {
        pump(service, &mut lines, &mut out, &mut output)?;
    }
    for line in service.drain() {
        writeln!(output, "{line}")?;
    }
    output.flush()
}

fn pump(
    service: &mut Service,
    lines: &mut LineBuf,
    out: &mut LineBuf,
    output: &mut impl Write,
) -> io::Result<()> {
    service.process_lines(lines, out);
    lines.clear();
    output.write_all(out.as_bytes())?;
    out.clear();
    output.flush()?;
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
    use crate::service::ConnId;
    use prefetch_telemetry::log as tlog;
    use std::collections::HashMap;
    use std::io::Read;
    use std::net::Shutdown;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::Path;
    use std::sync::mpsc::{self, SyncSender};
    use std::thread::JoinHandle;
    use std::time::Duration;

    /// What a reader thread reports to the dispatch loop.
    enum Inbound {
        /// Whole lines from one connection; the last lacks its `\n` only
        /// when the client ended mid-line.
        Lines(ConnId, Vec<u8>),
        Hangup(ConnId),
    }

    /// A connected client: its write half, its reader thread, and its
    /// share of the batch being answered.
    struct Client {
        stream: UnixStream,
        reader: JoinHandle<()>,
        out: Vec<u8>,
    }

    impl Client {
        /// End the connection and wait for its reader, which then reads
        /// the end of its input. The reader must not be blocked sending:
        /// call this once its hangup has arrived, or once the receiving
        /// end of the channel is gone.
        fn close(self) {
            let _ = self.stream.shutdown(Shutdown::Both);
            if self.reader.join().is_err() {
                tlog::warn("serve_reader_panicked").emit();
            }
        }
    }

    /// Serve on a unix socket at `path` until a `SHUTDOWN` request.
    ///
    /// One reader thread per connection feeds a single dispatch loop
    /// that batches up to `batch` lines (or whatever arrived within the
    /// batching window) into each `process_lines` call. A client that
    /// hangs up still gets the answers to every line it sent.
    pub fn run_unix(service: &mut Service, path: &Path, batch: usize) -> io::Result<()> {
        // A stale socket file from a killed process must not block
        // restart — that is the crash-recovery path the chaos job tests.
        match std::fs::remove_file(path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let cap = batch.max(1);
        let (tx, rx) = mpsc::sync_channel::<Inbound>(cap * 4);
        let mut clients: HashMap<ConnId, Client> = HashMap::new();
        let mut next_conn: ConnId = 1;
        let (mut lines, mut out) = (LineBuf::new(), LineBuf::new());
        // A chunk the last batch could not take whole, and where its
        // untaken lines start.
        let mut carry: Option<(ConnId, Vec<u8>, usize)> = None;

        loop {
            // Accept whatever is waiting (non-blocking).
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let conn = next_conn;
                        next_conn += 1;
                        let input = stream.try_clone()?;
                        let tx = tx.clone();
                        let reader = std::thread::spawn(move || read_chunks(conn, input, &tx));
                        clients.insert(conn, Client { stream, reader, out: Vec::new() });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }

            // Gather a batch (bounded wait so accepts stay responsive). A
            // hangup ends it: the lines before it are answered while the
            // client is still registered.
            let deadline = Duration::from_millis(20);
            let mut hangup = None;
            while lines.len() < cap {
                let (conn, chunk, at) = match carry.take() {
                    Some(carried) => carried,
                    None => match rx.recv_timeout(deadline) {
                        Ok(Inbound::Lines(conn, chunk)) => (conn, chunk, 0),
                        Ok(Inbound::Hangup(conn)) => {
                            hangup = Some(conn);
                            break;
                        }
                        Err(_) => break,
                    },
                };
                let at = lines.push_lines(conn, &chunk, at, cap);
                if at < chunk.len() {
                    carry = Some((conn, chunk, at));
                }
            }

            if !lines.is_empty() {
                service.process_lines(&lines, &mut out);
                lines.clear();
                route(&mut clients, &out);
                out.clear();
                if service.stats.batches.is_multiple_of(STATS_EVERY_BATCHES) {
                    service.log_live_stats();
                }
            }
            if let Some(client) = hangup.and_then(|conn| clients.remove(&conn)) {
                client.close();
            }
            if service.shutdown_requested() {
                break;
            }
        }

        // Graceful drain: the final reports go to every still-connected
        // client (each gets the complete picture).
        let mut finals = Vec::new();
        for line in service.drain() {
            finals.extend_from_slice(line.as_bytes());
            finals.push(b'\n');
        }
        // A reader still sending gives up once the receiver is gone.
        drop(rx);
        for (_, mut client) in clients.drain() {
            let _ = client.stream.write_all(&finals);
            client.close();
        }
        let _ = std::fs::remove_file(path);
        prefetch_telemetry::log::flush();
        Ok(())
    }

    /// A connection's reader thread: forward whatever arrives as chunks
    /// of whole lines, then the hangup. A read error ends the connection
    /// like a hangup, losing only the line it cut.
    fn read_chunks(conn: ConnId, mut stream: UnixStream, tx: &SyncSender<Inbound>) {
        let mut buf = [0u8; 64 * 1024];
        let mut pending: Vec<u8> = Vec::new();
        loop {
            match stream.read(&mut buf) {
                Ok(0) => {
                    if !pending.is_empty() && tx.send(Inbound::Lines(conn, pending)).is_err() {
                        return;
                    }
                    break;
                }
                Ok(n) => {
                    pending.extend_from_slice(&buf[..n]);
                    if let Some(last) = pending.iter().rposition(|&b| b == b'\n') {
                        let rest = pending.split_off(last + 1);
                        let whole = std::mem::replace(&mut pending, rest);
                        if tx.send(Inbound::Lines(conn, whole)).is_err() {
                            return;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        let _ = tx.send(Inbound::Hangup(conn));
    }

    /// Write each client its share of the batch's responses in one write.
    /// A client whose write fails loses its responses and cannot crash
    /// the service: its connection is shut down, so its reader reports
    /// the hangup that drops it.
    fn route(clients: &mut HashMap<ConnId, Client>, responses: &LineBuf) {
        for (conn, line) in responses.iter() {
            if let Some(client) = clients.get_mut(&conn) {
                client.out.extend_from_slice(line);
                client.out.push(b'\n');
            }
        }
        for client in clients.values_mut() {
            if !client.out.is_empty() && client.stream.write_all(&client.out).is_err() {
                let _ = client.stream.shutdown(Shutdown::Both);
            }
            client.out.clear();
        }
    }
}
