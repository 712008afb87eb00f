//! The append-only log writer and its group-commit policy.

use crate::fault::{AppendFault, WriteFaults};
use crate::record::{file_header, push_record_with, FILE_HEADER_LEN};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// When group commits fsync the dirty logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync at every commit point (durability = everything acknowledged).
    Always,
    /// Never sync during operation — no log, no checkpoint file, no
    /// directory (the OS writes back when it pleases); only an explicit
    /// close or drain syncs.
    Never,
    /// Sync once every `n` appended records.
    EveryN(u64),
    /// Sync when at least this many milliseconds passed since the last.
    IntervalMs(u64),
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    /// The one `--fsync` grammar: `always`, `never`, `every-n=N`,
    /// `interval-ms=N`.
    fn from_str(s: &str) -> Result<Self, String> {
        let count = |v: &str| {
            v.parse::<u64>().map_err(|_| format!("fsync policy {s:?}: {v:?} is not a count"))
        };
        match s.split_once('=') {
            None if s == "always" => Ok(FsyncPolicy::Always),
            None if s == "never" => Ok(FsyncPolicy::Never),
            Some(("every-n", n)) => Ok(FsyncPolicy::EveryN(count(n)?)),
            Some(("interval-ms", ms)) => Ok(FsyncPolicy::IntervalMs(count(ms)?)),
            _ => {
                Err(format!("fsync policy {s:?} must be always, never, every-n=N or interval-ms=N"))
            }
        }
    }
}

/// Tracks appends across a set of logs and decides, at each commit
/// point, whether the policy calls for an fsync pass.
#[derive(Debug)]
pub struct GroupCommit {
    policy: FsyncPolicy,
    pending: u64,
    last_sync: Instant,
}

impl GroupCommit {
    /// A fresh tracker (counts from zero, interval from now).
    pub fn new(policy: FsyncPolicy) -> Self {
        GroupCommit { policy, pending: 0, last_sync: Instant::now() }
    }

    /// The policy this tracker enforces.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Record `appended` new records since the last call.
    pub fn note(&mut self, appended: u64) {
        self.pending += appended;
    }

    /// Whether a sync pass is due now; resets the counters when it is.
    pub fn due(&mut self) -> bool {
        if self.pending == 0 {
            return false;
        }
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Never => false,
            FsyncPolicy::EveryN(n) => self.pending >= n.max(1),
            FsyncPolicy::IntervalMs(ms) => self.last_sync.elapsed().as_millis() as u64 >= ms,
        };
        if due {
            self.pending = 0;
            self.last_sync = Instant::now();
        }
        due
    }
}

/// An append-only record log (see [`crate::record`] for the format).
///
/// [`append`] only *stages*: the record is encoded into a buffer the log
/// owns, and nothing reaches the file until [`flush`] writes every staged
/// record with one `write_all`. The owner decides when to flush (before
/// it acts on what it logged) and when to [`sync`] (group commit via
/// [`GroupCommit`], or explicitly at close/drain); `AppendLog::dirty`
/// counts the appends since the last sync. Dropping the log discards
/// what is staged, exactly as a crash would. Injected faults
/// ([`WriteFaults`]) sabotage individual operations deterministically.
///
/// [`append`]: AppendLog::append
/// [`flush`]: AppendLog::flush
/// [`sync`]: AppendLog::sync
pub struct AppendLog {
    path: PathBuf,
    file: File,
    len: u64,
    appends: u64,
    syncs: u64,
    dirty: u64,
    /// The records appended since the last flush, back to back.
    staged: Vec<u8>,
    /// Why the log is broken, once it is: an injected short write left a
    /// partial record at the end of `staged`, or a flush failed. A torn
    /// log refuses appends and fails every flush.
    torn: Option<&'static str>,
    faults: Option<Box<dyn WriteFaults>>,
}

impl std::fmt::Debug for AppendLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppendLog")
            .field("path", &self.path)
            .field("len", &self.len)
            .field("dirty", &self.dirty)
            .finish()
    }
}

impl AppendLog {
    /// Create (or truncate) the log at `path` and write a fresh header.
    pub fn create(path: &Path) -> io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(&file_header())?;
        Ok(AppendLog {
            path: path.to_path_buf(),
            file,
            len: FILE_HEADER_LEN as u64,
            appends: 0,
            syncs: 0,
            dirty: 1, // the header itself is not yet durable
            staged: Vec::new(),
            torn: None,
            faults: None,
        })
    }

    /// Reopen an existing log for appending, truncating to `valid_len`
    /// (from a [`crate::scan`] — drops any torn tail). A `valid_len` of
    /// zero recreates the file, header included.
    pub fn resume(path: &Path, valid_len: u64) -> io::Result<Self> {
        if valid_len < FILE_HEADER_LEN as u64 {
            return Self::create(path);
        }
        // Append mode: every write lands at EOF, which after the
        // truncation is exactly `valid_len`.
        let file = OpenOptions::new().append(true).open(path)?;
        file.set_len(valid_len)?;
        Ok(AppendLog {
            path: path.to_path_buf(),
            file,
            len: valid_len,
            appends: 0,
            syncs: 0,
            dirty: 1, // the truncation is not yet durable
            staged: Vec::new(),
            torn: None,
            faults: None,
        })
    }

    /// Install a deterministic fault stream (tests only).
    pub fn set_faults(&mut self, faults: Option<Box<dyn WriteFaults>>) {
        self.faults = faults;
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Logical file length (header + every appended record, flushed or
    /// still staged).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records beyond the header.
    pub fn is_empty(&self) -> bool {
        self.len <= FILE_HEADER_LEN as u64
    }

    /// Operations (appends or truncations) since the last successful sync.
    pub fn dirty(&self) -> u64 {
        self.dirty
    }

    /// Successful syncs over this log's lifetime.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Stage one record. No I/O happens here: the record reaches the file
    /// at the next [`AppendLog::flush`]. Fails only on a torn log.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        self.append_with(|buf| buf.extend_from_slice(payload))
    }

    /// [`AppendLog::append`] for a payload rendered in place: `render`
    /// pushes the payload bytes onto the buffer it is handed (and must
    /// only extend it).
    pub fn append_with(&mut self, render: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        if let Some(why) = self.torn {
            return Err(io::Error::other(why));
        }
        let start = self.staged.len();
        let mut len = push_record_with(&mut self.staged, render);
        let index = self.appends;
        self.appends += 1;
        // A fault damages this record's bytes only; what was staged
        // before it reaches the file intact.
        match self.faults.as_mut().and_then(|f| f.on_append(index, len)) {
            Some(AppendFault::ShortWrite { keep }) => {
                len = keep.min(len - 1);
                self.staged.truncate(start + len);
                self.torn = Some("injected short write");
            }
            Some(AppendFault::BitFlip { bit }) => {
                let bit = bit as usize % (len * 8);
                self.staged[start + bit / 8] ^= 1 << (bit % 8);
            }
            None => {}
        }
        self.len += len as u64;
        self.dirty += 1;
        Ok(())
    }

    /// Write every staged record with one `write_all`. On error (real
    /// I/O, or an injected short write whose prefix was the last thing
    /// written) the log must be considered broken — the file may hold a
    /// torn tail that only a fresh [`crate::scan`] + [`AppendLog::resume`]
    /// can repair.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.staged.is_empty() {
            let written = self.file.write_all(&self.staged);
            self.staged.clear();
            if let Err(e) = written {
                self.torn = Some("an earlier flush failed");
                return Err(e);
            }
        }
        self.torn.map_or(Ok(()), |why| Err(io::Error::other(why)))
    }

    /// Flush, then make every appended record durable (no sync when
    /// nothing is dirty).
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        if self.dirty == 0 {
            return Ok(());
        }
        let index = self.syncs;
        if self.faults.as_mut().is_some_and(|f| f.on_sync(index)) {
            return Err(io::Error::other("injected fsync error"));
        }
        self.file.sync_data()?;
        self.syncs += 1;
        self.dirty = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{scan, scan_bytes, Tail};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pfwal-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_scan_roundtrip_and_resume() {
        let path = tmp("roundtrip.wal");
        let mut log = AppendLog::create(&path).unwrap();
        log.append(b"one").unwrap();
        log.append(b"two").unwrap();
        log.sync().unwrap();
        assert_eq!(log.syncs(), 1);
        let valid = {
            let s = scan(&path).unwrap();
            assert_eq!(s.tail, Tail::Clean);
            assert_eq!(s.records, vec![b"one".to_vec(), b"two".to_vec()]);
            s.valid_len
        };
        drop(log);
        let mut log = AppendLog::resume(&path, valid).unwrap();
        log.append(b"three").unwrap();
        log.sync().unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_truncates_a_torn_tail() {
        let path = tmp("torn.wal");
        let mut log = AppendLog::create(&path).unwrap();
        log.append(b"kept").unwrap();
        log.sync().unwrap();
        // Simulate a crash mid-flush: raw partial record bytes.
        let mut image = std::fs::read(&path).unwrap();
        image.extend_from_slice(&[7, 0, 0, 0, 1, 2]); // len=7, half a fingerprint
        std::fs::write(&path, image).unwrap();
        let s = scan(&path).unwrap();
        assert!(matches!(s.tail, Tail::Torn { .. }));
        assert_eq!(s.records, vec![b"kept".to_vec()]);
        let mut log = AppendLog::resume(&path, s.valid_len).unwrap();
        log.append(b"after").unwrap();
        log.sync().unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.tail, Tail::Clean);
        assert_eq!(s.records, vec![b"kept".to_vec(), b"after".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    struct OneShot(u64, AppendFault);
    impl WriteFaults for OneShot {
        fn on_append(&mut self, index: u64, _len: usize) -> Option<AppendFault> {
            (index == self.0).then_some(self.1)
        }
        fn on_sync(&mut self, _index: u64) -> bool {
            false
        }
    }

    /// Four records staged into one flush, the fault keyed to the third.
    fn flush_four_with(path: &Path, fault: AppendFault) -> (AppendLog, io::Result<()>) {
        let mut log = AppendLog::create(path).unwrap();
        log.set_faults(Some(Box::new(OneShot(2, fault))));
        for payload in [&b"zero"[..], b"one", b"the damaged record"] {
            log.append(payload).unwrap();
        }
        let fourth = log.append(b"three");
        let _ = log.flush();
        (log, fourth)
    }

    #[test]
    fn injected_short_write_leaves_a_resumable_torn_tail() {
        let path = tmp("short.wal");
        let (mut log, fourth) = flush_four_with(&path, AppendFault::ShortWrite { keep: 5 });
        // Nothing is staged behind a torn record, and the log stays broken.
        assert!(fourth.is_err());
        assert!(log.flush().is_err());
        assert!(log.sync().is_err());
        drop(log);
        // The records ahead of the fault reached the file whole; the
        // five-byte prefix was the last thing written.
        let s = scan(&path).unwrap();
        assert_eq!(s.tail, Tail::Torn { at: s.valid_len, dropped: 5 });
        assert_eq!(s.records, vec![b"zero".to_vec(), b"one".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_bit_flip_is_caught_by_the_fingerprint() {
        let path = tmp("flip.wal");
        // Flip a payload bit of the third record (header is 12 bytes).
        let (log, fourth) = flush_four_with(&path, AppendFault::BitFlip { bit: 12 * 8 + 3 });
        assert!(fourth.is_ok(), "a silent flip fails nothing");
        drop(log);
        let s = scan(&path).unwrap();
        assert!(matches!(s.tail, Tail::Corrupt { .. }), "{:?}", s.tail);
        assert_eq!(s.records, vec![b"zero".to_vec(), b"one".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    /// The write shape: a flush is one buffer of whole records, so a crash
    /// anywhere inside it leaves exactly the records that fit, and a tail
    /// the scan calls torn — never corrupt.
    #[test]
    fn a_flush_cut_at_every_byte_scans_to_its_whole_record_prefix() {
        let path = tmp("cut.wal");
        let mut log = AppendLog::create(&path).unwrap();
        let payloads: Vec<Vec<u8>> =
            (1..=6u8).map(|i| vec![b'a' + i; usize::from(i) * 3]).collect();
        let mut ends = Vec::new();
        for payload in &payloads {
            log.append(payload).unwrap();
            ends.push(log.len() as usize);
        }
        assert_eq!(std::fs::read(&path).unwrap().len(), FILE_HEADER_LEN, "append only stages");
        log.flush().unwrap();
        let image = std::fs::read(&path).unwrap();
        assert_eq!(image.len() as u64, log.len());
        for cut in FILE_HEADER_LEN..=image.len() {
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            let valid = if whole == 0 { FILE_HEADER_LEN } else { ends[whole - 1] };
            let s = scan_bytes(&image[..cut]);
            assert_eq!(s.records[..], payloads[..whole], "cut at {cut}");
            assert_eq!(s.valid_len, valid as u64, "cut at {cut}");
            let tail = if cut == valid {
                Tail::Clean
            } else {
                Tail::Torn { at: valid as u64, dropped: (cut - valid) as u64 }
            };
            assert_eq!(s.tail, tail, "cut at {cut}");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A drop is a crash: what was staged is gone, what was flushed scans
    /// clean, and the log resumes where the file ends.
    #[test]
    fn dropping_staged_records_leaves_a_clean_resumable_file() {
        let path = tmp("dropped.wal");
        let mut log = AppendLog::create(&path).unwrap();
        log.append(b"flushed").unwrap();
        log.flush().unwrap();
        log.append(b"staged").unwrap();
        log.append(b"staged too").unwrap();
        drop(log);
        let s = scan(&path).unwrap();
        assert_eq!(s.tail, Tail::Clean);
        assert_eq!(s.records, vec![b"flushed".to_vec()]);
        let mut log = AppendLog::resume(&path, s.valid_len).unwrap();
        log.append(b"after").unwrap();
        log.sync().unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.tail, Tail::Clean);
        assert_eq!(s.records, vec![b"flushed".to_vec(), b"after".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    struct FailSync;
    impl WriteFaults for FailSync {
        fn on_append(&mut self, _index: u64, _len: usize) -> Option<AppendFault> {
            None
        }
        fn on_sync(&mut self, _index: u64) -> bool {
            true
        }
    }

    #[test]
    fn injected_fsync_error_surfaces_without_corrupting() {
        let path = tmp("fsync.wal");
        let mut log = AppendLog::create(&path).unwrap();
        log.set_faults(Some(Box::new(FailSync)));
        log.append(b"record").unwrap();
        assert!(log.sync().is_err());
        assert_eq!(log.syncs(), 0);
        let s = scan(&path).unwrap();
        assert_eq!(s.records, vec![b"record".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_policies() {
        let mut always = GroupCommit::new(FsyncPolicy::Always);
        always.note(1);
        assert!(always.due());
        assert!(!always.due()); // nothing pending

        let mut never = GroupCommit::new(FsyncPolicy::Never);
        never.note(1_000_000);
        assert!(!never.due());

        let mut every = GroupCommit::new(FsyncPolicy::EveryN(10));
        every.note(4);
        assert!(!every.due());
        every.note(6);
        assert!(every.due());
        assert!(!every.due());

        let mut interval = GroupCommit::new(FsyncPolicy::IntervalMs(3_600_000));
        interval.note(5);
        assert!(!interval.due(), "an hour has not passed");
        let mut instant = GroupCommit::new(FsyncPolicy::IntervalMs(0));
        instant.note(1);
        assert!(instant.due());
    }

    #[test]
    fn fsync_policy_parses_one_grammar() {
        for (text, policy) in [
            ("always", FsyncPolicy::Always),
            ("never", FsyncPolicy::Never),
            ("every-n=64", FsyncPolicy::EveryN(64)),
            ("interval-ms=250", FsyncPolicy::IntervalMs(250)),
        ] {
            assert_eq!(text.parse(), Ok(policy), "{text}");
        }
        for bad in ["", "Always", "every-n", "every-n=x", "interval-ms=-1", "always=1", "64"] {
            assert!(bad.parse::<FsyncPolicy>().is_err(), "{bad:?} must not parse");
        }
    }
}
