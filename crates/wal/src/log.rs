//! The append-only log writer and its group-commit policy.

use crate::fault::{AppendFault, WriteFaults};
use crate::record::{encode_record, file_header, FILE_HEADER_LEN};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// When group commits fsync the dirty logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync at every commit point (durability = everything acknowledged).
    Always,
    /// Never sync during operation (the OS flushes when it pleases).
    Never,
    /// Sync once every `n` appended records.
    EveryN(u64),
    /// Sync when at least this many milliseconds passed since the last.
    IntervalMs(u64),
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
/// The writer tracks how many appends happened since the last [`sync`]
/// (`AppendLog::dirty`); the owner decides when to sync (group commit via
/// [`GroupCommit`], or explicitly at close/drain). Injected faults
/// ([`WriteFaults`]) sabotage individual operations deterministically.
///
/// [`sync`]: AppendLog::sync
pub struct AppendLog {
    path: PathBuf,
    file: File,
    len: u64,
    appends: u64,
    syncs: u64,
    dirty: u64,
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

    /// Logical file length (header + every appended record).
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

    /// Append one record. On error (real I/O or injected short write) the
    /// log must be considered broken — the file may hold a torn tail that
    /// only a fresh [`crate::scan`] + [`AppendLog::resume`] can repair.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut buf = encode_record(payload);
        let index = self.appends;
        self.appends += 1;
        let fault = self.faults.as_mut().and_then(|f| f.on_append(index, buf.len()));
        match fault {
            Some(AppendFault::ShortWrite { keep }) => {
                let keep = keep.min(buf.len().saturating_sub(1));
                self.file.write_all(&buf[..keep])?;
                self.len += keep as u64;
                self.dirty += 1;
                Err(io::Error::other("injected short write"))
            }
            Some(AppendFault::BitFlip { bit }) => {
                let bit = bit as usize % (buf.len() * 8);
                buf[bit / 8] ^= 1 << (bit % 8);
                self.file.write_all(&buf)?;
                self.len += buf.len() as u64;
                self.dirty += 1;
                Ok(())
            }
            None => {
                self.file.write_all(&buf)?;
                self.len += buf.len() as u64;
                self.dirty += 1;
                Ok(())
            }
        }
    }

    /// Make every appended record durable (no-op when nothing is dirty).
    pub fn sync(&mut self) -> io::Result<()> {
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
    use crate::record::{scan, Tail};

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
        // Simulate a crash mid-append: raw partial record bytes.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[7, 0, 0, 0, 1, 2]).unwrap(); // len=7, half a fingerprint
        drop(f);
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

    #[test]
    fn injected_short_write_leaves_a_resumable_torn_tail() {
        let path = tmp("short.wal");
        let mut log = AppendLog::create(&path).unwrap();
        log.append(b"good").unwrap();
        log.set_faults(Some(Box::new(OneShot(1, AppendFault::ShortWrite { keep: 5 }))));
        assert!(log.append(b"doomed record").is_err());
        drop(log);
        let s = scan(&path).unwrap();
        assert!(matches!(s.tail, Tail::Torn { .. }), "{:?}", s.tail);
        assert_eq!(s.records, vec![b"good".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_bit_flip_is_caught_by_the_fingerprint() {
        let path = tmp("flip.wal");
        let mut log = AppendLog::create(&path).unwrap();
        log.append(b"good").unwrap();
        // Flip a payload bit of the second record (header is 12 bytes).
        log.set_faults(Some(Box::new(OneShot(1, AppendFault::BitFlip { bit: 12 * 8 + 3 }))));
        log.append(b"silently damaged").unwrap();
        log.sync().unwrap();
        drop(log);
        let s = scan(&path).unwrap();
        assert!(matches!(s.tail, Tail::Corrupt { .. }), "{:?}", s.tail);
        assert_eq!(s.records, vec![b"good".to_vec()]);
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
}
