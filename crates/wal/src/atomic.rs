//! Atomic whole-file replacement: the write-then-rename discipline shared
//! by the checkpoint journal, the tree snapshots, and pfserve's recovery
//! metadata. The destination is never in a torn state — a crash at any
//! instant leaves either the previous file or the complete new one.

use std::fs;
use std::io::Write;
use std::path::Path;

/// Write `bytes` to `tmp` and rename it over `dst`, syncing the file first
/// when `sync` is set. A reader never sees a half-written `dst` either
/// way, and with the sync neither does a crash; without it a machine
/// crash may leave the name on an empty or partial file, so only
/// artifacts whose readers verify a fingerprint and have a fallback
/// (pfserve's checkpoints under `--fsync never`) may skip it.
pub fn write_then_rename(tmp: &Path, dst: &Path, bytes: &[u8], sync: bool) -> std::io::Result<()> {
    {
        let mut f = fs::File::create(tmp)?;
        f.write_all(bytes)?;
        if sync {
            f.sync_all()?;
        }
    }
    fs::rename(tmp, dst)
}

/// Fsync a directory, best-effort: where the platform honours it, the
/// renames inside it are durable; where it does not, the worst case is
/// the previous file — never corruption.
pub fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Write `bytes` to `tmp`, fsync, atomically rename over `dst`, and
/// [`sync_dir`] the parent directory.
pub fn replace_file(tmp: &Path, dst: &Path, bytes: &[u8]) -> std::io::Result<()> {
    write_then_rename(tmp, dst, bytes, true)?;
    if let Some(dir) = dst.parent() {
        sync_dir(dir);
    }
    Ok(())
}

/// [`replace_file`] with the conventional sibling temp path
/// (`<dst>.tmp`, extension appended rather than replaced).
pub fn replace_file_auto(dst: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = dst.as_os_str().to_owned();
    tmp.push(".tmp");
    replace_file(Path::new(&tmp), dst, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_is_atomic_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("pfwal-atomic-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let dst = dir.join("artifact.bin");
        replace_file_auto(&dst, b"generation 1").unwrap();
        assert_eq!(fs::read(&dst).unwrap(), b"generation 1");
        replace_file_auto(&dst, b"generation 2, longer").unwrap();
        assert_eq!(fs::read(&dst).unwrap(), b"generation 2, longer");
        assert!(!dir.join("artifact.bin.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
