//! On-disk trace formats.
//!
//! Two formats are provided:
//!
//! * [`text`] — one whitespace-separated record per line
//!   (`<block> [pid] [R|W]`), comment lines starting with `#`. Easy to
//!   inspect and to hand-write in tests, and compatible with typical
//!   published block-trace dumps.
//! * [`binary`] — a compact little-endian format with a magic header and a
//!   record count, using varint block deltas; roughly 2-4 bytes per record
//!   for realistic traces. Truncation and corruption are detected and
//!   reported as errors, never panics.
//!
//! Each format has one reader, the streaming [`TextSource`] /
//! [`BinarySource`]; [`read_text`], [`read_binary`] and [`load`] are that
//! source, materialized. [`ReadOptions`] selects the lenient mode, which
//! skips malformed records and counts them in
//! [`TraceSource::skipped`] — for traces converted from external dumps;
//! the strict default fails on the first malformed record.

pub mod binary;
pub mod error;
pub mod text;

pub use binary::{read_binary, write_binary, BinarySource};
pub use error::TraceIoError;
pub use text::{read_text, write_text, ReadOptions, TextSource};

use crate::source::TraceSource;
use crate::Trace;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

/// Open a trace file as a streaming [`TraceSource`], picking the format
/// from the file extension (`.trc` → binary, anything else → text).
/// Memory use is independent of the trace length.
pub fn open_source(path: &Path, opts: ReadOptions) -> Result<Box<dyn TraceSource>, TraceIoError> {
    let reader = BufReader::new(File::open(path)?);
    Ok(if path.extension().is_some_and(|e| e == "trc") {
        Box::new(BinarySource::with_options(reader, opts)?)
    } else {
        Box::new(TextSource::with_options(reader, opts)?)
    })
}

/// Load a trace, picking the format from the file extension
/// (`.trc` → binary, anything else → text).
pub fn load(path: &Path) -> Result<Trace, TraceIoError> {
    open_source(path, ReadOptions { strict: true })?.materialize()
}

/// Save a trace, picking the format from the file extension
/// (`.trc` → binary, anything else → text).
pub fn save(trace: &Trace, path: &Path) -> Result<(), TraceIoError> {
    let file = std::fs::File::create(path)?;
    let mut writer = std::io::BufWriter::new(file);
    if path.extension().is_some_and(|e| e == "trc") {
        write_binary(trace, &mut writer)
    } else {
        write_text(trace, &mut writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    #[test]
    fn round_trip_by_extension() {
        let dir = std::env::temp_dir().join("prefetch-trace-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = Trace::from_blocks([3u64, 1, 4, 1, 5, 9, 2, 6]);

        let bin = dir.join("t.trc");
        save(&trace, &bin).unwrap();
        let back = load(&bin).unwrap();
        assert_eq!(back.records(), trace.records());

        let txt = dir.join("t.txt");
        save(&trace, &txt).unwrap();
        let back = load(&txt).unwrap();
        assert_eq!(back.records(), trace.records());
    }

    #[test]
    fn load_missing_file_is_an_error() {
        let err = load(Path::new("/nonexistent/definitely/missing.trc"));
        assert!(err.is_err());
    }

    #[test]
    fn open_source_streams_both_formats() {
        let dir = std::env::temp_dir().join("prefetch-trace-io-source-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut trace = Trace::from_blocks([3u64, 1, 4, 1, 5, 9, 2, 6]);
        trace.meta_mut().name = "pi".into();

        for name in ["t.trc", "t.txt"] {
            let path = dir.join(name);
            save(&trace, &path).unwrap();
            let mut src = open_source(&path, ReadOptions::default()).unwrap();
            let back = src.materialize().unwrap();
            assert_eq!(back, trace, "{name}");
            assert_eq!(src.skipped(), 0);
            // Rewind works through the box too.
            src.rewind().unwrap();
            assert_eq!(src.next_record().unwrap().unwrap().block.0, 3);
        }
    }
}
