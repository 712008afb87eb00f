//! Text trace format.
//!
//! One record per line: `<block> [pid] [R|W]`. Missing fields default to
//! `pid = 0`, `R`. Lines starting with `#` are comments; a leading
//! `#!meta ` comment carries the JSON-encoded [`crate::TraceMeta`].

use crate::io::TraceIoError;
use crate::record::{AccessKind, TraceRecord};
use crate::source::TraceSource;
use crate::{Trace, TraceMeta};
use std::io::{BufRead, Seek, SeekFrom, Write};

const META_PREFIX: &str = "#!meta ";

/// Serialize `trace` as text.
pub fn write_text<W: Write>(trace: &Trace, w: &mut W) -> Result<(), TraceIoError> {
    let meta_json = meta_to_json(trace.meta());
    writeln!(w, "{META_PREFIX}{meta_json}")?;
    for r in trace.records() {
        let kind = match r.kind {
            AccessKind::Read => 'R',
            AccessKind::Write => 'W',
        };
        writeln!(w, "{} {} {}", r.block.0, r.pid, kind)?;
    }
    w.flush()?;
    Ok(())
}

/// How strictly a reader treats malformed input.
///
/// The strict mode (the default) fails on the first malformed record —
/// right for traces this crate wrote itself. The lenient mode skips
/// malformed records and reports how many were dropped — right for traces
/// converted from external dumps, where a handful of mangled lines should
/// not discard millions of good records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadOptions {
    /// Fail on the first malformed record instead of skipping it.
    pub strict: bool,
}

impl Default for ReadOptions {
    fn default() -> Self {
        ReadOptions { strict: true }
    }
}

/// Parse a whole text trace (strict: the first malformed line is an
/// error): a [`TextSource`], materialized.
pub fn read_text<R: BufRead + Seek>(r: &mut R) -> Result<Trace, TraceIoError> {
    TextSource::new(r)?.materialize()
}

/// An incremental [`TraceSource`] over a text-format reader: records are
/// decoded one line at a time, so memory stays independent of trace length.
///
/// Construction consumes the leading header (comments and a `#!meta` line)
/// so [`TraceSource::meta`] is available before the first record; `#!meta`
/// lines appearing later in the file refine the metadata as they stream
/// past. In lossy mode malformed lines (and a malformed `#!meta` header)
/// are skipped and counted rather than fatal; I/O errors are always fatal.
/// Rewinding seeks back to the first record and resets the per-pass
/// [`TraceSource::skipped`] counter to the header's count.
pub struct TextSource<R> {
    reader: R,
    opts: ReadOptions,
    meta: TraceMeta,
    /// Byte offset of the first record line (after the leading header).
    data_start: u64,
    /// Lines consumed by the header scan, and the count skipped in it —
    /// the rewind baselines for `line_no` / `skipped`.
    header_lines: usize,
    header_skipped: u64,
    line_no: usize,
    skipped: u64,
    fused: bool,
    line: String,
}

impl<R: BufRead + Seek> TextSource<R> {
    /// A strict streaming reader over `reader` (positioned at the start of
    /// a text-format trace).
    pub fn new(reader: R) -> Result<Self, TraceIoError> {
        Self::with_options(reader, ReadOptions::default())
    }

    /// A streaming reader with explicit [`ReadOptions`].
    pub fn with_options(mut reader: R, opts: ReadOptions) -> Result<Self, TraceIoError> {
        let mut meta = TraceMeta::default();
        let mut pos = reader.stream_position()?;
        let mut line = String::new();
        let mut line_no = 0usize;
        let mut skipped = 0u64;
        loop {
            line.clear();
            let n = reader.read_line(&mut line)?;
            if n == 0 {
                break;
            }
            let trimmed = line.trim();
            if let Some(meta_json) = trimmed.strip_prefix(META_PREFIX) {
                match meta_from_json(meta_json) {
                    Ok(m) => meta = m,
                    Err(e) if opts.strict => return Err(e),
                    Err(_) => skipped += 1,
                }
            } else if !trimmed.is_empty() && !trimmed.starts_with('#') {
                // First record line: leave it for streaming.
                reader.seek(SeekFrom::Start(pos))?;
                break;
            }
            line_no += 1;
            pos += n as u64;
        }
        Ok(TextSource {
            reader,
            opts,
            meta,
            data_start: pos,
            header_lines: line_no,
            header_skipped: skipped,
            line_no,
            skipped,
            fused: false,
            line,
        })
    }
}

impl<R: BufRead + Seek> TraceSource for TextSource<R> {
    fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Unknown: the text format carries no record count.
    fn len_hint(&self) -> Option<u64> {
        None
    }

    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceIoError> {
        if self.fused {
            return Ok(None);
        }
        loop {
            self.line.clear();
            let n = match self.reader.read_line(&mut self.line) {
                Ok(n) => n,
                Err(e) => {
                    self.fused = true;
                    return Err(e.into());
                }
            };
            if n == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            let trimmed = self.line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if let Some(meta_json) = trimmed.strip_prefix(META_PREFIX) {
                match meta_from_json(meta_json) {
                    Ok(m) => self.meta = m,
                    Err(e) if self.opts.strict => {
                        self.fused = true;
                        return Err(e);
                    }
                    Err(_) => self.skipped += 1,
                }
                continue;
            }
            if trimmed.starts_with('#') {
                continue;
            }
            match parse_line(trimmed, self.line_no) {
                Ok(rec) => return Ok(Some(rec)),
                Err(e) if self.opts.strict => {
                    self.fused = true;
                    return Err(e);
                }
                Err(_) => self.skipped += 1,
            }
        }
    }

    fn rewind(&mut self) -> Result<(), TraceIoError> {
        self.reader.seek(SeekFrom::Start(self.data_start))?;
        self.line_no = self.header_lines;
        self.skipped = self.header_skipped;
        self.fused = false;
        Ok(())
    }

    fn skipped(&self) -> u64 {
        self.skipped
    }
}

fn parse_line(s: &str, line_no: usize) -> Result<TraceRecord, TraceIoError> {
    let bad = || TraceIoError::BadLine { line_no, line: s.to_string() };
    let mut parts = s.split_whitespace();
    let block: u64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let pid: u32 = match parts.next() {
        Some(p) => p.parse().map_err(|_| bad())?,
        None => 0,
    };
    let kind = match parts.next() {
        Some("R") | Some("r") | None => AccessKind::Read,
        Some("W") | Some("w") => AccessKind::Write,
        Some(_) => return Err(bad()),
    };
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok(TraceRecord { block: block.into(), pid, kind })
}

// Minimal hand-rolled JSON for TraceMeta so the text format has no
// dependency on a JSON crate in this library's public path. The format is a
// flat object with string/number/null fields.
pub(super) fn meta_to_json(m: &TraceMeta) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let l1 = m.l1_cache_bytes.map_or("null".to_string(), |v| v.to_string());
    let seed = m.seed.map_or("null".to_string(), |v| v.to_string());
    format!(
        "{{\"name\":\"{}\",\"description\":\"{}\",\"l1_cache_bytes\":{},\"seed\":{}}}",
        esc(&m.name),
        esc(&m.description),
        l1,
        seed
    )
}

pub(super) fn meta_from_json(s: &str) -> Result<TraceMeta, TraceIoError> {
    let mut meta = TraceMeta::default();
    let body = s
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or_else(|| TraceIoError::BadMeta(s.to_string()))?;
    // Split on commas that are not inside strings.
    let mut fields = Vec::new();
    let mut depth_in_string = false;
    let mut start = 0usize;
    let bytes = body.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'"' if i == 0 || bytes[i - 1] != b'\\' => depth_in_string = !depth_in_string,
            b',' if !depth_in_string => {
                fields.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if start < body.len() {
        fields.push(&body[start..]);
    }
    for field in fields {
        let (k, v) =
            field.split_once(':').ok_or_else(|| TraceIoError::BadMeta(field.to_string()))?;
        let key = k.trim().trim_matches('"');
        let val = v.trim();
        let unesc = |s: &str| s.replace("\\\"", "\"").replace("\\\\", "\\");
        // Strip exactly one quote from each end; trim_matches would eat
        // escaped quotes at the value's edges.
        fn unquote(s: &str) -> &str {
            s.strip_prefix('"').and_then(|t| t.strip_suffix('"')).unwrap_or(s)
        }
        match key {
            "name" => meta.name = unesc(unquote(val)),
            "description" => meta.description = unesc(unquote(val)),
            "l1_cache_bytes" => {
                meta.l1_cache_bytes = if val == "null" {
                    None
                } else {
                    Some(val.parse().map_err(|_| TraceIoError::BadMeta(val.to_string()))?)
                }
            }
            "seed" => {
                meta.seed = if val == "null" {
                    None
                } else {
                    Some(val.parse().map_err(|_| TraceIoError::BadMeta(val.to_string()))?)
                }
            }
            _ => {} // forward compatible: ignore unknown keys
        }
    }
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const LOSSY: ReadOptions = ReadOptions { strict: false };

    fn read(src: &str) -> Result<Trace, TraceIoError> {
        read_text(&mut Cursor::new(src.as_bytes()))
    }

    #[test]
    fn round_trips_records_and_meta() {
        let mut t = Trace::from_blocks([10u64, 11, 12, 5]);
        t.meta_mut().name = "snake".into();
        t.meta_mut().description = "file \"server\"".into();
        t.meta_mut().l1_cache_bytes = Some(5 * 1024 * 1024);
        t.meta_mut().seed = Some(99);
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let back = read_text(&mut Cursor::new(&buf[..])).unwrap();
        assert_eq!(&t, &back);
    }

    #[test]
    fn parses_minimal_lines() {
        let src = "#!meta {\"name\":\"\",\"description\":\"\",\"l1_cache_bytes\":null,\"seed\":null}\n# comment\n\n42\n43 7\n44 7 W\n";
        let t = read(src).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.records()[0], TraceRecord::read(42u64));
        assert_eq!(t.records()[1], TraceRecord::read(43u64).with_pid(7));
        assert_eq!(t.records()[2].kind, AccessKind::Write);
    }

    #[test]
    fn works_without_meta_line() {
        let t = read("1\n2\n").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.meta().name, "");
    }

    #[test]
    fn rejects_garbage_lines() {
        for bad in ["abc", "1 2 X", "1 2 R extra", "-5"] {
            assert!(read(bad).is_err(), "line {bad:?} should be rejected");
        }
    }

    #[test]
    fn rejects_malformed_meta() {
        assert!(read("#!meta not-json\n1\n").is_err());
    }

    #[test]
    fn empty_input_is_empty_trace() {
        assert!(read("").unwrap().is_empty());
    }

    #[test]
    fn lossy_read_skips_bad_lines_and_counts_them() {
        let src = "# hdr\n1\nabc\n2\n1 2 X\n3\n-5\n";
        let mut source = TextSource::with_options(Cursor::new(src.as_bytes()), LOSSY).unwrap();
        let t = source.materialize().unwrap();
        assert_eq!(source.skipped(), 3);
        let blocks: Vec<u64> = t.records().iter().map(|r| r.block.0).collect();
        assert_eq!(blocks, [1, 2, 3]);
        // The skip counter is per-pass.
        source.rewind().unwrap();
        assert_eq!(source.materialize().unwrap(), t);
        assert_eq!(source.skipped(), 3);
        // The same input fails in strict mode.
        assert!(read(src).is_err());
    }

    #[test]
    fn lossy_read_survives_bad_meta() {
        let src = "#!meta not-json\n1\n2\n";
        let mut source = TextSource::with_options(Cursor::new(src.as_bytes()), LOSSY).unwrap();
        let t = source.materialize().unwrap();
        assert_eq!(source.skipped(), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.meta().name, "");
    }

    #[test]
    fn default_read_options_are_strict() {
        assert!(ReadOptions::default().strict);
    }

    #[test]
    fn text_source_streams_meta_then_records() {
        let mut t = Trace::from_blocks([10u64, 11, 12, 5]);
        t.meta_mut().name = "snake".into();
        t.meta_mut().seed = Some(7);
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();

        // Clean input reads the same in either mode, with nothing skipped.
        for opts in [ReadOptions::default(), LOSSY] {
            let mut src = TextSource::with_options(Cursor::new(&buf[..]), opts).unwrap();
            // Meta is available before the first record is pulled.
            assert_eq!(src.meta().name, "snake");
            assert_eq!(src.len_hint(), None);
            assert_eq!(src.materialize().unwrap(), t);
            assert_eq!(src.skipped(), 0);

            // Rewinding replays the records bit-identically.
            src.rewind().unwrap();
            assert_eq!(src.materialize().unwrap(), t);
        }
    }

    #[test]
    fn text_source_strict_fuses_after_bad_line() {
        let src_text = "1\n2\nabc\n3\n";
        let mut src = TextSource::new(Cursor::new(src_text.as_bytes())).unwrap();
        assert_eq!(src.next_record().unwrap().unwrap().block.0, 1);
        assert_eq!(src.next_record().unwrap().unwrap().block.0, 2);
        assert!(src.next_record().is_err());
        // Fused: no records after the failure until rewound.
        assert_eq!(src.next_record().unwrap(), None);
        src.rewind().unwrap();
        assert_eq!(src.next_record().unwrap().unwrap().block.0, 1);
    }
}
