//! Compact binary trace format.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic    : 4 bytes  b"PFTR"
//! version  : u16      (currently 1)
//! meta_len : u32      length of the JSON-encoded TraceMeta
//! meta     : meta_len bytes (same JSON as the text format's #!meta line)
//! count    : u64      number of records
//! records  : count × record
//! ```
//!
//! Each record is a varint-encoded *zig-zag delta* from the previous block
//! id, followed by a flags byte only when pid/kind differ from the previous
//! record. The common case (same pid, read, small seek distance) costs 1-3
//! bytes. Encoding detail: the low bit of the varint payload marks whether a
//! flags byte follows, so `delta` is shifted left once more.

use crate::io::text::{meta_from_json, meta_to_json, ReadOptions};
use crate::io::TraceIoError;
use crate::record::{AccessKind, TraceRecord};
use crate::source::TraceSource;
use crate::{Trace, TraceMeta};
use std::io::{Read, Seek, SeekFrom, Write};

const MAGIC: [u8; 4] = *b"PFTR";
const VERSION: u16 = 1;
/// Largest `meta_len` a header may declare. The metadata is a name, a
/// sentence and two numbers; the bound keeps a corrupt length from sizing
/// the read buffer.
const MAX_META_LEN: usize = 1 << 20;

/// Serialize `trace` in the binary format.
pub fn write_binary<W: Write>(trace: &Trace, w: &mut W) -> Result<(), TraceIoError> {
    let meta_json = meta_to_json(trace.meta());
    if meta_json.len() > MAX_META_LEN {
        return Err(TraceIoError::BadMeta(meta_too_long(meta_json.len())));
    }
    let mut header = Vec::with_capacity(18 + meta_json.len());
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&(meta_json.len() as u32).to_le_bytes());
    header.extend_from_slice(meta_json.as_bytes());
    header.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    w.write_all(&header)?;

    let mut body = Vec::with_capacity(trace.len() * 3);
    let mut prev_block: u64 = 0;
    let mut prev_pid: u32 = 0;
    let mut prev_kind = AccessKind::Read;
    for r in trace.records() {
        let delta = zigzag_encode(r.block.0.wrapping_sub(prev_block) as i64);
        let needs_flags = r.pid != prev_pid || r.kind != prev_kind;
        // The tag bit pushes the payload to 65 bits, so the varint layer
        // works in u128.
        put_varint(&mut body, ((delta as u128) << 1) | needs_flags as u128);
        if needs_flags {
            let kind_bit = matches!(r.kind, AccessKind::Write) as u8;
            body.push(kind_bit);
            put_varint(&mut body, r.pid as u128);
        }
        prev_block = r.block.0;
        prev_pid = r.pid;
        prev_kind = r.kind;
        if body.len() >= 1 << 20 {
            w.write_all(&body)?;
            body.clear();
        }
    }
    w.write_all(&body)?;
    w.flush()?;
    Ok(())
}

/// Deserialize a whole binary trace (strict: any malformed or truncated
/// record is an error): a [`BinarySource`], materialized.
pub fn read_binary<R: Read + Seek>(r: &mut R) -> Result<Trace, TraceIoError> {
    BinarySource::new(r)?.materialize()
}

fn meta_too_long(len: usize) -> String {
    format!("metadata length {len} exceeds {MAX_META_LEN} bytes")
}

/// Parse the fixed header + metadata; returns the [`TraceMeta`] and the
/// declared record count, leaving the reader at the first record.
fn read_header<R: Read>(r: &mut R) -> Result<(TraceMeta, u64), TraceIoError> {
    let truncated = || TraceIoError::Truncated { expected: 0, got: 0 };
    let mut fixed = [0u8; 4 + 2 + 4];
    read_exact_or(r, &mut fixed, truncated)?;
    let magic: [u8; 4] = fixed[0..4].try_into().expect("slice length");
    if magic != MAGIC {
        return Err(TraceIoError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes(fixed[4..6].try_into().expect("slice length"));
    if version != VERSION {
        return Err(TraceIoError::BadVersion { found: version });
    }
    let meta_len = u32::from_le_bytes(fixed[6..10].try_into().expect("slice length")) as usize;
    if meta_len > MAX_META_LEN {
        return Err(TraceIoError::BadMeta(meta_too_long(meta_len)));
    }
    let mut tail = vec![0u8; meta_len + 8];
    read_exact_or(r, &mut tail, truncated)?;
    let meta_json =
        std::str::from_utf8(&tail[..meta_len]).map_err(|e| TraceIoError::BadMeta(e.to_string()))?;
    let count = u64::from_le_bytes(tail[meta_len..].try_into().expect("slice length"));
    Ok((meta_from_json(meta_json)?, count))
}

/// `read_exact` with end-of-input mapped through `on_eof`; other I/O
/// errors pass through unchanged.
fn read_exact_or<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    on_eof: impl Fn() -> TraceIoError,
) -> Result<(), TraceIoError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            on_eof()
        } else {
            e.into()
        }
    })
}

/// Stateful decoder for the delta/flags record stream.
struct DeltaDecoder {
    prev_block: u64,
    prev_pid: u32,
    prev_kind: AccessKind,
}

impl DeltaDecoder {
    fn new() -> Self {
        DeltaDecoder { prev_block: 0, prev_pid: 0, prev_kind: AccessKind::Read }
    }

    /// Decode record `i` of `count`. Truncation mid-record reports
    /// `Truncated { expected: count, got: i }`; I/O errors pass through.
    fn decode<R: Read>(
        &mut self,
        r: &mut R,
        count: u64,
        i: u64,
    ) -> Result<TraceRecord, TraceIoError> {
        let truncated = || TraceIoError::Truncated { expected: count, got: i };
        let tagged = match read_varint(r) {
            Ok(v) => v,
            Err(e @ TraceIoError::Io(_)) => return Err(e),
            Err(_) => return Err(truncated()),
        };
        let has_flags = tagged & 1 == 1;
        let delta = zigzag_decode(u64::try_from(tagged >> 1).map_err(|_| TraceIoError::BadVarint)?);
        let block = self.prev_block.wrapping_add(delta as u64);
        if has_flags {
            let mut kind_bit = [0u8; 1];
            read_exact_or(r, &mut kind_bit, truncated)?;
            self.prev_kind =
                if kind_bit[0] & 1 == 1 { AccessKind::Write } else { AccessKind::Read };
            let pid = match read_varint(r) {
                Ok(v) => v,
                Err(e @ TraceIoError::Io(_)) => return Err(e),
                Err(_) => return Err(truncated()),
            };
            self.prev_pid = u32::try_from(pid).map_err(|_| TraceIoError::BadVarint)?;
        }
        self.prev_block = block;
        Ok(TraceRecord { block: block.into(), pid: self.prev_pid, kind: self.prev_kind })
    }
}

/// An incremental [`TraceSource`] over a binary-format reader: records are
/// decoded one at a time, so memory stays independent of trace length.
///
/// The header (magic, version, metadata, count) is parsed at construction;
/// [`TraceSource::len_hint`] reports the declared count, which is the
/// file's claim, not a checked fact. In lossy mode the source ends early
/// at the first malformed or truncated record — the delta stream cannot
/// resynchronize — and [`TraceSource::skipped`] reports everything from
/// there to the declared end as lost. Header errors (bad magic, version,
/// metadata) and I/O errors are fatal in either mode. Rewinding seeks
/// back to the first record.
pub struct BinarySource<R> {
    reader: R,
    opts: ReadOptions,
    meta: TraceMeta,
    count: u64,
    next_index: u64,
    data_start: u64,
    dec: DeltaDecoder,
    skipped: u64,
    fused: bool,
}

impl<R: Read + Seek> BinarySource<R> {
    /// A strict streaming reader over `reader` (positioned at the start of
    /// a binary-format trace). Header errors are reported here.
    pub fn new(reader: R) -> Result<Self, TraceIoError> {
        Self::with_options(reader, ReadOptions::default())
    }

    /// A streaming reader with explicit [`ReadOptions`].
    pub fn with_options(mut reader: R, opts: ReadOptions) -> Result<Self, TraceIoError> {
        let (meta, count) = read_header(&mut reader)?;
        let data_start = reader.stream_position()?;
        Ok(BinarySource {
            reader,
            opts,
            meta,
            count,
            next_index: 0,
            data_start,
            dec: DeltaDecoder::new(),
            skipped: 0,
            fused: false,
        })
    }
}

impl<R: Read + Seek> TraceSource for BinarySource<R> {
    fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.count)
    }

    fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceIoError> {
        if self.fused || self.next_index == self.count {
            return Ok(None);
        }
        match self.dec.decode(&mut self.reader, self.count, self.next_index) {
            Ok(rec) => {
                self.next_index += 1;
                Ok(Some(rec))
            }
            Err(e @ TraceIoError::Io(_)) => {
                self.fused = true;
                Err(e)
            }
            Err(e) if self.opts.strict => {
                self.fused = true;
                Err(e)
            }
            Err(_) => {
                // Lossy: the rest of the stream is undecodable; end early.
                self.skipped = self.count - self.next_index;
                self.next_index = self.count;
                Ok(None)
            }
        }
    }

    fn rewind(&mut self) -> Result<(), TraceIoError> {
        self.reader.seek(SeekFrom::Start(self.data_start))?;
        self.dec = DeltaDecoder::new();
        self.next_index = 0;
        self.skipped = 0;
        self.fused = false;
        Ok(())
    }

    fn skipped(&self) -> u64 {
        self.skipped
    }
}

#[inline]
fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(buf: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read one varint off the stream. End of input mid-varint is
/// [`TraceIoError::BadVarint`]; other I/O errors pass through.
fn read_varint<R: Read>(r: &mut R) -> Result<u128, TraceIoError> {
    let mut v: u128 = 0;
    let mut byte = [0u8; 1];
    // 77 bits of shift covers the 65-bit tagged payload with margin.
    for shift in (0..77).step_by(7) {
        read_exact_or(r, &mut byte, || TraceIoError::BadVarint)?;
        v |= ((byte[0] & 0x7f) as u128) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(TraceIoError::BadVarint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceMeta;
    use std::io::Cursor;

    const LOSSY: ReadOptions = ReadOptions { strict: false };

    fn encode(t: &Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary(t, &mut buf).unwrap();
        buf
    }

    fn read(buf: &[u8]) -> Result<Trace, TraceIoError> {
        read_binary(&mut Cursor::new(buf))
    }

    fn cello_like() -> Trace {
        let mut t = Trace::new(TraceMeta {
            name: "cello".into(),
            description: "timesharing".into(),
            l1_cache_bytes: Some(30 << 20),
            seed: Some(1),
        });
        t.extend([
            TraceRecord::read(100u64),
            TraceRecord::read(101u64),
            TraceRecord::write(50u64).with_pid(4),
            TraceRecord::read(u64::MAX),
            TraceRecord::read(0u64).with_pid(4),
        ]);
        t
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u128, 1, 127, 128, 16383, 16384, u64::MAX as u128, (u64::MAX as u128) << 1 | 1] {
            let mut b = Vec::new();
            put_varint(&mut b, v);
            let mut s: &[u8] = &b;
            assert_eq!(read_varint(&mut s).unwrap(), v);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut s: &[u8] = &[0x80, 0x80];
        assert!(read_varint(&mut s).is_err());
    }

    #[test]
    fn round_trips_records_and_meta() {
        let t = cello_like();
        assert_eq!(read(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::empty();
        assert_eq!(read(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn sequential_runs_compress_well() {
        let buf = encode(&Trace::from_blocks(1_000_000u64..1_010_000));
        // 10_000 sequential records should take ~1 byte each plus header.
        assert!(buf.len() < 11_000, "binary size {} too large", buf.len());
    }

    #[test]
    fn detects_bad_magic() {
        let mut buf = encode(&Trace::from_blocks([1u64]));
        buf[0] = b'X';
        assert!(matches!(read(&buf), Err(TraceIoError::BadMagic { .. })));
    }

    #[test]
    fn detects_bad_version() {
        let mut buf = encode(&Trace::from_blocks([1u64]));
        buf[4] = 0xff;
        assert!(matches!(read(&buf), Err(TraceIoError::BadVersion { .. })));
    }

    #[test]
    fn detects_truncated_body() {
        let buf = encode(&Trace::from_blocks([1u64, 100, 10000, 42]));
        for cut in 1..8 {
            assert!(read(&buf[..buf.len() - cut]).is_err(), "cut {cut} should fail");
        }
    }

    #[test]
    fn detects_truncated_header() {
        let buf = encode(&Trace::from_blocks([1u64]));
        assert!(read(&buf[..5]).is_err());
    }

    #[test]
    fn oversized_header_lengths_error_without_allocating() {
        let t = Trace::from_blocks([1u64, 2, 3]);
        let buf = encode(&t);
        // meta_len claims 4 GiB.
        let mut huge_meta = buf.clone();
        huge_meta[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read(&huge_meta), Err(TraceIoError::BadMeta(_))));
        // count claims 2^63 records: strict reports the truncation, lossy
        // salvages the three that are there.
        let mut huge_count = buf.clone();
        let at = huge_count.len() - 3 - 8;
        huge_count[at..at + 8].copy_from_slice(&(1u64 << 63).to_le_bytes());
        assert!(matches!(
            read(&huge_count),
            Err(TraceIoError::Truncated { expected, got: 3 }) if expected == 1 << 63
        ));
        let mut src = BinarySource::with_options(Cursor::new(&huge_count[..]), LOSSY).unwrap();
        assert_eq!(src.materialize().unwrap().records(), t.records());
        assert_eq!(src.skipped(), (1 << 63) - 3);
        // The writer refuses metadata the reader would.
        let mut long = Trace::empty();
        long.meta_mut().description = "x".repeat(MAX_META_LEN);
        assert!(matches!(write_binary(&long, &mut Vec::new()), Err(TraceIoError::BadMeta(_))));
    }

    #[test]
    fn lossy_read_salvages_a_truncated_body() {
        let t = Trace::from_blocks([1u64, 100, 10000, 42]);
        let buf = encode(&t);
        let shorter = &buf[..buf.len() - 2];
        let mut src = BinarySource::with_options(Cursor::new(shorter), LOSSY).unwrap();
        let back = src.materialize().unwrap();
        assert!(src.skipped() > 0);
        assert_eq!(back.len() as u64 + src.skipped(), t.len() as u64);
        // Salvaged prefix matches the original records.
        assert_eq!(back.records(), &t.records()[..back.len()]);
    }

    #[test]
    fn lossy_read_still_rejects_header_corruption() {
        let mut buf = encode(&Trace::from_blocks([1u64]));
        buf[0] = b'X';
        assert!(BinarySource::with_options(Cursor::new(&buf[..]), LOSSY).is_err());
    }

    #[test]
    fn binary_source_streams_and_rewinds() {
        let t = cello_like();
        let buf = encode(&t);

        // Clean input reads the same in either mode, with nothing skipped.
        for opts in [ReadOptions::default(), LOSSY] {
            let mut src = BinarySource::with_options(Cursor::new(&buf[..]), opts).unwrap();
            assert_eq!(src.meta().name, "cello");
            assert_eq!(src.len_hint(), Some(5));
            assert_eq!(src.materialize().unwrap(), t);
            assert_eq!(src.skipped(), 0);

            src.rewind().unwrap();
            assert_eq!(src.materialize().unwrap(), t);
        }
    }

    #[test]
    fn binary_source_strict_reports_truncation_and_fuses() {
        let buf = encode(&Trace::from_blocks([1u64, 100, 10000, 42]));
        let shorter = &buf[..buf.len() - 2];
        let mut src = BinarySource::new(Cursor::new(shorter)).unwrap();
        let mut ok = 0u64;
        let err = loop {
            match src.next_record() {
                Ok(Some(_)) => ok += 1,
                Ok(None) => panic!("expected a truncation error"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, TraceIoError::Truncated { .. }), "got {err}");
        assert!(ok < 4);
        // Fused after the failure.
        assert_eq!(src.next_record().unwrap(), None);
        src.rewind().unwrap();
        assert_eq!(src.next_record().unwrap().unwrap().block.0, 1);
    }
}
