//! Request and response lines as bytes, one reused buffer per batch.
//!
//! A [`LineBuf`] holds a batch's lines back to back, each ending in `\n`,
//! and records for each line the connection it belongs to and where it
//! ends. A listener reads request lines into one, the service core
//! (`Service::process_lines`) answers into another, and the
//! listener writes that buffer out with one write per connection. Once
//! both buffers have grown to a batch's size, nothing on the line path
//! allocates per line.

use crate::service::ConnId;
use std::io::{self, BufRead};

/// `\n`-terminated lines in one buffer, each tagged with its connection.
#[derive(Clone, Debug, Default)]
pub(crate) struct LineBuf {
    bytes: Vec<u8>,
    /// Per line: its connection and the offset just past its `\n`.
    ends: Vec<(ConnId, usize)>,
}

impl LineBuf {
    /// An empty buffer.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Lines held.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no line is held.
    pub(crate) fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Forget every line, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// Append one line; `line` excludes its terminator.
    pub(crate) fn push(&mut self, conn: ConnId, line: &[u8]) {
        self.push_with(conn, |out| {
            out.extend_from_slice(line);
            out.push(b'\n');
        });
    }

    /// Append one line that `render` writes in place, `\n` included, and
    /// return what `render` returns. A `render` that panics leaves no line
    /// behind.
    pub(crate) fn push_with<R>(
        &mut self,
        conn: ConnId,
        render: impl FnOnce(&mut Vec<u8>) -> R,
    ) -> R {
        self.bytes.truncate(self.end());
        let rendered = render(&mut self.bytes);
        debug_assert_eq!(self.bytes.last(), Some(&b'\n'), "a rendered line ends in \\n");
        self.ends.push((conn, self.bytes.len()));
        rendered
    }

    /// Read one line from `input` as `BufRead::lines` splits them (`\n`
    /// or `\r\n` ends a line, and so does the end of the input), but keep
    /// its bytes as they are: a line that is not UTF-8 is the parser's to
    /// answer, not an I/O error. `false` at the end of the input.
    pub(crate) fn read_line(&mut self, conn: ConnId, input: &mut impl BufRead) -> io::Result<bool> {
        let start = self.end();
        self.bytes.truncate(start);
        if input.read_until(b'\n', &mut self.bytes)? == 0 {
            return Ok(false);
        }
        let kept = content(&self.bytes[start..]).len();
        self.bytes.truncate(start + kept);
        self.bytes.push(b'\n');
        self.ends.push((conn, self.bytes.len()));
        Ok(true)
    }

    /// Append the lines of `chunk` from byte `at` on until the buffer
    /// holds `cap` lines, splitting as [`LineBuf::read_line`] does (a
    /// last piece without `\n` is a line too). Returns where it stopped:
    /// `chunk.len()` once every line is in.
    pub(crate) fn push_lines(
        &mut self,
        conn: ConnId,
        chunk: &[u8],
        mut at: usize,
        cap: usize,
    ) -> usize {
        while at < chunk.len() && self.len() < cap {
            let rest = &chunk[at..];
            let next = rest.iter().position(|&b| b == b'\n').map_or(rest.len(), |i| i + 1);
            self.push(conn, content(&rest[..next]));
            at += next;
        }
        at
    }

    /// Append every line of `other`.
    pub(crate) fn append(&mut self, other: &LineBuf) {
        let base = self.end();
        self.bytes.truncate(base);
        self.bytes.extend_from_slice(other.as_bytes());
        self.ends.extend(other.ends.iter().map(|&(conn, end)| (conn, base + end)));
    }

    /// Every line, `\n`-terminated, back to back.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.end()]
    }

    /// Each line with its connection, without its `\n`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ConnId, &[u8])> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&(conn, end)| {
            let line = &self.bytes[start..end - 1];
            start = end;
            (conn, line)
        })
    }

    fn end(&self) -> usize {
        self.ends.last().map_or(0, |&(_, end)| end)
    }
}

/// A raw line without its terminator: a trailing `\n`, and then one `\r`
/// before it.
fn content(raw: &[u8]) -> &[u8] {
    match raw.strip_suffix(b"\n") {
        Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
        None => raw,
    }
}

/// Append `v` in decimal, digit by digit rather than through `fmt`.
pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = v;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(buf: &LineBuf) -> Vec<(ConnId, String)> {
        buf.iter().map(|(c, l)| (c, String::from_utf8_lossy(l).into_owned())).collect()
    }

    #[test]
    fn read_line_splits_like_buf_read_lines() {
        let input = b"a\nb\r\n\r\n\n\xff c\r\rd\r";
        let mut buf = LineBuf::new();
        let mut reader = &input[..];
        while buf.read_line(7, &mut reader).unwrap() {}
        let want: Vec<&[u8]> = vec![b"a", b"b", b"", b"", b"\xff c\r\rd\r"];
        assert_eq!(buf.iter().map(|(_, l)| l).collect::<Vec<_>>(), want);
        assert!(buf.iter().all(|(c, _)| c == 7));
        assert_eq!(buf.as_bytes(), b"a\nb\n\n\n\xff c\r\rd\r\n");
        // The same bytes as whole-line chunks split identically.
        let mut chunked = LineBuf::new();
        assert_eq!(chunked.push_lines(7, input, 0, usize::MAX), input.len());
        assert_eq!(chunked.as_bytes(), buf.as_bytes());
    }

    #[test]
    fn push_lines_stops_at_the_cap_and_resumes() {
        let mut buf = LineBuf::new();
        let chunk = b"x 1\ny 2\nz 3\n";
        let at = buf.push_lines(1, chunk, 0, 2);
        assert_eq!(at, 8);
        assert_eq!(lines(&buf), [(1, "x 1".to_string()), (1, "y 2".to_string())]);
        buf.clear();
        assert_eq!(buf.push_lines(2, chunk, at, 2), chunk.len());
        assert_eq!(lines(&buf), [(2, "z 3".to_string())]);
    }

    #[test]
    fn append_and_rendered_lines_keep_their_connections() {
        let mut a = LineBuf::new();
        a.push(1, b"one");
        let mut b = LineBuf::new();
        b.push_with(2, |out| out.extend_from_slice(b"two\n"));
        b.push(3, b"");
        a.append(&b);
        assert_eq!(a.as_bytes(), b"one\ntwo\n\n");
        assert_eq!(lines(&a), [(1, "one".to_string()), (2, "two".to_string()), (3, String::new())]);
        // A render that panics leaves no line and no stray bytes behind.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.push_with(4, |out| {
                out.extend_from_slice(b"half");
                panic!("mid-line");
            })
        }));
        assert!(caught.is_err());
        a.push(5, b"five");
        assert_eq!(a.as_bytes(), b"one\ntwo\n\nfive\n");
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn decimals_match_display() {
        for v in [0, 1, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            let mut out = b"x".to_vec();
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}").into_bytes());
        }
    }
}
