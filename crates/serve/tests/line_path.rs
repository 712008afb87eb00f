//! The byte line path against what it replaced.
//!
//! * The request language: [`parse_line`] must accept and refuse exactly
//!   what the owning parser it replaced did, with the same `Request` or
//!   the same `(tenant, message)` error, on adversarial lines. That parser
//!   is kept below, verbatim but for its type names, as the oracle.
//! * The stdin loop: [`run_stream`] must write, byte for byte, what
//!   feeding the same lines through [`Service::process_batch`] and writing
//!   each response with `writeln!` produces, at any batch size.

use prefetch_serve::listener::run_stream;
use prefetch_serve::{parse_line, ParseError, Request, ServeOpts, Service};
use proptest::prelude::*;
use std::sync::Mutex;

/// `prefetch_pool::set_threads` is a process-global knob; tests that
/// touch it serialize here so they cannot fight over it.
static KNOB: Mutex<()> = Mutex::new(());

// ---------------------------------------------------------------------------
// The oracle: the owning parser the borrowing one replaced.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum OwnedRequest {
    Open { tenant: String, opts: Vec<(String, String)> },
    Event { tenant: String, block: u64 },
    Stats { tenant: String },
    Close { tenant: String },
    Panic { tenant: String },
    Metrics,
    Health,
    Shutdown,
}

const MAX_TENANT_NAME: usize = 64;

fn check_tenant_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > MAX_TENANT_NAME {
        return Err(format!("tenant name must be 1..={MAX_TENANT_NAME} chars"));
    }
    if !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.') {
        return Err(format!("tenant name {name:?} has characters outside [A-Za-z0-9_.-]"));
    }
    Ok(())
}

fn oracle_parse_line(line: &str) -> Result<Option<OwnedRequest>, ParseError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = line.split_ascii_whitespace();
    let verb = fields.next().expect("non-empty line has a first field");
    let err = |tenant: Option<&str>, message: String| {
        Err(ParseError { tenant: tenant.map(str::to_owned), message })
    };
    let named_tenant = |fields: &mut std::str::SplitAsciiWhitespace<'_>,
                        verb: &str|
     -> Result<String, ParseError> {
        let t = fields.next().ok_or_else(|| ParseError {
            tenant: None,
            message: format!("{verb} needs a tenant"),
        })?;
        check_tenant_name(t).map_err(|message| ParseError { tenant: None, message })?;
        Ok(t.to_owned())
    };
    let ends = |fields: &mut std::str::SplitAsciiWhitespace<'_>,
                tenant: Option<&str>,
                takes: &str| match fields.next() {
        None => Ok(()),
        Some(_) => Err(ParseError {
            tenant: tenant.map(str::to_owned),
            message: format!("{verb} takes {takes}"),
        }),
    };
    let only_tenant = |fields: &mut std::str::SplitAsciiWhitespace<'_>| {
        let tenant = named_tenant(fields, verb)?;
        ends(fields, Some(&tenant), "exactly a tenant")?;
        Ok(tenant)
    };
    match verb {
        "OPEN" => {
            let tenant = named_tenant(&mut fields, "OPEN")?;
            let mut opts = Vec::new();
            for opt in fields {
                match opt.split_once('=') {
                    Some((k, v)) if !k.is_empty() && !v.is_empty() => {
                        opts.push((k.to_owned(), v.to_owned()));
                    }
                    _ => {
                        return err(Some(&tenant), format!("OPEN option {opt:?} is not key=value"));
                    }
                }
            }
            Ok(Some(OwnedRequest::Open { tenant, opts }))
        }
        "EV" => {
            let tenant = named_tenant(&mut fields, "EV")?;
            let Some(raw) = fields.next() else {
                return err(Some(&tenant), "EV needs a block number".into());
            };
            let Ok(block) = raw.parse::<u64>() else {
                return err(Some(&tenant), format!("EV block {raw:?} is not a u64"));
            };
            ends(&mut fields, Some(&tenant), "exactly tenant and block")?;
            Ok(Some(OwnedRequest::Event { tenant, block }))
        }
        "STATS" => Ok(Some(OwnedRequest::Stats { tenant: only_tenant(&mut fields)? })),
        "CLOSE" => Ok(Some(OwnedRequest::Close { tenant: only_tenant(&mut fields)? })),
        "PANIC" => Ok(Some(OwnedRequest::Panic { tenant: only_tenant(&mut fields)? })),
        "METRICS" => ends(&mut fields, None, "no arguments").map(|()| Some(OwnedRequest::Metrics)),
        "HEALTH" => ends(&mut fields, None, "no arguments").map(|()| Some(OwnedRequest::Health)),
        "SHUTDOWN" => {
            ends(&mut fields, None, "no arguments").map(|()| Some(OwnedRequest::Shutdown))
        }
        other => err(None, format!("unknown verb {other:?}")),
    }
}

fn owned(request: Request<'_>) -> OwnedRequest {
    match request {
        Request::Open { tenant, opts } => OwnedRequest::Open {
            tenant: tenant.to_owned(),
            opts: opts.into_iter().map(|(k, v)| (k.to_owned(), v.to_owned())).collect(),
        },
        Request::Event { tenant, block } => {
            OwnedRequest::Event { tenant: tenant.to_owned(), block }
        }
        Request::Stats { tenant } => OwnedRequest::Stats { tenant: tenant.to_owned() },
        Request::Close { tenant } => OwnedRequest::Close { tenant: tenant.to_owned() },
        Request::Panic { tenant } => OwnedRequest::Panic { tenant: tenant.to_owned() },
        Request::Metrics => OwnedRequest::Metrics,
        Request::Health => OwnedRequest::Health,
        Request::Shutdown => OwnedRequest::Shutdown,
    }
}

/// Both parsers on one raw line, decoded as the listeners decode it.
fn both(
    raw: &[u8],
) -> (Result<Option<OwnedRequest>, ParseError>, Result<Option<OwnedRequest>, ParseError>) {
    let text = String::from_utf8_lossy(raw);
    (oracle_parse_line(&text), parse_line(&text).map(|r| r.map(owned)))
}

// ---------------------------------------------------------------------------
// Adversarial lines.
// ---------------------------------------------------------------------------

const VERBS: &[&[u8]] = &[
    b"OPEN",
    b"EV",
    b"STATS",
    b"CLOSE",
    b"PANIC",
    b"METRICS",
    b"HEALTH",
    b"SHUTDOWN",
    b"ev",
    b"FROB",
    b"#",
    b"#EV",
    b"\xffEV",
    b"E\xffV",
    b"EV\xff",
    b"",
];

/// Names, blocks and options, every one usable in any position.
const FIELDS: &[&[u8]] = &[
    b"t",
    b"t1",
    b"a.b-c_d",
    b"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
    b"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
    b"bad/name",
    b"t\xff",
    b"\xc3\xbcn\xc3\xaf",
    b"0",
    b"5",
    b"+5",
    b"-1",
    b"007",
    b"18446744073709551615",
    b"18446744073709551616",
    b"1e3",
    b"0x10",
    b"\xff1",
    b"1\xfe",
    b"cache=8",
    b"cache=",
    b"=8",
    b"policy=tree",
    b"k=v=w",
    b"#",
];

/// Between fields: ASCII whitespace `split_ascii_whitespace` splits on,
/// and Unicode whitespace it does not (U+00A0, U+0085, U+3000, VT).
const GAPS: &[&[u8]] =
    &[b" ", b"  ", b"\t", b"\r", b"\x0c", b"\x0b", b"\xc2\xa0", b"\xc2\x85", b"\xe3\x80\x80"];

/// Around the line: what `trim()` strips and what it does not.
const EDGES: &[&[u8]] = &[b"", b"", b" ", b"\t", b"\r", b"\x0b", b"\xc2\xa0", b"\xc2\x85", b"#"];

fn line_of(picks: &[usize]) -> Vec<u8> {
    let mut line = EDGES[picks[0] % EDGES.len()].to_vec();
    line.extend_from_slice(VERBS[picks[1] % VERBS.len()]);
    for pair in picks[3..].chunks(2) {
        line.extend_from_slice(GAPS[pair[0] % GAPS.len()]);
        line.extend_from_slice(FIELDS[pair.get(1).copied().unwrap_or(0) % FIELDS.len()]);
    }
    line.extend_from_slice(EDGES[picks[2] % EDGES.len()]);
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Random lines over the vocabulary above: same request, or the same
    /// error charged to the same tenant, from both parsers.
    #[test]
    fn the_borrowing_parser_speaks_the_old_language(
        picks in proptest::collection::vec(0usize..1000, 3..11),
    ) {
        let raw = line_of(&picks);
        let (want, got) = both(&raw);
        prop_assert!(got == want, "line {:?}: {:?} != {:?}", String::from_utf8_lossy(&raw), got, want);
    }
}

#[test]
fn named_corner_cases_parse_as_before() {
    let long = "x".repeat(MAX_TENANT_NAME);
    let cases: Vec<Vec<u8>> = [
        "EV t +5",
        "EV t 007",
        "EV t 18446744073709551615",
        "EV t 18446744073709551616",
        "EV t\t5",
        "EV t\r5",
        "\tEV t 5\r",
        "EV t\u{a0}5",
        "EV\u{85}t 5",
        "\u{a0}EV t 5\u{85}",
        "\u{3000}SHUTDOWN",
        "\x0bHEALTH\x0b",
        "EV t 5\x0b",
        "# EV t 5",
        "  # comment",
        "",
        "   ",
        "\u{a0}",
        "\u{85}",
        "OPEN t cache=8 policy=tree",
        "OPEN t k=v=w",
        "OPEN t =8",
        "METRICS now",
        "STATS t t",
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .chain([
        format!("EV {long} 1").into_bytes(),
        format!("EV {long}x 1").into_bytes(),
        b"\xff\xfe".to_vec(),
        b"E\xffV t 1".to_vec(),
        b"EV t\xff 1".to_vec(),
        b"EV t 1\xff".to_vec(),
        b"OPEN t cache=\xff".to_vec(),
    ])
    .collect();
    for raw in &cases {
        let (want, got) = both(raw);
        assert_eq!(got, want, "line {:?}", String::from_utf8_lossy(raw));
    }
    // Spot checks of what the oracle itself says, so a wrong oracle
    // cannot hide behind agreement.
    let text = |s: &str| oracle_parse_line(s);
    assert_eq!(text("EV t +5"), Ok(Some(OwnedRequest::Event { tenant: "t".into(), block: 5 })));
    assert_eq!(text("EV t 007"), Ok(Some(OwnedRequest::Event { tenant: "t".into(), block: 7 })));
    assert_eq!(text("\u{a0}HEALTH"), Ok(Some(OwnedRequest::Health)));
    assert!(text("EV t\u{a0}5").is_err());
    assert_eq!(text(&format!("EV {long} 1")).map(|r| r.is_some()), Ok(true));
}

// ---------------------------------------------------------------------------
// The stdin loop.
// ---------------------------------------------------------------------------

/// CRLF endings, blank and comment lines, a line that is not UTF-8, a
/// malformed line charged to a tenant, `SHUTDOWN` mid-stream with more
/// lines behind it, and no newline at the very end.
fn stream_script() -> Vec<u8> {
    let mut s = Vec::new();
    for t in 0..5 {
        s.extend_from_slice(format!("OPEN t{t} cache=8 nodes=64\r\n").as_bytes());
    }
    for round in 0..60u64 {
        for t in 0..5u64 {
            let end: &[u8] = if (round + t) % 3 == 0 { b"\r\n" } else { b"\n" };
            s.extend_from_slice(format!("EV t{t} {}", (round * (t + 1)) % 11 + t).as_bytes());
            s.extend_from_slice(end);
        }
        match round {
            7 => s.extend_from_slice(b"\n# a comment\r\n   \n"),
            13 => s.extend_from_slice(b"EV t1 \xff\xfe\n\xff\n"),
            21 => s.extend_from_slice(b"STATS t2\r\nEV t3 not-a-number\n"),
            29 => s.extend_from_slice(b"CLOSE t4\nEV t4 1\n"),
            41 => s.extend_from_slice(b"SHUTDOWN\r\n"),
            _ => {}
        }
    }
    s.extend_from_slice(b"STATS t0");
    s
}

/// What the stream must produce: the same lines, split as `BufRead`
/// splits them and decoded lossily, fed through `process_batch` in
/// `batch`-line batches until a `SHUTDOWN` lands, then the drain.
fn reference(input: &[u8], batch: usize) -> Vec<u8> {
    let lines: Vec<String> = input
        .split_inclusive(|&b| b == b'\n')
        .map(|raw| {
            let line = match raw.strip_suffix(b"\n") {
                Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
                None => raw,
            };
            String::from_utf8_lossy(line).into_owned()
        })
        .collect();
    let mut service = Service::new(ServeOpts::default()).unwrap();
    let mut out = Vec::new();
    for chunk in lines.chunks(batch.max(1)) {
        let tagged: Vec<(u64, String)> = chunk.iter().map(|l| (0, l.clone())).collect();
        for (_, line) in service.process_batch(&tagged) {
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
        if service.shutdown_requested() {
            break;
        }
    }
    for line in service.drain() {
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    out
}

fn streamed(input: &[u8], batch: usize) -> Vec<u8> {
    let mut service = Service::new(ServeOpts::default()).unwrap();
    let mut out = Vec::new();
    run_stream(&mut service, input, &mut out, batch).unwrap();
    out
}

#[test]
fn run_stream_writes_the_process_batch_transcript_at_any_batch_size() {
    let _knob = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    prefetch_pool::set_threads(1);
    let script = stream_script();
    for batch in [1, 7, 256] {
        let got = streamed(&script, batch);
        let text = String::from_utf8_lossy(&got);
        assert!(text.contains("\nERR parse unknown verb \"\u{fffd}\"\n"), "{batch}: {text}");
        assert!(text.contains("\nOK shutdown\n"), "{batch}: {text}");
        assert!(text.lines().last().unwrap().starts_with("BYE "), "{batch}: {text}");
        assert_eq!(got, reference(&script, batch), "batch {batch}");
    }
    // Without a SHUTDOWN the unterminated last line is served too.
    let tail = b"OPEN a\r\nEV a 1\r\nEV a 2\n\nSTATS a";
    let got = streamed(tail, 7);
    assert!(String::from_utf8_lossy(&got).contains("\nSTATS a events=2 "));
    assert_eq!(got, reference(tail, 7));
    prefetch_pool::set_threads(0);
}

/// A batch of 0 is a batch of 1 (the loop must not spin on it).
#[test]
fn run_stream_treats_a_zero_batch_as_one() {
    let _knob = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let script = stream_script();
    assert_eq!(streamed(&script, 0), streamed(&script, 1));
}
