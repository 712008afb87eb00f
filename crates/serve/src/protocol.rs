//! The `pfserve` line protocol: requests in, typed responses out.
//!
//! Every request is one ASCII line of whitespace-separated fields; every
//! response is one line whose first field names its type. The protocol is
//! deliberately lossy-tolerant: a malformed line is answered with a typed
//! `ERR` response (and counted against the tenant when one can be
//! attributed), never a connection drop or a crash.
//!
//! Requests:
//!
//! ```text
//! OPEN <tenant> [key=value ...]   admit a tenant (cache=, policy=, nodes=,
//!                                 overflow=evict|freeze, disks=, fault_rate=,
//!                                 fault_seed=)
//! EV <tenant> <block>             one access event; answered with advice
//! STATS <tenant>                  live per-tenant counters
//! CLOSE <tenant>                  drain the tenant and emit its FINAL line
//! PANIC <tenant>                  chaos hook: the tenant's next event panics
//! METRICS                         point-in-time metrics exposition
//! HEALTH                          one-line service health summary
//! SHUTDOWN                        drain every tenant and stop the server
//! # ...                           comment; blank lines are ignored
//! ```
//!
//! Responses:
//!
//! ```text
//! OK <verb> <tenant>                              request applied
//! ADV <tenant> <seq> <h|p|m> stall=<ms> pf=<b,..|->  per-event advice
//! REJECT <tenant> <reason> [detail]               typed admission refusal
//! SHED <tenant> queue-full [detail]               backpressure: event dropped
//! ERR parse <detail>                              malformed line, skipped
//! PANIC <tenant> quarantined err=<msg>            tenant quarantined
//! TRACE <tenant> <seq> <stage> <detail>           flight-recorder dump line
//! STATS <tenant> k=v ...                          live counters
//! FINAL <tenant> k=v ...                          end-of-life report
//! METRIC <exposition line>                        one metrics line (METRICS)
//! HEALTH k=v ...                                  health summary (HEALTH)
//! BYE k=v ...                                     drain complete
//! ```
//!
//! On the wire a line is bytes. The listeners read each batch into one
//! reused `LineBuf` and the service parses every line in place:
//! a line that is valid UTF-8 is parsed where it lies, and only one that
//! is not is decoded lossily (its bad bytes become U+FFFD), so it still
//! draws its typed `ERR parse`. A [`Request`] borrows its tenant name and
//! `OPEN` options from the line, so parsing an `EV` allocates nothing.
//! Responses are rendered into one reused buffer per batch (`ADV` digit
//! by digit, in place) and leave with one write per connection.

use crate::lines::push_u64;
use prefetch_trace::BlockId;
use std::fmt;
use std::io::Write;

/// Maximum tenant-name length accepted by the protocol.
pub const MAX_TENANT_NAME: usize = 64;

/// A parsed request line. It borrows the tenant name and the `OPEN`
/// options from the line it was parsed from.
#[derive(Clone, Debug, PartialEq)]
pub enum Request<'a> {
    /// Admit a tenant with `key=value` options.
    Open {
        /// Tenant name.
        tenant: &'a str,
        /// Raw `key=value` options, in line order.
        opts: Vec<(&'a str, &'a str)>,
    },
    /// One access event for a tenant.
    Event {
        /// Tenant name.
        tenant: &'a str,
        /// Referenced block.
        block: u64,
    },
    /// Report live counters for a tenant.
    Stats {
        /// Tenant name.
        tenant: &'a str,
    },
    /// Drain a tenant and emit its final report.
    Close {
        /// Tenant name.
        tenant: &'a str,
    },
    /// Chaos hook: make the tenant's next event processing panic.
    Panic {
        /// Tenant name.
        tenant: &'a str,
    },
    /// Flush every pending event and emit a point-in-time metrics
    /// exposition (`METRIC` lines + `OK metrics` trailer).
    Metrics,
    /// Emit a one-line service health summary.
    Health,
    /// Drain every tenant and stop the server.
    Shutdown,
}

/// Why a line could not be parsed. Carries the tenant name when one was
/// readable, so the skip can be charged to the right tenant's
/// `skipped_records` counter.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Tenant the malformed line addressed, when recognizable.
    pub tenant: Option<String>,
    /// What was wrong.
    pub message: String,
}

impl ParseError {
    fn new(tenant: Option<&str>, message: String) -> Self {
        ParseError { tenant: tenant.map(str::to_owned), message }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

fn check_tenant_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > MAX_TENANT_NAME {
        return Err(format!("tenant name must be 1..={MAX_TENANT_NAME} chars"));
    }
    if !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.') {
        return Err(format!("tenant name {name:?} has characters outside [A-Za-z0-9_.-]"));
    }
    Ok(())
}

type Fields<'a> = std::str::SplitAsciiWhitespace<'a>;

/// The tenant field of a tenant verb.
fn named_tenant<'a>(fields: &mut Fields<'a>, verb: &str) -> Result<&'a str, ParseError> {
    let tenant =
        fields.next().ok_or_else(|| ParseError::new(None, format!("{verb} needs a tenant")))?;
    check_tenant_name(tenant).map_err(|message| ParseError::new(None, message))?;
    Ok(tenant)
}

/// Every verb rejects trailing fields, charged to the tenant it named.
fn no_more(
    fields: &mut Fields<'_>,
    tenant: Option<&str>,
    verb: &str,
    takes: &str,
) -> Result<(), ParseError> {
    match fields.next() {
        None => Ok(()),
        Some(_) => Err(ParseError::new(tenant, format!("{verb} takes {takes}"))),
    }
}

/// Parse one request line. `Ok(None)` for blank lines and `#` comments.
pub fn parse_line(line: &str) -> Result<Option<Request<'_>>, ParseError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = line.split_ascii_whitespace();
    let verb = fields.next().expect("non-empty line has a first field");
    let request = match verb {
        "OPEN" => {
            let tenant = named_tenant(&mut fields, verb)?;
            let mut opts = Vec::new();
            for opt in fields {
                match opt.split_once('=') {
                    Some((k, v)) if !k.is_empty() && !v.is_empty() => opts.push((k, v)),
                    _ => {
                        let message = format!("OPEN option {opt:?} is not key=value");
                        return Err(ParseError::new(Some(tenant), message));
                    }
                }
            }
            Request::Open { tenant, opts }
        }
        "EV" => {
            let tenant = named_tenant(&mut fields, verb)?;
            let Some(raw) = fields.next() else {
                return Err(ParseError::new(Some(tenant), "EV needs a block number".into()));
            };
            let Ok(block) = raw.parse::<u64>() else {
                return Err(ParseError::new(
                    Some(tenant),
                    format!("EV block {raw:?} is not a u64"),
                ));
            };
            no_more(&mut fields, Some(tenant), verb, "exactly tenant and block")?;
            Request::Event { tenant, block }
        }
        "STATS" | "CLOSE" | "PANIC" => {
            let tenant = named_tenant(&mut fields, verb)?;
            no_more(&mut fields, Some(tenant), verb, "exactly a tenant")?;
            match verb {
                "STATS" => Request::Stats { tenant },
                "CLOSE" => Request::Close { tenant },
                _ => Request::Panic { tenant },
            }
        }
        "METRICS" | "HEALTH" | "SHUTDOWN" => {
            no_more(&mut fields, None, verb, "no arguments")?;
            match verb {
                "METRICS" => Request::Metrics,
                "HEALTH" => Request::Health,
                _ => Request::Shutdown,
            }
        }
        other => return Err(ParseError::new(None, format!("unknown verb {other:?}"))),
    };
    Ok(Some(request))
}

/// Append one `\n`-terminated `ADV` line:
/// `ADV <tenant> <seq> <h|p|m> stall=<ms> pf=<b,..|->`. Integers are
/// written digit by digit; `stall=` is `f64`'s `Display`, written in place.
pub(crate) fn render_adv(
    out: &mut Vec<u8>,
    tenant: &str,
    seq: u64,
    kind: u8,
    stall_ms: f64,
    prefetched: &[BlockId],
) {
    out.extend_from_slice(b"ADV ");
    out.extend_from_slice(tenant.as_bytes());
    out.push(b' ');
    push_u64(out, seq);
    out.extend_from_slice(&[b' ', kind]);
    // Writing into a `Vec` cannot fail.
    let _ = write!(out, " stall={stall_ms} pf=");
    match prefetched.split_first() {
        None => out.push(b'-'),
        Some((first, rest)) => {
            push_u64(out, first.0);
            for b in rest {
                out.push(b',');
                push_u64(out, b.0);
            }
        }
    }
    out.push(b'\n');
}

/// Why a request was refused. Every variant renders to a stable
/// machine-parsable reason code, so clients can branch on the first
/// field after the tenant name.
#[derive(Clone, Debug, PartialEq)]
pub enum RejectReason {
    /// Admission control: the tenant cap is reached.
    TenantLimit {
        /// The configured cap.
        limit: usize,
    },
    /// Admission control: the aggregate memory budget would be exceeded.
    MemoryBudget {
        /// Bytes the tenant would reserve.
        requested: u64,
        /// Bytes still available under the budget.
        available: u64,
    },
    /// The tenant panicked earlier and is quarantined (never resurrected
    /// silently; this refusal is the explicit report).
    Quarantined,
    /// The tenant was never opened, or was closed.
    UnknownTenant,
    /// The tenant is already open.
    Duplicate,
    /// The OPEN options did not form a valid configuration.
    BadConfig(String),
}

/// Number of distinct [`RejectReason`] codes (per-reason tally width).
pub const N_REJECT_REASONS: usize = 6;

/// Every reason code in the stable tally order of
/// [`RejectReason::index`].
pub const REJECT_CODES: [&str; N_REJECT_REASONS] =
    ["tenant-limit", "memory-budget", "quarantined", "unknown-tenant", "duplicate", "bad-config"];

/// Render a per-reason reject tally as the stable
/// `rejects=<code>:<n>,...` field value (every code, [`REJECT_CODES`]
/// order).
pub fn render_reject_tally(tally: &[u64; N_REJECT_REASONS]) -> String {
    let mut s = String::new();
    for (i, (code, n)) in REJECT_CODES.iter().zip(tally).enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("{code}:{n}"));
    }
    s
}

impl RejectReason {
    /// Stable machine-readable reason code.
    pub fn code(&self) -> &'static str {
        match self {
            RejectReason::TenantLimit { .. } => "tenant-limit",
            RejectReason::MemoryBudget { .. } => "memory-budget",
            RejectReason::Quarantined => "quarantined",
            RejectReason::UnknownTenant => "unknown-tenant",
            RejectReason::Duplicate => "duplicate",
            RejectReason::BadConfig(_) => "bad-config",
        }
    }

    /// Position of this reason in [`REJECT_CODES`] (per-reason tallies).
    pub fn index(&self) -> usize {
        match self {
            RejectReason::TenantLimit { .. } => 0,
            RejectReason::MemoryBudget { .. } => 1,
            RejectReason::Quarantined => 2,
            RejectReason::UnknownTenant => 3,
            RejectReason::Duplicate => 4,
            RejectReason::BadConfig(_) => 5,
        }
    }

    /// Render the full `REJECT` response line.
    pub fn render(&self, tenant: &str) -> String {
        match self {
            RejectReason::TenantLimit { limit } => {
                format!("REJECT {tenant} tenant-limit limit={limit}")
            }
            RejectReason::MemoryBudget { requested, available } => {
                format!("REJECT {tenant} memory-budget requested={requested} available={available}")
            }
            RejectReason::BadConfig(detail) => format!("REJECT {tenant} bad-config {detail}"),
            _ => format!("REJECT {tenant} {}", self.code()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse_line("OPEN t1 cache=64 policy=tree").unwrap().unwrap(),
            Request::Open { tenant: "t1", opts: vec![("cache", "64"), ("policy", "tree")] }
        );
        assert_eq!(
            parse_line("EV t1 42").unwrap().unwrap(),
            Request::Event { tenant: "t1", block: 42 }
        );
        assert_eq!(parse_line("STATS t1").unwrap().unwrap(), Request::Stats { tenant: "t1" });
        assert_eq!(parse_line("CLOSE t1").unwrap().unwrap(), Request::Close { tenant: "t1" });
        assert_eq!(parse_line("PANIC t1").unwrap().unwrap(), Request::Panic { tenant: "t1" });
        assert_eq!(parse_line("METRICS").unwrap().unwrap(), Request::Metrics);
        assert_eq!(parse_line("HEALTH").unwrap().unwrap(), Request::Health);
        assert_eq!(parse_line("SHUTDOWN").unwrap().unwrap(), Request::Shutdown);
    }

    #[test]
    fn metrics_and_health_take_no_arguments() {
        assert!(parse_line("METRICS t1").is_err());
        assert!(parse_line("HEALTH now").is_err());
    }

    #[test]
    fn reject_tally_renders_every_code_in_order() {
        let mut tally = [0u64; N_REJECT_REASONS];
        tally[RejectReason::Quarantined.index()] = 2;
        tally[RejectReason::BadConfig("x".into()).index()] = 1;
        assert_eq!(
            render_reject_tally(&tally),
            "tenant-limit:0,memory-budget:0,quarantined:2,unknown-tenant:0,duplicate:0,\
             bad-config:1"
        );
        // index() and code() agree with REJECT_CODES.
        for (i, code) in REJECT_CODES.iter().enumerate() {
            let reason = match i {
                0 => RejectReason::TenantLimit { limit: 1 },
                1 => RejectReason::MemoryBudget { requested: 1, available: 0 },
                2 => RejectReason::Quarantined,
                3 => RejectReason::UnknownTenant,
                4 => RejectReason::Duplicate,
                _ => RejectReason::BadConfig(String::new()),
            };
            assert_eq!(reason.index(), i);
            assert_eq!(&reason.code(), code);
        }
    }

    #[test]
    fn blank_lines_and_comments_are_skipped() {
        assert_eq!(parse_line("").unwrap(), None);
        assert_eq!(parse_line("   ").unwrap(), None);
        assert_eq!(parse_line("# a comment").unwrap(), None);
    }

    #[test]
    fn malformed_lines_are_typed_errors_with_attribution() {
        let e = parse_line("EV t1 not-a-number").unwrap_err();
        assert_eq!(e.tenant.as_deref(), Some("t1"));
        assert!(e.message.contains("not a u64"));

        let e = parse_line("EV").unwrap_err();
        assert_eq!(e.tenant, None);

        let e = parse_line("FROB t1").unwrap_err();
        assert!(e.message.contains("unknown verb"));

        let e = parse_line("OPEN t1 cache").unwrap_err();
        assert_eq!(e.tenant.as_deref(), Some("t1"));

        let e = parse_line("OPEN bad/name").unwrap_err();
        assert!(e.message.contains("characters outside"));

        let long = "x".repeat(MAX_TENANT_NAME + 1);
        assert!(parse_line(&format!("EV {long} 1")).is_err());

        // Every verb rejects trailing fields, charged to the tenant it named.
        for (line, tenant, message) in [
            ("METRICS t1", None, "METRICS takes no arguments"),
            ("SHUTDOWN now", None, "SHUTDOWN takes no arguments"),
            ("EV t1 4 5", Some("t1"), "EV takes exactly tenant and block"),
            ("STATS t1 t2", Some("t1"), "STATS takes exactly a tenant"),
            ("CLOSE t1 t2", Some("t1"), "CLOSE takes exactly a tenant"),
            ("PANIC t1 now", Some("t1"), "PANIC takes exactly a tenant"),
        ] {
            let e = parse_line(line).expect_err(line);
            assert_eq!((e.tenant.as_deref(), e.message.as_str()), (tenant, message), "{line}");
        }
    }

    #[test]
    fn reject_reasons_render_stable_codes() {
        assert_eq!(
            RejectReason::TenantLimit { limit: 8 }.render("t"),
            "REJECT t tenant-limit limit=8"
        );
        assert_eq!(
            RejectReason::MemoryBudget { requested: 100, available: 10 }.render("t"),
            "REJECT t memory-budget requested=100 available=10"
        );
        assert_eq!(RejectReason::Quarantined.render("t"), "REJECT t quarantined");
        assert_eq!(RejectReason::UnknownTenant.render("t"), "REJECT t unknown-tenant");
        assert_eq!(RejectReason::Duplicate.render("t"), "REJECT t duplicate");
        assert_eq!(
            RejectReason::BadConfig("cache=0".into()).render("t"),
            "REJECT t bad-config cache=0"
        );
    }

    /// The `format!` expression `render_adv` replaced, kept as its oracle.
    fn adv_by_format(name: &str, seq: u64, kind: u8, stall_ms: f64, pf: &[BlockId]) -> String {
        let mut line = format!("ADV {} {} {} stall={} pf=", name, seq, kind as char, stall_ms);
        if pf.is_empty() {
            line.push('-');
        } else {
            for (i, b) in pf.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&b.0.to_string());
            }
        }
        line + "\n"
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        #[test]
        fn adv_renders_the_bytes_the_format_expression_did(
            seq in proptest::prelude::any::<u64>(),
            kind in 0usize..3,
            stall_pick in 0usize..8,
            stall_bits in proptest::prelude::any::<u64>(),
            blocks in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..12),
            shape in 0usize..4,
        ) {
            let stall_ms = match stall_pick {
                0 => 0.0,
                1 => (stall_bits % 100_000) as f64,
                2 => 1e-7,
                3 => 1e21,
                // Subnormal.
                4 => f64::from_bits(stall_bits % (1 << 52)),
                5 => (stall_bits % 10_000_000) as f64 / 1024.0,
                6 => f64::from_bits(stall_bits),
                _ => -((stall_bits % 1000) as f64) / 7.0,
            };
            let pf: Vec<BlockId> = match shape {
                0 => Vec::new(),
                1 => blocks.iter().take(1).map(|&b| BlockId(b)).collect(),
                2 => blocks.iter().map(|&b| BlockId(b % 1000)).collect(),
                _ => blocks.iter().map(|&b| BlockId(b)).chain([BlockId(u64::MAX)]).collect(),
            };
            let name = ["t", "t00042", "a.b-c_d"][seq as usize % 3];
            let kind = [b'h', b'p', b'm'][kind];
            let mut out = b"earlier line\n".to_vec();
            render_adv(&mut out, name, seq, kind, stall_ms, &pf);
            let want = adv_by_format(name, seq, kind, stall_ms, &pf);
            proptest::prop_assert_eq!(
                String::from_utf8_lossy(&out[13..]).into_owned(),
                want
            );
            proptest::prop_assert_eq!(&out[..13], b"earlier line\n");
        }
    }

    #[test]
    fn adv_renders_named_stalls_and_prefetch_lists() {
        let sub = f64::from_bits(1);
        assert!(sub > 0.0 && !sub.is_normal());
        for stall in [0.0, 15.0, 1e-7, 1e21, sub, 15.58, f64::MAX] {
            for pf in [&[][..], &[BlockId(7)], &[BlockId(1), BlockId(0), BlockId(u64::MAX)]] {
                let mut out = Vec::new();
                render_adv(&mut out, "alice", 17, b'm', stall, pf);
                assert_eq!(out, adv_by_format("alice", 17, b'm', stall, pf).into_bytes());
            }
        }
    }
}
