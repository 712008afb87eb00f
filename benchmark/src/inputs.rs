//! Harness-owned input generators. Everything a workload feeds the
//! programs under test is drawn here from `--seed` through
//! `prefetch_trace::synth::TraceKind::stream`; the programs receive only
//! the generated records or lines.
//!
//! Each workload's default-seed input carries a pinned FNV-1a
//! fingerprint ([`PINNED`]). A change to `crates/trace` that moves the
//! inputs aborts the run with `workload drift` instead of silently
//! moving the goalposts.

use prefetch_trace::synth::TraceKind;
use prefetch_trace::TraceSource;

/// The seed whose inputs are pinned.
pub const DEFAULT_SEED: u64 = 42;

/// One operation of a workload: a block reference by a tenant (the
/// `sim-*` workloads have a single tenant 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Tenant index.
    pub tenant: u32,
    /// Referenced block.
    pub block: u64,
}

/// A workload's operation stream plus the per-tenant model it runs
/// against; the layer isolates replay exactly this call sequence.
pub struct Ops {
    /// Number of tenants (`1` for `sim-*`).
    pub tenants: usize,
    /// Cache blocks per tenant.
    pub cache_blocks: usize,
    /// Prefetch-tree node budget per tenant (`usize::MAX` = unbounded;
    /// bounded trees evict).
    pub node_limit: usize,
    /// Operations per traced chunk span.
    pub chunk: usize,
    /// The operations, in the order the program under test sees them.
    pub ops: Vec<Op>,
}

/// FNV-1a, 64-bit. Kept here rather than borrowed from `prefetch-hash`
/// so that a change to that crate cannot move the pins with the inputs.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// Drain `refs` references of `kind` from `seed`.
pub fn sim_blocks(kind: TraceKind, refs: usize, seed: u64) -> Vec<u64> {
    let mut src = kind.stream(refs, seed);
    let mut out = Vec::with_capacity(refs);
    while let Some(rec) = src.next_record().expect("synthetic sources cannot fail") {
        out.push(rec.block.0);
    }
    out
}

/// Fingerprint of a `sim-*` input: every block, little-endian.
pub fn fingerprint_blocks(blocks: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for b in blocks {
        h.bytes(&b.to_le_bytes());
    }
    h.finish()
}

/// Shape of a `serve-*` script.
#[derive(Clone, Copy, Debug)]
pub struct ScriptShape {
    /// Tenants, all live at once.
    pub tenants: usize,
    /// `EV` lines per tenant.
    pub events_per_tenant: usize,
    /// Consecutive events a tenant sends per round-robin turn.
    pub slice: usize,
    /// Events between a tenant's shifts from one trace kind to its other.
    pub phase_len: usize,
    /// End with one `CLOSE` per tenant and `SHUTDOWN` (the WAL workloads
    /// leave tenants live so their logs stay replayable).
    pub close: bool,
}

/// A generated request script.
pub struct Script {
    /// The request lines, newline-terminated, as one buffer.
    pub text: String,
    /// The `EV` lines as operations, in script order.
    pub ops: Vec<Op>,
    /// Total request lines.
    pub lines: usize,
    /// Time spent draining the trace streams (not formatting lines), ns.
    pub drain_ns: u64,
}

/// Tenant `i`'s protocol name.
pub fn tenant_name(i: usize) -> String {
    format!("t{i:05}")
}

/// The two trace kinds tenant `i` alternates between.
fn kinds_for(i: usize) -> (TraceKind, TraceKind) {
    let all = TraceKind::ALL;
    (all[i % all.len()], all[(i + 1 + i / all.len()) % all.len()])
}

/// Generate the request script: every tenant `OPEN`s with the server's
/// default spec, then tenants take turns sending `slice` events each
/// until all have sent `events_per_tenant`; tenant `i` draws from one
/// trace kind seeded `seed + i` and shifts to its second kind (and back)
/// every `phase_len` events.
pub fn serve_script(shape: &ScriptShape, seed: u64) -> Script {
    let n = shape.events_per_tenant;
    let drain_started = std::time::Instant::now();
    let mut blocks: Vec<Vec<u64>> = Vec::with_capacity(shape.tenants);
    for i in 0..shape.tenants {
        let (ka, kb) = kinds_for(i);
        let tenant_seed = seed.wrapping_add(i as u64);
        // Each stream could serve the whole tenant alone, so neither runs dry.
        let mut a = ka.stream(n, tenant_seed);
        let mut b = kb.stream(n, tenant_seed ^ 0x9e37_79b9);
        let mut seq = Vec::with_capacity(n);
        for k in 0..n {
            let src = if (k / shape.phase_len).is_multiple_of(2) { &mut a } else { &mut b };
            let rec = src.next_record().expect("synthetic sources cannot fail");
            seq.push(rec.expect("stream sized for the whole tenant").block.0);
        }
        blocks.push(seq);
    }

    let drain_ns = drain_started.elapsed().as_nanos() as u64;

    let names: Vec<String> = (0..shape.tenants).map(tenant_name).collect();
    let mut text = String::with_capacity(shape.tenants * n * 24);
    let mut ops = Vec::with_capacity(shape.tenants * n);
    let mut lines = 0;
    for name in &names {
        text.push_str("OPEN ");
        text.push_str(name);
        text.push('\n');
        lines += 1;
    }
    let mut sent = 0;
    while sent < n {
        let stop = (sent + shape.slice).min(n);
        for (i, name) in names.iter().enumerate() {
            for &block in &blocks[i][sent..stop] {
                text.push_str("EV ");
                text.push_str(name);
                text.push(' ');
                text.push_str(&block.to_string());
                text.push('\n');
                ops.push(Op { tenant: i as u32, block });
                lines += 1;
            }
        }
        sent = stop;
    }
    if shape.close {
        for name in &names {
            text.push_str("CLOSE ");
            text.push_str(name);
            text.push('\n');
            lines += 1;
        }
        text.push_str("SHUTDOWN\n");
        lines += 1;
    }
    Script { text, ops, lines, drain_ns }
}

/// Fingerprint of a `serve-*` input: the script bytes.
pub fn fingerprint_script(script: &Script) -> u64 {
    let mut h = Fnv::new();
    h.bytes(script.text.as_bytes());
    h.finish()
}

/// Pinned fingerprints of each workload's full-scale input at
/// [`DEFAULT_SEED`]. Re-pin (the mismatch message prints the new value)
/// only in a change whose purpose is to alter the benchmark.
pub const PINNED: [(&str, u64); 6] = [
    ("sim-cello", 0x4df8_69ec_2b59_9234),
    ("sim-cad", 0x9abe_2b26_1c7a_f5f1),
    // serve-t2 runs serve-mux's script; serve-recover replays serve-wal's.
    ("serve-mux", 0x371c_3471_ed05_3eb3),
    ("serve-t2", 0x371c_3471_ed05_3eb3),
    ("serve-wal", 0xb3ed_f545_3500_75d9),
    ("serve-recover", 0xb3ed_f545_3500_75d9),
];

/// Check a full-scale default-seed input against its pin.
pub fn check_pin(workload: &str, fingerprint: u64) -> Result<(), String> {
    let pinned = PINNED
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|&(_, f)| f)
        .ok_or_else(|| format!("no pinned fingerprint for workload {workload:?}"))?;
    if pinned == fingerprint {
        Ok(())
    } else {
        Err(format!(
            "workload drift: {workload} input at seed {DEFAULT_SEED} fingerprints to \
             {fingerprint:#018x}, pinned {pinned:#018x}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_vectors() {
        let mut h = Fnv::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn script_is_seeded_round_robin_and_complete() {
        let shape =
            ScriptShape { tenants: 6, events_per_tenant: 20, slice: 8, phase_len: 5, close: true };
        let a = serve_script(&shape, 3);
        let b = serve_script(&shape, 3);
        assert_eq!(a.text, b.text);
        assert_ne!(a.text, serve_script(&shape, 4).text);
        assert_eq!(a.lines, a.text.lines().count());
        assert_eq!(a.lines, 6 + 6 * 20 + 6 + 1);
        assert_eq!(a.ops.len(), 6 * 20);
        // Slices of 8, 8, 4 per tenant per round.
        let tenants: Vec<u32> = a.ops.iter().map(|o| o.tenant).collect();
        assert_eq!(&tenants[..9], &[0, 0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(tenants[6 * 16], 0);
        assert_eq!(tenants[6 * 16 + 4], 1);
        assert!(a.text.ends_with("CLOSE t00005\nSHUTDOWN\n"));
        let open = serve_script(&ScriptShape { close: false, ..shape }, 3);
        assert!(a.text.starts_with(&open.text));
        assert_eq!(open.lines, 6 + 6 * 20);
        // The EV lines carry exactly the ops.
        let evs: Vec<String> =
            a.ops.iter().map(|o| format!("EV t{:05} {}", o.tenant, o.block)).collect();
        let got: Vec<&str> = a.text.lines().filter(|l| l.starts_with("EV ")).collect();
        assert_eq!(got, evs);
    }

    #[test]
    fn drift_is_reported_by_name() {
        let err = check_pin("sim-cad", 1).unwrap_err();
        assert!(err.starts_with("workload drift: sim-cad"), "{err}");
        assert!(check_pin("nope", 1).is_err());
    }
}
