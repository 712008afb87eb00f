//! Structured logging facade.
//!
//! Every event is a [`Record`]: a level, an event name, and ordered
//! `key=value` fields. Records render two ways:
//!
//! * **human** (`render_human`) — `LEVEL event key=value ...`, written to
//!   stderr for events at or above the stderr threshold (default
//!   [`Level::Info`]);
//! * **JSONL** (`render_json`) — one JSON object per line with a stable
//!   field order (`ts_ms`, `level`, `event`, then fields in insertion
//!   order), written to the file configured by [`set_json_path`]
//!   regardless of level.
//!
//! The JSON encoder is hand-rolled (the workspace has no JSON
//! dependency), and `render_json` is public so golden-file tests can pin
//! the schema without going through a sink.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Log severity, in ascending order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Debug,
    Info,
    Warn,
    Error,
}

impl Level {
    /// Stable lowercase name used in both renderings.
    pub fn name(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// A field value. Numbers render unquoted in JSON; non-finite floats
/// render as `null`.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Str(String),
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
}

/// One structured log record: level + event name + ordered fields.
#[derive(Clone, Debug)]
pub struct Record {
    level: Level,
    event: &'static str,
    fields: Vec<(&'static str, Value)>,
}

impl Record {
    /// Start a record for `event` at `level`.
    pub fn new(level: Level, event: &'static str) -> Self {
        Record { level, event, fields: Vec::new() }
    }

    /// The record's level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// The record's event name.
    pub fn event(&self) -> &'static str {
        self.event
    }

    /// Append a string field.
    pub fn str(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.fields.push((key, Value::Str(value.into())));
        self
    }

    /// Append an unsigned integer field.
    pub fn u64(mut self, key: &'static str, value: u64) -> Self {
        self.fields.push((key, Value::U64(value)));
        self
    }

    /// Append a signed integer field.
    pub fn i64(mut self, key: &'static str, value: i64) -> Self {
        self.fields.push((key, Value::I64(value)));
        self
    }

    /// Append a float field (non-finite values render as JSON `null`).
    pub fn f64(mut self, key: &'static str, value: f64) -> Self {
        self.fields.push((key, Value::F64(value)));
        self
    }

    /// Append a boolean field.
    pub fn bool(mut self, key: &'static str, value: bool) -> Self {
        self.fields.push((key, Value::Bool(value)));
        self
    }

    /// Render as a single JSON object (no trailing newline). Field order
    /// is stable: `ts_ms` (when given), `level`, `event`, then fields in
    /// insertion order — golden tests pin this.
    pub fn render_json(&self, ts_ms: Option<u64>) -> String {
        let mut out = String::with_capacity(64);
        out.push('{');
        if let Some(ts) = ts_ms {
            out.push_str("\"ts_ms\":");
            out.push_str(&ts.to_string());
            out.push(',');
        }
        out.push_str("\"level\":\"");
        out.push_str(self.level.name());
        out.push_str("\",\"event\":\"");
        out.push_str(self.event);
        out.push('"');
        for (key, value) in &self.fields {
            out.push(',');
            push_json_str(&mut out, key);
            out.push(':');
            match value {
                Value::Str(s) => push_json_str(&mut out, s),
                Value::U64(v) => out.push_str(&v.to_string()),
                Value::I64(v) => out.push_str(&v.to_string()),
                Value::F64(v) => {
                    if v.is_finite() {
                        out.push_str(&format!("{v}"));
                    } else {
                        out.push_str("null");
                    }
                }
                Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            }
        }
        out.push('}');
        out
    }

    /// Render for a human: `LEVEL event key=value ...`.
    pub fn render_human(&self) -> String {
        let mut out = format!("{:5} {}", self.level.name(), self.event);
        for (key, value) in &self.fields {
            out.push(' ');
            out.push_str(key);
            out.push('=');
            match value {
                Value::Str(s) => {
                    if s.chars().any(|c| c.is_whitespace() || c == '"') {
                        out.push('"');
                        out.push_str(&s.replace('"', "\\\""));
                        out.push('"');
                    } else {
                        out.push_str(s);
                    }
                }
                Value::U64(v) => out.push_str(&v.to_string()),
                Value::I64(v) => out.push_str(&v.to_string()),
                Value::F64(v) => out.push_str(&format!("{v}")),
                Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            }
        }
        out
    }

    /// Send the record to the configured sinks: stderr when at or above
    /// the stderr threshold, and the JSONL file (if configured) always.
    pub fn emit(self) {
        sinks().lock().unwrap().emit(&self);
    }
}

/// Convenience constructors for the four levels.
pub fn debug(event: &'static str) -> Record {
    Record::new(Level::Debug, event)
}
pub fn info(event: &'static str) -> Record {
    Record::new(Level::Info, event)
}
pub fn warn(event: &'static str) -> Record {
    Record::new(Level::Warn, event)
}
pub fn error(event: &'static str) -> Record {
    Record::new(Level::Error, event)
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Sinks {
    stderr_level: Level,
    json: Option<BufWriter<File>>,
}

impl Sinks {
    fn emit(&mut self, record: &Record) {
        if record.level >= self.stderr_level {
            eprintln!("{}", record.render_human());
        }
        if let Some(w) = self.json.as_mut() {
            let line = record.render_json(Some(since_start_ms()));
            // A failed log write must never take down the run; drop the
            // sink so we don't retry on every record.
            if writeln!(w, "{line}").is_err() {
                self.json = None;
            }
        }
    }
}

fn sinks() -> &'static Mutex<Sinks> {
    static SINKS: OnceLock<Mutex<Sinks>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(Sinks { stderr_level: Level::Info, json: None }))
}

fn since_start_ms() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// Open `path` as the JSONL sink; every record (any level) is appended
/// as one JSON object per line. Returns the I/O error if the file can't
/// be created.
pub fn set_json_path(path: &std::path::Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    sinks().lock().unwrap().json = Some(BufWriter::new(file));
    Ok(())
}

/// Flush the JSONL sink (call before process exit).
pub fn flush() {
    if let Some(w) = sinks().lock().unwrap().json.as_mut() {
        let _ = w.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_field_order_is_stable() {
        let r = info("cell_ok")
            .str("fp", "00000000deadbeef")
            .u64("attempts", 1)
            .bool("restored", false);
        assert_eq!(
            r.render_json(None),
            "{\"level\":\"info\",\"event\":\"cell_ok\",\"fp\":\"00000000deadbeef\",\
             \"attempts\":1,\"restored\":false}"
        );
        assert!(r.render_json(Some(42)).starts_with("{\"ts_ms\":42,\"level\":\"info\""));
    }

    #[test]
    fn json_escapes_control_and_quote_characters() {
        let r = error("cell_failed").str("error", "panic: \"boom\"\n\tat line\u{1}");
        let json = r.render_json(None);
        assert!(json.contains("\\\"boom\\\""));
        assert!(json.contains("\\n\\tat line\\u0001"));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let r = info("x").f64("a", f64::NAN).f64("b", f64::INFINITY).f64("c", 1.5);
        let json = r.render_json(None);
        assert!(json.contains("\"a\":null"));
        assert!(json.contains("\"b\":null"));
        assert!(json.contains("\"c\":1.5"));
    }

    #[test]
    fn human_rendering_quotes_strings_with_spaces() {
        let r = warn("cell_timeout").str("trace", "cello 1992").u64("limit_ms", 500);
        let human = r.render_human();
        assert!(human.starts_with("warn  cell_timeout"));
        assert!(human.contains("trace=\"cello 1992\""));
        assert!(human.contains("limit_ms=500"));
    }

    #[test]
    fn levels_order_by_severity() {
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
    }

    #[test]
    fn jsonl_sink_captures_all_levels() {
        let dir = std::env::temp_dir().join(format!("telemetry-log-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        set_json_path(&path).unwrap();
        debug("below_stderr_threshold").u64("n", 1).emit();
        info("visible").str("k", "v").emit();
        flush();
        // Detach the sink so later tests in other files are unaffected.
        sinks().lock().unwrap().json = None;
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"below_stderr_threshold\""));
        assert!(lines[1].contains("\"event\":\"visible\""));
        assert!(lines[0].starts_with("{\"ts_ms\":"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
