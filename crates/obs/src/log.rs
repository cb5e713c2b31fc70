//! Structured, leveled logging: one line per event, either
//! `ts=… level=… msg=… key=value…` text or a JSON object, written to an
//! injectable sink (stderr in production, a buffer in tests).
//!
//! The level comes from (highest precedence first) the server's
//! `--log-level` flag, the `BETALIKE_LOG` environment variable, and a
//! default of [`Level::Warn`]. Timestamps are monotonic [`Clock`]
//! nanoseconds — not wall-clock time — which keeps the crate inside the
//! determinism lint's rules (no `SystemTime` anywhere) and makes log
//! output reproducible under a [`crate::ManualClock`].

use crate::clock::Clock;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

/// Log severity, ordered so `Error < Warn < Info < Debug`: a logger at
/// level L emits events at or below L (and [`Level::Off`] emits nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Emit nothing.
    Off,
    /// Unrecoverable per-request failures (I/O errors, corrupt artifacts).
    Error,
    /// Degraded-but-serving conditions (shed connections, slow queries).
    Warn,
    /// Artifact lifecycle: the server adds one `artifact published` line
    /// per fresh publish and one `artifact reloaded` line per artifact
    /// read back from the store.
    Info,
    /// Everything [`Level::Info`] emits; nothing in the serving stack
    /// logs at this level itself.
    Debug,
}

impl Level {
    /// Parses `"off" | "error" | "warn" | "info" | "debug"` (ASCII
    /// case-insensitive); anything else is `None`.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// A field value in a structured log event.
#[derive(Debug, Clone, PartialEq)]
pub enum LogValue {
    /// A string field.
    S(String),
    /// A numeric field (integers pass through losslessly up to 2^53).
    N(f64),
    /// A boolean field.
    B(bool),
}

impl From<&str> for LogValue {
    fn from(v: &str) -> Self {
        LogValue::S(v.to_string())
    }
}
impl From<String> for LogValue {
    fn from(v: String) -> Self {
        LogValue::S(v)
    }
}
impl From<u64> for LogValue {
    fn from(v: u64) -> Self {
        LogValue::N(v as f64)
    }
}
impl From<usize> for LogValue {
    fn from(v: usize) -> Self {
        LogValue::N(v as f64)
    }
}
impl From<i64> for LogValue {
    fn from(v: i64) -> Self {
        LogValue::N(v as f64)
    }
}
impl From<f64> for LogValue {
    fn from(v: f64) -> Self {
        LogValue::N(v)
    }
}
impl From<bool> for LogValue {
    fn from(v: bool) -> Self {
        LogValue::B(v)
    }
}

/// A leveled, structured logger. Cloning is cheap (shared sink); emitting
/// below the configured level costs one branch.
#[derive(Clone)]
pub struct Logger {
    level: Level,
    json: bool,
    clock: Arc<dyn Clock>,
    sink: Arc<Mutex<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for Logger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Logger")
            .field("level", &self.level)
            .field("json", &self.json)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl Logger {
    /// A logger writing to `sink`: stderr in the server, a shared buffer
    /// in tests.
    pub fn with_sink(
        level: Level,
        json: bool,
        clock: Arc<dyn Clock>,
        sink: Box<dyn Write + Send>,
    ) -> Self {
        Logger {
            level,
            json,
            clock,
            sink: Arc::new(Mutex::new(sink)),
        }
    }

    /// The level from the `BETALIKE_LOG` environment variable, or `None`
    /// when unset or unparseable.
    pub fn level_from_env() -> Option<Level> {
        std::env::var("BETALIKE_LOG")
            .ok()
            .and_then(|v| Level::parse(&v))
    }

    /// The configured level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Whether an event at `level` would be emitted.
    pub fn enabled(&self, level: Level) -> bool {
        level != Level::Off && level <= self.level
    }

    fn sink(&self) -> MutexGuard<'_, Box<dyn Write + Send>> {
        self.sink.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Emits one structured event. Field order is preserved as given.
    pub fn log(&self, level: Level, msg: &str, fields: &[(&str, LogValue)]) {
        if !self.enabled(level) {
            return;
        }
        let ts = self.clock.now_ns();
        let line = if self.json {
            render_json(ts, level, msg, fields)
        } else {
            render_text(ts, level, msg, fields)
        };
        let mut sink = self.sink();
        // A dead sink (closed stderr) must never take the server down.
        let _ = sink.write_all(line.as_bytes());
        let _ = sink.write_all(b"\n");
        let _ = sink.flush();
    }

    /// Emits at [`Level::Error`].
    pub fn error(&self, msg: &str, fields: &[(&str, LogValue)]) {
        self.log(Level::Error, msg, fields);
    }

    /// Emits at [`Level::Warn`].
    pub fn warn(&self, msg: &str, fields: &[(&str, LogValue)]) {
        self.log(Level::Warn, msg, fields);
    }

    /// Emits at [`Level::Info`].
    pub fn info(&self, msg: &str, fields: &[(&str, LogValue)]) {
        self.log(Level::Info, msg, fields);
    }

    /// Emits at [`Level::Debug`].
    pub fn debug(&self, msg: &str, fields: &[(&str, LogValue)]) {
        self.log(Level::Debug, msg, fields);
    }
}

fn render_text(ts: u64, level: Level, msg: &str, fields: &[(&str, LogValue)]) -> String {
    let mut line = format!("ts_ns={} level={} msg={}", ts, level.as_str(), quote(msg));
    for (k, v) in fields {
        line.push(' ');
        line.push_str(k);
        line.push('=');
        match v {
            LogValue::S(s) => line.push_str(&quote(s)),
            LogValue::N(n) => line.push_str(&fmt_num(*n)),
            LogValue::B(b) => line.push_str(if *b { "true" } else { "false" }),
        }
    }
    line
}

fn render_json(ts: u64, level: Level, msg: &str, fields: &[(&str, LogValue)]) -> String {
    let mut line = format!(
        "{{\"ts_ns\":{},\"level\":{},\"msg\":{}",
        ts,
        json_str(level.as_str()),
        json_str(msg)
    );
    for (k, v) in fields {
        line.push(',');
        line.push_str(&json_str(k));
        line.push(':');
        match v {
            LogValue::S(s) => line.push_str(&json_str(s)),
            LogValue::N(n) => line.push_str(&fmt_num(*n)),
            LogValue::B(b) => line.push_str(if *b { "true" } else { "false" }),
        }
    }
    line.push('}');
    line
}

/// Integers render without a trailing `.0`; non-finite values (which JSON
/// cannot carry) render as 0.
fn fmt_num(n: f64) -> String {
    if !n.is_finite() {
        "0".to_string()
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{}", n)
    }
}

/// Text-mode quoting: bare if simple, JSON-style quoted otherwise.
fn quote(s: &str) -> String {
    let simple = !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':' | '/'));
    if simple {
        s.to_string()
    } else {
        json_str(s)
    }
}

/// A JSON string literal with full escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    /// A sink handing its bytes back through a shared buffer.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Shared {
        fn text(&self) -> String {
            String::from_utf8_lossy(&self.0.lock().unwrap_or_else(|e| e.into_inner())).to_string()
        }
    }

    fn logger(level: Level, json: bool) -> (Logger, Shared, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let sink = Shared::default();
        let logger = Logger::with_sink(
            level,
            json,
            Arc::clone(&clock) as Arc<dyn Clock>,
            Box::new(sink.clone()),
        );
        (logger, sink, clock)
    }

    #[test]
    fn level_parsing_round_trips() {
        for l in [
            Level::Off,
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
        ] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("WARNING"), Some(Level::Warn));
        assert_eq!(Level::parse(" Info "), Some(Level::Info));
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn level_filtering_is_ordered() {
        let (log, sink, _) = logger(Level::Warn, false);
        log.debug("dropped", &[]);
        log.info("dropped", &[]);
        log.warn("kept", &[]);
        log.error("kept", &[]);
        let text = sink.text();
        assert_eq!(text.matches("kept").count(), 2);
        assert!(!text.contains("dropped"));
        assert!(!log.enabled(Level::Off), "Off events never emit");
    }

    #[test]
    fn off_silences_everything() {
        let (log, sink, _) = logger(Level::Off, false);
        log.error("nope", &[]);
        assert_eq!(sink.text(), "");
    }

    #[test]
    fn json_lines_are_parseable_objects() {
        let (log, sink, clock) = logger(Level::Info, true);
        clock.set(42);
        log.info(
            "slow query",
            &[
                ("op", "count".into()),
                ("elapsed_ms", 17u64.into()),
                ("cached", false.into()),
                ("note", "needs \"quotes\"\n".into()),
            ],
        );
        let line = sink.text();
        assert_eq!(
            line.trim_end(),
            "{\"ts_ns\":42,\"level\":\"info\",\"msg\":\"slow query\",\"op\":\"count\",\"elapsed_ms\":17,\"cached\":false,\"note\":\"needs \\\"quotes\\\"\\n\"}"
        );
    }

    #[test]
    fn text_lines_quote_only_when_needed() {
        let (log, sink, clock) = logger(Level::Debug, false);
        clock.set(7);
        log.debug(
            "ready",
            &[("addr", "127.0.0.1:9000".into()), ("msg two", "a b".into())],
        );
        assert_eq!(
            sink.text().trim_end(),
            "ts_ns=7 level=debug msg=ready addr=127.0.0.1:9000 msg two=\"a b\""
        );
    }

    #[test]
    fn numbers_render_cleanly() {
        assert_eq!(fmt_num(17.0), "17");
        assert_eq!(fmt_num(0.5), "0.5");
        assert_eq!(fmt_num(f64::NAN), "0");
        assert_eq!(fmt_num(f64::INFINITY), "0");
    }
}
