//! A minimal JSON value model, parser and pretty-printer.
//!
//! The workspace's durable artifacts ([`crate::spec::SchemaSpec`] and the
//! perturbation plan release in `betalike`) are interchanged as JSON. The
//! build environment has no crates.io access, so instead of `serde` /
//! `serde_json` this module provides a small, dependency-free JSON kernel:
//!
//! * [`Json`] — an ordered value tree (object keys keep insertion order, so
//!   rendered documents are stable);
//! * [`Json::parse`] — a strict recursive-descent parser with byte-offset
//!   diagnostics, bounded to [`MAX_DEPTH`] nested arrays/objects so no
//!   input can exhaust the stack;
//! * [`Json::pretty`] — two-space-indented rendering in the conventional
//!   `"key": value` style.
//!
//! Numbers are held as `f64`, which is lossless for every numeric field the
//! workspace serializes (attribute codes and probabilities).

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. Parsing
/// recurses once per level, so without a bound a single line of `[`s
/// (well under any request-size limit) overflows the thread stack and
/// aborts the process; every document this workspace reads or writes
/// nests a handful of levels.
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (rejects trailing input).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first syntax problem.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Renders the value with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Renders the value on a single line with no whitespace — the form the
    /// newline-delimited wire protocol of `betalike-server` requires (a
    /// pretty-printed document would span several frames).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&format_number(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&format_number(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    push_indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                push_indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Object member lookup by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly
    /// (no fractional part, within `u64` range).
    pub fn as_u64(&self) -> Option<u64> {
        // `u64::MAX as f64` rounds *up* to 2^64, so the range test must be
        // exclusive there — 2^64 itself would otherwise saturate the cast.
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// [`Json::as_u64`] narrowed to `u32` — the workspace's attribute-code
    /// type, so wire parsers need no ad-hoc range dance.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|n| u32::try_from(n).ok())
    }

    /// The numeric payload as a signed integer, if it is one exactly (no
    /// fractional part, within `i64` range).
    pub fn as_i64(&self) -> Option<i64> {
        // `i64::MIN as f64` is exactly -2^63 (inclusive); `i64::MAX as f64`
        // rounds *up* to 2^63, so the upper test must be exclusive there.
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= i64::MIN as f64 && *n < i64::MAX as f64 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn format_number(n: f64) -> String {
    if n.is_finite() {
        // Rust's shortest-roundtrip Display: "10" for 10.0, "0.25" for 0.25.
        format!("{n}")
    } else {
        // JSON has no non-finite numbers; degrade to null like serde_json.
        "null".to_string()
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: decode `\uD8xx\uDCxx` sequences.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid surrogate pair"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is valid UTF-8 by
                    // construction: we were handed a &str).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let s =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    /// Consumes one or more digits; errors if there are none.
    fn digits(&mut self, context: &str) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err(context));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    /// RFC 8259 number grammar: `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a lone `0`, or a nonzero digit followed by more —
        // leading zeros are invalid JSON.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            _ => self.digits("expected digit in number")?,
        }
        if matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("leading zeros are not allowed"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("expected digit after decimal point")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("expected digit in exponent")?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            message: format!("invalid number `{text}`"),
            offset: start,
        })
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_pretty() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("a \"b\"\n".into())),
            ("n".into(), Json::Num(10.0)),
            ("frac".into(), Json::Num(0.25)),
            ("flag".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            ("empty".into(), Json::Arr(vec![])),
            (
                "items".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Obj(vec![])]),
            ),
        ]);
        let text = doc.pretty();
        assert!(text.contains("\"n\": 10"));
        assert!(text.contains("\"frac\": 0.25"));
        assert!(text.contains("\"empty\": []"));
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn compact_is_single_line_and_roundtrips() {
        let doc = Json::Obj(vec![
            ("op".into(), Json::Str("count".into())),
            ("n".into(), Json::Num(10.0)),
            ("frac".into(), Json::Num(0.25)),
            (
                "flags".into(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
            (
                "nested".into(),
                Json::Obj(vec![("k".into(), Json::Num(1.0))]),
            ),
            ("text".into(), Json::Str("line\nbreak".into())),
        ]);
        let line = doc.compact();
        assert!(!line.contains('\n'), "compact must stay on one line");
        assert_eq!(
            line,
            r#"{"op":"count","n":10,"frac":0.25,"flags":[true,null],"nested":{"k":1},"text":"line\nbreak"}"#
        );
        assert_eq!(Json::parse(&line).unwrap(), doc);
        assert_eq!(Json::Arr(vec![]).compact(), "[]");
        assert_eq!(Json::Obj(vec![]).compact(), "{}");
    }

    #[test]
    fn integer_and_bool_accessors() {
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Num(42.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        // 2^64 is exactly `u64::MAX as f64` but outside u64 range; it must
        // be rejected, not saturated to u64::MAX.
        assert_eq!(Json::Num(18446744073709551616.0).as_u64(), None);
        // The largest f64 below 2^64 still fits.
        assert_eq!(
            Json::Num(18446744073709549568.0).as_u64(),
            Some(18446744073709549568)
        );
        assert_eq!(Json::Str("42".into()).as_u64(), None);
        assert_eq!(Json::Num(7.0).as_usize(), Some(7));
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::Null.as_bool(), None);
    }

    #[test]
    fn signed_and_narrow_accessors() {
        assert_eq!(Json::Num(-42.0).as_i64(), Some(-42));
        assert_eq!(Json::Num(42.0).as_i64(), Some(42));
        assert_eq!(Json::Num(-0.5).as_i64(), None);
        // -2^63 is exactly representable and in range; 2^63 is not in range.
        assert_eq!(Json::Num(-9223372036854775808.0).as_i64(), Some(i64::MIN));
        assert_eq!(Json::Num(9223372036854775808.0).as_i64(), None);
        assert_eq!(Json::Str("1".into()).as_i64(), None);
        assert_eq!(Json::Num(4294967295.0).as_u32(), Some(u32::MAX));
        assert_eq!(Json::Num(4294967296.0).as_u32(), None);
        assert_eq!(Json::Num(-1.0).as_u32(), None);
        assert_eq!(Json::Num(3.5).as_u32(), None);
    }

    #[test]
    fn parses_standard_forms() {
        let v = Json::parse(r#"{"a": [1, -2.5, 1e3], "b": "xA\n"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::Num(1000.0));
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "xA\n");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "{not json",
            "",
            "[1,]extra",
            "[1, 2",
            "{\"a\" 1}",
            "\"unterminated",
            "nul",
            // RFC 8259 number grammar violations.
            "01",
            "-01",
            "1.",
            ".5",
            "1e",
            "1e+",
            // Broken surrogate pairs.
            "\"\\uD800\\u0041\"",
            "\"\\uD800x\"",
            "\"\\uDC00\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Trailing garbage after a valid document.
        assert!(Json::parse("[1] [2]").is_err());
    }

    #[test]
    fn shortest_roundtrip_numbers_are_exact() {
        for &x in &[0.1, 1.0 / 3.0, 123456.789, 2.0_f64.powi(52) + 1.0] {
            let text = Json::Num(x).pretty();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert_eq!(Json::parse(&nested(MAX_DEPTH)).map(|_| ()), Ok(()));
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        // Objects count toward the same bound as arrays.
        let objects = "{\"k\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&objects).is_ok());
        let mixed = "{\"k\":".repeat(MAX_DEPTH) + "[]" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&mixed).is_err());
        // An unterminated flood is refused at the bound, not by the stack.
        assert!(Json::parse(&"[".repeat(500_000)).is_err());
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse("\"\\uD83D\\uDE00\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "😀");
    }
}
