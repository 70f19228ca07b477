//! A minimal JSON value, writer and parser.
//!
//! The workspace builds hermetically with zero external dependencies
//! (see README "Offline / hermetic build"), so the few places that
//! serialize results — [`SimReport::to_json`], the experiment dumps,
//! the bench harness — use this module instead of `serde_json`. It is
//! deliberately small: an ordered value tree, a writer whose pretty
//! output matches the `serde_json::to_string_pretty` conventions the
//! repo's recorded results were produced with (two-space indent,
//! `": "` separators, shortest-round-trip float formatting, non-finite
//! floats as `null`), and a strict recursive-descent parser for
//! round-trip tests and result loading.
//!
//! [`SimReport::to_json`]: ../../cr_core/struct.SimReport.html#method.to_json

use std::fmt;

/// A JSON value.
///
/// Object members keep their insertion order, so writing a value
/// produces a stable, reviewable byte sequence.
///
/// # Examples
///
/// ```
/// use cr_sim::json::Json;
///
/// let v = Json::obj([
///     ("name", Json::from("fig09")),
///     ("cycles", Json::from(23_000u64)),
///     ("accepted", Json::from(0.29)),
/// ]);
/// assert_eq!(
///     v.to_string(),
///     r#"{"name":"fig09","cycles":23000,"accepted":0.29}"#
/// );
/// let back = Json::parse(&v.to_pretty()).unwrap();
/// assert_eq!(back.get("cycles").and_then(Json::as_u64), Some(23000));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (u64 counters serialize losslessly).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number. Non-finite values write as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn arr(values: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(values.into_iter().collect())
    }

    /// Looks up an object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer in
    /// range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    #[allow(clippy::inherent_to_string_shadow_display)]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation, the layout
    /// `serde_json::to_string_pretty` used for the recorded results.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(values) => {
                write_seq(out, indent, depth, '[', ']', values.len(), |out, i, d| {
                    values[i].write(out, indent, d);
                })
            }
            Json::Obj(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i, d| {
                    let (k, v) = &members[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                })
            }
        }
    }
}

/// Writes an array or object body with the shared bracket/newline
/// layout.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat(' ').take(width * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(width * depth));
    }
    out.push(close);
}

/// Writes `v` the way `serde_json` does: shortest representation that
/// round-trips (Rust's `{:?}` float formatting), integral values with a
/// trailing `.0`, and non-finite values as `null`.
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

/// Writes `s` quoted, escaping per RFC 8259: `"`, `\`, and control
/// characters (short escapes for backspace, form feed, newline,
/// carriage return, tab; `\u00XX` for the rest).
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(u64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        if v < 0 {
            Json::I64(v)
        } else {
            Json::U64(v as u64)
        }
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// A parse failure: what went wrong and the byte offset it happened
/// at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document. Strict: exactly one value, RFC 8259
    /// syntax, no trailing garbage.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut values = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(values));
        }
        loop {
            self.skip_ws();
            values.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(values));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped runs wholesale (UTF-8 passes through).
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| {
                self.err("invalid UTF-8 in string")
            })?);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a second \uXXXX must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.eat(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(self.err("unpaired high surrogate"));
                    }
                } else {
                    hi
                };
                out.push(
                    char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?,
                );
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected digit"));
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // The scan above took ASCII bytes only, so this cannot fail;
        // an error keeps a bad input from ever becoming a panic.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("malformed number"))?;
        if !fractional {
            if negative {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Json::I64(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_layout() {
        let v = Json::obj([
            ("a", Json::from(1u64)),
            ("b", Json::arr([Json::from(true), Json::Null])),
            ("c", Json::obj::<String>([])),
        ]);
        assert_eq!(v.to_string(), r#"{"a":1,"b":[true,null],"c":{}}"#);
        assert_eq!(
            v.to_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null\n  ],\n  \"c\": {}\n}"
        );
    }

    #[test]
    fn float_formatting_matches_recorded_conventions() {
        assert_eq!(Json::F64(1.0).to_string(), "1.0");
        assert_eq!(Json::F64(-0.5).to_string(), "-0.5");
        assert_eq!(Json::F64(0.1).to_string(), "0.1");
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
        // Shortest round-trip: a full-precision value survives.
        let v = 0.286_731_412_953_12_f64;
        let text = Json::F64(v).to_string();
        assert_eq!(text.parse::<f64>().unwrap(), v);
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote\" back\\slash \n\r\t \u{8}\u{c} ctrl\u{1} unicode:\u{1F600}é";
        let written = Json::Str(nasty.to_string()).to_string();
        assert!(written.contains("\\\""));
        assert!(written.contains("\\\\"));
        assert!(written.contains("\\u0001"));
        let back = Json::parse(&written).unwrap();
        assert_eq!(back.as_str(), Some(nasty));
    }

    #[test]
    fn parses_numbers_into_lossless_variants() {
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
        assert_eq!(Json::parse("-42").unwrap(), Json::I64(-42));
        assert_eq!(Json::parse("2.5e3").unwrap(), Json::F64(2500.0));
        assert_eq!(Json::parse("0.125").unwrap(), Json::F64(0.125));
    }

    #[test]
    fn parses_surrogate_pairs_and_escapes() {
        let v = Json::parse(r#""\ud83d\ude00 \u00e9 \/ \n""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600} é / \n"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "nul", "01x", "\"unterminated",
            "{\"a\":1} trailing", "[1 2]", "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nested_round_trip() {
        let v = Json::obj([
            ("report", Json::obj([
                ("cycles", Json::from(23_000u64)),
                ("latency", Json::arr([Json::from(39.8), Json::from(53.8)])),
                ("deadlocked", Json::from(false)),
                ("note", Json::from("8×8 torus")),
            ])),
            ("negative", Json::from(-7i64)),
        ]);
        for text in [v.to_string(), v.to_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn get_and_accessors() {
        let v = Json::parse(r#"{"n": 3, "f": 1.5, "s": "x", "b": true, "a": [1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert!(v.get("missing").is_none());
    }
}
