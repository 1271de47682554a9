//! Minimal JSON for the wire protocol — no external dependencies.
//!
//! Two properties matter more than generality:
//!
//! * **Ordered objects.** [`Value::Obj`] is a `Vec<(String, Value)>`, not
//!   a map: writing preserves insertion order, so a response built the
//!   same way is the same *bytes* — the substrate of the protocol's
//!   byte-determinism guarantee (`--deterministic` daemon runs are
//!   diffable line-by-line).
//! * **Total parsing.** Any input either parses or returns a positioned
//!   [`ParseError`]; the server maps the latter to JSON-RPC `-32700`
//!   without panicking, whatever the client sends.
//!
//! Numbers are kept as `f64` (like JavaScript); integers up to 2^53
//! round-trip exactly, which covers every id, count and nanosecond
//! duration the protocol carries. Writing renders integral values
//! without a decimal point so `17` stays `17`.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value with insertion-ordered objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Keys are borrowed when they are literals of this program (every
    /// response it builds) and owned when they were parsed.
    Obj(Vec<(Cow<'static, str>, Value)>),
}

impl Value {
    /// Object field lookup (first match; objects built by this crate
    /// never contain duplicate keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an integer, if it is a number with no fractional
    /// part (protocol ids and versions travel this way).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => Some(*n as i64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialize to a single line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(self.len_hint());
        self.write(&mut out);
        out
    }

    /// The encoded length, short only by what escaping adds — what
    /// [`Value::to_line`] reserves so a large response is written into
    /// one allocation.
    pub(crate) fn len_hint(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 5,
            Value::Num(_) => 20,
            Value::Str(s) => s.len() + 2,
            Value::Arr(items) => 2 + items.iter().map(|v| v.len_hint() + 1).sum::<usize>(),
            Value::Obj(fields) => {
                let field = |(k, v): &(Cow<str>, Value)| k.len() + 4 + v.len_hint();
                2 + fields.iter().map(field).sum::<usize>()
            }
        }
    }

    /// Append the serialization to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => write_num(*n, out),
            Value::Str(s) => write_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Num(n as f64)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n as f64)
    }
}

/// Build an ordered object literal: `obj([("a", 1.into()), ...])`.
pub fn obj(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (Cow::Borrowed(k), v))
            .collect(),
    )
}

fn write_num(n: f64, out: &mut String) {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Append `s` as a JSON string literal. Runs of characters that need no
/// escape are copied in one piece; every byte that needs one is ASCII,
/// so a run always ends on a character boundary.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// A parse failure with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

/// Recursion guard: protocol messages are shallow; anything deeper is
/// hostile or broken input, and rejecting it beats a stack overflow.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    src: &'a str,
    /// `src.as_bytes()`.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_lit(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.expect_lit("null", Value::Null),
            Some(b't') => self.expect_lit("true", Value::Bool(true)),
            Some(b'f') => self.expect_lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]`"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1; // {
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected `:`"));
            }
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((Cow::Owned(key), val));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}`"));
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1; // "
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uXXXX` with a low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                0x00..=0x1f => return Err(self.err("raw control character in string")),
                _ => {
                    // A run of unescaped characters, copied in one piece
                    // up to the next `"`, `\` or control byte. All of
                    // those are ASCII, so the run ends on a char boundary.
                    let start = self.pos - 1;
                    let len = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    out.push_str(&self.src[start..start + len]);
                    self.pos = start + len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.err("bad hex digit in \\u escape")),
            };
            cp = cp * 16 + d;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_ordered_object() {
        let v = obj([
            ("b", Value::from(2i64)),
            ("a", Value::Arr(vec![Value::Null, Value::Bool(true)])),
            ("s", Value::from("x\"y\nz")),
        ]);
        let line = v.to_line();
        assert_eq!(line, r#"{"b":2,"a":[null,true],"s":"x\"y\nz"}"#);
        assert_eq!(parse(&line).unwrap(), v);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Value::from(17i64).to_line(), "17");
        assert_eq!(Value::Num(1.5).to_line(), "1.5");
        assert_eq!(Value::from(u64::from(u32::MAX)).to_line(), "4294967295");
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""aé😀\t""#).unwrap();
        assert_eq!(v, Value::Str("aé😀\t".to_string()));
    }

    #[test]
    fn rejects_malformed_input_with_position() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "nul", "1 2", "{'a':1}"] {
            let err = parse(bad).unwrap_err();
            assert!(!err.message.is_empty(), "{bad}");
        }
        // Deep nesting is rejected, not overflowed.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn control_bytes_are_rejected_at_the_same_offset_wherever_they_sit() {
        let raw = "raw control character in string";
        // (input, offset just past the control byte)
        for (bad, offset) in [
            ("\"\u{1}abc\"", 2),    // first in the string
            ("\"abc\u{1}def\"", 5), // in the middle of a run
            ("\"é€\u{1f}\"", 7),    // after multi-byte characters
            ("\"a\\n\u{1}\"", 5),   // right after an escape
            ("\"a\\u00e9\tb\"", 9), // right after a \u escape
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.message, raw, "{bad:?}");
            assert_eq!(err.offset, offset, "{bad:?}");
        }
    }

    #[test]
    fn multibyte_chars_next_to_escapes_round_trip() {
        // 2-, 3- and 4-byte characters on both sides of `\n`, `\"` and
        // `\u00e9`: runs must start and stop on char boundaries.
        let text = r#""é\n€\"😀\u00e9é€\n😀\"é\u00e9😀""#;
        let want = "é\n€\"😀éé€\n😀\"éé😀";
        let v = parse(text).unwrap();
        assert_eq!(v, Value::Str(want.to_string()));
        let line = v.to_line();
        assert_eq!(line, r#""é\n€\"😀éé€\n😀\"éé😀""#);
        assert_eq!(parse(&line).unwrap(), v);
    }

    #[test]
    fn long_strings_parse_and_report_a_missing_quote_at_the_end() {
        let body = "let x = é;\\n".repeat(80_000); // ≈ 1 MB, one escape per 11 chars
        let v = parse(&format!("\"{body}\"")).unwrap();
        assert_eq!(
            v.as_str().map(str::len),
            Some("let x = é;\n".len() * 80_000)
        );
        let open = format!("\"{}", "x".repeat(100_000));
        let err = parse(&open).unwrap_err();
        assert_eq!(err.message, "unterminated string");
        assert_eq!(err.offset, open.len());
    }

    /// The writer this crate shipped before it copied runs: one `char`
    /// at a time. Kept as the oracle for [`write_str`].
    fn write_str_per_char(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn write_str_copies_runs_to_the_same_bytes() {
        let every_control: String = (0u8..0x20).map(char::from).collect();
        let cases = [
            "",
            "plain ascii, no escapes at all",
            "\"",
            "\\",
            "\"\"\\\\\n\r\t",
            "quote \"first\" then \\ and a\ttab\nnewline\rreturn",
            every_control.as_str(),
            "\u{7f}\u{80}\u{9f}", // DEL and C1 controls pass through
            "é€😀",
            "é\n€\"😀\\é\t€",
            "\u{1}é\u{1f}€\u{0}",
            "ends with an escape\n",
            "\nstarts with one",
        ];
        for case in cases {
            let (mut got, mut want) = (String::new(), String::new());
            write_str(case, &mut got);
            write_str_per_char(case, &mut want);
            assert_eq!(got, want, "{case:?}");
            assert_eq!(parse(&got).unwrap(), Value::Str(case.to_string()));
        }
        // Appends; never clears what the caller already wrote.
        let mut out = String::from("{\"k\":");
        write_str("v", &mut out);
        assert_eq!(out, "{\"k\":\"v\"");
    }

    #[test]
    fn to_line_reserves_what_it_writes() {
        let v = obj([
            ("text", Value::from("x".repeat(10_000))),
            ("items", Value::Arr((0..100i64).map(Value::from).collect())),
        ]);
        let line = v.to_line();
        assert!(v.len_hint() >= line.len(), "one allocation, not a regrowth");
        assert!(v.len_hint() < 2 * line.len());
    }

    #[test]
    fn duplicate_free_get_and_typed_accessors() {
        let v = parse(r#"{"id":7,"ok":true,"name":"d","x":1.25}"#).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_i64), Some(7));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("name").and_then(Value::as_str), Some("d"));
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(1.25));
        assert_eq!(v.get("x").and_then(Value::as_i64), None);
        assert_eq!(v.get("missing"), None);
    }
}
