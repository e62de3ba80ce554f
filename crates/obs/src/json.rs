//! The workspace's one JSON implementation: a small, dependency-free
//! value with a depth-limited parser and a byte-stable serializer.
//! It is compiled whatever the `enabled` feature says; the trace export
//! streams through its string escaper, `experiments --json` renders
//! through [`Value::to_json_pretty`], and `ksa-server` re-exports the
//! module as `ksa_server::json` for its wire protocol.
//!
//! The server's crash-safe cache stores *serialized response strings*
//! and promises cold-vs-cached responses are byte-identical (DESIGN.md
//! §12.4), so serialization must be a pure function of the value:
//! objects keep insertion order (no hash-map iteration order leaking
//! into the wire format), integers print as integers, and floats use
//! Rust's shortest round-trip formatting.
//!
//! The parser is the hostile-input face of the server — it runs on
//! whatever bytes a client framed — so recursion is capped at
//! [`MAX_DEPTH`], numbers follow RFC 8259's grammar exactly, and every
//! malformed input is an `Err`, never a panic.

use std::fmt::Write as _;

/// Column budget of [`Value::to_json_pretty`]: a container of scalars
/// stays on one line when that line fits.
const PRETTY_WIDTH: usize = 100;

/// Maximum nesting depth the parser accepts. Legitimate protocol
/// messages nest 3–4 levels; 64 leaves headroom while keeping a hostile
/// `[[[[…` well clear of the stack guard.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object members keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Numbers without a fraction or exponent, within `i64` range.
    Int(i64),
    /// All other numbers.
    Float(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (first match); `None` otherwise.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialize to the canonical byte-stable string.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Serialize for people: two-space indentation, `": "` and `", "`
    /// separators, a trailing newline, and each container that holds
    /// only scalars (or empty containers) kept on one line when the line
    /// fits in 100 columns. It encodes the same value as
    /// [`Value::to_json`]; only the whitespace differs.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Value)>) = match self {
            Value::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Value::Obj(members) => (
                '{',
                '}',
                members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
            scalar => return scalar.write_json(out),
        };
        let write_member = |out: &mut String, key: Option<&str>, value: &Value, indent| {
            if let Some(key) = key {
                write_escaped(out, key);
                out.push_str(": ");
            }
            value.write_pretty(out, indent);
        };
        let nested = members.iter().any(|(_, v)| match v {
            Value::Arr(items) => !items.is_empty(),
            Value::Obj(members) => !members.is_empty(),
            _ => false,
        });
        let (line_start, mark) = (out.rfind('\n').map_or(0, |i| i + 1), out.len());
        if !nested {
            out.push(open);
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_member(out, *key, value, indent);
            }
            out.push(close);
            if out[line_start..].chars().count() <= PRETTY_WIDTH {
                return;
            }
            out.truncate(mark);
        }
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            out.extend(std::iter::repeat_n(' ', indent + 2));
            write_member(out, *key, value, indent + 2);
        }
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', indent));
        out.push(close);
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => {
                if f.is_finite() {
                    // `{:?}` is Rust's shortest round-trip form and
                    // always includes a `.` or exponent.
                    let _ = write!(out, "{f:?}");
                } else {
                    // JSON has no NaN/Infinity.
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a quoted JSON string literal.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
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

/// Parse a JSON document. Exactly one value, with only whitespace
/// around it.
///
/// # Errors
///
/// A human-readable description of the first problem: bad UTF-8, bad
/// syntax, nesting beyond [`MAX_DEPTH`], numbers that don't fit, or
/// trailing garbage.
pub fn parse(bytes: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("invalid UTF-8: {e}"))?;
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    members.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(members));
                        }
                        _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte 0x{other:02x} at offset {}",
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// One number per RFC 8259: `-? (0 | [1-9][0-9]*) (. [0-9]+)?
    /// ([eE] [+-]? [0-9]+)?`. Integers become [`Value::Int`], anything
    /// with a fraction or exponent [`Value::Float`].
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let bad = |p: &Self| {
            let end = (p.pos + 1).min(p.bytes.len());
            let text = String::from_utf8_lossy(&p.bytes[start..end]);
            format!("bad number `{text}` at offset {start}")
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(bad(self)),
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            fractional = true;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(bad(self));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            fractional = true;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(bad(self));
            }
            self.digits();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        if fractional {
            let f: f64 = text
                .parse()
                .map_err(|_| format!("bad number `{text}` at offset {start}"))?;
            if !f.is_finite() {
                return Err(format!("non-finite number `{text}` at offset {start}"));
            }
            Ok(Value::Float(f))
        } else {
            let i: i64 = text
                .parse()
                .map_err(|_| format!("bad integer `{text}` at offset {start}"))?;
            Ok(Value::Int(i))
        }
    }

    /// Skips a run of ASCII digits.
    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: require the paired
                                // low surrogate escape.
                                if !(self.eat_literal("\\u")) {
                                    return Err("unpaired surrogate".to_string());
                                }
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err("unpaired surrogate".to_string());
                                }
                                let scalar = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(scalar)
                            } else {
                                char::from_u32(first)
                            };
                            out.push(c.ok_or("invalid \\u escape")?);
                        }
                        other => {
                            return Err(format!("bad escape `\\{}`", other as char));
                        }
                    }
                }
                b if b < 0x20 => return Err("raw control byte in string".to_string()),
                _ => {
                    // Copy the full UTF-8 sequence (input was validated
                    // as UTF-8 up front).
                    let mut end = self.pos;
                    while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[self.pos - 1..end])
                            .expect("validated UTF-8"),
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = &self.bytes[self.pos..end];
        // `from_str_radix` alone would also take a leading `+`.
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err("bad \\u escape".to_string());
        }
        let hex = std::str::from_utf8(hex).expect("ascii hex digits");
        let v = u32::from_str_radix(hex, 16).expect("four hex digits fit in u32");
        self.pos = end;
        Ok(v)
    }
}

/// Shorthand for building an object in insertion order.
#[must_use]
pub fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(text: &str) {
        let value = parse(text.as_bytes()).unwrap();
        assert_eq!(value.to_json(), text);
        assert_eq!(parse(value.to_json().as_bytes()).unwrap(), value);
    }

    #[test]
    fn round_trips_canonical_forms() {
        round_trip("null");
        round_trip("true");
        round_trip("-42");
        round_trip("3.25");
        round_trip("\"hi \\\"there\\\" \\n\"");
        round_trip("[1,[2,null],{\"a\":false}]");
        round_trip("{\"query\":\"solv\",\"model\":\"ring{n=3}\",\"k_max\":3}");
        // Insertion order is preserved, not sorted.
        round_trip("{\"z\":1,\"a\":2}");
    }

    #[test]
    fn escapes_and_unicode() {
        let v = parse(br#""a\u00e9\u20ac\ud83d\ude00b""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\u{e9}\u{20ac}\u{1f600}b");
        let back = parse(v.to_json().as_bytes()).unwrap();
        assert_eq!(back, v);
        assert!(parse(br#""\ud83d""#).is_err(), "unpaired surrogate");
        assert!(parse(br#""\uZZZZ""#).is_err());
        assert!(parse(br#""\u+abc""#).is_err(), "sign inside \\u");
        assert!(parse(b"\"raw\x01control\"").is_err());
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            &b""[..],
            b"{",
            b"}",
            b"[1,",
            b"{\"a\"}",
            b"{\"a\":}",
            b"nul",
            b"truee",
            b"1 2",
            b"--3",
            b"1e",
            b"\"unterminated",
            b"\xff\xfe",
            b"{\"a\":1,}",
            // RFC 8259 number grammar: no leading zeros, digits on both
            // sides of `.`, and an exponent with digits.
            b"01",
            b"-01",
            b"00",
            b"1.",
            b"-.5",
            b"1.e5",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn nesting_is_depth_limited() {
        let mut deep = String::new();
        for _ in 0..(MAX_DEPTH + 10) {
            deep.push('[');
        }
        let err = parse(deep.as_bytes()).unwrap_err();
        assert!(err.contains("nesting"), "got: {err}");
        // Right at the limit parses fine.
        let mut ok = String::new();
        for _ in 0..MAX_DEPTH {
            ok.push('[');
        }
        ok.push('1');
        for _ in 0..MAX_DEPTH {
            ok.push(']');
        }
        assert!(parse(ok.as_bytes()).is_ok());
    }

    #[test]
    fn integers_and_floats_split_correctly() {
        assert_eq!(parse(b"7").unwrap(), Value::Int(7));
        assert_eq!(parse(b"-7").unwrap(), Value::Int(-7));
        assert_eq!(parse(b"7.5").unwrap(), Value::Float(7.5));
        assert_eq!(parse(b"1e3").unwrap(), Value::Float(1000.0));
        assert!(parse(b"99999999999999999999").is_err(), "i64 overflow");
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
    }

    #[test]
    fn pretty_form_reparses_and_keeps_short_scalar_containers_inline() {
        let value = obj(vec![
            ("id", Value::Str("rounds".into())),
            ("empty", Value::Arr(Vec::new())),
            (
                "checks",
                Value::Arr(vec![obj(vec![
                    ("what", Value::Str("a".into())),
                    ("ok", Value::Bool(true)),
                ])]),
            ),
            ("long", Value::Arr(vec![Value::Int(1234567890); 12])),
        ]);
        let pretty = value.to_json_pretty();
        assert_eq!(parse(pretty.as_bytes()).unwrap(), value);
        assert!(pretty.starts_with("{\n  \"id\": \"rounds\",\n  \"empty\": [],\n"));
        assert!(pretty.contains("\n    {\"what\": \"a\", \"ok\": true}\n  ]"));
        // Past the column budget a scalar container breaks one per line.
        assert!(pretty.contains("\"long\": [\n    1234567890,\n"));
        assert!(pretty.ends_with("\n  ]\n}\n"));
        assert_eq!(Value::Null.to_json_pretty(), "null\n");
    }

    #[test]
    fn get_and_accessors() {
        let v = parse(br#"{"a":1,"b":"x","c":true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert!(v.get("missing").is_none());
        assert!(Value::Null.get("a").is_none());
    }
}
