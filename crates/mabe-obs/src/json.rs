//! A small strict JSON reader — enough to diff
//! `BENCH_*.json` artifacts against checked-in baselines without
//! pulling a serde stack into the workspace.
//!
//! The reader is a plain recursive-descent parser over the full JSON
//! grammar (objects, arrays, strings with escapes, numbers, booleans,
//! null). Numbers are held as `f64`, which is exact for every metric
//! the bench artifacts emit. Object members keep their document order
//! and duplicate keys resolve to the first occurrence, matching what
//! a scrape-side consumer would see.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes already decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in document order.
    Obj(Vec<(String, Value)>),
}

/// A parse failure: byte offset plus what the parser expected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable description.
    pub what: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

impl Value {
    /// Object member by key (objects only).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element by index; negative indices count from the end
    /// (`-1` is the last element).
    pub fn idx(&self, i: i64) -> Option<&Value> {
        match self {
            Value::Arr(items) => {
                let n = items.len() as i64;
                let i = if i < 0 { n + i } else { i };
                if (0..n).contains(&i) {
                    items.get(i as usize)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Walks a dotted path with optional `[i]` array indices —
    /// `rows[-1].reads_per_s`, `metrics.histograms[0].p99` — and
    /// returns the value it lands on. This is the path syntax the
    /// perf-gate baselines use to name a metric inside a
    /// `BENCH_*.json` document.
    pub fn lookup(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for seg in path.split('.') {
            if seg.is_empty() {
                return None;
            }
            let (key, indices) = match seg.find('[') {
                Some(b) => (&seg[..b], &seg[b..]),
                None => (seg, ""),
            };
            if !key.is_empty() {
                cur = cur.get(key)?;
            }
            let mut rest = indices;
            while let Some(open) = rest.find('[') {
                let close = rest.find(']')?;
                let i: i64 = rest.get(open + 1..close)?.parse().ok()?;
                cur = cur.idx(i)?;
                rest = &rest[close + 1..];
            }
        }
        Some(cur)
    }
}

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// [`ParseError`] with the byte offset of the first violation.
pub fn parse(s: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        at: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: impl Into<String>) -> ParseError {
        ParseError {
            at: self.at,
            what: what.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are replaced rather than paired:
                            // no bench artifact emits astral-plane text.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.at += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.at += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.at..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unterminated string"))?;
                    out.push(c);
                    self.at += c.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii digits");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_bench_shaped_document() {
        let doc = r#"{
            "bench": "throughput",
            "rows": [
                {"readers": 1, "reads_per_s": 120.5},
                {"readers": 4, "reads_per_s": 410.0}
            ],
            "ok": true,
            "none": null
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("bench").unwrap().as_str(), Some("throughput"));
        assert_eq!(
            v.lookup("rows[-1].reads_per_s").unwrap().as_f64(),
            Some(410.0)
        );
        assert_eq!(v.lookup("rows[0].readers").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("none"), Some(&Value::Null));
    }

    #[test]
    fn decodes_string_escapes() {
        let v = parse(r#""a\"b\\c\nd\u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn negative_and_exponent_numbers() {
        assert_eq!(parse("-2.5e3").unwrap().as_f64(), Some(-2500.0));
        assert_eq!(parse("0").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2", ""] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn lookup_misses_return_none_not_panics() {
        let v = parse(r#"{"rows":[1,2]}"#).unwrap();
        assert!(v.lookup("rows[5]").is_none());
        assert!(v.lookup("rows[-3]").is_none());
        assert!(v.lookup("absent.deep[0]").is_none());
        assert!(v.lookup("rows[x]").is_none());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let raw = "say \"hi\"\\path\nline\ttab";
        let doc = format!("\"{}\"", mabe_telemetry::export::json_escape(raw));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(raw));
    }
}
