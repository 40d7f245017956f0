//! A minimal JSON value model, writer and parser.
//!
//! The build environment has no crates.io access, so `serde_json` is not an
//! option; fkbench (`benchmark/`) needs exactly (a) emitting
//! machine-readable reports and (b) re-parsing them to compare runs. Numbers are `f64` (like JavaScript); non-finite values are
//! serialized as `null` because JSON has no representation for them.

use std::collections::HashSet;
use std::fmt;

/// A JSON value. Object keys keep insertion order so reports are stable
/// and diffable run-over-run.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON does not distinguish integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for building an object.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand for a numeric value.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Member lookup on objects (`None` for other variants or missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 1e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    v.write(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (strict: one value, only trailing whitespace).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

fn write_string(out: &mut String, s: &str) {
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

/// A parse failure with its byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { offset: self.pos, message: message.to_string() }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not paired here; the writer
                            // never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this
                    // slicing is valid at char boundaries).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match text.parse::<f64>() {
            // `"1e999".parse::<f64>()` is `Ok(inf)`: an overflowing literal
            // would otherwise smuggle a non-finite Num into a value model
            // whose writer cannot represent it (it emits `null`), breaking
            // parse→write→parse round-trips. Reject it like any other
            // malformed number. (Bare `NaN`/`Infinity` tokens never reach
            // here — `value()` only dispatches digits and `-` to numbers.)
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(self.err("number overflows f64")),
            Err(_) => Err(self.err("malformed number")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if !seen.insert(key.clone()) {
                return Err(self.err(&format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let doc = Json::obj(vec![
            ("name", Json::str("bench")),
            ("count", Json::num(42.0)),
            ("ratio", Json::num(0.125)),
            ("ok", Json::Bool(true)),
            ("nothing", Json::Null),
            ("items", Json::Arr(vec![Json::num(1.0), Json::str("two")])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let text = doc.to_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::num(42.0).to_pretty(), "42\n");
        assert_eq!(Json::num(0.5).to_pretty(), "0.5\n");
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_pretty(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).to_pretty(), "null\n");
    }

    #[test]
    fn non_finite_survives_write_parse_write() {
        // NaN/Inf cells degrade to null on the first write; the re-parsed
        // document must round-trip bit-identically from then on.
        let doc = Json::obj(vec![
            ("nan", Json::Num(f64::NAN)),
            ("inf", Json::Num(f64::INFINITY)),
            ("neg_inf", Json::Num(f64::NEG_INFINITY)),
            ("fine", Json::num(1.5)),
        ]);
        let text = doc.to_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("nan"), Some(&Json::Null));
        assert_eq!(parsed.get("inf"), Some(&Json::Null));
        assert_eq!(parsed.get("neg_inf"), Some(&Json::Null));
        assert_eq!(parsed.get("fine"), Some(&Json::Num(1.5)));
        assert_eq!(parsed.to_pretty(), text, "stable after one degradation");
    }

    #[test]
    fn rejects_non_finite_number_tokens() {
        // Bare IEEE spellings are not JSON.
        assert!(Json::parse("NaN").is_err());
        assert!(Json::parse("Infinity").is_err());
        assert!(Json::parse("-Infinity").is_err());
        assert!(Json::parse("[1, NaN]").is_err());
        // Overflowing literals parse to ±inf in Rust; the parser must not
        // let them through as non-finite Nums.
        assert!(Json::parse("1e999").is_err());
        assert!(Json::parse("-1e999").is_err());
        assert!(Json::parse("{\"v\": 1e999}").is_err());
        // Large-but-finite is fine.
        assert_eq!(Json::parse("1e308").unwrap().as_num(), Some(1e308));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let doc = Json::str("a\"b\\c\nd\te\u{1}");
        let parsed = Json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1}x").is_err());
        assert!(Json::parse("{\"a\":1,\"a\":2}").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn lookup_helpers() {
        let doc = Json::parse(r#"{"a": [1, 2], "b": "x"}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[0].as_num(), Some(1.0));
        assert!(doc.get("missing").is_none());
    }
}
