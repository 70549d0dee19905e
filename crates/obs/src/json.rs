//! A small deterministic JSON value, writer, and parser.
//!
//! Exists so metric exports need no external dependency and stay
//! byte-reproducible: objects preserve insertion order (builders insert in
//! sorted order where determinism matters), floats render through Rust's
//! shortest-roundtrip `Display`, and nothing consults locale or wall-clock
//! state. The parser exists for tests and for bench binaries that re-read
//! their own artifacts; it is strict (no trailing commas, no comments).

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (covers counters up to `u64::MAX`).
    UInt(u64),
    /// A floating-point number; non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object with no members yet.
    pub fn empty_object() -> JsonValue {
        JsonValue::Object(Vec::new())
    }

    /// Appends (or replaces) a member on an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn insert(&mut self, key: &str, value: JsonValue) {
        match self {
            JsonValue::Object(members) => {
                if let Some(slot) = members.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    members.push((key.to_owned(), value));
                }
            }
            _ => panic!("insert on non-object JsonValue"),
        }
    }

    /// Looks up an object member.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::UInt(v) => Some(v),
            JsonValue::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as a float (integers widen), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Float(v) => Some(v),
            JsonValue::Int(v) => Some(v as f64),
            JsonValue::UInt(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace), deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Float(v) => render_f64(*v, out),
            JsonValue::Str(s) => render_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input or trailing garbage.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

/// Appends `v` as a float token; non-finite values render as `null`.
pub(crate) fn render_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let start = out.len();
        let _ = write!(out, "{v}");
        // `Display` omits the fraction for whole floats; keep the token a
        // float so parses round-trip the variant.
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// Appends whatever `value` displays as one quoted string token, escaping
/// it as it is written — an address or a label needs no `String` of its own.
pub(crate) fn render_display(value: &dyn std::fmt::Display, out: &mut String) {
    struct Escaped<'a>(&'a mut String);
    impl std::fmt::Write for Escaped<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            escape_into(s, self.0);
            Ok(())
        }
    }
    out.push('"');
    let _ = write!(Escaped(out), "{value}");
    out.push('"');
}

fn escape_into(s: &str, out: &mut String) {
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
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte position where parsing failed.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_owned(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
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
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            // Canonical integer variants: unsigned-looking tokens become
            // `UInt` (what the metric writers emit), negatives become
            // `Int`, so render → parse round-trips the variant.
            if text.starts_with('-') {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(JsonValue::Int(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trips() {
        let mut obj = JsonValue::empty_object();
        obj.insert("name", JsonValue::Str("ps \"down\"\nlink".into()));
        obj.insert("count", JsonValue::UInt(u64::MAX));
        obj.insert("delta", JsonValue::Int(-42));
        obj.insert("ratio", JsonValue::Float(0.125));
        obj.insert("flag", JsonValue::Bool(true));
        obj.insert("none", JsonValue::Null);
        obj.insert(
            "items",
            JsonValue::Array(vec![JsonValue::UInt(1), JsonValue::UInt(2)]),
        );
        let text = obj.render();
        let back = JsonValue::parse(&text).expect("parses");
        assert_eq!(back, obj);
    }

    #[test]
    fn insert_replaces_existing_keys() {
        let mut obj = JsonValue::empty_object();
        obj.insert("k", JsonValue::UInt(1));
        obj.insert("k", JsonValue::UInt(2));
        assert_eq!(obj.render(), r#"{"k":2}"#);
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(JsonValue::Float(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{} extra").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn accessors_navigate() {
        let doc = JsonValue::parse(r#"{"a":{"b":[1,2.5,"x"]}}"#).expect("parses");
        let arr = doc
            .get("a")
            .and_then(|a| a.get("b"))
            .and_then(|b| b.as_array())
            .unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("x"));
    }
}
