//! Workspace-local stand-in for
//! [`serde_json`](https://crates.io/crates/serde_json).
//!
//! The build environment for this repository has no access to crates.io, so
//! the workspace vendors minimal shims for its external dependencies. The
//! shimmed serde stack serialises through a single JSON-like [`Value`] tree
//! (defined in the `serde` shim and re-exported here, where downstream code
//! expects to find it); this crate supplies the **text format**: a strict
//! JSON writer ([`to_string`], [`to_string_pretty`]) and a recursive-descent
//! parser ([`from_str`]), plus the [`to_value`] / [`from_value`] bridges.
//!
//! Supported JSON is the full standard grammar minus non-finite numbers
//! (serialised as `null`, exactly as real `serde_json` does) and `\u`
//! escapes for code points outside the BMP (surrogate pairs are decoded).

pub use serde::{Map, Number, Value};

use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt;

/// Error produced by parsing or decoding JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(err: serde::Error) -> Self {
        Self::new(err.to_string())
    }
}

/// Renders any serialisable type into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Rebuilds a type from a [`Value`] tree.
///
/// # Errors
///
/// Returns [`Error`] when the value's shape does not match the type.
pub fn from_value<T: DeserializeOwned>(value: &Value) -> Result<T, Error> {
    T::from_value(value).map_err(Error::from)
}

/// Serialises a value to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    out
}

/// Serialises a value to human-readable, two-space-indented JSON text.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    out
}

/// Parses JSON text into any deserialisable type (including [`Value`]
/// itself).
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            parser.pos
        )));
    }
    from_value(&value)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest array/object nesting the parser accepts — the recursion limit
/// of the real `serde_json`. Deeper input is an [`Error`], not a stack
/// overflow.
const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at offset {}",
                byte as char, self.pos
            )))
        }
    }

    fn consume_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.consume_literal("null") => Ok(Value::Null),
            Some(b't') if self.consume_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.consume_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(Error::new(format!(
                "unexpected character at offset {}",
                self.pos
            ))),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`RECURSION_LIMIT`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == RECURSION_LIMIT {
            return Err(Error::new(format!(
                "recursion limit exceeded at offset {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new(format!("expected `,` or `]` at {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(Error::new(format!("expected `,` or `}}` at {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(Error::new("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error::new("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let first = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair.
                                if !self.consume_literal("\\u") {
                                    return Err(Error::new("unpaired surrogate"));
                                }
                                let second = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(Error::new("invalid low surrogate"));
                                }
                                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                c if c < 0x20 => return Err(Error::new("control character in string")),
                c if c < 0x80 => out.push(c as char),
                lead => {
                    // Multi-byte UTF-8: the lead byte fixes the sequence
                    // length, so only that window is decoded (the input came
                    // from a `&str`, the checks just guard the slicing).
                    let len = match lead {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(Error::new("invalid UTF-8 in string")),
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    if end > self.bytes.len() {
                        return Err(Error::new("truncated UTF-8 in string"));
                    }
                    let ch = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?
                        .chars()
                        .next()
                        .expect("non-empty by construction");
                    out.push(ch);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| Error::new("invalid \\u escape"))
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
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
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Number(Number::from(n)));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Number(Number::from(n)));
            }
        }
        text.parse::<f64>()
            .map(|n| Value::Number(Number::from_f64(n)))
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "3", "-7", "2.5", "\"hi\""] {
            let value: Value = from_str(text).unwrap();
            assert_eq!(to_string(&value), text);
        }
    }

    #[test]
    fn nested_value_round_trips() {
        let text = r#"{"a":[1,2.5,{"b":"x"}],"c":null,"d":{"e":true}}"#;
        let value: Value = from_str(text).unwrap();
        assert_eq!(to_string(&value), text);
        // Pretty output parses back to the same tree.
        let reparsed: Value = from_str(&to_string_pretty(&value)).unwrap();
        assert_eq!(reparsed, value);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nbreak \"quote\" back\\slash tab\t unicode \u{263A} control\u{0001}";
        let text = to_string(&String::from(original));
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let back: String = from_str(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(back, "\u{1F600}");
        // Raw multi-byte UTF-8 passes through unescaped too.
        let raw: String = from_str("\"\u{1F600}\"").unwrap();
        assert_eq!(raw, "\u{1F600}");
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>(r#""\q""#).is_err());
    }

    #[test]
    fn nesting_is_bounded_by_the_recursion_limit() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| r#"{"a":"#.repeat(depth) + "0" + &"}".repeat(depth);
        // Exactly at the limit still parses, one deeper is an error.
        assert!(from_str::<Value>(&arrays(RECURSION_LIMIT)).is_ok());
        assert!(from_str::<Value>(&objects(RECURSION_LIMIT)).is_ok());
        for text in [arrays(RECURSION_LIMIT + 1), objects(RECURSION_LIMIT + 1)] {
            let err = from_str::<Value>(&text).unwrap_err();
            assert!(err.to_string().contains("recursion limit"), "{err}");
        }
        // Hostile depth fails cleanly instead of overflowing the stack.
        for text in ["[".repeat(100_000), r#"{"a":"#.repeat(100_000)] {
            assert!(from_str::<Value>(&text).is_err());
        }
        // Siblings do not accumulate depth.
        let wide = format!("[{}]", vec![arrays(RECURSION_LIMIT - 1); 3].join(","));
        assert!(from_str::<Value>(&wide).is_ok());
    }

    #[test]
    fn optional_fields_default_to_none_like_real_serde() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Probe {
            a: u32,
            b: Option<f64>,
        }
        // An absent Option key decodes to None (real serde derive behaviour).
        let probe: Probe = from_str(r#"{"a":1}"#).unwrap();
        assert_eq!(probe, Probe { a: 1, b: None });
        // Plain fields still hard-error when absent.
        assert!(from_str::<Probe>(r#"{"b":2.0}"#).is_err());
        // Present values still decode and round-trip.
        let probe: Probe = from_str(r#"{"a":1,"b":2.5}"#).unwrap();
        assert_eq!(probe.b, Some(2.5));
        assert_eq!(to_string(&probe), r#"{"a":1,"b":2.5}"#);
    }

    #[test]
    fn typed_bridges_work() {
        let v: Vec<u32> = from_str("[1,2,3]").unwrap();
        assert_eq!(v, [1, 2, 3]);
        assert_eq!(to_string(&v), "[1,2,3]");
        assert!(from_str::<Vec<u32>>("[1,-2]").is_err());
    }
}
