//! A minimal, vendored stand-in for `serde_json` (offline build shim).
//!
//! Serializes and parses the [`serde::Value`] tree of the vendored serde
//! shim. Output conventions match serde_json where this workspace's tests
//! can observe them:
//!
//! * floats always carry a decimal point or exponent (`2.0`, not `2`), via
//!   Rust's shortest-roundtrip `{:?}` formatting (serde_json uses ryu,
//!   which produces the same shortest representations);
//! * integers print without a decimal point, so `u64` round-trips exactly;
//! * object entries keep insertion order (deterministic output);
//! * non-finite floats serialize as `null` (serde_json's lossy default);
//! * parsing refuses nesting deeper than 128 levels (serde_json's default
//!   recursion limit), so hostile input cannot exhaust the stack.

use std::fmt::Write as _;

pub use serde::Error;
use serde::Value;

/// Serializes a value to a compact JSON string.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value());
    Ok(out)
}

/// Serializes a value to a 2-space-indented JSON string.
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value_pretty(&mut out, &value.to_value(), 0);
    Ok(out)
}

/// Parses a JSON string into any deserializable type.
pub fn from_str<T: serde::de::DeserializeOwned>(s: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::custom("trailing characters after JSON value"));
    }
    T::from_value(&value)
}

// ---------------------------------------------------------------- writing

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Int(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Float(x) => write_float(out, *x),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

fn write_value_pretty(out: &mut String, v: &Value, indent: usize) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_value_pretty(out, item, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_string(out, k);
                out.push_str(": ");
                write_value_pretty(out, item, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => write_value(out, other),
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_float(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{:?}` is Rust's shortest round-trip form: whole numbers keep a
        // trailing `.0` (`2.0`), which the round-trip tests rely on.
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------- parsing

/// How many values deep [`Parser::parse_value`] may recurse.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Values currently open on the recursion stack.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, Error> {
        let b = self
            .peek()
            .ok_or_else(|| Error::custom("unexpected end of JSON"))?;
        self.pos += 1;
        Ok(b)
    }

    fn eat_digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        let got = self.bump()?;
        if got != b {
            return Err(Error::custom(format!(
                "expected {:?}, got {:?}",
                b as char, got as char
            )));
        }
        Ok(())
    }

    fn eat_literal(&mut self, lit: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(Error::custom(format!(
                "invalid JSON literal, expected {lit}"
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "JSON nested more than {MAX_DEPTH} levels deep"
            )));
        }
        self.depth += 1;
        let value = self.parse_unnested();
        self.depth -= 1;
        value
    }

    fn parse_unnested(&mut self) -> Result<Value, Error> {
        match self
            .peek()
            .ok_or_else(|| Error::custom("unexpected end of JSON"))?
        {
            b'n' => {
                self.eat_literal("null")?;
                Ok(Value::Null)
            }
            b't' => {
                self.eat_literal("true")?;
                Ok(Value::Bool(true))
            }
            b'f' => {
                self.eat_literal("false")?;
                Ok(Value::Bool(false))
            }
            b'"' => self.parse_string().map(Value::Str),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.bump()? {
                        b',' => continue,
                        b']' => return Ok(Value::Array(items)),
                        other => {
                            return Err(Error::custom(format!(
                                "expected ',' or ']', got {:?}",
                                other as char
                            )))
                        }
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.parse_value()?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.bump()? {
                        b',' => continue,
                        b'}' => return Ok(Value::Object(pairs)),
                        other => {
                            return Err(Error::custom(format!(
                                "expected ',' or '}}', got {:?}",
                                other as char
                            )))
                        }
                    }
                }
            }
            _ => self.parse_number(),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::custom("invalid UTF-8 in JSON string"))?,
            );
            match self.bump()? {
                b'"' => return Ok(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{08}'),
                    b'f' => out.push('\u{0c}'),
                    b'u' => {
                        let code = self.parse_hex4()?;
                        // Surrogate pairs; a high surrogate must be
                        // followed by a low one.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let low = self.parse_hex4()?;
                            (0xDC00..0xE000)
                                .contains(&low)
                                .then(|| 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                                .and_then(char::from_u32)
                        } else {
                            char::from_u32(code)
                        };
                        out.push(c.ok_or_else(|| Error::custom("invalid \\u escape"))?);
                    }
                    other => {
                        return Err(Error::custom(format!("invalid escape \\{}", other as char)))
                    }
                },
                _ => unreachable!("scanner stops only at quote or backslash"),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self.bump()?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| Error::custom("invalid hex digit in \\u escape"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        // Strict JSON grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
        // (no leading '+', no leading zeros, no bare '.5' or '1.').
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.eat_digits();
        if int_digits == 0 {
            return Err(Error::custom("invalid JSON number"));
        }
        if int_digits > 1 && self.bytes[self.pos - int_digits] == b'0' {
            return Err(Error::custom("JSON numbers may not have leading zeros"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if self.eat_digits() == 0 {
                return Err(Error::custom("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.eat_digits() == 0 {
                return Err(Error::custom("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if !is_float {
            if let Ok(x) = text.parse::<u64>() {
                return Ok(Value::UInt(x));
            }
            if let Ok(x) = text.parse::<i64>() {
                return Ok(Value::Int(x));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::custom(format!("invalid JSON number {text:?}")))
    }
}
