//! Minimal JSON for the gate's query surface (std-only, like everything
//! else here — the offline build environment forbids serde).
//!
//! One depth-limited recursive-descent lexer with two consumers: [`parse`]
//! builds a [`Value`] tree, and [`decode_telemetry`] reads a telemetry
//! body straight into [`TelemetryEvent`]s without building one. Every
//! syntax rule and error text lives in the lexer once, so the two reject
//! exactly the same documents with exactly the same messages. A compact
//! writer serializes trees. Numbers are `f64` and are written with Rust's
//! shortest round-trip `Display`, so **any finite `f64` survives encode →
//! decode bit-identically** (the property tests assert this); non-finite
//! floats have no JSON spelling and serialize as `null`.

use std::borrow::Cow;
use std::fmt::Write as _;

use cos_serve::TelemetryEvent;

use crate::routes::{event_from_fields, EVENT_FIELDS, NOT_AN_ARRAY};

/// Nesting depth the parser accepts before rejecting the document.
const MAX_DEPTH: usize = 64;

/// Bytes of the shortest event the telemetry field rules accept,
/// `{"type":"arrival","at":0,"device":0}`, plus its separating comma: a
/// body of `n` bytes holds at most `n / MIN_EVENT_BYTES` events, so
/// [`decode_telemetry`] sizes its output once and never regrows it.
const MIN_EVENT_BYTES: usize = 37;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value's array elements.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as the typed field accessors see it.
    pub(crate) fn as_field(&self) -> Field<'_> {
        match self {
            Value::String(s) => Field::Str(Cow::Borrowed(s)),
            Value::Number(n) => Field::Num(*n),
            _ => Field::Other,
        }
    }

    /// Required object field, with the missing key named in the error.
    pub fn field(&self, key: &str) -> Result<&Value, String> {
        self.get(key).ok_or_else(|| missing_field(key))
    }

    /// Required finite-number field.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        Field::required(key, self.get(key).map(Value::as_field))?.finite(key)
    }

    /// Required non-negative-integer field.
    pub fn usize_field(&self, key: &str) -> Result<usize, String> {
        Field::required(key, self.get(key).map(Value::as_field))?.index(key)
    }

    /// Serializes compactly (no whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_json_number(out, *n),
            Value::String(s) => write_json_string(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `n` as a JSON number: Rust's shortest round-trip `Display` for
/// finite values (always valid JSON — no exponent, `-0` for negative
/// zero), `null` otherwise.
pub fn write_json_number(out: &mut String, n: f64) {
    if n.is_finite() {
        write!(out, "{n}").expect("write to String");
    } else {
        out.push_str("null");
    }
}

/// Writes `s` as a JSON string literal with the mandatory escapes.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn missing_field(key: &str) -> String {
    format!("missing field `{key}`")
}

/// One object field as the typed accessors read it — a string (borrowed
/// from the document unless it held escapes), a number, or anything else —
/// with the error texts every accessor and both telemetry decoders share.
pub(crate) enum Field<'a> {
    /// A string.
    Str(Cow<'a, str>),
    /// A number (any `f64` the lexer produced, `1e400` → `inf` included).
    Num(f64),
    /// `null`, a boolean, an array, or an object.
    Other,
}

impl<'a> Field<'a> {
    /// `found`, or the error naming the missing `key`.
    pub(crate) fn required(key: &str, found: Option<Field<'a>>) -> Result<Field<'a>, String> {
        found.ok_or_else(|| missing_field(key))
    }

    /// A view borrowing this field's string.
    pub(crate) fn view(&self) -> Field<'_> {
        match self {
            Field::Str(s) => Field::Str(Cow::Borrowed(s)),
            Field::Num(n) => Field::Num(*n),
            Field::Other => Field::Other,
        }
    }

    /// The field `key` as a string.
    pub(crate) fn string(self, key: &str) -> Result<Cow<'a, str>, String> {
        match self {
            Field::Str(s) => Ok(s),
            _ => Err(format!("field `{key}` must be a string")),
        }
    }

    /// The field `key` as a finite number.
    pub(crate) fn finite(self, key: &str) -> Result<f64, String> {
        match self {
            Field::Num(n) if n.is_finite() => Ok(n),
            _ => Err(format!("field `{key}` must be a finite number")),
        }
    }

    /// The field `key` as a non-negative integer.
    pub(crate) fn index(self, key: &str) -> Result<usize, String> {
        let n = self.finite(key)?;
        if n >= 0.0 && n.fract() == 0.0 && n <= usize::MAX as f64 {
            Ok(n as usize)
        } else {
            Err(format!("field `{key}` must be a non-negative integer"))
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut lexer = Lexer::new(text);
    lexer.skip_ws();
    let value = lexer.value(0)?;
    lexer.finish()?;
    Ok(value)
}

/// Decodes a `POST /v1/telemetry` body in one pass, straight into events:
/// fields the event rules do not read are checked for syntax and skipped
/// without being built, escape-free strings are borrowed from `text`, and
/// the only allocation an escape-free body costs is the returned `Vec`.
///
/// Exactly equivalent to the reference decoder,
/// `parse(text).and_then(|doc| decode_events(&doc))`: the same events, or
/// the same error text ([`crate::decode_events`] is that reference, and the
/// property tests hold the two to it). Syntax errors therefore win over
/// field-rule refusals wherever they sit in the document, as the reference
/// parses the whole tree before it reads a field.
pub fn decode_telemetry(text: &str) -> Result<Vec<TelemetryEvent>, String> {
    let mut lexer = Lexer::new(text);
    lexer.skip_ws();
    let mut events = Vec::new();
    // The first refusal waits for the rest of the document's syntax check.
    let mut refusal = None;
    if lexer.peek() == Some(b'[') {
        events.reserve_exact(text.len() / MIN_EVENT_BYTES);
        let mut index = 0;
        lexer.array(0, |lexer, depth| {
            if refusal.is_some() {
                return lexer.skip(depth);
            }
            match lexer.event(index, depth)? {
                Ok(event) => events.push(event),
                Err(e) => refusal = Some(e),
            }
            index += 1;
            Ok(())
        })?;
    } else {
        lexer.skip(0)?;
        refusal = Some(NOT_AN_ARRAY.to_string());
    }
    lexer.finish()?;
    refusal.map_or(Ok(events), Err)
}

/// A scalar token; strings stay borrowed from the document unless they
/// held escapes.
enum Scalar<'a> {
    Null,
    Bool(bool),
    Number(f64),
    Str(Cow<'a, str>),
}

/// The lexer both consumers share. Containers are walked by [`array`] and
/// [`object`], which hand each element to the consumer's callback one
/// level deeper; everything else is a [`Scalar`].
///
/// [`array`]: Lexer::array
/// [`object`]: Lexer::object
struct Lexer<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Lexer {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    /// Trailing whitespace allowed, trailing garbage rejected.
    fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing garbage at byte {}", self.pos))
        }
    }

    /// Checked on entry to every value, before its first byte is looked at.
    fn enter(depth: usize) -> Result<(), String> {
        if depth > MAX_DEPTH {
            Err("document nests too deeply".into())
        } else {
            Ok(())
        }
    }

    /// Builds one value as a tree.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        Lexer::enter(depth)?;
        match self.peek() {
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(depth, |lexer, depth| {
                    items.push(lexer.value(depth)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.object(depth, |lexer, key, depth| {
                    pairs.push((key.into_owned(), lexer.value(depth)?));
                    Ok(())
                })?;
                Ok(Value::Object(pairs))
            }
            _ => Ok(match self.scalar()? {
                Scalar::Null => Value::Null,
                Scalar::Bool(b) => Value::Bool(b),
                Scalar::Number(n) => Value::Number(n),
                Scalar::Str(s) => Value::String(s.into_owned()),
            }),
        }
    }

    /// Checks one value's syntax without building it.
    fn skip(&mut self, depth: usize) -> Result<(), String> {
        Lexer::enter(depth)?;
        match self.peek() {
            Some(b'[') => self.array(depth, Lexer::skip),
            Some(b'{') => self.object(depth, |lexer, _, depth| lexer.skip(depth)),
            _ => self.scalar().map(drop),
        }
    }

    /// One array item as telemetry event `index`: the syntax verdict
    /// outside, the field rules' verdict inside. Of each field the rules
    /// read, the first occurrence is kept, as [`Value::get`] finds it.
    fn event(
        &mut self,
        index: usize,
        depth: usize,
    ) -> Result<Result<TelemetryEvent, String>, String> {
        let mut fields: [Option<Field<'a>>; EVENT_FIELDS.len()] = Default::default();
        let slot = |key: &str| EVENT_FIELDS.iter().position(|&name| name == key);
        Lexer::enter(depth)?;
        if self.peek() == Some(b'{') {
            self.object(depth, |lexer, key, depth| match slot(&key) {
                Some(i) if fields[i].is_none() => {
                    fields[i] = Some(lexer.field(depth)?);
                    Ok(())
                }
                _ => lexer.skip(depth),
            })?;
        } else {
            self.skip(depth)?;
        }
        Ok(event_from_fields(index, |key| {
            fields[slot(key)?].as_ref().map(Field::view)
        }))
    }

    /// One value in a field position: scalars kept, containers skipped.
    fn field(&mut self, depth: usize) -> Result<Field<'a>, String> {
        Lexer::enter(depth)?;
        if matches!(self.peek(), Some(b'[' | b'{')) {
            self.skip(depth)?;
            return Ok(Field::Other);
        }
        Ok(match self.scalar()? {
            Scalar::Str(s) => Field::Str(s),
            Scalar::Number(n) => Field::Num(n),
            Scalar::Null | Scalar::Bool(_) => Field::Other,
        })
    }

    /// Walks `[ item, ... ]`, calling `item` at each element's first byte
    /// with the element's depth.
    fn array(
        &mut self,
        depth: usize,
        mut item: impl FnMut(&mut Self, usize) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self, depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    /// Walks `{ "key": value, ... }`, calling `member` with each key at its
    /// value's first byte, with the value's depth.
    fn object(
        &mut self,
        depth: usize,
        mut member: impl FnMut(&mut Self, Cow<'a, str>, usize) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key, depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn scalar(&mut self) -> Result<Scalar<'a>, String> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Scalar::Null),
            Some(b't') => self.literal("true").map(|()| Scalar::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Scalar::Bool(false)),
            Some(b'"') => self.string().map(Scalar::Str),
            Some(b'-' | b'0'..=b'9') => self.number().map(Scalar::Number),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of document".into()),
        }
    }

    fn literal(&mut self, text: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// A string literal: borrowed when escape-free, unescaped otherwise.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut unescaped: Option<String> = None;
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // The run stops only at ASCII bytes, so it ends on a char
            // boundary of the (already valid UTF-8) text.
            let run = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.escape(out)?;
                }
                Some(_) => return Err(format!("control byte in string at {}", self.pos)),
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let c = self
            .peek()
            .ok_or_else(|| "unterminated escape".to_string())?;
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
                    // Surrogate pair: the low half must follow.
                    if self.peek() != Some(b'\\') {
                        return Err("unpaired surrogate".into());
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err("unpaired surrogate".into());
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err("unpaired surrogate".into());
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or("invalid unicode escape")?);
            }
            _ => return Err(format!("invalid escape `\\{}`", c as char)),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "invalid \\u escape".to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let before = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > before
        };
        // JSON integer part: `0` alone or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(format!("leading zero in number at byte {start}"));
                }
            }
            Some(b'1'..=b'9') => {
                digits(self);
            }
            _ => return Err(format!("malformed number at byte {start}")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(format!("malformed number at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(format!("malformed number at byte {start}"));
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map_err(|_| format!("malformed number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-1.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.encode(), text);
        }
    }

    #[test]
    fn numbers_round_trip_bit_identically() {
        for n in [
            0.0,
            -0.0,
            1.0,
            -1.5e-7,
            f64::MAX,
            f64::MIN_POSITIVE,
            std::f64::consts::PI,
        ] {
            let mut out = String::new();
            write_json_number(&mut out, n);
            let back = parse(&out).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), n.to_bits(), "{n}");
        }
    }

    #[test]
    fn non_finite_numbers_become_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::Number(n).encode(), "null");
        }
    }

    #[test]
    fn nested_documents_parse() {
        let v = parse(r#" {"a": [1, 2, {"b": null}], "c": "x\ny\u00e9"} "#).unwrap();
        assert_eq!(v.field("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.field("c").unwrap().as_str(), Some("x\nyé"));
        assert_eq!(parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn garbage_is_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "01",
            "1.",
            "1e",
            "nul",
            "\"\\x\"",
            "\"",
            "{\"a\" 1}",
            "[1] x",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "input {bad:?}");
        }
    }

    #[test]
    fn field_helpers_name_the_key() {
        let v = parse(r#"{"n": 1.5, "i": 3, "s": "x"}"#).unwrap();
        assert_eq!(v.f64_field("n").unwrap(), 1.5);
        assert_eq!(v.usize_field("i").unwrap(), 3);
        assert!(v.f64_field("missing").unwrap_err().contains("missing"));
        assert!(v.usize_field("n").is_err());
        assert!(v.f64_field("s").is_err());
    }

    #[test]
    fn telemetry_decoder_reads_first_fields_and_holds_refusals_for_syntax() {
        // An escaped key names the same field, the first `at` wins, and an
        // unknown field is skipped whatever it holds.
        let body = r#"[{"\u0074ype":"arrival","at":1.5,"at":"x","extra":{"a":[[]]},"device":2}]"#;
        let arrival = TelemetryEvent::Arrival { at: 1.5, device: 2 };
        assert_eq!(decode_telemetry(body), Ok(vec![arrival]));
        // Event 0's refusal waits for the rest of the syntax check, so a
        // later syntax error wins, as in the tree reference.
        for (body, verdict) in [
            (
                r#"[{"type":"warp"},1]"#,
                "event 0: unknown event type `warp`",
            ),
            (r#"[{"type":"warp"},1,"#, "unexpected end of document"),
            ("[1]", "event 0: missing field `type`"),
            ("{}", "telemetry body must be a JSON array"),
        ] {
            assert_eq!(decode_telemetry(body), Err(verdict.to_string()), "{body}");
            let reference = parse(body).and_then(|doc| crate::decode_events(&doc));
            assert_eq!(reference, Err(verdict.to_string()), "{body}");
        }
    }

    #[test]
    fn depth_limit_rejects_bombs() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).unwrap_err().contains("deep"));
    }
}
