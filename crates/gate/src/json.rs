//! Minimal JSON for the gate's query surface (std-only, like everything
//! else here — the offline build environment forbids serde).
//!
//! One depth-limited recursive-descent lexer, which every syntax rule and
//! error text lives in, and a tree parser on it: [`parse`] builds a
//! [`Value`]. [`decode_telemetry`] reads a telemetry body with a
//! byte-level fast path that takes only the wire format as producers
//! write it and leaves every other body, refusals included, to the tree
//! parser and [`crate::decode_events`]. A compact writer serializes
//! trees. Numbers are `f64` and are written with Rust's shortest
//! round-trip `Display`, so **any finite `f64` survives encode → decode
//! bit-identically** (the property tests assert this); non-finite floats
//! have no JSON spelling and serialize as `null`.

use std::borrow::Cow;
use std::fmt::Write as _;

use cos_serve::{OpClass, TelemetryEvent};

use crate::routes::decode_events;

/// Nesting depth the parser accepts before rejecting the document.
const MAX_DEPTH: usize = 64;

/// Bytes of the shortest event the telemetry field rules accept,
/// `{"type":"arrival","at":0,"device":0}`, plus its separating comma: a
/// body of `n` bytes holds at most `n / MIN_EVENT_BYTES` events, so
/// [`decode_telemetry`] sizes its output once and never regrows it.
const MIN_EVENT_BYTES: usize = 37;

/// Significant digits a decimal literal may have for its digits to form
/// an integer exact in an `f64` (`10^15 < 2^53`).
const EXACT_DIGITS: usize = 15;

/// Significant digits a decimal literal may have for its digits to form
/// a `u64` (`10^19 < 2^64`), the mantissa Eisel–Lemire takes.
const U64_DIGITS: usize = 19;

/// `10^k` for every `k` with an exact `f64` (`5^22 < 2^53`).
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// `5^−k` for `k ≤ 22` in 128-bit fixed point with its top bit set,
/// rounded up: `⌈2^(z+127) / 5^k⌉` for the `z` with `2^(z−1) < 5^k ≤ 2^z`.
/// For `k ≥ 1` no power of two is a multiple of `5^k`, so this is
/// fast_float's `⌊2^(z+127) / 5^k⌋ + 1`; for `k = 0` it is `2^127`
/// exactly.
const POW5_INV: [u128; 23] = pow5_inverses();

/// Builds [`POW5_INV`] by long division, one dividend bit at a time: the
/// dividend `2^(z+127)` does not fit a `u128`, but the quotient, which
/// lies in `[2^127, 2^128)`, and the remainder, below `5^22 < 2^52`, do.
const fn pow5_inverses() -> [u128; 23] {
    let mut table = [0; 23];
    let mut k = 0;
    while k < table.len() {
        let five = 5u128.pow(k as u32);
        let z = 128 - (five - 1).leading_zeros();
        // The dividend's leading one, then its `z + 127` zeros.
        let (mut quotient, mut remainder) = (0u128, 1u128);
        let mut bit = 0;
        loop {
            if remainder >= five {
                remainder -= five;
                quotient |= 1;
            }
            if bit == z + 127 {
                break;
            }
            quotient <<= 1;
            remainder <<= 1;
            bit += 1;
        }
        table[k] = quotient + (remainder != 0) as u128;
        k += 1;
    }
    table
}

/// `w · 10^−k`, correctly rounded, for a nonzero `w` and `k ≤ 22`: the
/// Eisel–Lemire algorithm (Lemire, "Number Parsing at a Gigabyte per
/// Second", 2021), as `core`'s `dec2flt` runs it for an `f64`. It
/// multiplies the normalized `w` by [`POW5_INV`]`[k]`, keeps the top 55
/// bits of the product (a second multiplication by the entry's low half
/// settles the case where the first leaves them in doubt) and rounds to
/// 53, ties to even. For `q = −k` in `[−22, 0]`, inside the range
/// `[−27, 55]` where a 128-bit entry always decides, and for `w < 2^64`,
/// the value is a normal `f64` and the algorithm never gives up, so there
/// is no fallback here.
fn eisel_lemire(w: u64, k: usize) -> f64 {
    let wide = |a: u64, b: u64| u128::from(a) * u128::from(b);
    let lz = w.leading_zeros();
    let w = w << lz;
    let pow5 = POW5_INV[k];
    let first = wide(w, (pow5 >> 64) as u64);
    let (mut lo, mut hi) = (first as u64, (first >> 64) as u64);
    // The 9 bits below the 55 kept are all ones: the entry's low half can
    // carry into them.
    if hi & 0x1FF == 0x1FF {
        let second = (wide(w, pow5 as u64) >> 64) as u64;
        lo = lo.wrapping_add(second);
        hi += u64::from(second > lo);
    }
    let upper = (hi >> 63) as i32;
    let mut mantissa = hi >> (upper + 9);
    // `⌊log2(10^q)⌋ + 63`, the product's exponent, biased.
    let q = -(k as i32);
    let mut exponent = ((q * (152_170 + 65_536)) >> 16) + 63 + upper - lz as i32 + 1023;
    // An exact tie, which only `q` in `[−4, 23]` can give, rounds to even.
    if lo <= 1 && k <= 4 && mantissa & 3 == 1 && mantissa << (upper + 9) == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << 52 {
        mantissa = 1 << 52;
        exponent += 1;
    }
    f64::from_bits(mantissa & !(1 << 52) | (exponent as u64) << 52)
}

/// Whether `b` can continue a number literal: a literal that `b` follows
/// ends before it.
fn continues_number(b: u8) -> bool {
    matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
}

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
            Value::String(s) => Field::Str(s),
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

/// One object field as the typed accessors read it — a string, a number,
/// or anything else — with the error texts every accessor and the
/// telemetry field rules share.
pub(crate) enum Field<'a> {
    /// A string.
    Str(&'a str),
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

    /// The field `key` as a string.
    pub(crate) fn string(self, key: &str) -> Result<&'a str, String> {
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
        as_index(n).ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
    }
}

/// `n` as a non-negative integer, if it is one that `usize` holds
/// exactly: strictly below `usize::MAX as f64`, which is `2^64` on 64-bit
/// targets and would saturate to `usize::MAX`, a number the sender never
/// wrote.
fn as_index(n: f64) -> Option<usize> {
    (n >= 0.0 && n.fract() == 0.0 && n < usize::MAX as f64).then_some(n as usize)
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

/// Decodes a `POST /v1/telemetry` body into events.
///
/// A byte-level fast path takes the wire format as producers write it: a
/// JSON array of flat objects whose members are escape-free strings and
/// numbers, with any whitespace and in any member order. It reads each
/// event first as the member sequence [`crate::encode_events`] writes for
/// the event's type, matching keys and names as byte literals, and from
/// the first member that departs from that sequence (whitespace, another
/// order, an unknown or repeated member) with a general member loop that
/// reads the six event fields by key and keeps those already read. It
/// reads each number literal once and converts it exactly, or takes the
/// value of its field's last literal when it repeats that literal's
/// bytes, and it allocates only the returned `Vec`.
/// Every body it does not take (a refusal, or valid JSON outside that
/// shape: escapes, `null`, booleans, nested values, a repeated event
/// field) gets the reference decoder's verdict,
/// `parse(text).and_then(|doc| decode_events(&doc))`. So the events, and
/// every error text, are the reference's ([`crate::decode_events`]); the
/// property tests hold the fast path to it.
pub fn decode_telemetry(text: &str) -> Result<Vec<TelemetryEvent>, String> {
    match Wire::new(text).events() {
        Some(events) => Ok(events),
        None => parse(text).and_then(|doc| decode_events(&doc)),
    }
}

/// Slots of [`EventFields::numbers`].
const AT: usize = 0;
const ARRIVAL: usize = 1;
const LATENCY: usize = 2;
const DEVICE: usize = 3;

/// Slot of [`Wire::recent`] that each number field reads and writes.
/// `at` and `arrival` share one: a completion's `arrival` is the time its
/// request's other events carry as `at`.
const RECENT_SLOT: [usize; 4] = [0, 0, 1, 2];

/// An event field's key.
#[derive(Clone, Copy)]
enum Key {
    Type,
    Class,
    /// A number field, by its slot in [`EventFields::numbers`].
    Number(usize),
}

/// An event type.
#[derive(Clone, Copy)]
enum Kind {
    Arrival,
    DataRead,
    Op,
    Completion,
}

#[cfg(any(test, feature = "member-loop-count"))]
thread_local! {
    static MEMBER_LOOP_EVENTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static STR_PARSE_LITERALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Events that [`decode_telemetry`] has read, on this thread, with the
/// general member loop rather than wholly as their type's member
/// sequence. Test-only: compiled under the `member-loop-count` feature,
/// which nothing but tests enables.
#[cfg(any(test, feature = "member-loop-count"))]
pub fn member_loop_events() -> u64 {
    MEMBER_LOOP_EVENTS.with(|n| n.get())
}

/// Number literals that [`decode_telemetry`]'s fast path has handed to
/// `str::parse`, on this thread, rather than converting them itself.
/// Test-only, under the same feature as [`member_loop_events`].
#[cfg(any(test, feature = "member-loop-count"))]
pub fn str_parse_literals() -> u64 {
    STR_PARSE_LITERALS.with(|n| n.get())
}

/// The event fields an object has named so far; `Some(None)` is a string
/// naming no event type or op class.
#[derive(Default)]
struct EventFields {
    kind: Option<Option<Kind>>,
    class: Option<Option<OpClass>>,
    /// `at`, `arrival`, `latency`, `device`.
    numbers: [Option<f64>; 4],
}

impl EventFields {
    /// The event these fields make under the reference's field rules, if
    /// they make one.
    fn event(self) -> Option<TelemetryEvent> {
        let finite = |n: Option<f64>| n.filter(|n| n.is_finite());
        let [at, arrival, latency, device] = self.numbers;
        let device = as_index(device?)?;
        Some(match self.kind?? {
            Kind::Arrival => TelemetryEvent::Arrival {
                at: finite(at)?,
                device,
            },
            Kind::DataRead => TelemetryEvent::DataRead {
                at: finite(at)?,
                device,
            },
            Kind::Op => TelemetryEvent::Op {
                at: finite(at)?,
                device,
                class: self.class??,
                latency: finite(latency)?,
            },
            Kind::Completion => TelemetryEvent::Completion {
                arrival: finite(arrival)?,
                latency: finite(latency)?,
                device,
            },
        })
    }
}

/// The last literal a recent slot's number fields read in a body: where
/// its bytes lie and the value they convert to. The empty span matches no
/// literal.
#[derive(Clone, Copy, Default)]
struct Recent {
    start: usize,
    end: usize,
    value: f64,
}

/// The telemetry fast path: a byte cursor that takes only the wire
/// format as producers write it and answers `None` on anything else. It
/// is stricter than the reference, never looser: where it returns events,
/// the reference returns the same events, bit for bit.
struct Wire<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// By [`RECENT_SLOT`].
    recent: [Recent; 3],
}

impl<'a> Wire<'a> {
    fn new(text: &'a str) -> Self {
        Wire {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            recent: [Recent::default(); 3],
        }
    }

    /// The events of a whole body: `[`, flat event objects separated by
    /// commas, `]`, with JSON whitespace around every token.
    fn events(mut self) -> Option<Vec<TelemetryEvent>> {
        self.ws();
        if !self.eat(b'[') {
            return None;
        }
        let mut events = Vec::with_capacity(self.bytes.len() / MIN_EVENT_BYTES);
        self.ws();
        if !self.eat(b']') {
            loop {
                self.ws();
                events.push(self.event()?);
                self.ws();
                if self.eat(b']') {
                    break;
                }
                if !self.eat(b',') {
                    return None;
                }
            }
        }
        self.ws();
        (self.pos == self.bytes.len()).then_some(events)
    }

    /// One event object under the reference's field rules, applied more
    /// strictly: a repeated event field, or one of the wrong JSON type, is
    /// refused even where the event's type does not read it, and an unknown
    /// member must hold a string or a number. The object is read first as
    /// the member sequence [`crate::encode_events`] writes for its type,
    /// then, from the first member that departs from it, by the member
    /// loop, which keeps the fields already read.
    fn event(&mut self) -> Option<TelemetryEvent> {
        if !self.eat(b'{') {
            return None;
        }
        let mut fields = EventFields::default();
        if !self.sequence(&mut fields)? {
            self.members(&mut fields)?;
        }
        fields.event()
    }

    /// After an event's `{`: its members as [`crate::encode_events`]
    /// writes them for its type, in that order and with no whitespace,
    /// up to the first member that departs from that. Answers whether the
    /// object closed there; `Some(false)` leaves the cursor before a
    /// member, after the `{` or a comma.
    fn sequence(&mut self, fields: &mut EventFields) -> Option<bool> {
        let Some(kind) = self.member(b"\"type\":\"", Self::type_name) else {
            return Some(false);
        };
        fields.kind = Some(Some(kind));
        // `&&` stops at the first member that departs.
        let _ = match kind {
            Kind::Arrival | Kind::DataRead => {
                self.number_member(b",\"at\":", AT, fields)
                    && self.number_member(b",\"device\":", DEVICE, fields)
            }
            Kind::Op => {
                self.number_member(b",\"at\":", AT, fields)
                    && self.number_member(b",\"device\":", DEVICE, fields)
                    && self
                        .member(b",\"class\":\"", Self::class_name)
                        .map(|class| fields.class = Some(Some(class)))
                        .is_some()
                    && self.number_member(b",\"latency\":", LATENCY, fields)
            }
            Kind::Completion => {
                self.number_member(b",\"arrival\":", ARRIVAL, fields)
                    && self.number_member(b",\"latency\":", LATENCY, fields)
                    && self.number_member(b",\"device\":", DEVICE, fields)
            }
        };
        self.close_or_comma()
    }

    /// `literal` (a separator and a key) directly followed by the number
    /// of field `slot`, stored in `fields.numbers[slot]`.
    fn number_member<const N: usize>(
        &mut self,
        literal: &[u8; N],
        slot: usize,
        fields: &mut EventFields,
    ) -> bool {
        let Some(n) = self.member(literal, |wire| wire.field_number(slot)) else {
            return false;
        };
        fields.numbers[slot] = Some(n);
        true
    }

    /// `literal` directly followed by what `value` reads; `None`, with
    /// nothing consumed, if the body departs from either.
    fn member<const N: usize, T>(
        &mut self,
        literal: &[u8; N],
        value: impl FnOnce(&mut Self) -> Option<T>,
    ) -> Option<T> {
        let start = self.pos;
        let found = self.literal(literal).then(|| value(self)).flatten();
        if found.is_none() {
            self.pos = start;
        }
        found
    }

    /// The members of an event object from the cursor, which stands
    /// before one, through its `}`: in any order, with whitespace around
    /// every token, and with unknown members.
    fn members(&mut self, fields: &mut EventFields) -> Option<()> {
        #[cfg(any(test, feature = "member-loop-count"))]
        MEMBER_LOOP_EVENTS.with(|n| n.set(n.get() + 1));
        loop {
            self.ws();
            if !self.eat(b'"') {
                return None;
            }
            let key = self.key();
            if key.is_none() {
                self.string_tail()?;
            }
            self.ws();
            if !self.eat(b':') {
                return None;
            }
            self.ws();
            let first = match key {
                Some(Key::Type) => fields
                    .kind
                    .replace(self.string_of(Self::type_name)?)
                    .is_none(),
                Some(Key::Class) => fields
                    .class
                    .replace(self.string_of(Self::class_name)?)
                    .is_none(),
                Some(Key::Number(slot)) => fields.numbers[slot]
                    .replace(self.field_number(slot)?)
                    .is_none(),
                None if self.eat(b'"') => self.string_tail().is_some(),
                None => self.number().is_some(),
            };
            if !first {
                return None;
            }
            if self.close_or_comma()? {
                return Some(());
            }
        }
    }

    /// After a member's value: `Some(true)` past the object's `}`,
    /// `Some(false)` past a comma, with the whitespace before either.
    fn close_or_comma(&mut self) -> Option<bool> {
        self.ws();
        if self.eat(b'}') {
            return Some(true);
        }
        self.eat(b',').then_some(false)
    }

    fn ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.bytes.get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    /// Whether the body continues with `literal`, consumed if so. Its
    /// length is a constant, so the comparison compiles to a few integer
    /// compares rather than a `memcmp` call.
    fn literal<const N: usize>(&mut self, literal: &[u8; N]) -> bool {
        let hit = self.bytes[self.pos..].first_chunk::<N>() == Some(literal);
        self.pos += if hit { N } else { 0 };
        hit
    }

    /// After a key's opening quote: the event field it names, consumed
    /// with its closing quote; `None`, with nothing consumed, for any
    /// other key.
    fn key(&mut self) -> Option<Key> {
        match *self.bytes.get(self.pos)? {
            b't' => self.literal(b"type\"").then_some(Key::Type),
            b'c' => self.literal(b"class\"").then_some(Key::Class),
            b'a' if self.literal(b"at\"") => Some(Key::Number(AT)),
            b'a' => self.literal(b"arrival\"").then_some(Key::Number(ARRIVAL)),
            b'l' => self.literal(b"latency\"").then_some(Key::Number(LATENCY)),
            b'd' => self.literal(b"device\"").then_some(Key::Number(DEVICE)),
            _ => None,
        }
    }

    /// After a string's opening quote: the event type it names, consumed
    /// with its closing quote; `None`, with nothing consumed, for any
    /// other string.
    fn type_name(&mut self) -> Option<Kind> {
        match *self.bytes.get(self.pos)? {
            b'a' => self.literal(b"arrival\"").then_some(Kind::Arrival),
            b'd' => self.literal(b"data_read\"").then_some(Kind::DataRead),
            b'o' => self.literal(b"op\"").then_some(Kind::Op),
            b'c' => self.literal(b"completion\"").then_some(Kind::Completion),
            _ => None,
        }
    }

    /// After a string's opening quote: the op class it names, consumed
    /// with its closing quote; `None`, with nothing consumed, for any
    /// other string.
    fn class_name(&mut self) -> Option<OpClass> {
        match *self.bytes.get(self.pos)? {
            b'i' => self.literal(b"index\"").then_some(OpClass::Index),
            b'm' => self.literal(b"meta\"").then_some(OpClass::Meta),
            b'd' => self.literal(b"data\"").then_some(OpClass::Data),
            _ => None,
        }
    }

    /// A string value: `Some(Some(name))` if `name_of` reads a name in it,
    /// `Some(None)` for any other escape-free string.
    fn string_of<T>(&mut self, name_of: fn(&mut Self) -> Option<T>) -> Option<Option<T>> {
        if !self.eat(b'"') {
            return None;
        }
        match name_of(self) {
            Some(name) => Some(Some(name)),
            None => self.string_tail().map(|()| None),
        }
    }

    /// The rest of an escape-free string literal after its opening quote.
    fn string_tail(&mut self) -> Option<()> {
        loop {
            match *self.bytes.get(self.pos)? {
                b'"' => break,
                b'\\' | 0..=0x1f => return None,
                _ => self.pos += 1,
            }
        }
        self.pos += 1;
        Some(())
    }

    /// The number of field `slot`. A literal that repeats the bytes of
    /// the last literal in this body of the field's [`RECENT_SLOT`], and
    /// that no byte continues, is the same literal, so it takes that
    /// literal's value with no conversion: equal bytes give equal bits.
    /// Any other goes through [`Wire::number`] and becomes that slot's
    /// last literal.
    fn field_number(&mut self, slot: usize) -> Option<f64> {
        let recent = RECENT_SLOT[slot];
        let Recent { start, end, value } = self.recent[recent];
        let here = self.pos;
        let after = here + (end - start);
        if end > start
            && self.bytes.get(here..after) == Some(&self.bytes[start..end])
            && !self.bytes.get(after).is_some_and(|&b| continues_number(b))
        {
            self.pos = after;
            return Some(value);
        }
        let value = self.number()?;
        self.recent[recent] = Recent {
            start: here,
            end: self.pos,
            value,
        };
        Some(value)
    }

    /// Consumes a digit run and returns its length, folding its digits
    /// into `mantissa`, which wraps past 19 significant digits and is then
    /// unused.
    fn digits(&mut self, mantissa: &mut u64) -> usize {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            *mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(digit));
            self.pos += 1;
        }
        self.pos - start
    }

    /// A number literal, under the JSON grammar exactly as the lexer
    /// checks it: no leading zero, no lone `-`, digits after a point and
    /// after an exponent. Each literal is read once, and one of two exact
    /// steps converts the digits read:
    ///
    /// * with at most [`EXACT_DIGITS`] significant digits, at most 22
    ///   fraction digits and no exponent, the literal is `m / 10^k` with
    ///   both operands exact, which one IEEE division rounds correctly
    ///   (Clinger 1990);
    /// * with 16 to [`U64_DIGITS`] significant digits, at most 22 fraction
    ///   digits and no exponent, [`eisel_lemire`] rounds `m · 10^−k`
    ///   correctly.
    ///
    /// Significant digits are counted by position, from the first nonzero
    /// digit, never from the mantissa, which wraps to 0 at the 20th digit
    /// of `18446744073709551616`. Every other literal goes through
    /// `str::parse`, which rounds correctly too: the bits agree.
    fn number(&mut self) -> Option<f64> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let signed = |n: f64| if negative { -n } else { n };
        let first = self.bytes.get(self.pos)?.wrapping_sub(b'0');
        let mut mantissa = 0;
        let int_digits = self.digits(&mut mantissa);
        if int_digits == 0 || (int_digits > 1 && first == 0) {
            return None;
        }
        // A zero integer part, and the zeros after its point, lead.
        let mut leading_zeros = usize::from(first == 0);
        let mut fraction = 0;
        if self.eat(b'.') {
            let point = self.pos;
            if first == 0 {
                while self.eat(b'0') {}
                leading_zeros += self.pos - point;
            }
            self.digits(&mut mantissa);
            fraction = self.pos - point;
            if fraction == 0 {
                return None;
            }
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits(&mut 0) == 0 {
                return None;
            }
        } else {
            let significant = int_digits + fraction - leading_zeros;
            if significant <= EXACT_DIGITS && fraction < POW10.len() {
                return Some(signed(mantissa as f64 / POW10[fraction]));
            } else if significant <= U64_DIGITS && fraction < POW5_INV.len() {
                return Some(signed(eisel_lemire(mantissa, fraction)));
            }
        }
        #[cfg(any(test, feature = "member-loop-count"))]
        STR_PARSE_LITERALS.with(|n| n.set(n.get() + 1));
        self.text[start..self.pos].parse().ok()
    }
}

/// The lexer, building a [`Value`] as it goes.
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
            Some(b'[') => self.array(depth).map(Value::Array),
            Some(b'{') => self.object(depth).map(Value::Object),
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(|s| Value::String(s.into_owned())),
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Number),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of document".into()),
        }
    }

    /// `[ item, ... ]`, each item one level deeper.
    fn array(&mut self, depth: usize) -> Result<Vec<Value>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    /// `{ "key": value, ... }`, each value one level deeper.
    fn object(&mut self, depth: usize) -> Result<Vec<(String, Value)>, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(pairs);
        }
        loop {
            self.skip_ws();
            let key = self.string()?.into_owned();
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(pairs);
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
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
        // Outside the fast path's shape, the reference decides: an escaped
        // key names the same field, the first `at` wins, and an unknown
        // field is skipped whatever it holds.
        let body = r#"[{"\u0074ype":"arrival","at":1.5,"at":"x","extra":{"a":[[]]},"device":2}]"#;
        let arrival = TelemetryEvent::Arrival { at: 1.5, device: 2 };
        assert!(Wire::new(body).events().is_none());
        assert_eq!(decode_telemetry(body), Ok(vec![arrival]));
        // The fast path refuses nothing itself: every error, and the rule
        // that a later syntax error wins over event 0's refusal, is the
        // tree reference's.
        for (body, verdict) in [
            (
                r#"[{"type":"warp"},1]"#,
                "event 0: unknown event type `warp`",
            ),
            (r#"[{"type":"warp"},1,"#, "unexpected end of document"),
            ("[1]", "event 0: missing field `type`"),
            ("{}", "telemetry body must be a JSON array"),
            (
                r#"[{"type":"arrival","at":1,"device":1e300}]"#,
                "event 0: field `device` must be a non-negative integer",
            ),
        ] {
            assert!(Wire::new(body).events().is_none(), "{body}");
            assert_eq!(decode_telemetry(body), Err(verdict.to_string()), "{body}");
            let reference = parse(body).and_then(|doc| crate::decode_events(&doc));
            assert_eq!(reference, Err(verdict.to_string()), "{body}");
        }
    }

    /// The fast path's `at` for a one-event body holding `literal` there.
    fn fast_at(literal: &str) -> Option<f64> {
        let body = format!(r#"[{{"type":"arrival","at":{literal},"device":0}}]"#);
        match Wire::new(&body).events()?[..] {
            [TelemetryEvent::Arrival { at, .. }] => Some(at),
            _ => None,
        }
    }

    /// An event's type and fields, every `f64` as its bits.
    fn event_bits(event: &TelemetryEvent) -> [u64; 5] {
        match *event {
            TelemetryEvent::Arrival { at, device } => [0, at.to_bits(), 0, 0, device as u64],
            TelemetryEvent::DataRead { at, device } => [1, at.to_bits(), 0, 0, device as u64],
            TelemetryEvent::Op {
                at,
                device,
                class,
                latency,
            } => [
                2 + 16 * class as u64,
                at.to_bits(),
                0,
                latency.to_bits(),
                device as u64,
            ],
            TelemetryEvent::Completion {
                arrival,
                latency,
                device,
            } => [3, 0, arrival.to_bits(), latency.to_bits(), device as u64],
        }
    }

    /// Holds the fast path to the reference on `body`: the same events,
    /// bit for bit, where it takes the body, and the same verdict from
    /// `decode_telemetry` either way. Returns whether it took the body.
    fn assert_fast_path_agrees(body: &str) -> bool {
        let reference = parse(body).and_then(|doc| crate::decode_events(&doc));
        let bits = |r: &Result<Vec<TelemetryEvent>, String>| {
            r.as_ref()
                .map(|events| events.iter().map(event_bits).collect::<Vec<_>>())
                .map_err(Clone::clone)
        };
        assert_eq!(bits(&decode_telemetry(body)), bits(&reference), "{body}");
        match Wire::new(body).events() {
            Some(events) => {
                assert_eq!(bits(&Ok(events)), bits(&reference), "{body}");
                true
            }
            None => false,
        }
    }

    /// A seeded xorshift draw in `0..n`.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Writes into `out` a literal of `significant` seeded digits (the
    /// first nonzero) with `fraction` of its digits after the point, zeros
    /// after the point where they outnumber the digits, and a seeded sign.
    fn seeded_literal(out: &mut String, draw: &mut Draw, significant: usize, fraction: usize) {
        out.clear();
        if draw.next(2) == 0 {
            out.push('-');
        }
        let point = significant.saturating_sub(fraction);
        if point == 0 {
            out.push_str("0.");
            out.extend(std::iter::repeat_n('0', fraction - significant));
        }
        for i in 0..significant {
            if i == point && point > 0 {
                out.push('.');
            }
            let digit = if i == 0 {
                1 + draw.next(9)
            } else {
                draw.next(10)
            };
            out.push(char::from(b'0' + digit as u8));
        }
    }

    /// `digits` with its last `k` digits after the point (zeros after the
    /// point where `k` outnumbers the digits).
    fn with_point(digits: &str, k: usize) -> String {
        match k {
            0 => digits.to_string(),
            k if k >= digits.len() => format!("0.{}{digits}", "0".repeat(k - digits.len())),
            k => format!(
                "{}.{}",
                &digits[..digits.len() - k],
                &digits[digits.len() - k..]
            ),
        }
    }

    /// Literals whose digits, folded into a `u64`, wrap to exactly 0 at
    /// their 20th digit: `2^64`, `2^65` and `5 · 2^64` at several points.
    /// A digit count taken from the mantissa undercounts each by one.
    fn wrapping_literals() -> Vec<String> {
        let mut literals = Vec::new();
        for digits in [
            "18446744073709551616",
            "36893488147419103232",
            "92233720368547758080",
        ] {
            for k in [0, 1, 2, 19, 20, 22] {
                literals.push(with_point(digits, k));
            }
            literals.push(format!("{digits}0"));
        }
        literals
    }

    #[test]
    fn fast_path_numbers_are_bit_identical_to_str_parse() {
        let mut literals: Vec<String> = [
            // 15 against 16, 19 against 20 significant digits.
            "999999999999999",
            "9999999999999999",
            "9999999999999999999",
            "99999999999999999999",
            "0.000123456789012345",
            "0.0001234567890123456",
            "-12345678.9012345",
            "-12345678.90123456",
            "1234567890.123456789",
            "1234567890.1234567891",
            // 22 against 23 fraction digits.
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "-1.2300000000000000000000",
            "-1.23000000000000000000000",
            // One past 2^53 rounds to even; signed and unsigned zeros.
            "9007199254740992",
            "9007199254740993",
            "-0",
            "0.0",
            "-0.000",
            // Single digits, and integers spelled with a point or exponent.
            "0",
            "7",
            "-9",
            "7.0",
            "7e0",
            "70E-1",
        ]
        .map(String::from)
        .into();
        literals.extend(wrapping_literals());
        // Seeded literals over 1–25 significant digits and 0–24 fraction
        // digits, either sign.
        let mut draw = Draw(0x2545_F491_4F6C_DD1D);
        let mut literal = String::new();
        for _ in 0..20_000 {
            let (significant, fraction) = (1 + draw.next(25), draw.next(25));
            seeded_literal(&mut literal, &mut draw, significant, fraction);
            literals.push(literal.clone());
        }
        for literal in &literals {
            let want = literal.parse::<f64>().expect("valid literal");
            let got = fast_at(literal).unwrap_or_else(|| panic!("fast path refused {literal}"));
            assert_eq!(got.to_bits(), want.to_bits(), "{literal}");
        }
        // The wrapping literals in every number field, the sequence's and
        // the member loop's: a finite number, or a device the reference
        // refuses, as the reference has it.
        for literal in wrapping_literals() {
            for body in [
                format!(
                    r#"[{{"type":"op","at":{literal},"device":1,"class":"meta","latency":{literal}}}]"#
                ),
                format!(
                    r#"[{{"type":"completion","arrival":{literal},"latency":0.5,"device":1}}]"#
                ),
                format!(r#"[{{"type":"arrival","at":1,"device":{literal}}}]"#),
                format!(r#"[{{"device":{literal},"type":"arrival","at":1}}]"#),
                format!(
                    r#"[{{ "latency":{literal}, "arrival":{literal}, "type":"completion", "device":0 }}]"#
                ),
            ] {
                // A device the reference accepts is an integer below 2^64
                // as an `f64`, which `1844674407370955161.6` is.
                let takes_it = assert_fast_path_agrees(&body);
                assert!(
                    takes_it || body.contains(&format!("\"device\":{literal}")),
                    "{body}"
                );
            }
        }
        // The reuse edges. A literal read again in the same field, or as
        // the `arrival` that shares `at`'s last literal, then its bytes
        // followed by a byte that continues a number: each is its own
        // literal.
        for literal in ["180.12345678901234", "7", "0", "-0", "25", "1e5", "0.5"] {
            for suffix in ["", "e1", "E1", "e+1", "E-2", ".5", "5", "0"] {
                let next = format!("{literal}{suffix}");
                for body in [
                    format!(
                        r#"[{{"type":"arrival","at":{literal},"device":0}},{{"type":"data_read","at":{next},"device":0}}]"#
                    ),
                    format!(
                        r#"[{{"type":"arrival","at":{literal},"device":0}},{{"type":"completion","arrival":{next},"latency":1,"device":0}}]"#
                    ),
                ] {
                    let taken = assert_fast_path_agrees(&body);
                    assert_eq!(taken, parse(&next).is_ok(), "{body}");
                }
            }
        }
        // The same bytes in another field; `-0` after `0` and `0` after
        // `-0` (their bits differ), in the sequence and in the member loop.
        for body in [
            r#"[{"type":"op","at":0.125,"device":2,"class":"data","latency":0.125}]"#,
            r#"[{"type":"completion","arrival":2,"latency":2,"device":2}]"#,
            r#"[{"type":"arrival","at":0,"device":0},{"type":"arrival","at":-0,"device":0}]"#,
            r#"[{"type":"arrival","at":-0,"device":0},{"type":"arrival","at":0,"device":0}]"#,
            r#"[{"at":0,"type":"arrival","device":0},{"at":-0,"type":"arrival","device":0}]"#,
            r#"[{"type":"op","at":1.5,"device":0,"class":"index","latency":-0},{"type":"op","at":1.5,"device":0,"class":"meta","latency":0}]"#,
        ] {
            assert!(assert_fast_path_agrees(body), "{body}");
        }
    }

    /// Release-mode exactness sweep (`cargo test --release -p cos-gate --
    /// --ignored`): every literal of 1–19 significant digits, 0–22
    /// fraction digits and either sign that the fast path converts itself
    /// must give `str::parse`'s bits, and none may fall back to it.
    #[test]
    #[ignore = "20,000,000 literals: run in release with --ignored"]
    fn fast_path_converts_millions_of_literals_like_str_parse() {
        let mut draw = Draw(0x9E37_79B9_7F4A_7C15);
        let mut literal = String::new();
        let mut checked = 0;
        let fallbacks = str_parse_literals();
        let mut check = |literal: &str| {
            let mut wire = Wire::new(literal);
            let got = wire
                .number()
                .unwrap_or_else(|| panic!("fast path refused {literal}"));
            assert_eq!(wire.pos, literal.len(), "{literal}");
            let want = literal.parse::<f64>().expect("valid literal");
            assert_eq!(got.to_bits(), want.to_bits(), "{literal}");
            checked += 1;
        };
        // `10^19 − 1` and `2^53 ± 1` at every point, either sign.
        for digits in [
            "9999999999999999999",
            "9007199254740991",
            "9007199254740993",
        ] {
            for k in 0..=22 {
                let unsigned = with_point(digits, k);
                check(&unsigned);
                check(&format!("-{unsigned}"));
            }
        }
        for _ in 0..20_000_000 {
            let (significant, fraction) = (1 + draw.next(19), draw.next(23));
            seeded_literal(&mut literal, &mut draw, significant, fraction);
            check(&literal);
        }
        assert!(checked > 20_000_000);
        assert_eq!(
            str_parse_literals() - fallbacks,
            0,
            "literals handed to str::parse"
        );
    }

    #[test]
    fn depth_limit_rejects_bombs() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).unwrap_err().contains("deep"));
    }
}
