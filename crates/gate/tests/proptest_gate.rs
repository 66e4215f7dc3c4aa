//! Property tests of the protocol layer.
//!
//! * The parser is split-invariant: feeding a request in chunks cut at any
//!   byte boundary (including byte-by-byte) yields exactly the result of a
//!   one-shot parse — for well-formed requests and for rejected ones.
//! * Oversized heads and bodies map to their exact statuses (431 / 413)
//!   regardless of how the bytes arrive.
//! * The JSON number encoding round-trips arbitrary finite `f64`s (any
//!   bit pattern, subnormals and negative zero included) bit-identically.
//! * The telemetry decoder is the reference decoder, exactly: on encoded
//!   event batches put through up to three random mutations (deletions,
//!   truncation, inserted whitespace and tokens, duplicate, unknown and
//!   escaped keys, non-object items, `1e400`, numbers past `usize::MAX`
//!   or spelled with an exponent or a fraction in place of a field's
//!   number, a field's number copied into a later number field as it is
//!   or one byte off, nests around the depth limit, trailing garbage),
//!   `json::decode_telemetry` (a fast path over the reference) returns the
//!   same events bit for bit, or the same error text, as `json::parse`
//!   followed by `decode_events`.
//! * The reactor's read loop is chunking-invariant on the wire: a
//!   pipelined burst delivered in chunks cut at any byte boundaries — each
//!   cut forcing a short read (and, past 8 KiB, a full read followed by
//!   another) at that exact position — answers byte-for-byte the same
//!   status sequence as a single-segment delivery.

use cos_gate::http::{parse_one, ParseError, ParserLimits, RequestParser};
use cos_gate::json;
use cos_serve::{OpClass, TelemetryEvent};
use proptest::prelude::*;

/// Renders a syntactically valid request from drawn parts.
fn render_request(
    path_seed: &[u8],
    sla: f64,
    body: &[u8],
    crlf: bool,
    extra_header: bool,
) -> Vec<u8> {
    let eol = if crlf { "\r\n" } else { "\n" };
    let path: String = path_seed
        .iter()
        .map(|&b| (b'a' + (b % 26)) as char)
        .collect();
    let mut raw = Vec::new();
    raw.extend_from_slice(format!("POST /v1/{path}?sla={sla} HTTP/1.1{eol}").as_bytes());
    raw.extend_from_slice(format!("Host: gate{eol}").as_bytes());
    if extra_header {
        raw.extend_from_slice(
            format!("X-Request-Id:  trace-{}  {eol}", path_seed.len()).as_bytes(),
        );
    }
    raw.extend_from_slice(format!("Content-Length: {}{eol}{eol}", body.len()).as_bytes());
    raw.extend_from_slice(body);
    raw
}

/// Incremental parse with one cut at `split`, then drained to completion.
fn parse_split(raw: &[u8], split: usize) -> Result<Option<cos_gate::Request>, ParseError> {
    let mut parser = RequestParser::new(ParserLimits::default());
    parser.feed(&raw[..split]);
    match parser.next_request() {
        Ok(Some(request)) => return Ok(Some(request)),
        Ok(None) => {}
        Err(e) => return Err(e),
    }
    parser.feed(&raw[split..]);
    parser.next_request()
}

/// Finite `f64` from an arbitrary bit pattern: non-finite exponents are
/// masked down to a subnormal with the same mantissa and sign.
fn finite_from_bits(bits: u64) -> f64 {
    let x = f64::from_bits(bits);
    if x.is_finite() {
        x
    } else {
        f64::from_bits(bits & !(0x7FF_u64 << 52))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Splitting a well-formed request at any boundary never changes the
    /// parse; byte-by-byte delivery agrees too.
    #[test]
    fn incremental_parse_equals_one_shot_at_every_boundary(
        path_seed in proptest::collection::vec(0u8..255, 1..8),
        sla_bits in 0u64..u64::MAX,
        body in proptest::collection::vec(0u8..255, 0..64),
        crlf in proptest::bool::ANY,
        extra_header in proptest::bool::ANY,
    ) {
        let sla = finite_from_bits(sla_bits).abs();
        let raw = render_request(&path_seed, sla, &body, crlf, extra_header);
        let reference = parse_one(&raw).expect("well-formed").expect("complete");
        prop_assert_eq!(&reference.body, &body);
        for split in 0..=raw.len() {
            let got = parse_split(&raw, split);
            prop_assert_eq!(got.as_ref().ok().and_then(|r| r.as_ref()), Some(&reference),
                "split at {}", split);
        }
        // Byte-by-byte: one feed per byte, at most one completion.
        let mut parser = RequestParser::new(ParserLimits::default());
        let mut seen = None;
        for &b in &raw {
            parser.feed(&[b]);
            if let Some(request) = parser.next_request().expect("well-formed") {
                prop_assert!(seen.is_none(), "completed twice");
                seen = Some(request);
            }
        }
        prop_assert_eq!(seen.as_ref(), Some(&reference));
    }

    /// Malformed inputs fail identically at every split boundary: same
    /// error (same status), never a phantom request.
    #[test]
    fn rejections_are_split_invariant(
        which in 0usize..5,
        split_seed in 0u64..u64::MAX,
    ) {
        let raw: &[u8] = match which {
            0 => b"BROKEN-LINE\r\nHost: x\r\n\r\n",
            1 => b"GET / HTTP/1.1\r\nno-colon\r\n\r\n",
            2 => b"GET / HTTP/1.1\r\n\r\n", // missing Host
            3 => b"GET / HTTP/2.0\r\nHost: x\r\n\r\n",
            _ => b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: nine\r\n\r\n",
        };
        let reference = parse_one(raw).expect_err("malformed");
        let split = (split_seed % (raw.len() as u64 + 1)) as usize;
        let got = parse_split(raw, split);
        prop_assert_eq!(got.expect_err("malformed at any split").status(),
            reference.status());
    }

    /// A head that outgrows the budget is 431 no matter how it trickles
    /// in, even though it never terminates. So is a run of blank lines
    /// before the request line that outgrows it: the run counts toward
    /// the head.
    #[test]
    fn oversized_heads_are_431_at_any_chunking(
        chunk in 1usize..97,
        max_head in 128usize..512,
        blank_run in 0usize..3,
    ) {
        let limits = ParserLimits { max_head_bytes: max_head, max_body_bytes: 4096 };
        let mut raw = match blank_run {
            0 => {
                let mut head = b"GET / HTTP/1.1\r\nHost: x\r\nX-Pad: ".to_vec();
                head.extend(std::iter::repeat_n(b'a', max_head * 2));
                head
            }
            // One byte over the budget before a valid request line.
            1 => b"\n".repeat(max_head + 1),
            _ => b"\r\n".repeat(max_head),
        };
        if blank_run > 0 {
            raw.extend_from_slice(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");
        }
        let mut parser = RequestParser::new(limits);
        let mut outcome = None;
        for piece in raw.chunks(chunk) {
            parser.feed(piece);
            match parser.next_request() {
                Ok(None) => {}
                Ok(Some(_)) => {
                    prop_assert!(false, "a head over budget cannot complete");
                }
                Err(e) => { outcome = Some(e); break; }
            }
        }
        prop_assert_eq!(outcome.expect("must reject"), ParseError::HeadTooLarge);
        prop_assert_eq!(ParseError::HeadTooLarge.status(), 431);
    }

    /// A declared body over budget is 413 the moment the head completes,
    /// before any body byte arrives.
    #[test]
    fn oversized_bodies_are_413_from_the_declaration_alone(
        max_body in 16usize..4096,
        excess in 1usize..1000,
    ) {
        let limits = ParserLimits { max_head_bytes: 16 * 1024, max_body_bytes: max_body };
        let mut parser = RequestParser::new(limits);
        parser.feed(
            format!(
                "POST /v1/telemetry HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
                max_body + excess
            )
            .as_bytes(),
        );
        prop_assert_eq!(parser.next_request().expect_err("over budget"),
            ParseError::BodyTooLarge);
        prop_assert_eq!(ParseError::BodyTooLarge.status(), 413);
    }

    /// Any finite f64 — arbitrary bit patterns, subnormals, ±0 — survives
    /// JSON encode → decode bit-identically.
    #[test]
    fn json_numbers_round_trip_bit_identically(bits in 0u64..u64::MAX) {
        let x = finite_from_bits(bits);
        let mut out = String::new();
        json::write_json_string(&mut out, "v"); // exercise the object path
        let doc = format!("{{{out}:{}}}", json::Value::Number(x).encode());
        let back = json::parse(&doc).expect("valid JSON").f64_field("v").expect("number");
        prop_assert_eq!(back.to_bits(), x.to_bits(), "value {}", x);
    }

    /// Whole telemetry batches survive the wire format: encode → parse →
    /// decode is the identity on event lists.
    #[test]
    fn telemetry_wire_format_round_trips(
        kinds in proptest::collection::vec(0usize..4, 0..24),
        at_bits in proptest::collection::vec(0u64..u64::MAX, 24),
        devices in proptest::collection::vec(0usize..8, 24),
    ) {
        let events: Vec<TelemetryEvent> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let at = finite_from_bits(at_bits[i]).abs();
                let device = devices[i];
                match k {
                    0 => TelemetryEvent::Arrival { at, device },
                    1 => TelemetryEvent::DataRead { at, device },
                    2 => TelemetryEvent::Op {
                        at,
                        device,
                        class: OpClass::ALL[i % 3],
                        latency: at / 2.0,
                    },
                    _ => TelemetryEvent::Completion { arrival: at, latency: at / 3.0, device },
                }
            })
            .collect();
        let encoded = cos_gate::encode_events(&events);
        let decoded = cos_gate::decode_events(&json::parse(&encoded).expect("valid JSON"))
            .expect("decodable");
        prop_assert_eq!(decoded.len(), events.len());
        for (d, e) in decoded.iter().zip(&events) {
            prop_assert_eq!(d, e);
        }
    }
}

/// Events of all four kinds over arbitrary finite `f64` bit patterns
/// (three per event) and devices exact in an `f64`.
fn drawn_events(kinds: &[usize], bits: &[u64], devices: &[u64]) -> Vec<TelemetryEvent> {
    kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let x = |j: usize| finite_from_bits(bits[3 * i + j]);
            let device = devices[i] as usize;
            match kind {
                0 => TelemetryEvent::Arrival { at: x(0), device },
                1 => TelemetryEvent::DataRead { at: x(0), device },
                2 => TelemetryEvent::Op {
                    at: x(0),
                    device,
                    class: OpClass::ALL[bits[3 * i + 2] as usize % 3],
                    latency: x(1),
                },
                _ => TelemetryEvent::Completion {
                    arrival: x(0),
                    latency: x(1),
                    device,
                },
            }
        })
        .collect()
}

/// Keys the telemetry field rules read.
const EVENT_KEYS: [&str; 6] = ["type", "at", "device", "class", "latency", "arrival"];

/// Byte offset of the `n`-th (modulo the count) match of `needle`.
fn nth_match(text: &str, needle: &str, n: usize) -> Option<usize> {
    let hits: Vec<usize> = text.match_indices(needle).map(|(i, _)| i).collect();
    (!hits.is_empty()).then(|| hits[n % hits.len()])
}

/// Number literals at the edges of the field rules and of exact decimal
/// conversion: past `usize::MAX` (finite, integer-valued, refused as a
/// device), 2^64 and `usize::MAX` (both 2^64 once parsed, refused as a
/// device), the largest double below 2^64 (accepted), integers spelled
/// with a fraction or an exponent, a negative, one past 2^53 (which
/// rounds), and 30 digits.
const NUMERIC_EDGES: [&str; 11] = [
    "1e300",
    "18446744073709551616",
    "18446744073709551615",
    "18446744073709549568",
    "1e2",
    "100.0",
    "-1",
    "1E1",
    "0.5e1",
    "9007199254740993",
    "123456789012345678901234567890",
];

/// Number of kinds [`mutate`] draws from.
const MUTATION_KINDS: usize = 14;

/// Bytes that can continue a number literal.
const NUMBER_BYTES: &[u8; 15] = b"0123456789.eE+-";

/// End of the run of number bytes from `i`.
fn literal_end(text: &str, i: usize) -> usize {
    text[i..]
        .find(|c: char| !c.is_ascii() || !NUMBER_BYTES.contains(&(c as u8)))
        .map_or(text.len(), |n| i + n)
}

/// A member naming an event field (drawn from `at`) with a value of the
/// right or a wrong JSON type, or a numeric edge (drawn from `pick`).
fn event_member(at: usize, pick: usize) -> String {
    let key = EVENT_KEYS[at % EVENT_KEYS.len()];
    let values = [
        "\"arrival\"",
        "\"op\"",
        "\"completion\"",
        "\"data\"",
        "\"warp\"",
        "1",
        "-0",
        "2.5",
        "1e400",
        "null",
        "[1]",
        "{}",
    ];
    let value = match pick % (values.len() + NUMERIC_EDGES.len()) {
        i if i < values.len() => values[i],
        i => NUMERIC_EDGES[i - values.len()],
    };
    format!("\"{key}\":{value}")
}

/// Applies mutation `kind` at a position drawn from `at`, with the variant
/// drawn from `pick`. Every edit cuts and inserts at char boundaries, so
/// the text stays UTF-8 (the gate checks that before either decoder runs).
fn mutate(text: &mut String, kind: usize, at: usize, pick: usize) {
    let bounds: Vec<usize> = text
        .char_indices()
        .map(|(i, _)| i)
        .chain([text.len()])
        .collect();
    let at = bounds[at % bounds.len()];
    let choose = |options: &[&'static str]| options[pick % options.len()];
    // Right after the `pick`-th `{`: the head of an event object.
    let object_head = nth_match(text, "{", pick).map(|i| i + 1);
    match kind {
        0 => {
            if let Some(c) = text[at..].chars().next() {
                text.replace_range(at..at + c.len_utf8(), "");
            }
        }
        1 => text.truncate(at),
        2 => text.insert_str(at, choose(&[" ", "\n", "\t", "\r", " \r\n\t "])),
        3 => text.insert_str(
            at,
            choose(&[
                ",",
                ":",
                "[",
                "]",
                "{",
                "}",
                "\"",
                "\\",
                "null",
                "true",
                "false",
                "0",
                "-",
                "01",
                "1.",
                "1e",
                "1e400",
                "\"x\"",
                "\"\\u00e9\"",
                "\"\\ud800\"",
                "é",
                "\u{1}",
            ]),
        ),
        4 => {
            if let Some(head) = object_head {
                text.insert_str(head, &format!("{},", event_member(at, pick)));
            }
        }
        5 => {
            if let Some(head) = object_head {
                let nested = choose(&[
                    r#""extra":{"a":[1,{"b":null}],"c":"x\u00e9"},"#,
                    r#""extra":[[],{},"\"",-1.5e-3,true],"#,
                    r#""x":null,"#,
                ]);
                text.insert_str(head, nested);
            }
        }
        6 => {
            let key = EVENT_KEYS[at % EVENT_KEYS.len()];
            if let Some(i) = nth_match(text, &format!("\"{key}\":"), pick) {
                let first = key.as_bytes()[0];
                text.replace_range(i + 1..i + 2, &format!("\\u{first:04x}"));
            }
        }
        7 => {
            // A non-object item at the front of the array or after an event.
            let item = choose(&["1", "1e400", "\"op\"", "null", "[]", "[{\"type\":\"op\"}]"]);
            let slot = if at.is_multiple_of(2) {
                nth_match(text, "[", 0).map(|i| i + 1)
            } else {
                nth_match(text, "},", pick).map(|i| i + 2)
            };
            if let Some(i) = slot {
                text.insert_str(i, &format!("{item},"));
            }
        }
        8 | 9 => {
            // Some number in a field position becomes `±1e400` (→ ±inf), or
            // (kind 9) a numeric edge, so the field's only value is the edge.
            if let Some(i) = nth_match(text, "\":", pick).map(|i| i + 2) {
                let end = literal_end(text, i);
                if end > i {
                    let number = if kind == 8 {
                        choose(&["1e400", "-1e400"])
                    } else {
                        NUMERIC_EDGES[at % NUMERIC_EDGES.len()]
                    };
                    text.replace_range(i..end, number);
                }
            }
        }
        10 => {
            // A nest around the depth limit inside an unknown field: the
            // field sits at depth 2, so 63 arrays parse and 65 do not.
            if let Some(head) = object_head {
                let depth = 60 + pick % 7;
                let nest = format!("\"deep\":{}{},", "[".repeat(depth), "]".repeat(depth));
                text.insert_str(head, &nest);
            }
        }
        11 => {
            // Kind 4's member, just before the `pick`-th `}` instead:
            // after an event's complete member sequence, it repeats a
            // field, adds an unknown one, or gives one a wrong type or a
            // numeric edge.
            if let Some(i) = nth_match(text, "}", pick) {
                text.insert_str(i, &format!(",{}", event_member(at, pick)));
            }
        }
        12 => {
            // A number field's literal copied into the next number field
            // after it of a drawn key, the same field or another, as it is
            // or with one byte replaced, inserted or removed: the fast path
            // reuses a last value for an exact repeat only, and `at` and
            // `arrival` share theirs.
            let keys = ["\"at\":", "\"arrival\":", "\"latency\":", "\"device\":"];
            let (key, into) = (keys[at % 4], keys[(at / 256) % 4]);
            let starts: Vec<usize> = text
                .match_indices(key)
                .map(|(i, _)| i + key.len())
                .collect();
            let from = starts.get(pick % starts.len().max(1)).copied();
            let to = from.and_then(|from| {
                let after = literal_end(text, from);
                text[after..].find(into).map(|n| after + n + into.len())
            });
            if let (Some(from), Some(to)) = (from, to) {
                let mut copy = text[from..literal_end(text, from)].to_string();
                let byte = char::from(NUMBER_BYTES[(at / 4) % NUMBER_BYTES.len()]);
                let i = (pick / 4) % (copy.len() + 1);
                match (at / 64) % 4 {
                    0 => {}
                    1 if i < copy.len() => copy.replace_range(i..=i, &byte.to_string()),
                    2 if i < copy.len() => {
                        copy.remove(i);
                    }
                    _ => copy.insert(i, byte),
                }
                let end = literal_end(text, to);
                text.replace_range(to..end, &copy);
            }
        }
        _ => text.push_str(choose(&["x", "]", ",", "{}", "null", "  ", "\n"])),
    }
}

/// A decode verdict with every `f64` as its bit pattern.
fn verdict_bits(r: Result<Vec<TelemetryEvent>, String>) -> Result<Vec<[u64; 4]>, String> {
    r.map(|events| {
        events
            .iter()
            .map(|ev| match *ev {
                TelemetryEvent::Arrival { at, device } => [0, at.to_bits(), 0, device as u64],
                TelemetryEvent::DataRead { at, device } => [1, at.to_bits(), 0, device as u64],
                TelemetryEvent::Op {
                    at,
                    device,
                    class,
                    latency,
                } => [
                    2 + 16 * class as u64,
                    at.to_bits(),
                    latency.to_bits(),
                    device as u64,
                ],
                TelemetryEvent::Completion {
                    arrival,
                    latency,
                    device,
                } => [3, arrival.to_bits(), latency.to_bits(), device as u64],
            })
            .collect()
    })
}

/// The served decoder's verdict on `text` must be the reference's.
fn assert_decoders_agree(text: &str) -> Result<(), TestCaseError> {
    let served = verdict_bits(json::decode_telemetry(text));
    let reference = verdict_bits(json::parse(text).and_then(|doc| cos_gate::decode_events(&doc)));
    prop_assert_eq!(served, reference, "body {:?}", text);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `decode_telemetry` equals `parse` + `decode_events` exactly — the
    /// same events bit for bit, or the same error text — on encoded
    /// batches under zero to three random mutations.
    #[test]
    fn one_pass_decoder_matches_the_reference_exactly(
        kinds in proptest::collection::vec(0usize..4, 0..12),
        bits in proptest::collection::vec(0u64..u64::MAX, 36),
        devices in proptest::collection::vec(0u64..1 << 53, 12),
        mutations in proptest::collection::vec(
            (0usize..MUTATION_KINDS, 0usize..usize::MAX, 0usize..usize::MAX),
            0..4,
        ),
    ) {
        let events = drawn_events(&kinds, &bits, &devices);
        let mut text = cos_gate::encode_events(&events);
        if mutations.is_empty() {
            let decoded = json::decode_telemetry(&text).expect("an encoded batch decodes");
            prop_assert_eq!(verdict_bits(Ok(decoded)), verdict_bits(Ok(events)));
        }
        for &(kind, at, pick) in &mutations {
            mutate(&mut text, kind, at, pick);
        }
        assert_decoders_agree(&text)?;
    }
}

/// One reactor gate shared by every case of the read-loop property below
/// (spawning a service per case would dominate the run). The gate and
/// service are leaked: they die with the test process.
fn gate_addr() -> std::net::SocketAddr {
    use cos_distr::{Degenerate, Gamma};
    use cos_queueing::from_distribution;
    use cos_serve::{CalibrationBase, ServeConfig, SlaService};
    static ADDR: std::sync::OnceLock<std::net::SocketAddr> = std::sync::OnceLock::new();
    *ADDR.get_or_init(|| {
        let base = CalibrationBase {
            index_law: from_distribution(Gamma::new(3.0, 250.0)),
            meta_law: from_distribution(Gamma::new(2.5, 312.5)),
            data_law: from_distribution(Gamma::new(3.5, 245.0)),
            parse_be: from_distribution(Degenerate::new(0.0005)),
            parse_fe: from_distribution(Degenerate::new(0.0003)),
            devices: 2,
            processes_per_device: 1,
            frontend_processes: 3,
        };
        let handle = SlaService::new(base, ServeConfig::default()).spawn();
        let client = handle.client();
        std::mem::forget(handle);
        let gate = cos_gate::Gate::bind("127.0.0.1:0", client, cos_gate::GateConfig::default())
            .expect("bind gate");
        let addr = gate.local_addr();
        std::mem::forget(gate);
        addr
    })
}

/// Writes `raw` in pieces cut at `bounds` (each flush followed by a pause
/// long enough for the reactor to read up to exactly that byte position),
/// half-closes, and returns every response status.
fn exchange_in_chunks(addr: std::net::SocketAddr, raw: &[u8], bounds: &[usize]) -> Vec<u16> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("read timeout");
    let mut pos = 0;
    for &bound in bounds {
        if bound > pos {
            stream.write_all(&raw[pos..bound]).expect("write chunk");
            pos = bound;
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    stream.write_all(&raw[pos..]).expect("write tail");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read replies");
    // Route bodies are JSON; the literal `HTTP/1.1 ` only ever starts a
    // status line, so scanning for it recovers the status sequence.
    const MARK: &[u8] = b"HTTP/1.1 ";
    let mut statuses = Vec::new();
    let mut at = 0;
    while at + MARK.len() + 3 <= reply.len() {
        if &reply[at..at + MARK.len()] == MARK {
            let digits = &reply[at + MARK.len()..at + MARK.len() + 3];
            let text = std::str::from_utf8(digits).expect("ASCII status");
            statuses.push(text.parse().expect("numeric status"));
            at += MARK.len() + 3;
        } else {
            at += 1;
        }
    }
    statuses
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The read loop never loses bytes at a short-read boundary: a
    /// pipelined burst (GETs plus one padded telemetry POST, sized to
    /// cross the reactor's 8 KiB read chunk) cut into wire chunks at
    /// arbitrary byte positions answers exactly the status sequence of a
    /// one-shot delivery.
    #[test]
    fn drain_loop_is_chunking_invariant_on_the_wire(
        cut_seeds in proptest::collection::vec(0usize..usize::MAX, 0..6),
        gets in 1usize..4,
        pad in 0usize..20_000,
    ) {
        let addr = gate_addr();
        let mut raw = Vec::new();
        for _ in 0..gets {
            raw.extend_from_slice(b"GET /v1/status HTTP/1.1\r\nHost: gate\r\n\r\n");
        }
        // `[    ...    ]` is a valid empty telemetry batch at any pad.
        let body_len = pad + 2;
        raw.extend_from_slice(
            format!(
                "POST /v1/telemetry HTTP/1.1\r\nHost: gate\r\n\
                 Content-Type: application/json\r\nContent-Length: {body_len}\r\n\r\n["
            )
            .as_bytes(),
        );
        raw.extend(std::iter::repeat_n(b' ', pad));
        raw.push(b']');

        let reference = exchange_in_chunks(addr, &raw, &[]);
        prop_assert_eq!(reference.len(), gets + 1, "one status per request");

        let mut bounds: Vec<usize> = cut_seeds
            .iter()
            .map(|s| s % (raw.len() + 1))
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        let chunked = exchange_in_chunks(addr, &raw, &bounds);
        prop_assert_eq!(chunked, reference, "cuts at {:?}", bounds);
    }
}
