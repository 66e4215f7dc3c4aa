//! Allocation count of the telemetry decoders, from inside the allocator,
//! and the path the fast path takes for each producer's layout, from its
//! test-only counters: events read by the member loop, and number
//! literals handed to `str::parse`.
//!
//! This test binary installs the counting allocator, so it holds exactly
//! one test: the counter is process-wide, and a second test tracking its
//! own thread at the same time would add its allocations to this one's.

use cos_gate::json::{self, Value};
use cos_gate::{decode_events, encode_events};
use cos_par::alloc_probe::{track_current_thread, tracked_allocs, CountingAlloc};
use cos_serve::{OpClass, TelemetryEvent};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One 0.5 s round of a 4-device tenant at 40 req/s per device: per
/// request an arrival, a data read, three backend operations and a
/// completion — 480 events, with full-precision times and latencies.
fn round_of_telemetry() -> Vec<TelemetryEvent> {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut jitter = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut events = Vec::new();
    for tick in 0..20 {
        for device in 0..4 {
            let at = 180.0 + tick as f64 / 40.0 + jitter() * 0.025;
            events.push(TelemetryEvent::Arrival { at, device });
            events.push(TelemetryEvent::DataRead { at, device });
            for class in OpClass::ALL {
                events.push(TelemetryEvent::Op {
                    at,
                    device,
                    class,
                    latency: 0.002 + jitter() * 0.01,
                });
            }
            events.push(TelemetryEvent::Completion {
                arrival: at,
                latency: 0.004 + jitter() * 0.03,
                device,
            });
        }
    }
    events
}

/// Allocation events `f` makes on this (tracked) thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    track_current_thread(true);
    let before = tracked_allocs();
    let out = f();
    let count = tracked_allocs() - before;
    track_current_thread(false);
    (count, out)
}

/// The same events as other producers write them: pretty-printed (with
/// whitespace between every token), with each event's members in reverse
/// order, and with an unknown `"host":"a"` member in every event, after
/// its `type` or at its end.
fn producer_variants(body: &str) -> [(&'static str, String); 4] {
    let mut pretty = String::from("\n");
    for c in body.chars() {
        if "[]{},:".contains(c) {
            pretty.push_str(" \r\n");
            pretty.push(c);
            pretty.push_str("\t ");
        } else {
            pretty.push(c);
        }
    }
    let edit_objects = |edit: fn(&mut Vec<(String, Value)>)| {
        let Ok(Value::Array(mut items)) = json::parse(body) else {
            panic!("an encoded batch is an array");
        };
        for item in &mut items {
            let Value::Object(pairs) = item else {
                panic!("an encoded event is an object");
            };
            edit(pairs);
        }
        Value::Array(items).encode()
    };
    [
        ("pretty-printed", pretty),
        ("reordered", edit_objects(|pairs| pairs.reverse())),
        (
            "with an unknown member",
            edit_objects(|pairs| pairs.insert(1, ("host".into(), Value::String("a".into())))),
        ),
        (
            "with an unknown member appended",
            edit_objects(|pairs| pairs.push(("host".into(), Value::String("a".into())))),
        ),
    ]
}

#[test]
fn one_pass_decode_allocates_only_its_output() {
    let events = round_of_telemetry();
    assert_eq!(events.len(), 480);
    let body = encode_events(&events);

    let loop_events = json::member_loop_events();
    let parses = json::str_parse_literals();
    let (one_pass, decoded) = allocations(|| json::decode_telemetry(&body));
    // Every event as `encode_events` writes it is read as its type's
    // member sequence, without the general member loop, and every number
    // literal in it (768 of its 1,280 have more than 15 significant
    // digits) is converted without `str::parse`.
    assert_eq!(json::member_loop_events() - loop_events, 0);
    assert_eq!(json::str_parse_literals() - parses, 0);
    let (tree, reference) = allocations(|| json::parse(&body).and_then(|doc| decode_events(&doc)));
    assert_eq!(decoded.as_ref(), Ok(&events));
    assert_eq!(reference.as_ref(), Ok(&events));

    assert!(
        one_pass <= 2,
        "decode_telemetry made {one_pass} allocations for a 480-event body"
    );
    // The tree holds every key and string value as its own `String`, and
    // every object's pairs in a `Vec`: at least five allocations an event.
    assert!(
        tree >= 5 * 480,
        "the reference tree decode made only {tree} allocations"
    );

    // Other producers' formatting stays on the fast path: each of their
    // events departs from its member sequence and is read by the member
    // loop, and a body that fell back to the tree would cost thousands of
    // allocations.
    for (variant, text) in producer_variants(&body) {
        let loop_events = json::member_loop_events();
        let parses = json::str_parse_literals();
        let (count, decoded) = allocations(|| json::decode_telemetry(&text));
        assert_eq!(decoded.as_ref(), Ok(&events), "{variant}");
        assert_eq!(
            json::member_loop_events() - loop_events,
            480,
            "events of the {variant} body read by the member loop"
        );
        assert_eq!(
            json::str_parse_literals() - parses,
            0,
            "literals of the {variant} body handed to str::parse"
        );
        assert!(
            count <= 2,
            "decode_telemetry made {count} allocations for the {variant} body"
        );
    }

    // A literal past 19 significant digits, or written with an exponent,
    // is the one the fast path hands to `str::parse`.
    for at in ["180.01234567890123456", "1.8e2"] {
        let body = format!(r#"[{{"type":"arrival","at":{at},"device":1}}]"#);
        let parses = json::str_parse_literals();
        let decoded = json::decode_telemetry(&body);
        assert_eq!(json::str_parse_literals() - parses, 1, "{body}");
        let want = at.parse().expect("a valid literal");
        assert_eq!(
            decoded,
            Ok(vec![TelemetryEvent::Arrival {
                at: want,
                device: 1
            }])
        );
    }
}
