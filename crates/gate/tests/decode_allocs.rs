//! Allocation count of the telemetry decoders, from inside the allocator.
//!
//! This test binary installs the counting allocator, so it holds exactly
//! one test: the counter is process-wide, and a second test tracking its
//! own thread at the same time would add its allocations to this one's.

use cos_gate::{decode_events, encode_events, json};
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

#[test]
fn one_pass_decode_allocates_only_its_output() {
    let events = round_of_telemetry();
    assert_eq!(events.len(), 480);
    let body = encode_events(&events);

    let (one_pass, decoded) = allocations(|| json::decode_telemetry(&body));
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
}
