//! The cost of warm keep-alive requests through the gate, sent one at a
//! time and in pipelined batches of 32, of tenant-scoped ones (the shape
//! of every GET the serving benchmark sends) one at a time, and of
//! 480-event telemetry POSTs, counted from inside the reactors: syscalls
//! from their poller counters, heap allocations from the counting
//! allocator.
//!
//! This test binary installs the counting allocator, so it holds exactly
//! one test: the allocation counter is process-wide, and another gate's
//! reactors serving at the same time would add their allocations to this
//! one's.

use std::io::{Read, Write};
use std::net::TcpStream;

use cosmodel::distr::{Degenerate, Gamma};
use cosmodel::gate::{encode_events, Gate, GateConfig};
use cosmodel::par::alloc_probe::{tracked_allocs, CountingAlloc};
use cosmodel::queueing::from_distribution;
use cosmodel::serve::{CalibrationBase, OpClass, ServeConfig, SlaService, TelemetryEvent};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Requests in the measured serial window.
const REQUESTS: u64 = 200;

/// Pipelined batches in the measured pipelined window, and requests per
/// batch.
const BATCHES: u64 = 10;
const BATCH: u64 = 32;

/// Reactor-thread allocations allowed per warm request: the transport
/// allocates nothing in steady state, and the route's JSON answer was
/// measured at 18.
const ALLOCS_PER_REQUEST: u64 = 64;

/// Telemetry POSTs in the measured POST window, one second of the stream
/// (480 events) each, so the 5 s refit cadence falls inside some of them.
const POSTS: u32 = 10;

/// A deterministic stream at 40 req/s per device over two devices, from
/// second `from` to second `to` of event time: 12 events per 25 ms tick,
/// 480 a second.
fn telemetry(from: u32, to: u32) -> Vec<TelemetryEvent> {
    let mut events = Vec::new();
    let mut i = 0u64;
    for tick in 40 * from..40 * to {
        let t = f64::from(tick) / 40.0;
        for device in 0..2 {
            events.push(TelemetryEvent::Arrival { at: t, device });
            events.push(TelemetryEvent::DataRead { at: t, device });
            for class in OpClass::ALL {
                let latency = if i % 10 < 3 { 0.010 } else { 0.000_002 };
                events.push(TelemetryEvent::Op {
                    at: t,
                    device,
                    class,
                    latency,
                });
                i += 1;
            }
            events.push(TelemetryEvent::Completion {
                arrival: t,
                latency: if i % 10 < 3 { 0.030 } else { 0.004 },
                device,
            });
        }
    }
    events
}

/// A service calibrated in-process from the stream's first 20 s.
fn calibrated_service() -> SlaService {
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
    let mut service = SlaService::new(base, ServeConfig::default());
    for event in telemetry(0, 20) {
        service.ingest(event);
    }
    assert!(service.refit_now(), "deterministic stream must fit");
    service
}

/// Sends `requests` (one write) and reads exactly `n` responses off the
/// keep-alive connection, asserting a `200` for each.
fn round_trip(stream: &mut TcpStream, requests: &[u8], n: u64, buf: &mut Vec<u8>) {
    stream.write_all(requests).expect("write requests");
    buf.clear();
    let mut chunk = [0u8; 16 * 1024];
    let mut seen = 0;
    loop {
        while let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..head_end]).expect("ASCII head");
            assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
            let body: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .map(|v| v.trim().parse().expect("content length"))
                .expect("content length header");
            let total = head_end + 4 + body;
            if buf.len() < total {
                break;
            }
            buf.drain(..total);
            seen += 1;
        }
        if seen == n {
            assert!(buf.is_empty(), "one response per request");
            return;
        }
        let got = stream.read(&mut chunk).expect("read response");
        assert!(got > 0, "gate closed the connection");
        buf.extend_from_slice(&chunk[..got]);
    }
}

/// Sends `rounds` writes of `requests`, each answered by `responses`
/// responses, and asserts what a round may cost the reactors: one `read`,
/// one `writev`, at most one wait (plus two overall), no interest update,
/// and fewer than [`ALLOCS_PER_REQUEST`] allocations per request.
fn assert_round_costs(
    gate: &Gate,
    stream: &mut TcpStream,
    (requests, responses): (&[u8], u64),
    rounds: u64,
    window: &str,
) {
    let mut buf = Vec::new();
    let syscalls = gate.syscalls();
    let allocs = tracked_allocs();
    for _ in 0..rounds {
        round_trip(stream, requests, responses, &mut buf);
    }
    let allocs = tracked_allocs() - allocs;
    let spent = gate.syscalls().since(&syscalls);

    assert_eq!(
        spent.reads, rounds,
        "{window}: one read per round: {spent:?}"
    );
    assert_eq!(
        spent.writevs, rounds,
        "{window}: one writev per round: {spent:?}"
    );
    assert!(
        spent.waits <= rounds + 2,
        "{window}: at most one poller wait per round: {spent:?}"
    );
    assert_eq!(spent.ctls, 0, "{window}: no interest updates: {spent:?}");
    let served = rounds * responses;
    assert!(
        allocs < ALLOCS_PER_REQUEST * served,
        "{window}: {} reactor allocations per request (budget {ALLOCS_PER_REQUEST})",
        allocs as f64 / served as f64
    );
}

#[test]
fn a_warm_keep_alive_request_costs_one_read_one_writev_and_few_allocations() {
    let handle = calibrated_service().spawn();
    let gate = Gate::bind("127.0.0.1:0", handle.client(), GateConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(gate.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let request = b"GET /v1/attainment?sla=0.05 HTTP/1.1\r\nHost: gate\r\n\r\n";
    // Warm-up: the accept, the memoized answer, the pooled buffers.
    let mut buf = Vec::new();
    for _ in 0..20 {
        round_trip(&mut stream, request, 1, &mut buf);
    }

    assert_round_costs(&gate, &mut stream, (request, 1), REQUESTS, "serial");
    // A batch of 32 requests in one write is read by one `read` and
    // answered by one `writev`.
    let batch = request.repeat(BATCH as usize);
    assert_round_costs(&gate, &mut stream, (&batch, BATCH), BATCHES, "pipelined");
    // The same question named by its tenant, the shape of every question
    // the serving benchmark asks, is held to the same limits.
    let scoped = b"GET /v1/tenants/default/attainment?sla=0.05 HTTP/1.1\r\nHost: gate\r\n\r\n";
    assert_round_costs(&gate, &mut stream, (scoped, 1), REQUESTS, "tenant-scoped");

    // Each POST of the next second of telemetry, about 29 KB, is read in
    // one `read`, or two if the reactor wakes before all of it has landed,
    // and answered by one `writev`. Its ingest, and the refit where the
    // cadence falls, run on the reactor thread and add no `read` or `writev`.
    let epoch = || {
        let published = handle.reader().state().expect("service alive");
        published.snapshot.as_ref().map(|s| s.epoch)
    };
    let before = epoch();
    for post in 0..POSTS {
        let second = 20 + post;
        let events = telemetry(second, second + 1);
        assert_eq!(events.len(), 480);
        let body = encode_events(&events);
        assert!((24_000..40_000).contains(&body.len()), "{}", body.len());
        let raw = format!(
            "POST /v1/telemetry HTTP/1.1\r\nHost: gate\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let syscalls = gate.syscalls();
        round_trip(&mut stream, raw.as_bytes(), 1, &mut buf);
        let spent = gate.syscalls().since(&syscalls);
        assert!(
            spent.reads <= 2,
            "POST {post}: at most two reads: {spent:?}"
        );
        assert_eq!(spent.writevs, 1, "POST {post}: one writev: {spent:?}");
    }
    assert!(epoch() > before, "a cadence refit ran inside a POST");

    drop(stream);
    gate.shutdown();
    drop(handle);
}
