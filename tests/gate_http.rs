//! Protocol-level end-to-end tests of the HTTP front door.
//!
//! The first test drives simulator-generated telemetry through
//! `POST /v1/telemetry` over a real socket and checks that the answers the
//! gate serves are **bit-for-bit identical** to an in-process [`SlaService`]
//! fed the same event stream: ingestion order, the event-time auto-refit
//! cadence, and the JSON number encoding are all deterministic, so nothing
//! may differ.
//!
//! The second group throws adversarial raw bytes at the listener — pipelined
//! requests, missing `Host`, bare-`\n` line endings, `Content-Length`
//! mismatches, early disconnects — and asserts the exact status for each
//! while the service keeps answering afterwards.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use cos_bench::scenario::calibrate;
use cosmodel::gate::{encode_events, json, Gate, GateConfig};
use cosmodel::serve::{
    CalibrationBase, CalibratorConfig, DriftConfig, OpClass, Query, ServeConfig, SlaService,
    TelemetryEvent,
};
use cosmodel::storesim::{ClusterConfig, MetricsConfig, Simulation};
use cosmodel::workload::TraceEvent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn poisson_trace(rate: f64, duration: f64, chunk: u32, seed: u64) -> Vec<TraceEvent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    while t < duration {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        let size = if rng.gen::<f64>() < 0.10 {
            chunk + 1
        } else {
            chunk / 2
        };
        out.push(TraceEvent {
            at: t,
            object: rng.gen_range(0..100_000),
            size,
        });
    }
    out
}

/// One storesim run's telemetry, in arrival order.
fn simulated_events(cluster: &ClusterConfig, rate: f64, duration: f64) -> Vec<TelemetryEvent> {
    let (tx, rx) = channel();
    let trace = poisson_trace(rate, duration, cluster.chunk_size, 0x6A7E);
    Simulation::new(
        cluster.clone(),
        MetricsConfig {
            slas: vec![0.050],
            windows: vec![(duration * 0.2, duration, rate)],
            ..MetricsConfig::default()
        },
    )
    .with_telemetry(Box::new(tx))
    .run(trace);
    rx.iter().map(TelemetryEvent::from).collect()
}

/// A minimal keep-alive HTTP/1.1 client for one connection.
struct Client {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to gate");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        stream
            .set_write_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Client {
            stream,
            carry: Vec::new(),
        }
    }

    fn get(&mut self, target: &str) -> (u16, String) {
        let raw = format!("GET {target} HTTP/1.1\r\nHost: test\r\n\r\n");
        self.stream.write_all(raw.as_bytes()).expect("write GET");
        read_response(&mut self.stream, &mut self.carry).expect("response to GET")
    }

    fn post(&mut self, target: &str, body: &str) -> (u16, String) {
        let raw = format!(
            "POST {target} HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(raw.as_bytes()).expect("write POST");
        read_response(&mut self.stream, &mut self.carry).expect("response to POST")
    }
}

/// Reads one response off the stream: status code and body text. `carry`
/// holds bytes past the consumed response (pipelined responses can share a
/// TCP segment) and must be passed back in for the next call.
fn read_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> Option<(u16, String)> {
    let head_end = loop {
        if let Some(i) = find_blank_line(carry) {
            break i;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read response");
        if n == 0 {
            assert!(carry.is_empty(), "connection died mid-response");
            return None;
        }
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&carry[..head_end]).expect("ASCII head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let content_length: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().expect("numeric length"))
        })
        .expect("Content-Length present");
    while carry.len() < head_end + content_length {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "EOF mid-body");
        carry.extend_from_slice(&chunk[..n]);
    }
    let body = carry[head_end..head_end + content_length].to_vec();
    carry.drain(..head_end + content_length);
    Some((status, String::from_utf8(body).expect("UTF-8 body")))
}

/// Index just past the first blank line (`\r\n\r\n` or `\n\n`).
fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2))
}

#[test]
fn gate_answers_bit_for_bit_with_the_in_process_service() {
    let cluster = ClusterConfig::paper_s1();
    let rate = 60.0;
    let slas = vec![0.010, 0.050, 0.100];
    let base = calibrate(&cluster, 10_000);
    let config = ServeConfig {
        slas: slas.clone(),
        calibrator: CalibratorConfig {
            window: 20.0,
            buckets: 40,
            ..CalibratorConfig::default()
        },
        drift: DriftConfig {
            tolerance: 0.10,
            ..DriftConfig::default()
        },
        refit_interval: 5.0,
        ..ServeConfig::default()
    };
    let events = simulated_events(&cluster, rate, 25.0);
    assert!(events.len() > 1000, "simulator produced {}", events.len());

    // The reference: the same service type fed the same stream in-process.
    let mut reference = SlaService::new(base.clone(), config.clone());
    for &ev in &events {
        reference.ingest(ev);
    }

    // The subject: an identical service behind the socket gate, fed the
    // same stream in the same order through POST /v1/telemetry batches.
    let handle = SlaService::new(base, config).spawn();
    let gate = Gate::bind("127.0.0.1:0", handle.client(), GateConfig::default()).expect("bind");
    let mut client = Client::connect(gate.local_addr());
    let mut accepted = 0usize;
    for batch in events.chunks(500) {
        let (status, body) = client.post("/v1/telemetry", &encode_events(batch));
        assert_eq!(status, 200, "{body}");
        accepted += json::parse(&body).unwrap().usize_field("accepted").unwrap();
    }
    assert_eq!(accepted, events.len(), "every event acknowledged");

    // Identical streams + identical configs ⇒ identical auto-refit epochs
    // ⇒ identical answers, and the JSON layer is bit-exact on f64.
    let ref_status = reference.status();
    let ref_epoch = ref_status.epoch.expect("reference calibrated") as f64;
    let ref_reader = reference.reader();
    for &sla in &slas {
        let expected = ref_reader
            .attainment(&Query::new().sla(sla))
            .expect("reference answers");
        let (status, body) = client.get(&format!("/v1/attainment?sla={sla}"));
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).unwrap();
        assert_eq!(
            doc.f64_field("value").unwrap().to_bits(),
            expected.value.to_bits(),
            "sla {sla}: gate {} vs reference {}",
            doc.f64_field("value").unwrap(),
            expected.value
        );
        assert_eq!(doc.f64_field("epoch").unwrap(), ref_epoch, "same epoch");
        assert_eq!(doc.f64_field("sla").unwrap().to_bits(), sla.to_bits());
    }
    let expected_p95 = ref_reader
        .latency_percentile(&Query::new().p(0.95))
        .expect("reference answers");
    let (status, body) = client.get("/v1/percentile?p=0.95");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        json::parse(&body)
            .unwrap()
            .f64_field("value")
            .unwrap()
            .to_bits(),
        expected_p95.value.to_bits(),
        "p95 bit-exact"
    );

    // Status and metrics reflect the same calibration state.
    let (status, body) = client.get("/v1/status");
    assert_eq!(status, 200);
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.f64_field("epoch").unwrap(), ref_epoch);
    assert_eq!(
        doc.f64_field("event_time").unwrap().to_bits(),
        reference.event_time().to_bits()
    );
    let (status, text) = client.get("/metrics");
    assert_eq!(status, 200);
    assert!(text.contains(&format!("cos_epoch {ref_epoch}")), "{text}");

    gate.shutdown();
    drop(handle);
}

/// Every prediction route over the wire answers bit-for-bit what the
/// reader of an identical unspawned [`SlaService`] answers to the same
/// [`Query`]: both funnel through the same quantized evaluation code, and
/// the JSON writer round-trips every `f64`, so nothing may differ.
#[test]
fn gate_answers_every_prediction_route_like_the_unspawned_service() {
    let reference = calibrated_service(bare_base());
    let ref_reader = reference.reader();
    let handle = calibrated_service(bare_base()).spawn();
    let gate = Gate::bind("127.0.0.1:0", handle.client(), GateConfig::default()).expect("bind");
    let mut client = Client::connect(gate.local_addr());

    let upper = cosmodel::serve::DEFAULT_HEADROOM_UPPER;
    let predictions = [
        (
            "/v1/attainment?sla=0.05",
            ref_reader.attainment(&Query::new().sla(0.05)),
        ),
        (
            "/v1/attainment?sla=0.05&rate=120",
            ref_reader.attainment(&Query::new().sla(0.05).rate(120.0)),
        ),
        (
            "/v1/attainment?sla=0.01",
            ref_reader.attainment(&Query::new().sla(0.01)),
        ),
        (
            "/v1/percentile?p=0.95",
            ref_reader.latency_percentile(&Query::new().p(0.95)),
        ),
        (
            "/v1/headroom?sla=0.05&target=0.9",
            ref_reader.admissible_rate(&Query::new().sla(0.05).target(0.9).upper(upper)),
        ),
        (
            "/v1/attainment?sla=0.05&n=4&k=2",
            ref_reader.attainment(&Query::new().sla(0.05).n_k(4, 2)),
        ),
        (
            "/v1/percentile?p=0.95&n=6&k=4",
            ref_reader.latency_percentile(&Query::new().p(0.95).n_k(6, 4)),
        ),
        (
            "/v1/percentile?p=0.99&n=9&k=6",
            ref_reader.latency_percentile(&Query::new().p(0.99).n_k(9, 6)),
        ),
    ];
    for (target, expected) in predictions {
        let expected = expected.expect("reference answers");
        let (status, body) = client.get(target);
        assert_eq!(status, 200, "{target}: {body}");
        let doc = json::parse(&body).unwrap();
        assert_eq!(
            doc.f64_field("value").unwrap().to_bits(),
            expected.value.to_bits(),
            "{target}: {body}"
        );
        assert_eq!(doc.f64_field("epoch").unwrap(), expected.epoch as f64);
    }

    let ranking = ref_reader
        .device_ranking(&Query::new().sla(0.05))
        .expect("reference ranks");
    let (status, body) = client.get("/v1/bottlenecks?sla=0.05");
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).unwrap();
    let served: Vec<(usize, u64)> = doc
        .field("devices")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|d| {
            (
                d.usize_field("device").unwrap(),
                d.f64_field("fraction").unwrap().to_bits(),
            )
        })
        .collect();
    let expected: Vec<(usize, u64)> = ranking.iter().map(|&(d, f)| (d, f.to_bits())).collect();
    assert_eq!(served, expected, "{body}");

    // /v1/status: the cache counters legitimately differ (each read bumps
    // them), so compare the fields the snapshot must mirror exactly: the
    // epoch and the live event clock.
    let (status, body) = client.get("/v1/status");
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).unwrap();
    let ref_status = reference.status();
    assert_eq!(
        doc.f64_field("epoch").unwrap(),
        ref_status.epoch.expect("reference calibrated") as f64
    );
    assert_eq!(
        doc.f64_field("event_time").unwrap().to_bits(),
        reference.event_time().to_bits()
    );

    gate.shutdown();
    drop(handle);
}

/// Coded-read smoke over the wire: coded percentile/attainment answers
/// equal the in-process client's bit for bit, the spec is echoed back, a
/// `k`-of-`n` join with larger `k` is never faster, and a malformed spec is
/// refused `400`.
#[test]
fn coded_queries_answer_on_the_wire_like_the_client() {
    let handle = calibrated_service(bare_base()).spawn();
    let gate = Gate::bind("127.0.0.1:0", handle.client(), GateConfig::default()).expect("bind");
    let mut client = Client::connect(gate.local_addr());

    let in_process = handle.reader();
    let targets = [
        (
            "/v1/percentile?p=0.99&n=4&k=2",
            in_process.latency_percentile(&Query::new().p(0.99).n_k(4, 2)),
        ),
        (
            "/v1/percentile?p=0.99&n=4&k=4",
            in_process.latency_percentile(&Query::new().p(0.99).n_k(4, 4)),
        ),
        (
            "/v1/attainment?sla=0.05&n=6&k=4",
            in_process.attainment(&Query::new().sla(0.05).n_k(6, 4)),
        ),
    ];
    let mut p99 = Vec::new();
    for (target, expected) in targets {
        let (status, body) = client.get(target);
        assert_eq!(status, 200, "{target}: {body}");
        let doc = json::parse(&body).unwrap();
        assert!(doc.f64_field("n").is_ok(), "spec echoed: {body}");
        let value = doc.f64_field("value").unwrap();
        assert_eq!(
            value.to_bits(),
            expected.unwrap().value.to_bits(),
            "{target}"
        );
        p99.push(value);
    }
    // Needing all four chunks (a max) dominates needing any two.
    assert!(
        p99[1] >= p99[0],
        "4-of-4 p99 {} < 2-of-4 {}",
        p99[1],
        p99[0]
    );
    // Malformed specs are rejected on the wire.
    let (status, _) = client.get("/v1/percentile?p=0.99&n=4&k=9");
    assert_eq!(status, 400);

    gate.shutdown();
    drop(handle);
}

/// A percentile the 1e-4 grid rounds to 1 (`p ≥ 0.99995`) has no answer:
/// every percentile form refuses it `400` instead of panicking on the
/// reactor thread that would evaluate it. Each request gets a fresh
/// connection, several per reactor thread, and a fresh connection still
/// gets its `200` afterwards.
#[test]
fn percentiles_that_snap_to_one_are_400_and_every_reactor_survives() {
    const REACTORS: usize = 2;
    let handle = calibrated_service(bare_base()).spawn();
    let config = GateConfig {
        reactor_threads: REACTORS,
        ..GateConfig::default()
    };
    let gate = Gate::bind("127.0.0.1:0", handle.client(), config).expect("bind");
    let addr = gate.local_addr();
    for _ in 0..2 * REACTORS {
        for target in [
            "/v1/percentile?p=0.99999",
            "/v1/percentile?p=0.99995&n=4&k=2",
            "/v1/tenants/default/percentile?p=0.99999",
        ] {
            let (status, body) = Client::connect(addr).get(target);
            assert_eq!(status, 400, "{target}: {body}");
            assert!(body.contains("1e-4"), "{target}: {body}");
        }
    }
    let (status, body) = Client::connect(addr).get("/v1/percentile?p=0.9999");
    assert_eq!(status, 200, "{body}");
    gate.shutdown();
    drop(handle);
}

/// A data law whose transform panics while `armed` is set.
struct Tripwire {
    law: cosmodel::distr::Gamma,
    armed: Arc<AtomicBool>,
}

impl cosmodel::queueing::ServiceTime for Tripwire {
    fn lst(&self, s: cosmodel::numeric::Complex64) -> cosmodel::numeric::Complex64 {
        assert!(!self.armed.load(Ordering::SeqCst), "tripwire law evaluated");
        cosmodel::distr::Lst::lst(&self.law, s)
    }
    fn mean(&self) -> f64 {
        cosmodel::distr::Distribution::mean(&self.law)
    }
    fn second_moment(&self) -> f64 {
        cosmodel::distr::Distribution::second_moment(&self.law)
    }
}

/// A cold read evaluates the model on the reactor thread that parsed it.
/// While the data law panics, each cold read is answered `500` — more of
/// them than there are reactors, each on its own connection — and memo
/// hits keep answering `200`. Once the law is sound again, the same cold
/// questions and new ones answer `200`: no reactor died, and no
/// connection is refused.
#[test]
fn a_panicking_cold_read_is_a_500_and_every_reactor_keeps_serving() {
    const REACTORS: usize = 2;
    let armed = Arc::new(AtomicBool::new(false));
    let mut base = bare_base();
    base.data_law = Arc::new(Tripwire {
        law: cosmodel::distr::Gamma::new(3.5, 245.0),
        armed: Arc::clone(&armed),
    });
    let handle = calibrated_service(base).spawn();
    let config = GateConfig {
        reactor_threads: REACTORS,
        ..GateConfig::default()
    };
    let gate = Gate::bind("127.0.0.1:0", handle.client(), config).expect("bind");
    let addr = gate.local_addr();
    // Configured SLAs are pre-warmed at the refit: memo hits.
    let warm = "/v1/attainment?sla=0.05";
    let cold = |i: usize| format!("/v1/attainment?sla=0.0{}", 11 + i);
    let (status, body) = Client::connect(addr).get(warm);
    assert_eq!(status, 200, "{body}");

    armed.store(true, Ordering::SeqCst);
    let mut kept = Client::connect(addr);
    for i in 0..3 * REACTORS {
        let (status, body) = Client::connect(addr).get(&cold(i));
        assert_eq!(status, 500, "{}: {body}", cold(i));
        assert!(body.contains("panicked"), "{body}");
        let (status, body) = Client::connect(addr).get(warm);
        assert_eq!(status, 200, "warm read while armed: {body}");
    }
    // A connection that saw a 500 stays open for its next request.
    assert_eq!(kept.get(&cold(0)).0, 500);

    armed.store(false, Ordering::SeqCst);
    assert_eq!(kept.get(&cold(0)).0, 200);
    for i in 0..4 * REACTORS {
        for target in [warm.to_string(), cold(i)] {
            let (status, body) = Client::connect(addr).get(&target);
            assert_eq!(status, 200, "{target} after the law recovered: {body}");
        }
    }
    gate.shutdown();
    drop(handle);
}

/// The synthetic calibration base used by the protocol-level tests.
fn bare_base() -> CalibrationBase {
    use cosmodel::distr::{Degenerate, Gamma};
    use cosmodel::queueing::from_distribution;
    CalibrationBase {
        index_law: from_distribution(Gamma::new(3.0, 250.0)),
        meta_law: from_distribution(Gamma::new(2.5, 312.5)),
        data_law: from_distribution(Gamma::new(3.5, 245.0)),
        parse_be: from_distribution(Degenerate::new(0.0005)),
        parse_fe: from_distribution(Degenerate::new(0.0003)),
        devices: 2,
        processes_per_device: 1,
        frontend_processes: 3,
    }
}

/// A service over `base` (usually [`bare_base`]) calibrated in-process
/// from a deterministic 20 s stream at 40 req/s per device, with one epoch
/// installed.
fn calibrated_service(base: CalibrationBase) -> SlaService {
    let mut service = SlaService::new(base, ServeConfig::default());
    let mut i = 0u64;
    let mut t = 0.0;
    while t < 20.0 {
        for d in 0..2 {
            service.ingest(TelemetryEvent::Arrival { at: t, device: d });
            service.ingest(TelemetryEvent::DataRead { at: t, device: d });
            for class in OpClass::ALL {
                let latency = if i % 10 < 3 { 0.010 } else { 0.000_002 };
                service.ingest(TelemetryEvent::Op {
                    at: t,
                    device: d,
                    class,
                    latency,
                });
                i += 1;
            }
            service.ingest(TelemetryEvent::Completion {
                arrival: t,
                latency: if i % 10 < 3 { 0.030 } else { 0.004 },
                device: d,
            });
        }
        t += 1.0 / 40.0;
    }
    assert!(service.refit_now(), "deterministic stream must fit");
    service
}

/// Spawns a warming-up service behind a gate (no calibration needed: the
/// adversarial cases only exercise the protocol layer and `/v1/status`).
fn spawn_bare_gate() -> Gate {
    let handle = SlaService::new(bare_base(), ServeConfig::default()).spawn();
    let client = handle.client();
    // Leak the handle: the gate owns the only reference we keep, and the
    // service lives until the process ends. Keeps this helper simple.
    std::mem::forget(handle);
    Gate::bind("127.0.0.1:0", client, GateConfig::default()).expect("bind")
}

/// Writes raw bytes, half-closes, and returns every response status the
/// server sends before closing.
fn exchange(addr: SocketAddr, raw: &[u8]) -> Vec<u16> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(raw).expect("write raw bytes");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut statuses = Vec::new();
    let mut carry = Vec::new();
    while let Some((status, _body)) = read_response(&mut stream, &mut carry) {
        statuses.push(status);
    }
    assert!(carry.is_empty(), "truncated trailing response");
    statuses
}

#[test]
fn adversarial_inputs_get_exact_statuses_and_the_gate_survives() {
    let gate = spawn_bare_gate();
    let addr = gate.local_addr();

    let mut oversized_head = b"GET /v1/status HTTP/1.1\r\nHost: a\r\nX-Pad: ".to_vec();
    oversized_head.extend(std::iter::repeat_n(b'a', 20 * 1024));
    oversized_head.extend_from_slice(b"\r\n\r\n");

    let cases: Vec<(&str, Vec<u8>, Vec<u16>)> = vec![
        (
            "two pipelined GETs in one segment answer in order",
            b"GET /v1/status HTTP/1.1\r\nHost: a\r\n\r\nGET /metrics HTTP/1.1\r\nHost: a\r\n\r\n"
                .to_vec(),
            vec![200, 200],
        ),
        (
            "HTTP/1.1 without Host is 400",
            b"GET /v1/status HTTP/1.1\r\n\r\n".to_vec(),
            vec![400],
        ),
        (
            "bare \\n line endings are accepted",
            b"GET /v1/status HTTP/1.1\nHost: a\n\n".to_vec(),
            vec![200],
        ),
        (
            "Content-Length larger than the sent body is 400 at EOF",
            b"POST /v1/telemetry HTTP/1.1\r\nHost: a\r\nContent-Length: 10\r\n\r\n[]".to_vec(),
            vec![400],
        ),
        (
            "zero-length POST body is 400 from the route, not a hang",
            b"POST /v1/telemetry HTTP/1.1\r\nHost: a\r\nContent-Length: 0\r\n\r\n".to_vec(),
            vec![400],
        ),
        (
            "garbage request line is 400",
            b"EHLO gate\r\n\r\n".to_vec(),
            vec![400],
        ),
        (
            "unsupported HTTP version is 400",
            b"GET /v1/status HTTP/2.0\r\nHost: a\r\n\r\n".to_vec(),
            vec![400],
        ),
        (
            "Transfer-Encoding is rejected as 400",
            b"POST /v1/telemetry HTTP/1.1\r\nHost: a\r\nTransfer-Encoding: chunked\r\n\r\n"
                .to_vec(),
            vec![400],
        ),
        (
            "unknown path is 404",
            b"GET /v2/attainment HTTP/1.1\r\nHost: a\r\n\r\n".to_vec(),
            vec![404],
        ),
        (
            "wrong method on a known path is 405",
            b"DELETE /v1/status HTTP/1.1\r\nHost: a\r\n\r\n".to_vec(),
            vec![405],
        ),
        (
            "an oversized header block is 431",
            oversized_head,
            vec![431],
        ),
        (
            "a huge declared Content-Length is 413 before any body byte",
            b"POST /v1/telemetry HTTP/1.1\r\nHost: a\r\nContent-Length: 99999999\r\n\r\n".to_vec(),
            vec![413],
        ),
        (
            "a parse error poisons the rest of the pipeline",
            b"EHLO gate\r\n\r\nGET /v1/status HTTP/1.1\r\nHost: a\r\n\r\n".to_vec(),
            vec![400],
        ),
    ];

    for (name, raw, expected) in cases {
        assert_eq!(exchange(addr, &raw), expected, "case: {name}");
        // The gate keeps serving after every abuse.
        let (status, _) = Client::connect(addr).get("/v1/status");
        assert_eq!(status, 200, "gate dead after case: {name}");
    }

    // Early disconnect mid-body: no response is owed, nothing may die.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"POST /v1/telemetry HTTP/1.1\r\nHost: a\r\nContent-Length: 50\r\n\r\n[")
            .expect("write partial");
        drop(stream);
    }
    // Early disconnect mid-head, too.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"GET /v1/sta").expect("write partial");
        drop(stream);
    }
    let (status, _) = Client::connect(addr).get("/v1/status");
    assert_eq!(status, 200, "gate dead after early disconnects");

    gate.shutdown();
}

/// Admission shedding on the wire: with a controller forced to full shed,
/// data-plane requests are answered `429` with a `Retry-After` header,
/// control-plane routes keep answering (the feedback loop is never
/// starved), a 429 does not poison a pipelined connection, and lifting the
/// shed re-admits on the same gate.
#[test]
fn shed_gate_answers_429_with_retry_after_on_the_wire() {
    use cosmodel::ctrl::{AdmissionPolicy, Controller, CtrlConfig};

    let handle = SlaService::new(bare_base(), ServeConfig::default()).spawn();
    let client = handle.client();
    std::mem::forget(handle);
    // `max_shed: 1.0` makes the forced shed total: every data-plane
    // request drops deterministically, with no error-diffusion pattern
    // for the byte table to track.
    let ctrl = Arc::new(
        Controller::new(
            client.reader(),
            CtrlConfig {
                admission: AdmissionPolicy {
                    max_shed: 1.0,
                    ..AdmissionPolicy::default()
                },
                ..CtrlConfig::default()
            },
        )
        .expect("valid policy"),
    );
    ctrl.force_shed(1.0);
    let config = GateConfig {
        controller: Some(ctrl.clone()),
        ..GateConfig::default()
    };
    let gate = Gate::bind("127.0.0.1:0", client, config).expect("bind");
    let addr = gate.local_addr();

    let cases: Vec<(&str, Vec<u8>, Vec<u16>)> = vec![
        (
            "a data-plane GET is shed with 429",
            b"GET /v1/attainment?sla=0.05 HTTP/1.1\r\nHost: a\r\n\r\n".to_vec(),
            vec![429],
        ),
        (
            "an explicit batch request is shed too",
            b"GET /v1/attainment?sla=0.05 HTTP/1.1\r\nHost: a\r\nx-sla-class: batch\r\n\r\n"
                .to_vec(),
            vec![429],
        ),
        (
            "a 429 does not poison the pipeline: the control GET behind it answers",
            b"GET /v1/attainment?sla=0.05 HTTP/1.1\r\nHost: a\r\n\r\n\
              GET /v1/status HTTP/1.1\r\nHost: a\r\n\r\n"
                .to_vec(),
            vec![429, 200],
        ),
        (
            "control-plane routes are never shed",
            b"GET /v1/status HTTP/1.1\r\nHost: a\r\n\r\n".to_vec(),
            vec![200],
        ),
        (
            "naming `control` from the wire does not dodge the shed",
            b"GET /v1/attainment?sla=0.05 HTTP/1.1\r\nHost: a\r\nx-sla-class: control\r\n\r\n"
                .to_vec(),
            vec![429],
        ),
    ];
    for (name, raw, expected) in cases {
        assert_eq!(exchange(addr, &raw), expected, "case: {name}");
    }

    // The exact header bytes: `Retry-After` carrying the policy's seconds.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream
        .write_all(b"GET /v1/attainment?sla=0.05 HTTP/1.1\r\nHost: a\r\n\r\n")
        .expect("write shed request");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read full response");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 429 "), "status line: {text}");
    let retry = ctrl.policy().retry_after;
    assert!(
        text.contains(&format!("\r\nRetry-After: {retry}\r\n")),
        "Retry-After header missing: {text}"
    );

    // Lifting the shed re-admits: the same request now reaches the route
    // (503 — the bare service has no fit yet — not 429 from the gate).
    ctrl.force_shed(0.0);
    assert_eq!(
        exchange(
            addr,
            b"GET /v1/attainment?sla=0.05 HTTP/1.1\r\nHost: a\r\n\r\n"
        ),
        vec![503],
        "re-admitted request must reach the service"
    );

    gate.shutdown();
}

/// Splits a Prometheus exposition into `(name, TYPE)` pairs.
fn prometheus_types(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("# TYPE ")?;
            let (name, kind) = rest.split_once(' ')?;
            Some((name.to_string(), kind.to_string()))
        })
        .collect()
}

/// End-to-end: under real socket load the gate's self-measurement shows up
/// on `/v1/selfcheck` (observed percentiles next to model-predicted ones)
/// and `/metrics` exposes well-formed histogram series for the whole stack.
#[test]
fn selfcheck_and_metrics_reflect_real_traffic_end_to_end() {
    let cluster = ClusterConfig::paper_s1();
    let base = calibrate(&cluster, 6_000);
    // One registry shared by service and gate — /metrics shows both.
    let registry = cosmodel::obs::Registry::new();
    let config = ServeConfig {
        slas: vec![0.050],
        calibrator: CalibratorConfig {
            window: 10.0,
            buckets: 20,
            ..CalibratorConfig::default()
        },
        refit_interval: 4.0,
        obs: registry.clone(),
        ..ServeConfig::default()
    };
    let handle = SlaService::new(base, config).spawn();
    let gate_config = GateConfig {
        obs: registry.clone(),
        ..GateConfig::default()
    };
    let gate = Gate::bind("127.0.0.1:0", handle.client(), gate_config).expect("bind");
    let mut client = Client::connect(gate.local_addr());

    // Load: telemetry batches in, then a burst of queries.
    let events = simulated_events(&cluster, 60.0, 12.0);
    for batch in events.chunks(500) {
        let (status, body) = client.post("/v1/telemetry", &encode_events(batch));
        assert_eq!(status, 200, "{body}");
    }
    let queries = 50;
    for _ in 0..queries {
        let (status, body) = client.get("/v1/attainment?sla=0.05");
        assert_eq!(status, 200, "{body}");
    }

    // Selfcheck: observed gate percentiles next to predicted ones, all
    // finite and positive, computed from the traffic above.
    let (status, body) = client.get("/v1/selfcheck");
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).unwrap();
    let observed = doc.field("observed").expect("observed side present");
    assert!(
        observed.f64_field("samples").unwrap() >= queries as f64,
        "observed histogram saw the query burst"
    );
    let op50 = observed.f64_field("p50").unwrap();
    let op95 = observed.f64_field("p95").unwrap();
    let op99 = observed.f64_field("p99").unwrap();
    assert!(op50.is_finite() && op50 > 0.0, "p50 = {op50}");
    assert!(op50 <= op95 && op95 <= op99, "{op50} ≤ {op95} ≤ {op99}");
    let predicted = doc.field("predicted").expect("predicted side present");
    for q in ["p50", "p95", "p99"] {
        let v = predicted.f64_field(q).unwrap();
        assert!(v.is_finite() && v > 0.0, "predicted {q} = {v}");
    }
    assert!(doc.f64_field("epoch").unwrap() >= 1.0, "epoch installed");

    // The paper's validation loop (§V) as a CI assertion: the model's
    // predicted p95 and the gate's own observed p95 must agree within a
    // generous factor band. The two measure different stages — the model
    // predicts simulated *storage* response latency (milliseconds), the
    // gate observes its own warm-loopback request handling (micro- to
    // milliseconds) — so the bound is deliberately loose: it catches unit
    // mistakes (seconds vs nanoseconds is a ×1e9 error) and degenerate
    // outputs (zero, NaN, infinity), not modeling error.
    let predicted_p95 = predicted.f64_field("p95").unwrap();
    assert!(
        op95 <= predicted_p95 * 1e3,
        "observed p95 {op95}s implausibly above predicted {predicted_p95}s"
    );
    assert!(
        op95 >= predicted_p95 / 1e6,
        "observed p95 {op95}s implausibly below predicted {predicted_p95}s"
    );

    // /metrics: the service block plus the instrument registry, with
    // well-formed histogram series for at least four distinct instruments.
    let (status, text) = client.get("/metrics");
    assert_eq!(status, 200);
    let histograms: Vec<String> = prometheus_types(&text)
        .into_iter()
        .filter_map(|(name, kind)| (kind == "histogram").then_some(name))
        .collect();
    let expected = [
        "cos_gate_request_seconds",
        "cos_gate_parse_seconds",
        "cos_gate_dispatch_seconds",
        "cos_serve_query_seconds",
        "cos_serve_refit_seconds",
    ];
    for name in expected {
        assert!(histograms.contains(&name.to_string()), "missing {name}");
        // Every histogram family must be structurally valid: bucket lines
        // with an `le` label, then `_sum` and `_count`.
        assert!(
            text.contains(&format!("{name}_bucket{{")),
            "{name} has bucket lines"
        );
        assert!(
            text.lines()
                .any(|l| l.starts_with(&format!("{name}_bucket{{")) && l.contains("le=\"+Inf\"")),
            "{name} has a +Inf bucket"
        );
        assert!(
            text.lines().any(|l| l.starts_with(&format!("{name}_sum "))
                || l.starts_with(&format!("{name}_sum{{"))),
            "{name} has a _sum"
        );
        assert!(
            text.lines()
                .any(|l| l.starts_with(&format!("{name}_count "))
                    || l.starts_with(&format!("{name}_count{{"))),
            "{name} has a _count"
        );
    }
    assert!(
        histograms.len() >= 4,
        "at least four histogram instruments, got {histograms:?}"
    );
    // The hand-written service block is still present in the same document.
    assert!(text.contains("cos_event_time_seconds"), "{text}");

    gate.shutdown();
    drop(handle);
}

/// A tenant-scoped request is timed in its route's latency series, beside
/// its legacy alias and whatever its status; a path that names no route,
/// or a tenant id that could never exist, is timed in `other`.
#[test]
fn tenant_scoped_requests_are_timed_in_their_routes_series() {
    let handle = SlaService::new(bare_base(), ServeConfig::default()).spawn();
    let gate = Gate::bind("127.0.0.1:0", handle.client(), GateConfig::default()).expect("bind");
    let mut client = Client::connect(gate.local_addr());
    // The service is warming up (503), and no telemetry has named `blue`
    // (404).
    assert_eq!(client.get("/v1/attainment?sla=0.05").0, 503);
    assert_eq!(client.get("/v1/tenants/blue/attainment?sla=0.05").0, 404);
    assert_eq!(client.get("/v1/tenants/blue/nope").0, 404);
    assert_eq!(client.get("/v1/tenants/BLUE/attainment?sla=0.05").0, 422);

    let (status, text) = client.get("/metrics");
    assert_eq!(status, 200);
    let count = |route: &str| {
        let series = format!("cos_gate_request_seconds_count{{route=\"{route}\"}} ");
        text.lines()
            .find_map(|line| line.strip_prefix(series.as_str()))
            .map(|n| n.parse::<u64>().expect("integer count"))
    };
    assert_eq!(count("/v1/attainment"), Some(2), "{text}");
    assert_eq!(count("other"), Some(2), "{text}");

    gate.shutdown();
    drop(handle);
}

/// Slow-loris regression: a pack of connections dribbling one byte of a
/// request head per 100 ms must not stall the reactor. The gate runs with a
/// **single** reactor thread so every loris and every healthy client share
/// one event loop — if any read blocked, the healthy requests below could
/// not be answered. Healthy clients get `200` well inside the request
/// deadline while the dribblers are mid-trickle; each straggler is answered
/// `408` once its deadline expires.
#[test]
fn slow_loris_peers_get_408_and_do_not_stall_the_reactor() {
    let deadline = Duration::from_millis(900);
    let handle = SlaService::new(bare_base(), ServeConfig::default()).spawn();
    let gate = Gate::bind(
        "127.0.0.1:0",
        handle.client(),
        GateConfig {
            reactor_threads: 1,
            request_deadline: deadline,
            max_connections: 32,
            ..GateConfig::default()
        },
    )
    .expect("bind");
    let addr = gate.local_addr();

    // Each loris sends a partial head, then one byte per 100 ms — but stops
    // dribbling well before the deadline and switches to reading, so the
    // 408 is never raced by a write into a closed socket (which would RST
    // the reply away). Five dribbles at 100 ms ≪ the 900 ms deadline.
    const LORISES: usize = 8;
    let heads_written = Arc::new(Barrier::new(LORISES + 1));
    let lorises: Vec<_> = (0..LORISES)
        .map(|i| {
            let heads_written = Arc::clone(&heads_written);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("loris connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(20)))
                    .unwrap();
                let head = format!("GET /v1/status HTTP/1.1\r\nHost: a\r\nX-Slow-{i}: ");
                stream.write_all(head.as_bytes()).expect("loris head");
                heads_written.wait();
                for _ in 0..5 {
                    std::thread::sleep(Duration::from_millis(100));
                    stream.write_all(b"z").expect("loris dribble");
                }
                let mut reply = String::new();
                stream.read_to_string(&mut reply).expect("loris read 408");
                reply
            })
        })
        .collect();

    // Once every loris has its partial head in, and while they dribble, a
    // healthy client must be served promptly on the same single reactor
    // thread.
    heads_written.wait();
    let mut healthy = Client::connect(addr);
    for _ in 0..5 {
        let started = std::time::Instant::now();
        let (status, body) = healthy.get("/v1/status");
        assert_eq!(status, 200, "{body}");
        assert!(
            started.elapsed() < deadline,
            "healthy request stalled for {:?} behind the lorises",
            started.elapsed()
        );
    }

    // Every straggler is answered 408 and the connection closed.
    for loris in lorises {
        let reply = loris.join().expect("loris thread");
        assert!(
            reply.starts_with("HTTP/1.1 408 "),
            "expected a 408 for the slow peer, got: {reply:?}"
        );
    }

    // The gate is still healthy afterwards.
    let (status, _body) = healthy.get("/v1/status");
    assert_eq!(status, 200);
    gate.shutdown();
    drop(handle);
}

/// The alias contract over a real socket: `/v1/*` and
/// `/v1/tenants/default/*` must serve **byte-identical** bodies from one
/// live service — including refusals — and tenant-scoped telemetry posted
/// over the wire calibrates an isolated shard that legacy routes never
/// see.
#[test]
fn tenant_routes_alias_legacy_byte_identically() {
    // A deterministic stream; `slow_mod` skews the completion mix so two
    // tenants get visibly different fits.
    let stream = |t0: f64, t1: f64, slow_mod: u64| {
        let mut out = Vec::new();
        let mut i = 0u64;
        let mut t = t0;
        while t < t1 {
            for d in 0..2 {
                out.push(TelemetryEvent::Arrival { at: t, device: d });
                out.push(TelemetryEvent::DataRead { at: t, device: d });
                for class in OpClass::ALL {
                    let latency = if i % 10 < 3 { 0.010 } else { 0.000_002 };
                    out.push(TelemetryEvent::Op {
                        at: t,
                        device: d,
                        class,
                        latency,
                    });
                    i += 1;
                }
                out.push(TelemetryEvent::Completion {
                    arrival: t,
                    latency: if i % 10 < slow_mod { 0.030 } else { 0.004 },
                    device: d,
                });
            }
            t += 1.0 / 40.0;
        }
        out
    };

    let mut service = SlaService::new(bare_base(), ServeConfig::default());
    for ev in stream(0.0, 20.0, 3) {
        service.ingest(ev);
    }
    assert!(service.refit_now(), "deterministic stream must fit");
    let handle = service.spawn();

    let pairs = [
        (
            "/v1/attainment?sla=0.05",
            "/v1/tenants/default/attainment?sla=0.05",
        ),
        (
            "/v1/attainment?sla=0.05&rate=120",
            "/v1/tenants/default/attainment?sla=0.05&rate=120",
        ),
        (
            "/v1/attainment?sla=0.05&n=4&k=2",
            "/v1/tenants/default/attainment?sla=0.05&n=4&k=2",
        ),
        (
            "/v1/percentile?p=0.95",
            "/v1/tenants/default/percentile?p=0.95",
        ),
        (
            "/v1/headroom?sla=0.05&target=0.9",
            "/v1/tenants/default/headroom?sla=0.05&target=0.9",
        ),
        (
            "/v1/bottlenecks?sla=0.05",
            "/v1/tenants/default/bottlenecks?sla=0.05",
        ),
        // Refusals must alias too: same validator, same body bytes.
        (
            "/v1/attainment?sla=oops",
            "/v1/tenants/default/attainment?sla=oops",
        ),
    ];

    let gate = Gate::bind("127.0.0.1:0", handle.client(), GateConfig::default()).expect("bind");
    let mut client = Client::connect(gate.local_addr());

    for (legacy, tenant) in pairs {
        let (ls, lb) = client.get(legacy);
        let (ts, tb) = client.get(tenant);
        assert_eq!(ls, ts, "status differs for {legacy}");
        assert_eq!(lb, tb, "body differs for {legacy}");
    }
    // Status pair back-to-back (no reads between): byte-identical.
    let (ls, lb) = client.get("/v1/status");
    let (ts, tb) = client.get("/v1/tenants/default/status");
    assert_eq!((ls, ts), (200, 200));
    assert_eq!(lb, tb, "status body differs");

    // Telemetry write path aliases as well (same acceptance count).
    let batch = stream(0.0, 0.1, 3);
    let (ls, lb) = client.post("/v1/telemetry", &encode_events(&batch));
    let (ts, tb) = client.post("/v1/tenants/default/telemetry", &encode_events(&batch));
    assert_eq!((ls, ts), (200, 200), "{lb} / {tb}");
    assert_eq!(lb, tb, "telemetry ack differs");

    // Tenant refusal discipline over the wire: unknown → 404,
    // malformed id → 422, and neither kills the connection.
    let (status, body) = client.get("/v1/tenants/ghost/status");
    assert_eq!(status, 404, "{body}");
    let (status, body) = client.get("/v1/tenants/NOPE/status");
    assert_eq!(status, 422, "{body}");
    let (status, _) = client.get("/v1/status");
    assert_eq!(status, 200);

    // Tenant-scoped ingestion over the wire: a `blue` shard calibrated
    // through POST /v1/tenants/blue/telemetry alone, isolated from the
    // default tenant the legacy routes serve.
    // Event times continue past the default tenant's (last refit at 20 s),
    // so the service's own cadence triggers the fleet refit.
    let blue_events = stream(21.0, 46.0, 7);
    for batch in blue_events.chunks(500) {
        let (status, body) = client.post("/v1/tenants/blue/telemetry", &encode_events(batch));
        assert_eq!(status, 200, "{body}");
    }
    // Each POST answers 200 only once its batch is ingested, cadence
    // refits included, so blue's shard has published by now.
    let (status, body) = client.get("/v1/tenants/blue/attainment?sla=0.05");
    assert_eq!(status, 200, "blue calibrated by its own POSTs: {body}");
    let blue_value = json::parse(&body).unwrap().f64_field("value").unwrap();
    let (status, body) = client.get("/v1/attainment?sla=0.05");
    assert_eq!(status, 200, "{body}");
    let default_value = json::parse(&body).unwrap().f64_field("value").unwrap();
    assert_ne!(
        blue_value.to_bits(),
        default_value.to_bits(),
        "distinct streams must fit distinct shards"
    );

    gate.shutdown();
    drop(handle);
}
