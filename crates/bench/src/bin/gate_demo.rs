//! gate_demo — loopback latency smoke test of the HTTP front door.
//!
//! Spawns the online SLA-prediction service behind [`cos_gate::Gate`] on an
//! ephemeral loopback port, streams one simulated S1 run's telemetry through
//! `POST /v1/telemetry` in 500-event batches, then measures the response
//! latency of repeated `GET /v1/attainment` queries over a single keep-alive
//! connection. On a warm epoch every query is a memoized lookup, so the
//! whole round trip is parse + dispatch + JSON + two socket hops; the demo
//! prints the latency percentiles of both the POSTs (one-pass decode plus
//! one batched ingest command each, refits included where the event-time
//! cadence falls) and the GETs, and fails if the GET p95 exceeds 5 ms.
//!
//! Usage: `cargo run --release -p cos-bench --bin gate_demo [-- --scale X]`
//! (scale multiplies the query count; default 2000 queries).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use cos_bench::report::parse_scale;
use cos_bench::scenario::calibrate;
use cos_gate::{encode_events, Gate, GateConfig};
use cos_serve::{CalibrationBase, CalibratorConfig, ServeConfig, SlaService, TelemetryEvent};
use cos_storesim::{ClusterConfig, DiskOpKind, MetricsConfig, SimTelemetry, Simulation};
use cos_workload::TraceEvent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn convert(event: SimTelemetry) -> TelemetryEvent {
    let class = |kind: DiskOpKind| match kind {
        DiskOpKind::Index => cos_serve::OpClass::Index,
        DiskOpKind::Meta => cos_serve::OpClass::Meta,
        DiskOpKind::Data => cos_serve::OpClass::Data,
    };
    match event {
        SimTelemetry::Routed { at, device } => TelemetryEvent::Arrival {
            at,
            device: device as usize,
        },
        SimTelemetry::DataRead { at, device } => TelemetryEvent::DataRead {
            at,
            device: device as usize,
        },
        SimTelemetry::Op {
            at,
            device,
            kind,
            latency,
            ..
        } => TelemetryEvent::Op {
            at,
            device: device as usize,
            class: class(kind),
            latency,
        },
        SimTelemetry::Completed {
            arrival,
            latency,
            device,
            ..
        } => TelemetryEvent::Completion {
            arrival,
            latency,
            device: device as usize,
        },
    }
}

/// Reads one response; returns its status code.
fn read_response(stream: &mut TcpStream) -> u16 {
    let mut buf = Vec::new();
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "gate closed the connection");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).expect("ASCII head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let content_length: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().expect("numeric length"))
        })
        .expect("Content-Length present");
    let mut got = buf.len() - head_end;
    while got < content_length {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "EOF mid-body");
        got += n;
    }
    status
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

fn main() {
    let queries = (2000.0 * parse_scale(1.0)) as usize;
    eprintln!("# gate_demo: loopback latency smoke, {queries} queries");

    // Calibrate and spawn the service behind the gate.
    let cluster = ClusterConfig::paper_s1();
    let calibration = calibrate(&cluster, 10_000);
    let base = CalibrationBase {
        index_law: calibration.index_law.clone(),
        meta_law: calibration.meta_law.clone(),
        data_law: calibration.data_law.clone(),
        parse_be: calibration.parse_be.clone(),
        parse_fe: calibration.parse_fe.clone(),
        devices: cluster.devices,
        processes_per_device: cluster.processes_per_device,
        frontend_processes: cluster.frontend_processes,
    };
    // One registry shared by the service and the gate: /metrics and the
    // final self-observation below see the whole stack.
    let registry = cos_obs::Registry::new();
    let config = ServeConfig {
        slas: vec![0.010, 0.050, 0.100],
        calibrator: CalibratorConfig {
            window: 20.0,
            buckets: 40,
            ..CalibratorConfig::default()
        },
        refit_interval: 5.0,
        obs: registry.clone(),
        ..ServeConfig::default()
    };
    let handle = SlaService::new(base, config).spawn();
    let gate_config = GateConfig {
        obs: registry.clone(),
        ..GateConfig::default()
    };
    let gate = Gate::bind("127.0.0.1:0", handle.client(), gate_config).expect("bind");
    let addr = gate.local_addr();
    eprintln!("# gate listening on {addr}");

    // One simulated run's telemetry, streamed through POST /v1/telemetry.
    let rate = 60.0;
    let duration = 25.0;
    let mut rng = SmallRng::seed_from_u64(0xD357);
    let mut t = 0.0;
    let mut trace = Vec::new();
    while t < duration {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        trace.push(TraceEvent {
            at: t,
            object: rng.gen_range(0..100_000),
            size: cluster.chunk_size / 2,
        });
    }
    let (tx, rx) = channel();
    Simulation::new(
        cluster.clone(),
        MetricsConfig {
            slas: vec![0.050],
            windows: vec![(duration * 0.2, duration, rate)],
            collect_raw: false,
            op_sample_stride: 37,
        },
    )
    .with_telemetry(Box::new(tx))
    .run(trace);
    let events: Vec<TelemetryEvent> = rx.iter().map(convert).collect();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    const BATCH: usize = 500;
    let ingest_start = Instant::now();
    let mut posts = Vec::new();
    for batch in events.chunks(BATCH) {
        let body = encode_events(batch);
        let raw = format!(
            "POST /v1/telemetry HTTP/1.1\r\nHost: demo\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let start = Instant::now();
        stream.write_all(raw.as_bytes()).expect("write batch");
        assert_eq!(read_response(&mut stream), 200, "telemetry rejected");
        posts.push(start.elapsed());
    }
    eprintln!(
        "# ingested {} events over HTTP in {:.1} ms",
        events.len(),
        ingest_start.elapsed().as_secs_f64() * 1e3
    );

    // Warm the epoch (first query pays the inversion), then measure.
    let query = b"GET /v1/attainment?sla=0.05 HTTP/1.1\r\nHost: demo\r\n\r\n";
    stream.write_all(query).expect("warm query");
    assert_eq!(read_response(&mut stream), 200, "service not calibrated");

    let mut latencies = Vec::with_capacity(queries);
    for _ in 0..queries {
        let start = Instant::now();
        stream.write_all(query).expect("query");
        let status = read_response(&mut stream);
        latencies.push(start.elapsed());
        assert_eq!(status, 200);
    }
    posts.sort();
    println!(
        "loopback POST /v1/telemetry: p50 {:.0} us, p95 {:.0} us per {BATCH}-event batch ({} batches)",
        percentile(&posts, 0.50).as_secs_f64() * 1e6,
        percentile(&posts, 0.95).as_secs_f64() * 1e6,
        posts.len()
    );
    latencies.sort();
    let p50 = percentile(&latencies, 0.50);
    let p95 = percentile(&latencies, 0.95);
    let p99 = percentile(&latencies, 0.99);
    println!(
        "loopback GET /v1/attainment: p50 {:.0} us, p95 {:.0} us, p99 {:.0} us ({queries} queries)",
        p50.as_secs_f64() * 1e6,
        p95.as_secs_f64() * 1e6,
        p99.as_secs_f64() * 1e6
    );
    assert!(
        p95 < Duration::from_millis(5),
        "warm-epoch p95 {:.2} ms exceeds the 5 ms budget",
        p95.as_secs_f64() * 1e3
    );

    // The gate's own self-measurement must agree with the client-side view:
    // every query above was recorded into the shared registry.
    stream
        .write_all(b"GET /v1/selfcheck HTTP/1.1\r\nHost: demo\r\n\r\n")
        .expect("selfcheck");
    assert_eq!(read_response(&mut stream), 200, "selfcheck must answer");
    let observed = registry.merged_histogram("cos_gate_request_seconds");
    assert!(
        observed.count() as usize > queries,
        "per-route histograms saw every request"
    );
    eprintln!(
        "# gate self-observed: {} requests, p50 {:.0} us, p95 {:.0} us, p99 {:.0} us",
        observed.count(),
        observed.quantile(0.50).unwrap_or(0.0) * 1e6,
        observed.quantile(0.95).unwrap_or(0.0) * 1e6,
        observed.quantile(0.99).unwrap_or(0.0) * 1e6
    );

    drop(stream);
    gate.shutdown();
    let service = handle.shutdown().expect("clean shutdown");
    eprintln!(
        "# final event time {:.1}s, p95 within budget, shutting down",
        service.event_time()
    );
}
