//! Machine-readable perf baseline for the inversion, sweep, gate,
//! admission-controller, coded-read, and fleet-refit hot paths.
//!
//! Measures the composite-model CDF, quantile, sweep-grid, multi-client
//! gate throughput, per-request admission cost, and coded-read prediction
//! accuracy, and writes them to `BENCH_inversion.json` / `BENCH_sweep.json`
//! / `BENCH_ctrl.json` / `BENCH_coded.json`, alongside the frozen
//! pre-optimization numbers (`baseline`) so the speedup is auditable from
//! the committed files. For the ctrl file: `baseline` is the gate with no
//! controller, `current` the same gate with admission control deciding
//! every request. For the coded file: `baseline` is the plain replica
//! model predicting coded quantiles as if no stripe join existed,
//! `current` the fork-join [`CodedReadModel`] on the same seeded runs. The
//! gate's throughput rows are printed only; `BENCH_gate.json` keeps the
//! last comparison of the retired server, trigger, accept and read-path
//! variants as a historic record.
//!
//! Usage:
//!   cargo run --release -p cos-bench --bin perf_baseline
//!       full run; writes BENCH_inversion.json, BENCH_sweep.json,
//!       BENCH_ctrl.json, BENCH_coded.json, and BENCH_fleet.json
//!   cargo run --release -p cos-bench --bin perf_baseline -- --quick
//!       fewer iterations, prints only (CI smoke)
//!   cargo run --release -p cos-bench --bin perf_baseline -- --quick --check BENCH_inversion.json
//!       re-measures and exits nonzero if any time regressed more than
//!       2x, or any inversion count rose at all, against the committed
//!       `current` section (both the named file and BENCH_coded.json),
//!       if the obs hot path or the per-request admission decision blows
//!       its absolute budget, if the gate's warm window blows its
//!       syscalls-per-request or allocations-per-request budget, if any
//!       coded-read cell breaks its bracket / accuracy / inversion-cost
//!       budget, if the batched fleet refit fails its speedup floor (full
//!       runs on boxes with >= 4 workers only), or if a ~5% delta publish
//!       ships more than a quarter of the full-state bytes
//!
//! Full runs additionally write `BENCH_fleet.json`: full-fleet refit
//! wall-time (sequential vs batched over `cos-par`) and warm snapshot
//! read latency at 64/512/2048 devices x 16/128 tenants, plus the
//! delta-vs-full publication byte accounting.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use cos_bench::json::{self, Value};
use cos_distr::{Degenerate, Gamma};
use cos_gate::{Gate, GateConfig};
use cos_model::{
    model_at_rate, CodedReadModel, CodingSpec, DeviceParams, FrontendParams, ModelVariant,
    SystemModel, SystemParams,
};
use cos_numeric::{quantile_from_lst, CountingLaplaceFn, InversionConfig};
use cos_queueing::{from_distribution, from_dyn_service};
use cos_serve::{
    CalibrationBase, OpClass, Query, ServeConfig, ServiceHandle, SlaService, TelemetryEvent,
    TenantId,
};
use cos_stats::exact_percentile;
use cos_storesim::{
    run_simulation, ClusterConfig, CodingConfig, DiskOpKind, MetricsConfig, RedundancyPolicy,
};
use cos_workload::TraceEvent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Count every heap allocation made by tracked threads (the reactors opt
/// in), so the gate section can report allocations per served request.
/// Untracked threads pay one thread-local read per allocation — noise
/// next to the allocation itself.
#[global_allocator]
static COUNTING_ALLOC: cos_par::alloc_probe::CountingAlloc = cos_par::alloc_probe::CountingAlloc;

fn s1_params(rate: f64) -> SystemParams {
    let per = rate / 4.0;
    SystemParams {
        frontend: FrontendParams {
            arrival_rate: rate,
            processes: 3,
            parse_fe: from_distribution(Degenerate::new(0.0003)),
        },
        devices: (0..4)
            .map(|_| DeviceParams {
                arrival_rate: per,
                data_read_rate: per * 1.1,
                miss_index: 0.3,
                miss_meta: 0.25,
                miss_data: 0.4,
                index_disk: from_distribution(Gamma::new(3.0, 250.0)),
                meta_disk: from_distribution(Gamma::new(2.5, 312.5)),
                data_disk: from_distribution(Gamma::new(3.5, 245.0)),
                parse_be: from_distribution(Degenerate::new(0.0005)),
                processes: 1,
            })
            .collect(),
    }
}

fn s16_params(rate: f64) -> SystemParams {
    let mut p = s1_params(rate);
    for d in &mut p.devices {
        d.miss_index = 0.10;
        d.miss_meta = 0.08;
        d.miss_data = 0.18;
        d.processes = 16;
    }
    p
}

fn time_it<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / iters as f64 * 1e6 // us/iter
}

/// Pre-optimization numbers (main branch: scalar closure inversion path,
/// 80-step bisection quantile, serial sweeps), measured with the full
/// iteration counts on this container.
fn baseline_inversion() -> Vec<(&'static str, f64)> {
    vec![
        ("composite_cdf_s1_us", 534.87),
        ("composite_cdf_s16_us", 1166.62),
        ("quantile_inversions", 39.0),
        ("quantile_us", 3398.46),
        ("latency_percentile_s1_us", 35301.96),
    ]
}

fn baseline_sweep() -> Vec<(&'static str, f64)> {
    vec![("sweep_serial_48x3_us", 78672.4)]
}

fn measure_inversion(quick: bool) -> Vec<(&'static str, f64)> {
    let k = if quick { 10 } else { 1 };
    let s1 = SystemModel::new(&s1_params(120.0), ModelVariant::Full).unwrap();
    let s16 = SystemModel::new(&s16_params(400.0), ModelVariant::Full).unwrap();

    let cdf_s1 = time_it((200 / k).max(1), || s1.fraction_meeting_sla(0.05));
    let cdf_s16 = time_it((50 / k).max(1), || s16.fraction_meeting_sla(0.05));

    // Quantile inversion count: with the batch path every inversion is one
    // eval_batch call, so batch_calls == inversions exactly.
    let cfg = InversionConfig::default();
    let be = s1.devices()[0].backend();
    let lst = |s| be.sojourn_lst(s);
    let counting = CountingLaplaceFn::new(&lst);
    quantile_from_lst(&counting, 0.95, 0.05, &cfg).unwrap();
    let inversions = counting.batch_calls();

    let quantile_us = time_it((20 / k).max(1), || {
        quantile_from_lst(&lst, 0.95, 0.05, &cfg)
    });
    let percentile_us = time_it((20 / k).max(1), || s1.latency_percentile(0.95));

    vec![
        ("composite_cdf_s1_us", cdf_s1),
        ("composite_cdf_s16_us", cdf_s16),
        ("quantile_inversions", inversions as f64),
        ("quantile_us", quantile_us),
        ("latency_percentile_s1_us", percentile_us),
    ]
}

fn sweep_grid(template: &SystemParams, rates: &[f64], slas: &[f64], workers: usize) -> usize {
    let points = cos_par::par_map(workers, rates, |_, &r| {
        model_at_rate(template, ModelVariant::Full, r)
            .ok()
            .map(|m| {
                slas.iter()
                    .map(|&s| m.fraction_meeting_sla(s))
                    .collect::<Vec<_>>()
            })
    });
    points.len()
}

fn measure_sweep(quick: bool) -> Vec<(&'static str, f64)> {
    let iters = if quick { 1 } else { 3 };
    let template = s1_params(120.0);
    let rates: Vec<f64> = (1..=48).map(|i| 10.0 + i as f64 * 6.0).collect();
    let slas = [0.01, 0.05, 0.10];
    let workers = cos_par::default_workers();
    let serial = time_it(iters, || sweep_grid(&template, &rates, &slas, 1));
    let parallel = time_it(iters, || sweep_grid(&template, &rates, &slas, workers));
    vec![
        ("sweep_serial_48x3_us", serial),
        ("sweep_parallel_48x3_us", parallel),
        ("sweep_workers", workers as f64),
    ]
}

/// Overhead of the observability hot path: one `Hist::record_ns` call,
/// averaged over a large loop of varied values (so the bucket index and
/// the branch on the linear/log split are both exercised). The budget is
/// 100 ns — three relaxed atomic adds must stay invisible next to any
/// measured operation.
fn measure_obs(quick: bool) -> Vec<(&'static str, f64)> {
    let iters: u64 = if quick { 400_000 } else { 4_000_000 };
    let hist = cos_obs::Hist::new();
    let start = Instant::now();
    for i in 0..iters {
        // Knuth-hash the counter into a spread of magnitudes.
        hist.record_ns(i.wrapping_mul(2654435761) >> (i % 32));
    }
    let per_record_ns = start.elapsed().as_secs_f64() / iters as f64 * 1e9;
    std::hint::black_box(hist.count());
    vec![("obs_record_ns", per_record_ns)]
}

/// The absolute obs-overhead budget enforced in `--check` mode.
const OBS_RECORD_BUDGET_NS: f64 = 100.0;

/// Hard ceiling on reactor syscalls per served request over the warm
/// 16-client window (epoll waits + interest updates + reads + writev
/// flushes + accepts, summed across reactor threads), enforced in
/// `--check` mode. Pipelined batches of 32 keep-alive requests cost
/// roughly one read and one vectored flush each, so the steady state
/// sits far below one syscall per request; the budget is a regression
/// tripwire, not a noise band.
const GATE_SYSCALLS_PER_REQ_BUDGET: f64 = 2.0;

/// Hard ceiling on heap allocations per served request on the reactor
/// threads over the same window. The transport allocates nothing in
/// steady state (pooled buffers, retained parser storage, alloc-free
/// head serialization); what remains is the inline route dispatch
/// building its JSON response.
const GATE_ALLOCS_PER_REQ_BUDGET: f64 = 64.0;

// --- gate throughput -------------------------------------------------------

fn gate_base() -> CalibrationBase {
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

/// A deterministic 20 s calibration stream at `rate` req/s per device.
fn gate_events(rate: f64) -> Vec<TelemetryEvent> {
    let mut out = Vec::new();
    let mut i = 0u64;
    let mut t = 0.0;
    while t < 20.0 {
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
                latency: if i % 10 < 3 { 0.030 } else { 0.004 },
                device: d,
            });
        }
        t += 1.0 / rate;
    }
    out
}

fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Consumes `n` complete HTTP responses off a keep-alive stream, asserting
/// every status is 200.
fn read_responses(stream: &mut TcpStream, n: usize, buf: &mut Vec<u8>) {
    let mut chunk = [0u8; 16 * 1024];
    let mut seen = 0;
    while seen < n {
        while let Some(head_end) = find_double_crlf(buf) {
            let head = std::str::from_utf8(&buf[..head_end]).expect("ASCII head");
            let body_len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .map(|v| v.trim().parse().expect("content length"))
                .unwrap_or(0);
            let total = head_end + body_len;
            if buf.len() < total {
                break;
            }
            assert!(head.starts_with("HTTP/1.1 200"), "gate answered: {head}");
            buf.drain(..total);
            seen += 1;
            if seen == n {
                return;
            }
        }
        let got = stream.read(&mut chunk).expect("read responses");
        assert!(got > 0, "EOF mid-benchmark");
        buf.extend_from_slice(&chunk[..got]);
    }
}

/// One bench client: pipelines its GET targets in batches over a single
/// keep-alive connection, so socket and parse overhead amortize and the
/// measured difference is dominated by the service path under test.
fn hammer(addr: SocketAddr, targets: &[String]) {
    let mut stream = TcpStream::connect(addr).expect("connect bench client");
    let _ = stream.set_nodelay(true);
    let mut buf = Vec::new();
    const BATCH: usize = 32;
    for chunk in targets.chunks(BATCH) {
        let mut out = String::new();
        for t in chunk {
            out.push_str("GET ");
            out.push_str(t);
            out.push_str(" HTTP/1.1\r\nHost: bench\r\n\r\n");
        }
        stream.write_all(out.as_bytes()).expect("write batch");
        read_responses(&mut stream, chunk.len(), &mut buf);
    }
}

/// Total requests per second across concurrent clients, wall-clock from a
/// shared start barrier to the last client finishing.
fn throughput(addr: SocketAddr, per_client_targets: Vec<Vec<String>>) -> f64 {
    let clients = per_client_targets.len();
    let total: usize = per_client_targets.iter().map(|t| t.len()).sum();
    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = per_client_targets
        .into_iter()
        .map(|targets| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                hammer(addr, &targets);
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    for h in handles {
        h.join().expect("bench client thread");
    }
    total as f64 / start.elapsed().as_secs_f64()
}

/// Measures the gate's warm and cold multi-client throughput, scaling warm
/// load to 64 clients (and 256 when `include_256c`).
fn bench_gate(handle: &ServiceHandle, quick: bool, include_256c: bool) -> Vec<(&'static str, f64)> {
    let warm_n = if quick { 200 } else { 1500 };
    let cold_n = if quick { 60 } else { 300 };
    let config = GateConfig::builder()
        .max_connections(512)
        .build()
        .expect("gate config");
    let gate = Gate::bind("127.0.0.1:0", handle.client(), config).expect("bind gate");
    let addr = gate.local_addr();

    let warm_target = "/v1/attainment?sla=0.05".to_string();
    // Prewarm the hot key so the warm phases measure pure cache reads.
    throughput(addr, vec![vec![warm_target.clone()]]);
    let warm = |clients: usize| {
        throughput(
            addr,
            (0..clients)
                .map(|_| vec![warm_target.clone(); warm_n])
                .collect(),
        )
    };
    let warm_1 = warm(1);
    let warm_4 = warm(4);
    // Cost the warm 16-client window in syscalls and reactor-thread heap
    // allocations per served request.
    let (sys_before, allocs_before) = (gate.syscalls(), cos_par::alloc_probe::tracked_allocs());
    let warm_16 = warm(16);
    let requests = (16 * warm_n) as f64;
    let syscalls_per_req = gate.syscalls().since(&sys_before).total() as f64 / requests;
    let allocs_per_req = (cos_par::alloc_probe::tracked_allocs() - allocs_before) as f64 / requests;
    let warm_64 = warm(64);
    let warm_256 = include_256c.then(|| warm(256));

    let mut cold_block = 0usize;
    let mut cold = |clients: usize| {
        let targets = (0..clients)
            .map(|c| {
                let slot = cold_block * 16 + c;
                (0..cold_n)
                    .map(|i| {
                        format!(
                            "/v1/attainment?sla={:.4}",
                            2.0 + slot as f64 * 0.06 + i as f64 * 1e-4
                        )
                    })
                    .collect()
            })
            .collect();
        cold_block += 1;
        throughput(addr, targets)
    };
    let cold_1 = cold(1);
    let cold_4 = cold(4);
    gate.shutdown();
    let mut rows = vec![
        ("warm_1c_rps", warm_1),
        ("warm_4c_rps", warm_4),
        ("warm_16c_rps", warm_16),
        ("warm_64c_rps", warm_64),
    ];
    if let Some(w) = warm_256 {
        rows.push(("warm_256c_rps", w));
    }
    rows.push(("cold_1c_rps", cold_1));
    rows.push(("cold_4c_rps", cold_4));
    rows.push(("syscalls_per_req", syscalls_per_req));
    rows.push(("allocs_per_req", allocs_per_req));
    rows.push(("reactor_workers", cos_par::default_workers() as f64));
    rows
}

/// Hard ceiling on the per-request admission decision enforced in
/// `--check` mode: [`cos_ctrl::Controller::decide`] sits on every gate
/// request, so it must stay under a microsecond — an atomic load plus (on
/// the partial-shed path) one error-diffusion `fetch_update`.
const CTRL_DECIDE_BUDGET_NS: f64 = 1000.0;

/// Admission-controller cost: the bare per-request decision latency (fast
/// path at zero shed, and the error-diffusion accumulator path at a
/// partial shed), plus same-run warm gate throughput with the controller
/// off (`baseline`) versus on at zero shed (`current`) — the tax every
/// *admitted* request pays.
#[allow(clippy::type_complexity)]
fn measure_ctrl(quick: bool) -> (Vec<(&'static str, f64)>, Vec<(&'static str, f64)>) {
    use cos_ctrl::{Controller, CtrlConfig, SlaClass};

    let mut service = SlaService::new(gate_base(), ServeConfig::default());
    for ev in gate_events(40.0) {
        service.ingest(ev);
    }
    service.refit_now();
    let handle = service.spawn();
    let ctrl = Arc::new(
        Controller::new(handle.client().reader(), CtrlConfig::default()).expect("valid policy"),
    );

    let iters: u64 = if quick { 200_000 } else { 2_000_000 };
    let decide_at = |shed: f64| {
        ctrl.force_shed(shed);
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(
                ctrl.decide(std::hint::black_box(SlaClass::Standard))
                    .is_ok(),
            );
        }
        start.elapsed().as_secs_f64() / iters as f64 * 1e9
    };
    let decide_zero_ns = decide_at(0.0);
    let decide_shed_ns = decide_at(0.3);
    ctrl.force_shed(0.0);

    let warm_n = if quick { 200 } else { 1500 };
    let bench = |controller: Option<Arc<cos_ctrl::Controller>>| {
        let mut builder = GateConfig::builder();
        if let Some(c) = controller {
            builder = builder.controller(c);
        }
        let gate = Gate::bind(
            "127.0.0.1:0",
            handle.client(),
            builder.build().expect("config"),
        )
        .expect("bind gate");
        let addr = gate.local_addr();
        let target = "/v1/attainment?sla=0.05".to_string();
        // Prewarm the hot key so both phases measure pure cache reads.
        throughput(addr, vec![vec![target.clone()]]);
        let rps = throughput(addr, (0..4).map(|_| vec![target.clone(); warm_n]).collect());
        gate.shutdown();
        rps
    };
    let off_rps = bench(None);
    let on_rps = bench(Some(Arc::clone(&ctrl)));

    (
        vec![("warm_4c_rps", off_rps)],
        vec![
            ("decide_zero_ns", decide_zero_ns),
            ("decide_shed_ns", decide_shed_ns),
            ("warm_4c_rps", on_rps),
        ],
    )
}

/// Multi-client loopback throughput of the gate against one calibrated
/// service, with its warm window's syscall and allocation cost.
fn measure_gate(quick: bool) -> Vec<(&'static str, f64)> {
    let mut service = SlaService::new(gate_base(), ServeConfig::default());
    for ev in gate_events(40.0) {
        service.ingest(ev);
    }
    service.refit_now();
    let handle = service.spawn();
    bench_gate(&handle, quick, !quick)
}

// --- coded-read accuracy ---------------------------------------------------

/// Hard ceiling on one coded-percentile inversion enforced in `--check`
/// mode: `CodedReadModel::latency_percentile` sits behind the gate's
/// `/v1/percentile?n=&k=` endpoint, so an uncached miss must stay
/// interactive even for the widest committed stripe.
const CODED_PERCENTILE_BUDGET_US: f64 = 50_000.0;

/// Absolute point-accuracy ceiling per checked quantile in `--check`
/// mode. The coded sweep is seed-deterministic, so this is the same band
/// the integration test enforces — not a noise allowance.
const CODED_REL_ERR_BUDGET: f64 = 0.35;

/// Poisson trace of single-chunk objects (one data op per coded sub).
fn coded_trace(rate: f64, duration: f64, chunk: u32, seed: u64) -> Vec<TraceEvent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    while t < duration {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        out.push(TraceEvent {
            at: t,
            object: rng.gen_range(0..100_000),
            size: chunk / 2,
        });
    }
    out
}

/// One Fig. 8-style coded cell, mirroring `tests/model_vs_simulator.rs`
/// (same seeds, rate, and fit rule, so the committed numbers and the test
/// assertions describe the same runs). Returns the naive replica-model
/// rows (`baseline`: the stripe join ignored entirely) and the fork-join
/// rows (`current`), both keyed `coded_{n}_{k}_{policy}_*`, plus the
/// fitted coded model for the timing probe.
#[allow(clippy::type_complexity)]
fn run_coded_cell(
    n: usize,
    k: usize,
    eager: bool,
    seed: u64,
) -> (Vec<(String, f64)>, Vec<(String, f64)>, CodedReadModel) {
    let logical_rate = 30.0;
    let duration = 150.0;
    let policy = if eager {
        RedundancyPolicy::Eager
    } else {
        RedundancyPolicy::KOnly
    };
    let cfg = ClusterConfig {
        devices: n,
        coding: Some(CodingConfig { n, k, policy }),
        ..ClusterConfig::paper_s1()
    };
    let trace = coded_trace(logical_rate, duration, cfg.chunk_size, seed);
    let metrics = run_simulation(
        cfg.clone(),
        MetricsConfig {
            slas: vec![0.050],
            windows: vec![(duration * 0.2, duration, logical_rate)],
            collect_raw: true,
            op_sample_stride: 0,
        },
        trace,
    );
    // The coded fit (DESIGN §13): per-device request rate = the measured
    // data-op rate, so cancelled eager stragglers (routed, but dead before
    // their data read) drop out of the marginal's load.
    let measured_span = duration * 0.8;
    let devices = (0..cfg.devices)
        .map(|d| {
            let routed = metrics.window_device_requests(0, d) as f64 / measured_span;
            let data = metrics.window_device_data_ops(0, d) as f64 / measured_span;
            let rate = data.min(routed);
            DeviceParams {
                arrival_rate: rate,
                data_read_rate: rate,
                miss_index: metrics.devices[d]
                    .miss_ratio(DiskOpKind::Index)
                    .unwrap_or(0.0),
                miss_meta: metrics.devices[d]
                    .miss_ratio(DiskOpKind::Meta)
                    .unwrap_or(0.0),
                miss_data: metrics.devices[d]
                    .miss_ratio(DiskOpKind::Data)
                    .unwrap_or(0.0),
                index_disk: from_dyn_service(cfg.disk.index.clone()),
                meta_disk: from_dyn_service(cfg.disk.meta.clone()),
                data_disk: from_dyn_service(cfg.disk.data.clone()),
                parse_be: from_distribution(Degenerate::new(0.0005)),
                processes: cfg.processes_per_device,
            }
        })
        .collect();
    let params = SystemParams {
        frontend: FrontendParams {
            arrival_rate: logical_rate,
            processes: cfg.frontend_processes,
            parse_fe: from_distribution(Degenerate::new(0.0003)),
        },
        devices,
    };
    let spec = if eager {
        CodingSpec::eager(n, k)
    } else {
        // K-only launches exactly the k needed chunks: a k-of-k maximum.
        CodingSpec::k_only(k)
    };
    let coded = CodedReadModel::new(&params, spec).expect("coded cells run below saturation");
    let naive = SystemModel::new(&params, ModelVariant::Full).expect("same marginals");

    let mut latencies: Vec<f64> = metrics
        .raw()
        .iter()
        .filter(|r| r.arrival >= duration * 0.2)
        .map(|r| r.latency)
        .collect();
    let prefix = format!("coded_{n}_{k}_{}", if eager { "eager" } else { "konly" });
    let mut base_rows = Vec::new();
    let mut cur_rows = Vec::new();
    let mut bracket_ok = true;
    for q in [0.50, 0.95, 0.99] {
        let observed = exact_percentile(&mut latencies, q);
        let bounds = coded.bounds(observed);
        // Same slack as the test: the marginals are fitted to measured
        // rates, not ground truth, so the anchors get ±0.05 CDF noise room.
        bracket_ok &= bounds.pessimistic <= q + 0.05 && bounds.optimistic >= q - 0.05;
        if q < 0.99 {
            let tag = if q == 0.50 { "p50" } else { "p95" };
            let rel = |predicted: f64| (predicted - observed).abs() / observed;
            let coded_pred = coded.latency_percentile(q).expect("inversion in budget");
            let naive_pred = naive.latency_percentile(q).expect("inversion in budget");
            base_rows.push((format!("{prefix}_{tag}_rel_err"), rel(naive_pred)));
            cur_rows.push((format!("{prefix}_{tag}_rel_err"), rel(coded_pred)));
        }
    }
    cur_rows.push((format!("{prefix}_bracket_ok"), f64::from(bracket_ok)));
    (base_rows, cur_rows, coded)
}

/// Coded-read validation sweep: `(n, k) ∈ {(4,2), (6,4), (9,6)}` under
/// both redundancy policies, each cell one seed-deterministic simulation
/// scored against the fork-join model (`current`) and the join-blind
/// replica model (`baseline`), plus the cost of one coded quantile
/// inversion on the widest stripe. The simulations are short but fixed:
/// quick mode only trims the timing loop, never the accuracy cells, so
/// `--check` always sees the same numbers the committed file was built
/// from.
#[allow(clippy::type_complexity)]
fn measure_coded(quick: bool) -> (Vec<(String, f64)>, Vec<(String, f64)>) {
    let cells: Vec<(usize, usize, bool)> = [(4, 2), (6, 4), (9, 6)]
        .into_iter()
        .flat_map(|(n, k)| [false, true].map(|eager| (n, k, eager)))
        .collect();
    let mut baseline = Vec::new();
    let mut current = Vec::new();
    let mut widest = None;
    for (i, &(n, k, eager)) in cells.iter().enumerate() {
        let (base_rows, cur_rows, model) = run_coded_cell(n, k, eager, 0xC0DE + i as u64);
        baseline.extend(base_rows);
        current.extend(cur_rows);
        widest = Some(model);
    }
    // Timing probe on the last (widest, n = 9) cell: the O(n²) k-of-n
    // combine makes it the most expensive inversion the gate can serve.
    let model = widest.expect("six cells ran");
    let iters = if quick { 2 } else { 8 };
    let percentile_us = time_it(iters, || model.latency_percentile(0.95));
    current.push(("coded_percentile_us".to_string(), percentile_us));
    (baseline, current)
}

// --- fleet-scale multi-tenant refit + snapshot reads ----------------------

/// Minimum batched-over-sequential refit speedup at the largest fleet cell
/// (2048 devices, 16 tenants), enforced in `--check` mode — but only when
/// the run measured that cell (full mode) *and* the container actually has
/// parallelism to exploit (`cos_par::default_workers() >= 4`); a 1-CPU CI
/// box cannot speed anything up.
const FLEET_REFIT_MIN_SPEEDUP: f64 = 2.0;

/// Maximum `delta_bytes / full_bytes` for a delta publish touching ~5% of
/// the fleet, enforced unconditionally in `--check` mode: republishing the
/// whole fleet when 6 of 128 tenants changed would be a protocol
/// regression, not noise.
const FLEET_DELTA_MAX_RATIO: f64 = 0.25;

/// Calibration base for a `devices`-wide tenant shard.
fn fleet_base(devices: usize) -> CalibrationBase {
    CalibrationBase {
        devices,
        ..gate_base()
    }
}

/// Fleet cells: total devices spread over per-tenant shards, a sequential
/// (`workers = 1`) versus batched (`workers = default`) full-fleet refit
/// wall-time per cell, warm snapshot-read latency round-robining tenants,
/// and one delta-publication cell (6 of 128 tenants touched). `baseline`
/// carries the sequential refits, `current` the batched ones plus the read
/// and delta metrics.
#[allow(clippy::type_complexity)]
fn measure_fleet(quick: bool) -> (Vec<(String, f64)>, Vec<(String, f64)>) {
    use cos_storesim::{FleetConfig, FleetScenario};
    let workers = cos_par::default_workers();
    let cells: &[(usize, usize)] = if quick {
        &[(64, 16)]
    } else {
        &[
            (64, 16),
            (512, 16),
            (2048, 16),
            (64, 128),
            (512, 128),
            (2048, 128),
        ]
    };
    let mut baseline = Vec::new();
    let mut current = Vec::new();
    current.push(("fleet_workers".to_string(), workers as f64));

    let build = |total: usize, tenants: usize| {
        let per_tenant = (total / tenants).max(1);
        let scenario = FleetScenario::new(FleetConfig {
            tenants,
            devices: per_tenant,
            rate_per_device: 40.0,
            duration: 1.5,
            seed: 0xF1EE,
        })
        .expect("valid fleet cell");
        // Manual cadence: the refit being timed must be the only one.
        let config = ServeConfig::builder()
            .refit_interval(1e9)
            .build()
            .expect("valid config");
        let mut service = SlaService::new(fleet_base(per_tenant), config);
        for (tenant, ev) in scenario.tagged_stream() {
            service.ingest_for(&tenant, ev);
        }
        (service, scenario)
    };

    for &(total, tenants) in cells {
        let (mut service, scenario) = build(total, tenants);
        let start = Instant::now();
        service.refit_fleet(1);
        let seq_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        service.refit_fleet(workers);
        let par_ms = start.elapsed().as_secs_f64() * 1e3;
        baseline.push((format!("fleet_refit_seq_ms_d{total}_t{tenants}"), seq_ms));
        current.push((format!("fleet_refit_par_ms_d{total}_t{tenants}"), par_ms));
        if (total, tenants) == (2048, 16) {
            current.push(("fleet_refit_speedup_d2048_t16".to_string(), seq_ms / par_ms));
        }

        // Warm lock-free reads, round-robining the tenants so the per-
        // tenant cache keys all stay live.
        let reader = service.reader();
        let ids: Vec<TenantId> = (0..tenants).map(|i| scenario.tenant_id(i)).collect();
        let iters = if quick { 2_000 } else { 20_000 };
        let start = Instant::now();
        for i in 0..iters {
            let q = Query::tenant(ids[i % ids.len()].clone()).sla(0.05);
            std::hint::black_box(reader.attainment(&q).ok());
        }
        let read_us = start.elapsed().as_secs_f64() / iters as f64 * 1e6;
        current.push((format!("fleet_read_us_d{total}_t{tenants}"), read_us));
    }

    // Delta cell: 128 four-device tenants fully fitted, then fresh
    // telemetry for 6 of them (≈5% of fits) and one delta publish.
    let (mut service, scenario) = build(512, 128);
    service.refit_fleet(workers);
    for i in 0..6 {
        let tenant = scenario.tenant_id(i);
        for ev in scenario.events_for(i) {
            service.ingest_for(&tenant, ev);
        }
    }
    service.refit_now();
    let stats = service.last_publish_stats();
    current.push((
        "fleet_delta_republished".to_string(),
        stats.republished as f64,
    ));
    current.push(("fleet_delta_tenants".to_string(), stats.tenants as f64));
    current.push(("fleet_delta_bytes".to_string(), stats.delta_bytes as f64));
    current.push(("fleet_full_bytes".to_string(), stats.full_bytes as f64));
    current.push(("fleet_delta_ratio".to_string(), stats.delta_ratio()));
    (baseline, current)
}

/// Borrowed `(&str, f64)` view for the helpers that predate owned keys.
fn as_refs(rows: &[(String, f64)]) -> Vec<(&str, f64)> {
    rows.iter().map(|(k, v)| (k.as_str(), *v)).collect()
}

fn metric(vals: &[(&str, f64)], key: &str) -> f64 {
    vals.iter()
        .find(|(k, _)| *k == key)
        .map(|&(_, v)| v)
        .expect("known metric")
}

fn to_json(baseline: &[(&str, f64)], current: &[(&str, f64)]) -> Value {
    let section = |vals: &[(&str, f64)]| {
        json::object(vals.iter().map(|&(k, v)| (k, Value::Number(v))).collect())
    };
    json::object(vec![
        ("baseline", section(baseline)),
        ("current", section(current)),
    ])
}

fn print_metrics(label: &str, vals: &[(&str, f64)]) {
    for (k, v) in vals {
        println!("{label}.{k}: {v:.2}");
    }
}

/// Compares fresh measurements against the committed `current` section:
/// a time more than 2x slower fails the check, and an inversion count
/// (`*_inversions`) fails on any increase. Counts repeat exactly on every
/// machine, so only times get the 2x noise band.
fn check(file: &str, fresh: &[(&str, f64)]) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
    let doc = json::parse(&text)?;
    let committed = doc.field("current")?;
    let mut failures = Vec::new();
    for &(key, measured) in fresh {
        if key.ends_with("_workers") || key.ends_with("_rps") || key.ends_with("_per_req") {
            continue; // informational / machine-dependent; *_per_req rows
                      // have absolute budgets instead of the 2x band
        }
        let Some(expect) = committed.get(key).and_then(Value::as_f64) else {
            continue; // metric added after the file was generated
        };
        if key.ends_with("_inversions") {
            if measured > expect {
                failures.push(format!(
                    "{key}: measured {measured} > committed {expect} (counts repeat exactly)"
                ));
            }
        } else if expect > 0.0 && measured > 2.0 * expect {
            failures.push(format!(
                "{key}: measured {measured:.2} > 2x committed {expect:.2}"
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check_file = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let inv = measure_inversion(quick);
    let sweep = measure_sweep(quick);
    let obs = measure_obs(quick);
    let gate = measure_gate(quick);
    let (ctrl_off, ctrl_on) = measure_ctrl(quick);
    let (coded_base, coded_cur) = measure_coded(quick);
    let (fleet_base_rows, fleet_cur) = measure_fleet(quick);
    print_metrics("inversion", &inv);
    print_metrics("sweep", &sweep);
    print_metrics("obs", &obs);
    print_metrics("gate", &gate);
    print_metrics("ctrl.off", &ctrl_off);
    print_metrics("ctrl.on", &ctrl_on);
    print_metrics("coded.naive", &as_refs(&coded_base));
    print_metrics("coded.forkjoin", &as_refs(&coded_cur));
    print_metrics("fleet.sequential", &as_refs(&fleet_base_rows));
    print_metrics("fleet.batched", &as_refs(&fleet_cur));
    let ctrl_tax = metric(&ctrl_on, "warm_4c_rps") / metric(&ctrl_off, "warm_4c_rps");
    println!("ctrl.warm_4c_ratio (controller on/off): {ctrl_tax:.2}x");

    if let Some(file) = check_file {
        // Absolute per-request budgets over the gate's warm 16-client
        // window: syscall count and reactor-thread heap allocations.
        let syscalls_per_req = metric(&gate, "syscalls_per_req");
        if syscalls_per_req >= GATE_SYSCALLS_PER_REQ_BUDGET {
            eprintln!(
                "check: FAILED: syscalls_per_req {syscalls_per_req:.3} >= \
                 {GATE_SYSCALLS_PER_REQ_BUDGET} budget"
            );
            std::process::exit(1);
        }
        let allocs_per_req = metric(&gate, "allocs_per_req");
        if allocs_per_req >= GATE_ALLOCS_PER_REQ_BUDGET {
            eprintln!(
                "check: FAILED: allocs_per_req {allocs_per_req:.2} >= \
                 {GATE_ALLOCS_PER_REQ_BUDGET} budget"
            );
            std::process::exit(1);
        }
        println!(
            "check: gate warm window costs {syscalls_per_req:.3} syscalls and \
             {allocs_per_req:.2} allocations per request (budgets \
             {GATE_SYSCALLS_PER_REQ_BUDGET} / {GATE_ALLOCS_PER_REQ_BUDGET})"
        );
        // Absolute budget first: the obs hot path has a hard ceiling, not
        // a relative band (the committed JSON carries no obs section).
        let record_ns = obs[0].1;
        if record_ns >= OBS_RECORD_BUDGET_NS {
            eprintln!(
                "check: FAILED: obs_record_ns {record_ns:.1} >= {OBS_RECORD_BUDGET_NS} ns budget"
            );
            std::process::exit(1);
        }
        println!("check: obs_record_ns {record_ns:.1} within the {OBS_RECORD_BUDGET_NS} ns budget");
        // Per-request admission budget: both decide paths are absolute
        // ceilings, like the obs hot path.
        for key in ["decide_zero_ns", "decide_shed_ns"] {
            let ns = metric(&ctrl_on, key);
            if ns >= CTRL_DECIDE_BUDGET_NS {
                eprintln!("check: FAILED: {key} {ns:.1} >= {CTRL_DECIDE_BUDGET_NS} ns budget");
                std::process::exit(1);
            }
            println!("check: {key} {ns:.1} within the {CTRL_DECIDE_BUDGET_NS} ns budget");
        }
        // Coded-read budgets are absolute: the sweep is seed-deterministic,
        // so a broken bracket or an out-of-band point prediction is a model
        // regression, never measurement noise.
        for (key, v) in &coded_cur {
            if key.ends_with("_bracket_ok") && *v != 1.0 {
                eprintln!("check: FAILED: {key} = {v} (bounds no longer bracket the sim CDF)");
                std::process::exit(1);
            }
            if key.ends_with("_rel_err") && *v >= CODED_REL_ERR_BUDGET {
                eprintln!("check: FAILED: {key} {v:.3} >= {CODED_REL_ERR_BUDGET} budget");
                std::process::exit(1);
            }
        }
        let coded_refs = as_refs(&coded_cur);
        let coded_inv_us = metric(&coded_refs, "coded_percentile_us");
        if coded_inv_us >= CODED_PERCENTILE_BUDGET_US {
            eprintln!(
                "check: FAILED: coded_percentile_us {coded_inv_us:.1} >= \
                 {CODED_PERCENTILE_BUDGET_US} us budget"
            );
            std::process::exit(1);
        }
        println!(
            "check: coded bounds bracket all 6 cells, worst inversion {coded_inv_us:.1} us \
             within the {CODED_PERCENTILE_BUDGET_US} us budget"
        );
        // Fleet budgets: batched refit speedup only when the run measured
        // the largest cell *and* the box has real parallelism; the delta
        // ratio is a protocol property and holds on any machine.
        let fleet_refs = as_refs(&fleet_cur);
        let fleet_workers = metric(&fleet_refs, "fleet_workers");
        if let Some(&(_, speedup)) = fleet_refs
            .iter()
            .find(|(k, _)| *k == "fleet_refit_speedup_d2048_t16")
        {
            if fleet_workers >= 4.0 && speedup < FLEET_REFIT_MIN_SPEEDUP {
                eprintln!(
                    "check: FAILED: fleet refit speedup {speedup:.2}x at 2048 devices \
                     (need >= {FLEET_REFIT_MIN_SPEEDUP}x with {fleet_workers} workers)"
                );
                std::process::exit(1);
            }
            println!(
                "check: fleet refit {speedup:.2}x sequential at 2048 devices \
                 ({fleet_workers} workers)"
            );
        }
        let delta_ratio = metric(&fleet_refs, "fleet_delta_ratio");
        if delta_ratio > FLEET_DELTA_MAX_RATIO {
            eprintln!(
                "check: FAILED: fleet delta publish {delta_ratio:.3} of full-state bytes \
                 (budget <= {FLEET_DELTA_MAX_RATIO}) with ~5% of fits changed"
            );
            std::process::exit(1);
        }
        println!(
            "check: fleet delta publish ships {delta_ratio:.3} of full-state bytes \
             (<= {FLEET_DELTA_MAX_RATIO})"
        );
        match check("BENCH_coded.json", &coded_refs) {
            Ok(()) => println!("check: ok (no metric regressed past 2x of BENCH_coded.json)"),
            Err(msg) => {
                eprintln!("check: FAILED against BENCH_coded.json: {msg}");
                std::process::exit(1);
            }
        }
        let fresh: Vec<(&str, f64)> = inv.iter().chain(sweep.iter()).copied().collect();
        match check(&file, &fresh) {
            Ok(()) => println!(
                "check: ok (no time regressed past 2x and no inversion count rose in {file})"
            ),
            Err(msg) => {
                eprintln!("check: FAILED against {file}: {msg}");
                std::process::exit(1);
            }
        }
        return;
    }

    if !quick {
        std::fs::write(
            "BENCH_inversion.json",
            to_json(&baseline_inversion(), &inv).to_string_pretty(),
        )
        .expect("write BENCH_inversion.json");
        std::fs::write(
            "BENCH_sweep.json",
            to_json(&baseline_sweep(), &sweep).to_string_pretty(),
        )
        .expect("write BENCH_sweep.json");
        std::fs::write(
            "BENCH_ctrl.json",
            to_json(&ctrl_off, &ctrl_on).to_string_pretty(),
        )
        .expect("write BENCH_ctrl.json");
        std::fs::write(
            "BENCH_coded.json",
            to_json(&as_refs(&coded_base), &as_refs(&coded_cur)).to_string_pretty(),
        )
        .expect("write BENCH_coded.json");
        std::fs::write(
            "BENCH_fleet.json",
            to_json(&as_refs(&fleet_base_rows), &as_refs(&fleet_cur)).to_string_pretty(),
        )
        .expect("write BENCH_fleet.json");
        println!(
            "wrote BENCH_inversion.json, BENCH_sweep.json, BENCH_ctrl.json, BENCH_coded.json, \
             BENCH_fleet.json"
        );
    }
}
