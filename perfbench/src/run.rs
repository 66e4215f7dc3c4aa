//! The HTTP run: slices of fresh set-ups, catch-up telemetry, and the
//! workload's closed-loop window over loopback HTTP; then the answer check
//! and the workload self-checks.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cos_gate::json::{self, Value};
use cos_serve::{CacheStats, FleetState};

use crate::check::{Answer, Checker};
use crate::inputs::{
    Fnv, Get, Inputs, Post, Question, Workload, EXTEND_UNTIL_WINDOWS, QUIET_STEAL_PCT, SLICES_KEPT,
    SLICES_MAX, SLICES_RUN,
};
use crate::stack::Stack;
use crate::sys;
use crate::trace::{self, Span};

/// One end-to-end or per-layer metric: `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

/// One answered GET.
#[derive(Debug, Clone, Copy)]
struct ReadRec<'a> {
    /// What was sent.
    pub get: &'a Get,
    /// HTTP status.
    pub status: u16,
    /// Index of the fleet publication current when the request was sent.
    pub fleet: u32,
    /// Digest of the (reduced) response body.
    pub digest: u64,
    /// Client round trip.
    pub ns: u64,
    /// Slice the request belongs to.
    pub slice: u8,
    /// Whether the request was inside the slice's share of the window.
    pub window: bool,
}

/// One answered telemetry POST.
#[derive(Debug, Clone, Copy)]
struct WriteRec<'a> {
    /// What was sent.
    pub post: &'a Post,
    /// HTTP status.
    pub status: u16,
    /// Whether the fleet's publish generation moved during the request,
    /// i.e. its flush ran a refit.
    pub refit: bool,
    /// Digest of the response body.
    pub digest: u64,
    /// Client round trip.
    pub ns: u64,
    /// Slice the request belongs to.
    pub slice: u8,
    /// Whether the request was inside the slice's share of the window.
    pub window: bool,
}

/// Every request a run sent, with what came back.
struct Recorder<'a> {
    /// Answered GETs in send order.
    pub reads: Vec<ReadRec<'a>>,
    /// Answered POSTs in send order.
    pub writes: Vec<WriteRec<'a>>,
    /// Where each distinct (reduced) response body sits in `arena`, by
    /// digest.
    bodies: HashMap<u64, (usize, usize)>,
    /// One copy of every distinct body, back to back.
    arena: Vec<u8>,
    /// The fleet as published at each slice's start and after every refit.
    pub fleets: Vec<Arc<FleetState>>,
    /// Client-side request spans, when the run is traced.
    pub spans: Option<Vec<Span>>,
    scratch: Vec<u8>,
    slice: u8,
    window: bool,
}

impl<'a> Recorder<'a> {
    /// An empty recorder with room for `reads` GETs and `writes` POSTs
    /// and that many distinct bodies, its pages touched so that recording
    /// does not grow the RSS.
    fn new(inputs: &'a Inputs, reads: usize, writes: usize, traced: bool) -> Recorder<'a> {
        let distinct = match inputs.workload {
            Workload::WhatifCold => reads,
            _ => 1 << 14,
        };
        let mut bodies = HashMap::with_capacity(distinct);
        for i in 0..distinct as u64 {
            bodies.insert(i, (0, 0));
        }
        bodies.clear();
        let mut rec = Recorder {
            reads: Vec::with_capacity(reads),
            writes: Vec::with_capacity(writes),
            bodies,
            arena: Vec::with_capacity(distinct * 256),
            fleets: Vec::new(),
            spans: traced.then(|| Vec::with_capacity(reads + writes)),
            scratch: Vec::with_capacity(1 << 12),
            slice: 0,
            window: false,
        };
        pretouch(
            &mut rec.reads,
            ReadRec {
                get: &inputs.probe,
                status: 0,
                fleet: 0,
                digest: 0,
                ns: 0,
                slice: 0,
                window: false,
            },
        );
        pretouch(
            &mut rec.writes,
            WriteRec {
                post: &inputs.rounds[0].posts[0],
                status: 0,
                refit: false,
                digest: 0,
                ns: 0,
                slice: 0,
                window: false,
            },
        );
        if let Some(spans) = &mut rec.spans {
            pretouch(spans, Span::default());
        }
        pretouch(&mut rec.arena, 0);
        rec
    }

    /// The kept body with this digest.
    fn body(&self, digest: u64) -> &[u8] {
        let (at, len) = self.bodies[&digest];
        &self.arena[at..at + len]
    }

    /// Keeps one copy of the body for the after-window check. Status and
    /// `/metrics` bodies carry live counters, so they are first reduced to
    /// the fields the check reads; every other body is kept whole.
    fn keep_body(&mut self, stack: &Stack, question: Option<&Question>) -> u64 {
        let body = stack.client.body();
        let kept = match question {
            Some(Question::Status { .. }) | Some(Question::Metrics) => {
                self.scratch.clear();
                reduce_volatile(body, &mut self.scratch);
                &self.scratch[..]
            }
            _ => body,
        };
        let digest = Fnv::of(kept);
        let arena = &mut self.arena;
        self.bodies.entry(digest).or_insert_with(|| {
            arena.extend_from_slice(kept);
            (arena.len() - kept.len(), kept.len())
        });
        digest
    }

    fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        if let Some(spans) = &mut self.spans {
            let request = spans.len() as u64;
            spans.push(Span {
                name,
                start_ns: trace::since_origin(start),
                end_ns: trace::since_origin(end),
                parent: None,
                request,
            });
        }
    }

    /// Sends one GET.
    fn read(&mut self, stack: &mut Stack, get: &'a Get) -> io::Result<()> {
        let fleet = (self.fleets.len() - 1) as u32;
        let start = Instant::now();
        let status = stack.client.roundtrip(&get.wire)?;
        let end = Instant::now();
        self.span("http.get", start, end);
        let digest = self.keep_body(stack, Some(&get.question));
        self.reads.push(ReadRec {
            get,
            status,
            fleet,
            digest,
            ns: (end - start).as_nanos() as u64,
            slice: self.slice,
            window: self.window,
        });
        Ok(())
    }

    /// Sends one telemetry POST, detecting a refit by the publish
    /// generation moving.
    fn write(&mut self, stack: &mut Stack, post: &'a Post) -> io::Result<()> {
        let generation = stack.reader.generation();
        let start = Instant::now();
        let status = stack.client.roundtrip(&post.wire)?;
        let end = Instant::now();
        self.span("http.post", start, end);
        let refit = stack.reader.generation() != generation;
        if refit {
            self.fleets
                .push(stack.reader.fleet().expect("service is running"));
        }
        let digest = self.keep_body(stack, None);
        self.writes.push(WriteRec {
            post,
            status,
            refit,
            digest,
            ns: (end - start).as_nanos() as u64,
            slice: self.slice,
            window: self.window,
        });
        Ok(())
    }
}

/// The lines of a `/metrics` body, or the fields of a status body, that
/// the answer check reads.
fn reduce_volatile(body: &[u8], out: &mut Vec<u8>) {
    if body.first() == Some(&b'{') {
        if let Some(doc) = std::str::from_utf8(body)
            .ok()
            .and_then(|t| json::parse(t).ok())
        {
            let keep = ["epoch", "stale"]
                .iter()
                .filter_map(|k| Some((k.to_string(), doc.get(k)?.clone())))
                .collect();
            out.extend_from_slice(Value::Object(keep).encode().as_bytes());
        }
        return;
    }
    for line in body.split(|&b| b == b'\n') {
        if line.starts_with(b"cos_tenants ") || line.starts_with(b"cos_tenant_ingest_events_total{")
        {
            out.extend_from_slice(line);
            out.push(b'\n');
        }
    }
}

/// Writes through `v`'s spare capacity so its pages are resident before
/// the RSS baseline, then empties it.
fn pretouch<T: Clone>(v: &mut Vec<T>, filler: T) {
    v.resize(v.capacity(), filler);
    v.clear();
}

/// Median of `v` (sorted in place); `NaN` when empty.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` (sorted in place, nearest rank); `NaN` when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// How long each slice's share of the window lasts: a wall-clock budget,
/// or (for reproducible counts) a fixed number of requests.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    /// The whole window, split evenly over the kept slices.
    Seconds(f64),
    /// Exactly this many GETs (`ingest_refit`: rounds) per slice.
    Requests(usize),
}

/// The parts of a slice whose host steal is read apart: each metric comes
/// from the slices whose part that produced it was stolen from least.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Setup,
    CatchUp,
    Window,
}

/// Host steal between two `/proc/stat` readings, in % of all CPU time.
fn steal_pct(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// Counters of one slice, read around its share of the window.
#[derive(Debug, Clone, Default)]
struct SliceStats {
    setup_s: f64,
    /// Host steal (%) during each [`Phase`].
    steal_pct: [f64; 3],
    seconds: f64,
    ops: u64,
    cpu_s: f64,
    runq_ns: u64,
    syscalls: u64,
    allocs: u64,
    hits: u64,
    misses: u64,
}

/// Counts that depend only on the seed and the number of window requests.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    /// Input digest.
    pub digest: u64,
    /// Requests in the window, over all slices.
    pub window_requests: u64,
    /// Memo hits in the window.
    pub hits: u64,
    /// Memo misses in the window.
    pub misses: u64,
    /// Refits observed after the set-ups.
    pub refits: u64,
    /// Fleet publish generations over the same span.
    pub generations: u64,
}

/// A run's verdict and numbers.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every answer and every self-check passed.
    pub correct: bool,
    /// Requests sent, set-up probes included.
    pub attempted: u64,
    /// Requests that failed (transport error, unexpected status, or an
    /// answer the check rejected).
    pub failed: u64,
    /// Every end-to-end metric, in print order.
    pub metrics: Vec<Metric>,
    /// Gate syscalls per window request (kept slices).
    pub syscalls_per_op: f64,
    /// Allocations by the gate's reactor threads per window request.
    pub allocs_per_op: f64,
    /// Memo hits ÷ lookups over the window (kept slices).
    pub hit_ratio: f64,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
    /// Schedule-fixed counts (for the determinism test).
    pub counts: Counts,
    /// Client-side request spans, when traced.
    pub spans: Vec<Span>,
}

/// Sends one slice's share of the window; returns the requests sent and
/// whether the pre-generated schedule ran out first.
fn window_chunk<'a>(
    inputs: &'a Inputs,
    stack: &mut Stack,
    rec: &mut Recorder<'a>,
    window: Window,
    mut rss: Option<&mut RssPeak>,
) -> io::Result<(u64, bool)> {
    // The first slice samples its RSS after a fixed amount of window work,
    // so the figure does not grow with how fast the host ran.
    let rss_at = match inputs.workload {
        Workload::DashboardWarm => 8192,
        Workload::WhatifCold => 256,
        Workload::IngestRefit => 32 * 2 * inputs.tenant_ids.len() as u64,
    };
    let start = Instant::now();
    let (deadline, limit) = match window {
        Window::Seconds(s) => (
            Some(start + Duration::from_secs_f64(s / SLICES_KEPT as f64)),
            usize::MAX,
        ),
        Window::Requests(n) => (None, n),
    };
    // The first slice's RSS sample is due after fixed work, so it runs
    // past its deadline if a slow host has not done that work yet.
    let expired =
        |rss: &Option<&mut RssPeak>| rss.is_none() && deadline.is_some_and(|d| Instant::now() >= d);
    let mut ops = 0u64;
    if inputs.workload == Workload::IngestRefit {
        for round in inputs.rounds.iter().take(limit) {
            if expired(&rss) {
                return Ok((ops, false));
            }
            for post in &round.posts {
                rec.write(stack, post)?;
            }
            for get in &round.reads {
                rec.read(stack, get)?;
            }
            ops += (round.posts.len() + round.reads.len()) as u64;
            if ops == rss_at {
                if let Some(r) = rss.take() {
                    r.sample();
                }
            }
        }
        return Ok((ops, deadline.is_some() && !expired(&rss)));
    }
    let cycle = inputs.workload == Workload::DashboardWarm;
    let mut i = 0;
    while i < limit && !expired(&rss) {
        let get = if cycle {
            &inputs.gets[i % inputs.gets.len()]
        } else if let Some(get) = inputs.gets.get(i) {
            get
        } else {
            return Ok((ops, deadline.is_some()));
        };
        rec.read(stack, get)?;
        i += 1;
        ops += 1;
        if ops == rss_at {
            if let Some(r) = rss.take() {
                r.sample();
            }
        }
    }
    Ok((ops, false))
}

/// One slice: a set-up, catch-up telemetry (and the dashboard's prewarm
/// pass), then the slice's share of the window.
fn slice<'a>(
    inputs: &'a Inputs,
    rec: &mut Recorder<'a>,
    window: Window,
    mut rss: Option<&mut RssPeak>,
) -> io::Result<(SliceStats, bool, u64)> {
    // `/proc/stat` readings at the start of each phase and the window's end.
    let mut marks = [sys::host_steal(), None, None, None];
    let (mut stack, took) = Stack::setup(inputs)?;
    marks[1] = sys::host_steal();
    let mut stats = SliceStats {
        setup_s: took.as_secs_f64(),
        ..SliceStats::default()
    };
    let generation0 = stack.reader.generation();
    rec.fleets
        .push(stack.reader.fleet().expect("service is running"));

    let mut measure = || -> io::Result<bool> {
        if inputs.workload != Workload::IngestRefit {
            for post in inputs.rounds.iter().flat_map(|r| &r.posts) {
                rec.write(&mut stack, post)?;
            }
        }
        if inputs.workload == Workload::DashboardWarm {
            for get in &inputs.gets {
                rec.read(&mut stack, get)?;
            }
        }
        marks[2] = sys::host_steal();
        let cache0 = cache_stats(&stack);
        let syscalls0 = stack.gate.syscalls();
        let allocs0 = cos_par::alloc_probe::tracked_allocs();
        let sample0 = sys::Sample::now();
        let start = Instant::now();
        rec.window = true;
        let chunk = window_chunk(inputs, &mut stack, rec, window, rss.as_deref_mut());
        marks[3] = sys::host_steal();
        rec.window = false;
        // A window shorter than the fixed work still yields a peak.
        if let Some(r) = rss.as_deref_mut() {
            r.sample();
        }
        let (ops, ran_out) = chunk?;
        stats.seconds = start.elapsed().as_secs_f64();
        let sample1 = sys::Sample::now();
        stats.allocs = cos_par::alloc_probe::tracked_allocs() - allocs0;
        stats.syscalls = stack.gate.syscalls().since(&syscalls0).total();
        let cache1 = cache_stats(&stack);
        stats.ops = ops;
        stats.cpu_s = sample1.cpu_since(&sample0);
        stats.runq_ns = sample1.runq_ns_since(&sample0);
        stats.hits = cache1.hits - cache0.hits;
        stats.misses = cache1.misses - cache0.misses;
        Ok(ran_out)
    };
    let outcome = measure();
    let generations = stack.reader.generation() - generation0;
    stack.teardown();
    let ran_out = outcome?;
    for phase in [Phase::Setup, Phase::CatchUp, Phase::Window] {
        let i = phase as usize;
        stats.steal_pct[i] = steal_pct(marks[i], marks[i + 1]);
    }
    Ok((stats, ran_out, generations))
}

/// Peak resident set size of the first slice — one service lifetime from
/// an empty process — above the baseline taken once the inputs and the
/// client's buffers exist (so neither counts). The kernel's high-water
/// mark (`VmHWM`) is reset at the baseline and read once, after a fixed
/// amount of window work (so the figure does not grow with how fast the
/// host ran); everything allocated and freed in between counts. Later
/// slices are left out: each starts fresh reactor threads, and the
/// allocator keeps what exited threads freed, which no single long-lived
/// service would.
struct RssPeak {
    base: f64,
    peak: f64,
}

impl RssPeak {
    fn start() -> io::Result<RssPeak> {
        let base = sys::rss_mb();
        sys::reset_peak_rss()?;
        Ok(RssPeak {
            base,
            peak: f64::NAN,
        })
    }

    /// Reads the high-water mark, the first time only.
    fn sample(&mut self) {
        if self.peak.is_nan() {
            self.peak = sys::peak_rss_mb();
        }
    }
}

/// A short label per question shape, for the per-kind latency breakdown.
fn kind_label(q: &Question) -> &'static str {
    match q {
        Question::Attainment {
            rate_q: Some(_), ..
        } => "attainment@rate",
        Question::Attainment {
            coding: Some(_), ..
        } => "attainment@n,k",
        Question::Attainment { .. } => "attainment",
        Question::Percentile {
            coding: Some(_), ..
        } => "percentile@n,k",
        Question::Percentile { .. } => "percentile",
        Question::Headroom { .. } => "headroom",
        Question::Bottlenecks { .. } => "bottlenecks",
        Question::Status { .. } => "status",
        Question::Metrics => "metrics",
    }
}

/// The HTTP run of one workload: [`SLICES_RUN`] slices (more, up to
/// [`SLICES_MAX`] and [`EXTEND_UNTIL_WINDOWS`] window lengths, while fewer
/// than [`SLICES_KEPT`] were quiet), metrics from the [`SLICES_KEPT`] the
/// host stole least from, every answer checked.
pub fn run(inputs: &Inputs, window: Window, traced: bool) -> io::Result<Outcome> {
    let started = Instant::now();
    let tenants = inputs.tenant_ids.len();
    let (reads, writes) = match (inputs.workload, window) {
        (Workload::IngestRefit, _) => {
            let n = inputs.rounds.len() * tenants;
            (n, n)
        }
        (Workload::DashboardWarm, Window::Seconds(s)) => {
            ((s / SLICES_KEPT as f64 * 30_000.0) as usize, 0)
        }
        (_, Window::Requests(n)) => (n, 0),
        (Workload::WhatifCold, _) => (inputs.gets.len(), 0),
    };
    let catch_up = match inputs.workload {
        Workload::IngestRefit => 0,
        _ => inputs.rounds.len() * tenants,
    };
    let mut rec = Recorder::new(
        inputs,
        SLICES_MAX * (reads + inputs.gets.len()),
        SLICES_MAX * (writes + catch_up),
        traced,
    );
    let mut rss = RssPeak::start()?;

    let mut slices: Vec<SliceStats> = Vec::with_capacity(SLICES_MAX);
    let mut exhausted = 0;
    let mut generations = 0;
    let quiet = |slices: &[SliceStats]| {
        slices
            .iter()
            .filter(|s| s.steal_pct.iter().all(|&p| p <= QUIET_STEAL_PCT))
            .count()
    };
    // Only a timed window waits steal out, and only for so long; a counted
    // one stays reproducible.
    let (max, extend_until) = match window {
        Window::Seconds(s) => (
            SLICES_MAX,
            Some(started + Duration::from_secs_f64(EXTEND_UNTIL_WINDOWS * s)),
        ),
        Window::Requests(_) => (SLICES_RUN, None),
    };
    for i in 0..max {
        let waited = extend_until.is_some_and(|t| Instant::now() >= t);
        if i >= SLICES_RUN && (quiet(&slices) >= SLICES_KEPT || waited) {
            break;
        }
        rec.slice = i as u8;
        let first = (i == 0).then_some(&mut rss);
        let (stats, ran_out, g) = slice(inputs, &mut rec, window, first)?;
        slices.push(stats);
        exhausted += usize::from(ran_out);
        generations += g;
    }
    let ingest = inputs.workload == Workload::IngestRefit;
    let kept_by = |phase: Phase| {
        let steal = |i: usize| slices[i].steal_pct[phase as usize];
        let mut order: Vec<usize> = (0..slices.len()).collect();
        order.sort_by(|&a, &b| steal(a).total_cmp(&steal(b)));
        let mut kept = order[..SLICES_KEPT].to_vec();
        kept.sort_unstable();
        kept
    };
    // Set-ups, writes (catch-up, or window in ingest_refit) and window
    // reads and counters each come from their own least-stolen slices.
    let kept_setups = kept_by(Phase::Setup);
    let kept_writes = kept_by(if ingest {
        Phase::Window
    } else {
        Phase::CatchUp
    });
    let kept = kept_by(Phase::Window);
    let is_kept = |s: u8| kept.contains(&(s as usize));

    // The answer check: every read against the model, every write against
    // its event count and the refit the cadence predicts.
    let variant = Stack::config(cos_obs::Registry::new()).variant;
    let mut checker = Checker::new(variant, inputs.tenant_ids.clone());
    let mut failed = 0u64;
    for r in &rec.reads {
        failed += u64::from(!checker.check(Answer {
            question: &r.get.question,
            status: r.status,
            body: rec.body(r.digest),
            fleet: &rec.fleets[r.fleet as usize],
        }));
    }
    let mut notes = vec![format!(
        "answer check: {} reads against {} model references",
        rec.reads.len(),
        checker.references()
    )];
    let mut refits = 0u64;
    for w in &rec.writes {
        refits += u64::from(w.refit);
        let want = format!("{{\"accepted\":{}}}", w.post.events);
        let ok =
            w.status == 200 && rec.body(w.digest) == want.as_bytes() && w.refit == w.post.refits;
        if !ok && notes.len() < 10 {
            notes.push(format!(
                "telemetry POST for tenant {}: status {}, refit {} (cadence says {})",
                w.post.tenant, w.status, w.refit, w.post.refits
            ));
        }
        failed += u64::from(!ok);
    }
    notes.extend(checker.reasons.iter().cloned());

    // Self-checks: each slice measured the path its workload claims, and
    // every refit the cadence predicts ran (and no other).
    let mut self_checks = Vec::new();
    for (i, s) in slices.iter().enumerate() {
        match inputs.workload {
            Workload::DashboardWarm if s.misses != 0 || s.hits == 0 => self_checks.push(format!(
                "slice {i}: dashboard_warm hit ratio is not 1.0 ({} hits, {} misses)",
                s.hits, s.misses
            )),
            Workload::WhatifCold if s.hits != 0 || s.misses == 0 => self_checks.push(format!(
                "slice {i}: whatif_cold hit ratio is not 0.0 ({} hits, {} misses)",
                s.hits, s.misses
            )),
            _ => {}
        }
    }
    let expected_refits = rec.writes.iter().filter(|w| w.post.refits).count() as u64;
    if refits != expected_refits || refits == 0 || generations != refits {
        self_checks.push(format!(
            "{refits} refits ran, the cadence expects {expected_refits}; {generations} publish generations"
        ));
    }
    if exhausted > 0 {
        notes.push(format!(
            "{exhausted} of {} slices ran out of pre-generated requests before their share of the window",
            slices.len()
        ));
    }
    notes.extend(self_checks.iter().cloned());

    // Metrics, from the kept slices. Writes and refits come from the
    // window in ingest_refit and from the catch-up elsewhere.
    let measured: Vec<&WriteRec> = rec
        .writes
        .iter()
        .filter(|w| kept_writes.contains(&(w.slice as usize)) && w.window == ingest)
        .collect();
    let mut write_ns: Vec<f64> = measured
        .iter()
        .filter(|w| !w.refit)
        .map(|w| w.ns as f64)
        .collect();
    let mut refit_ns: Vec<f64> = measured
        .iter()
        .filter(|w| w.refit)
        .map(|w| w.ns as f64)
        .collect();
    let window_reads: Vec<&ReadRec> = rec
        .reads
        .iter()
        .filter(|r| r.window && is_kept(r.slice))
        .collect();
    let mut read_ns: Vec<f64> = window_reads.iter().map(|r| r.ns as f64).collect();
    let sum = |f: fn(&SliceStats) -> f64| kept.iter().map(|&i| f(&slices[i])).sum::<f64>();
    let ops = sum(|s| s.ops as f64).max(1.0);
    let mut setups: Vec<f64> = kept_setups.iter().map(|&i| slices[i].setup_s).collect();
    let attempted = (rec.reads.len() + rec.writes.len() + slices.len()) as u64;
    let metrics = vec![
        ("setup_s", median(&mut setups), "s"),
        ("p50_us", median(&mut read_ns) / 1e3, "us"),
        ("write_p50_us", median(&mut write_ns) / 1e3, "us"),
        ("refit_p50_ms", median(&mut refit_ns) / 1e6, "ms"),
        ("cpu_us_per_op", sum(|s| s.cpu_s) * 1e6 / ops, "us"),
        ("rss_mb", rss.peak - rss.base, "MiB"),
        ("ok_ratio", 1.0 - failed as f64 / attempted as f64, "ratio"),
    ];
    let hits = sum(|s| s.hits as f64);
    let lookups = hits + sum(|s| s.misses as f64);

    // Noise diagnostics (printed, not gated).
    let mut steal = Vec::new();
    for (phase, label, kept) in [
        (Phase::Setup, "set-up", &kept_setups),
        (Phase::CatchUp, "catch-up", &kept_writes),
        (Phase::Window, "window", &kept),
    ] {
        if ingest && matches!(phase, Phase::CatchUp) {
            continue;
        }
        let row: Vec<String> = slices
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mark = if kept.contains(&i) { "" } else { "*" };
                format!("{:.1}{mark}", s.steal_pct[phase as usize])
            })
            .collect();
        steal.push(format!("{label} {}", row.join(" ")));
    }
    notes.push(format!(
        "host steal per slice (%, * = dropped): {}; kept windows' run-queue wait {:.2} us/op",
        steal.join("; "),
        sum(|s| s.runq_ns as f64) / 1e3 / ops,
    ));
    notes.push(format!(
        "kept window {:.2} s: {} requests; {} reads (p99 {:.1} us over {} samples); {} writes and {} refits measured",
        sum(|s| s.seconds),
        ops,
        read_ns.len(),
        quantile(&mut read_ns, 0.99) / 1e3,
        read_ns.len(),
        write_ns.len(),
        refit_ns.len()
    ));
    let mut kinds: Vec<(&str, Vec<f64>)> = Vec::new();
    for r in &window_reads {
        let label = kind_label(&r.get.question);
        match kinds.iter_mut().find(|(k, _)| *k == label) {
            Some((_, v)) => v.push(r.ns as f64),
            None => kinds.push((label, vec![r.ns as f64])),
        }
    }
    let breakdown: Vec<String> = kinds
        .iter_mut()
        .map(|(k, v)| format!("{k} {}x {:.1}us", v.len(), median(v) / 1e3))
        .collect();
    notes.push(format!(
        "reads by kind (count, p50): {}",
        breakdown.join(", ")
    ));
    notes.push(format!("kept set-ups (s, sorted): {setups:.3?}"));

    Ok(Outcome {
        correct: failed == 0 && self_checks.is_empty(),
        attempted,
        failed,
        metrics,
        syscalls_per_op: sum(|s| s.syscalls as f64) / ops,
        allocs_per_op: sum(|s| s.allocs as f64) / ops,
        hit_ratio: if lookups > 0.0 { hits / lookups } else { 0.0 },
        notes,
        counts: Counts {
            digest: inputs.digest,
            window_requests: slices.iter().map(|s| s.ops).sum(),
            hits: slices.iter().map(|s| s.hits).sum(),
            misses: slices.iter().map(|s| s.misses).sum(),
            refits,
            generations,
        },
        spans: rec.spans.take().unwrap_or_default(),
    })
}

fn cache_stats(stack: &Stack) -> CacheStats {
    stack
        .reader
        .status()
        .expect("service is running")
        .engine
        .cache
}
