//! The traced run's layer replay: the workload's inputs sent through each
//! layer's public entry points from outside the layer, every call wrapped
//! in a span recorded here (spans inside the program are not part of this
//! benchmark), and per-layer self times and counts derived from them.

use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use cos_gate::{decode_events, json, ParserLimits, RequestParser};
use cos_model::{
    max_admissible_rate, CodedReadModel, CodingSpec, ModelVariant, SlaGoal, SystemModel,
    SystemParams,
};
use cos_numeric::{
    cdf_from_lst, quantile_from_lst, Complex64, CountingLaplaceFn, InversionConfig, LaplaceFn,
};
use cos_serve::{
    OnlineCalibrator, Query, ServeConfig, ServeError, SlaService, SnapshotReader, TenantId,
    FRACTION_QUANTUM, RATE_QUANTUM, SLA_QUANTUM,
};

use crate::inputs::{base, configured_sla_q, Get, Inputs, Post, Question, Workload};
use crate::run::{median, Metric, Outcome};
use crate::stack::Stack;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds from the process's trace origin to `t` (the origin is
/// fixed by the first call, which `main` makes at start-up).
pub fn since_origin(t: Instant) -> u64 {
    t.saturating_duration_since(*ORIGIN.get_or_init(Instant::now))
        .as_nanos() as u64
}

/// One timed call at a layer boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// `layer.call`, e.g. `gate.parse`.
    pub name: &'static str,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for a root).
    pub parent: Option<u32>,
    /// Request the span belongs to.
    pub request: u64,
}

/// In-memory span log of the replay.
#[derive(Default)]
struct Tracer {
    spans: Vec<Span>,
    request: u64,
}

impl Tracer {
    /// Opens a root span for a new request; close it with [`Tracer::close`].
    fn open(&mut self, name: &'static str) -> u32 {
        self.request += 1;
        let now = since_origin(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: None,
            request: self.request,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, root: u32) {
        self.spans[root as usize].end_ns = since_origin(Instant::now());
    }

    /// Runs `f` inside a child span of `parent`.
    fn time<T>(&mut self, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: since_origin(start),
            end_ns: since_origin(end),
            parent: Some(parent),
            request: self.request,
        });
        out
    }

    /// Renames the most recent span (a read is a hit or a miss only once
    /// it has run).
    fn rename_last(&mut self, name: &'static str) {
        if let Some(s) = self.spans.last_mut() {
            s.name = name;
        }
    }

    /// Per span name: self times (duration minus the part of it that
    /// child spans cover) in ns.
    fn self_times(&self) -> HashMap<&'static str, Vec<f64>> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            out.entry(s.name).or_default().push(own as f64);
        }
        out
    }
}

/// One device's response-time LST as a [`LaplaceFn`], forwarding batches
/// to the model's batched evaluation (the path the model's own inversions
/// take).
struct DeviceLst<'a> {
    model: &'a SystemModel,
    device: usize,
}

impl LaplaceFn for DeviceLst<'_> {
    fn eval(&self, s: Complex64) -> Complex64 {
        self.model.device_response_lst(self.device, s)
    }

    fn eval_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        self.model.device_response_lst_batch(self.device, s, out)
    }
}

/// The question as a serve-layer [`Query`] at the gate's snapped inputs.
fn query(id: &TenantId, q: &Question) -> Query {
    let base = Query::tenant(id.clone());
    match *q {
        Question::Attainment {
            sla_q,
            rate_q,
            coding,
            ..
        } => {
            let mut query = base.sla(sla_q as f64 * SLA_QUANTUM);
            if let Some(r) = rate_q {
                query = query.rate(r as f64 * RATE_QUANTUM);
            }
            if let Some((n, k)) = coding {
                query = query.n_k(n, k);
            }
            query
        }
        Question::Percentile { p_q, coding, .. } => {
            let query = base.p(p_q as f64 * FRACTION_QUANTUM);
            match coding {
                Some((n, k)) => query.n_k(n, k),
                None => query,
            }
        }
        Question::Headroom { sla_q, frac_q, .. } => base
            .sla(sla_q as f64 * SLA_QUANTUM)
            .target(frac_q as f64 * FRACTION_QUANTUM),
        Question::Bottlenecks { sla_q, .. } => base.sla(sla_q as f64 * SLA_QUANTUM),
        Question::Status { .. } | Question::Metrics => base,
    }
}

/// The serve-layer read a GET resolves to, through the snapshot reader.
fn serve_read(reader: &SnapshotReader, id: &TenantId, q: &Question) -> Result<(), ServeError> {
    let query = query(id, q);
    match q {
        Question::Attainment { .. } => reader.attainment(&query).map(drop),
        Question::Percentile { .. } => reader.latency_percentile(&query).map(drop),
        Question::Headroom { .. } => reader.admissible_rate(&query).map(drop),
        Question::Bottlenecks { .. } => reader.device_ranking(&query).map(drop),
        Question::Status { .. } | Question::Metrics => Ok(()),
    }
}

/// Counters of the replay that are not span durations.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Requests replayed (GETs and POSTs).
    pub requests: u64,
    /// Telemetry events ingested through `SlaService::ingest_for`.
    pub events: u64,
    /// Transform evaluations counted around single inversions.
    pub lst_evals: u64,
    /// Inversions (batch calls) counted around those single inversions.
    pub inversions: u64,
    /// Inversions counted around quantile solves.
    pub quantile_inversions: u64,
    /// Quantile solves.
    pub quantiles: u64,
}

/// What the replay measured.
pub struct Replay {
    tracer: Tracer,
    delta_ratios: Vec<f64>,
    /// Counters that depend only on the inputs.
    pub counts: ReplayCounts,
}

/// The replay's handles on each layer.
struct Ctx<'a> {
    inputs: &'a Inputs,
    writer: SlaService,
    calibrators: Vec<OnlineCalibrator>,
    client: cos_serve::ServiceClient,
    reader: SnapshotReader,
    parser: RequestParser,
    out: Vec<u8>,
    variant: ModelVariant,
}

impl Ctx<'_> {
    /// One telemetry POST: decoded by the gate's codec, ingested by the
    /// serve layer, and at the cadence's refit points refit, fitted per
    /// tenant, and built into models.
    fn post(
        &mut self,
        tr: &mut Tracer,
        counts: &mut ReplayCounts,
        delta_ratios: &mut Vec<f64>,
        p: &Post,
    ) {
        let root = tr.open("request.post");
        counts.requests += 1;
        let body = std::str::from_utf8(p.body()).expect("generated bodies are UTF-8");
        let events = tr.time(root, "gate.decode", || {
            decode_events(&json::parse(body).expect("valid JSON")).expect("valid events")
        });
        let id = &self.inputs.tenant_ids[p.tenant as usize];
        let writer = &mut self.writer;
        tr.time(root, "serve.ingest", || {
            for ev in &events {
                writer.ingest_for(id, *ev);
            }
        });
        counts.events += events.len() as u64;
        for ev in &events {
            self.calibrators[p.tenant as usize].ingest(ev);
        }
        // Keep the served stack in step (its own cadence refits here).
        self.parser.feed(&p.wire);
        let req = self
            .parser
            .next_request()
            .expect("valid request")
            .expect("whole request");
        let resp = cos_gate::handle(&self.client, &req);
        assert_eq!(resp.status, 200, "telemetry accepted");
        if p.refits {
            tr.time(root, "serve.refit", || writer.refit_now());
            delta_ratios.push(writer.last_publish_stats().delta_ratio());
            let now = writer.event_time();
            for cal in &self.calibrators {
                if let Ok(params) = tr.time(root, "serve.fit", || cal.try_fit(now)) {
                    let variant = self.variant;
                    let _ = tr.time(root, "model.build", || SystemModel::new(&params, variant));
                }
            }
        }
        tr.close(root);
    }

    /// One GET: parsed, read through the serve layer (a miss is followed
    /// by the same read again, now a hit), dispatched by the gate on the
    /// cached key, and serialized.
    fn get(&mut self, tr: &mut Tracer, counts: &mut ReplayCounts, g: &Get) {
        let root = tr.open("request.get");
        counts.requests += 1;
        let parser = &mut self.parser;
        let req = tr.time(root, "gate.parse", || {
            parser.feed(&g.wire);
            parser.next_request()
        });
        let req = req.expect("valid request").expect("whole request");
        if let Some(t) = g.question.tenant().filter(|_| g.question.is_prediction()) {
            let id = &self.inputs.tenant_ids[t];
            let reader = &self.reader;
            let misses = || reader.status().map(|s| s.engine.cache.misses).unwrap_or(0);
            let before = misses();
            let _ = tr.time(root, "serve.read.hit", || {
                serve_read(reader, id, &g.question)
            });
            if misses() != before {
                tr.rename_last("serve.read.miss");
                let _ = tr.time(root, "serve.read.hit", || {
                    serve_read(reader, id, &g.question)
                });
            }
        }
        let client = &self.client;
        let resp = tr.time(root, "gate.dispatch", || cos_gate::handle(client, &req));
        let out = &mut self.out;
        tr.time(root, "gate.write", || {
            out.clear();
            resp.write_to(out, true);
        });
        tr.close(root);
    }
}

/// GETs the replay sends per workload.
fn replay_gets(inputs: &Inputs) -> Vec<&Get> {
    match inputs.workload {
        // Ten passes: the first misses where the prewarm pass did.
        Workload::DashboardWarm => inputs
            .gets
            .iter()
            .cycle()
            .take(inputs.gets.len() * 10)
            .collect(),
        Workload::WhatifCold => inputs.gets.iter().take(200).collect(),
        Workload::IngestRefit => Vec::new(),
    }
}

/// Rounds the replay ingests per workload (with their reads in
/// `ingest_refit`).
const REPLAY_ROUNDS: usize = 40;

/// Replays the workload's inputs layer by layer.
pub fn replay(inputs: &Inputs) -> io::Result<Replay> {
    let mut tr = Tracer::default();
    let mut counts = ReplayCounts::default();
    let mut delta_ratios = Vec::new();
    let variant = ModelVariant::Full;

    // The serve layer's write path, in-process: ingest and refit on a
    // service that refits only when told to, at the points where the
    // cadence refits the served one; and one calibrator per tenant for
    // the fit alone.
    let manual = ServeConfig {
        refit_interval: f64::MAX,
        ..Stack::config(cos_obs::Registry::new())
    };
    let mut writer = SlaService::new(base(), manual);
    let mut calibrators: Vec<OnlineCalibrator> = inputs
        .tenant_ids
        .iter()
        .map(|_| OnlineCalibrator::new(base(), writer.config().calibrator.clone()))
        .collect();
    for (t, ev) in &inputs.history {
        writer.ingest_for(&inputs.tenant_ids[*t as usize], *ev);
        calibrators[*t as usize].ingest(ev);
    }
    writer.refit_now();

    // The read path: a served stack whose client the gate's dispatcher
    // takes directly (no socket).
    let (stack, _) = Stack::setup(inputs)?;
    let mut ctx = Ctx {
        inputs,
        writer,
        calibrators,
        client: stack.handle.client(),
        reader: stack.reader.clone(),
        parser: RequestParser::new(ParserLimits::default()),
        out: Vec::with_capacity(1 << 16),
        variant,
    };
    let mut questions: Vec<Question> = Vec::new();
    let rounds = &inputs.rounds[..REPLAY_ROUNDS.min(inputs.rounds.len())];
    for round in rounds {
        for p in &round.posts {
            ctx.post(&mut tr, &mut counts, &mut delta_ratios, p);
        }
        for g in &round.reads {
            ctx.get(&mut tr, &mut counts, g);
            questions.push(g.question);
        }
    }
    for g in replay_gets(inputs) {
        ctx.get(&mut tr, &mut counts, g);
        questions.push(g.question);
    }
    let reader = ctx.reader.clone();
    drop(ctx);

    // The model and numeric layers, called directly on each distinct
    // question's published parameters.
    let mut seen = HashSet::new();
    questions.retain(|q| q.is_prediction() && seen.insert(*q));
    questions.truncate(64);
    let params_of = |t: usize| -> Arc<SystemParams> {
        let state = reader
            .state_for(&inputs.tenant_ids[t])
            .expect("tenant is published");
        Arc::clone(
            &state
                .snapshot
                .as_ref()
                .expect("tenant is calibrated")
                .params,
        )
    };
    let cfg = configured_sla_q();
    let mut kinds_seen: HashSet<&'static str> = HashSet::new();
    let config = InversionConfig::default();
    let model_call = |tr: &mut Tracer,
                      counts: &mut ReplayCounts,
                      seen: &mut HashSet<&'static str>,
                      q: &Question| {
        let params = params_of(q.tenant().expect("prediction questions name a tenant"));
        let root = tr.open("request.model");
        let built = |tr: &mut Tracer, p: &SystemParams| {
            tr.time(root, "model.build", || SystemModel::new(p, variant))
                .ok()
        };
        let (model, sla, p) = match *q {
            Question::Attainment {
                sla_q,
                rate_q,
                coding: None,
                ..
            } => {
                let scaled = rate_q.map(|r| params.scaled_to_rate(r as f64 * RATE_QUANTUM));
                let m = built(tr, scaled.as_ref().unwrap_or(&params));
                let sla = sla_q as f64 * SLA_QUANTUM;
                if let Some(m) = &m {
                    tr.time(root, "model.fraction", || m.fraction_meeting_sla(sla));
                    seen.insert("model.fraction");
                }
                (m, Some(sla), None)
            }
            Question::Attainment {
                sla_q,
                coding: Some((n, k)),
                ..
            } => {
                let sla = sla_q as f64 * SLA_QUANTUM;
                let _ = tr.time(root, "model.coded", || {
                    CodedReadModel::new(&params, CodingSpec::new(n.into(), k.into()))
                        .map(|m| m.fraction_meeting_sla(sla))
                });
                seen.insert("model.coded");
                (built(tr, &params), Some(sla), None)
            }
            Question::Percentile {
                p_q, coding: None, ..
            } => {
                let m = built(tr, &params);
                let p = p_q as f64 * FRACTION_QUANTUM;
                if let Some(m) = &m {
                    tr.time(root, "model.percentile", || m.latency_percentile(p));
                    seen.insert("model.percentile");
                }
                (m, None, Some(p))
            }
            Question::Percentile {
                p_q,
                coding: Some((n, k)),
                ..
            } => {
                let p = p_q as f64 * FRACTION_QUANTUM;
                let _ = tr.time(root, "model.coded", || {
                    CodedReadModel::new(&params, CodingSpec::new(n.into(), k.into()))
                        .map(|m| m.latency_percentile(p))
                });
                seen.insert("model.coded");
                (built(tr, &params), None, Some(p))
            }
            Question::Headroom { sla_q, frac_q, .. } => {
                let goal = SlaGoal::new(
                    sla_q as f64 * SLA_QUANTUM,
                    (frac_q as f64 * FRACTION_QUANTUM).min(1.0 - FRACTION_QUANTUM),
                );
                tr.time(root, "model.headroom", || {
                    max_admissible_rate(&params, variant, goal, cos_serve::DEFAULT_HEADROOM_UPPER)
                });
                seen.insert("model.headroom");
                (built(tr, &params), Some(goal.sla), None)
            }
            Question::Bottlenecks { sla_q, .. } => {
                (built(tr, &params), Some(sla_q as f64 * SLA_QUANTUM), None)
            }
            Question::Status { .. } | Question::Metrics => (None, None, None),
        };
        if let Some(m) = &model {
            let lst = DeviceLst {
                model: m,
                device: 0,
            };
            if let Some(sla) = sla {
                let counting = CountingLaplaceFn::new(&lst);
                tr.time(root, "numeric.invert", || {
                    cdf_from_lst(&counting, sla, &config)
                });
                counts.lst_evals += counting.evals() as u64;
                counts.inversions += counting.batch_calls() as u64;
            }
            if let Some(p) = p {
                let counting = CountingLaplaceFn::new(&lst);
                let hint = m.device_mean_response(0).max(1e-6);
                tr.time(root, "numeric.quantile", || {
                    quantile_from_lst(&counting, p, hint, &config)
                });
                counts.quantile_inversions += counting.batch_calls() as u64;
                counts.quantiles += 1;
            }
        }
        tr.close(root);
    };
    for q in &questions {
        model_call(&mut tr, &mut counts, &mut kinds_seen, q);
    }
    // Model calls the workload never makes are still timed once per
    // tenant, on fixed questions, so every workload reports every layer.
    type Probe = fn(u8, &[i64; 3]) -> Question;
    let probes: [(&str, Probe); 4] = [
        ("model.fraction", |tenant, cfg| Question::Attainment {
            tenant,
            sla_q: cfg[1],
            rate_q: None,
            coding: None,
        }),
        ("model.percentile", |tenant, _| Question::Percentile {
            tenant,
            p_q: 9900,
            coding: None,
        }),
        ("model.headroom", |tenant, cfg| Question::Headroom {
            tenant,
            sla_q: cfg[2],
            frac_q: 9000,
        }),
        ("model.coded", |tenant, cfg| Question::Attainment {
            tenant,
            sla_q: cfg[1],
            rate_q: None,
            coding: Some((4, 2)),
        }),
    ];
    for (kind, make) in probes {
        if !kinds_seen.contains(kind) {
            for t in 0..inputs.tenant_ids.len() as u8 {
                model_call(&mut tr, &mut counts, &mut kinds_seen, &make(t, &cfg));
            }
        }
    }
    stack.teardown();
    Ok(Replay {
        tracer: tr,
        delta_ratios,
        counts,
    })
}

impl Replay {
    /// Per-layer metrics `(name, value, unit)`, combining span self times
    /// with the counters of the untraced HTTP run `http`.
    pub fn metrics(&self, http: &Outcome) -> Vec<Metric> {
        let times = self.tracer.self_times();
        let med = |name: &str| {
            let mut v = times.get(name).cloned().unwrap_or_default();
            median(&mut v)
        };
        let total = |name: &str| times.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
        let parse = med("gate.parse");
        let dispatch = med("gate.dispatch");
        let write = med("gate.write");
        let hit = med("serve.read.hit");
        // The untraced p50 is a memo hit unless most window reads missed
        // (whatif_cold); its serve read is the one of that mode.
        let read = if http.hit_ratio >= 0.5 {
            hit
        } else {
            med("serve.read.miss")
        };
        let p50_us = http
            .metrics
            .iter()
            .find(|m| m.0 == "p50_us")
            .map_or(f64::NAN, |m| m.1);
        let c = &self.counts;
        let mut deltas = self.delta_ratios.clone();
        vec![
            ("gate.parse_ns", parse, "ns"),
            ("gate.dispatch_ns", dispatch - hit, "ns"),
            ("gate.write_ns", write, "ns"),
            (
                "gate.transport_us",
                p50_us - (parse + (dispatch - hit) + write + read) / 1e3,
                "us",
            ),
            ("gate.syscalls_per_op", http.syscalls_per_op, "count"),
            ("gate.allocs_per_op", http.allocs_per_op, "count"),
            ("gate.decode_us", med("gate.decode") / 1e3, "us"),
            ("serve.read_hit_ns", hit, "ns"),
            ("serve.read_miss_us", med("serve.read.miss") / 1e3, "us"),
            ("serve.hit_ratio", http.hit_ratio, "ratio"),
            (
                "serve.ingest_ns_per_event",
                total("serve.ingest") / c.events.max(1) as f64,
                "ns",
            ),
            ("serve.fit_us", med("serve.fit") / 1e3, "us"),
            ("serve.refit_ms", med("serve.refit") / 1e6, "ms"),
            ("serve.refits", http.counts.generations as f64, "count"),
            ("serve.delta_ratio", median(&mut deltas), "ratio"),
            ("model.build_us", med("model.build") / 1e3, "us"),
            ("model.fraction_us", med("model.fraction") / 1e3, "us"),
            ("model.percentile_us", med("model.percentile") / 1e3, "us"),
            ("model.headroom_ms", med("model.headroom") / 1e6, "ms"),
            ("model.coded_us", med("model.coded") / 1e3, "us"),
            ("numeric.invert_us", med("numeric.invert") / 1e3, "us"),
            (
                "numeric.lst_evals_per_inversion",
                c.lst_evals as f64 / c.inversions.max(1) as f64,
                "count",
            ),
            (
                "numeric.inversions_per_quantile",
                c.quantile_inversions as f64 / c.quantiles.max(1) as f64,
                "count",
            ),
        ]
    }

    /// One line per span name: count, total and median self time.
    pub fn table(&self) -> Vec<String> {
        let mut rows: Vec<(&str, Vec<f64>)> = self.tracer.self_times().into_iter().collect();
        rows.sort_by(|a, b| a.0.cmp(b.0));
        rows.into_iter()
            .map(|(name, mut v)| {
                let total: f64 = v.iter().sum();
                format!(
                    "{name:<20} {:>7} spans  self total {:>10.3} ms  self median {:>10.3} us",
                    v.len(),
                    total / 1e6,
                    median(&mut v) / 1e3
                )
            })
            .collect()
    }

    /// Writes the replay's spans, then `extra` (the traced HTTP run's), as
    /// JSON lines to `path`.
    pub fn write_spans(&self, extra: &[Span], path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.tracer.spans.iter().chain(extra) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}
