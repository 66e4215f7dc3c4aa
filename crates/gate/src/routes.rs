//! The query surface: maps parsed [`Request`]s onto the service's
//! [`SnapshotReader`] and [`ServiceClient`] writes, and renders JSON
//! answers.
//!
//! | Route | Answer |
//! |---|---|
//! | `GET /v1/attainment?sla=S[&rate=R][&n=N&k=K]` | fraction meeting `S` (optionally at what-if rate `R`, or for `(N, K)` erasure-coded reads) |
//! | `GET /v1/percentile?p=P[&n=N&k=K]` | response-latency percentile (seconds), optionally for `(N, K)` erasure-coded reads |
//! | `GET /v1/headroom?sla=S&target=F[&upper=U]` | largest admissible rate meeting the goal |
//! | `GET /v1/bottlenecks?sla=S` | devices ranked worst-first |
//! | `POST /v1/telemetry` | batch event ingest (JSON array), decoded by [`json::decode_telemetry`] (a byte-level fast path, the tree reference for every body it does not take) and ingested on the calling thread under the service's writer lock, in one hold, before the `200` |
//! | `GET /v1/status` | full health summary |
//! | `GET /v1/selfcheck` | observed gate latency percentiles vs model-predicted percentiles |
//! | `GET /v1/anomalies` | scored anomalies + controller state (404 without a controller) |
//! | `GET /metrics` | Prometheus-style text (see [`crate::metrics`]), plus the capped per-tenant block and every registered instrument when the gate runs with a [`GateObs`] |
//! | `GET /v1/tenants/{tenant}/{attainment,percentile,headroom,bottlenecks,status}` | the same answers, scoped to one tenant's estimator shard |
//! | `POST /v1/tenants/{tenant}/telemetry` | batch ingest into one tenant's shard (auto-vivifies the tenant on its first event; an empty batch creates nothing) |
//!
//! The legacy `/v1/*` routes are exact aliases for the reserved `default`
//! tenant: `/v1/attainment` and `/v1/tenants/default/attainment` answer
//! with byte-identical bodies (and likewise for every aliased route) —
//! both dispatch through the same tenant-parameterized handler.
//!
//! The gate checks only a question's wire syntax: percent-decoding, number
//! and integer syntax, which parameters each route reads, and `n`/`k`
//! given both or neither. Every rule on the values (present, finite,
//! positive, in range, which combine) is [`Query`]'s, the same for a
//! library caller as on the wire; its refusal,
//! [`ServeError::BadQuery`], is a `400` like a syntax error.
//!
//! Status mapping: unknown path → `404`; known path, wrong method → `405`
//! with `Allow`; malformed query/body → `400`; a service that cannot answer
//! *yet* ([`ServeError::NotCalibrated`], [`ServeError::Disconnected`]) →
//! `503`; a well-formed question with no answer (unstable operating point,
//! unreachable goal, out-of-range percentile) → `422`; a telemetry batch
//! naming a device outside the calibration base → `422`, with nothing in
//! it ingested; a request the admission controller sheds → `429` with a
//! `Retry-After` header. The tenant dimension adds two refusals: a tenant
//! id that could never exist (empty, too long, bad characters) → `422`,
//! and a well-formed id no telemetry has ever named → `404`.
//!
//! Admission runs *before* routing when a [`cos_ctrl::Controller`] is
//! configured (see [`handle_ctrl`]): the request is classified by route
//! and `x-sla-class` header ([`classify`]) and put to
//! [`Controller::decide`](cos_ctrl::Controller::decide). Control-plane
//! routes — telemetry ingest, status, metrics, selfcheck, anomalies — are
//! never shed: starving the feedback loop that decides when to re-admit
//! would wedge the controller in the shed state.
//!
//! Every GET route answers from the lock-free snapshot path, evaluated on
//! the calling thread (see [`cos_serve::SnapshotReader`]). The telemetry
//! POST is the one write: it ingests on the calling thread too, under the
//! service's writer lock.

use cos_ctrl::{Controller, SlaClass};
use cos_serve::{
    InvalidTenant, OpClass, Prediction, Query, ServeError, ServiceClient, ServiceStatus,
    SnapshotReader, TelemetryEvent, TenantId,
};

use crate::http::{Method, Request, Response};
use crate::json::{self, Field, Value};
use crate::metrics::{render_ctrl_metrics, render_metrics, render_tenant_metrics};
use crate::obs::{GateObs, TRACKED_ROUTES};
use crate::query;

/// The GET routes' view of the service, scoped to one tenant's estimator
/// shard. Legacy `/v1/*` routes run through the same struct with the
/// reserved `default` tenant, which is what makes the alias byte-exact.
struct Reader<'a> {
    snapshot: SnapshotReader,
    tenant: &'a TenantId,
}

/// A [`Query`] setter, such as [`Query::sla`].
type Setter = fn(Query, f64) -> Query;

impl Reader<'_> {
    /// A [`Query`] scoped to this reader's tenant, with each value the
    /// request carried handed to its setter. A value the request did not
    /// carry stays unset, for [`Query`] to refuse if the question needs it.
    fn query(&self, fields: &[(Option<f64>, Setter)]) -> Query {
        let query = Query::tenant(self.tenant.clone());
        fields.iter().fold(query, |q, &(value, set)| match value {
            Some(v) => set(q, v),
            None => q,
        })
    }
}

/// Dispatches one parsed request against the service, without gate
/// instrumentation or admission control: `/v1/selfcheck` reports no
/// observed latencies and `/metrics` carries only the service summary.
/// The socket server uses [`handle_ctrl`].
pub fn handle(client: &ServiceClient, req: &Request) -> Response {
    handle_ctrl(client, None, None, req)
}

/// Classifies one request for admission: control-plane routes (the
/// feedback loop itself — telemetry ingest, status, metrics, selfcheck,
/// anomalies) are [`SlaClass::Control`] and never shed; everything else
/// defaults to [`SlaClass::Standard`], overridable per request with an
/// `x-sla-class: batch|standard|premium` header. `control` is not
/// nameable from the wire.
pub fn classify(req: &Request) -> SlaClass {
    // Tenant-scoped ingest and status resolve to their legacy routes: they
    // feed the same loop, and starving either would wedge the controller.
    match resolve(req.path()).route() {
        Some("/v1/telemetry" | "/v1/status" | "/v1/selfcheck" | "/v1/anomalies" | "/metrics") => {
            SlaClass::Control
        }
        _ => req
            .header("x-sla-class")
            .and_then(SlaClass::from_header)
            .unwrap_or(SlaClass::Standard),
    }
}

/// Where a request path leads.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Target<'a> {
    /// A route, named by its legacy path, for the tenant a
    /// `/v1/tenants/{tenant}/…` path names (`None`: a legacy path, which
    /// belongs to the reserved `default` tenant).
    Route(&'static str, Option<&'a str>),
    /// A `/v1/tenants/{tenant}/…` path whose id could never exist, and why.
    BadTenant(&'a str, &'static str),
    /// A path that names no route.
    Nowhere,
}

impl Target<'_> {
    /// The route, if the path names one for a possible tenant.
    pub(crate) fn route(self) -> Option<&'static str> {
        match self {
            Target::Route(route, _) => Some(route),
            Target::BadTenant(..) | Target::Nowhere => None,
        }
    }
}

/// Maps a request path to its canonical route: the one map dispatch,
/// [`classify`] and the per-route latency series share. A legacy path is
/// its own route; a `/v1/tenants/{tenant}/{tail}` path maps onto the
/// legacy route its tail aliases, once its id has passed
/// [`TenantId::check`] (checked before the tail — the id is unusable no
/// matter what follows it). Only the five read routes and telemetry have
/// tenant-scoped forms — `selfcheck`, `anomalies`, and `metrics` describe
/// the whole gate, not one tenant. Allocates nothing.
pub(crate) fn resolve(path: &str) -> Target<'_> {
    let Some(rest) = path.strip_prefix("/v1/tenants/") else {
        return match TRACKED_ROUTES.iter().find(|&&route| route == path) {
            Some(route) => Target::Route(route, None),
            None => Target::Nowhere,
        };
    };
    let Some((id, tail)) = rest.split_once('/') else {
        return Target::Nowhere;
    };
    if let Err(reason) = TenantId::check(id) {
        return Target::BadTenant(id, reason);
    }
    let route = match tail {
        "attainment" => "/v1/attainment",
        "percentile" => "/v1/percentile",
        "headroom" => "/v1/headroom",
        "bottlenecks" => "/v1/bottlenecks",
        "status" => "/v1/status",
        "telemetry" => "/v1/telemetry",
        _ => return Target::Nowhere,
    };
    Target::Route(route, Some(id))
}

/// The full dispatcher: path resolution, then admission control (when a
/// controller is configured), then routing. A shed request is answered
/// `429 Too Many Requests` with a `Retry-After` header and never reaches
/// the service; `GET /v1/anomalies` exists only when a controller is
/// present. With `obs`, the self-measuring routes light up: `/metrics`
/// appends every registered instrument and `/v1/selfcheck` reports
/// observed request percentiles.
///
/// Path resolution runs *before* the admission decision, so a request
/// whose path names no route, or a tenant id that could never exist, is
/// refused `404`/`422` even while shedding: the refusal is cheaper than
/// admitting the request would have been, and a request that could never
/// route should not consume shed-ladder budget.
pub fn handle_ctrl(
    client: &ServiceClient,
    obs: Option<&GateObs>,
    ctrl: Option<&Controller>,
    req: &Request,
) -> Response {
    let (route, tenant) = match resolve(req.path()) {
        Target::Route(route, None) => (route, TenantId::default_tenant()),
        Target::Route(route, Some(id)) => (route, TenantId::new(id).expect("resolve checked it")),
        Target::BadTenant(id, reason) => {
            let refusal = InvalidTenant {
                id: id.to_string(),
                reason,
            };
            return Response::error(422, &refusal.to_string());
        }
        Target::Nowhere => return Response::error(404, "no such route"),
    };
    if let Some(ctrl) = ctrl {
        if let Err(shed) = ctrl.decide(classify(req)) {
            if let Some(obs) = obs {
                obs.sheds_total.inc();
            }
            return Response::error(429, &shed.to_string())
                .with_header("Retry-After", shed.retry_after.to_string());
        }
    }
    // A GET route's handler answers `Err` with its refusal, rendered.
    let get = |handler: &dyn Fn(&Reader<'_>) -> Result<Response, Response>| -> Response {
        if req.method != Method::Get {
            return Response::error(405, "method not allowed").with_header("Allow", "GET".into());
        }
        let reader = Reader {
            snapshot: client.reader(),
            tenant: &tenant,
        };
        handler(&reader).unwrap_or_else(|refusal| refusal)
    };
    match route {
        "/v1/attainment" => get(&|r| attainment(r, req)),
        "/v1/percentile" => get(&|r| percentile(r, req)),
        "/v1/headroom" => get(&|r| headroom(r, req)),
        "/v1/bottlenecks" => get(&|r| bottlenecks(r, req)),
        "/v1/status" => get(&status),
        "/v1/selfcheck" => get(&|r| Ok(selfcheck(r, obs))),
        "/v1/anomalies" => match ctrl {
            Some(ctrl) => get(&|_| Ok(anomalies(ctrl))),
            None => Response::error(404, "no such route"),
        },
        "/metrics" => get(&|r| metrics(r, obs, ctrl)),
        "/v1/telemetry" => {
            if req.method == Method::Post {
                telemetry(client, &tenant, req)
            } else {
                Response::error(405, "method not allowed").with_header("Allow", "POST".into())
            }
        }
        _ => Response::error(404, "no such route"),
    }
}

/// Renders a service error with the route-level status mapping.
fn service_error(e: ServeError) -> Response {
    let status = match e {
        ServeError::NotCalibrated | ServeError::Disconnected => 503,
        // A question `Query` refuses is malformed, like a syntax error.
        ServeError::BadQuery { .. } => 400,
        ServeError::Unstable { .. }
        | ServeError::PercentileOutOfRange { .. }
        | ServeError::GoalUnreachable
        | ServeError::UnknownDevice { .. } => 422,
        // A syntactically valid tenant no telemetry has ever named: the
        // resource does not exist (contrast 422 for an impossible id).
        ServeError::UnknownTenant { .. } => 404,
    };
    Response::error(status, &e.to_string())
}

/// The inputs an answer echoes, in order. An input the request did not
/// carry is left out (a question answered `200` carried every input it
/// echoes).
fn echo(inputs: &[(&str, Option<f64>)]) -> Vec<(String, Value)> {
    inputs
        .iter()
        .filter_map(|&(k, v)| Some((k.to_string(), Value::Number(v?))))
        .collect()
}

/// One prediction as a JSON object, echoing the inputs.
fn prediction_body(inputs: &[(&str, Option<f64>)], p: Prediction) -> Response {
    let mut pairs = echo(inputs);
    pairs.push(("value".into(), Value::Number(p.value)));
    pairs.push(("epoch".into(), Value::Number(p.epoch as f64)));
    pairs.push(("stale".into(), Value::Bool(p.stale)));
    Response::json(200, Value::Object(pairs).encode())
}

fn parsed_query(req: &Request) -> Result<query::Params, Response> {
    query::parse_query(req.query()).map_err(|e| Response::error(400, &e))
}

/// The number parameter `name`, if the request carried it; one that is
/// not a number is `400`.
fn number(params: &query::Params, name: &str) -> Result<Option<f64>, Response> {
    query::optional_f64(params, name).map_err(|e| Response::error(400, &e))
}

/// Parses the optional erasure-coding pair `n` (chunks launched) and `k`
/// (chunks needed): non-negative integers, both or neither. Errors become
/// the `400` response. Their range is [`Query`]'s to judge; a value past
/// `u16` saturates, so it reaches [`Query`] out of range instead of
/// wrapping onto a valid stripe.
fn parse_coding(params: &query::Params) -> Result<Option<(u16, u16)>, Response> {
    let integer = |name| query::optional_u32(params, name).map_err(|e| Response::error(400, &e));
    let narrow = |v: u32| u16::try_from(v).unwrap_or(u16::MAX);
    match (integer("n")?, integer("k")?) {
        (None, None) => Ok(None),
        (Some(n), Some(k)) => Ok(Some((narrow(n), narrow(k)))),
        _ => Err(Response::error(
            400,
            "query parameters `n` and `k` must be supplied together",
        )),
    }
}

/// `query` as the coded read `coding` names, if any.
fn coded(query: Query, coding: Option<(u16, u16)>) -> Query {
    match coding {
        Some((n, k)) => query.n_k(n, k),
        None => query,
    }
}

/// The `n` and `k` a coded answer echoes.
fn coding_echo(coding: Option<(u16, u16)>) -> (Option<f64>, Option<f64>) {
    coding.map(|(n, k)| (f64::from(n), f64::from(k))).unzip()
}

fn attainment(reader: &Reader<'_>, req: &Request) -> Result<Response, Response> {
    let params = parsed_query(req)?;
    let (sla, rate) = (number(&params, "sla")?, number(&params, "rate")?);
    let coding = parse_coding(&params)?;
    let query = coded(
        reader.query(&[(sla, Query::sla), (rate, Query::rate)]),
        coding,
    );
    let answer = reader.snapshot.attainment(&query).map_err(service_error)?;
    let (n, k) = coding_echo(coding);
    Ok(prediction_body(&[("sla", sla), ("n", n), ("k", k)], answer))
}

fn percentile(reader: &Reader<'_>, req: &Request) -> Result<Response, Response> {
    let params = parsed_query(req)?;
    let p = number(&params, "p")?;
    let coding = parse_coding(&params)?;
    let query = coded(reader.query(&[(p, Query::p)]), coding);
    let answer = reader
        .snapshot
        .latency_percentile(&query)
        .map_err(service_error)?;
    let (n, k) = coding_echo(coding);
    Ok(prediction_body(&[("p", p), ("n", n), ("k", k)], answer))
}

fn headroom(reader: &Reader<'_>, req: &Request) -> Result<Response, Response> {
    let params = parsed_query(req)?;
    let (sla, target) = (number(&params, "sla")?, number(&params, "target")?);
    let upper = number(&params, "upper")?;
    let query = reader.query(&[
        (sla, Query::sla),
        (target, Query::target),
        (upper, Query::upper),
    ]);
    let answer = reader
        .snapshot
        .admissible_rate(&query)
        .map_err(service_error)?;
    Ok(prediction_body(&[("sla", sla), ("target", target)], answer))
}

fn bottlenecks(reader: &Reader<'_>, req: &Request) -> Result<Response, Response> {
    let params = parsed_query(req)?;
    let sla = number(&params, "sla")?;
    let ranked = reader
        .snapshot
        .device_ranking(&reader.query(&[(sla, Query::sla)]))
        .map_err(service_error)?;
    let items = ranked
        .into_iter()
        .map(|(device, fraction)| {
            Value::Object(vec![
                ("device".into(), Value::Number(device as f64)),
                ("fraction".into(), Value::Number(fraction)),
            ])
        })
        .collect();
    let mut pairs = echo(&[("sla", sla)]);
    pairs.push(("devices".into(), Value::Array(items)));
    Ok(Response::json(200, Value::Object(pairs).encode()))
}

fn telemetry(client: &ServiceClient, tenant: &TenantId, req: &Request) -> Response {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) if !t.trim().is_empty() => t,
        Ok(_) => return Response::error(400, "empty telemetry body (expected a JSON array)"),
        Err(_) => return Response::error(400, "telemetry body is not UTF-8"),
    };
    let events = match json::decode_telemetry(text) {
        Ok(evs) => evs,
        Err(e) => return Response::error(400, &e),
    };
    let accepted = events.len();
    // The call returns once the whole batch is ingested, so this 200 is
    // the client's happens-before edge: every later query on any
    // connection sees the events. A batch naming a device outside the
    // calibration base is refused whole (422), before any of it lands.
    if let Err(e) = client.ingest_batch_for(tenant, events) {
        return service_error(e);
    }
    Response::json(
        200,
        Value::Object(vec![("accepted".into(), Value::Number(accepted as f64))]).encode(),
    )
}

fn status(reader: &Reader<'_>) -> Result<Response, Response> {
    let s = reader
        .snapshot
        .status_for(reader.tenant)
        .map_err(service_error)?;
    Ok(Response::json(200, status_body(&s).encode()))
}

fn metrics(
    reader: &Reader<'_>,
    obs: Option<&GateObs>,
    ctrl: Option<&Controller>,
) -> Result<Response, Response> {
    let s = reader
        .snapshot
        .status_for(reader.tenant)
        .map_err(service_error)?;
    let mut text = render_metrics(&s);
    if let Ok(fleet) = reader.snapshot.fleet() {
        text.push_str(&render_tenant_metrics(&fleet));
    }
    if let Some(ctrl) = ctrl {
        text.push_str(&render_ctrl_metrics(&ctrl.stats()));
    }
    if let Some(obs) = obs {
        text.push_str(&obs.registry().render());
    }
    Ok(Response::text(200, text))
}

/// `GET /v1/anomalies`: the retained scored anomalies (oldest first) plus
/// the controller's current posture — shed fraction, per-class shed
/// counters, and the latest tick's conclusions. Always `200` when a
/// controller is configured: an empty list is a healthy answer.
fn anomalies(ctrl: &Controller) -> Response {
    let stats = ctrl.stats();
    let items = ctrl
        .anomalies()
        .into_iter()
        .map(|a| {
            Value::Object(vec![
                ("at".into(), Value::Number(a.at)),
                ("sla".into(), Value::Number(a.sla)),
                ("score".into(), Value::Number(a.score)),
                ("observed".into(), Value::Number(a.observed)),
                ("predicted".into(), Value::Number(a.predicted)),
            ])
        })
        .collect();
    let scores = stats
        .scores
        .iter()
        .map(|&(sla, z, n)| {
            Value::Object(vec![
                ("sla".into(), Value::Number(sla)),
                ("score".into(), Value::Number(z)),
                ("samples".into(), Value::Number(n as f64)),
            ])
        })
        .collect();
    let shed_classes = SlaClass::SHEDDABLE
        .iter()
        .map(|c| {
            let slot = c.slot().expect("sheddable class has a slot");
            Value::Object(vec![
                ("class".into(), Value::String(c.name().into())),
                ("shed".into(), Value::Number(stats.shed_total[slot] as f64)),
            ])
        })
        .collect();
    let opt = |v: Option<f64>| v.map(Value::Number).unwrap_or(Value::Null);
    let body = Value::Object(vec![
        ("anomalies".into(), Value::Array(items)),
        (
            "anomalies_total".into(),
            Value::Number(stats.anomalies_total as f64),
        ),
        ("scores".into(), Value::Array(scores)),
        ("shed_fraction".into(), Value::Number(stats.shed_fraction)),
        (
            "admitted_total".into(),
            Value::Number(stats.admitted_total as f64),
        ),
        ("shed_total".into(), Value::Array(shed_classes)),
        ("ticks".into(), Value::Number(stats.ticks as f64)),
        (
            "last_tick".into(),
            Value::Object(vec![
                ("at".into(), Value::Number(stats.last.at)),
                (
                    "generation".into(),
                    Value::Number(stats.last.generation as f64),
                ),
                ("attainment".into(), opt(stats.last.attainment)),
                ("headroom".into(), opt(stats.last.headroom)),
                ("rate".into(), opt(stats.last.rate)),
                ("unstable".into(), Value::Bool(stats.last.unstable)),
                ("violating".into(), Value::Bool(stats.last.violating)),
            ]),
        ),
    ]);
    Response::json(200, body.encode())
}

/// The paper's validation loop (observed vs predicted percentiles, §V)
/// run live: the gate's own recorded request latencies next to the model's
/// predicted response-latency percentiles for the current epoch.
///
/// Always `200`: a selfcheck must stay readable while the service warms
/// up. The side that cannot answer yet renders as `null`.
fn selfcheck(reader: &Reader<'_>, obs: Option<&GateObs>) -> Response {
    const QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)];

    let observed = match obs.map(|o| o.observed_request_latency()) {
        Some(snap) if snap.count() > 0 => {
            let mut pairs = vec![("samples".to_string(), Value::Number(snap.count() as f64))];
            for (name, q) in QUANTILES {
                let v = snap.quantile(q).expect("non-empty snapshot");
                pairs.push((name.to_string(), Value::Number(v)));
            }
            Value::Object(pairs)
        }
        _ => Value::Null,
    };

    let mut predicted_pairs = Vec::new();
    let mut epoch = Value::Null;
    let mut stale = Value::Null;
    let mut unavailable = Value::Null;
    for (name, q) in QUANTILES {
        match reader
            .snapshot
            .latency_percentile(&reader.query(&[(Some(q), Query::p)]))
        {
            Ok(p) => {
                epoch = Value::Number(p.epoch as f64);
                stale = Value::Bool(p.stale);
                predicted_pairs.push((name.to_string(), Value::Number(p.value)));
            }
            Err(e) => {
                unavailable = Value::String(e.to_string());
                predicted_pairs.clear();
                break;
            }
        }
    }
    let predicted = if predicted_pairs.is_empty() {
        Value::Null
    } else {
        Value::Object(predicted_pairs)
    };

    let body = Value::Object(vec![
        ("observed".into(), observed),
        ("predicted".into(), predicted),
        ("epoch".into(), epoch),
        ("stale".into(), stale),
        ("predicted_unavailable".into(), unavailable),
    ]);
    Response::json(200, body.encode())
}

/// Renders the full health summary as JSON.
pub fn status_body(s: &ServiceStatus) -> Value {
    let opt = |v: Option<f64>| v.map(Value::Number).unwrap_or(Value::Null);
    let drift = s
        .drift
        .iter()
        .map(|d| {
            Value::Object(vec![
                ("sla".into(), Value::Number(d.sla)),
                ("observed".into(), opt(d.observed)),
                ("predicted".into(), opt(d.predicted)),
                ("samples".into(), Value::Number(d.samples as f64)),
                ("drifted".into(), Value::Bool(d.drifted)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("event_time".into(), Value::Number(s.event_time)),
        ("epoch".into(), opt(s.epoch.map(|e| e as f64))),
        ("fitted_at".into(), opt(s.fitted_at)),
        ("stale".into(), Value::Bool(s.stale)),
        (
            "last_fit_error".into(),
            s.last_fit_error
                .as_ref()
                .map(|e| Value::String(e.clone()))
                .unwrap_or(Value::Null),
        ),
        (
            "cache".into(),
            Value::Object(vec![
                ("hits".into(), Value::Number(s.engine.cache.hits as f64)),
                ("misses".into(), Value::Number(s.engine.cache.misses as f64)),
                ("hit_rate".into(), Value::Number(s.engine.hit_rate())),
            ]),
        ),
        (
            "failed_refits".into(),
            Value::Number(s.engine.failed_refits as f64),
        ),
        ("drift".into(), Value::Array(drift)),
    ])
}

/// Encodes telemetry events as the `POST /v1/telemetry` wire format (a
/// JSON array). The inverse of [`decode_events`].
pub fn encode_events(events: &[TelemetryEvent]) -> String {
    let obj = |pairs: Vec<(&str, Value)>| {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let class_name = |c: OpClass| match c {
        OpClass::Index => "index",
        OpClass::Meta => "meta",
        OpClass::Data => "data",
    };
    let items = events
        .iter()
        .map(|ev| match *ev {
            TelemetryEvent::Arrival { at, device } => obj(vec![
                ("type", Value::String("arrival".into())),
                ("at", Value::Number(at)),
                ("device", Value::Number(device as f64)),
            ]),
            TelemetryEvent::DataRead { at, device } => obj(vec![
                ("type", Value::String("data_read".into())),
                ("at", Value::Number(at)),
                ("device", Value::Number(device as f64)),
            ]),
            TelemetryEvent::Op {
                at,
                device,
                class,
                latency,
            } => obj(vec![
                ("type", Value::String("op".into())),
                ("at", Value::Number(at)),
                ("device", Value::Number(device as f64)),
                ("class", Value::String(class_name(class).into())),
                ("latency", Value::Number(latency)),
            ]),
            TelemetryEvent::Completion {
                arrival,
                latency,
                device,
            } => obj(vec![
                ("type", Value::String("completion".into())),
                ("arrival", Value::Number(arrival)),
                ("latency", Value::Number(latency)),
                ("device", Value::Number(device as f64)),
            ]),
        })
        .collect();
    Value::Array(items).encode()
}

/// The reference decoder of the `POST /v1/telemetry` body, over a parsed
/// tree. [`json::decode_telemetry`] answers with this function's verdict,
/// `parse(text).and_then(|doc| decode_events(&doc))`, on every body its
/// fast path does not take, refusals included, and the property tests
/// hold the fast path to exactly this function's events. It is also the
/// entry point the benchmark's replay times. Errors name the offending
/// entry.
pub fn decode_events(doc: &Value) -> Result<Vec<TelemetryEvent>, String> {
    let items = doc
        .as_array()
        .ok_or_else(|| "telemetry body must be a JSON array".to_string())?;
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        out.push(event_from_fields(i, item)?);
    }
    Ok(out)
}

/// The per-event field rules of the telemetry wire format: which fields
/// each event type reads, in which order, their types, and the error
/// texts, prefixed with the event's `index`. A field is the first value
/// stored under its key in the item's object (never any value for a
/// non-object item).
fn event_from_fields(index: usize, item: &Value) -> Result<TelemetryEvent, String> {
    let get = |key: &str| Field::required(key, item.get(key).map(Value::as_field));
    let number = |key: &str| get(key)?.finite(key);
    let device = || get("device")?.index("device");
    let event = || match get("type")?.string("type")? {
        "arrival" => Ok(TelemetryEvent::Arrival {
            at: number("at")?,
            device: device()?,
        }),
        "data_read" => Ok(TelemetryEvent::DataRead {
            at: number("at")?,
            device: device()?,
        }),
        "op" => {
            let class = match get("class")?.string("class")? {
                "index" => OpClass::Index,
                "meta" => OpClass::Meta,
                "data" => OpClass::Data,
                other => return Err(format!("unknown op class `{other}`")),
            };
            Ok(TelemetryEvent::Op {
                at: number("at")?,
                device: device()?,
                class,
                latency: number("latency")?,
            })
        }
        "completion" => Ok(TelemetryEvent::Completion {
            arrival: number("arrival")?,
            latency: number("latency")?,
            device: device()?,
        }),
        other => Err(format!("unknown event type `{other}`")),
    };
    event().map_err(|e| format!("event {index}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_one;
    use cos_distr::{Degenerate, Gamma};
    use cos_queueing::from_distribution;
    use cos_serve::{CalibrationBase, ServeConfig, ServiceHandle, SlaService};

    fn spawn_service() -> ServiceHandle {
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
        SlaService::new(base, ServeConfig::default()).spawn()
    }

    /// A deterministic 20 s telemetry stream at 40 req/s per device.
    fn sample_events() -> Vec<TelemetryEvent> {
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
            t += 1.0 / 40.0;
        }
        out
    }

    fn req(raw: &str) -> Request {
        parse_one(raw.as_bytes()).unwrap().unwrap()
    }

    fn post(target: &str, body: &str) -> Request {
        let raw = format!(
            "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        req(&raw)
    }

    fn get(client: &ServiceClient, target: &str) -> Response {
        handle(
            client,
            &req(&format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n")),
        )
    }

    #[test]
    fn telemetry_roundtrip_feeds_the_service() {
        let handle_ = spawn_service();
        let client = handle_.client();
        let events = sample_events();
        let encoded = encode_events(&events);
        let decoded = decode_events(&json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, events, "wire format must round-trip");

        let resp = handle(&client, &post("/v1/telemetry", &encoded));
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let accepted = json::parse(std::str::from_utf8(&resp.body).unwrap())
            .unwrap()
            .usize_field("accepted")
            .unwrap();
        assert_eq!(accepted, events.len());

        // The stream spans 20 s of event time: auto-refit has installed an
        // epoch, so attainment answers immediately after the POST returns.
        let resp = get(&client, "/v1/attainment?sla=0.05");
        assert_eq!(resp.status, 200);
        let body = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let value = body.f64_field("value").unwrap();
        let direct = client
            .reader()
            .attainment(&Query::new().sla(0.05))
            .unwrap()
            .value;
        assert_eq!(value.to_bits(), direct.to_bits(), "JSON is bit-exact");
    }

    #[test]
    fn telemetry_for_devices_outside_the_base_is_422_and_ingests_nothing() {
        let handle_ = spawn_service();
        let client = handle_.client();
        let reader = client.reader();
        let valid = encode_events(&sample_events()[..240]);
        assert_eq!(handle(&client, &post("/v1/telemetry", &valid)).status, 200);
        client.refit_now().unwrap();
        let default = TenantId::default_tenant();
        let published = || {
            let fleet = reader.fleet().unwrap();
            (
                reader.generation(),
                fleet.get(&default).unwrap().events_total,
            )
        };
        let before = published();
        assert_eq!(before.1, 240);

        // 400 arrivals for device 7 on the 2-device base; one bad event
        // after valid ones; the largest device number below 2^64.
        let arrivals: Vec<TelemetryEvent> = (0..400)
            .map(|i| TelemetryEvent::Arrival {
                at: 1.0 + i as f64 * 0.01,
                device: 7,
            })
            .collect();
        let mut mixed = sample_events()[240..300].to_vec();
        mixed.insert(5, TelemetryEvent::DataRead { at: 7.0, device: 2 });
        let bodies = [
            (encode_events(&arrivals), "event 0 names device 7"),
            (encode_events(&mixed), "event 5 names device 2"),
            (
                r#"[{"type":"arrival","at":1.0,"device":18446744073709549568}]"#.to_string(),
                "event 0 names device 18446744073709549568",
            ),
        ];
        for (body, needle) in &bodies {
            for target in ["/v1/telemetry", "/v1/tenants/ghost/telemetry"] {
                let resp = handle(&client, &post(target, body));
                let text = String::from_utf8_lossy(&resp.body);
                assert_eq!(resp.status, 422, "{target}: {text}");
                assert!(text.contains(needle), "{target}: {text}");
                assert!(text.contains("has 2 devices"), "{target}: {text}");
            }
        }
        // 2^64, and 2^64 − 1 which parses to it, are no device number
        // `usize` holds: refused like any other non-integer device.
        for device in ["18446744073709551616", "18446744073709551615"] {
            let body = format!(r#"[{{"type":"arrival","at":1.0,"device":{device}}}]"#);
            for target in ["/v1/telemetry", "/v1/tenants/ghost/telemetry"] {
                let resp = handle(&client, &post(target, &body));
                let text = String::from_utf8_lossy(&resp.body);
                assert_eq!(resp.status, 400, "{target}: {text}");
                assert!(
                    text.contains("must be a non-negative integer"),
                    "{target}: {text}"
                );
            }
        }
        assert_eq!(published(), before, "a refused body publishes nothing");
        assert_eq!(
            get(&client, "/v1/tenants/ghost/status").status,
            404,
            "a refused body creates no tenant"
        );
        client.refit_now().unwrap();
        assert_eq!(published().1, 240, "a refused body counts no event");
        assert_eq!(handle(&client, &post("/v1/telemetry", &valid)).status, 200);
    }

    #[test]
    fn uncalibrated_service_answers_503_with_the_reason() {
        let handle_ = spawn_service();
        let client = handle_.client();
        let resp = get(&client, "/v1/attainment?sla=0.05");
        assert_eq!(resp.status, 503);
        assert!(String::from_utf8_lossy(&resp.body).contains("warming up"));
        // /v1/status and /metrics still answer while warming up.
        assert_eq!(get(&client, "/v1/status").status, 200);
        assert_eq!(get(&client, "/metrics").status, 200);
    }

    #[test]
    fn query_validation_is_400_with_the_parameter_named() {
        let handle_ = spawn_service();
        let client = handle_.client();
        for (target, needle) in [
            ("/v1/attainment", "sla"),
            ("/v1/attainment?sla=abc", "sla"),
            ("/v1/attainment?sla=-1", "sla"),
            ("/v1/attainment?sla=0.05&rate=0", "rate"),
            ("/v1/percentile?p=1.5", "p"),
            ("/v1/percentile", "p"),
            // The 1e-4 grid rounds these to p = 1, which has no answer.
            ("/v1/percentile?p=0.99995", "1e-4"),
            ("/v1/percentile?p=0.99999&n=4&k=2", "1e-4"),
            ("/v1/tenants/default/percentile?p=0.99999", "1e-4"),
            ("/v1/headroom?sla=0.05", "target"),
            ("/v1/headroom?sla=0.05&target=2", "target"),
            ("/v1/bottlenecks?sla=%zz", "percent"),
            ("/v1/attainment?sla=0.05&n=4", "together"),
            ("/v1/attainment?sla=0.05&k=2", "together"),
            ("/v1/attainment?sla=0.05&n=4&k=0", "1 <= k <= n"),
            ("/v1/attainment?sla=0.05&n=4&k=5", "1 <= k <= n"),
            ("/v1/attainment?sla=0.05&n=65&k=4", "1 <= k <= n"),
            // Past `u16`: out of range, never wrapped onto a valid stripe.
            ("/v1/attainment?sla=0.05&n=65537&k=1", "1 <= k <= n"),
            ("/v1/attainment?sla=0.05&n=4&k=65537", "1 <= k <= n"),
            ("/v1/attainment?sla=0.05&n=4.5&k=2", "integer"),
            ("/v1/attainment?sla=0.05&n=4&k=2&rate=50", "rate"),
            ("/v1/percentile?p=0.95&n=4", "together"),
            ("/v1/percentile?p=0.95&n=-4&k=2", "integer"),
        ] {
            let resp = get(&client, target);
            assert_eq!(resp.status, 400, "{target}");
            assert!(
                String::from_utf8_lossy(&resp.body).contains(needle),
                "{target}: {:?}",
                String::from_utf8_lossy(&resp.body)
            );
        }
    }

    #[test]
    fn every_service_error_maps_to_its_status() {
        let unstable = cos_model::ModelError::UnstableBackend { utilization: 1.2 };
        for (error, status) in [
            (ServeError::NotCalibrated, 503),
            (ServeError::Disconnected, 503),
            (ServeError::BadQuery { reason: "bad" }, 400),
            (ServeError::Unstable { cause: unstable }, 422),
            (ServeError::PercentileOutOfRange { p: 0.999 }, 422),
            (ServeError::GoalUnreachable, 422),
            (
                ServeError::UnknownDevice {
                    event: 0,
                    device: 7,
                    devices: 2,
                },
                422,
            ),
            (
                ServeError::UnknownTenant {
                    tenant: "ghost".into(),
                },
                404,
            ),
        ] {
            let text = error.to_string();
            let resp = service_error(error);
            assert_eq!(resp.status, status, "{text}");
            assert!(
                String::from_utf8_lossy(&resp.body).contains(&text),
                "{text}"
            );
        }
    }

    #[test]
    fn coded_queries_echo_the_spec_and_answer_like_the_client() {
        let handle_ = spawn_service();
        let client = handle_.client();
        for ev in sample_events() {
            client.ingest(ev).unwrap();
        }
        client.refit_now().unwrap();

        let resp = get(&client, "/v1/percentile?p=0.99&n=4&k=2");
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let body = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(body.f64_field("n").unwrap(), 4.0);
        assert_eq!(body.f64_field("k").unwrap(), 2.0);
        let snapshot_value = body.f64_field("value").unwrap();
        assert!(snapshot_value > 0.0);
        let direct = client
            .reader()
            .latency_percentile(&Query::new().p(0.99).n_k(4, 2))
            .unwrap()
            .value;
        assert_eq!(snapshot_value.to_bits(), direct.to_bits());

        // Coded attainment echoes the spec and answers in (0, 1].
        let resp = get(&client, "/v1/attainment?sla=0.05&n=6&k=4");
        assert_eq!(resp.status, 200);
        let body = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(body.f64_field("n").unwrap(), 6.0);
        let value = body.f64_field("value").unwrap();
        assert!(value > 0.0 && value <= 1.0);
    }

    #[test]
    fn headroom_answers_the_same_rate_for_a_far_upper_bound() {
        // A "rate → 0" floor of upper·1e-4 would put the floor at 1000
        // req/s for upper = 1e7, past this fit's answer, and the route would
        // refuse with 422; the answer must not depend on a far upper bound.
        let handle_ = spawn_service();
        let client = handle_.client();
        for ev in sample_events() {
            client.ingest(ev).unwrap();
        }
        client.refit_now().unwrap();
        let rate = |upper: &str| {
            let resp = get(
                &client,
                &format!("/v1/headroom?sla=0.1&target=0.9&upper={upper}"),
            );
            assert_eq!(
                resp.status,
                200,
                "upper={upper}: {:?}",
                String::from_utf8_lossy(&resp.body)
            );
            let body = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            body.f64_field("value").unwrap()
        };
        let reference = rate("1000");
        assert!(reference > 0.0 && reference < 1000.0, "{reference}");
        for upper in ["10000", "100000", "1000000", "10000000"] {
            assert_eq!(rate(upper).to_bits(), reference.to_bits(), "upper={upper}");
        }
    }

    #[test]
    fn routing_distinguishes_404_and_405() {
        let handle_ = spawn_service();
        let client = handle_.client();
        assert_eq!(get(&client, "/v1/nope").status, 404);
        assert_eq!(get(&client, "/").status, 404);
        let resp = handle(
            &client,
            &req("POST /v1/status HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"),
        );
        assert_eq!(resp.status, 405);
        assert!(resp
            .extra_headers
            .iter()
            .any(|(k, v)| *k == "Allow" && v == "GET"));
        let resp = get(&client, "/v1/telemetry");
        assert_eq!(resp.status, 405);
        assert!(resp
            .extra_headers
            .iter()
            .any(|(k, v)| *k == "Allow" && v == "POST"));
    }

    #[test]
    fn malformed_telemetry_bodies_are_400() {
        let handle_ = spawn_service();
        let client = handle_.client();
        for (body, needle) in [
            ("", "empty"),
            ("{}", "array"),
            ("[{\"type\":\"warp\"}]", "warp"),
            ("[{\"type\":\"arrival\",\"at\":1}]", "device"),
            (
                "[{\"type\":\"op\",\"at\":1,\"device\":0,\"class\":\"x\",\"latency\":1}]",
                "class",
            ),
            ("[1,2", "expected"),
            // A syntax error wins over an earlier event's refusal.
            ("[{\"type\":\"warp\"}", "expected"),
        ] {
            let resp = handle(&client, &post("/v1/telemetry", body));
            assert_eq!(resp.status, 400, "{body}");
            assert!(
                String::from_utf8_lossy(&resp.body).contains(needle),
                "{body}: {:?}",
                String::from_utf8_lossy(&resp.body)
            );
        }
    }

    #[test]
    fn selfcheck_reports_observed_and_predicted_sides() {
        let handle_ = spawn_service();
        let client = handle_.client();
        let registry = cos_obs::Registry::new();
        let obs = GateObs::register(&registry);

        // Warming up, nothing recorded: both sides null, still 200.
        let resp = handle_ctrl(
            &client,
            Some(&obs),
            None,
            &req("GET /v1/selfcheck HTTP/1.1\r\nHost: t\r\n\r\n"),
        );
        assert_eq!(resp.status, 200);
        let body = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(body.field("observed").unwrap(), &Value::Null);
        assert_eq!(body.field("predicted").unwrap(), &Value::Null);
        assert!(body
            .field("predicted_unavailable")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("warming up"));

        // Calibrate and record some gate latencies: both sides light up.
        for ev in sample_events() {
            client.ingest(ev).unwrap();
        }
        client.refit_now().unwrap();
        for ns in [200_000u64, 400_000, 800_000] {
            obs.request_hist("/v1/attainment").record_ns(ns);
        }
        let resp = handle_ctrl(
            &client,
            Some(&obs),
            None,
            &req("GET /v1/selfcheck HTTP/1.1\r\nHost: t\r\n\r\n"),
        );
        assert_eq!(resp.status, 200);
        let body = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let observed = body.field("observed").unwrap();
        assert_eq!(observed.f64_field("samples").unwrap(), 3.0);
        let op50 = observed.f64_field("p50").unwrap();
        let op99 = observed.f64_field("p99").unwrap();
        assert!(op50 > 0.0 && op50 <= op99, "{op50} vs {op99}");
        let predicted = body.field("predicted").unwrap();
        for q in ["p50", "p95", "p99"] {
            let v = predicted.f64_field(q).unwrap();
            assert!(v.is_finite() && v > 0.0, "{q} = {v}");
        }
        assert!(body.f64_field("epoch").unwrap() >= 1.0);
        assert_eq!(body.field("stale").unwrap(), &Value::Bool(false));

        // Without obs plumbing the observed side stays null.
        let resp = get(&client, "/v1/selfcheck");
        let body = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(body.field("observed").unwrap(), &Value::Null);
        assert!(body.field("predicted").unwrap().f64_field("p50").is_ok());
    }

    #[test]
    fn metrics_appends_the_instrument_registry() {
        let handle_ = spawn_service();
        let client = handle_.client();
        let registry = cos_obs::Registry::new();
        let obs = GateObs::register(&registry);
        obs.request_hist("/v1/status").record_ns(50_000);
        let resp = handle_ctrl(
            &client,
            Some(&obs),
            None,
            &req("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n"),
        );
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("cos_event_time_seconds"), "service summary");
        assert!(
            text.contains("cos_gate_request_seconds_bucket{route=\"/v1/status\",le="),
            "registry instruments appended"
        );
        // Without obs, /metrics is the plain service summary.
        let plain = get(&client, "/metrics");
        let plain = String::from_utf8(plain.body).unwrap();
        assert!(!plain.contains("cos_gate_request_seconds"));
    }

    fn controller(client: &ServiceClient) -> std::sync::Arc<Controller> {
        std::sync::Arc::new(
            Controller::new(client.reader(), cos_ctrl::CtrlConfig::default()).unwrap(),
        )
    }

    #[test]
    fn classification_maps_routes_and_headers() {
        let control = [
            "GET /v1/telemetry HTTP/1.1\r\nHost: t\r\n\r\n",
            "GET /v1/status HTTP/1.1\r\nHost: t\r\nx-sla-class: batch\r\n\r\n",
            "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n",
            "GET /v1/selfcheck HTTP/1.1\r\nHost: t\r\n\r\n",
            "GET /v1/anomalies HTTP/1.1\r\nHost: t\r\n\r\n",
        ];
        for raw in control {
            assert_eq!(classify(&req(raw)), SlaClass::Control, "{raw}");
        }
        let r = req("GET /v1/attainment?sla=0.05 HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(classify(&r), SlaClass::Standard);
        let r = req("GET /v1/attainment HTTP/1.1\r\nHost: t\r\nX-SLA-Class: Premium\r\n\r\n");
        assert_eq!(classify(&r), SlaClass::Premium);
        let r = req("GET /v1/attainment HTTP/1.1\r\nHost: t\r\nx-sla-class: batch\r\n\r\n");
        assert_eq!(classify(&r), SlaClass::Batch);
        // `control` is not nameable from the wire.
        let r = req("GET /v1/attainment HTTP/1.1\r\nHost: t\r\nx-sla-class: control\r\n\r\n");
        assert_eq!(classify(&r), SlaClass::Standard);
    }

    #[test]
    fn shedding_answers_429_with_retry_after_and_spares_control_routes() {
        let handle_ = spawn_service();
        let client = handle_.client();
        let ctrl = controller(&client);
        ctrl.force_shed(ctrl.policy().max_shed); // batch + standard shed fully
        let request = req("GET /v1/status HTTP/1.1\r\nHost: t\r\n\r\n");
        let resp = handle_ctrl(&client, None, Some(&ctrl), &request);
        assert_eq!(resp.status, 200, "control routes are never shed");
        // At max_shed (0.95 < 1) the error-diffusion accumulator admits
        // the very first request; the second crosses a whole unit.
        let request = req("GET /v1/attainment?sla=0.05 HTTP/1.1\r\nHost: t\r\n\r\n");
        let resp = (0..3)
            .map(|_| handle_ctrl(&client, None, Some(&ctrl), &request))
            .find(|r| r.status == 429)
            .expect("shedding at max_shed must refuse a standard request");
        assert!(resp
            .extra_headers
            .iter()
            .any(|(k, v)| *k == "Retry-After" && v == "1"));
        assert!(
            String::from_utf8_lossy(&resp.body).contains("standard"),
            "error names the class"
        );
        // A path that names no route is refused before admission.
        let nowhere = req("GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        for _ in 0..3 {
            assert_eq!(
                handle_ctrl(&client, None, Some(&ctrl), &nowhere).status,
                404
            );
        }
        // Back to zero shed, everything flows again (503: still warming).
        ctrl.force_shed(0.0);
        let resp = handle_ctrl(&client, None, Some(&ctrl), &request);
        assert_eq!(resp.status, 503);
    }

    #[test]
    fn anomalies_route_requires_a_controller() {
        let handle_ = spawn_service();
        let client = handle_.client();
        // Without a controller the route does not exist.
        assert_eq!(get(&client, "/v1/anomalies").status, 404);
        let ctrl = controller(&client);
        let request = req("GET /v1/anomalies HTTP/1.1\r\nHost: t\r\n\r\n");
        let resp = handle_ctrl(&client, None, Some(&ctrl), &request);
        assert_eq!(resp.status, 200);
        let body = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(
            body.field("anomalies").unwrap().as_array().unwrap().len(),
            0
        );
        assert_eq!(body.f64_field("anomalies_total").unwrap(), 0.0);
        assert_eq!(body.f64_field("shed_fraction").unwrap(), 0.0);
        assert!(body.field("last_tick").unwrap().field("violating").is_ok());
        // Wrong method: 405 with Allow.
        let request = req("POST /v1/anomalies HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
        let resp = handle_ctrl(&client, None, Some(&ctrl), &request);
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn metrics_carry_the_controller_block_and_shed_counter() {
        let handle_ = spawn_service();
        let client = handle_.client();
        let ctrl = controller(&client);
        ctrl.force_shed(0.5);
        let registry = cos_obs::Registry::new();
        let obs = GateObs::register(&registry);
        // One shed (batch at 50% sheds every second request; the first
        // crossing happens on request two).
        for _ in 0..2 {
            let request = req("GET /v1/headroom HTTP/1.1\r\nHost: t\r\nx-sla-class: batch\r\n\r\n");
            handle_ctrl(&client, Some(&obs), Some(&ctrl), &request);
        }
        assert_eq!(obs.sheds_total.get(), 1);
        let request = req("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        let resp = handle_ctrl(&client, Some(&obs), Some(&ctrl), &request);
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("cos_ctrl_shed_fraction 0.5"), "{text}");
        assert!(
            text.contains("cos_ctrl_shed_total{class=\"batch\"} 1"),
            "{text}"
        );
        assert!(text.contains("cos_gate_sheds_total 1"), "{text}");
        assert!(text.contains("cos_drifted_any 0"), "{text}");
        // Without a controller the block is absent (byte-compatible).
        let plain = get(&client, "/metrics");
        assert!(!String::from_utf8(plain.body).unwrap().contains("cos_ctrl_"));
    }

    #[test]
    fn status_body_carries_the_full_summary() {
        let handle_ = spawn_service();
        let client = handle_.client();
        for ev in sample_events() {
            client.ingest(ev).unwrap();
        }
        client.refit_now().unwrap();
        let reader = client.reader();
        reader.attainment(&Query::new().sla(0.05)).unwrap();
        reader.attainment(&Query::new().sla(0.05)).unwrap();
        let resp = get(&client, "/v1/status");
        let body = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert!(body.f64_field("epoch").unwrap() >= 1.0);
        assert_eq!(body.field("stale").unwrap(), &Value::Bool(false));
        let cache = body.field("cache").unwrap();
        assert!(cache.f64_field("hits").unwrap() >= 1.0);
        assert!(cache.f64_field("hit_rate").unwrap() > 0.0);
        assert_eq!(body.field("drift").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn legacy_routes_alias_the_default_tenant_byte_for_byte() {
        let handle_ = spawn_service();
        let client = handle_.client();
        let resp = handle(
            &client,
            &post("/v1/telemetry", &encode_events(&sample_events())),
        );
        assert_eq!(resp.status, 200);
        for (legacy, scoped) in [
            (
                "/v1/attainment?sla=0.05",
                "/v1/tenants/default/attainment?sla=0.05",
            ),
            (
                "/v1/attainment?sla=0.05&rate=90",
                "/v1/tenants/default/attainment?sla=0.05&rate=90",
            ),
            (
                "/v1/attainment?sla=0.05&n=6&k=4",
                "/v1/tenants/default/attainment?sla=0.05&n=6&k=4",
            ),
            (
                "/v1/percentile?p=0.99",
                "/v1/tenants/default/percentile?p=0.99",
            ),
            (
                "/v1/headroom?sla=0.05&target=0.9",
                "/v1/tenants/default/headroom?sla=0.05&target=0.9",
            ),
            (
                "/v1/bottlenecks?sla=0.05",
                "/v1/tenants/default/bottlenecks?sla=0.05",
            ),
            ("/v1/status", "/v1/tenants/default/status"),
            // Validation refusals alias too.
            (
                "/v1/attainment?sla=-1",
                "/v1/tenants/default/attainment?sla=-1",
            ),
        ] {
            let a = get(&client, legacy);
            let b = get(&client, scoped);
            assert_eq!(a.status, b.status, "{legacy} vs {scoped}");
            assert_eq!(
                a.body, b.body,
                "{legacy} vs {scoped} must be byte-identical"
            );
        }
        // The tenant-scoped telemetry POST aliases the legacy ingest.
        let a = handle(
            &client,
            &post("/v1/telemetry", &encode_events(&sample_events()[..12])),
        );
        let b = handle(
            &client,
            &post(
                "/v1/tenants/default/telemetry",
                &encode_events(&sample_events()[..12]),
            ),
        );
        assert_eq!(a.status, 200);
        assert_eq!(a.body, b.body);
    }

    #[test]
    fn tenant_routes_are_isolated_with_404_and_422_refusals() {
        let handle_ = spawn_service();
        let client = handle_.client();
        // Calibrate tenant `blue` only: its shard answers while the
        // default tenant is still warming up.
        let resp = handle(
            &client,
            &post(
                "/v1/tenants/blue/telemetry",
                &encode_events(&sample_events()),
            ),
        );
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let resp = get(&client, "/v1/tenants/blue/attainment?sla=0.05");
        assert_eq!(
            resp.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        assert_eq!(get(&client, "/v1/attainment?sla=0.05").status, 503);
        // An empty batch names a tenant but ingests nothing: still unknown.
        let resp = handle(&client, &post("/v1/tenants/ghost/telemetry", "[]"));
        assert_eq!(resp.status, 200);
        // A well-formed tenant nobody has named: 404.
        let resp = get(&client, "/v1/tenants/ghost/attainment?sla=0.05");
        assert_eq!(resp.status, 404);
        assert!(String::from_utf8_lossy(&resp.body).contains("unknown tenant"));
        assert_eq!(get(&client, "/v1/tenants/ghost/status").status, 404);
        // An id that could never exist: 422, whatever the tail.
        for target in [
            "/v1/tenants/NOPE/attainment?sla=0.05",
            "/v1/tenants/sp%20ace/status",
            "/v1/tenants/NOPE/anything",
        ] {
            assert_eq!(get(&client, target).status, 422, "{target}");
        }
        // Tails without a tenant-scoped form, or no tail at all: 404.
        for target in [
            "/v1/tenants/blue/selfcheck",
            "/v1/tenants/blue/metrics",
            "/v1/tenants/blue",
            "/v1/tenants/",
            "/v1/tenants/blue/status/extra",
        ] {
            assert_eq!(get(&client, target).status, 404, "{target}");
        }
        // Method discipline carries over.
        let resp = handle(
            &client,
            &req("POST /v1/tenants/blue/status HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"),
        );
        assert_eq!(resp.status, 405);
        assert!(resp
            .extra_headers
            .iter()
            .any(|(k, v)| *k == "Allow" && v == "GET"));
        let resp = get(&client, "/v1/tenants/blue/telemetry");
        assert_eq!(resp.status, 405);
        assert!(resp
            .extra_headers
            .iter()
            .any(|(k, v)| *k == "Allow" && v == "POST"));
        // Tenant ingest and status classify as control-plane.
        assert_eq!(
            classify(&req(
                "POST /v1/tenants/blue/telemetry HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
            )),
            SlaClass::Control
        );
        assert_eq!(
            classify(&req(
                "GET /v1/tenants/blue/status HTTP/1.1\r\nHost: t\r\n\r\n"
            )),
            SlaClass::Control
        );
        assert_eq!(
            classify(&req(
                "GET /v1/tenants/blue/attainment?sla=0.05 HTTP/1.1\r\nHost: t\r\n\r\n"
            )),
            SlaClass::Standard
        );
    }

    #[test]
    fn metrics_cap_tenant_label_cardinality_and_conserve_totals() {
        use crate::metrics::MAX_TENANT_SERIES;
        let handle_ = spawn_service();
        let client = handle_.client();
        // Ten tenants with distinct traffic (tenant `t{i}` ingests i+1
        // events) plus the idle default shard: more series than the cap.
        let mut expected_total = 0u64;
        for i in 0..10usize {
            let events: Vec<TelemetryEvent> = (0..=i)
                .map(|j| TelemetryEvent::Arrival {
                    at: j as f64,
                    device: 0,
                })
                .collect();
            expected_total += events.len() as u64;
            let resp = handle(
                &client,
                &post(
                    &format!("/v1/tenants/t{i}/telemetry"),
                    &encode_events(&events),
                ),
            );
            assert_eq!(resp.status, 200);
        }
        // Per-tenant counters publish with the snapshot: force a refit so
        // every dirty shard's events_total is current before the scrape.
        client.refit_now().unwrap();
        let resp = get(&client, "/metrics");
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("cos_tenants 11"), "{text}");
        let samples: Vec<(&str, u64)> = text
            .lines()
            .filter_map(|l| l.strip_prefix("cos_tenant_ingest_events_total{tenant=\""))
            .map(|l| {
                let (tenant, rest) = l.split_once('"').unwrap();
                (tenant, rest.trim_start_matches("} ").parse().unwrap())
            })
            .collect();
        assert_eq!(
            samples.len(),
            MAX_TENANT_SERIES + 1,
            "top-{MAX_TENANT_SERIES} named series plus the `other` aggregate: {samples:?}"
        );
        assert_eq!(samples.last().unwrap().0, "other");
        assert_eq!(samples[0], ("t9", 10), "busiest tenant leads");
        let sum: u64 = samples.iter().map(|&(_, v)| v).sum();
        assert_eq!(sum, expected_total, "counter total is conserved");
    }
}
