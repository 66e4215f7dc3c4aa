//! Seeded inputs. Everything a run sends — the fleet's telemetry history,
//! the live telemetry rounds, and each workload's request schedule — is
//! generated here from the seed, before any timer starts.

use cos_distr::{Degenerate, Gamma};
use cos_gate::encode_events;
use cos_queueing::from_distribution;
use cos_serve::{CalibrationBase, TelemetryEvent, TenantId, SLA_QUANTUM};
use cos_storesim::{FleetConfig, FleetScenario};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tenants in the fleet; each is an independent estimator shard.
pub const TENANTS: usize = 8;
/// Devices per tenant.
pub const DEVICES: usize = 4;
/// Arrival rate per device (req/s) of the simulated fleet: the fleet
/// default, so a 0.5 s round is a 480-event POST per tenant.
pub const RATE_PER_DEVICE: f64 = 40.0;
/// Event-time seconds of fleet history ingested by every set-up: six
/// calibration windows (30 s each), so that a set-up — dominated by the
/// refits the 5 s cadence runs on the way — takes about 0.2 s.
pub const HISTORY_S: f64 = 180.0;
/// Event-time seconds covered by one live telemetry round.
pub const ROUND_S: f64 = 0.5;
/// The service's default refit cadence (event-time seconds).
pub const REFIT_INTERVAL_S: f64 = 5.0;
/// The service's configured SLAs: each refit pre-warms their attainment.
pub const SLAS: [f64; 3] = [0.010, 0.050, 0.100];
/// A run measures this many slices, each on a fresh service: a set-up,
/// the catch-up telemetry, then an equal share of the window. Two things
/// change from one service to the next on a 2-vCPU VM: host steal, which
/// comes in episodes of seconds to minutes, and where the scheduler
/// places the client, reactor and service threads, which moves a slice's
/// medians by up to a third. Many short slices average both out.
pub const SLICES_RUN: usize = 12;
/// The slices each metric comes from: those the host stole least CPU from
/// during the part of the slice that metric measures (every slice's
/// answers are still checked).
pub const SLICES_KEPT: usize = 8;
/// Host steal (% of all CPU time over each part of a slice) up to which a
/// slice counts as quiet.
pub const QUIET_STEAL_PCT: f64 = 12.0;
/// While fewer than [`SLICES_KEPT`] slices were quiet, a run measures more
/// slices, up to this many in all: a short steal episode may end within
/// that time, and waiting it out beats reporting it.
pub const SLICES_MAX: usize = 16;
/// ... but only until the run has taken this many times its `--seconds`:
/// a steal episode longer than that (they last minutes) would otherwise
/// stretch every run it covers by half.
pub const EXTEND_UNTIL_WINDOWS: f64 = 3.5;
/// Live rounds posted (without reads) after each set-up of
/// `dashboard_warm` and `whatif_cold`, so every workload measures
/// telemetry writes and refits (five or six refits per slice).
pub const CATCH_UP_ROUNDS: usize = 60;

/// Live rounds generated per window second of `ingest_refit`.
const WINDOW_ROUNDS_PER_S: f64 = 90.0;
/// Cold questions generated per window second of `whatif_cold`.
const COLD_GETS_PER_S: f64 = 1_500.0;

/// Erasure-coding fan-outs `(n, k)` the cold workload asks about.
const CODINGS: [(u16, u16); 2] = [(4, 2), (6, 4)];

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every tenant's dashboard panel plus `/metrics`, all memo hits.
    DashboardWarm,
    /// Questions not yet asked in the epoch: every read misses.
    WhatifCold,
    /// Telemetry POSTs per tenant interleaved with reads; refits every
    /// tenth round.
    IngestRefit,
}

impl Workload {
    /// Every workload, in a fixed order.
    pub const ALL: [Workload; 3] = [
        Workload::DashboardWarm,
        Workload::WhatifCold,
        Workload::IngestRefit,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DashboardWarm => "dashboard_warm",
            Workload::WhatifCold => "whatif_cold",
            Workload::IngestRefit => "ingest_refit",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a GET asks, in the gate's snapped grid units, so the answer check
/// can evaluate the model at exactly the served inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Question {
    /// `attainment?sla=` (optionally `&rate=` or `&n=&k=`).
    Attainment {
        /// Tenant index.
        tenant: u8,
        /// SLA in `SLA_QUANTUM`s.
        sla_q: i64,
        /// What-if total rate in `RATE_QUANTUM`s.
        rate_q: Option<i64>,
        /// Erasure-coding fan-out.
        coding: Option<(u16, u16)>,
    },
    /// `percentile?p=` (optionally `&n=&k=`).
    Percentile {
        /// Tenant index.
        tenant: u8,
        /// Percentile in `FRACTION_QUANTUM`s.
        p_q: i64,
        /// Erasure-coding fan-out.
        coding: Option<(u16, u16)>,
    },
    /// `headroom?sla=&target=` with the default ceiling.
    Headroom {
        /// Tenant index.
        tenant: u8,
        /// SLA in `SLA_QUANTUM`s.
        sla_q: i64,
        /// Target fraction in `FRACTION_QUANTUM`s.
        frac_q: i64,
    },
    /// `bottlenecks?sla=`.
    Bottlenecks {
        /// Tenant index.
        tenant: u8,
        /// SLA in `SLA_QUANTUM`s.
        sla_q: i64,
    },
    /// `status`.
    Status {
        /// Tenant index.
        tenant: u8,
    },
    /// `GET /metrics`.
    Metrics,
}

impl Question {
    /// The tenant the question is about (`None` for `/metrics`).
    pub fn tenant(&self) -> Option<usize> {
        match *self {
            Question::Attainment { tenant, .. }
            | Question::Percentile { tenant, .. }
            | Question::Headroom { tenant, .. }
            | Question::Bottlenecks { tenant, .. }
            | Question::Status { tenant } => Some(tenant as usize),
            Question::Metrics => None,
        }
    }

    /// Whether the answer needs a fresh numerical inversion the first time
    /// it is asked in an epoch (as opposed to a status or metrics render).
    pub fn is_prediction(&self) -> bool {
        !matches!(self, Question::Status { .. } | Question::Metrics)
    }

    fn path(&self) -> String {
        let t = |i: u8| format!("/v1/tenants/tenant-{i:03}");
        let coding = |c: Option<(u16, u16)>| match c {
            Some((n, k)) => format!("&n={n}&k={k}"),
            None => String::new(),
        };
        match *self {
            Question::Attainment {
                tenant,
                sla_q,
                rate_q,
                coding: c,
            } => {
                let rate = rate_q.map_or(String::new(), |r| format!("&rate={}", fixed1(r)));
                format!(
                    "{}/attainment?sla={}{rate}{}",
                    t(tenant),
                    fixed4(sla_q),
                    coding(c)
                )
            }
            Question::Percentile {
                tenant,
                p_q,
                coding: c,
            } => format!("{}/percentile?p={}{}", t(tenant), fixed4(p_q), coding(c)),
            Question::Headroom {
                tenant,
                sla_q,
                frac_q,
            } => format!(
                "{}/headroom?sla={}&target={}",
                t(tenant),
                fixed4(sla_q),
                fixed4(frac_q)
            ),
            Question::Bottlenecks { tenant, sla_q } => {
                format!("{}/bottlenecks?sla={}", t(tenant), fixed4(sla_q))
            }
            Question::Status { tenant } => format!("{}/status", t(tenant)),
            Question::Metrics => "/metrics".to_string(),
        }
    }
}

/// `q × 1e-4` as an exact decimal string (`123` → `0.0123`).
fn fixed4(q: i64) -> String {
    format!("{}.{:04}", q / 10_000, q % 10_000)
}

/// `q × 0.1` as an exact decimal string (`1234` → `123.4`).
fn fixed1(q: i64) -> String {
    format!("{}.{}", q / 10, q % 10)
}

/// One GET on the wire, with the question it encodes.
#[derive(Debug, Clone)]
pub struct Get {
    /// The complete request bytes.
    pub wire: Vec<u8>,
    /// What it asks.
    pub question: Question,
}

impl Get {
    fn new(question: Question) -> Get {
        let wire = format!("GET {} HTTP/1.1\r\nHost: bench\r\n\r\n", question.path()).into_bytes();
        Get { wire, question }
    }
}

/// One telemetry POST on the wire.
#[derive(Debug, Clone)]
pub struct Post {
    /// The complete request bytes.
    pub wire: Vec<u8>,
    /// Where the JSON body starts in `wire`.
    pub body_at: usize,
    /// Tenant index.
    pub tenant: u8,
    /// Events in the body.
    pub events: usize,
    /// Whether ingesting this body crosses the refit cadence, so its
    /// flush runs a refit (mirrors the service's event-time rule).
    pub refits: bool,
}

impl Post {
    /// The JSON body.
    pub fn body(&self) -> &[u8] {
        &self.wire[self.body_at..]
    }
}

/// One round of live telemetry: a POST per tenant, then (in
/// `ingest_refit`) one read per tenant.
#[derive(Debug, Clone)]
pub struct Round {
    /// One POST per tenant, in tenant order.
    pub posts: Vec<Post>,
    /// Reads sent after the POSTs (empty outside `ingest_refit`).
    pub reads: Vec<Get>,
}

/// Everything a run sends, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// The workload they drive.
    pub workload: Workload,
    /// `tenant-000` … in index order.
    pub tenant_ids: Vec<TenantId>,
    /// Fleet history, tick-interleaved across tenants: `(tenant, event)`.
    pub history: Vec<(u8, TelemetryEvent)>,
    /// The set-up's first request (a pre-warmed configured-SLA answer).
    pub probe: Get,
    /// Live rounds after the history: the catch-up rounds, or (for
    /// `ingest_refit`) the window's rounds with their reads.
    pub rounds: Vec<Round>,
    /// The window's GETs: one dashboard pass (cycled), or the cold
    /// questions in order. Empty for `ingest_refit`.
    pub gets: Vec<Get>,
    /// FNV-1a digest of every generated byte and event.
    pub digest: u64,
}

/// The calibration base every tenant shard shares (4 devices).
pub fn base() -> CalibrationBase {
    CalibrationBase {
        index_law: from_distribution(Gamma::new(3.0, 250.0)),
        meta_law: from_distribution(Gamma::new(2.5, 312.5)),
        data_law: from_distribution(Gamma::new(3.5, 245.0)),
        parse_be: from_distribution(Degenerate::new(0.0005)),
        parse_fe: from_distribution(Degenerate::new(0.0003)),
        devices: DEVICES,
        processes_per_device: 1,
        frontend_processes: 3,
    }
}

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Digest of `bytes` alone.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.write(bytes);
        h.0
    }
}

/// A seeded draw-without-replacement pool over an integer grid.
struct Pool(Vec<i64>);

impl Pool {
    fn new(rng: &mut SmallRng, lo: i64, hi: i64, skip: &[i64]) -> Pool {
        let mut v: Vec<i64> = (lo..=hi).filter(|q| !skip.contains(q)).collect();
        for i in (1..v.len()).rev() {
            let j = rng.gen_range(0..=i);
            v.swap(i, j);
        }
        Pool(v)
    }

    fn take(&mut self) -> Option<i64> {
        self.0.pop()
    }
}

/// The configured SLAs in grid steps.
pub fn configured_sla_q() -> [i64; 3] {
    SLAS.map(|s| (s / SLA_QUANTUM).round() as i64)
}

impl Inputs {
    /// Generates a workload's inputs for a window of `seconds` split over
    /// [`SLICES_KEPT`] slices, every slice replaying the same inputs.
    /// The rounds and cold questions are sized for about 1.5× the request
    /// rate this stack reaches on a 2-vCPU host; a slice that exhausts
    /// them ends early and the run says so.
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Inputs {
        let slice = seconds / SLICES_KEPT as f64;
        let live_rounds = match workload {
            Workload::IngestRefit => (slice * WINDOW_ROUNDS_PER_S).ceil() as usize,
            _ => CATCH_UP_ROUNDS,
        };
        let max_gets = match workload {
            Workload::WhatifCold => (slice * COLD_GETS_PER_S).ceil() as usize,
            _ => 0,
        };
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_BE4C_0000_0000);
        let fleet = FleetScenario::new(FleetConfig {
            tenants: TENANTS,
            devices: DEVICES,
            rate_per_device: RATE_PER_DEVICE,
            duration: HISTORY_S + live_rounds as f64 * ROUND_S,
            seed,
        })
        .expect("valid fleet shape");
        let tenant_ids: Vec<TenantId> = (0..TENANTS).map(|i| fleet.tenant_id(i)).collect();
        let ticks = (fleet.config().duration * RATE_PER_DEVICE).ceil() as usize;
        let per_tick = fleet.events_per_tenant() / ticks;
        let history_ticks = (HISTORY_S * RATE_PER_DEVICE).round() as usize;
        let round_ticks = (ROUND_S * RATE_PER_DEVICE).round() as usize;

        // One tenant's stream at a time, so the full fleet stream is never
        // resident: keep its history slice, and per round its encoded POST
        // plus the event times the cadence mirror below needs.
        let mut history_cols: Vec<Vec<TelemetryEvent>> = Vec::with_capacity(TENANTS);
        let mut posts: Vec<Vec<(Post, Vec<f64>)>> = (0..live_rounds).map(|_| Vec::new()).collect();
        for (t, id) in tenant_ids.iter().enumerate() {
            let stream = fleet.events_for(t);
            history_cols.push(stream[..history_ticks * per_tick].to_vec());
            for (r, round) in posts.iter_mut().enumerate() {
                let lo = (history_ticks + r * round_ticks) * per_tick;
                let events = &stream[lo..lo + round_ticks * per_tick];
                let body = encode_events(events);
                let mut wire = format!(
                    "POST /v1/tenants/{id}/telemetry HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes();
                let body_at = wire.len();
                wire.extend_from_slice(body.as_bytes());
                let post = Post {
                    wire,
                    body_at,
                    tenant: t as u8,
                    events: events.len(),
                    refits: false,
                };
                round.push((post, events.iter().map(|e| e.time()).collect()));
            }
        }
        let mut history = Vec::with_capacity(TENANTS * history_ticks * per_tick);
        for tick in 0..history_ticks {
            for (t, col) in history_cols.iter().enumerate() {
                for ev in &col[tick * per_tick..(tick + 1) * per_tick] {
                    history.push((t as u8, *ev));
                }
            }
        }
        drop(history_cols);

        // Mirror of the service's cadence (`now - last_refit >= interval`,
        // with `now` the running maximum event time): which history events
        // and which POSTs run a refit.
        let mut now = 0.0f64;
        let mut last = 0.0f64;
        for (_, ev) in &history {
            now = now.max(ev.time());
            if now - last >= REFIT_INTERVAL_S {
                last = now;
            }
        }
        last = now; // the set-up's explicit refit_now

        let cfg = configured_sla_q();
        let mut rounds = Vec::with_capacity(live_rounds);
        let mut since_refit = 0usize;
        for round in posts {
            let mut refit_in_round = false;
            let posts: Vec<Post> = round
                .into_iter()
                .map(|(mut post, times)| {
                    for t in times {
                        now = now.max(t);
                        if now - last >= REFIT_INTERVAL_S {
                            last = now;
                            post.refits = true;
                        }
                    }
                    refit_in_round |= post.refits;
                    post
                })
                .collect();
            if refit_in_round {
                since_refit = 0;
            } else {
                since_refit += 1;
            }
            let reads = if workload == Workload::IngestRefit {
                (0..TENANTS as u8)
                    .map(|tenant| Get::new(ingest_read(tenant, since_refit, &cfg)))
                    .collect()
            } else {
                Vec::new()
            };
            rounds.push(Round { posts, reads });
        }

        let probe = Get::new(Question::Attainment {
            tenant: 0,
            sla_q: cfg[1],
            rate_q: None,
            coding: None,
        });
        let gets = match workload {
            Workload::DashboardWarm => dashboard_pass(&mut rng, &cfg),
            Workload::WhatifCold => cold_questions(&mut rng, &cfg, max_gets),
            Workload::IngestRefit => Vec::new(),
        };

        let mut h = Fnv::default();
        h.write(&seed.to_le_bytes());
        h.write(workload.name().as_bytes());
        for (t, ev) in &history {
            // `Debug` prints every f64 exactly (shortest round trip).
            h.write(format!("{t}{ev:?}").as_bytes());
        }
        h.write(&probe.wire);
        for round in &rounds {
            for p in &round.posts {
                h.write(&p.wire);
                h.write(&[p.refits as u8]);
            }
            for g in &round.reads {
                h.write(&g.wire);
            }
        }
        for g in &gets {
            h.write(&g.wire);
        }

        Inputs {
            workload,
            tenant_ids,
            history,
            probe,
            rounds,
            gets,
            digest: h.0,
        }
    }
}

/// The read a tenant sends in `ingest_refit`, `since_refit` rounds into
/// its epoch. Eight of every ten are answers the refit pre-warmed or that
/// were already asked this epoch; the p99 percentile and the headroom miss
/// once per epoch each.
fn ingest_read(tenant: u8, since_refit: usize, cfg: &[i64; 3]) -> Question {
    let attainment = |sla_q| Question::Attainment {
        tenant,
        sla_q,
        rate_q: None,
        coding: None,
    };
    match since_refit % 10 {
        2 | 7 => Question::Percentile {
            tenant,
            p_q: 9900,
            coding: None,
        },
        4 | 9 => Question::Headroom {
            tenant,
            sla_q: cfg[2],
            frac_q: 9000,
        },
        i => attainment(cfg[i % 3]),
    }
}

/// One dashboard pass: every tenant's panel (attainment at the three
/// configured SLAs, p95/p99, headroom, bottlenecks, status) plus
/// `/metrics`, in a seeded order that the window then repeats.
fn dashboard_pass(rng: &mut SmallRng, cfg: &[i64; 3]) -> Vec<Get> {
    let mut pass = vec![Get::new(Question::Metrics)];
    for tenant in 0..TENANTS as u8 {
        for &sla_q in cfg {
            pass.push(Get::new(Question::Attainment {
                tenant,
                sla_q,
                rate_q: None,
                coding: None,
            }));
        }
        for p_q in [9500, 9900] {
            pass.push(Get::new(Question::Percentile {
                tenant,
                p_q,
                coding: None,
            }));
        }
        pass.push(Get::new(Question::Headroom {
            tenant,
            sla_q: cfg[rng.gen_range(1..3)],
            frac_q: [9000, 9500][rng.gen_range(0..2)],
        }));
        pass.push(Get::new(Question::Bottlenecks {
            tenant,
            sla_q: cfg[rng.gen_range(0..3)],
        }));
        pass.push(Get::new(Question::Status { tenant }));
    }
    for i in (1..pass.len()).rev() {
        let j = rng.gen_range(0..=i);
        pass.swap(i, j);
    }
    pass
}

/// Slot kinds of the cold mix, per block of 20 questions: 15
/// single-inversion questions, 4 percentiles, 1 headroom.
#[derive(Debug, Clone, Copy)]
enum Cold {
    Sla,
    Rate,
    Coded,
    Bottleneck,
    Percentile,
    CodedPercentile,
    Headroom,
}

const COLD_BLOCK: [(Cold, usize); 7] = [
    (Cold::Sla, 4),
    (Cold::Rate, 4),
    (Cold::Coded, 4),
    (Cold::Bottleneck, 3),
    (Cold::Percentile, 2),
    (Cold::CodedPercentile, 2),
    (Cold::Headroom, 1),
];

/// Questions never asked before in the epoch: each (tenant, kind) draws
/// its varying input from a shuffled grid without replacement, and the
/// configured SLAs the refit pre-warms are excluded.
fn cold_questions(rng: &mut SmallRng, cfg: &[i64; 3], max: usize) -> Vec<Get> {
    let mut pools: Vec<[Pool; 7]> = (0..TENANTS)
        .map(|_| {
            [
                Pool::new(rng, 20, 2500, cfg),
                Pool::new(rng, 160, 2400, &[]),
                Pool::new(rng, 20, 2500, &[]),
                Pool::new(rng, 20, 2500, &[]),
                Pool::new(rng, 5000, 9950, &[]),
                Pool::new(rng, 5000, 9950, &[]),
                Pool::new(rng, 300, 2500, &[]),
            ]
        })
        .collect();
    let mut block: Vec<Cold> = COLD_BLOCK
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
        .collect();
    let mut out = Vec::with_capacity(max);
    'fill: while out.len() < max {
        for i in (1..block.len()).rev() {
            let j = rng.gen_range(0..=i);
            block.swap(i, j);
        }
        for &kind in &block {
            let tenant = rng.gen_range(0..TENANTS as u8);
            let pool = &mut pools[tenant as usize][kind as usize];
            let Some(v) = pool.take() else {
                break 'fill;
            };
            let coding = CODINGS[rng.gen_range(0..CODINGS.len())];
            let q = match kind {
                Cold::Sla => Question::Attainment {
                    tenant,
                    sla_q: v,
                    rate_q: None,
                    coding: None,
                },
                Cold::Rate => Question::Attainment {
                    tenant,
                    sla_q: cfg[1],
                    rate_q: Some(v),
                    coding: None,
                },
                Cold::Coded => Question::Attainment {
                    tenant,
                    sla_q: v,
                    rate_q: None,
                    coding: Some(coding),
                },
                Cold::Bottleneck => Question::Bottlenecks { tenant, sla_q: v },
                Cold::Percentile => Question::Percentile {
                    tenant,
                    p_q: v,
                    coding: None,
                },
                Cold::CodedPercentile => Question::Percentile {
                    tenant,
                    p_q: v,
                    coding: Some(coding),
                },
                Cold::Headroom => Question::Headroom {
                    tenant,
                    sla_q: v,
                    frac_q: 9000,
                },
            };
            out.push(Get::new(q));
        }
    }
    out.truncate(max);
    out
}
