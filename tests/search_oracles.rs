//! The percentile and headroom searches against the solvers they replaced,
//! kept here as oracles: the Ridders quantile loop (two CDF probes per
//! step, no density), run with a budget large enough to converge, the
//! 50-step headroom bisection over `[upper·1e-4, upper]`, and the headroom
//! search that rebuilt and re-inverted the whole model at every probe.
//!
//! Inputs are seeded `FleetScenario` fits — the fleet shape the serving
//! benchmark queries: 8 tenants × 4 devices at 40 req/s — plus the corners
//! of the headroom search: an `N_be = 16` template (M/M/1/K disk), goals
//! unreachable at any rate, goals met at `upper`, and templates close to
//! ρ = 1. The inversion counts are budgets: at most 6 per device quantile
//! on the fleet fits, and 3 for a backend p95 on the S1 template. A
//! headroom search evaluates each `N_be = 1` device's union operation
//! once, and an `N_be = 16` device's once per probe.

mod common;

use common::fleet_fits;
use cosmodel::distr::{Degenerate, Gamma};
use cosmodel::model::{
    max_admissible_rate, model_at_rate, CodedReadModel, CodingSpec, DeviceParams, FrontendParams,
    ModelVariant, SlaGoal, SystemModel, SystemParams,
};
use cosmodel::numeric::{
    cdf_from_lst, invert_monotone, quantile_from_lst, Complex64, CountingLaplaceFn,
    InversionConfig, QUANTILE_INVERSION_BUDGET,
};
use cosmodel::queueing::{from_distribution, DynServiceTime, ServiceTime};
use cosmodel::serve::DEFAULT_HEADROOM_UPPER;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The retired quantile solver: geometric bracket growth, then
/// interleaved midpoint and Ridders probes on the CDF alone.
fn ridders_oracle<F: FnMut(f64) -> f64>(
    mut f: F,
    target: f64,
    initial_hi: f64,
    max_growth: usize,
    budget: usize,
) -> Option<f64> {
    let mut hi = initial_hi.max(1e-300);
    let mut f_hi = f(hi) - target;
    let mut growth = 0;
    while f_hi < 0.0 {
        growth += 1;
        if growth > max_growth {
            return None;
        }
        hi *= 2.0;
        f_hi = f(hi) - target;
    }
    if f_hi == 0.0 {
        return Some(hi);
    }
    let (mut a, mut fa) = (0.0f64, -target);
    let (mut b, mut fb) = (hi, f_hi);
    let tol = 1e-12 * hi.max(1.0);
    let mut probes = 0usize;
    while b - a > tol && probes < budget {
        let m = 0.5 * (a + b);
        let fm = f(m) - target;
        probes += 1;
        if fm == 0.0 {
            return Some(m);
        }
        let s = (fm * fm - fa * fb).sqrt();
        let x = if s > 0.0 && s.is_finite() {
            m - (m - a) * fm / s
        } else {
            m
        };
        if fm < 0.0 {
            (a, fa) = (m, fm);
        } else {
            (b, fb) = (m, fm);
        }
        if b - a <= tol || probes >= budget || !(x > a && x < b) {
            continue;
        }
        let fx = f(x) - target;
        probes += 1;
        if fx == 0.0 {
            return Some(x);
        }
        if fx < 0.0 {
            (a, fa) = (x, fx);
        } else {
            (b, fb) = (x, fx);
        }
    }
    Some(0.5 * (a + b))
}

/// The retired headroom search: 50 bisection halvings over
/// `[upper·1e-4, upper]`.
fn bisection_oracle(
    template: &SystemParams,
    variant: ModelVariant,
    goal: SlaGoal,
    upper: f64,
) -> Option<f64> {
    let ok = |rate: f64| -> bool {
        SystemModel::new(&template.scaled_to_rate(rate), variant)
            .map(|m| goal.met_by(&m))
            .unwrap_or(false)
    };
    let mut lo = upper * 1e-4;
    if !ok(lo) {
        return None;
    }
    let mut hi = upper;
    if ok(hi) {
        return Some(hi);
    }
    for _ in 0..50 {
        let mid = 0.5 * (lo + hi);
        if ok(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// The headroom search as it was before it reused the rate-free
/// transforms: every probe rebuilds the model at its rate and evaluates
/// Eq. 3 from scratch. Otherwise the same search as `max_admissible_rate`
/// (doubling or halving bracket from the template's rate, then
/// Anderson–Björck false position on the log-survival margin). Returns
/// the answer and the number of probes whose model built.
fn rebuild_per_probe_oracle(
    template: &SystemParams,
    variant: ModelVariant,
    goal: SlaGoal,
    upper: f64,
) -> (Option<f64>, usize) {
    let ln_target = (-goal.target_fraction).ln_1p();
    let mut stable = 0;
    let mut margin = |rate: f64| -> f64 {
        let f = SystemModel::new(&template.scaled_to_rate(rate), variant)
            .map(|m| {
                stable += 1;
                m.fraction_meeting_sla(goal.sla)
            })
            .ok()
            .filter(|f| !f.is_nan())
            .unwrap_or(0.0);
        let g = ln_target - (-f).ln_1p().max(f64::EPSILON.ln());
        if f >= goal.target_fraction {
            g.max(0.0)
        } else {
            g.min(-f64::MIN_POSITIVE)
        }
    };
    let own: f64 = template.devices.iter().map(|d| d.arrival_rate).sum();
    let start = own.min(upper);
    let answer = (|| {
        let m_start = margin(start);
        let (mut lo, mut m_lo, mut hi, mut m_hi);
        if m_start >= 0.0 {
            (lo, m_lo) = (start, m_start);
            loop {
                if lo == upper {
                    return Some(upper);
                }
                let rate = (2.0 * lo).min(upper);
                let m = margin(rate);
                if m < 0.0 {
                    (hi, m_hi) = (rate, m);
                    break;
                }
                (lo, m_lo) = (rate, m);
            }
        } else {
            (hi, m_hi) = (start, m_start);
            let floor = start * 1e-4;
            let m_floor = margin(floor);
            if m_floor < 0.0 {
                return None;
            }
            loop {
                let rate = 0.5 * hi;
                if rate <= floor {
                    (lo, m_lo) = (floor, m_floor);
                    break;
                }
                let m = margin(rate);
                if m >= 0.0 {
                    (lo, m_lo) = (rate, m);
                    break;
                }
                (hi, m_hi) = (rate, m);
            }
        }
        let anderson_bjorck = |new: f64, old: f64| {
            let g = 1.0 - new / old;
            if g > 0.0 {
                g
            } else {
                0.5
            }
        };
        let mut lo_moved_last = None;
        while hi - lo > 1e-9 * lo {
            let inset = 0.25e-9 * lo;
            let rate = (lo + (hi - lo) * m_lo / (m_lo - m_hi)).clamp(lo + inset, hi - inset);
            let m = margin(rate);
            if m >= 0.0 {
                if lo_moved_last == Some(true) {
                    m_hi *= anderson_bjorck(m, m_lo);
                }
                (lo, m_lo) = (rate, m);
                lo_moved_last = Some(true);
            } else {
                if lo_moved_last == Some(false) {
                    m_lo *= anderson_bjorck(m, m_hi);
                }
                (hi, m_hi) = (rate, m);
                lo_moved_last = Some(false);
            }
        }
        Some(lo)
    })();
    (answer, stable)
}

const PERCENTILES: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.995];

/// Probe budget the Ridders oracle runs with: enough for its bracket to
/// close to its 1e-12 tolerance on every fit here (its production budget
/// of 16 was not; see the last test).
const ORACLE_BUDGET: usize = 200;

fn assert_close(got: f64, want: f64, rel: f64, what: &str) {
    assert!(
        (got - want).abs() <= rel * want.abs(),
        "{what}: {got} vs oracle {want} ({:e} relative)",
        (got - want).abs() / want.abs()
    );
}

#[test]
fn plain_percentiles_match_ridders_on_fleet_fits() {
    for (tenant, params) in fleet_fits(5).iter().enumerate() {
        let m = SystemModel::new(params, ModelVariant::Full).expect("stable fit");
        let hint = m.mean_response().max(1e-6);
        for p in PERCENTILES {
            let got = m.latency_percentile(p).expect("reachable");
            let want =
                ridders_oracle(|t| m.fraction_meeting_sla(t), p, hint, 40, ORACLE_BUDGET).unwrap();
            assert_close(got, want, 1e-9, &format!("tenant {tenant} p={p}"));
            // The same search, counted: every probe inverts each device once.
            let mut probes = 0;
            let counted = invert_monotone(
                |t| {
                    probes += 1;
                    m.fraction_and_density(t)
                },
                p,
                hint,
                40,
                QUANTILE_INVERSION_BUDGET,
            );
            assert_eq!(counted.map(f64::to_bits), Some(got.to_bits()));
            assert!(probes <= 6, "tenant {tenant} p={p}: {probes} probes");
        }
    }
}

#[test]
fn coded_percentiles_match_ridders_on_fleet_fits() {
    for (tenant, params) in fleet_fits(5).iter().enumerate() {
        for (n, k) in [(4, 2), (6, 4)] {
            let m = CodedReadModel::new(params, CodingSpec::eager(n, k)).expect("stable fit");
            let hint = m.branch_mean_response().max(1e-6);
            for p in PERCENTILES {
                let what = format!("tenant {tenant} ({n},{k}) p={p}");
                let got = m.latency_percentile(p).expect("reachable");
                let want =
                    ridders_oracle(|t| m.fraction_meeting_sla(t), p, hint, 40, ORACLE_BUDGET)
                        .unwrap();
                assert_close(got, want, 1e-9, &what);
                let mut probes = 0;
                let counted = invert_monotone(
                    |t| {
                        probes += 1;
                        m.fraction_and_density(t)
                    },
                    p,
                    hint,
                    40,
                    QUANTILE_INVERSION_BUDGET,
                );
                assert_eq!(counted.map(f64::to_bits), Some(got.to_bits()), "{what}");
                assert!(probes <= 6, "{what}: {probes} probes");
            }
        }
    }
}

#[test]
fn device_quantiles_cost_at_most_six_inversions_on_fleet_fits() {
    let config = InversionConfig::default();
    for (tenant, params) in fleet_fits(11).iter().enumerate() {
        let m = SystemModel::new(params, ModelVariant::Full).expect("stable fit");
        for device in 0..m.devices().len() {
            let lst = |s: Complex64| m.device_response_lst(device, s);
            let hint = m.device_mean_response(device).max(1e-6);
            for p in PERCENTILES {
                let what = format!("tenant {tenant} device {device} p={p}");
                let counting = CountingLaplaceFn::new(&lst);
                let got = quantile_from_lst(&counting, p, hint, &config).expect("reachable");
                let want = ridders_oracle(
                    |t| cdf_from_lst(&lst, t, &config),
                    p,
                    hint,
                    40,
                    ORACLE_BUDGET,
                )
                .unwrap();
                assert_close(got, want, 1e-9, &what);
                assert!(
                    counting.batch_calls() <= 6,
                    "{what}: {} inversions",
                    counting.batch_calls()
                );
            }
        }
    }
}

/// The testbed-like S1 template at 120 req/s: 4 devices with one process
/// each, the cold-cache miss ratios, the benchmarked Gamma disk laws and
/// parse point masses.
fn s1_template() -> SystemParams {
    let per = 120.0 / 4.0;
    let device = DeviceParams {
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
    };
    SystemParams {
        frontend: FrontendParams {
            arrival_rate: 120.0,
            processes: 3,
            parse_fe: from_distribution(Degenerate::new(0.0003)),
        },
        devices: vec![device; 4],
    }
}

/// [`s1_template`] with `N_be = 16` and the warm cache the paper's S16
/// runs show, at 600 req/s.
fn s16_template() -> SystemParams {
    let mut t = s1_template().scaled_to_rate(600.0);
    for d in &mut t.devices {
        d.processes = 16;
        d.miss_index = 0.10;
        d.miss_meta = 0.08;
        d.miss_data = 0.18;
    }
    t
}

/// `template` scaled to 99.5% of the largest rate at which `variant`'s
/// queues are stable, so a loose goal brackets its answer near ρ = 1.
fn near_saturation(template: &SystemParams, variant: ModelVariant) -> SystemParams {
    let total: f64 = template.devices.iter().map(|d| d.arrival_rate).sum();
    let (mut stable, mut unstable) = (total * 1e-3, total * 1e3);
    for _ in 0..80 {
        let mid = (stable * unstable).sqrt();
        if model_at_rate(template, variant, mid).is_ok() {
            stable = mid;
        } else {
            unstable = mid;
        }
    }
    template.scaled_to_rate(0.995 * stable)
}

#[test]
fn headroom_is_bit_identical_to_the_rebuild_per_probe_search() {
    let variants = [
        ModelVariant::Full,
        ModelVariant::Odopr,
        ModelVariant::NoWta,
        ModelVariant::ResidualWta,
    ];
    // From easy to unreachable at any rate.
    let goals = [
        (5.0, 0.5),
        (1.0, 0.9),
        (0.25, 0.99),
        (0.1, 0.9),
        (0.05, 0.95),
        (0.02, 0.9),
        (0.001, 0.999),
    ];
    let (mut answered, mut unreachable, mut at_upper) = (0, 0, 0);
    for (shape, template) in [("S1", s1_template()), ("S16", s16_template())] {
        for variant in variants {
            let own: f64 = template.devices.iter().map(|d| d.arrival_rate).sum();
            let saturated = near_saturation(&template, variant);
            for (which, t, upper) in [
                ("template", &template, DEFAULT_HEADROOM_UPPER),
                // Below the template's own rate: the search starts at upper.
                ("clamped", &template, 0.5 * own),
                ("near ρ = 1", &saturated, DEFAULT_HEADROOM_UPPER),
            ] {
                for (sla, target) in goals {
                    let goal = SlaGoal::new(sla, target);
                    let what = format!("{shape} {which} {variant:?} sla={sla} target={target}");
                    let got = max_admissible_rate(t, variant, goal, upper);
                    let (want, _) = rebuild_per_probe_oracle(t, variant, goal, upper);
                    assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{what}");
                    match got {
                        None => unreachable += 1,
                        Some(r) if r == upper => at_upper += 1,
                        Some(_) => answered += 1,
                    }
                }
            }
        }
    }
    // Every kind of answer is covered.
    assert!(
        answered > 40 && unreachable > 10 && at_upper > 10,
        "{answered} bracketed, {unreachable} unreachable, {at_upper} at upper"
    );
}

/// A service law that counts its LST batches: one per evaluation of a
/// union operation it is the parse law of.
struct CountingLaw {
    inner: DynServiceTime,
    batches: AtomicUsize,
}

impl ServiceTime for CountingLaw {
    fn lst(&self, s: Complex64) -> Complex64 {
        self.inner.lst(s)
    }
    fn mean(&self) -> f64 {
        self.inner.mean()
    }
    fn second_moment(&self) -> f64 {
        self.inner.second_moment()
    }
    fn lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inner.lst_batch(s, out)
    }
}

/// `template` with a fresh counting parse law on every device.
fn counted(template: &SystemParams) -> (SystemParams, Vec<Arc<CountingLaw>>) {
    let mut t = template.clone();
    let laws: Vec<Arc<CountingLaw>> = t
        .devices
        .iter_mut()
        .map(|d| {
            let law = Arc::new(CountingLaw {
                inner: d.parse_be.clone(),
                batches: AtomicUsize::new(0),
            });
            d.parse_be = law.clone();
            law
        })
        .collect();
    (t, laws)
}

#[test]
fn a_headroom_search_evaluates_each_union_transform_once_per_rate_it_depends_on() {
    let goal = SlaGoal::new(0.1, 0.9);
    for (shape, template) in [("S1", s1_template()), ("S16", s16_template())] {
        let (t, laws) = counted(&template);
        let limit = max_admissible_rate(&t, ModelVariant::Full, goal, DEFAULT_HEADROOM_UPPER);
        let per_device: Vec<usize> = laws
            .iter()
            .map(|l| l.batches.load(Ordering::Relaxed))
            .collect();
        let (want, stable_probes) =
            rebuild_per_probe_oracle(&template, ModelVariant::Full, goal, DEFAULT_HEADROOM_UPPER);
        assert!(stable_probes > 4, "{shape}: {stable_probes} stable probes");
        // N_be = 1: the union law does not depend on the rate, so the
        // search evaluates it once. N_be = 16: its M/M/1/K disk law does,
        // so every probe whose queues are stable evaluates it.
        let once = if shape == "S1" { 1 } else { stable_probes };
        assert_eq!(per_device, vec![once; laws.len()], "{shape}");
        assert_eq!(limit, want, "{shape}");
    }
}

#[test]
fn an_s1_backend_p95_costs_at_most_three_inversions() {
    // From a 50 ms hint the Newton search lands in 3 inversions.
    let m = SystemModel::new(&s1_template(), ModelVariant::Full).expect("stable template");
    let backend = m.devices()[0].backend();
    let lst = |s: Complex64| backend.sojourn_lst(s);
    let counting = CountingLaplaceFn::new(&lst);
    quantile_from_lst(&counting, 0.95, 0.05, &InversionConfig::default()).expect("reachable");
    assert!(
        counting.batch_calls() <= 3,
        "{} inversions",
        counting.batch_calls()
    );
}

/// Headroom against the bisection oracle; the goal must hold at the
/// answer. Returns the answer.
fn assert_headroom_matches(t: &SystemParams, goal: SlaGoal, upper: f64, what: &str) -> Option<f64> {
    let got = max_admissible_rate(t, ModelVariant::Full, goal, upper);
    let want = bisection_oracle(t, ModelVariant::Full, goal, upper);
    match (got, want) {
        (Some(g), Some(w)) => {
            assert_close(g, w, 1e-7, what);
            let m = model_at_rate(t, ModelVariant::Full, g).expect("stable at the answer");
            assert!(goal.met_by(&m), "{what}: goal fails at {g}");
        }
        (None, None) => {}
        _ => panic!("{what}: {got:?} vs oracle {want:?}"),
    }
    got
}

#[test]
fn headroom_matches_bisection_on_fleet_fits() {
    for (tenant, params) in fleet_fits(5).iter().enumerate() {
        for (sla, target) in [
            (0.03, 0.9),
            (0.05, 0.95),
            (0.1, 0.9),
            (0.25, 0.9),
            (0.25, 0.99),
        ] {
            let what = format!("tenant {tenant} sla={sla} target={target}");
            let limit = assert_headroom_matches(
                params,
                SlaGoal::new(sla, target),
                DEFAULT_HEADROOM_UPPER,
                &what,
            );
            assert!(limit.is_some(), "{what}: unreachable");
        }
    }
}

#[test]
fn headroom_on_a_fleet_fit_does_not_depend_on_a_far_upper_bound() {
    // The bisection oracle takes its "rate → 0" floor as upper·1e-4, so
    // at upper = 1e7 the floor sits past this fit's answer and it reports
    // a reachable goal as unreachable; the search must not.
    let params = &fleet_fits(5)[0];
    let goal = SlaGoal::new(0.1, 0.9);
    let reference = assert_headroom_matches(params, goal, 1e3, "upper=1e3").unwrap();
    for upper in [1e4, 1e5, 1e6] {
        assert_headroom_matches(params, goal, upper, &format!("upper={upper}"));
    }
    for upper in [1e4, 1e5, 1e6, 1e7] {
        let got = max_admissible_rate(params, ModelVariant::Full, goal, upper);
        assert_eq!(got, Some(reference), "upper={upper}");
    }
    assert_eq!(
        bisection_oracle(params, ModelVariant::Full, goal, 1e7),
        None
    );
}

#[test]
fn headroom_corners_match_bisection() {
    let fit = &fleet_fits(5)[3];
    // N_be = 16: the disk queue becomes the M/M/1/K approximation.
    let mut wide = fit.clone();
    for d in &mut wide.devices {
        d.processes = 16;
    }
    for (sla, target) in [(0.05, 0.9), (0.1, 0.9), (0.25, 0.99)] {
        let what = format!("N_be=16 sla={sla} target={target}");
        assert_headroom_matches(&wide, SlaGoal::new(sla, target), 1e4, &what);
    }
    // Unreachable at any rate: disk-bound latencies never put 99.9% of
    // requests under a millisecond.
    let impossible = SlaGoal::new(0.001, 0.999);
    assert_eq!(
        assert_headroom_matches(fit, impossible, 1e4, "unreachable"),
        None
    );
    assert_eq!(
        assert_headroom_matches(&wide, impossible, 1e4, "unreachable, N_be=16"),
        None
    );
    // Met at upper.
    let goal = SlaGoal::new(0.25, 0.9);
    assert_eq!(
        assert_headroom_matches(fit, goal, 100.0, "met at upper"),
        Some(100.0)
    );
    // Close to ρ = 1: a template at 99.5% of the largest rate its queues
    // survive, and a loose goal that holds almost up to that rate.
    let total: f64 = fit.devices.iter().map(|d| d.arrival_rate).sum();
    let (mut stable, mut unstable) = (total, 1e4);
    for _ in 0..60 {
        let mid = 0.5 * (stable + unstable);
        if model_at_rate(fit, ModelVariant::Full, mid).is_ok() {
            stable = mid;
        } else {
            unstable = mid;
        }
    }
    let saturated = fit.scaled_to_rate(0.995 * stable);
    for (sla, target) in [(5.0, 0.5), (1.0, 0.9), (0.1, 0.9)] {
        let what = format!("ρ→1 sla={sla} target={target}");
        let limit = assert_headroom_matches(&saturated, SlaGoal::new(sla, target), 1e4, &what);
        assert!(limit.is_some(), "{what}: unreachable");
    }
}

#[test]
fn the_retired_budget_stopped_short_where_newton_converges() {
    // At its production budget of 16 probes the Ridders loop can run out
    // with a wide bracket: its Ridders probes creep up on the root from
    // one side while its midpoint probes only halve the other, and it
    // returned the midpoint. Over the plain and coded (4,2)/(6,4)
    // quantiles p50–p99.5 of `fleet_fits(5)` and `fleet_fits(11)` that
    // happens for 5 of 288, four of them 1.8e-3 relative off, this one
    // among them.
    let params = &fleet_fits(5)[1];
    let m = CodedReadModel::new(params, CodingSpec::eager(6, 4)).expect("stable fit");
    let hint = m.branch_mean_response();
    let short = ridders_oracle(|t| m.fraction_meeting_sla(t), 0.5, hint, 40, 16).unwrap();
    let converged =
        ridders_oracle(|t| m.fraction_meeting_sla(t), 0.5, hint, 40, ORACLE_BUDGET).unwrap();
    assert!(
        (short - converged).abs() > 1e-4 * converged,
        "{short} vs {converged}"
    );
    let got = m.latency_percentile(0.5).unwrap();
    assert_close(got, converged, 1e-9, "tenant 1 (6,4) p=0.5");
    assert!((m.fraction_meeting_sla(got) - 0.5).abs() < 1e-10);
}
