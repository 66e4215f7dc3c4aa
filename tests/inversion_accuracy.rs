//! Accuracy oracle for the model's delay-free inversion.
//!
//! Every device CDF the model answers inverts `L[S − D](s)/s` at `t − D`,
//! where `D` is the device's constant parse delay, with a 20-burn-in-term
//! Euler series (`DELAY_FREE_INVERSION`). The retired method inverted the
//! full transform `L[S](s)/s` at `t` with the default 100-term series,
//! which is kept here as `parent`. The checks:
//!
//! * (a) the delay-free transform times `e^{−sD}` is Eq. 2: it matches
//!   `device_response_lst` and the product of the component transforms,
//!   parse factors included, on the Euler contours of 2 ms, 50 ms and
//!   0.4 s;
//! * (b) served CDFs are never further from a long-series reference (Euler
//!   n = 4000 on the full transform) than `parent` is, beyond a 1e-9 floor;
//! * (c) fleet percentiles, plain and coded, stay within 1e-7 relative of
//!   `parent`'s percentiles solved to convergence;
//! * (d) any `t ≤ D` answers exactly 0.
//!
//! Templates are built the way the online calibrator builds them: Gamma
//! disk laws rescaled to a mean, `Degenerate` parse laws. Beside
//! single-device S1 and S16 templates per variant, the seeded
//! `FleetScenario` fits that `tests/search_oracles.rs` uses are checked,
//! and (a) also covers parse laws with spread, which carry no delay.

mod common;

use common::fleet_fits;
use cosmodel::distr::{Degenerate, Gamma};
use cosmodel::model::params::{DeviceParams, FrontendParams};
use cosmodel::model::{
    rescale_to_mean, CodedReadModel, CodingSpec, ModelVariant, SystemModel, SystemParams,
};
use cosmodel::numeric::roots::brent;
use cosmodel::numeric::{cdf_from_lst, Complex64, InversionConfig, LaplaceFn};
use cosmodel::queueing::fork_join::k_of_n_tail;
use cosmodel::queueing::{from_distribution, DynServiceTime};

const VARIANTS: [ModelVariant; 4] = [
    ModelVariant::Full,
    ModelVariant::Odopr,
    ModelVariant::NoWta,
    ModelVariant::ResidualWta,
];

/// Euler with `terms` burn-in terms.
fn euler(terms: usize) -> InversionConfig {
    InversionConfig { terms }
}

fn rescaled_gamma(shape: f64, rate: f64, mean: f64) -> DynServiceTime {
    rescale_to_mean(&from_distribution(Gamma::new(shape, rate)), mean)
}

/// Frontend and backend parse point masses: the benchmarked pair every
/// template in the repository uses, twice that pair, and a long backend
/// parse. At a delay of 8 ms the reference's own aliasing error (about
/// `e^{−18.4}·F(3t)`, which `parent` shares because both invert at `t`)
/// passes the 1e-9 floor, so the oracle stops being one.
const PARSE: [(f64, f64); 3] = [(0.0003, 0.0005), (0.0006, 0.001), (0.0003, 0.0025)];

/// A one-device template: S1 (`N_be = 1`, cold cache) or S16
/// (`N_be = 16`, the warm cache the paper's S16 runs show).
fn template(processes: usize, rate: f64, (parse_fe, parse_be): (f64, f64)) -> SystemParams {
    let (misses, disk_scale) = if processes == 1 {
        ([0.3, 0.25, 0.4], 1.0)
    } else {
        ([0.10, 0.08, 0.18], 1.3)
    };
    SystemParams {
        frontend: FrontendParams {
            arrival_rate: rate,
            processes: 3,
            parse_fe: from_distribution(Degenerate::new(parse_fe)),
        },
        devices: vec![DeviceParams {
            arrival_rate: rate,
            data_read_rate: rate * 1.1,
            miss_index: misses[0],
            miss_meta: misses[1],
            miss_data: misses[2],
            index_disk: rescaled_gamma(3.0, 250.0, 0.011 * disk_scale),
            meta_disk: rescaled_gamma(2.5, 312.5, 0.0085 * disk_scale),
            data_disk: rescaled_gamma(3.5, 245.0, 0.0135 * disk_scale),
            parse_be: from_distribution(Degenerate::new(parse_be)),
            processes,
        }],
    }
}

/// S1 and S16 templates at two loads each and every parse pair, under
/// every variant, with the delay each device must report.
fn synthetic_models() -> Vec<(String, SystemModel, f64)> {
    let mut out = Vec::new();
    for parse in PARSE {
        for (processes, rate) in [(1, 25.0), (1, 50.0), (16, 100.0), (16, 150.0)] {
            let params = template(processes, rate, parse);
            for variant in VARIANTS {
                let name = format!("S{processes} at {rate}/s, parse {parse:?}, {variant:?}");
                let m = SystemModel::new(&params, variant).expect("stable template");
                out.push((name, m, parse.0 + parse.1));
            }
        }
    }
    out
}

/// One device's full transform `L[S](s)`, batched.
struct FullLst<'a> {
    model: &'a SystemModel,
    idx: usize,
}

impl LaplaceFn for FullLst<'_> {
    fn eval(&self, s: Complex64) -> Complex64 {
        self.model.device_response_lst(self.idx, s)
    }
    fn eval_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        self.model.device_response_lst_batch(self.idx, s, out)
    }
}

/// Device `idx`'s CDF at `t` by inverting the full transform with `config`.
fn full_cdf(m: &SystemModel, idx: usize, t: f64, config: &InversionConfig) -> f64 {
    cdf_from_lst(&FullLst { model: m, idx }, t, config)
}

/// Eq. 3 over per-device CDFs from `cdf`.
fn rate_weighted(m: &SystemModel, cdf: impl Fn(usize) -> f64) -> f64 {
    let total: f64 = m.devices().iter().map(|d| d.arrival_rate()).sum();
    m.devices()
        .iter()
        .enumerate()
        .map(|(i, d)| d.arrival_rate() * cdf(i))
        .sum::<f64>()
        / total
}

/// The retired method's system CDF: Euler n = 100 on the full transforms.
fn parent_cdf(m: &SystemModel, t: f64) -> f64 {
    rate_weighted(m, |i| full_cdf(m, i, t, &InversionConfig::default()))
}

/// Eq. 2 composed from the component transforms, parse factors included.
fn eq2(m: &SystemModel, idx: usize, s: Complex64) -> Complex64 {
    let be = m.devices()[idx].backend();
    let wta = match m.variant() {
        ModelVariant::Full | ModelVariant::Odopr => be.waiting_lst(s),
        ModelVariant::NoWta => Complex64::ONE,
        ModelVariant::ResidualWta => {
            let (mean, rho) = (be.mean_waiting(), be.utilization());
            (Complex64::ONE - be.waiting_lst(s)) / (s * mean) * rho + (1.0 - rho)
        }
    };
    m.frontend().sojourn_lst(s) * be.sojourn_lst(s) * wta
}

/// The benchmarked S1 template with Gamma parse laws of the same means
/// (coefficient of variation 5%): laws with spread, which are not delays.
fn spread_parse_template() -> SystemParams {
    let mut params = template(1, 45.0, PARSE[0]);
    params.frontend.parse_fe = from_distribution(Gamma::new(400.0, 400.0 / PARSE[0].0));
    params.devices[0].parse_be = from_distribution(Gamma::new(400.0, 400.0 / PARSE[0].1));
    params
}

#[test]
fn delay_free_transform_times_the_shift_is_eq2() {
    let spread = VARIANTS.map(|variant| {
        let m = SystemModel::new(&spread_parse_template(), variant).expect("stable template");
        (format!("spread parse, {variant:?}"), m, 0.0)
    });
    for (name, m, delay) in synthetic_models().into_iter().chain(spread) {
        assert_eq!(m.device_delay(0), delay, "{name}");
        // Eq. 2 rounds the phases of its parse factors apart; that error
        // grows with the delay, and is within 1e-13 at the benchmarked one.
        let tolerance = 1e-13 * (delay / (PARSE[0].0 + PARSE[0].1)).max(1.0);
        for t in [0.002, 0.05, 0.4] {
            // The default Euler contour at `t`, a superset of the served one.
            let x = 18.4 / (2.0 * t);
            for k in 0..112 {
                let s = Complex64::new(x, k as f64 * std::f64::consts::PI / t);
                let shifted = m.device_delay_free_lst(0, s) * (s * -delay).exp();
                for (what, want) in [
                    ("device_response_lst", m.device_response_lst(0, s)),
                    ("Eq. 2", eq2(&m, 0, s)),
                ] {
                    let rel = (shifted - want).abs() / want.abs();
                    assert!(rel <= tolerance, "{name} t={t} k={k} vs {what}: {rel:e}");
                }
            }
        }
    }
}

/// SLAs from 2 ms to 1 s, log-spaced.
fn sla_grid(points: usize) -> Vec<f64> {
    (0..points)
        .map(|i| 0.002 * 500f64.powf(i as f64 / (points - 1) as f64))
        .collect()
}

#[test]
fn served_cdfs_are_no_further_from_a_long_series_than_the_parent() {
    let reference = euler(4000);
    let mut models: Vec<(String, SystemModel)> = synthetic_models()
        .into_iter()
        .map(|(name, m, _)| (name, m))
        .collect();
    for seed in [5, 11] {
        for (tenant, params) in fleet_fits(seed).iter().enumerate() {
            let m = SystemModel::new(params, ModelVariant::Full).expect("stable fit");
            models.push((format!("fleet {seed} tenant {tenant}"), m));
        }
    }
    let (mut worst_served, mut worst_parent) = (0.0f64, 0.0f64);
    for (name, m) in &models {
        for t in sla_grid(13) {
            let want = rate_weighted(m, |i| full_cdf(m, i, t, &reference));
            let served = (m.fraction_meeting_sla(t) - want).abs();
            let parent = (parent_cdf(m, t) - want).abs();
            assert!(
                served <= parent.max(1e-9),
                "{name} t={t}: served off by {served:e}, parent by {parent:e}"
            );
            worst_served = worst_served.max(served);
            worst_parent = worst_parent.max(parent);
        }
    }
    assert!(
        worst_served < worst_parent,
        "worst served {worst_served:e} vs parent {worst_parent:e}"
    );
}

const PERCENTILES: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.995];

/// The root of `cdf = p` to within 1e-15 relative, bracketed around `near`.
fn converged_root(cdf: impl Fn(f64) -> f64, p: f64, near: f64) -> f64 {
    brent(|t| cdf(t) - p, 0.5 * near, 2.0 * near, 1e-15 * near, 200).expect("bracketed root")
}

fn assert_close(got: f64, want: f64, rel: f64, what: &str) {
    assert!(
        (got - want).abs() <= rel * want,
        "{what}: {got} vs {want} ({:e} relative)",
        (got - want).abs() / want
    );
}

#[test]
fn fleet_percentiles_match_the_parent_method_solved_to_convergence() {
    let default = InversionConfig::default();
    for (tenant, params) in fleet_fits(5).iter().enumerate() {
        let m = SystemModel::new(params, ModelVariant::Full).expect("stable fit");
        for p in PERCENTILES {
            let got = m.latency_percentile(p).expect("reachable");
            let want = converged_root(|t| parent_cdf(&m, t), p, got);
            assert_close(got, want, 1e-7, &format!("tenant {tenant} p={p}"));
        }
        let nd = m.devices().len();
        for (n, k) in [(4, 2), (6, 4)] {
            let coded = CodedReadModel::new(params, CodingSpec::eager(n, k)).expect("stable fit");
            let parent_coded = |t: f64| {
                let per_device: Vec<f64> = (0..nd).map(|d| full_cdf(&m, d, t, &default)).collect();
                let branches: Vec<f64> = (0..n).map(|i| per_device[i % nd]).collect();
                k_of_n_tail(&branches, k)
            };
            for p in PERCENTILES {
                let got = coded.latency_percentile(p).expect("reachable");
                let want = converged_root(parent_coded, p, got);
                assert_close(got, want, 1e-7, &format!("tenant {tenant} ({n},{k}) p={p}"));
            }
        }
    }
}

#[test]
fn at_or_below_the_delay_every_answer_is_exactly_zero() {
    let fit = &fleet_fits(5)[0];
    let mut models = synthetic_models();
    models.push((
        "fleet 5 tenant 0".into(),
        SystemModel::new(fit, ModelVariant::Full).expect("stable fit"),
        PARSE[0].0 + PARSE[0].1,
    ));
    let at_or_below = |delay: f64| {
        [
            0.0,
            1e-9,
            0.5 * delay,
            f64::from_bits(delay.to_bits() - 1),
            delay,
        ]
    };
    for (name, m, delay) in &models {
        for i in 0..m.devices().len() {
            assert_eq!(m.device_delay(i), *delay, "{name} device {i}");
        }
        for t in at_or_below(*delay) {
            assert_eq!(m.fraction_meeting_sla(t), 0.0, "{name} t={t}");
            assert_eq!(m.fraction_and_density(t), (0.0, 0.0), "{name} t={t}");
        }
        // Just past it, the answer is a probability again: the mass of the
        // atom at `D` (all cache hits, idle queues) and then some.
        let after = m.fraction_meeting_sla(delay * (1.0 + 1e-9));
        assert!(after > 0.0 && after <= 1.0, "{name}: {after}");
    }
    let coded = CodedReadModel::new(fit, CodingSpec::eager(6, 4)).expect("stable fit");
    for t in at_or_below(PARSE[0].0 + PARSE[0].1) {
        assert_eq!(coded.fraction_meeting_sla(t), 0.0, "coded t={t}");
        assert_eq!(coded.fraction_and_density(t), (0.0, 0.0), "coded t={t}");
    }
}
