//! Golden bit-identity tests: the batched composite response transforms —
//! full and delay-free — must reproduce the scalar paths exactly
//! (`f64::to_bits` equality), for every model variant and for both the
//! S1-like and S16-like system shapes, on a contour covering the Euler
//! vertical line and real points off it. The served CDFs, which
//! share one inversion plan and one frontend evaluation among the devices
//! of equal delay, must equal per-device inversions of the scalar
//! transform just as exactly.

use cos_distr::{Degenerate, Gamma};
use cos_model::params::{DeviceParams, FrontendParams};
use cos_model::{
    CodedReadModel, CodingSpec, FrontendModel, FrontendSetParams, ModelVariant, SystemModel,
    SystemParams, DELAY_FREE_INVERSION,
};
use cos_numeric::{cdf_and_density_from_lst, cdf_from_lst, Complex64};
use cos_queueing::fork_join::k_of_n_tail;
use cos_queueing::from_distribution;

fn s1_params(rate: f64) -> SystemParams {
    SystemParams {
        frontend: FrontendParams {
            arrival_rate: rate * 4.0,
            processes: 3,
            parse_fe: from_distribution(Degenerate::new(0.0003)),
        },
        devices: (0..4)
            .map(|_| DeviceParams {
                arrival_rate: rate,
                data_read_rate: rate * 1.1,
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

/// S1 with Gamma parse laws of the same means: laws with spread, which the
/// model does not factor out as delays.
fn spread_parse_params(rate: f64) -> SystemParams {
    let mut p = s1_params(rate);
    p.frontend.parse_fe = from_distribution(Gamma::new(400.0, 400.0 / 0.0003));
    for d in &mut p.devices {
        d.parse_be = from_distribution(Gamma::new(400.0, 400.0 / 0.0005));
    }
    p
}

/// Abscissae on and off the inversion contour: the Euler vertical line
/// `(a/2t, kπ/t)`, and real points `k ln2 / t`, where the transforms take
/// real values and every imaginary part is a signed zero.
fn contour() -> Vec<Complex64> {
    let mut s = Vec::new();
    for &t in &[0.005, 0.05, 0.4] {
        let half_a = 18.4 / (2.0 * t);
        s.push(Complex64::from_real(half_a));
        for k in 1..=24 {
            s.push(Complex64::new(half_a, k as f64 * std::f64::consts::PI / t));
        }
        for k in 1..=14 {
            s.push(Complex64::from_real(k as f64 * std::f64::consts::LN_2 / t));
        }
    }
    s
}

fn assert_bits_equal(scalar: &[Complex64], batch: &[Complex64], what: &str) {
    for (i, (a, b)) in scalar.iter().zip(batch.iter()).enumerate() {
        assert_eq!(
            a.re.to_bits(),
            b.re.to_bits(),
            "{what}: re differs at point {i}: {} vs {}",
            a.re,
            b.re
        );
        assert_eq!(
            a.im.to_bits(),
            b.im.to_bits(),
            "{what}: im differs at point {i}: {} vs {}",
            a.im,
            b.im
        );
    }
}

fn check_all_devices(params: &SystemParams, variant: ModelVariant, what: &str) {
    let m = SystemModel::new(params, variant).unwrap();
    let s = contour();
    let mut batch = vec![Complex64::ZERO; s.len()];
    for idx in 0..m.devices().len() {
        let scalar: Vec<Complex64> = s.iter().map(|&p| m.device_response_lst(idx, p)).collect();
        m.device_response_lst_batch(idx, &s, &mut batch);
        assert_bits_equal(&scalar, &batch, &format!("{what} device {idx}"));
        let scalar: Vec<Complex64> = s.iter().map(|&p| m.device_delay_free_lst(idx, p)).collect();
        m.device_delay_free_lst_batch(idx, &s, &mut batch);
        assert_bits_equal(&scalar, &batch, &format!("{what} device {idx} delay-free"));
    }
}

#[test]
fn full_variant_batch_is_bit_identical() {
    check_all_devices(&s1_params(40.0), ModelVariant::Full, "S1/full");
    check_all_devices(&s16_params(150.0), ModelVariant::Full, "S16/full");
    check_all_devices(
        &spread_parse_params(40.0),
        ModelVariant::Full,
        "spread/full",
    );
}

#[test]
fn odopr_variant_batch_is_bit_identical() {
    check_all_devices(&s1_params(40.0), ModelVariant::Odopr, "S1/odopr");
    check_all_devices(&s16_params(150.0), ModelVariant::Odopr, "S16/odopr");
    check_all_devices(
        &spread_parse_params(40.0),
        ModelVariant::Odopr,
        "spread/odopr",
    );
}

#[test]
fn nowta_variant_batch_is_bit_identical() {
    check_all_devices(&s1_params(40.0), ModelVariant::NoWta, "S1/nowta");
    check_all_devices(&s16_params(150.0), ModelVariant::NoWta, "S16/nowta");
    check_all_devices(
        &spread_parse_params(40.0),
        ModelVariant::NoWta,
        "spread/nowta",
    );
}

#[test]
fn residual_wta_variant_batch_is_bit_identical() {
    check_all_devices(&s1_params(40.0), ModelVariant::ResidualWta, "S1/residual");
    check_all_devices(
        &s16_params(150.0),
        ModelVariant::ResidualWta,
        "S16/residual",
    );
    check_all_devices(
        &spread_parse_params(40.0),
        ModelVariant::ResidualWta,
        "spread/residual",
    );
}

#[test]
fn batched_cdf_matches_closure_cdf() {
    // The model's inversion pipeline through the batch path must agree with
    // a scalar closure over the delay-free transform, inverted at `t − D`
    // with the model's series (different call graph, same arithmetic):
    // bit-identity holds because eval_batch replicates the scalar op order.
    for (shape, params) in [("S1", s1_params(40.0)), ("S16", s16_params(150.0))] {
        for variant in [
            ModelVariant::Full,
            ModelVariant::Odopr,
            ModelVariant::NoWta,
            ModelVariant::ResidualWta,
        ] {
            let m = SystemModel::new(&params, variant).unwrap();
            for &t in &[0.01, 0.05, 0.1] {
                let via_batch = m.device_fraction_meeting(0, t);
                let via_closure = cos_numeric::cdf_from_lst(
                    &|s| m.device_delay_free_lst(0, s),
                    t - m.device_delay(0),
                    &DELAY_FREE_INVERSION,
                );
                assert_eq!(
                    via_batch.to_bits(),
                    via_closure.to_bits(),
                    "{shape}/{variant:?} t={t}: {via_batch} vs {via_closure}"
                );
            }
        }
    }
}

const VARIANTS: [ModelVariant; 4] = [
    ModelVariant::Full,
    ModelVariant::Odopr,
    ModelVariant::NoWta,
    ModelVariant::ResidualWta,
];

/// S1 whose fourth device parses for 1.1 ms instead of 0.5: its constant
/// delay differs from the others', so it inverts on a plan of its own.
fn mixed_delay_params(rate: f64) -> SystemParams {
    let mut p = s1_params(rate);
    p.devices[3].parse_be = from_distribution(Degenerate::new(0.0011));
    p.devices[3].arrival_rate = 0.6 * rate;
    p.devices[3].data_read_rate = 0.6 * rate * 1.2;
    p.frontend.arrival_rate = 3.6 * rate;
    p
}

/// A heterogeneous frontend for `params`: 70% of the traffic on servers
/// parsing in 0.3 ms, 30% on servers parsing in 1.2 ms, whose excess
/// 0.9 ms beyond the tier's delay stays inside the delay-free transform.
fn heterogeneous(params: &SystemParams, variant: ModelVariant) -> SystemModel {
    let set = |share: f64, parse: f64| FrontendSetParams {
        share,
        processes: 2,
        parse_fe: from_distribution(Degenerate::new(parse)),
    };
    let frontend = FrontendModel::heterogeneous(
        params.frontend.arrival_rate,
        &[set(0.7, 0.0003), set(0.3, 0.0012)],
    )
    .unwrap();
    SystemModel::new(params, variant)
        .unwrap()
        .with_frontend(frontend)
}

/// Eq. 3 in device order, as the model sums it.
fn rate_weighted(m: &SystemModel, per_device: impl Fn(usize) -> f64) -> f64 {
    let total: f64 = m.devices().iter().map(|d| d.arrival_rate()).sum();
    let mut acc = 0.0;
    for (i, d) in m.devices().iter().enumerate() {
        acc += d.arrival_rate() * per_device(i);
    }
    acc / total
}

#[test]
fn shared_plan_cdfs_match_per_device_closures() {
    // 1 ms lies between the two delays of the mixed-delay shapes (0.8 and
    // 1.4 ms), where the long-parse device answers exactly 0.
    let ts = [0.001, 0.002, 0.01, 0.05, 0.1];
    for variant in VARIANTS {
        let models = [
            ("S1", SystemModel::new(&s1_params(40.0), variant).unwrap()),
            (
                "S16",
                SystemModel::new(&s16_params(150.0), variant).unwrap(),
            ),
            (
                "spread",
                SystemModel::new(&spread_parse_params(40.0), variant).unwrap(),
            ),
            (
                "mixed delays",
                SystemModel::new(&mixed_delay_params(40.0), variant).unwrap(),
            ),
            ("heterogeneous", heterogeneous(&s1_params(40.0), variant)),
            (
                "heterogeneous, mixed delays",
                heterogeneous(&mixed_delay_params(40.0), variant),
            ),
        ];
        for (shape, m) in &models {
            for t in ts {
                let what = format!("{shape}/{variant:?} t={t}");
                let closure = |i: usize| move |s| m.device_delay_free_lst(i, s);
                let at = |i: usize| t - m.device_delay(i);
                let cdfs: Vec<f64> = (0..m.devices().len())
                    .map(|i| cdf_from_lst(&closure(i), at(i), &DELAY_FREE_INVERSION))
                    .collect();
                let both: Vec<(f64, f64)> = (0..m.devices().len())
                    .map(|i| cdf_and_density_from_lst(&closure(i), at(i), &DELAY_FREE_INVERSION))
                    .collect();
                let shared = m.device_fractions(t);
                for (i, &want) in cdfs.iter().enumerate() {
                    assert_eq!(shared[i].to_bits(), want.to_bits(), "{what} device {i}");
                    let single = m.device_fraction_meeting(i, t);
                    assert_eq!(single.to_bits(), want.to_bits(), "{what} device {i}");
                }
                let system = rate_weighted(m, |i| cdfs[i]);
                assert_eq!(
                    m.fraction_meeting_sla(t).to_bits(),
                    system.to_bits(),
                    "{what}"
                );
                let (cdf, density) = m.fraction_and_density(t);
                assert_eq!(cdf.to_bits(), system.to_bits(), "{what}");
                let want_density = rate_weighted(m, |i| both[i].1);
                assert_eq!(density.to_bits(), want_density.to_bits(), "{what}");
            }
        }
    }
}

#[test]
fn coded_branches_match_per_device_closures() {
    for (shape, params) in [
        ("S1", s1_params(40.0)),
        ("S16", s16_params(150.0)),
        ("mixed delays", mixed_delay_params(40.0)),
    ] {
        let m = SystemModel::new(&params, ModelVariant::Full).unwrap();
        for (n, k) in [(2, 1), (4, 2), (6, 4)] {
            let coded = CodedReadModel::new(&params, CodingSpec::eager(n, k)).unwrap();
            for t in [0.001, 0.01, 0.05] {
                let branches: Vec<f64> = (0..n)
                    .map(|b| {
                        let i = b % m.devices().len();
                        let lst = |s| m.device_delay_free_lst(i, s);
                        cdf_from_lst(&lst, t - m.device_delay(i), &DELAY_FREE_INVERSION)
                    })
                    .collect();
                let want = k_of_n_tail(&branches, k);
                let what = format!("{shape} ({n},{k}) t={t}");
                assert_eq!(
                    coded.fraction_meeting_sla(t).to_bits(),
                    want.to_bits(),
                    "{what}"
                );
                assert_eq!(
                    coded.fraction_and_density(t).0.to_bits(),
                    want.to_bits(),
                    "{what}"
                );
            }
        }
    }
}
