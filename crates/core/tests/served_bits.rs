//! The served CDFs against the scalar transform, bit for bit, on random
//! systems: every answer the two-layer path gives — per-device fractions,
//! the system CDF and density, coded branch probabilities — must equal a
//! per-device inversion of [`SystemModel::device_delay_free_lst`] at
//! `t − D` with [`DELAY_FREE_INVERSION`], the scalar oracle. The batch
//! transform must also match it on a contour longer than a served one:
//! the default 112-point plan, which the device pass runs in 32-point
//! pieces.

use cos_distr::{Degenerate, Exponential, Gamma};
use cos_model::{
    rescale_to_mean, BackendModel, CodedReadModel, CodingSpec, DeviceParams, FrontendModel,
    FrontendParams, FrontendSetParams, ModelVariant, SystemModel, SystemParams,
    DELAY_FREE_INVERSION,
};
use cos_numeric::{cdf_and_density_from_lst, cdf_from_lst, Complex64, InversionConfig, LaplaceFn};
use cos_queueing::fork_join::k_of_n_tail;
use cos_queueing::{from_distribution, DynServiceTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const VARIANTS: [ModelVariant; 4] = [
    ModelVariant::Full,
    ModelVariant::Odopr,
    ModelVariant::NoWta,
    ModelVariant::ResidualWta,
];

/// Uniform on a log scale between `lo` and `hi`.
fn log_uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    (lo.ln() + rng.gen::<f64>() * (hi / lo).ln()).exp()
}

/// A disk law with a mean from 2 to 20 ms: Gamma, Exponential,
/// Degenerate, or a Gamma rescaled to that mean the way the calibrator
/// rescales its base laws.
fn disk_law(rng: &mut SmallRng) -> DynServiceTime {
    let mean = log_uniform(rng, 0.002, 0.02);
    match rng.gen_range(0..4) {
        0 => {
            let shape = log_uniform(rng, 0.5, 8.0);
            from_distribution(Gamma::new(shape, shape / mean))
        }
        1 => from_distribution(Exponential::new(1.0 / mean)),
        2 => from_distribution(Degenerate::new(mean)),
        _ => {
            let shape = log_uniform(rng, 0.5, 8.0);
            let base = from_distribution(Gamma::new(shape, shape / 0.01));
            rescale_to_mean(&base, mean)
        }
    }
}

/// A parse law with a mean from `lo` to `hi`: a point mass, or a narrow
/// Gamma (a law with spread, which the model does not factor out as a
/// delay).
fn parse_law(rng: &mut SmallRng, lo: f64, hi: f64) -> DynServiceTime {
    let mean = log_uniform(rng, lo, hi);
    if rng.gen_bool(0.6) {
        from_distribution(Degenerate::new(mean))
    } else {
        let shape = log_uniform(rng, 20.0, 400.0);
        from_distribution(Gamma::new(shape, shape / mean))
    }
}

/// A miss ratio: all hits, all misses, or in between.
fn miss(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..5) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.gen::<f64>(),
    }
}

/// A device at a backend utilization drawn from 5% to 95%: its rate is
/// set from the union-operation mean at a nominal rate (exact for
/// `N_be = 1`, where that mean does not depend on the rate).
fn device(rng: &mut SmallRng) -> DeviceParams {
    let extra = if rng.gen_bool(0.3) {
        0.0
    } else {
        rng.gen::<f64>() * 1.5
    };
    let mut d = DeviceParams {
        arrival_rate: 1.0,
        data_read_rate: 1.0 + extra,
        miss_index: miss(rng),
        miss_meta: miss(rng),
        miss_data: miss(rng),
        index_disk: disk_law(rng),
        meta_disk: disk_law(rng),
        data_disk: disk_law(rng),
        parse_be: parse_law(rng, 0.0002, 0.0015),
        processes: [1, 2, 16][rng.gen_range(0..3)],
    };
    let nominal = BackendModel::new(&d, ModelVariant::Full).expect("1 req/s is stable");
    let rate = rng.gen_range(0.05..0.95) * d.processes as f64 / nominal.union_mean();
    d.arrival_rate = rate;
    d.data_read_rate = rate * (1.0 + extra);
    d
}

/// A system of 1–6 random devices behind a frontend with processes to
/// spare.
fn system(rng: &mut SmallRng) -> SystemParams {
    let devices: Vec<DeviceParams> = (0..rng.gen_range(1..=6)).map(|_| device(rng)).collect();
    let arrival_rate: f64 = devices.iter().map(|d| d.arrival_rate).sum();
    SystemParams {
        frontend: FrontendParams {
            arrival_rate,
            // At most half busy, whatever the parse mean up to 1 ms.
            processes: 1 + (arrival_rate * 0.001 / 0.5) as usize,
            parse_fe: parse_law(rng, 0.0001, 0.001),
        },
        devices,
    }
}

/// A heterogeneous frontend for `params`: two or three sets with unequal
/// shares and unequal parse point masses (so unequal delays beyond the
/// tier's), sometimes one parse law with spread.
fn heterogeneous(rng: &mut SmallRng, params: &SystemParams) -> Option<FrontendModel> {
    let sets: Vec<FrontendSetParams> = (0..rng.gen_range(2..=3))
        .map(|_| FrontendSetParams {
            share: rng.gen_range(0.1..1.0),
            processes: params.frontend.processes,
            parse_fe: parse_law(rng, 0.0001, 0.001),
        })
        .collect();
    FrontendModel::heterogeneous(params.frontend.arrival_rate, &sets).ok()
}

/// SLAs from below the smallest constant delay up to 2 s, with the
/// delays themselves, where the answer is exactly 0.
fn slas(rng: &mut SmallRng, m: &SystemModel) -> Vec<f64> {
    let delays: Vec<f64> = (0..m.devices().len()).map(|i| m.device_delay(i)).collect();
    let least = delays.iter().copied().fold(f64::INFINITY, f64::min);
    let mut ts = vec![0.5 * least, delays[rng.gen_range(0..delays.len())]];
    ts.extend((0..4).map(|_| log_uniform(rng, 0.0005, 2.0)));
    ts.retain(|&t| t > 0.0);
    ts
}

/// Per-device `(CDF, density)` at `t` by the scalar oracle: the closure
/// over [`SystemModel::device_delay_free_lst`], inverted at `t − D`.
fn oracle(m: &SystemModel, t: f64) -> Vec<(f64, f64)> {
    (0..m.devices().len())
        .map(|i| {
            let at = t - m.device_delay(i);
            if at <= 0.0 {
                return (0.0, 0.0);
            }
            let lst = |s| m.device_delay_free_lst(i, s);
            cdf_and_density_from_lst(&lst, at, &DELAY_FREE_INVERSION)
        })
        .collect()
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

/// Device `idx`'s delay-free transform through its batch path.
struct Batch<'a>(&'a SystemModel, usize);

impl LaplaceFn for Batch<'_> {
    fn eval(&self, s: Complex64) -> Complex64 {
        self.0.device_delay_free_lst(self.1, s)
    }
    fn eval_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        self.0.device_delay_free_lst_batch(self.1, s, out)
    }
}

fn check(m: &SystemModel, ts: &[f64], what: &str) {
    for &t in ts {
        let what = format!("{what} t={t:e}");
        let want = oracle(m, t);
        let fractions = m.device_fractions(t);
        for (i, (f, (cdf, _))) in fractions.iter().zip(&want).enumerate() {
            assert_eq!(f.to_bits(), cdf.to_bits(), "{what} device {i}");
        }
        let (cdf, density) = m.fraction_and_density(t);
        let want_cdf = rate_weighted(m, |i| want[i].0);
        assert_eq!(cdf.to_bits(), want_cdf.to_bits(), "{what} system CDF");
        assert_eq!(
            m.fraction_meeting_sla(t).to_bits(),
            want_cdf.to_bits(),
            "{what}"
        );
        let want_density = rate_weighted(m, |i| want[i].1);
        assert_eq!(density.to_bits(), want_density.to_bits(), "{what} density");
    }
    // The 112-point default plan, past the 32 points a device pass holds.
    let long = InversionConfig::default();
    for i in 0..m.devices().len() {
        let at = ts[ts.len() - 1] - m.device_delay(i);
        if at > 0.0 {
            let scalar = |s| m.device_delay_free_lst(i, s);
            let want = cdf_from_lst(&scalar, at, &long);
            let got = cdf_from_lst(&Batch(m, i), at, &long);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{what} device {i}, 112 points"
            );
        }
    }
}

#[test]
fn served_cdfs_equal_per_device_inversions_of_the_scalar_transform() {
    let mut rng = SmallRng::seed_from_u64(0x5e2_7ed);
    let (mut systems, mut heterogeneous_systems, mut coded) = (0, 0, 0);
    while systems < 120 {
        let params = system(&mut rng);
        let variant = VARIANTS[rng.gen_range(0..VARIANTS.len())];
        let Ok(m) = SystemModel::new(&params, variant) else {
            continue;
        };
        systems += 1;
        let ts = slas(&mut rng, &m);
        let what = format!(
            "system {systems} ({variant:?}, {} devices)",
            params.devices.len()
        );
        check(&m, &ts, &what);

        // Coded reads: branch `b` reads device `b % devices`.
        if variant == ModelVariant::Full {
            let n = rng.gen_range(1..=8);
            let k = rng.gen_range(1..=n);
            let model = CodedReadModel::new(&params, CodingSpec::eager(n, k)).unwrap();
            for &t in &ts {
                let per_device = oracle(&m, t);
                let branches: Vec<f64> =
                    (0..n).map(|b| per_device[b % per_device.len()].0).collect();
                let want = k_of_n_tail(&branches, k);
                let got = model.fraction_meeting_sla(t);
                assert_eq!(got.to_bits(), want.to_bits(), "{what} ({n},{k}) t={t:e}");
                let (cdf, _) = model.fraction_and_density(t);
                assert_eq!(cdf.to_bits(), want.to_bits(), "{what} ({n},{k}) t={t:e}");
            }
            coded += 1;
        }

        if rng.gen_bool(0.4) {
            if let Some(frontend) = heterogeneous(&mut rng, &params) {
                let m = SystemModel::new(&params, variant)
                    .unwrap()
                    .with_frontend(frontend);
                let ts = slas(&mut rng, &m);
                check(&m, &ts, &format!("{what}, heterogeneous frontend"));
                heterogeneous_systems += 1;
            }
        }
    }
    assert!(
        heterogeneous_systems > 20,
        "{heterogeneous_systems} heterogeneous"
    );
    assert!(coded > 10, "{coded} coded");
}

#[test]
fn every_lane_loop_answers_the_same_bits_compiled_for_avx512_and_baseline() {
    use cos_numeric::lanes::{with_isa, Isa};
    let isa = Isa::Avx512;
    if !isa.supported() {
        eprintln!("skipped {isa:?}: this CPU does not support it");
        return;
    }
    // Every loop of a served answer runs under one variant and then the
    // other: the cache mix, the time scaling, the union products, the
    // extra-reads exponential, P–K, the WTA factor, the plan's reciprocals
    // and the kernels under them.
    let mut rng = SmallRng::seed_from_u64(0xa5_12);
    let mut systems = 0;
    while systems < 40 {
        let params = system(&mut rng);
        let variant = VARIANTS[systems % VARIANTS.len()];
        let Ok(m) = SystemModel::new(&params, variant) else {
            continue;
        };
        systems += 1;
        let ts = slas(&mut rng, &m);
        // `Full` marginals: unstable where another variant is not.
        let coded = CodedReadModel::new(&params, CodingSpec::eager(6, 4)).ok();
        let s: Vec<Complex64> = InversionConfig::default().plan(0.05).abscissae().to_vec();
        let answers = |isa: Isa| {
            with_isa(isa, || {
                let mut bits = Vec::new();
                for &t in &ts {
                    bits.extend(m.device_fractions(t).iter().map(|f| f.to_bits()));
                    let (cdf, density) = m.fraction_and_density(t);
                    bits.extend([cdf.to_bits(), density.to_bits()]);
                    bits.extend(coded.iter().map(|c| c.fraction_and_density(t).1.to_bits()));
                }
                let mut out = vec![Complex64::ZERO; s.len()];
                for i in 0..m.devices().len() {
                    m.device_delay_free_lst_batch(i, &s, &mut out);
                    bits.extend(out.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]));
                }
                bits
            })
        };
        assert_eq!(
            answers(isa),
            answers(Isa::Baseline),
            "system {systems} ({variant:?})"
        );
    }
}
