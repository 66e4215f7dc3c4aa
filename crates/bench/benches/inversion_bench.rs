//! Microbenchmarks + cross-checks of the Laplace-inversion algorithms
//! (ablation A4): all three algorithms against a closed-form M/M/1 sojourn
//! CDF, at the three accuracy-relevant orders.

use cos_distr::{Degenerate, Gamma};
use cos_model::{
    DeviceParams, FrontendParams, ModelVariant, SystemModel, SystemParams, DELAY_FREE_INVERSION,
};
use cos_numeric::laplace::{cdf_from_lst, InversionAlgorithm, InversionConfig};
use cos_numeric::{quantile_from_lst, Complex64};
use cos_queueing::from_distribution;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// M/M/1 sojourn LST: (μ−λ)/(μ−λ+s).
fn mm1_sojourn_lst(lambda: f64, mu: f64) -> impl Fn(Complex64) -> Complex64 {
    move |s| Complex64::from_real(mu - lambda) / (s + (mu - lambda))
}

fn bench_inversion(c: &mut Criterion) {
    let lst = mm1_sojourn_lst(60.0, 100.0);
    let t = 0.05f64;
    let truth = 1.0 - (-(100.0 - 60.0) * t).exp();

    let mut group = c.benchmark_group("laplace_inversion");
    for (algo, terms) in [
        (InversionAlgorithm::Euler, 40),
        (InversionAlgorithm::Euler, 100),
        (InversionAlgorithm::Talbot, 32),
        (InversionAlgorithm::GaverStehfest, 14),
    ] {
        let cfg = InversionConfig {
            algorithm: algo,
            terms,
        };
        // Accuracy gate: every configuration must land near the closed form
        // before we bother timing it.
        let got = cdf_from_lst(&lst, t, &cfg);
        assert!(
            (got - truth).abs() < 1e-4,
            "{algo:?}/{terms}: {got} vs {truth}"
        );
        group.bench_with_input(
            BenchmarkId::new(format!("{algo:?}"), terms),
            &cfg,
            |b, cfg| b.iter(|| cdf_from_lst(black_box(&lst), black_box(t), cfg)),
        );
    }
    group.finish();
}

fn s1_model() -> SystemModel {
    let rate = 120.0;
    let per = rate / 4.0;
    let params = SystemParams {
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
    };
    SystemModel::new(&params, ModelVariant::Full).unwrap()
}

/// The composite-model hot path: batch dispatch (via the `LaplaceFn`
/// adapter inside `device_fraction_meeting`) vs the scalar closure path the
/// pre-batch code used, both inverting the delay-free transform at `t − D`.
/// Both compute bit-identical values; the delta is the per-abscissa re-walk
/// of the component tree.
fn bench_composite_cdf(c: &mut Criterion) {
    let m = s1_model();
    let mut group = c.benchmark_group("composite_cdf");
    group.bench_function("batch_path", |b| {
        b.iter(|| m.device_fraction_meeting(black_box(0), black_box(0.05)))
    });
    group.bench_function("scalar_closure_path", |b| {
        b.iter(|| {
            cdf_from_lst(
                &|s| m.device_delay_free_lst(0, s),
                black_box(0.05) - m.device_delay(0),
                black_box(&DELAY_FREE_INVERSION),
            )
        })
    });
    group.finish();
}

/// Quantile extraction through the log-survival Newton search: each probe
/// is one inversion yielding the CDF and its density.
fn bench_quantile(c: &mut Criterion) {
    let m = s1_model();
    let cfg = InversionConfig::default();
    let be = m.devices()[0].backend();
    let mut group = c.benchmark_group("quantile");
    group.bench_function("backend_sojourn_p95", |b| {
        b.iter(|| quantile_from_lst(&|s| be.sojourn_lst(s), black_box(0.95), 0.05, &cfg))
    });
    group.bench_function("system_latency_percentile_p95", |b| {
        b.iter(|| m.latency_percentile(black_box(0.95)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_inversion,
    bench_composite_cdf,
    bench_quantile
);
criterion_main!(benches);
