//! Heap allocations of a served CDF, counted from inside the allocator, on
//! perfbench-shaped fitted parameters: four devices at 40 req/s, each with
//! its own miss ratios and its disk laws rescaled to its own means, and
//! point-mass parse laws.
//!
//! This test binary installs the counting allocator, so it holds exactly
//! one test: the counter is process-wide, and a second test tracking its
//! own thread at the same time would add its allocations to this one's.

use cos_distr::{Degenerate, Gamma};
use cos_model::params::{DeviceParams, FrontendParams};
use cos_model::{rescale_to_mean, ModelVariant, SystemModel, SystemParams};
use cos_par::alloc_probe::{track_current_thread, tracked_allocs, CountingAlloc};
use cos_queueing::from_distribution;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A tenant's fit after a minute of the perfbench fleet (seed 7): per
/// device its rate, its index / meta / data miss ratios and the means its
/// disk laws are rescaled to.
fn fitted(devices: usize) -> SystemParams {
    const FIT: [(f64, [f64; 3], [f64; 3]); 4] = [
        (40.03, [0.286, 0.297, 0.288], [0.010534, 0.007023, 0.012541]),
        (40.03, [0.290, 0.305, 0.300], [0.010524, 0.007016, 0.012528]),
        (40.03, [0.307, 0.307, 0.312], [0.010486, 0.006991, 0.012483]),
        (40.03, [0.288, 0.296, 0.323], [0.010426, 0.006950, 0.012412]),
    ];
    let law = |shape: f64, rate: f64, mean: f64| {
        rescale_to_mean(&from_distribution(Gamma::new(shape, rate)), mean)
    };
    let devices: Vec<DeviceParams> = FIT[..devices]
        .iter()
        .map(|&(rate, miss, means)| DeviceParams {
            arrival_rate: rate,
            data_read_rate: rate,
            miss_index: miss[0],
            miss_meta: miss[1],
            miss_data: miss[2],
            index_disk: law(3.0, 250.0, means[0]),
            meta_disk: law(2.5, 312.5, means[1]),
            data_disk: law(3.5, 245.0, means[2]),
            parse_be: from_distribution(Degenerate::new(0.0005)),
            processes: 1,
        })
        .collect();
    SystemParams {
        frontend: FrontendParams {
            arrival_rate: devices.iter().map(|d| d.arrival_rate).sum(),
            processes: 3,
            parse_fe: from_distribution(Degenerate::new(0.0003)),
        },
        devices,
    }
}

/// Allocation events `f` makes on this (tracked) thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    track_current_thread(true);
    let before = tracked_allocs();
    let out = f();
    let count = tracked_allocs() - before;
    track_current_thread(false);
    (count, out)
}

#[test]
fn a_served_cdf_allocates_per_query_not_per_device() {
    let (params, single) = (fitted(4), fitted(1));
    // Warm the once-per-process state (the instruction-set detection).
    let warm = SystemModel::new(&params, ModelVariant::Full).unwrap();
    warm.fraction_meeting_sla(0.05);

    let (build, m) = allocations(|| SystemModel::new(&params, ModelVariant::Full).unwrap());
    let one = SystemModel::new(&single, ModelVariant::Full).unwrap();
    let (fraction, f) = allocations(|| m.fraction_meeting_sla(0.05));
    let (fraction_one, _) = allocations(|| one.fraction_meeting_sla(0.05));
    let (density, _) = allocations(|| m.fraction_and_density(0.05));
    let (percentile, p95) = allocations(|| m.latency_percentile(0.95));
    eprintln!(
        "allocations: build {build}, 4-device fraction {fraction}, 1-device fraction \
         {fraction_one}, fraction and density {density}, p95 {percentile}"
    );
    assert!((0.5..1.0).contains(&f), "fraction {f}");
    assert!(p95.is_some_and(|t| t > 0.05), "p95 {p95:?}");
    // The per-device pass runs on the stack: a device costs no allocation.
    assert!(fraction <= fraction_one, "{fraction} > {fraction_one}");
    // Pinned counts. Per query: the plan, the frontend's factors, the
    // layer's plan and device lists. Before the device pass ran on the
    // stack, the 4-device fraction made 29, one device 14 and the p95
    // percentile 116.
    assert_eq!(fraction, 4, "4-device fraction");
    assert_eq!(fraction_one, 4, "1-device fraction");
    assert_eq!(density, 4, "fraction and density");
    assert_eq!(percentile, 16, "p95 percentile");
    assert_eq!(build, 20, "SystemModel::new");
}
