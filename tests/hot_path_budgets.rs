//! Nanosecond budgets of the two per-request hot paths: recording one
//! value into a `cos_obs::Hist` (under 100 ns) and the admission decision
//! `Controller::decide` (under 1 µs, at zero shed and at a partial shed).
//!
//! Each path is timed over a loop and the best of 5 repeats is kept, so
//! one scheduler stall cannot fail the test. The budgets sit far above the
//! measured costs (tens of ns), so this is a smoke test for a lock, an
//! allocation or a model evaluation landing on a hot path, not a
//! benchmark; perfbench measures the served paths.

use std::time::Instant;

use cosmodel::ctrl::{Controller, CtrlConfig, SlaClass};
use cosmodel::distr::{Degenerate, Gamma};
use cosmodel::obs::Hist;
use cosmodel::queueing::from_distribution;
use cosmodel::serve::{CalibrationBase, ServeConfig, SlaService};

const REPEATS: usize = 5;
const RECORD_BUDGET_NS: f64 = 100.0;
const DECIDE_BUDGET_NS: f64 = 1_000.0;

/// Best per-iteration time of `iters` calls of `f`, in ns, over
/// [`REPEATS`] timed loops.
fn best_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            for i in 0..iters {
                f(i);
            }
            start.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn hist_record_and_admission_decide_stay_within_their_budgets() {
    let hist = Hist::new();
    // Knuth-hash the counter into a spread of magnitudes, so the bucket
    // index and both sides of the linear/log split are exercised.
    let record_ns = best_ns(400_000, |i| {
        hist.record_ns(i.wrapping_mul(2_654_435_761) >> (i % 32));
    });
    std::hint::black_box(hist.count());
    assert!(
        record_ns < RECORD_BUDGET_NS,
        "Hist::record_ns: {record_ns:.1} ns (budget {RECORD_BUDGET_NS} ns)"
    );

    // An uncalibrated service: `decide` reads only the shed fraction.
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
    let service = SlaService::new(base, ServeConfig::default());
    let ctrl = Controller::new(service.reader(), CtrlConfig::default()).expect("valid policy");
    for shed in [0.0, 0.3] {
        ctrl.force_shed(shed);
        let decide_ns = best_ns(200_000, |_| {
            std::hint::black_box(
                ctrl.decide(std::hint::black_box(SlaClass::Standard))
                    .is_ok(),
            );
        });
        assert!(
            decide_ns < DECIDE_BUDGET_NS,
            "Controller::decide at shed {shed}: {decide_ns:.1} ns (budget {DECIDE_BUDGET_NS} ns)"
        );
    }
}
