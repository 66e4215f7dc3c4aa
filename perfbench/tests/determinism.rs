//! Two runs with the same seed send the same inputs and produce the same
//! schedule-fixed counts: requests, memo hits and misses, refits, publish
//! generations, and the replay's transform evaluations.

use perfbench::inputs::{Inputs, Workload};
use perfbench::run::{run, Window};
use perfbench::trace::replay;

/// Window requests per slice: enough to cross refits in `ingest_refit`
/// (rounds) and to mix every question kind elsewhere (GETs).
fn window(workload: Workload) -> Window {
    Window::Requests(match workload {
        Workload::DashboardWarm => 130,
        Workload::WhatifCold => 40,
        Workload::IngestRefit => 20,
    })
}

#[test]
fn same_seed_same_inputs_and_counts() {
    for workload in Workload::ALL {
        let a = Inputs::generate(workload, 7, 1.0);
        let b = Inputs::generate(workload, 7, 1.0);
        assert_eq!(a.digest, b.digest, "{}: input digest", workload.name());
        assert_ne!(
            a.digest,
            Inputs::generate(workload, 8, 1.0).digest,
            "{}: another seed, other inputs",
            workload.name()
        );

        let first = run(&a, window(workload), false).expect("first run");
        let second = run(&b, window(workload), false).expect("second run");
        assert!(first.correct, "{}: {:?}", workload.name(), first.notes);
        assert!(second.correct, "{}: {:?}", workload.name(), second.notes);
        assert_eq!(
            first.counts,
            second.counts,
            "{}: HTTP counts",
            workload.name()
        );
        assert!(first.counts.window_requests > 0 && first.counts.refits > 0);

        let first = replay(&a).expect("first replay");
        let second = replay(&b).expect("second replay");
        assert_eq!(
            first.counts,
            second.counts,
            "{}: replay counts",
            workload.name()
        );
        assert!(first.counts.lst_evals > 0 && first.counts.quantiles > 0);
    }
}
