//! Race and bit-identity tests for the snapshot read path, which answers
//! off the writer lock.
//!
//! The contract under test: any number of [`SnapshotReader`]s answering on
//! their own threads must return **bit-identical** results to the reader
//! of the same service state machine left unspawned, and to `cos-model`
//! called directly at the snapped inputs; a reader racing a re-fit must
//! only ever observe whole epochs (monotone, never torn); and an epoch's
//! [`EpochMemo`] must hand every concurrent caller of one cold question
//! the same bits, whichever of them computed it, while staying bounded
//! under high-cardinality query streams.
//!
//! [`SnapshotReader`]: cosmodel::serve::SnapshotReader
//! [`EpochMemo`]: cosmodel::serve::EpochMemo

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use cosmodel::distr::{Degenerate, Gamma};
use cosmodel::model::{max_admissible_rate, rank_bottlenecks, SlaGoal, SystemModel};
use cosmodel::queueing::from_distribution;
use cosmodel::serve::{
    quantize_rate, CacheCounters, CalibrationBase, EpochMemo, OpClass, Query, QueryKey, QueryKind,
    ServeConfig, SlaService, TelemetryEvent, FRACTION_QUANTUM, RATE_QUANTUM, RESULTS_PER_EPOCH,
    SLA_QUANTUM,
};

fn base() -> CalibrationBase {
    CalibrationBase {
        index_law: from_distribution(Gamma::new(3.0, 250.0)),
        meta_law: from_distribution(Gamma::new(2.5, 312.5)),
        data_law: from_distribution(Gamma::new(3.5, 245.0)),
        parse_be: from_distribution(Degenerate::new(0.0005)),
        parse_fe: from_distribution(Degenerate::new(0.0003)),
        devices: 2,
        processes_per_device: 1,
        frontend_processes: 3,
    }
}

/// Deterministic telemetry covering `[t0, t1)` at 40 req/s per device.
fn events_span(t0: f64, t1: f64) -> Vec<TelemetryEvent> {
    let mut out = Vec::new();
    let mut i = 0u64;
    let mut t = t0;
    while t < t1 {
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

/// Calibrates a fresh service on the standard stream.
fn calibrated_service() -> SlaService {
    let mut service = SlaService::new(base(), ServeConfig::default());
    for ev in events_span(0.0, 20.0) {
        service.ingest(ev);
    }
    assert!(service.refit_now(), "deterministic stream must fit");
    service
}

/// `x` snapped to its quantization cell, as the cache snaps every input.
fn snapped(x: f64, quantum: f64) -> f64 {
    (x / quantum).round().max(1.0) * quantum
}

/// The same question answered three ways — the reader of a spawned
/// service, the reader of the state machine its thread runs (the worker)
/// left unspawned, and `cos-model` called cold on the fitted parameters at
/// the snapped inputs — must produce the same `f64` bits, because every
/// read funnels through one quantized evaluation code path.
#[test]
fn reader_worker_and_cold_engine_agree_bit_for_bit() {
    // Reference: an identical in-process service, and its fitted
    // parameters handed to cos-model directly.
    let worker_service = calibrated_service();
    let worker_reader = worker_service.reader();
    let fitted = worker_reader
        .state()
        .expect("service alive")
        .snapshot
        .clone()
        .expect("reference calibrated");
    let variant = ServeConfig::default().variant;
    let cold = SystemModel::new(&fitted.params, variant).expect("fitted point is stable");

    // Subject: the same service type spawned, read through its snapshot.
    let handle = calibrated_service().spawn();
    let snapshot = handle.reader();
    let goal = SlaGoal::new(0.05, 0.90);

    for sla in [0.010, 0.050, 0.100] {
        let worker = worker_reader
            .attainment(&Query::new().sla(sla))
            .expect("worker answers");
        let reader = snapshot
            .attainment(&Query::new().sla(sla))
            .expect("reader answers");
        let cold_p = cold.fraction_meeting_sla(snapped(sla, SLA_QUANTUM));
        assert_eq!(
            worker.value.to_bits(),
            reader.value.to_bits(),
            "sla {sla}: worker {} vs reader {}",
            worker.value,
            reader.value
        );
        assert_eq!(
            worker.value.to_bits(),
            cold_p.to_bits(),
            "sla {sla}: worker {} vs cold model {cold_p}",
            worker.value,
        );
        assert_eq!(worker.epoch, reader.epoch, "same epoch on both paths");
    }

    for (rate, sla) in [(60.0, 0.05), (120.0, 0.05), (90.0, 0.01)] {
        let worker = worker_reader
            .attainment(&Query::new().sla(sla).rate(rate))
            .expect("worker answers");
        let reader = snapshot
            .attainment(&Query::new().sla(sla).rate(rate))
            .expect("reader answers");
        let scaled = fitted.params.scaled_to_rate(snapped(rate, RATE_QUANTUM));
        let cold_p = SystemModel::new(&scaled, variant)
            .expect("what-if point is stable")
            .fraction_meeting_sla(snapped(sla, SLA_QUANTUM));
        assert_eq!(worker.value.to_bits(), reader.value.to_bits(), "at {rate}");
        assert_eq!(worker.value.to_bits(), cold_p.to_bits(), "at {rate}");
    }

    for p in [0.50, 0.95, 0.99] {
        let worker = worker_reader
            .latency_percentile(&Query::new().p(p))
            .expect("worker answers");
        let reader = snapshot
            .latency_percentile(&Query::new().p(p))
            .expect("reader answers");
        let cold_p = cold
            .latency_percentile(snapped(p, FRACTION_QUANTUM))
            .expect("cold answers");
        assert_eq!(worker.value.to_bits(), reader.value.to_bits(), "p{p}");
        assert_eq!(worker.value.to_bits(), cold_p.to_bits(), "p{p}");
    }

    let headroom_query = || {
        Query::new()
            .sla(goal.sla)
            .target(goal.target_fraction)
            .upper(2000.0)
    };
    let worker = worker_reader
        .admissible_rate(&headroom_query())
        .expect("worker answers");
    let reader = snapshot
        .admissible_rate(&headroom_query())
        .expect("reader answers");
    let snapped_goal = SlaGoal::new(
        snapped(goal.sla, SLA_QUANTUM),
        snapped(goal.target_fraction, FRACTION_QUANTUM),
    );
    let cold_p = max_admissible_rate(
        &fitted.params,
        variant,
        snapped_goal,
        snapped(2000.0, RATE_QUANTUM),
    )
    .expect("cold answers");
    assert_eq!(worker.value.to_bits(), reader.value.to_bits(), "headroom");
    assert_eq!(worker.value.to_bits(), cold_p.to_bits(), "headroom");

    let worker = worker_reader
        .device_ranking(&Query::new().sla(0.05))
        .expect("worker answers");
    let reader = snapshot
        .device_ranking(&Query::new().sla(0.05))
        .expect("reader answers");
    let cold_b = rank_bottlenecks(&cold, snapped(0.05, SLA_QUANTUM));
    assert_eq!(worker.len(), reader.len());
    for ((wd, wf), (rd, rf)) in worker.iter().zip(reader.iter()) {
        assert_eq!(wd, rd, "same device order");
        assert_eq!(wf.to_bits(), rf.to_bits(), "device {wd}");
    }
    assert_eq!(worker.len(), cold_b.len());
    for ((wd, wf), (cd, cf)) in worker.iter().zip(cold_b.iter()) {
        assert_eq!(wd, cd);
        assert_eq!(wf.to_bits(), cf.to_bits(), "device {wd} vs cold");
    }

    // Status agreement on the fields both paths own: epoch and the live
    // event clock travel bit-exactly through the snapshot.
    let ws = worker_service.status();
    let rs = snapshot.status().expect("reader status");
    assert_eq!(ws.epoch, rs.epoch);
    assert_eq!(ws.event_time.to_bits(), rs.event_time.to_bits());
}

/// Readers hammering the snapshot path while the worker re-fits must see
/// epochs that only move forward, and for any given epoch the answer bits
/// must be identical across every thread and every moment — a torn or
/// half-published state would break one of the two.
#[test]
fn concurrent_readers_see_monotone_untorn_epochs() {
    let handle = calibrated_service().spawn();
    let reader = handle.reader();
    let stop = Arc::new(AtomicBool::new(false));
    // Reader `i` reports the newest epoch it has answered from. Its
    // `Release` store follows recording that epoch's bits, and pairs with
    // the writer's `Acquire` load below.
    let observed: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());

    let threads: Vec<_> = (0..4)
        .map(|i| {
            let r = reader.clone();
            let stop = Arc::clone(&stop);
            let observed = Arc::clone(&observed);
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut last_gen = 0u64;
                let mut seen: HashMap<u64, u64> = HashMap::new();
                while !stop.load(Ordering::Relaxed) {
                    let p = r
                        .attainment(&Query::new().sla(0.05))
                        .expect("stays calibrated");
                    assert!(
                        p.epoch >= last_epoch,
                        "epoch went backwards: {} after {last_epoch}",
                        p.epoch
                    );
                    last_epoch = p.epoch;
                    let bits = p.value.to_bits();
                    let first = *seen.entry(p.epoch).or_insert(bits);
                    assert_eq!(first, bits, "epoch {} changed its answer", p.epoch);

                    let generation = r.generation();
                    assert!(generation >= last_gen, "generation went backwards");
                    last_gen = generation;

                    // The ranking is evaluated against one snapshot view, so
                    // it must always come back sorted and complete.
                    let ranking = r
                        .device_ranking(&Query::new().sla(0.05))
                        .expect("stays calibrated");
                    assert_eq!(ranking.len(), 2, "all devices ranked");
                    assert!(
                        ranking.windows(2).all(|w| w[0].1 <= w[1].1),
                        "ranking out of order: {ranking:?}"
                    );
                    observed[i].store(p.epoch, Ordering::Release);
                }
                seen
            })
        })
        .collect();

    // The write side: keep the clock moving and force six more re-fits
    // while the readers spin. Each round waits until every reader has
    // answered from the epoch its re-fit installed; nothing publishes
    // meanwhile, so every reader crosses every installed epoch.
    let client = handle.client();
    let mut installed = Vec::new();
    for round in 0..6 {
        let t0 = 20.0 + round as f64 * 5.0;
        for ev in events_span(t0, t0 + 5.0) {
            client.ingest(ev).expect("service alive");
        }
        assert!(client.refit_now().expect("service alive"), "round {round}");
        let state = reader.state().expect("service alive");
        let epoch = state.snapshot.as_ref().expect("calibrated").epoch;
        for (i, thread) in threads.iter().enumerate() {
            while observed[i].load(Ordering::Acquire) < epoch {
                assert!(!thread.is_finished(), "reader {i} stopped early");
                std::thread::yield_now();
            }
        }
        installed.push(epoch);
    }
    stop.store(true, Ordering::Relaxed);

    let maps: Vec<HashMap<u64, u64>> = threads
        .into_iter()
        .map(|t| t.join().expect("reader thread"))
        .collect();

    // Cross-thread: one epoch, one answer, everywhere.
    let mut merged: HashMap<u64, u64> = HashMap::new();
    for m in &maps {
        for (&epoch, &bits) in m {
            let first = *merged.entry(epoch).or_insert(bits);
            assert_eq!(first, bits, "threads disagree on epoch {epoch}");
        }
    }
    for (i, m) in maps.iter().enumerate() {
        for epoch in &installed {
            assert!(
                m.contains_key(epoch),
                "reader {i} missed installed epoch {epoch}, saw {:?}",
                m.keys().collect::<Vec<_>>()
            );
        }
    }
    assert!(
        merged.len() >= installed.len(),
        "all {} re-fits must have been observed live, saw epochs {:?}",
        installed.len(),
        merged.keys().collect::<Vec<_>>()
    );
}

/// Callers that ask one cold question at once each get the bits
/// `cos-model` gives cold at the snapped inputs, however many of them
/// missed and computed: `misses` counts exactly the computations that ran,
/// and every caller counts once.
#[test]
fn concurrent_cold_callers_of_one_key_all_get_the_same_bits() {
    const CALLERS: usize = 8;
    let service = calibrated_service();
    let reader = service.reader();
    let epoch = reader
        .state()
        .expect("service alive")
        .snapshot
        .clone()
        .expect("calibrated");
    let variant = ServeConfig::default().variant;
    // A what-if cell, which no refit pre-warms.
    let (rate, sla) = (120.0, 0.05);
    let key = QueryKey {
        rate_q: Some(quantize_rate(rate)),
        kind: QueryKind::fraction(sla),
    };
    let scaled = epoch.params.scaled_to_rate(snapped(rate, RATE_QUANTUM));
    let cold = SystemModel::new(&scaled, variant)
        .expect("what-if point is stable")
        .fraction_meeting_sla(snapped(sla, SLA_QUANTUM));

    let before = reader.status().expect("service alive").engine.cache;
    let start = Barrier::new(CALLERS);
    let answers: Vec<(u64, bool)> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let (result, ran) = epoch.answer(variant, key.rate_q, key.kind);
                    (result.expect("stable what-if").to_bits(), ran)
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|c| c.join().expect("caller"))
            .collect()
    });
    let after = reader.status().expect("service alive").engine.cache;

    for &(bits, _) in &answers {
        assert_eq!(bits, cold.to_bits(), "every caller got the cold bits");
    }
    let computed = answers.iter().filter(|&&(_, ran)| ran).count() as u64;
    assert!(computed >= 1, "the first caller computed");
    assert_eq!(after.misses - before.misses, computed);
    assert_eq!(
        (after.hits - before.hits) + (after.misses - before.misses),
        CALLERS as u64
    );
}

/// A high-cardinality query stream (every what-if rate distinct) must not
/// grow an epoch's memo past its bound.
#[test]
fn cache_stays_bounded_under_high_cardinality() {
    let cache = EpochMemo::new(Arc::new(CacheCounters::default()));
    for i in 0..2_000i64 {
        let key = QueryKey {
            rate_q: Some(i),
            kind: QueryKind::fraction(0.05),
        };
        let (result, _) = cache.get_or_compute(key, || Ok(i as f64));
        assert_eq!(result.expect("compute is infallible"), i as f64);
    }
    assert!(
        cache.len() <= RESULTS_PER_EPOCH,
        "memo holds {} entries, bound is {}",
        cache.len(),
        RESULTS_PER_EPOCH
    );
    assert!(cache.evictions() > 0, "overflow must have evicted");
}
