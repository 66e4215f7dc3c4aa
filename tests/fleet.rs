//! Fleet-scale multi-tenancy tests: snapshot-delta identity, concurrent
//! readers mid-delta, and fleet-vs-standalone bit-identity.
//!
//! Three contracts from the delta publication protocol (DESIGN §14):
//!
//! 1. **Delta ≡ full.** After any schedule of per-tenant ingests and
//!    delta refits, the published [`FleetState`] must be *bit-identical*
//!    (every query kind, every tenant) to what a full republish of the
//!    same shards produces. Publication strategy is an optimization, never
//!    an observable.
//! 2. **Readers mid-delta are never torn.** Concurrent readers racing a
//!    writer that publishes deltas observe, per tenant, a monotone
//!    generation and per-epoch-stable answer bits.
//! 3. **Shards don't leak.** A tenant fed through the interleaved fleet
//!    stream answers bit-for-bit like a standalone single-tenant service
//!    fed the same events — sharding is pure partitioning.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use cosmodel::distr::{Degenerate, Gamma};
use cosmodel::queueing::from_distribution;
use cosmodel::serve::{
    CalibrationBase, OpClass, Query, ServeConfig, ServeError, SlaService, SnapshotReader,
    TelemetryEvent, TenantId,
};
use cosmodel::storesim::{FleetConfig, FleetScenario};
use proptest::prelude::*;

fn base(devices: usize) -> CalibrationBase {
    CalibrationBase {
        index_law: from_distribution(Gamma::new(3.0, 250.0)),
        meta_law: from_distribution(Gamma::new(2.5, 312.5)),
        data_law: from_distribution(Gamma::new(3.5, 245.0)),
        parse_be: from_distribution(Degenerate::new(0.0005)),
        parse_fe: from_distribution(Degenerate::new(0.0003)),
        devices,
        processes_per_device: 1,
        frontend_processes: 3,
    }
}

/// Manual-cadence config: auto-refit never triggers, so tests control
/// exactly which shards fit and when (fleet cadence would otherwise let
/// one tenant's event trigger a sweep mid-tick).
fn manual_config() -> ServeConfig {
    ServeConfig {
        refit_interval: 1e9,
        ..ServeConfig::default()
    }
}

/// Deterministic telemetry for `devices` devices over `[t0, t1)` at
/// 40 req/s per device; `phase` skews the latency mix so different
/// tenants can be driven to different fits.
fn events_span(devices: usize, t0: f64, t1: f64, phase: u64) -> Vec<TelemetryEvent> {
    let mut out = Vec::new();
    let mut i = phase;
    let mut t = t0;
    while t < t1 {
        for d in 0..devices {
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
                latency: if i % 10 < 2 + (phase % 3) {
                    0.030
                } else {
                    0.004
                },
                device: d,
            });
        }
        t += 1.0 / 40.0;
    }
    out
}

fn tid(name: &str) -> TenantId {
    TenantId::new(name).unwrap()
}

/// Collapses one tenant's entire observable surface — every query kind
/// plus status — into comparable bits. `Err` answers participate too:
/// refusals must also be identical across publication strategies.
fn fingerprint(reader: &SnapshotReader, tenant: &TenantId) -> Vec<String> {
    let q = || Query::tenant(tenant.clone());
    let bits = |r: Result<cosmodel::serve::Prediction, ServeError>| match r {
        Ok(p) => format!("ok:{:016x}:{}:{}", p.value.to_bits(), p.epoch, p.stale),
        Err(e) => format!("err:{e}"),
    };
    let mut out = vec![
        bits(reader.attainment(&q().sla(0.05))),
        bits(reader.attainment(&q().sla(0.05).rate(60.0))),
        bits(reader.attainment(&q().sla(0.05).n_k(4, 2))),
        bits(reader.latency_percentile(&q().p(0.95))),
        bits(reader.latency_percentile(&q().p(0.99).n_k(4, 2))),
        bits(reader.admissible_rate(&q().sla(0.05).target(0.9).upper(2000.0))),
    ];
    match reader.device_ranking(&q().sla(0.05)) {
        Ok(ranking) => {
            for (device, frac) in ranking {
                out.push(format!("rank:{device}:{:016x}", frac.to_bits()));
            }
        }
        Err(e) => out.push(format!("rankerr:{e}")),
    }
    match reader.status_for(tenant) {
        Ok(s) => {
            out.push(format!(
                "status:{:016x}:{:?}:{:?}:{}:{:?}",
                s.event_time.to_bits(),
                s.epoch,
                s.fitted_at.map(f64::to_bits),
                s.stale,
                s.last_fit_error,
            ));
            for d in &s.drift {
                out.push(format!(
                    "drift:{:016x}:{:?}:{:?}:{}:{}",
                    d.sla.to_bits(),
                    d.observed.map(f64::to_bits),
                    d.predicted.map(f64::to_bits),
                    d.samples,
                    d.drifted,
                ));
            }
        }
        Err(e) => out.push(format!("statuserr:{e}")),
    }
    out
}

// ---------------------------------------------------------------------------
// 1. Delta-applied state is provably identical to a full republish.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any schedule of per-tenant ingests + delta refits leaves the
    /// published fleet state bit-identical to a full republish of the
    /// same shards — for every tenant and every query kind.
    #[test]
    fn delta_applied_state_is_bit_identical_to_full_republish(
        schedule in proptest::collection::vec(
            (0usize..3, 0u64..5, proptest::bool::ANY),
            1..5,
        ),
    ) {
        let tenants = [tid("alpha"), tid("beta"), tid("gamma")];
        let mut service = SlaService::new(base(2), manual_config());
        // Vivify every tenant so the whole fleet is observable even when
        // the drawn schedule never routes traffic to some of them.
        for t in &tenants {
            service.ingest_for(t, TelemetryEvent::Arrival { at: 0.0, device: 0 });
        }
        let mut clock = 0.0f64;
        for &(who, phase, long) in &schedule {
            let span = if long { 20.0 } else { 6.0 };
            for ev in events_span(2, clock, clock + span, phase) {
                service.ingest_for(&tenants[who], ev);
            }
            clock += span;
            // Each round publishes a *delta*: only dirty shards refit.
            service.refit_now();
            let stats = service.last_publish_stats();
            prop_assert!(stats.republished <= stats.tenants);
        }

        let reader = service.reader();
        let before: Vec<Vec<String>> =
            tenants.iter().map(|t| fingerprint(&reader, t)).collect();
        let gen_before: Vec<u64> = tenants
            .iter()
            .map(|t| reader.generation_for(t).unwrap())
            .collect();

        // Full republish rebuilds every entry from shard state. If deltas
        // dropped or stale-cached anything, the fingerprints diverge.
        let stats = service.republish_full();
        prop_assert_eq!(stats.republished, stats.tenants);
        let after: Vec<Vec<String>> =
            tenants.iter().map(|t| fingerprint(&reader, t)).collect();
        prop_assert_eq!(before, after);

        // Generations moved (new publication), answers did not.
        for (t, g0) in tenants.iter().zip(gen_before) {
            prop_assert!(reader.generation_for(t).unwrap() > g0);
        }
    }
}

/// A delta touching one tenant republishes only that shard (plus the
/// always-swept default slot) and ships a fraction of the full-state
/// bytes; untouched tenants keep their exact `Arc` (no rebuild at all).
#[test]
fn delta_publish_reuses_untouched_tenant_arcs() {
    let mut service = SlaService::new(base(2), manual_config());
    let ids: Vec<TenantId> = (0..6).map(|i| tid(&format!("t{i}"))).collect();
    for id in &ids {
        for ev in events_span(2, 0.0, 20.0, 1) {
            service.ingest_for(id, ev);
        }
    }
    service.refit_now();
    let reader = service.reader();
    let arcs: Vec<Arc<_>> = ids.iter().map(|id| reader.state_for(id).unwrap()).collect();

    // Touch exactly one tenant; everyone else's published Arc survives.
    for ev in events_span(2, 20.0, 40.0, 2) {
        service.ingest_for(&ids[3], ev);
    }
    service.refit_now();
    let stats = service.last_publish_stats();
    assert!(
        stats.republished <= 2,
        "one dirty tenant (+default slot) republished, got {}",
        stats.republished
    );
    assert!(
        stats.delta_bytes < stats.full_bytes,
        "delta must ship fewer bytes than a full republish: {stats:?}"
    );
    for (i, (id, old)) in ids.iter().zip(&arcs).enumerate() {
        let now = reader.state_for(id).unwrap();
        if i == 3 {
            assert!(!Arc::ptr_eq(old, &now), "touched tenant must republish");
        } else {
            assert!(
                Arc::ptr_eq(old, &now),
                "untouched tenant {i} must be reused"
            );
        }
    }
}

/// A delta after fresh telemetry for 6 of 128 four-device tenants (about
/// 5% of the fits) republishes those 6 plus the always-swept default slot
/// and ships at most a quarter of the full-state bytes (measured 0.055).
#[test]
fn a_five_percent_delta_ships_under_a_quarter_of_the_full_state() {
    let scenario = FleetScenario::new(FleetConfig {
        tenants: 128,
        devices: 4,
        rate_per_device: 40.0,
        duration: 1.5,
        seed: 0xF1EE,
    })
    .unwrap();
    let mut service = SlaService::new(base(4), manual_config());
    for (tenant, ev) in scenario.tagged_stream() {
        service.ingest_for(&tenant, ev);
    }
    service.refit_now();
    for i in 0..6 {
        for ev in scenario.events_for(i) {
            service.ingest_for(&scenario.tenant_id(i), ev);
        }
    }
    service.refit_now();
    let stats = service.last_publish_stats();
    assert_eq!(stats.republished, 7, "{stats:?}");
    assert!(stats.delta_ratio() <= 0.25, "{stats:?}");
}

// ---------------------------------------------------------------------------
// 2. Concurrent readers mid-delta: monotone generations, stable epochs.
// ---------------------------------------------------------------------------

#[test]
fn concurrent_readers_mid_delta_observe_whole_generations() {
    let mut service = SlaService::new(base(2), manual_config());
    let ids: Vec<TenantId> = (0..3).map(|i| tid(&format!("t{i}"))).collect();
    for (i, id) in ids.iter().enumerate() {
        for ev in events_span(2, 0.0, 20.0, i as u64) {
            service.ingest_for(id, ev);
        }
    }
    service.refit_now();
    let handle = service.spawn();
    let stop = Arc::new(AtomicBool::new(false));
    // Reader `i` polls tenant `i` and reports the last generation it saw.
    let observed: Arc<Vec<AtomicU64>> = Arc::new(ids.iter().map(|_| AtomicU64::new(0)).collect());

    let readers: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let reader = handle.client().reader();
            let stop = Arc::clone(&stop);
            let observed = Arc::clone(&observed);
            let id = id.clone();
            std::thread::spawn(move || {
                // Per epoch: the answer bits must never change — a torn
                // delta would show the new fit under the old epoch.
                let mut seen: HashMap<u64, u64> = HashMap::new();
                let mut last = 0;
                while !stop.load(Ordering::Relaxed) {
                    let g = reader.generation_for(&id).unwrap();
                    assert!(g >= last, "generation went backwards");
                    last = g;
                    let p = reader
                        .attainment(&Query::tenant(id.clone()).sla(0.05))
                        .unwrap();
                    let bits = p.value.to_bits();
                    let prev = seen.entry(p.epoch).or_insert(bits);
                    assert_eq!(*prev, bits, "epoch {} changed bits mid-delta", p.epoch);
                    observed[i].store(g, Ordering::Release);
                }
                seen.len()
            })
        })
        .collect();

    // Writer: rounds of single-tenant deltas while readers hammer. It
    // first waits until every reader has read its tenant's initial
    // generation, and each round waits until the refitted tenant's reader
    // has read the new one, so every reader crosses every epoch of its
    // tenant.
    let client = handle.client();
    let writer_view = client.reader();
    let caught_up = |i: usize| {
        let published = writer_view.generation_for(&ids[i]).unwrap();
        while observed[i].load(Ordering::Acquire) < published {
            assert!(!readers[i].is_finished(), "reader {i} stopped early");
            std::thread::yield_now();
        }
    };
    for i in 0..ids.len() {
        caught_up(i);
    }
    let mut clock = 20.0;
    for round in 0..12 {
        let i = round % ids.len();
        for ev in events_span(2, clock, clock + 6.0, round as u64) {
            client.ingest_for(&ids[i], ev).unwrap();
        }
        clock += 6.0;
        client.refit_now().unwrap();
        caught_up(i);
    }

    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let epochs = r.join().unwrap();
        assert!(epochs >= 5, "each reader crosses its tenant's 4 refits");
    }
    handle.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// 3. Fleet stream vs standalone service: shards are pure partitions.
// ---------------------------------------------------------------------------

#[test]
fn fleet_shards_answer_bit_identically_to_standalone_services() {
    let scenario = FleetScenario::new(FleetConfig {
        tenants: 4,
        devices: 2,
        rate_per_device: 40.0,
        duration: 8.0,
        seed: 11,
    })
    .unwrap();

    // The service clock is global — a completion's time is
    // `arrival + latency`, so `now` after the fleet stream is the max over
    // *all* tenants' completions, while a standalone service only saw its
    // own. Fits are windowed against `now`, so pin both services to one
    // sync instant past every completion before refitting.
    let sync = scenario.config().duration + 1.0;
    let sync_event = TelemetryEvent::Arrival {
        at: sync,
        device: 0,
    };

    // The fleet service ingests the interleaved, tenant-tagged bus.
    let mut fleet = SlaService::new(base(2), manual_config());
    for (tenant, ev) in scenario.tagged_stream() {
        fleet.ingest_for(&tenant, ev);
    }
    for i in 0..scenario.config().tenants {
        fleet.ingest_for(&scenario.tenant_id(i), sync_event);
    }
    // Every shard is dirty after the ingest, so one refit sweeps them all.
    fleet.refit_now();
    assert_eq!(
        fleet.last_publish_stats().republished,
        1 + scenario.config().tenants
    );
    assert_eq!(fleet.tenants(), 1 + scenario.config().tenants);
    let fleet_reader = fleet.reader();

    let mut distinct = std::collections::HashSet::new();
    for i in 0..scenario.config().tenants {
        let tenant = scenario.tenant_id(i);
        // Standalone: a fresh single-tenant service fed the same events.
        let mut solo = SlaService::new(base(2), manual_config());
        for ev in scenario.events_for(i) {
            solo.ingest(ev);
        }
        solo.ingest(sync_event);
        assert!(solo.refit_now(), "standalone tenant {i} must calibrate");
        let solo_reader = solo.reader();

        let fleet_fp = fingerprint(&fleet_reader, &tenant);
        let solo_fp = fingerprint(&solo_reader, &TenantId::default_tenant());
        assert_eq!(fleet_fp, solo_fp, "tenant {i} diverged from standalone");
        distinct.insert(fleet_fp.join("|"));
    }
    // The scenario promises distinct characters — identical answers across
    // tenants would mean the shards leaked into each other.
    assert_eq!(
        distinct.len(),
        scenario.config().tenants,
        "tenants must have distinct fits"
    );
}
