//! Property-based tests of the inversion memo: caching must be invisible —
//! a cache hit returns a value bit-identical to an uncached evaluation at
//! the quantized query point, across random operating points.

use std::sync::Arc;

use cos_distr::{Degenerate, Gamma};
use cos_model::{DeviceParams, FrontendParams, ModelVariant, SystemModel, SystemParams};
use cos_queueing::from_distribution;
use cos_serve::{
    quantize_rate, CacheCounters, EpochSnapshot, QueryKind, ServeError, RATE_QUANTUM, SLA_QUANTUM,
};
use proptest::prelude::*;

fn params(rate: f64, devices: usize, miss: f64) -> SystemParams {
    let per = rate / devices as f64;
    SystemParams {
        frontend: FrontendParams {
            arrival_rate: rate,
            processes: 3,
            parse_fe: from_distribution(Degenerate::new(0.0003)),
        },
        devices: (0..devices)
            .map(|_| DeviceParams {
                arrival_rate: per,
                data_read_rate: per * 1.1,
                miss_index: miss,
                miss_meta: miss * 0.8,
                miss_data: (miss * 1.3).min(1.0),
                index_disk: from_distribution(Gamma::new(3.0, 250.0)),
                meta_disk: from_distribution(Gamma::new(2.5, 312.5)),
                data_disk: from_distribution(Gamma::new(3.5, 245.0)),
                parse_be: from_distribution(Degenerate::new(0.0005)),
                processes: 1,
            })
            .collect(),
    }
}

fn snap(x: f64, quantum: f64) -> f64 {
    (x / quantum).round().max(1.0) * quantum
}

/// `params` installed as a first epoch, with the counters its fresh memo
/// counts into.
fn installed(params: SystemParams) -> (Arc<CacheCounters>, EpochSnapshot) {
    let counters = Arc::new(CacheCounters::default());
    let snapshot = EpochSnapshot::new(1, Arc::new(params), 0.0, Arc::clone(&counters));
    (counters, snapshot)
}

/// One memoized question about `snapshot`.
fn ask(snapshot: &EpochSnapshot, rate_q: Option<i64>, kind: QueryKind) -> Result<f64, ServeError> {
    snapshot.answer(ModelVariant::Full, rate_q, kind).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cached answers are bit-identical to a fresh, cache-free model
    /// evaluated at the snapped query point.
    #[test]
    fn cache_hits_are_bit_identical_to_uncached(
        rate in 30.0f64..150.0,
        sla in 0.005f64..0.200,
        devices in 1usize..4,
        miss in 0.1f64..0.6,
    ) {
        let p = params(rate, devices, miss);
        let (cache, epoch) = installed(p.clone());

        let miss_answer = ask(&epoch, None, QueryKind::fraction(sla));
        let hit_answer = ask(&epoch, None, QueryKind::fraction(sla));
        prop_assert_eq!(cache.stats().hits, 1);

        match SystemModel::new(&p, ModelVariant::Full) {
            Ok(m) => {
                let uncached = m.fraction_meeting_sla(snap(sla, SLA_QUANTUM));
                prop_assert_eq!(miss_answer.unwrap().to_bits(), uncached.to_bits());
                prop_assert_eq!(hit_answer.unwrap().to_bits(), uncached.to_bits());
            }
            Err(_) => {
                // A randomly saturated operating point: the typed error
                // must be served identically from miss and hit.
                prop_assert_eq!(miss_answer, hit_answer);
                prop_assert!(miss_answer.is_err());
            }
        }
    }

    /// Same for what-if queries at a rescaled rate: the cached value equals
    /// an uncached evaluation on parameters scaled to the snapped rate.
    #[test]
    fn what_if_cache_matches_uncached_scaled_model(
        rate in 50.0f64..120.0,
        what_if in 20.0f64..200.0,
        sla in 0.010f64..0.150,
    ) {
        let p = params(rate, 2, 0.3);
        let (cache, epoch) = installed(p.clone());

        let at = Some(quantize_rate(what_if));
        let first = ask(&epoch, at, QueryKind::fraction(sla));
        let second = ask(&epoch, at, QueryKind::fraction(sla));
        prop_assert_eq!(cache.stats().hits, 1);

        let scaled = p.scaled_to_rate(snap(what_if, RATE_QUANTUM));
        match SystemModel::new(&scaled, ModelVariant::Full) {
            Ok(m) => {
                let uncached = m.fraction_meeting_sla(snap(sla, SLA_QUANTUM));
                prop_assert_eq!(first.unwrap().to_bits(), uncached.to_bits());
                prop_assert_eq!(second.unwrap().to_bits(), uncached.to_bits());
            }
            Err(_) => {
                prop_assert!(first.is_err() && second.is_err(),
                    "unstable what-if must be a typed error from cache and miss alike");
            }
        }
    }

    /// Queries inside one quantization cell share one answer; the hit rate
    /// over any repeated query mix therefore exceeds the 80% target.
    #[test]
    fn repeated_query_mix_exceeds_hit_rate_target(
        rate in 60.0f64..100.0,
        base_sla in 0.020f64..0.100,
        rounds in 6usize..15,
    ) {
        let (cache, epoch) = installed(params(rate, 2, 0.3));
        // A dashboard polling 4 questions `rounds` times with sub-quantum
        // jitter on the SLA. Snap the base SLA to a cell center so the
        // jitter can never straddle a quantization boundary.
        let base_sla = (base_sla / SLA_QUANTUM).round() * SLA_QUANTUM;
        for round in 0..rounds {
            let jitter = (round as f64) * (SLA_QUANTUM / 100.0);
            for kind in [
                QueryKind::fraction(base_sla + jitter),
                QueryKind::fraction(2.0 * base_sla + jitter),
                QueryKind::percentile(0.95),
                QueryKind::percentile(0.99),
            ] {
                ask(&epoch, None, kind).unwrap();
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.misses, 4);
        prop_assert!(stats.hit_rate() > 0.8, "hit rate {}", stats.hit_rate());
    }
}
