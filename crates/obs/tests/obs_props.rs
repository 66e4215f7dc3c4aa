//! Property tests: merged histograms preserve counts exactly and keep the
//! quantile error bound, for arbitrary sample streams.

use cos_obs::{exposition_edges_ns, Hist, HistSnapshot, Registry};
use proptest::prelude::*;

/// One nanosecond sample from a band covering the whole interesting range
/// (sub-16 ns unit buckets through multi-second octaves and the overflow
/// clamp).
fn sample_value() -> impl Strategy<Value = u64> {
    (0u64..5, 0u64..u64::MAX).prop_map(|(band, raw)| match band {
        0 => raw % 16,
        1 => 16 + raw % (1_000 - 16),
        2 => 1_000 + raw % 999_000,
        3 => 1_000_000 + raw % 9_999_000_000,
        _ => u64::MAX,
    })
}

fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(sample_value(), 0..200)
}

fn record_all(values: &[u64]) -> Hist {
    let h = Hist::new();
    for &v in values {
        h.record_ns(v);
    }
    h
}

/// Exact sample quantile matching the histogram's rank convention
/// (rank `⌈q·n⌉`, 1-based, clamped).
fn exact_quantile_ns(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

proptest! {
    #[test]
    fn merge_is_exactly_the_union(a in samples(), b in samples()) {
        let union: Vec<u64> = a.iter().chain(&b).copied().collect();
        let mut merged = record_all(&a).snapshot();
        merged.merge_from(&record_all(&b).snapshot());
        let direct = record_all(&union).snapshot();
        prop_assert_eq!(&merged, &direct);
        prop_assert_eq!(merged.count(), (a.len() + b.len()) as u64);
    }

    #[test]
    fn merged_quantiles_stay_within_one_bucket(a in samples(), b in samples()) {
        let mut union: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assume!(!union.is_empty());
        union.sort_unstable();
        let mut merged = record_all(&a).snapshot();
        merged.merge_from(&record_all(&b).snapshot());
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let got = merged.quantile_ns(q).expect("non-empty");
            let exact = exact_quantile_ns(&union, q);
            // The histogram reports the inclusive upper edge of the bucket
            // holding the exact rank sample: never below it, and at most
            // one sub-bucket width (≤ 1/16 relative, +1 for integer edges)
            // above — except in the overflow bucket, which clamps.
            prop_assert!(got >= exact.min(got), "q={q}: {got} vs exact {exact}");
            if exact < u64::MAX / 2 {
                prop_assert!(got >= exact, "q={q}: {got} < exact {exact}");
                prop_assert!(
                    got as f64 <= exact as f64 * (1.0 + 1.0 / 16.0) + 1.0,
                    "q={q}: {got} too far above exact {exact}"
                );
            }
        }
    }

    #[test]
    fn merge_identity_and_commutativity(a in samples(), b in samples()) {
        let sa = record_all(&a).snapshot();
        let sb = record_all(&b).snapshot();
        let mut with_empty = sa.clone();
        with_empty.merge_from(&HistSnapshot::empty());
        prop_assert_eq!(&with_empty, &sa);
        let mut ab = sa.clone();
        ab.merge_from(&sb);
        let mut ba = sb.clone();
        ba.merge_from(&sa);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn every_rendered_bucket_is_the_cumulative_count_at_its_edge(
        spread in samples(),
        // Values one below, at and one above an exposition edge.
        hugging in proptest::collection::vec((0usize..26, 0u64..3), 0..60),
        labeled in proptest::bool::ANY,
    ) {
        let edges = exposition_edges_ns();
        let r = Registry::new();
        let h = if labeled {
            r.histogram_with_label("cos_p_seconds", "route", "/a", "p")
        } else {
            r.histogram("cos_p_seconds", "p")
        };
        for &v in &spread {
            h.record_ns(v);
        }
        for &(edge, k) in &hugging {
            h.record_ns(edges[edge] - 1 + k);
        }
        let snap = h.snapshot();
        let text = r.render();
        let rendered: Vec<u64> = text
            .lines()
            .filter(|line| line.starts_with("cos_p_seconds_bucket"))
            .map(|line| line.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        prop_assert_eq!(rendered.len(), edges.len() + 1);
        for (got, &edge) in rendered.iter().zip(&edges) {
            prop_assert_eq!(*got, snap.cumulative_le_ns(edge), "edge {}", edge);
        }
        prop_assert_eq!(rendered[edges.len()], snap.count());
    }
}
