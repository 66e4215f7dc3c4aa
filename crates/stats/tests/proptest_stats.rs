//! Property-based tests for the statistics utilities.

use cos_stats::{exact_percentile, ErrorSummary, PredictionPoint};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn percentile_is_order_statistic_bound(
        mut values in proptest::collection::vec(0.0f64..1e6, 1..300),
        p in 0.0f64..=1.0,
    ) {
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0f64, f64::max);
        let q = exact_percentile(&mut values, p);
        prop_assert!(q >= min - 1e-9 && q <= max + 1e-9);
    }

    #[test]
    fn error_summary_bounds(
        pts in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..100),
    ) {
        let points: Vec<PredictionPoint> = pts
            .iter()
            .map(|&(observed, predicted)| PredictionPoint { observed, predicted })
            .collect();
        let s = ErrorSummary::from_points(&points);
        prop_assert!(s.best <= s.mean + 1e-12);
        prop_assert!(s.mean <= s.worst + 1e-12);
        prop_assert!(s.bias.abs() <= s.mean + 1e-12);
        prop_assert_eq!(s.count, points.len());
    }
}
