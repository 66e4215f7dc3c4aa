//! Property-based tests for the discrete-event engine.

use cos_simkit::{Calendar, RngStreams, SimTime};
use proptest::prelude::*;
use rand::Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn calendar_pops_sorted(times in proptest::collection::vec(0.0f64..1e6, 1..500)) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule_at(SimTime::new(t), i);
        }
        let mut prev = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = cal.pop() {
            prop_assert!(t >= prev);
            prev = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn calendar_equal_times_fifo(n in 1usize..200, t in 0.0f64..100.0) {
        let mut cal = Calendar::new();
        for i in 0..n {
            cal.schedule_at(SimTime::new(t), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn rng_streams_deterministic_and_label_sensitive(seed in 0u64..u64::MAX, idx in 0u64..1000) {
        let f = RngStreams::new(seed);
        let a: u64 = f.stream("x", idx).gen();
        let b: u64 = f.stream("x", idx).gen();
        prop_assert_eq!(a, b);
        let c: u64 = f.stream("y", idx).gen();
        // Collisions are astronomically unlikely.
        prop_assert_ne!(a, c);
    }
}
