//! Property tests for histogram determinism:
//!
//! * concurrent recording into one shared histogram yields bucket counts
//!   identical to serial recording of the same samples, and
//! * quantile estimates are monotone — in `q` for a fixed sample set, and
//!   in the recorded values (element-wise domination of sample sets).

use lec_telemetry::hist::{bucket_index, bucket_upper_bound, N_BUCKETS};
use lec_telemetry::{Histogram, HistogramSnapshot};
use proptest::prelude::*;

fn samples() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..2_000_000_000, 1..200)
}

fn record_all(values: &[u64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shared_histogram_under_contention_matches_serial(values in samples()) {
        let serial = record_all(&values);

        // All threads hammer ONE histogram's atomic buckets concurrently.
        let shared = Histogram::new();
        let threads = 4usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let shard: Vec<u64> = values
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % threads == t)
                    .map(|(_, v)| *v)
                    .collect();
                let shared = &shared;
                scope.spawn(move || {
                    for v in shard {
                        shared.record(v);
                    }
                });
            }
        });

        prop_assert_eq!(shared.snapshot(), serial);
    }

    #[test]
    fn quantiles_monotone_in_q(values in samples()) {
        let s = record_all(&values);
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
        for w in qs.windows(2) {
            prop_assert!(
                s.quantile(w[0]) <= s.quantile(w[1]),
                "quantile({}) > quantile({})", w[0], w[1]
            );
        }
    }

    #[test]
    fn quantiles_monotone_in_recorded_values(
        values in samples(),
        bumps in prop::collection::vec(0u64..1_000_000, 1..200),
    ) {
        // `bumped` dominates `values` element-wise, so every quantile of the
        // bumped set must be at least the corresponding quantile of the
        // original set.
        let bumped: Vec<u64> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| v.saturating_add(bumps[i % bumps.len()]))
            .collect();
        let lo = record_all(&values);
        let hi = record_all(&bumped);
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            prop_assert!(
                lo.quantile(q) <= hi.quantile(q),
                "quantile({q}) decreased when all samples grew"
            );
        }
    }

    #[test]
    fn quantile_bounds_true_order_statistic(values in samples()) {
        // The estimate is the bucket upper bound holding the true order
        // statistic: never below it, and within one sub-bucket width above.
        let s = record_all(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let est = s.quantile(q);
            prop_assert!(est >= truth);
            prop_assert_eq!(est, bucket_upper_bound(bucket_index(truth)));
        }
    }

    #[test]
    fn bucket_index_total_and_bounds_consistent(v in any::<u64>()) {
        let i = bucket_index(v);
        prop_assert!(i < N_BUCKETS);
        prop_assert!(v <= bucket_upper_bound(i));
        if i > 0 {
            prop_assert!(v > bucket_upper_bound(i - 1));
        }
    }
}
