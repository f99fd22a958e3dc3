//! Property-based tests for the probability substrate.

use lec_prob::{Distribution, MarkovChain, PrefixTables, Rebucket};
use proptest::prelude::*;

/// Strategy producing a valid distribution with 1..=12 buckets.
fn arb_distribution() -> impl Strategy<Value = Distribution> {
    prop::collection::vec((1.0f64..1e6, 0.01f64..10.0), 1..12)
        .prop_map(|pairs| Distribution::from_pairs(pairs).expect("valid by construction"))
}

proptest! {
    #[test]
    fn mass_sums_to_one(d in arb_distribution()) {
        let total: f64 = d.probs().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn support_strictly_increasing(d in arb_distribution()) {
        for w in d.support().windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn mean_within_support_bounds(d in arb_distribution()) {
        let m = d.mean();
        prop_assert!(m >= d.min_value() - 1e-9);
        prop_assert!(m <= d.max_value() + 1e-9);
    }

    #[test]
    fn prefix_tables_agree_with_direct_sums(d in arb_distribution(), x in 0.0f64..2e6) {
        let t = PrefixTables::new(&d);
        let direct_le: f64 = d.iter().filter(|&(v, _)| v <= x).map(|(_, p)| p).sum();
        let direct_pe: f64 = d.iter().filter(|&(v, _)| v <= x).map(|(v, p)| v * p).sum();
        prop_assert!((t.prob_le(x) - direct_le).abs() < 1e-9);
        prop_assert!((t.partial_expect_le(x) - direct_pe).abs() < 1e-6);
        prop_assert!((t.prob_le(x) + t.prob_gt(x) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rebucket_preserves_mass_and_mean(
        d in arb_distribution(),
        n in 1usize..8,
        eq_width in any::<bool>(),
    ) {
        let strategy = if eq_width { Rebucket::EqualWidth } else { Rebucket::EqualDepth };
        let r = d.rebucket(n, strategy).unwrap();
        prop_assert!(r.len() <= n.max(d.len().min(n)));
        let total: f64 = r.probs().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Conditional-mean representatives preserve the mean exactly
        // (up to floating point).
        let scale = d.mean().abs().max(1.0);
        prop_assert!((r.mean() - d.mean()).abs() / scale < 1e-9);
        // Rebucketed support stays within the original range.
        prop_assert!(r.min_value() >= d.min_value() - 1e-9);
        prop_assert!(r.max_value() <= d.max_value() + 1e-9);
    }

    #[test]
    fn product_mean_is_product_of_means(a in arb_distribution(), b in arb_distribution()) {
        let p = a.product(&b);
        let expected = a.mean() * b.mean();
        let scale = expected.abs().max(1.0);
        prop_assert!((p.mean() - expected).abs() / scale < 1e-6);
    }

    #[test]
    fn expectation_is_linear(d in arb_distribution(), a in -5.0f64..5.0, b in -100.0f64..100.0) {
        let lhs = d.expect(|v| a * v + b);
        let rhs = a * d.mean() + b;
        let scale = rhs.abs().max(1.0);
        prop_assert!((lhs - rhs).abs() / scale < 1e-9);
    }

    #[test]
    fn quantile_is_monotone(d in arb_distribution(), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(d.quantile(lo) <= d.quantile(hi));
    }
}

/// Strategy producing a valid Markov chain over 2..=6 states.
fn arb_chain() -> impl Strategy<Value = MarkovChain> {
    (2usize..6)
        .prop_flat_map(|n| {
            let states = prop::collection::vec(1.0f64..1e5, n..=n).prop_map(|mut v| {
                v.sort_by(f64::total_cmp);
                v.dedup_by(|a, b| (*a - *b).abs() < 1e-6);
                // ensure strict increase by nudging duplicates
                for i in 1..v.len() {
                    if v[i] <= v[i - 1] {
                        v[i] = v[i - 1] + 1.0;
                    }
                }
                v
            });
            let rows = prop::collection::vec(prop::collection::vec(0.01f64..1.0, n..=n), n..=n);
            (states, rows)
        })
        .prop_map(|(states, raw_rows)| {
            let rows: Vec<Vec<f64>> = raw_rows
                .into_iter()
                .map(|row| {
                    let s: f64 = row.iter().sum();
                    row.into_iter().map(|p| p / s).collect()
                })
                .collect();
            MarkovChain::new(states, rows).expect("normalized rows are stochastic")
        })
}

proptest! {
    #[test]
    fn evolution_preserves_simplex(c in arb_chain(), seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = c.n_states();
        let mut probs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() + 0.01).collect();
        let total: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= total;
        }
        for _ in 0..5 {
            probs = c.evolve(&probs).unwrap();
            let s: f64 = probs.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
            prop_assert!(probs.iter().all(|&p| p >= -1e-12));
        }
    }
}
