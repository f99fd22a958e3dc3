//! Property-based tests for the probability substrate.

use lec_prob::{normalize_pairs, Distribution, MarkovChain, ProbError, Rebucket};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

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

/// The reference the in-place normalization is held to: the constructor
/// every distribution went through before it, verbatim but for returning
/// its parts (`Distribution`'s fields are private).
mod reference {
    use lec_prob::{ProbError, Rebucket};

    const MERGE_EPS: f64 = 1e-9;

    fn nearly_equal(a: f64, b: f64) -> bool {
        (a - b).abs() <= MERGE_EPS * a.abs().max(b.abs()).max(1.0)
    }

    pub type Parts = (Vec<f64>, Vec<f64>);

    pub fn from_pairs(pairs: impl IntoIterator<Item = (f64, f64)>) -> Result<Parts, ProbError> {
        let mut pairs: Vec<(f64, f64)> = pairs.into_iter().collect();
        if pairs.is_empty() {
            return Err(ProbError::EmptySupport);
        }
        for &(v, p) in &pairs {
            if !v.is_finite() {
                return Err(ProbError::NonFinite {
                    what: "support value",
                    value: v,
                });
            }
            if !p.is_finite() {
                return Err(ProbError::NonFinite {
                    what: "probability",
                    value: p,
                });
            }
            if p < 0.0 {
                return Err(ProbError::NegativeProbability(p));
            }
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut support: Vec<f64> = Vec::with_capacity(pairs.len());
        let mut probs: Vec<f64> = Vec::with_capacity(pairs.len());
        for (v, p) in pairs {
            if p == 0.0 {
                continue;
            }
            match support.last() {
                Some(&last) if nearly_equal(last, v) => {
                    *probs.last_mut().expect("probs parallel to support") += p;
                }
                _ => {
                    support.push(v);
                    probs.push(p);
                }
            }
        }
        let total: f64 = probs.iter().sum();
        if support.is_empty() || total <= 0.0 {
            return Err(ProbError::ZeroTotalMass);
        }
        for p in &mut probs {
            *p /= total;
        }
        Ok((support, probs))
    }

    /// `Distribution::rebucket` before it ran on pair buffers, over the
    /// parts above.
    pub fn rebucket((support, probs): &Parts, n: usize, strategy: Rebucket) -> Parts {
        if support.len() <= n {
            return (support.clone(), probs.clone());
        }
        let iter = || support.iter().copied().zip(probs.iter().copied());
        match strategy {
            Rebucket::EqualWidth => {
                let lo = support[0];
                let hi = *support.last().unwrap();
                let width = (hi - lo) / n as f64;
                let mut mass = vec![0.0; n];
                let mut weighted = vec![0.0; n];
                for (v, p) in iter() {
                    let mut idx = if width > 0.0 {
                        ((v - lo) / width) as usize
                    } else {
                        0
                    };
                    if idx >= n {
                        idx = n - 1;
                    }
                    mass[idx] += p;
                    weighted[idx] += v * p;
                }
                from_pairs(
                    mass.iter()
                        .zip(&weighted)
                        .filter(|(m, _)| **m > 0.0)
                        .map(|(&m, &w)| (w / m, m)),
                )
                .unwrap()
            }
            Rebucket::EqualDepth => {
                let target = 1.0 / n as f64;
                let mut out: Vec<(f64, f64)> = Vec::with_capacity(n);
                let mut mass = 0.0;
                let mut weighted = 0.0;
                let mut filled = 0usize;
                for (i, (v, p)) in iter().enumerate() {
                    mass += p;
                    weighted += v * p;
                    let remaining_buckets = n - filled;
                    let last_value = i + 1 == support.len();
                    let values_left = support.len() - (i + 1);
                    if last_value
                        || (mass + 1e-12 >= target && values_left >= remaining_buckets - 1)
                        || values_left < remaining_buckets
                    {
                        out.push((weighted / mass, mass));
                        filled += 1;
                        mass = 0.0;
                        weighted = 0.0;
                        if filled == n {
                            break;
                        }
                    }
                }
                if mass > 0.0 {
                    let (lv, lp) = out.pop().expect("at least one bucket emitted");
                    out.push(((lv * lp + weighted) / (lp + mass), lp + mass));
                }
                from_pairs(out).unwrap()
            }
        }
    }
}

/// Random pairs that stress the normalization: exact duplicate values,
/// values within the merge tolerance of one another, zero probabilities
/// and values under one page.
fn awkward_pairs(rng: &mut impl Rng) -> Vec<(f64, f64)> {
    let n = rng.gen_range(1..=24);
    let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(n);
    for _ in 0..n {
        let v = match (rng.gen_range(0..6), pairs.last()) {
            (0, Some(&(v, _))) => v,
            (1, Some(&(v, _))) => v * (1.0 + rng.gen_range(-2e-9..2e-9)),
            (2, _) => rng.gen_range(0.01..1.0),
            (3, _) => 1.0,
            _ => rng.gen_range(0.5..1e6),
        };
        let p = match rng.gen_range(0..5) {
            0 => 0.0,
            _ => rng.gen_range(1e-6..3.0),
        };
        pairs.push((v, p));
    }
    pairs
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn parts_bits(d: &Distribution) -> (Vec<u64>, Vec<u64>) {
    (bits(d.support()), bits(d.probs()))
}

fn reference_bits(parts: &reference::Parts) -> (Vec<u64>, Vec<u64>) {
    (bits(&parts.0), bits(&parts.1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The in-place normalization and every transform built on it —
    /// `from_pairs`, `product`, `map` and both rebucketing strategies —
    /// give the reference constructor's bits, errors included.
    #[test]
    fn normalization_in_place_matches_the_reference_bit_for_bit(seed in 0u64..1_000_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pairs = awkward_pairs(&mut rng);
        let want = reference::from_pairs(pairs.iter().copied());
        let mut got = pairs.clone();
        match (normalize_pairs(&mut got), &want) {
            (Ok(()), Ok(parts)) => {
                let (v, p): (Vec<f64>, Vec<f64>) = got.iter().copied().unzip();
                prop_assert_eq!((bits(&v), bits(&p)), reference_bits(parts));
            }
            (got, want) => prop_assert_eq!(got, want.clone().map(|_| ())),
        }
        let Ok(want) = want else {
            prop_assert_eq!(
                Distribution::from_pairs(pairs).map(|_| ()),
                Err(ProbError::ZeroTotalMass)
            );
            return Ok(());
        };
        let d = Distribution::from_pairs(pairs).unwrap();
        prop_assert_eq!(parts_bits(&d), reference_bits(&want));

        let other = loop {
            if let Ok(o) = Distribution::from_pairs(awkward_pairs(&mut rng)) {
                break o;
            }
        };
        let product: Vec<_> = d
            .iter()
            .flat_map(|(a, pa)| other.iter().map(move |(b, pb)| (a * b, pa * pb)))
            .collect();
        let want = reference::from_pairs(product).unwrap();
        prop_assert_eq!(parts_bits(&d.product(&other)), reference_bits(&want));

        for f in [|v: f64| v.max(1.0), |v: f64| (v - 300.0).abs()] {
            let want = reference::from_pairs(d.iter().map(|(v, p)| (f(v), p))).unwrap();
            prop_assert_eq!(parts_bits(&d.map(f)), reference_bits(&want));
        }

        let parts = (d.support().to_vec(), d.probs().to_vec());
        for strategy in [Rebucket::EqualWidth, Rebucket::EqualDepth] {
            for n in 1..=8 {
                let want = reference::rebucket(&parts, n, strategy);
                let got = d.rebucket(n, strategy).unwrap();
                prop_assert_eq!(parts_bits(&got), reference_bits(&want), "{:?} {}", strategy, n);
            }
        }
    }
}
