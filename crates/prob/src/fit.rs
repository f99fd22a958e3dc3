//! Fitting distributions and Markov chains from observations.
//!
//! The paper's first open question (§3.1): *"How do we get the probability
//! distributions?  ...the DBMS in practice is constantly gathering
//! statistical information.  We believe that the statistics can be
//! enhanced to provide reasonable estimates of the relevant
//! probabilities."*  This module is that enhancement: estimators that turn
//! a log of observed memory values (or per-phase memory traces) into the
//! [`Distribution`]s and [`MarkovChain`]s the LEC algorithms consume.

use crate::dist::{Distribution, Rebucket};
use crate::error::ProbError;
use crate::markov::MarkovChain;

/// Fit a bucketed distribution from raw observations.
///
/// Observations are histogrammed into at most `buckets` cells with the
/// chosen strategy; representatives are conditional means, so the fitted
/// distribution matches the sample mean exactly.
pub fn fit_distribution(
    samples: &[f64],
    buckets: usize,
    strategy: Rebucket,
) -> Result<Distribution, ProbError> {
    if samples.is_empty() {
        return Err(ProbError::EmptySupport);
    }
    let raw = Distribution::from_pairs(samples.iter().map(|&s| (s, 1.0)))?;
    raw.rebucket(buckets, strategy)
}

/// Laplace smoothing weight for unseen transitions: keeps fitted chains
/// irreducible so stationary distributions exist.
const TRANSITION_SMOOTHING: f64 = 0.5;

/// Fit a time-homogeneous Markov chain from one or more observed
/// memory traces.
///
/// Every observed value is snapped to the nearest of `states`; transition
/// counts between consecutive trace entries are Laplace-smoothed and
/// row-normalized.  This is the §3.5 "transition probability describing
/// how likely memory is to change", estimated the way a 24×7 system in
/// stable operation would estimate it.
pub fn fit_markov(traces: &[Vec<f64>], states: Vec<f64>) -> Result<MarkovChain, ProbError> {
    if states.is_empty() {
        return Err(ProbError::EmptySupport);
    }
    for w in states.windows(2) {
        if w[0] >= w[1] {
            return Err(ProbError::BadTransitionMatrix(
                "states must be strictly increasing".into(),
            ));
        }
    }
    let n = states.len();
    let snap = |v: f64| -> usize {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, &s) in states.iter().enumerate() {
            let d = (s - v).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    };
    let mut counts = vec![vec![TRANSITION_SMOOTHING; n]; n];
    let mut observed_any = false;
    for trace in traces {
        for w in trace.windows(2) {
            counts[snap(w[0])][snap(w[1])] += 1.0;
            observed_any = true;
        }
    }
    if !observed_any {
        return Err(ProbError::BadTransitionMatrix(
            "no transitions observed (all traces shorter than 2)".into(),
        ));
    }
    let rows = counts
        .into_iter()
        .map(|row| {
            let total: f64 = row.iter().sum();
            row.into_iter().map(|c| c / total).collect()
        })
        .collect();
    MarkovChain::new(states, rows)
}

/// Fit the initial (phase-0) distribution from the first entries of the
/// observed traces, snapped onto the chain's states.
pub fn fit_initial(traces: &[Vec<f64>], chain: &MarkovChain) -> Result<Distribution, ProbError> {
    let firsts: Vec<f64> = traces.iter().filter_map(|t| t.first().copied()).collect();
    if firsts.is_empty() {
        return Err(ProbError::EmptySupport);
    }
    let snap = |v: f64| -> f64 {
        *chain
            .states()
            .iter()
            .min_by(|a, b| (*a - v).abs().total_cmp(&(*b - v).abs()))
            .expect("non-empty states")
    };
    Distribution::from_pairs(firsts.iter().map(|&f| (snap(f), 1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fit_distribution_matches_sample_moments() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let truth = Distribution::bimodal(700.0, 2000.0, 0.8).unwrap();
        let samples: Vec<f64> = (0..20_000).map(|_| truth.sample(&mut rng)).collect();
        let fitted = fit_distribution(&samples, 4, Rebucket::EqualDepth).unwrap();
        let sample_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((fitted.mean() - sample_mean).abs() < 1e-6);
        assert!((fitted.mean() - truth.mean()).abs() / truth.mean() < 0.02);
        assert!(fitted.len() <= 4);
    }

    #[test]
    fn fit_distribution_rejects_empty() {
        assert!(fit_distribution(&[], 4, Rebucket::EqualWidth).is_err());
    }

    #[test]
    fn fit_markov_recovers_a_known_chain() {
        let states = vec![100.0, 400.0, 1600.0];
        let truth = MarkovChain::birth_death(states.clone(), 0.3, 0.2).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let init = vec![0.0, 1.0, 0.0];
        let traces: Vec<Vec<f64>> = (0..500)
            .map(|_| truth.sample_path(&init, 50, &mut rng))
            .collect();
        let fitted = fit_markov(&traces, states).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (fitted.row(i)[j] - truth.row(i)[j]).abs() < 0.03,
                    "P[{i}][{j}]: fitted {} vs true {}",
                    fitted.row(i)[j],
                    truth.row(i)[j]
                );
            }
        }
    }

    #[test]
    fn fit_markov_smooths_unseen_transitions() {
        // One short trace: most transitions unseen; smoothing keeps every
        // row stochastic and strictly positive.
        let chain = fit_markov(&[vec![100.0, 100.0, 400.0]], vec![100.0, 400.0]).unwrap();
        for i in 0..2 {
            let s: f64 = chain.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(chain.row(i).iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn fit_markov_snaps_noisy_observations() {
        // Values near a state snap onto it.
        let traces = vec![vec![110.0, 95.0, 390.0, 410.0, 100.0]];
        let chain = fit_markov(&traces, vec![100.0, 400.0]).unwrap();
        // Observed: 100→100, 100→400, 400→400, 400→100 (one each).
        assert!(chain.row(0)[1] > 0.2 && chain.row(0)[1] < 0.8);
    }

    #[test]
    fn fit_markov_rejects_degenerate_input() {
        assert!(fit_markov(&[vec![1.0, 2.0]], vec![]).is_err());
        assert!(fit_markov(&[vec![1.0]], vec![1.0, 2.0]).is_err()); // no transitions
        assert!(fit_markov(&[vec![1.0, 2.0]], vec![2.0, 1.0]).is_err()); // unsorted
    }

    #[test]
    fn fit_initial_uses_first_entries() {
        let chain = MarkovChain::identity(vec![100.0, 400.0]).unwrap();
        let traces = vec![
            vec![100.0, 400.0],
            vec![100.0, 100.0],
            vec![390.0, 100.0], // snaps to 400
            vec![105.0, 400.0], // snaps to 100
        ];
        let init = fit_initial(&traces, &chain).unwrap();
        let le_100: f64 = init
            .iter()
            .filter(|&(v, _)| v <= 100.0)
            .map(|(_, p)| p)
            .sum();
        assert!((le_100 - 0.75).abs() < 1e-12);
        assert!(fit_initial(&[], &chain).is_err());
    }
}
