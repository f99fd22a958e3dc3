//! Markov models of dynamically changing memory (§3.5).
//!
//! For long-running queries the paper drops the "memory is constant"
//! assumption: execution proceeds in *phases* (one per join), memory is
//! constant within a phase but moves between phases according to a
//! transition probability that "depends only on the current memory usage,
//! not on the time" — i.e. a time-homogeneous Markov chain.  Algorithm C
//! then simply associates the initial distribution with the root of the DP
//! dag and pushes it through the transition matrix once per depth
//! (Theorem 3.4).

use crate::dist::Distribution;
use crate::error::ProbError;
use rand::Rng;

/// Row-stochasticity tolerance for transition-matrix validation.
const ROW_SUM_TOL: f64 = 1e-9;

/// A finite, time-homogeneous Markov chain over memory sizes.
///
/// `states` are the memory bucket representatives (strictly increasing);
/// `rows[i][j]` is the probability of moving from state `i` to state `j`
/// between two execution phases.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovChain {
    states: Vec<f64>,
    rows: Vec<Vec<f64>>,
}

impl MarkovChain {
    /// Validate and build a chain.
    pub fn new(states: Vec<f64>, rows: Vec<Vec<f64>>) -> Result<Self, ProbError> {
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
        if rows.len() != states.len() {
            return Err(ProbError::BadTransitionMatrix(format!(
                "expected {} rows, got {}",
                states.len(),
                rows.len()
            )));
        }
        for (i, row) in rows.iter().enumerate() {
            if row.len() != states.len() {
                return Err(ProbError::BadTransitionMatrix(format!(
                    "row {i} has {} entries, expected {}",
                    row.len(),
                    states.len()
                )));
            }
            let mut sum = 0.0;
            for &p in row {
                if !p.is_finite() {
                    return Err(ProbError::NonFinite {
                        what: "transition probability",
                        value: p,
                    });
                }
                if p < 0.0 {
                    return Err(ProbError::NegativeProbability(p));
                }
                sum += p;
            }
            if (sum - 1.0).abs() > ROW_SUM_TOL {
                return Err(ProbError::BadTransitionMatrix(format!(
                    "row {i} sums to {sum}, expected 1"
                )));
            }
        }
        Ok(MarkovChain { states, rows })
    }

    /// The identity chain: memory never changes.  Dynamic Algorithm C under
    /// this chain must coincide with static Algorithm C (tested in lec-core).
    pub fn identity(states: Vec<f64>) -> Result<Self, ProbError> {
        let n = states.len();
        let rows = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
            .collect();
        MarkovChain::new(states, rows)
    }

    /// A birth–death ("random walk") chain: from state `i`, move down with
    /// probability `p_down`, up with `p_up`, stay otherwise; reflecting
    /// boundaries.  This models the paper's picture of concurrent queries
    /// starting and finishing, each claiming/releasing a slice of memory.
    pub fn birth_death(states: Vec<f64>, p_down: f64, p_up: f64) -> Result<Self, ProbError> {
        if !(0.0..=1.0).contains(&p_down) || !(0.0..=1.0).contains(&p_up) || p_down + p_up > 1.0 {
            return Err(ProbError::BadTransitionMatrix(
                "p_down and p_up must be probabilities with p_down + p_up <= 1".into(),
            ));
        }
        let n = states.len();
        if n == 0 {
            return Err(ProbError::EmptySupport);
        }
        let mut rows = vec![vec![0.0; n]; n];
        for i in 0..n {
            let down = if i > 0 { p_down } else { 0.0 };
            let up = if i + 1 < n { p_up } else { 0.0 };
            if i > 0 {
                rows[i][i - 1] = down;
            }
            if i + 1 < n {
                rows[i][i + 1] = up;
            }
            rows[i][i] = 1.0 - down - up;
        }
        MarkovChain::new(states, rows)
    }

    /// A "sticky mixing" chain: stay with probability `p_stay`, otherwise
    /// jump to a uniformly random *other* state.  High churn environments.
    pub fn sticky_uniform(states: Vec<f64>, p_stay: f64) -> Result<Self, ProbError> {
        if !(0.0..=1.0).contains(&p_stay) {
            return Err(ProbError::BadTransitionMatrix(
                "p_stay must be a probability".into(),
            ));
        }
        let n = states.len();
        if n == 0 {
            return Err(ProbError::EmptySupport);
        }
        if n == 1 {
            return MarkovChain::identity(states);
        }
        let off = (1.0 - p_stay) / (n - 1) as f64;
        let rows = (0..n)
            .map(|i| (0..n).map(|j| if i == j { p_stay } else { off }).collect())
            .collect();
        MarkovChain::new(states, rows)
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// The memory values of the states.
    pub fn states(&self) -> &[f64] {
        &self.states
    }

    /// One transition row.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i]
    }

    /// One step of the Chapman–Kolmogorov evolution: `probs · P`.
    pub fn evolve(&self, probs: &[f64]) -> Result<Vec<f64>, ProbError> {
        if probs.len() != self.n_states() {
            return Err(ProbError::SupportMismatch {
                expected: self.n_states(),
                got: probs.len(),
            });
        }
        let n = self.n_states();
        let mut out = vec![0.0; n];
        for (i, &pi) in probs.iter().enumerate() {
            if pi == 0.0 {
                continue;
            }
            for (j, &pij) in self.rows[i].iter().enumerate() {
                out[j] += pi * pij;
            }
        }
        Ok(out)
    }

    /// Convert a distribution whose support is a subset of the chain's
    /// states into a dense probability vector aligned with the states.
    pub fn dist_to_probs(&self, dist: &Distribution) -> Result<Vec<f64>, ProbError> {
        let mut out = vec![0.0; self.n_states()];
        for (v, p) in dist.iter() {
            match self
                .states
                .iter()
                .position(|&s| (s - v).abs() <= 1e-9 * s.abs().max(1.0))
            {
                Some(idx) => out[idx] += p,
                None => {
                    return Err(ProbError::SupportMismatch {
                        expected: self.n_states(),
                        got: dist.len(),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Convert a dense probability vector back into a [`Distribution`].
    fn probs_to_dist(&self, probs: &[f64]) -> Result<Distribution, ProbError> {
        if probs.len() != self.n_states() {
            return Err(ProbError::SupportMismatch {
                expected: self.n_states(),
                got: probs.len(),
            });
        }
        Distribution::from_pairs(self.states.iter().copied().zip(probs.iter().copied()))
    }

    /// The per-phase marginals of §3.5: phase `k` is `initial` evolved `k`
    /// steps, for `n` phases — the per-depth update Algorithm C performs
    /// in the dynamic setting: "use the transition probabilities to
    /// compute the distribution associated with each node" (§3.5).  Each
    /// phase's successor is computed before the phase is kept, so an
    /// `initial` off the chain's states errs for every `n > 0`.
    pub fn marginals(
        &self,
        initial: &Distribution,
        n: usize,
    ) -> Result<Vec<Distribution>, ProbError> {
        let (mut out, mut cur) = (Vec::with_capacity(n), initial.clone());
        for _ in 0..n {
            let probs = self.evolve(&self.dist_to_probs(&cur)?)?;
            let next = self.probs_to_dist(&probs)?;
            out.push(std::mem::replace(&mut cur, next));
        }
        Ok(out)
    }

    /// Sample a state index from a dense probability vector.
    fn sample_state<R: Rng + ?Sized>(&self, probs: &[f64], rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, &p) in probs.iter().enumerate() {
            acc += p;
            if u < acc {
                return i;
            }
        }
        probs.len() - 1
    }

    /// Sample a path of `len` memory values starting from `initial`
    /// (a dense probability vector over states).  Returned values are the
    /// per-phase memory sizes of one simulated query execution.
    pub fn sample_path<R: Rng + ?Sized>(
        &self,
        initial: &[f64],
        len: usize,
        rng: &mut R,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(len);
        if len == 0 {
            return out;
        }
        let mut state = self.sample_state(initial, rng);
        out.push(self.states[state]);
        for _ in 1..len {
            state = self.sample_state(&self.rows[state], rng);
            out.push(self.states[state]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn chain() -> MarkovChain {
        MarkovChain::birth_death(vec![500.0, 1000.0, 2000.0], 0.3, 0.2).unwrap()
    }

    #[test]
    fn validation_rejects_bad_matrices() {
        assert!(MarkovChain::new(vec![], vec![]).is_err());
        assert!(MarkovChain::new(vec![2.0, 1.0], vec![vec![1.0, 0.0]; 2]).is_err());
        assert!(MarkovChain::new(vec![1.0, 2.0], vec![vec![0.5, 0.4]; 2]).is_err());
        assert!(MarkovChain::new(vec![1.0, 2.0], vec![vec![1.5, -0.5]; 2]).is_err());
        assert!(MarkovChain::new(vec![1.0, 2.0], vec![vec![1.0, 0.0]]).is_err());
    }

    #[test]
    fn birth_death_rows_are_stochastic_with_reflecting_bounds() {
        let c = chain();
        let expect = [
            [0.8, 0.2, 0.0], // no down-move at the bottom
            [0.3, 0.5, 0.2],
            [0.0, 0.3, 0.7], // no up-move at the top
        ];
        for (i, row) in expect.iter().enumerate() {
            for (j, &p) in row.iter().enumerate() {
                assert!(
                    (c.row(i)[j] - p).abs() < 1e-12,
                    "row {i} col {j}: {} vs {p}",
                    c.row(i)[j]
                );
            }
        }
    }

    #[test]
    fn evolution_preserves_mass() {
        let c = chain();
        let mut probs = vec![1.0, 0.0, 0.0];
        for _ in 0..10 {
            probs = c.evolve(&probs).unwrap();
            let s: f64 = probs.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    /// Same support and probabilities, each within `tol`.
    fn approx_eq(a: &Distribution, b: &Distribution, tol: f64) -> bool {
        a.len() == b.len()
            && (a.iter().zip(b.iter()))
                .all(|((v1, p1), (v2, p2))| (v1 - v2).abs() <= tol && (p1 - p2).abs() <= tol)
    }

    #[test]
    fn identity_chain_is_a_fixed_point() {
        let c = MarkovChain::identity(vec![100.0, 200.0]).unwrap();
        let d = Distribution::bimodal(100.0, 200.0, 0.7).unwrap();
        let e = &c.marginals(&d, 2).unwrap()[1];
        assert!(approx_eq(e, &d, 1e-12));
    }

    #[test]
    fn dist_round_trip() {
        let c = chain();
        let d = Distribution::from_pairs([(500.0, 0.5), (2000.0, 0.5)]).unwrap();
        let probs = c.dist_to_probs(&d).unwrap();
        assert_eq!(probs, vec![0.5, 0.0, 0.5]);
        let back = c.probs_to_dist(&probs).unwrap();
        assert!(approx_eq(&back, &d, 1e-12));
    }

    #[test]
    fn dist_with_foreign_support_is_rejected() {
        let c = chain();
        let d = Distribution::point(123.0);
        assert!(c.dist_to_probs(&d).is_err());
    }

    #[test]
    fn marginals_evolve_phase_by_phase() {
        let absorbing = MarkovChain::new(
            vec![100.0, 400.0],
            vec![vec![0.0, 1.0], vec![0.0, 1.0]], // absorb at 400
        )
        .unwrap();
        let dists = absorbing.marginals(&Distribution::point(100.0), 3).unwrap();
        let means: Vec<f64> = dists.iter().map(Distribution::mean).collect();
        assert_eq!(means, [100.0, 400.0, 400.0]);
        assert!(absorbing
            .marginals(&Distribution::point(100.0), 0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn marginals_of_a_foreign_initial_support_err() {
        let c = MarkovChain::identity(vec![100.0, 200.0]).unwrap();
        for n in [1, 2] {
            assert!(c.marginals(&Distribution::point(123.0), n).is_err());
        }
    }

    #[test]
    fn sticky_uniform_mixes_toward_uniform() {
        let c = MarkovChain::sticky_uniform(vec![1.0, 2.0, 3.0, 4.0], 0.5).unwrap();
        let mut after = vec![1.0, 0.0, 0.0, 0.0];
        for _ in 0..50 {
            after = c.evolve(&after).unwrap();
        }
        for &p in &after {
            assert!((p - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn sample_path_has_requested_length_and_valid_states() {
        let c = chain();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let path = c.sample_path(&[0.0, 1.0, 0.0], 8, &mut rng);
        assert_eq!(path.len(), 8);
        for m in path {
            assert!(c.states().contains(&m));
        }
        assert!(c.sample_path(&[0.0, 1.0, 0.0], 0, &mut rng).is_empty());
    }

    #[test]
    fn sample_path_frequencies_match_stationary() {
        let c = chain();
        // The stationary distribution: uniform, evolved until it is fixed.
        let mut init = vec![1.0 / 3.0; 3];
        for _ in 0..1_000 {
            init = c.evolve(&init).unwrap();
        }
        let next = c.evolve(&init).unwrap();
        assert!(next.iter().zip(&init).all(|(p, q)| (p - q).abs() < 1e-12));
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut counts = [0usize; 3];
        let runs = 4000;
        for _ in 0..runs {
            let path = c.sample_path(&init, 5, &mut rng);
            for m in path {
                let idx = c.states().iter().position(|&s| s == m).unwrap();
                counts[idx] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        for (i, &cnt) in counts.iter().enumerate() {
            let freq = cnt as f64 / total as f64;
            let expect = init[i];
            assert!(
                (freq - expect).abs() < 0.03,
                "state {i}: freq {freq} vs stationary {expect}"
            );
        }
    }
}
