//! Execution environments: where the run-time memory values come from.
//!
//! The optimizer *believes* a distribution; the environment *produces*
//! actual memory values for each execution phase.  Keeping the two separate
//! lets experiments measure what happens when beliefs are right, coarse, or
//! plain wrong.

use lec_prob::{Distribution, MarkovChain, ProbError};
use rand::Rng;

/// A source of per-phase memory values for simulated executions.
#[derive(Debug, Clone)]
pub enum Environment {
    /// Memory is drawn once per execution and stays constant across phases
    /// (the paper's static assumption).
    Static(Distribution),
    /// Memory starts from a distribution and moves between phases
    /// according to a Markov chain (§3.5).
    Dynamic {
        /// Distribution of the phase-0 memory (support ⊆ chain states).
        initial: Distribution,
        /// The transition model.
        chain: MarkovChain,
    },
}

impl Environment {
    /// Sample the memory values seen by one execution of `n_phases` phases.
    pub fn sample_trace<R: Rng + ?Sized>(
        &self,
        n_phases: usize,
        rng: &mut R,
    ) -> Result<Vec<f64>, ProbError> {
        match self {
            Environment::Static(d) => {
                let m = d.sample(rng);
                Ok(vec![m; n_phases.max(1)])
            }
            Environment::Dynamic { initial, chain } => {
                let init_probs = chain.dist_to_probs(initial)?;
                Ok(chain.sample_path(&init_probs, n_phases.max(1), rng))
            }
        }
    }

    /// The exact per-phase marginal distributions (for analytic checks).
    pub fn phase_distributions(&self, n_phases: usize) -> Result<Vec<Distribution>, ProbError> {
        match self {
            Environment::Static(d) => Ok(vec![d.clone(); n_phases.max(1)]),
            Environment::Dynamic { initial, chain } => {
                let mut out = Vec::with_capacity(n_phases.max(1));
                let mut cur = initial.clone();
                for _ in 0..n_phases.max(1) {
                    out.push(cur.clone());
                    cur = chain.evolve_dist(&cur)?;
                }
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn static_traces_are_constant() {
        let env = Environment::Static(Distribution::bimodal(700.0, 2000.0, 0.8).unwrap());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let t = env.sample_trace(4, &mut rng).unwrap();
            assert_eq!(t.len(), 4);
            assert!(t.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn dynamic_traces_follow_the_chain_support() {
        let chain = MarkovChain::birth_death(vec![100.0, 200.0, 400.0], 0.4, 0.4).unwrap();
        let env = Environment::Dynamic {
            initial: Distribution::point(200.0),
            chain: chain.clone(),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut moved = false;
        for _ in 0..50 {
            let t = env.sample_trace(6, &mut rng).unwrap();
            assert_eq!(t.len(), 6);
            assert_eq!(t[0], 200.0);
            for m in &t {
                assert!(chain.states().contains(m));
            }
            moved |= t.windows(2).any(|w| w[0] != w[1]);
        }
        assert!(moved, "a mixing chain must actually move");
    }

    #[test]
    fn phase_distributions_evolve() {
        let chain = MarkovChain::new(
            vec![100.0, 400.0],
            vec![vec![0.0, 1.0], vec![0.0, 1.0]], // absorb at 400
        )
        .unwrap();
        let env = Environment::Dynamic {
            initial: Distribution::point(100.0),
            chain,
        };
        let dists = env.phase_distributions(3).unwrap();
        assert_eq!(dists[0].mean(), 100.0);
        assert_eq!(dists[1].mean(), 400.0);
        assert_eq!(dists[2].mean(), 400.0);
    }

    #[test]
    fn mismatched_initial_support_errors() {
        let chain = MarkovChain::identity(vec![100.0, 200.0]).unwrap();
        let env = Environment::Dynamic {
            initial: Distribution::point(123.0),
            chain,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        assert!(env.sample_trace(2, &mut rng).is_err());
    }
}
