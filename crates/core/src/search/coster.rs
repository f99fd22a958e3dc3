//! The costing axis of the keep-1 and keep-all policies: how one
//! memory-dependent operator is priced.
//!
//! `ctx.phase` is the 0-based execution phase index of §3.5 (first join =
//! phase 0; a root sort after `n-1` joins is phase `n-1`).  Static costers
//! ignore it; the dynamic coster uses it to select the evolved memory
//! distribution for that phase.  All costers evaluate through the
//! memoized `*_for` methods of [`CostModel`], so repeated per-bucket
//! evaluations across entry pairs and dag levels hit the cache.

use super::bound::{ExpectationBound, LowerBound, PointBound};
use super::policy::JoinContext;
use lec_cost::CostModel;
use lec_plan::JoinMethod;
use lec_prob::{Distribution, MarkovChain, ProbError};

/// Strategy for costing the memory-dependent operators.
pub trait PhaseCoster {
    /// Cost of joining inputs of `outer`/`inner` pages under `ctx`.
    fn join_cost(
        &self,
        model: &CostModel<'_>,
        ctx: &JoinContext,
        method: JoinMethod,
        outer: f64,
        inner: f64,
    ) -> f64;

    /// Cost of sorting `pages` pages at `phase`.
    fn sort_cost(&self, model: &CostModel<'_>, phase: usize, pages: f64) -> f64;

    /// An admissible [`LowerBound`] under this coster's objective, for
    /// the scalar-page policies (keep-best, keep-all); `None` declares
    /// the coster prune-ineligible (the default — costers opt in).
    fn pruning_bound(&self) -> Option<Box<dyn LowerBound>> {
        None
    }
}

/// Classical point-parameter costing (the LSC baseline): memory is assumed
/// to be exactly `memory` in every phase.
#[derive(Debug, Clone)]
pub struct PointCoster {
    /// The assumed memory value.
    pub memory: f64,
}

impl PhaseCoster for PointCoster {
    fn join_cost(
        &self,
        model: &CostModel<'_>,
        _ctx: &JoinContext,
        method: JoinMethod,
        outer: f64,
        inner: f64,
    ) -> f64 {
        model.join_cost_for(method, outer, inner, self.memory)
    }

    fn sort_cost(&self, model: &CostModel<'_>, _phase: usize, pages: f64) -> f64 {
        model.sort_cost_for(pages, self.memory)
    }

    fn pruning_bound(&self) -> Option<Box<dyn LowerBound>> {
        Some(Box::new(PointBound {
            memory: self.memory,
        }))
    }
}

/// Expected-cost costing under a static memory distribution (Algorithm C):
/// "this computation requires b evaluations of the cost formula" (§3.4).
/// The whole `b`-bucket expectation of each distinct operator is memoized
/// as one cache entry (with its fingerprint precomputed here), so repeats
/// across entry pairs and dag levels cost one lookup, not `b` formula
/// evaluations.
#[derive(Debug, Clone)]
pub struct StaticExpectationCoster {
    memory: Distribution,
    mem_fp: u64,
}

impl StaticExpectationCoster {
    /// A coster taking expectations over `memory`.
    pub fn new(memory: &Distribution) -> Self {
        StaticExpectationCoster {
            mem_fp: lec_cost::dist_fingerprint(memory),
            memory: memory.clone(),
        }
    }

    /// The memory distribution in force.
    pub fn memory(&self) -> &Distribution {
        &self.memory
    }
}

impl PhaseCoster for StaticExpectationCoster {
    fn join_cost(
        &self,
        model: &CostModel<'_>,
        _ctx: &JoinContext,
        method: JoinMethod,
        outer: f64,
        inner: f64,
    ) -> f64 {
        model.expected_join_cost_over(method, outer, inner, &self.memory, self.mem_fp)
    }

    fn sort_cost(&self, model: &CostModel<'_>, _phase: usize, pages: f64) -> f64 {
        model.expected_sort_cost_over(pages, &self.memory, self.mem_fp)
    }

    fn pruning_bound(&self) -> Option<Box<dyn LowerBound>> {
        Some(Box::new(ExpectationBound {
            max_memory: self.memory.max_value(),
        }))
    }
}

/// Per-phase expected-cost costing for dynamically changing memory (§3.5):
/// phase `k` is costed under the initial distribution evolved `k` steps
/// through the Markov chain.
#[derive(Debug, Clone)]
pub struct DynamicExpectationCoster {
    dists: Vec<(Distribution, u64)>,
}

impl DynamicExpectationCoster {
    /// Precompute the evolved distribution (and its cache fingerprint)
    /// for each of `n_phases` phases.
    pub fn new(
        initial: &Distribution,
        chain: &MarkovChain,
        n_phases: usize,
    ) -> Result<Self, ProbError> {
        let mut dists = Vec::with_capacity(n_phases.max(1));
        let mut cur = initial.clone();
        for _ in 0..n_phases.max(1) {
            let fp = lec_cost::dist_fingerprint(&cur);
            let next = chain.evolve_dist(&cur)?;
            dists.push((cur, fp));
            cur = next;
        }
        Ok(DynamicExpectationCoster { dists })
    }

    fn dist(&self, phase: usize) -> &(Distribution, u64) {
        // A plan can have at most n_phases phases; clamp defensively.
        &self.dists[phase.min(self.dists.len() - 1)]
    }
}

impl PhaseCoster for DynamicExpectationCoster {
    fn join_cost(
        &self,
        model: &CostModel<'_>,
        ctx: &JoinContext,
        method: JoinMethod,
        outer: f64,
        inner: f64,
    ) -> f64 {
        let (dist, fp) = self.dist(ctx.phase);
        model.expected_join_cost_over(method, outer, inner, dist, *fp)
    }

    fn sort_cost(&self, model: &CostModel<'_>, phase: usize, pages: f64) -> f64 {
        let (dist, fp) = self.dist(phase);
        model.expected_sort_cost_over(pages, dist, *fp)
    }

    /// Every phase evaluates under its own evolved distribution, so the
    /// bound's memory must be the most favourable value *any* phase can
    /// see.
    fn pruning_bound(&self) -> Option<Box<dyn LowerBound>> {
        let max_memory = self
            .dists
            .iter()
            .map(|(d, _)| d.max_value())
            .fold(f64::NEG_INFINITY, f64::max);
        Some(Box::new(ExpectationBound { max_memory }))
    }
}
