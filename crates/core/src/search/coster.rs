//! The costing axis of the keep-1 and top-c policies: how one
//! memory-dependent operator is priced.
//!
//! Memory is a distribution everywhere.  "The standard approach [is] the
//! special case where there is only one bucket", and §3.5's static case is
//! the dynamic one with a single phase distribution — so there is one
//! coster, [`MemoryCoster`], holding one distribution per execution phase,
//! and LSC, Algorithms A/B/C, the bushy extension and the dynamic variant
//! differ only in which constructor built it.
//!
//! `ctx.phase` is the 0-based execution phase index of §3.5 (first join =
//! phase 0; a root sort after `n-1` joins is phase `n-1`); a coster with
//! fewer phases than the plan prices the later ones under its last.  Every
//! operator is priced in place by [`CostModel`]'s `expected_*_over`
//! methods: `b` formula calls under a `b`-bucket phase, one under a point,
//! so a point search and an expectation search over the same one-bucket
//! distribution do the same work.

use super::policy::JoinContext;
use lec_cost::CostModel;
use lec_plan::JoinMethod;
use lec_prob::{Distribution, MarkovChain, ProbError};

/// Strategy for costing the memory-dependent operators.  One production
/// implementation ([`MemoryCoster`]); the trait is the seam tests
/// substitute a fake through.
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

    /// The phase whose prices `phase` reads: `join_cost` depends only on
    /// the method, the two sizes and this index, so joins of equal sizes
    /// at phases with one index share their prices.  Every phase its own
    /// by default.
    fn price_phase(&self, phase: usize) -> usize {
        phase
    }
}

/// Expected-cost costing under a per-phase memory distribution: "this
/// computation requires b evaluations of the cost formula" (§3.4), one
/// when the distribution is a point.
#[derive(Debug, Clone)]
pub struct MemoryCoster {
    /// The distinct phase distributions, in order of first appearance;
    /// never empty.
    phases: Vec<Distribution>,
    /// Phase `k`'s index into `phases`; never empty.
    reads: Vec<usize>,
}

impl MemoryCoster {
    /// Classical point costing (the LSC baseline, Algorithm A's black box,
    /// Algorithm B's per-bucket runs): memory is exactly `memory` in every
    /// phase.  Panics on a non-finite value ([`Distribution::point`]).
    pub fn point(memory: f64) -> Self {
        Self::fixed(&Distribution::point(memory))
    }

    /// The static distribution of Algorithm C and the bushy extension:
    /// every phase sees `memory`.
    pub fn fixed(memory: &Distribution) -> Self {
        MemoryCoster {
            phases: vec![memory.clone()],
            reads: vec![0],
        }
    }

    /// Dynamically changing memory (§3.5): phase `k` is costed under
    /// `initial` evolved `k` steps through `chain`, for `n_phases` phases.
    /// Phases whose distributions agree bit for bit read one of them, so
    /// they share their prices ([`PhaseCoster::price_phase`]).
    pub fn evolving(
        initial: &Distribution,
        chain: &MarkovChain,
        n_phases: usize,
    ) -> Result<Self, ProbError> {
        let bits = |d: &Distribution| -> Vec<u64> {
            d.support()
                .iter()
                .chain(d.probs())
                .map(|v| v.to_bits())
                .collect()
        };
        let (mut phases, mut reads) = (Vec::new(), Vec::with_capacity(n_phases.max(1)));
        let mut cur = initial.clone();
        for _ in 0..n_phases.max(1) {
            let next = chain.evolve_dist(&cur)?;
            let seen = phases.iter().position(|d| bits(d) == bits(&cur));
            reads.push(seen.unwrap_or(phases.len()));
            if seen.is_none() {
                phases.push(cur);
            }
            cur = next;
        }
        Ok(MemoryCoster { phases, reads })
    }

    fn phase(&self, phase: usize) -> &Distribution {
        &self.phases[self.price_phase(phase)]
    }
}

impl PhaseCoster for MemoryCoster {
    fn join_cost(
        &self,
        model: &CostModel<'_>,
        ctx: &JoinContext,
        method: JoinMethod,
        outer: f64,
        inner: f64,
    ) -> f64 {
        model.expected_join_cost_over(method, outer, inner, self.phase(ctx.phase))
    }

    fn sort_cost(&self, model: &CostModel<'_>, phase: usize, pages: f64) -> f64 {
        model.expected_sort_cost_over(pages, self.phase(phase))
    }

    /// The distribution the phase reads: the one of every static coster,
    /// and a later phase reads the last phase's.
    fn price_phase(&self, phase: usize) -> usize {
        self.reads[phase.min(self.reads.len() - 1)]
    }
}
