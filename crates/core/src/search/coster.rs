//! The costing axis of the keep-1 and top-c policies: how one
//! memory-dependent operator is priced.
//!
//! Memory is a distribution everywhere.  "The standard approach \[is\] the
//! special case where there is only one bucket", and §3.5's static case is
//! the dynamic one with a single phase distribution — so there is one
//! coster, [`MemoryCoster`], holding one distribution per execution phase,
//! and LSC, Algorithms A/B/C, the bushy extension and the dynamic variant
//! differ only in the [`Objective`] it was built from.
//!
//! `ctx.phase` is the 0-based execution phase index of §3.5 (first join =
//! phase 0; a root sort after `n-1` joins is phase `n-1`); a coster with
//! fewer phases than the plan prices the later ones under its last.  Every
//! operator is priced in place by [`CostModel`]'s `expected_*_over`
//! methods: `b` formula calls under a `b`-bucket phase, one under a point,
//! so a point search and an expectation search over the same one-bucket
//! distribution do the same work.

use super::policy::JoinContext;
use lec_cost::{CostModel, Objective};
use lec_plan::JoinMethod;
use lec_prob::{Distribution, ProbError};

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

    /// [`PhaseCoster::join_cost`] of every method, in [`JoinMethod::ALL`]
    /// order.
    fn join_costs(
        &self,
        model: &CostModel<'_>,
        ctx: &JoinContext,
        outer: f64,
        inner: f64,
    ) -> [f64; 4] {
        JoinMethod::ALL.map(|method| self.join_cost(model, ctx, method, outer, inner))
    }

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
    /// Classical point costing (Algorithm B's per-bucket runs): memory is
    /// exactly `memory` in every phase.  Panics on a non-finite value
    /// ([`Distribution::point`]).
    pub fn point(memory: f64) -> Self {
        Self::fixed(&Distribution::point(memory))
    }

    /// A static distribution: every phase sees `memory`, as under
    /// [`MemoryCoster::new`] with `Objective::Static(memory)`.
    pub fn fixed(memory: &Distribution) -> Self {
        MemoryCoster {
            phases: vec![memory.clone()],
            reads: vec![0],
        }
    }

    /// Costing under `objective` for `n_phases` phases: phase `k` is
    /// priced under the objective's phase-`k` distribution (§3.5; every
    /// phase the same one under a static belief).  Phases whose
    /// distributions agree bit for bit read one of them, so they share
    /// their prices ([`PhaseCoster::price_phase`]).
    pub fn new(objective: Objective, n_phases: usize) -> Result<Self, ProbError> {
        if let Objective::Static(memory) = objective {
            // Every phase reads the one distribution, held once.
            let (phases, reads) = (vec![memory], vec![0]);
            return Ok(MemoryCoster { phases, reads });
        }
        fn bits(d: &Distribution) -> impl Iterator<Item = u64> + '_ {
            d.support().iter().chain(d.probs()).map(|v| v.to_bits())
        }
        let (mut phases, mut reads) = (Vec::new(), Vec::with_capacity(n_phases.max(1)));
        for dist in objective.phase_distributions(n_phases.max(1))?.into_owned() {
            let seen = phases.iter().position(|d| bits(d).eq(bits(&dist)));
            reads.push(seen.unwrap_or(phases.len()));
            if seen.is_none() {
                phases.push(dist);
            }
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

    fn join_costs(
        &self,
        model: &CostModel<'_>,
        ctx: &JoinContext,
        outer: f64,
        inner: f64,
    ) -> [f64; 4] {
        model.expected_join_costs_over(outer, inner, self.phase(ctx.phase))
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
