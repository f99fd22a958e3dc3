//! The keep-all policy: the exhaustive ground-truth verifier.
//!
//! Unpruned, it enumerates (and holds) every plan of the active shape
//! exactly once — `O(n! · 4^(n-1) · 2^n)` for left-deep trees, larger
//! for bushy ones — so callers cap `n` (see
//! [`crate::exhaustive::MAX_EXHAUSTIVE_TABLES`]).
//!
//! With [`super::SearchConfig::pruning`] on, the policy becomes a
//! **streaming branch-and-bound verifier**: every candidate is still
//! *costed* in enumeration order, but an entry is discarded on emission
//! when its accumulated cost plus an admissible floor on everything a
//! completion must still pay ([`PruneState::completion_floor`]) strictly
//! exceeds the incumbent.  Discarded entries can only lead to complete
//! plans strictly worse than a plan already in hand, so the verifier's
//! answer — the optimal plan, at exact cost bits — is byte-identical to
//! the unpruned enumeration wherever both run, while the materialized
//! state stays a sliver of the plan space.  This is what lifts the
//! verifier's 7-table materialization cap.

use super::bound::PruneState;
use super::coster::PhaseCoster;
use super::keep_best::DpEntry;
use super::policy::{
    access_alternatives, join_output_order, sort_merge_order, CandidatePolicy, JoinContext, Joined,
    RootContext,
};
use super::SearchStats;
use lec_cost::CostModel;
use lec_plan::{JoinMethod, TableSet};
use std::rc::Rc;

/// The keep-everything policy over any [`PhaseCoster`].
#[derive(Debug, Clone)]
pub struct KeepAllPolicy<C> {
    /// The operator-costing strategy.
    pub coster: C,
    /// The search's shared prune state, when pruning is on.
    prune: Option<Rc<PruneState>>,
    /// Complete plans costed at the root (before any discard).
    plans_emitted: u64,
}

impl<C: PhaseCoster> KeepAllPolicy<C> {
    /// A policy costing operators with `coster`.
    pub fn new(coster: C) -> Self {
        KeepAllPolicy {
            coster,
            prune: None,
            plans_emitted: 0,
        }
    }

    /// Complete plans costed so far (root candidates created, whether or
    /// not the streaming discard dropped them afterwards).
    pub fn plans_emitted(&self) -> u64 {
        self.plans_emitted
    }
}

impl<C: PhaseCoster> CandidatePolicy for KeepAllPolicy<C> {
    type Entry = DpEntry;
    type Size = f64;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        idx: usize,
        _stats: &mut SearchStats,
    ) -> Vec<DpEntry> {
        access_alternatives(model, idx)
    }

    fn combine<'t>(
        &mut self,
        model: &CostModel<'_>,
        ctx: &JoinContext,
        outer: &'t [DpEntry],
        inner: &'t [DpEntry],
        into: &mut Vec<Joined<'t, f64>>,
        stats: &mut SearchStats,
    ) {
        let sel = model.join_selectivity_sets(ctx.left, ctx.right);
        let sm_order = sort_merge_order(model, ctx.left, ctx.right);
        let is_root = ctx.result == TableSet::full(model.query().n_tables());
        // The completion floor depends only on the result subset (its
        // size product), never on which entries built it: one bound
        // evaluation covers every candidate this call emits.
        let discard_above = match &self.prune {
            Some(ps) if !is_root => {
                stats.bound_evals += 1;
                let pages = ps.bound().pages_floor(model, ctx.result);
                Some(ps.incumbent() - ps.completion_floor(ctx.result, pages))
            }
            Some(ps) => Some(ps.incumbent()),
            None => None,
        };
        for oe in outer {
            for ie in inner {
                for method in JoinMethod::ALL {
                    stats.candidates += 1;
                    let join_cost = self
                        .coster
                        .join_cost(model, ctx, method, oe.pages, ie.pages);
                    let cost = oe.cost + ie.cost + join_cost;
                    if is_root {
                        self.plans_emitted += 1;
                    }
                    // Strict inequality: exact ties with the incumbent
                    // survive, so the first-minimal root pick matches the
                    // unpruned enumeration bit for bit.
                    if let Some(limit) = discard_above {
                        if cost > limit {
                            continue;
                        }
                    }
                    into.push(Joined {
                        cost,
                        order: join_output_order(sm_order, oe.order, method),
                        size: model.join_output_pages(oe.pages, ie.pages, sel),
                        method,
                        outer: &oe.plan,
                        inner: &ie.plan,
                    });
                }
            }
        }
    }

    fn build(&mut self, mut pending: Vec<Joined<'_, f64>>) -> Vec<DpEntry> {
        pending.drain(..).map(DpEntry::from).collect()
    }

    fn finalize(
        &mut self,
        model: &CostModel<'_>,
        ctx: &RootContext,
        entries: Vec<DpEntry>,
        _stats: &mut SearchStats,
    ) -> Vec<DpEntry> {
        super::keep_best::finalize_with_coster(model, ctx, entries, &self.coster)
    }

    fn pruning_bound(&self, _model: &CostModel<'_>) -> Option<Box<dyn super::bound::LowerBound>> {
        self.coster.pruning_bound()
    }

    fn install_pruning(&mut self, prune: &Rc<PruneState>) {
        self.prune = Some(Rc::clone(prune));
    }
}
