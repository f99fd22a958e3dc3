//! The keep-1 policy: per (subset, interesting order), retain the single
//! cheapest plan under the active [`PhaseCoster`].  With a point coster
//! this is Theorem 2.1's System R baseline; with an expectation coster it
//! is Algorithm C (Theorems 3.3/3.4); run under the bushy shape it is the
//! §4 extension.

use super::coster::PhaseCoster;
use super::policy::{
    access_alternatives, insert_entry_shaped, insert_entry_shaped_lazy, join_output_order,
    shared_join, sort_merge_order, CandidatePolicy, JoinContext, RootContext, SearchEntry,
};
use super::SearchStats;
use lec_cost::CostModel;
use lec_plan::{JoinMethod, OrderProperty, PlanNode};
use std::sync::Arc;

/// A DP table entry: the cheapest known plan for one (subset, order).
#[derive(Debug, Clone)]
pub struct DpEntry {
    /// The plan, shared with every entry built on top of it.
    pub plan: Arc<PlanNode>,
    /// Its cost under the active coster.
    pub cost: f64,
    /// Point-estimated output size in pages.
    pub pages: f64,
    /// Output order property.
    pub order: OrderProperty,
}

impl SearchEntry for DpEntry {
    fn plan(&self) -> &PlanNode {
        &self.plan
    }
    fn cost(&self) -> f64 {
        self.cost
    }
    fn order(&self) -> OrderProperty {
        self.order
    }
}

/// The keep-1 policy over any [`PhaseCoster`].
#[derive(Debug, Clone)]
pub struct KeepBestPolicy<C> {
    /// The operator-costing strategy.
    pub coster: C,
}

impl<C: PhaseCoster> KeepBestPolicy<C> {
    /// A policy costing operators with `coster`.
    pub fn new(coster: C) -> Self {
        KeepBestPolicy { coster }
    }
}

impl<C: PhaseCoster> CandidatePolicy for KeepBestPolicy<C> {
    type Entry = DpEntry;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        idx: usize,
        _stats: &mut SearchStats,
    ) -> Vec<DpEntry> {
        let mut entries = Vec::new();
        for (plan, cost, order, pages) in access_alternatives(model, idx) {
            insert_entry_shaped(
                model,
                &mut entries,
                DpEntry {
                    plan,
                    cost,
                    pages,
                    order,
                },
            );
        }
        entries
    }

    fn combine(
        &mut self,
        model: &CostModel<'_>,
        ctx: &JoinContext,
        outer: &[DpEntry],
        inner: &[DpEntry],
        into: &mut Vec<DpEntry>,
        stats: &mut SearchStats,
    ) {
        let sel = model.join_selectivity_sets(ctx.left, ctx.right);
        let sm_order = sort_merge_order(model, ctx.left, ctx.right);
        for oe in outer {
            for ie in inner {
                // Result size is method-independent; compute once.
                let pages = model.join_output_pages(oe.pages, ie.pages, sel);
                for method in JoinMethod::ALL {
                    stats.candidates += 1;
                    let join_cost = self
                        .coster
                        .join_cost(model, ctx, method, oe.pages, ie.pages);
                    let cost = oe.cost + ie.cost + join_cost;
                    let order = join_output_order(sm_order, oe.order, method);
                    insert_entry_shaped_lazy(model, into, cost, order, || DpEntry {
                        plan: shared_join(method, &oe.plan, &ie.plan),
                        cost,
                        pages,
                        order,
                    });
                }
            }
        }
    }

    fn finalize(
        &mut self,
        model: &CostModel<'_>,
        ctx: &RootContext,
        entries: Vec<DpEntry>,
        _stats: &mut SearchStats,
    ) -> Vec<DpEntry> {
        let mut roots = finalize_with_coster(model, ctx, entries, &self.coster);
        sort_roots(model, &mut roots);
        roots
    }

    fn pruning_bound(&self, _model: &CostModel<'_>) -> Option<Box<dyn super::bound::LowerBound>> {
        self.coster.pruning_bound()
    }
}

/// Shared root finalization: wrap entries that miss a required order in a
/// sort costed by `coster`.  Used by the keep-1 and keep-all policies.
pub(super) fn finalize_with_coster<C: PhaseCoster>(
    model: &CostModel<'_>,
    ctx: &RootContext,
    entries: Vec<DpEntry>,
    coster: &C,
) -> Vec<DpEntry> {
    let query = model.query();
    let eq = model.equivalences();
    entries
        .into_iter()
        .map(|e| match query.required_order {
            Some(want) if !eq.satisfies(e.order, want) => {
                let sort_cost = coster.sort_cost(model, ctx.sort_phase, e.pages);
                DpEntry {
                    plan: Arc::new(PlanNode::Sort {
                        input: e.plan,
                        key: want,
                    }),
                    cost: e.cost + sort_cost,
                    pages: e.pages,
                    order: eq.sorted_on(want),
                }
            }
            _ => e,
        })
        .collect()
}

/// Order finalized root candidates by (cost bits, label-free shape), so
/// the reported root vector — and [`super::SearchRun::best`]'s
/// first-minimal pick among exact-cost ties — is independent of the
/// per-order-class insertion order.  Pruning can remove strictly-worse
/// candidates whose insertion used to shuffle that order; sorting here
/// (pruned and unpruned alike) keeps the two answers byte-identical.
pub(super) fn sort_roots<E>(model: &CostModel<'_>, roots: &mut [E])
where
    E: super::policy::SearchEntry,
{
    roots.sort_by(|a, b| super::policy::shape_rank(model, a, b));
}
