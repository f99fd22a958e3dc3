//! The keep-1 policy: per (subset, interesting order), retain the single
//! cheapest plan under the active [`PhaseCoster`].  With a point coster
//! this is Theorem 2.1's System R baseline; with an expectation coster it
//! is Algorithm C (Theorems 3.3/3.4); run under the bushy shape it is the
//! §4 extension.

use super::coster::PhaseCoster;
use super::policy::{
    access_alternatives, insert_entry_shaped, join_output_order, plan_shape_cmp, priced,
    shape_rank, sort_merge_order, CandidatePolicy, JoinContext, Joined, RootContext, SearchEntry,
};
use super::SearchStats;
use lec_cost::CostModel;
use lec_plan::{ColumnRef, JoinMethod, OrderProperty, PlanNode};
use std::cmp::Ordering;
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
    fn cost(&self) -> f64 {
        self.cost
    }
    fn order(&self) -> OrderProperty {
        self.order
    }
    fn shape_cmp(&self, model: &CostModel<'_>, other: &Self) -> Ordering {
        plan_shape_cmp(model, &self.plan, &other.plan)
    }
}

impl From<Joined<'_, f64>> for DpEntry {
    fn from(j: Joined<'_, f64>) -> Self {
        DpEntry {
            plan: j.node(),
            cost: j.cost,
            pages: j.size,
            order: j.order,
        }
    }
}

/// (outer pages, inner pages) bits -> (method costs, result pages).
pub(super) type PricedPairs = Vec<((u64, u64), ([f64; 4], f64))>;

/// The keep-1 policy over any [`PhaseCoster`].
#[derive(Debug, Clone)]
pub struct KeepBestPolicy<C> {
    /// The operator-costing strategy.
    pub coster: C,
    /// The size pairs one `combine` call has priced; cleared per call.
    pairs: PricedPairs,
}

impl<C: PhaseCoster> KeepBestPolicy<C> {
    /// A policy costing operators with `coster`.
    pub fn new(coster: C) -> Self {
        KeepBestPolicy {
            coster,
            pairs: Vec::new(),
        }
    }
}

impl<C: PhaseCoster> CandidatePolicy for KeepBestPolicy<C> {
    type Entry = DpEntry;
    type Size = f64;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        idx: usize,
        _stats: &mut SearchStats,
    ) -> Vec<DpEntry> {
        let mut entries = Vec::new();
        for e in access_alternatives(model, idx) {
            insert_entry_shaped(model, &mut entries, e);
        }
        entries
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
        self.pairs.clear();
        for oe in outer {
            for ie in inner {
                let key = (oe.pages.to_bits(), ie.pages.to_bits());
                let (costs, pages) = priced(&mut self.pairs, key, || {
                    let cost = |method| {
                        self.coster
                            .join_cost(model, ctx, method, oe.pages, ie.pages)
                    };
                    let pages = model.join_output_pages(oe.pages, ie.pages, sel);
                    (JoinMethod::ALL.map(cost), pages)
                });
                for (method, join_cost) in JoinMethod::ALL.into_iter().zip(costs) {
                    stats.candidates += 1;
                    let joined = Joined {
                        cost: oe.cost + ie.cost + join_cost,
                        order: join_output_order(sm_order, oe.order, method),
                        size: pages,
                        method,
                        outer: &oe.plan,
                        inner: &ie.plan,
                    };
                    insert_entry_shaped(model, into, joined);
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
        let mut roots = finalize_with_coster(model, ctx, entries, &self.coster);
        sort_roots(model, &mut roots);
        roots
    }
}

/// Shared root finalization: wrap entries that miss a required order in a
/// sort costed by `coster`.  Used by every policy but multi-param.
pub(super) fn finalize_with_coster<C: PhaseCoster>(
    model: &CostModel<'_>,
    ctx: &RootContext,
    entries: Vec<DpEntry>,
    coster: &C,
) -> Vec<DpEntry> {
    sort_where_required(model, entries, |e, key, order| DpEntry {
        cost: e.cost + coster.sort_cost(model, ctx.sort_phase, e.pages),
        plan: Arc::new(PlanNode::Sort { input: e.plan, key }),
        order,
        ..e
    })
}

/// Replace every root entry that misses the query's required order with
/// `sort(entry, key, the order the sort delivers)`.
pub(super) fn sort_where_required<E: SearchEntry>(
    model: &CostModel<'_>,
    entries: Vec<E>,
    sort: impl Fn(E, ColumnRef, OrderProperty) -> E,
) -> Vec<E> {
    let Some(want) = model.query().required_order else {
        return entries;
    };
    let eq = model.equivalences();
    let sort_unsorted = |e: E| match eq.satisfies(e.order(), want) {
        true => e,
        false => sort(e, want, eq.sorted_on(want)),
    };
    entries.into_iter().map(sort_unsorted).collect()
}

/// Order finalized root candidates by (cost bits, label-free shape), so
/// the reported root vector — and [`super::SearchRun::best`]'s
/// first-minimal pick among exact-cost ties — is independent of the
/// per-order-class insertion order.
pub(super) fn sort_roots<E: SearchEntry>(model: &CostModel<'_>, roots: &mut [E]) {
    roots.sort_by(|a, b| shape_rank(model, a, b));
}
