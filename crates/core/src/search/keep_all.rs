//! The keep-all policy: the exhaustive ground-truth verifier.
//!
//! Built by [`KeepAllPolicy::new`], it enumerates (and holds) every plan
//! of the active shape exactly once — `O(n! · 4^(n-1) · 2^n)` for
//! left-deep trees, larger for bushy ones — so callers cap the plan space
//! ([`super::plan_space_size`]).
//!
//! Built by [`KeepAllPolicy::streaming`], it is the oracle
//! ([`crate::exhaustive::exhaustive_best`]): every candidate is still
//! *costed* in enumeration order, but an entry is discarded on emission
//! when its cost plus the [`CompletionFloor`] of its subset strictly
//! exceeds the **incumbent**, the cheapest finalized complete plan found
//! so far.  A discarded entry can only lead to complete plans strictly
//! worse than one already in hand, so the answer — the optimal plan, at
//! exact cost bits — is the materializing run's, while the held state
//! stays a sliver of the plan space.
//!
//! The incumbent tightens only between levels, in
//! [`CandidatePolicy::after_level`]: the cheapest node of the level just
//! filled is greedily completed through the policy's own `combine` and
//! `finalize`, so it is a real plan's cost under the exact objective.
//! The first walk that completes without lowering a finite incumbent
//! retires the refresh — each later seed walks a longer prefix of a
//! completion already observed.

use super::arena::PlanArena;
use super::bound::{point_size_product, CompletionFloor};
use super::coster::{MemoryCoster, PhaseCoster};
use super::engine::DpTable;
use super::keep_best::{build_entries, DpEntry};
use super::policy::{
    access_alternatives, join_output_order, priced, CandidatePolicy, JoinContext, Joined,
    RootContext, SearchEntry,
};
use super::SearchStats;
use lec_cost::CostModel;
use lec_plan::{JoinMethod, TableSet};
use std::cmp::Ordering;

/// (outer pages, inner pages) bits -> (method costs, result pages).
type PricedPairs = Vec<((u64, u64), ([f64; 4], f64))>;

/// The keep-everything policy over any [`PhaseCoster`].
#[derive(Debug, Clone)]
pub struct KeepAllPolicy<C> {
    /// The operator-costing strategy.
    pub coster: C,
    /// The streaming discard's floor and incumbent; `None` holds every
    /// plan.
    bound: Option<Incumbent>,
    /// The size pairs one `combine` call has priced; cleared per call.
    pairs: PricedPairs,
    /// Complete plans costed at the root (before any discard).
    plans_emitted: u64,
}

/// A streaming run's discard rule: entries whose cost plus `floor`
/// strictly exceeds `cost` are dropped.
#[derive(Debug, Clone)]
struct Incumbent {
    floor: CompletionFloor,
    /// Cheapest finalized complete-plan cost found so far (`+∞` until one
    /// is).
    cost: f64,
    /// Set by the first greedy walk that fails to lower the incumbent.
    retired: bool,
}

impl<C: PhaseCoster> KeepAllPolicy<C> {
    /// A policy costing operators with `coster` that holds every plan.
    pub fn new(coster: C) -> Self {
        KeepAllPolicy {
            coster,
            bound: None,
            pairs: Vec::new(),
            plans_emitted: 0,
        }
    }

    /// Complete plans costed so far (root candidates created, whether or
    /// not the streaming discard dropped them afterwards).
    pub fn plans_emitted(&self) -> u64 {
        self.plans_emitted
    }

    /// Greedily complete the cheapest entry of `seed` to a full plan
    /// through the policy's own `combine`/`finalize`, returning the
    /// finalized cost.  Each step joins the single cheapest candidate with
    /// the connected table whose point size product keeps the intermediate
    /// smallest, so a walk is `O(n)` cheap combines.  `None` when the
    /// streaming discard drops every candidate of a step.
    fn greedy_complete(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        table: &DpTable<DpEntry>,
        seed: TableSet,
        stats: &mut SearchStats,
    ) -> Option<f64> {
        let n = model.query().n_tables();
        let mut set = seed;
        let seed_entries = table.get(seed)?;
        let mut cur = vec![seed_entries[cheapest_index(seed_entries)?]];
        while set.len() < n {
            let (_, j) = model
                .frontier(set)
                .iter()
                .map(|j| (point_size_product(model, set.with(j)), j))
                .min_by(first_min)?;
            let right = TableSet::singleton(j);
            let ctx = JoinContext::of(set, right);
            let mut out = Vec::new();
            self.combine(model, plans, &ctx, &cur, table.get(right)?, &mut out, stats);
            let best = cheapest_index(&out)?;
            cur.clear();
            self.build(plans, &mut vec![out.swap_remove(best)], &mut cur);
            set = ctx.result;
        }
        let ctx = RootContext { sort_phase: n - 1 };
        self.finalize(model, plans, &ctx, cur, stats)
            .iter()
            .map(SearchEntry::cost)
            .min_by(|a, b| a.total_cmp(b))
    }
}

impl KeepAllPolicy<MemoryCoster> {
    /// The oracle's streaming verifier over `model` (module docs): costs
    /// every plan, holds only those that might still win.
    pub fn streaming(model: &CostModel<'_>, coster: MemoryCoster) -> Self {
        let bound = Incumbent {
            floor: CompletionFloor::new(model, coster.max_memory()),
            cost: f64::INFINITY,
            retired: false,
        };
        KeepAllPolicy {
            bound: Some(bound),
            ..KeepAllPolicy::new(coster)
        }
    }
}

/// `min_by` as a strict `<` scan: the first of equal or unordered values.
fn first_min<T>(a: &(f64, T), b: &(f64, T)) -> Ordering {
    a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal)
}

/// Index of the minimal-cost entry in `entries` (first among exact ties).
fn cheapest_index<E: SearchEntry>(entries: &[E]) -> Option<usize> {
    let costs = entries.iter().map(SearchEntry::cost).zip(0..);
    costs.min_by(first_min).map(|(_, i)| i)
}

impl<C: PhaseCoster> CandidatePolicy for KeepAllPolicy<C> {
    type Entry = DpEntry;
    type Size = f64;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        idx: usize,
        _stats: &mut SearchStats,
    ) -> Vec<DpEntry> {
        access_alternatives(model, plans, idx)
    }

    fn combine(
        &mut self,
        model: &CostModel<'_>,
        _plans: &PlanArena,
        ctx: &JoinContext,
        outer: &[DpEntry],
        inner: &[DpEntry],
        into: &mut Vec<Joined<f64>>,
        stats: &mut SearchStats,
    ) {
        let (sel, sm_order) = model.crossing(ctx.left, ctx.right);
        let is_root = ctx.result == TableSet::full(model.query().n_tables());
        // The completion floor depends only on the result subset, never on
        // which entries built it: one floor covers every candidate this
        // call emits.
        let discard_above = self
            .bound
            .as_ref()
            .map(|b| b.cost - b.floor.of(model, ctx.result));
        self.pairs.clear();
        for oe in outer {
            for ie in inner {
                let key = (oe.pages.to_bits(), ie.pages.to_bits());
                let (costs, size) = priced(&mut self.pairs, key, || {
                    let cost = |method| {
                        self.coster
                            .join_cost(model, ctx, method, oe.pages, ie.pages)
                    };
                    let size = model.join_output_pages(oe.pages, ie.pages, sel);
                    (JoinMethod::ALL.map(cost), size)
                });
                for (method, join_cost) in JoinMethod::ALL.into_iter().zip(costs) {
                    stats.candidates += 1;
                    let cost = oe.cost + ie.cost + join_cost;
                    if is_root {
                        self.plans_emitted += 1;
                    }
                    // Strict inequality: exact ties with the incumbent
                    // survive, so the first-minimal root pick matches the
                    // materializing enumeration bit for bit.
                    if discard_above.is_some_and(|limit| cost > limit) {
                        continue;
                    }
                    into.push(Joined {
                        cost,
                        order: join_output_order(sm_order, oe.order, method),
                        size,
                        method,
                        outer: oe.plan,
                        inner: ie.plan,
                    });
                }
            }
        }
    }

    fn build(
        &mut self,
        plans: &mut PlanArena,
        pending: &mut Vec<Joined<f64>>,
        into: &mut Vec<DpEntry>,
    ) {
        build_entries(plans, pending, into);
    }

    fn finalize(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        ctx: &RootContext,
        entries: Vec<DpEntry>,
        _stats: &mut SearchStats,
    ) -> Vec<DpEntry> {
        super::keep_best::finalize_with_coster(model, plans, ctx, entries, &self.coster)
    }

    /// A streaming run seeds or tightens its incumbent from the level's
    /// most promising subset: the cheapest minimal entry, the smallest bit
    /// pattern on exact ties.
    fn after_level(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        table: &DpTable<DpEntry>,
        level: &[TableSet],
        stats: &mut SearchStats,
    ) {
        let Some(before) = self.bound.as_ref().filter(|b| !b.retired).map(|b| b.cost) else {
            return;
        };
        // `level` is in increasing bit order: the first minimum is the smallest.
        let best = level.iter().filter_map(|&set| {
            let entries = table.get(set)?;
            Some((entries[cheapest_index(entries)?].cost, set))
        });
        let Some((_, seed)) = best.min_by(first_min) else {
            return;
        };
        if let Some(cost) = self.greedy_complete(model, plans, table, seed, stats) {
            let bound = self.bound.as_mut().expect("a streaming run");
            bound.cost = bound.cost.min(cost);
            bound.retired = cost >= before;
        }
    }
}
