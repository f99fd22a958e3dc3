//! The keep-1 policy: per (subset, interesting order), retain the single
//! cheapest plan under the active [`PhaseCoster`]: one sorted as required
//! and one other, as no join is cheaper for a sorted input and only the
//! root's sort consumes an order ([`lec_plan::order`]).  With a point
//! coster this is Theorem 2.1's System R baseline; with an expectation
//! coster it is Algorithm C (Theorems 3.3/3.4); run under the bushy shape
//! it is the §4 extension.
//!
//! A keep-1 `combine` prices and sums every candidate of a split, then
//! inserts only those no cheaper candidate of the split covers, in
//! `policy::insert_cheapest`, the tail it shares with Algorithm D's: two
//! minima filter a split, and the node's entries, their order and every
//! counter stay.
//!
//! A search prices each operand-size pair once per phase distribution, not
//! once per split: most of a dense graph's intermediates clamp to one
//! page, so its splits meet the same few (outer pages, inner pages) pairs
//! again and again.  The prices live in a direct-mapped table of
//! `PRICE_SLOTS` (128) slots that the policy empties when a search starts;
//! a result size is still one multiply per pair, as its selectivity is the
//! split's.

use super::arena::{PlanArena, PlanId};
use super::coster::PhaseCoster;
use super::policy::{
    access_alternatives, insert_cheapest, insert_entry_shaped, shape_rank, CandidatePolicy,
    JoinContext, Joined, SearchEntry,
};
use super::SearchStats;
use lec_cost::CostModel;
use lec_plan::{ColumnRef, JoinMethod, OrderProperty, Step};
use std::cmp::Ordering;

/// A DP table entry: the cheapest known plan for one (subset, order class).
#[derive(Debug, Clone, Copy)]
pub struct DpEntry {
    /// The plan's step, an input of every entry built on top of it.
    pub plan: PlanId,
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
    fn shape_cmp(&self, model: &CostModel<'_>, plans: &PlanArena, other: &Self) -> Ordering {
        plans.shape_cmp(model, self.plan, other.plan)
    }
}

/// The `build` of keep-best and top-c.
pub(super) fn build_entries(
    plans: &mut PlanArena,
    pending: &mut Vec<Joined<f64>>,
    into: &mut Vec<DpEntry>,
) {
    into.extend(pending.drain(..).map(|j| DpEntry {
        plan: plans.push(Step::Join(j.method, j.outer, j.inner)),
        cost: j.cost,
        pages: j.size,
        order: j.order,
    }));
}

/// Slots in a search's [`PriceTable`]: a constant, about 7 KB.
const PRICE_SLOTS: usize = 128;

/// A price table key: (outer pages bits, inner pages bits, the coster's
/// [`PhaseCoster::price_phase`]).
type PriceKey = (u64, u64, usize);

/// An empty slot of a [`PriceTable`]: no coster reads phase `usize::MAX`.
const NO_PRICE: (PriceKey, [f64; 4]) = ((0, 0, usize::MAX), [0.0; 4]);

/// One search's join prices, direct-mapped: a join's method costs depend
/// only on its operands' sizes and the phase distribution the coster
/// reads (Proposition 3.1's observation), so every split of the search
/// that meets a priced key reads its costs instead of paying `4·b`
/// formula calls again.  A slot holds the last key hashed to it and that
/// key's four method costs, in [`JoinMethod::ALL`] order; the full key is
/// compared, so a colliding key is priced again and never reads another
/// key's prices.  The table is empty until the search's first price.
#[derive(Debug, Clone, Default)]
struct PriceTable(Vec<(PriceKey, [f64; 4])>);

impl PriceTable {
    fn slot(key: PriceKey) -> usize {
        let (outer, inner, phase) = key;
        let hash = lec_cost::avalanche(lec_cost::avalanche(outer) ^ inner ^ phase as u64);
        hash as usize % PRICE_SLOTS
    }

    /// `key`'s costs, priced by `price` unless its slot holds them.
    fn get_or_price(&mut self, key: PriceKey, price: impl FnOnce() -> [f64; 4]) -> [f64; 4] {
        if self.0.is_empty() {
            self.0.resize(PRICE_SLOTS, NO_PRICE);
        }
        let slot = &mut self.0[Self::slot(key)];
        if slot.0 != key {
            *slot = (key, price());
        }
        slot.1
    }
}

/// The keep-1 policy over any [`PhaseCoster`].
#[derive(Debug, Clone)]
pub struct KeepBestPolicy<C> {
    /// The operator-costing strategy.
    pub coster: C,
    /// The search's join prices; emptied when a search starts.
    prices: PriceTable,
    /// One `combine` call's candidate costs and sizes per entry pair.
    sums: Vec<([f64; 4], f64)>,
    /// The subset in hand's pending joins; `build` drains them, so one
    /// buffer serves the whole search.
    pending: Vec<Joined<f64>>,
}

impl<C: PhaseCoster> KeepBestPolicy<C> {
    /// A policy costing operators with `coster`.
    pub fn new(coster: C) -> Self {
        KeepBestPolicy {
            coster,
            prices: PriceTable::default(),
            sums: Vec::new(),
            pending: Vec::new(),
        }
    }
}

impl<C: PhaseCoster> CandidatePolicy for KeepBestPolicy<C> {
    type Entry = DpEntry;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        idx: usize,
    ) -> Vec<DpEntry> {
        // A search starts with its first table: no price outlives a search.
        if idx == 0 {
            self.prices.0.clear();
        }
        let mut entries = Vec::new();
        for e in access_alternatives(model, plans, idx) {
            insert_entry_shaped(model, plans, &mut entries, e);
        }
        entries
    }

    fn combine(
        &mut self,
        model: &CostModel<'_>,
        plans: &PlanArena,
        ctx: &JoinContext,
        outer: &[DpEntry],
        inner: &[DpEntry],
        stats: &mut SearchStats,
    ) {
        let split = model.split(ctx.left, ctx.right);
        let phase = self.coster.price_phase(ctx.phase);
        self.sums.clear();
        for oe in outer {
            for ie in inner {
                let key = (oe.pages.to_bits(), ie.pages.to_bits(), phase);
                let costs = self.prices.get_or_price(key, || {
                    self.coster.join_costs(model, ctx, oe.pages, ie.pages)
                });
                let pages = split.pages(oe.pages, ie.pages);
                stats.candidates += JoinMethod::ALL.len() as u64;
                self.sums
                    .push((costs.map(|join_cost| oe.cost + ie.cost + join_cost), pages));
            }
        }
        let (operands, into) = ((outer, inner), &mut self.pending);
        insert_cheapest(model, plans, split, operands, |e| e.plan, &self.sums, into);
    }

    fn build(&mut self, plans: &mut PlanArena, into: &mut Vec<DpEntry>) {
        build_entries(plans, &mut self.pending, into);
    }

    fn finalize(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        entries: Vec<DpEntry>,
        _stats: &mut SearchStats,
    ) -> Vec<DpEntry> {
        let mut roots = finalize_with_coster(model, plans, entries, &self.coster);
        sort_roots(model, plans, &mut roots);
        roots
    }
}

/// Shared root finalization: wrap entries that miss a required order in a
/// sort costed by `coster` at the phase after the query's `n - 1` joins.
/// Used by every policy but multi-param.
pub(super) fn finalize_with_coster<C: PhaseCoster>(
    model: &CostModel<'_>,
    plans: &mut PlanArena,
    entries: Vec<DpEntry>,
    coster: &C,
) -> Vec<DpEntry> {
    let sort_phase = model.query().n_tables() - 1;
    sort_where_required(model, entries, |e, key| DpEntry {
        cost: e.cost + coster.sort_cost(model, sort_phase, e.pages),
        plan: plans.push(Step::Sort(e.plan, key)),
        order: OrderProperty::Required,
        ..e
    })
}

/// Replace every root entry that misses the query's required order with
/// `sort(entry, key)`, the [`CostModel::root_sort`] that delivers it.
pub(super) fn sort_where_required<E: SearchEntry>(
    model: &CostModel<'_>,
    entries: Vec<E>,
    mut sort: impl FnMut(E, ColumnRef) -> E,
) -> Vec<E> {
    let sort_unsorted = |e: E| match model.root_sort(e.order()) {
        Some(key) => sort(e, key),
        None => e,
    };
    entries.into_iter().map(sort_unsorted).collect()
}

/// Order finalized root candidates by (cost bits, label-free shape), so
/// the reported root vector — and [`super::SearchRun::best`]'s
/// first-minimal pick among exact-cost ties — is independent of the
/// per-order-class insertion order.
pub(super) fn sort_roots<E: SearchEntry>(
    model: &CostModel<'_>,
    plans: &PlanArena,
    roots: &mut [E],
) {
    roots.sort_by(|a, b| shape_rank(model, plans, a, b));
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_plan::TableSet;

    /// A coster pricing each join method at one fixed cost.
    struct Flat([f64; 4]);

    impl PhaseCoster for Flat {
        fn join_cost(
            &self,
            _model: &CostModel<'_>,
            _ctx: &JoinContext,
            method: JoinMethod,
            _outer: f64,
            _inner: f64,
        ) -> f64 {
            self.0[JoinMethod::ALL.iter().position(|&m| m == method).unwrap()]
        }

        fn sort_cost(&self, _model: &CostModel<'_>, _phase: usize, _pages: f64) -> f64 {
            0.0
        }
    }

    /// Two keys that share a slot each read their own prices: the second
    /// evicts the first, which is priced again when it returns, and a key
    /// equal to it but for its phase, in the same slot, is a third key.
    #[test]
    fn colliding_keys_each_read_their_own_prices() {
        let first = (1.0f64.to_bits(), 10.0f64.to_bits(), 0);
        let collides =
            |key: &PriceKey| *key != first && PriceTable::slot(*key) == PriceTable::slot(first);
        let second = (1..)
            .map(|pages| (1.0f64.to_bits(), f64::to_bits(pages as f64), 0))
            .find(collides)
            .expect("some inner page count collides");
        let other_phase = (1..)
            .map(|phase| (first.0, first.1, phase))
            .find(collides)
            .expect("some phase collides");
        let mut table = PriceTable::default();
        let mut priced = Vec::new();
        let mut read = |key: PriceKey, costs: [f64; 4]| {
            table.get_or_price(key, || {
                priced.push(key);
                costs
            })
        };
        let (a, b) = ([1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]);
        assert_eq!(read(first, a), a);
        assert_eq!(read(first, b), a, "a stored price is read, not priced");
        assert_eq!(read(second, b), b, "a collision is priced, not read");
        assert_eq!(read(first, a), a, "the evicted key is priced again");
        assert_eq!(read(other_phase, b), b, "another phase's price is priced");
        assert_eq!(priced, [first, second, first, other_phase]);
    }

    /// Two outer entries whose sums round to one candidate cost: 1.5 and
    /// 2.5 vanish into a 10¹⁸ join cost, whose last place is 128.  Both
    /// are the split's least cost, so the filter inserts both, and the
    /// survivor is the one inserting every candidate keeps: the second
    /// outer entry's Grace join, whose outer is the smaller shape (SM
    /// before BNL), not the first one enumerated.  A third outer entry's
    /// sums stay above that cost and are skipped.
    #[test]
    fn a_rounding_tie_keeps_the_insert_every_candidate_survivor() {
        let (cat, q) = crate::fixtures::three_chain();
        let model = CostModel::new(&cat, &q);
        let mut plans = PlanArena::default();
        let [s0, s1, s2] = [0, 1, 2].map(|t| plans.push(Step::SeqScan(t)));
        let mut entry = |method, cost| DpEntry {
            plan: plans.push(Step::Join(method, s0, s1)),
            cost,
            pages: 10.0,
            order: OrderProperty::Unsorted,
        };
        let outer = [
            entry(JoinMethod::BlockNestedLoop, 1.0),
            entry(JoinMethod::SortMerge, 2.0),
            entry(JoinMethod::GraceHash, 1e6),
        ];
        let inner = [DpEntry {
            plan: s2,
            cost: 0.5,
            pages: 10.0,
            order: OrderProperty::Unsorted,
        }];
        let ctx = JoinContext::of(TableSet::from_bits(0b011), TableSet::from_bits(0b100));
        let coster = Flat([4e18, 1e18, 2e18, 3e18]);
        let split = model.split(ctx.left, ctx.right);
        let mut want = Vec::new();
        for (oe, ie) in outer
            .iter()
            .flat_map(|oe| inner.iter().map(move |ie| (oe, ie)))
        {
            for method in JoinMethod::ALL {
                let join_cost = coster.join_cost(&model, &ctx, method, oe.pages, ie.pages);
                let joined = Joined {
                    cost: oe.cost + ie.cost + join_cost,
                    order: split.order(method, oe.order),
                    size: 0.0,
                    method,
                    outer: oe.plan,
                    inner: ie.plan,
                };
                insert_entry_shaped(&model, &plans, &mut want, joined);
            }
        }
        let mut policy = KeepBestPolicy::new(coster);
        let mut stats = SearchStats::default();
        policy.combine(&model, &plans, &ctx, &outer, &inner, &mut stats);
        let got = &policy.pending;
        assert_eq!(stats.candidates, 12, "every candidate counts");
        let view = |v: &[Joined<f64>]| -> Vec<_> {
            v.iter()
                .map(|j| (j.method, j.outer, j.inner, j.cost.to_bits(), j.order))
                .collect()
        };
        assert_eq!(view(got), view(&want));
        let unordered: Vec<_> = got
            .iter()
            .filter(|j| j.order == OrderProperty::Unsorted)
            .collect();
        assert_eq!(unordered.len(), 1);
        assert_eq!(
            (unordered[0].method, unordered[0].outer),
            (JoinMethod::GraceHash, outer[1].plan)
        );
    }
}
