//! The keep-1 policy: per (subset, interesting order), retain the single
//! cheapest plan under the active [`PhaseCoster`]: one sorted as required
//! and one other, as no join is cheaper for a sorted input and only the
//! root's sort consumes an order ([`lec_plan::order`]).  With a point
//! coster this is Theorem 2.1's System R baseline; with an expectation
//! coster it is Algorithm C (Theorems 3.3/3.4); run under the bushy shape
//! it is the §4 extension.
//!
//! A keep-1 `combine` prices and sums every candidate of a split, then
//! inserts only those no cheaper candidate of the split covers
//! (`for_each_cheapest`).  The split's cheapest candidate covers every
//! candidate not sorted as required, and the cheapest of those sorted as
//! required covers the rest, so two minima filter the split.  A costlier
//! candidate is strictly dominated by a covering one: the insert rule
//! drops it whenever it arrives, and what it would evict or reject, the
//! cheaper one does too.  So the node's entries, their order and every
//! counter stay; exact ties (and NaN costs) all go in, for the shape
//! tie-break.
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
    access_alternatives, insert_entry_shaped, join_output_order, shape_rank, CandidatePolicy,
    JoinContext, Joined, RootContext, SearchEntry,
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

/// Call `insert(i, j, method, cost, order, size)`, in enumeration order,
/// for each candidate of one split that no cheaper candidate of the split
/// covers (module docs): those at the split's least cost, and those sorted
/// as required at the least cost of such candidates.
/// `sums[i * n_inner + j]` holds outer `i` with inner `j`'s costs and
/// size, and `order(i, method)` is their join's output order.
pub(super) fn for_each_cheapest<S: Copy>(
    sums: &[([f64; 4], S)],
    n_inner: usize,
    order: impl Fn(usize, JoinMethod) -> OrderProperty,
    mut insert: impl FnMut(usize, usize, JoinMethod, f64, OrderProperty, S),
) {
    let (mut least, mut least_required) = (f64::INFINITY, f64::INFINITY);
    for (i, row) in sums.chunks(n_inner.max(1)).enumerate() {
        let row_least = (row.iter()).fold([f64::INFINITY; 4], |m, (costs, _)| {
            std::array::from_fn(|k| m[k].min(costs[k]))
        });
        for (cost, method) in row_least.into_iter().zip(JoinMethod::ALL) {
            least = least.min(cost);
            if order(i, method).is_required() {
                least_required = least_required.min(cost);
            }
        }
    }
    for (i, row) in sums.chunks(n_inner.max(1)).enumerate() {
        for (j, &(costs, size)) in row.iter().enumerate() {
            for (k, method) in JoinMethod::ALL.into_iter().enumerate() {
                let order = order(i, method);
                // A NaN cost is above no minimum: the filter keeps it, as the rule does.
                let covered =
                    costs[k] > least && (!order.is_required() || costs[k] > least_required);
                if !covered {
                    insert(i, j, method, costs[k], order, size);
                }
            }
        }
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
}

impl<C: PhaseCoster> KeepBestPolicy<C> {
    /// A policy costing operators with `coster`.
    pub fn new(coster: C) -> Self {
        KeepBestPolicy {
            coster,
            prices: PriceTable::default(),
            sums: Vec::new(),
        }
    }
}

impl<C: PhaseCoster> CandidatePolicy for KeepBestPolicy<C> {
    type Entry = DpEntry;
    type Size = f64;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        idx: usize,
        _stats: &mut SearchStats,
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
        into: &mut Vec<Joined<f64>>,
        stats: &mut SearchStats,
    ) {
        let (sel, sm_order) = model.crossing(ctx.left, ctx.right);
        let phase = self.coster.price_phase(ctx.phase);
        self.sums.clear();
        for oe in outer {
            for ie in inner {
                let key = (oe.pages.to_bits(), ie.pages.to_bits(), phase);
                let costs = self.prices.get_or_price(key, || {
                    JoinMethod::ALL.map(|method| {
                        self.coster
                            .join_cost(model, ctx, method, oe.pages, ie.pages)
                    })
                });
                let pages = model.join_output_pages(oe.pages, ie.pages, sel);
                stats.candidates += JoinMethod::ALL.len() as u64;
                self.sums
                    .push((costs.map(|join_cost| oe.cost + ie.cost + join_cost), pages));
            }
        }
        let order = |i: usize, method| join_output_order(sm_order, outer[i].order, method);
        for_each_cheapest(
            &self.sums,
            inner.len(),
            order,
            |i, j, method, cost, order, pages| {
                let (oe, ie) = (&outer[i], &inner[j]);
                let joined = Joined {
                    cost,
                    order,
                    size: pages,
                    method,
                    outer: oe.plan,
                    inner: ie.plan,
                };
                insert_entry_shaped(model, plans, into, joined);
            },
        );
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
        let mut roots = finalize_with_coster(model, plans, ctx, entries, &self.coster);
        sort_roots(model, plans, &mut roots);
        roots
    }
}

/// Shared root finalization: wrap entries that miss a required order in a
/// sort costed by `coster`.  Used by every policy but multi-param.
pub(super) fn finalize_with_coster<C: PhaseCoster>(
    model: &CostModel<'_>,
    plans: &mut PlanArena,
    ctx: &RootContext,
    entries: Vec<DpEntry>,
    coster: &C,
) -> Vec<DpEntry> {
    sort_where_required(model, entries, |e, key| DpEntry {
        cost: e.cost + coster.sort_cost(model, ctx.sort_phase, e.pages),
        plan: plans.push(Step::Sort(e.plan, key)),
        order: OrderProperty::Required,
        ..e
    })
}

/// Replace every root entry that misses the query's required order with
/// `sort(entry, the required order's key)`, which delivers it.
pub(super) fn sort_where_required<E: SearchEntry>(
    model: &CostModel<'_>,
    entries: Vec<E>,
    mut sort: impl FnMut(E, ColumnRef) -> E,
) -> Vec<E> {
    let Some(want) = model.query().required_order else {
        return entries;
    };
    let sort_unsorted = |e: E| match e.order().is_required() {
        true => e,
        false => sort(e, want),
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

    /// The split-wide filter over two outer entries, the first unsorted
    /// and the second sorted as required, and a sort-merge join sorted as
    /// required: a costlier candidate of another method that the split's
    /// cheapest covers is dropped (the first entry's page nested-loop),
    /// and so is a required one above the cheapest required (its
    /// sort-merge joins), but the cheapest required survives a cheaper
    /// unsorted one, and exact ties and a NaN cost are kept.
    #[test]
    fn the_split_wide_filter_drops_only_covered_candidates() {
        use JoinMethod::{BlockNestedLoop as Bnl, GraceHash as Gh, PageNestedLoop as Nl};
        let sums = [
            ([5.0, 3.0, 4.0, 3.0], 'a'),
            ([6.0, f64::NAN, 4.5, 3.0], 'b'),
        ];
        let order = |i, method| match method == JoinMethod::SortMerge || (i, method) == (1, Nl) {
            true => OrderProperty::Required,
            false => OrderProperty::Unsorted,
        };
        let mut kept = Vec::new();
        for_each_cheapest(&sums, 1, order, |i, j, method, cost, _, size| {
            kept.push((i, j, method, cost.to_bits(), size));
        });
        let want = [
            (0, Gh, 3.0, 'a'),
            (0, Bnl, 3.0, 'a'),
            (1, Gh, f64::NAN, 'b'),
            (1, Nl, 4.5, 'b'),
            (1, Bnl, 3.0, 'b'),
        ];
        let want: Vec<_> = (want.iter())
            .map(|&(i, method, cost, size)| (i, 0, method, cost.to_bits(), size))
            .collect();
        assert_eq!(kept, want);
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
        let (_, sm_order) = model.crossing(ctx.left, ctx.right);
        let mut want = Vec::new();
        for (oe, ie) in outer
            .iter()
            .flat_map(|oe| inner.iter().map(move |ie| (oe, ie)))
        {
            for method in JoinMethod::ALL {
                let join_cost = coster.join_cost(&model, &ctx, method, oe.pages, ie.pages);
                let joined = Joined {
                    cost: oe.cost + ie.cost + join_cost,
                    order: join_output_order(sm_order, oe.order, method),
                    size: 0.0,
                    method,
                    outer: oe.plan,
                    inner: ie.plan,
                };
                insert_entry_shaped(&model, &plans, &mut want, joined);
            }
        }
        let mut policy = KeepBestPolicy::new(coster);
        let (mut got, mut stats) = (Vec::new(), SearchStats::default());
        policy.combine(&model, &plans, &ctx, &outer, &inner, &mut got, &mut stats);
        assert_eq!(stats.candidates, 12, "every candidate counts");
        let view = |v: &[Joined<f64>]| -> Vec<_> {
            v.iter()
                .map(|j| (j.method, j.outer, j.inner, j.cost.to_bits(), j.order))
                .collect()
        };
        assert_eq!(view(&got), view(&want));
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
