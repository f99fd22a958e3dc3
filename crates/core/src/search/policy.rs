//! The candidate-policy axis of the search engine: what each dag node
//! retains and how a join candidate is costed.

use super::arena::{PlanArena, PlanId};
use super::keep_best::DpEntry;
use super::SearchStats;
use lec_cost::{CostModel, Split};
use lec_plan::{JoinMethod, OrderProperty, TableSet};
use std::cmp::Ordering;

/// Everything a policy needs to cost one (outer, inner) combination.
#[derive(Debug, Clone, Copy)]
pub struct JoinContext {
    /// The outer operand's table set.
    pub left: TableSet,
    /// The inner operand's table set: a singleton in left-deep search,
    /// the only shape top-c runs.
    pub right: TableSet,
    /// 0-based execution phase of §3.5: joining the k-th relation is
    /// phase `k - 2`.
    pub phase: usize,
}

impl JoinContext {
    /// The context of joining `left` with `right`.
    pub fn of(left: TableSet, right: TableSet) -> Self {
        JoinContext {
            left,
            right,
            phase: left.len() + right.len() - 2,
        }
    }
}

/// What the insert rules and the engine read out of a candidate, a built
/// entry or a pending [`Joined`] alike.
pub trait SearchEntry {
    /// Its cost under the policy's objective.
    fn cost(&self) -> f64;
    /// Its output order property.
    fn order(&self) -> OrderProperty;
    /// [`PlanArena::shape_cmp`] of the two candidates' plans, built or not.
    fn shape_cmp(&self, model: &CostModel<'_>, plans: &PlanArena, other: &Self) -> Ordering;
}

/// A join candidate not built yet: its operands are steps of the search's
/// [`PlanArena`]; `size` is its result size or the policy's handle to one.
#[derive(Debug, Clone, Copy)]
pub struct Joined<S> {
    /// Its cost under the policy's objective.
    pub cost: f64,
    /// Its output order property.
    pub order: OrderProperty,
    /// Its result size, or where the policy keeps it.
    pub size: S,
    /// The join method.
    pub method: JoinMethod,
    /// The outer operand's plan.
    pub outer: PlanId,
    /// The inner operand's plan.
    pub inner: PlanId,
}

impl<S> SearchEntry for Joined<S> {
    fn cost(&self) -> f64 {
        self.cost
    }
    fn order(&self) -> OrderProperty {
        self.order
    }
    /// [`PlanArena::shape_cmp`] of the join steps they build.
    fn shape_cmp(&self, model: &CostModel<'_>, plans: &PlanArena, other: &Self) -> Ordering {
        self.method
            .cmp(&other.method)
            .then_with(|| plans.shape_cmp(model, self.outer, other.outer))
            .then_with(|| plans.shape_cmp(model, self.inner, other.inner))
    }
}

/// A retention-and-costing strategy plugged into the engine.
///
/// The engine owns subset enumeration, operand pairing and the search's
/// [`PlanArena`]; the policy owns everything per-candidate: costing,
/// output-order and size bookkeeping, and which candidates a node keeps.
/// `combine` ranks *pending* joins ([`Joined`]) in buffers the policy
/// owns (the survivors so far of the subset in hand), so a losing
/// candidate builds nothing; after the subset's last split the engine
/// has the policy build the survivors once, through `build`.
pub trait CandidatePolicy {
    /// The per-node candidate representation.
    type Entry: SearchEntry + Clone;

    /// Build the depth-1 entries (access paths) for one table.
    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        idx: usize,
    ) -> Vec<Self::Entry>;

    /// Combine every (outer, inner) entry pair of one split of the subset
    /// in hand under every join method, retaining pending joins among the
    /// subset's survivors of earlier splits under the policy's insert
    /// rule.
    fn combine(
        &mut self,
        model: &CostModel<'_>,
        plans: &PlanArena,
        ctx: &JoinContext,
        outer: &[Self::Entry],
        inner: &[Self::Entry],
        stats: &mut SearchStats,
    );

    /// Build the subset in hand's surviving pending joins, in order, onto
    /// `into` (its level's entries), one join step each, and forget them.
    fn build(&mut self, plans: &mut PlanArena, into: &mut Vec<Self::Entry>);

    /// Enforce the query's required output order on the root candidates
    /// (wrapping in a sort step where needed) and return the survivors.
    fn finalize(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        entries: Vec<Self::Entry>,
        stats: &mut SearchStats,
    ) -> Vec<Self::Entry>;
}

/// `a` can substitute for `b`: `a` is sorted as required, or `b` is not —
/// only the required order is interesting ([`lec_plan::order`]).
pub fn covers(a: OrderProperty, b: OrderProperty) -> bool {
    a.is_required() || !b.is_required()
}

/// How two candidates of equal cost rank: the stronger order first, then
/// the smaller shape under [`PlanArena::shape_cmp`].
fn tie_rank<E: SearchEntry>(model: &CostModel<'_>, plans: &PlanArena, a: &E, b: &E) -> Ordering {
    b.order()
        .cmp(&a.order())
        .then_with(|| a.shape_cmp(model, plans, b))
}

/// Insert with domination pruning — keep an entry only if no other entry
/// with a covering order is cheaper, the System R interesting-order rule
/// shared by every keep-1 policy: one entry sorted as required, one for
/// the rest — and a *label-independent* resolution of exact cost ties: a
/// stronger order wins (an incidental sort over none, so a tie reports the
/// plan a search keeping every sort class would), and when two candidates
/// with equal orders cost exactly the same (e.g. the two orientations of a
/// symmetric-cost join at depth 2), the survivor is the one smaller under
/// [`PlanArena::shape_cmp`] rather than the one the enumeration happened
/// to produce first.
///
/// First-wins tie-breaking is *label-dependent* — subsets are enumerated
/// in table-index order, so renaming the tables of a query can flip which
/// of two tied candidates is generated first, and the optimizer would
/// return structurally different (equal-cost) plans for isomorphic
/// queries.  The cross-query plan cache serves cached plans by relabeling,
/// so it needs the engine to commute with renaming; comparing tied
/// candidates by their label-free shape restores that, except between
/// genuinely indistinguishable twin tables (equal statistics and filters),
/// where either choice is the same plan up to an automorphism.  Keep-1
/// nodes insert pending joins ([`Joined`]) and build only the survivors.
pub fn insert_entry_shaped<T: SearchEntry>(
    model: &CostModel<'_>,
    plans: &PlanArena,
    entries: &mut Vec<T>,
    e: T,
) {
    let (cost, order) = (e.cost(), e.order());
    let kept = |f: &T| {
        covers(f.order(), order)
            && (f.cost() < cost
                || (f.cost() == cost && tie_rank(model, plans, f, &e) != Ordering::Greater))
    };
    if entries.iter().any(kept) {
        return;
    }
    entries.retain(|f| {
        !(covers(order, f.order())
            && (cost < f.cost()
                || (cost == f.cost() && tie_rank(model, plans, &e, f) == Ordering::Less)))
    });
    entries.push(e);
}

/// The rename-equivariant total order on entries: cost, then
/// [`PlanArena::shape_cmp`] on exact cost ties, so a table renaming of
/// the query keeps and reports the same plans (up to relabeling).  Only
/// genuinely indistinguishable twin tables (equal shape fingerprints,
/// refused by the canonicalizer's automorphism check) fall back to
/// arrival order.  A pending join ranks exactly as its built entry would.
pub fn shape_rank<E: SearchEntry>(
    model: &CostModel<'_>,
    plans: &PlanArena,
    a: &E,
    b: &E,
) -> Ordering {
    a.cost()
        .total_cmp(&b.cost())
        .then_with(|| a.shape_cmp(model, plans, b))
}

/// The tail of every keep-1 `combine`: insert into `into`, through
/// [`insert_entry_shaped`] and in enumeration order, the candidates of one
/// split that no cheaper candidate of the split covers.  `sums[i *
/// inner.len() + j]` holds outer entry `i` joined with inner entry `j`:
/// the four method costs and the result size; `split` gives each
/// candidate's output order and `plan` reads an entry's plan.
///
/// The split's cheapest candidate covers every candidate not sorted as
/// required, and the cheapest of those sorted as required covers the
/// rest, so two minima filter the split.  A costlier candidate is strictly
/// dominated by a covering one: the insert rule drops it whenever it
/// arrives, and what it would evict or reject, the cheaper one does too.
/// So the node's entries, their order and every counter stay; exact ties
/// (and NaN costs) all go in, for the shape tie-break.
pub(super) fn insert_cheapest<E: SearchEntry, S: Copy>(
    model: &CostModel<'_>,
    plans: &PlanArena,
    split: Split,
    (outer, inner): (&[E], &[E]),
    plan: impl Fn(&E) -> PlanId,
    sums: &[([f64; 4], S)],
    into: &mut Vec<Joined<S>>,
) {
    let order = |i: usize, method| split.order(method, outer[i].order());
    let insert = |i: usize, j: usize, method, cost, order, size| {
        let (outer, inner) = (plan(&outer[i]), plan(&inner[j]));
        let joined = Joined {
            cost,
            order,
            size,
            method,
            outer,
            inner,
        };
        insert_entry_shaped(model, plans, into, joined);
    };
    for_each_cheapest(sums, inner.len(), order, insert);
}

/// Call `insert(i, j, method, cost, order, size)`, in enumeration order,
/// for each candidate of one split that no cheaper candidate of the split
/// covers ([`insert_cheapest`]): those at the split's least cost, and
/// those sorted as required at the least cost of such candidates.
/// `sums[i * n_inner + j]` holds outer `i` with inner `j`'s costs and
/// size, and `order(i, method)` is their join's output order.
fn for_each_cheapest<S: Copy>(
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

/// The value `pairs` holds for `key`, or `price()` stored under it: how a
/// `combine` call prices each distinct operand-size pair once
/// (Proposition 3.1's observation — a join's method costs depend only on
/// its operands' sizes).  A call sees a handful of distinct keys, so the
/// memo is a vector scanned in order.
pub(super) fn priced<K: PartialEq + Copy, V: Copy>(
    pairs: &mut Vec<(K, V)>,
    key: K,
    price: impl FnOnce() -> V,
) -> V {
    if let Some(&(_, v)) = pairs.iter().find(|(k, _)| *k == key) {
        return v;
    }
    let v = price();
    pairs.push((key, v));
    v
}

/// The access-path alternatives of one table ([`CostModel::accesses`]),
/// at the table's point size, each a scan step of `plans`.  Shared by
/// every policy's depth-1 construction.
pub fn access_alternatives(
    model: &CostModel<'_>,
    plans: &mut PlanArena,
    idx: usize,
) -> Vec<DpEntry> {
    (model.accesses(idx))
        .map(|(step, order, cost)| DpEntry {
            order,
            cost,
            pages: model.base_pages(idx),
            plan: plans.push(step),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::keep_best::DpEntry;
    use crate::search::{insert_top_c, order_run};
    use OrderProperty::{Incidental, Required, Unsorted};

    /// [`insert_entry_shaped`] under some model: the domination rules
    /// below never reach the shape tie-break that would read it.
    fn insert(entries: &mut Vec<DpEntry>, e: DpEntry) {
        let (cat, q) = crate::fixtures::three_chain();
        insert_entry_shaped(&CostModel::new(&cat, &q), &PlanArena::default(), entries, e);
    }

    fn entry(cost: f64, ord: OrderProperty) -> DpEntry {
        DpEntry {
            plan: 0,
            cost,
            pages: 10.0,
            order: ord,
        }
    }

    #[test]
    fn cheaper_same_order_replaces() {
        let mut v = vec![entry(10.0, Unsorted)];
        insert(&mut v, entry(5.0, Unsorted));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].cost, 5.0);
    }

    #[test]
    fn more_expensive_same_order_is_dropped() {
        let mut v = vec![entry(5.0, Unsorted)];
        insert(&mut v, entry(10.0, Unsorted));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].cost, 5.0);
    }

    #[test]
    fn sorted_entry_dominates_equal_cost_unsorted() {
        let mut v = vec![entry(5.0, Unsorted)];
        insert(&mut v, entry(5.0, Required));
        // The sorted entry covers the unsorted one at equal cost.
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].order, Required);
    }

    #[test]
    fn expensive_sorted_entry_coexists_with_cheap_unsorted() {
        let mut v = vec![entry(5.0, Unsorted)];
        insert(&mut v, entry(8.0, Required));
        assert_eq!(v.len(), 2, "an interesting order justifies extra cost");
    }

    #[test]
    fn unsorted_never_dominates_sorted() {
        let mut v = vec![entry(8.0, Required)];
        insert(&mut v, entry(5.0, Unsorted));
        assert_eq!(v.len(), 2);
    }

    /// One entry per class: an incidental sort and the required one
    /// coexist when the incidental one is cheaper, and lose to it at an
    /// equal cost.
    #[test]
    fn different_sort_orders_coexist_only_across_classes() {
        let mut v = vec![entry(5.0, Required)];
        insert(&mut v, entry(4.0, Incidental));
        assert_eq!(v.len(), 2);
        let mut v = vec![entry(5.0, Required)];
        insert(&mut v, entry(5.0, Incidental));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].order, Required);
    }

    #[test]
    fn cheap_sorted_kills_expensive_everything() {
        for other in [Unsorted, Incidental] {
            let mut v = vec![entry(9.0, other), entry(12.0, Required)];
            insert(&mut v, entry(3.0, Required));
            // Kills the costlier entry of the other class and the
            // same-order 12.0.
            assert_eq!(v.len(), 1);
            assert_eq!((v[0].cost, v[0].order), (3.0, Required));
        }
    }

    #[test]
    fn at_an_exact_tie_incidental_beats_unsorted() {
        let mut v = vec![entry(5.0, Unsorted)];
        insert(&mut v, entry(5.0, Incidental));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].order, Incidental, "the incidental newcomer evicts");
        insert(&mut v, entry(5.0, Unsorted));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].order, Incidental, "an unsorted newcomer is dropped");
    }

    #[test]
    fn a_strictly_cheaper_unsorted_entry_evicts_an_incidental_one() {
        let mut v = vec![entry(5.0, Incidental)];
        insert(&mut v, entry(4.0, Unsorted));
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].cost, v[0].order), (4.0, Unsorted));
    }

    #[test]
    fn sorted_as_required_is_never_dominated_by_a_cheaper_other_entry() {
        for other in [Unsorted, Incidental] {
            let mut v = vec![entry(8.0, Required)];
            insert(&mut v, entry(1.0, other));
            assert_eq!(v.len(), 2);
            assert!(v.iter().any(|e| (e.cost, e.order) == (8.0, Required)));
        }
    }

    /// With `c = 2`, unsorted and incidental entries share one run of two,
    /// ranked by cost then shape (an equal-rank newcomer goes last), and an
    /// entry sorted as required gets a run of its own.
    #[test]
    fn top_c_keeps_one_run_for_unsorted_and_incidental_entries() {
        let (cat, q) = crate::fixtures::three_chain();
        let model = CostModel::new(&cat, &q);
        let plans = PlanArena::default();
        let mut v: Vec<DpEntry> = Vec::new();
        let stream = [
            (5.0, Unsorted),
            (9.0, Required),
            (4.0, Incidental),
            (3.0, Unsorted),
            (3.0, Incidental),
        ];
        for (cost, order) in stream {
            let mut run = order_run(&v, order);
            insert_top_c(&model, &plans, &mut v, &mut run, 2, entry(cost, order));
        }
        assert_eq!(order_run(&v, Unsorted), order_run(&v, Incidental));
        assert_eq!(order_run(&v, Unsorted), 0..2);
        let kept: Vec<_> = v.iter().map(|e| (e.cost, e.order)).collect();
        assert_eq!(kept, [(3.0, Unsorted), (3.0, Incidental), (9.0, Required)]);
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
}
