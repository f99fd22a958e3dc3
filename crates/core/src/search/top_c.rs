//! The top-`c` policy of Algorithm B (§3.3), with the Proposition 3.1
//! frontier.
//!
//! "Suppose that rather than generating the best plan for each memory size
//! m_i, we generate the top c plans ... combining them using each possible
//! join method gives us the top c plans for computing the join over S if
//! we join A_j last."  Proposition 3.1 bounds the combinations that must be
//! examined per join method by `c + c·log c`: if the two input lists are
//! sorted by cost, combination `(s_i, a_k)` can only be in the top `c` when
//! `i·k ≤ c`, because `i·k − 1` combinations are at least as cheap.
//!
//! The frontier argument is exact here because all top-c variants of an
//! input share the same physical properties (sizes), so the join-method
//! cost term is constant within a group and ranking reduces to the sum of
//! input costs — precisely the paper's observation.
//!
//! A frontier walk also stops early, exactly: both lists are cost-sorted,
//! `(a + x) + j` is monotone and a full run's worst never rises, so a run
//! that rejects a combination on cost would reject the rest of its outer
//! group too (and, if it was the group's cheapest, every later inner's).
//!
//! Top-c runs left-deep splits only, and `combine` panics on any other.
//! The frontier ranks a (group, method)'s combinations by their input
//! costs alone, which is exact only when the join's cost term is one
//! number for the whole group, and so only when every inner entry has one
//! size.  A left-deep inner is one table, whose access paths all have its
//! base page count; a composite inner's entries are built through
//! different splits, and the one-page clamp can give them sizes that
//! differ in the last bits, so a bushy split would price some candidates
//! at another entry's size.
//!
//! Only the required order is interesting ([`lec_plan::order`]), so a node
//! keeps `c` plans sorted as required and `c` others in one run ranked by
//! (cost, shape), and groups its outer list on the same two classes.
//! Within one `combine` call the inner size is fixed, so the join methods
//! are priced once per distinct outer page count (groups of both classes
//! share it), and the call finds where the pending buffer's two runs meet
//! once: each (group, method) walk takes its class's run — an outer
//! order's class decides its page nested-loop output's — from that
//! boundary, hands it to every insert, and moves the boundary by what the
//! first run gained.
//!
//! # Lanes
//!
//! Algorithm B runs "for each value m_i of the memory parameter"; one
//! [`TopCPolicy`] search runs them all, one lane per value
//! ([`TopCPolicy::with_lanes`]).  The lanes share what reads no memory:
//! the engine's level walk, each split's [`CostModel::split`], the outer grouping,
//! the inner table's access paths, the plan arena and the level vectors.
//! At each subset the lanes fall into *classes*: lanes whose pending
//! joins are one list.  A split's walk runs once per class, read from its
//! lowest lane, and a class's entries are built and stored once, each
//! with the class's lane set (kept beside the entries, by plan id, so
//! [`DpEntry`] stays 24 bytes).
//!
//! Sharing is exact because a walk reads nothing a lane could see
//! differently: every lane prices its own split, and a lane leaves its
//! class at the first split where its outer entries (its class at the
//! outer subset) or any of its join prices differ from the class's
//! lowest lane's, bit for bit — taking a copy of the class's pending
//! joins with it.  When a subset is done, classes whose joins agree
//! (plans, cost, order and size bits) are built as one: their lanes see
//! the same entries above.  So each lane keeps, at every node, what its
//! own search would keep.  The counters stay per lane: each lane's
//! pricing counts its formula calls, a class's walk adds its frontier
//! admissions to `candidates` and [`FrontierStats`] once per member lane,
//! `nodes` counts every lane's, and `finalize` sorts, ranks and truncates
//! each lane's roots at its own memory value, in lane order.

use super::arena::{PlanArena, PlanId};
use super::coster::{MemoryCoster, PhaseCoster};
use super::keep_best::{build_entries, finalize_with_coster, sort_roots, DpEntry};
use super::policy::{
    access_alternatives, shape_rank, CandidatePolicy, JoinContext, Joined, SearchEntry,
};
use super::SearchStats;
use lec_cost::{CostModel, Split};
use lec_plan::{JoinMethod, OrderProperty, Step};
use std::cmp::Ordering;
use std::mem::take;
use std::ops::Range;

/// Counters proving Proposition 3.1 empirically.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrontierStats {
    /// Combinations the frontier admits across all (node, split, method)
    /// groups: `Σₖ min(⌊c/(k+1)⌋, |group|)` per group.  The early stop
    /// counts the combinations it skips without inserting them.
    pub combinations_examined: u64,
    /// Sum of the paper's `c + c·log c` bound over the same groups,
    /// saturating: a huge `c` makes one group's bound `u64::MAX`.
    pub bound_total: u64,
    /// Number of combination groups.
    pub groups: u64,
}

/// The most lanes one search runs: a lane set is one word.
pub const MAX_LANES: usize = 64;

/// The top-`c`-per-(subset, order class) policy, one lane per memory
/// value.
#[derive(Debug, Clone)]
pub struct TopCPolicy {
    /// Each lane's point coster, in lane order.
    lanes: Vec<MemoryCoster>,
    c: usize,
    bound: u64,
    /// Frontier counters accumulated across the run, summed over lanes.
    pub frontier: FrontierStats,
    lane_sets: LaneSets,
    /// The subset in hand's classes, and emptied pending buffers for
    /// later ones.
    classes: Vec<Class>,
    spare: Vec<Vec<Joined<f64>>>,
    /// One `combine` call's scratch, cleared per call: each operand's
    /// entries' indices in walk order (the outer's class by class), each
    /// lane's view of the split, and the lanes' prices: per distinct outer
    /// page count, its bits and the four method costs.
    outer_order: Vec<usize>,
    inner_order: Vec<usize>,
    views: Vec<View>,
    prices: Vec<(u64, [f64; 4])>,
}

/// The lane set of each built entry, by its plan's id; a step not
/// recorded (an access path, a root sort) is every lane's, `all`.
#[derive(Debug, Clone)]
struct LaneSets {
    by_plan: Vec<u64>,
    all: u64,
}

impl LaneSets {
    fn of(&self, e: &DpEntry) -> u64 {
        let recorded = self.by_plan.get(e.plan as usize);
        recorded.copied().unwrap_or(self.all)
    }

    fn record(&mut self, e: &DpEntry, lanes: u64) {
        let id = e.plan as usize;
        if self.by_plan.len() <= id {
            self.by_plan.resize(id + 1, self.all);
        }
        self.by_plan[id] = lanes;
    }

    /// Each class of `entries` (a run of one lane set) as its lane set and
    /// `[start, end)`, in order.
    fn classes<'a>(
        &'a self,
        entries: &'a [DpEntry],
    ) -> impl Iterator<Item = (u64, [usize; 2])> + 'a {
        let mut end = 0;
        let runs = entries.chunk_by(|a, b| self.of(a) == self.of(b));
        runs.map(move |run| {
            end += run.len();
            (self.of(&run[0]), [end - run.len(), end])
        })
    }
}

/// Lanes whose pending joins at the subset in hand agree, and those
/// joins.
#[derive(Debug, Clone)]
struct Class {
    lanes: u64,
    pending: Vec<Joined<f64>>,
}

/// A split as one class walks it: what its joins deliver, its operands'
/// entries, and the class's lowest lane's view of it.
type ClassWalk<'a> = (Split, (&'a [DpEntry], &'a [DpEntry]), View);

/// One lane's view of a split, as `[start, end)` ranges of the call's
/// scratch: its outer class's entries (in `outer_order`) and its prices.
/// The inner, a singleton's access paths, is every lane's.
#[derive(Debug, Clone, Copy)]
struct View {
    outer: [usize; 2],
    prices: [usize; 2],
}

impl TopCPolicy {
    /// A policy keeping the `c` cheapest plans per (subset, order class) at
    /// memory value `memory`: [`TopCPolicy::with_lanes`] with one lane.
    /// Requires `c >= 1`.
    pub fn new(memory: f64, c: usize) -> Self {
        Self::with_lanes(&[memory], c)
    }

    /// One search that keeps, per lane, the `c` cheapest plans per
    /// (subset, order class) at that lane's memory value, exactly as a
    /// [`TopCPolicy::new`] search at it would: `finalize` returns each
    /// lane's roots in turn.  Requires `c >= 1` and 1 to [`MAX_LANES`]
    /// memory values.
    pub fn with_lanes(memories: &[f64], c: usize) -> Self {
        assert!(c >= 1, "TopCPolicy requires c >= 1");
        assert!(
            (1..=MAX_LANES).contains(&memories.len()),
            "TopCPolicy runs 1 to {MAX_LANES} lanes"
        );
        TopCPolicy {
            lanes: memories.iter().map(|&m| MemoryCoster::point(m)).collect(),
            c,
            bound: (c as f64 + c as f64 * (c as f64).ln()).ceil() as u64,
            frontier: FrontierStats::default(),
            lane_sets: LaneSets {
                by_plan: Vec::new(),
                all: u64::MAX >> (MAX_LANES - memories.len()),
            },
            classes: Vec::new(),
            spare: Vec::new(),
            outer_order: Vec::new(),
            inner_order: Vec::new(),
            views: Vec::new(),
            prices: Vec::new(),
        }
    }

    /// Whether lanes `a` and `b` see one split alike: the same outer class
    /// and the same join prices, bit for bit.
    fn agree(&self, a: usize, b: usize) -> bool {
        let (va, vb) = (self.views[a], self.views[b]);
        let prices = |[start, end]: [usize; 2]| {
            (self.prices[start..end].iter()).map(|(size, p)| (*size, p.map(f64::to_bits)))
        };
        va.outer == vb.outer && prices(va.prices).eq(prices(vb.prices))
    }

    /// Split each class of the subset in hand into the lanes that agree on
    /// this split ([`TopCPolicy::agree`]): the first such set keeps the
    /// class's pending joins, every other set leaves with a copy.
    fn split_classes(&mut self) {
        if self.classes.is_empty() {
            let pending = self.spare.pop().unwrap_or_default();
            let lanes = self.lane_sets.all;
            self.classes.push(Class { lanes, pending });
        }
        for ci in 0..self.classes.len() {
            let mut rest = self.classes[ci].lanes;
            let mut first = true;
            while rest != 0 {
                let lead = rest.trailing_zeros() as usize;
                let group = (lead..self.lanes.len())
                    .filter(|&lane| rest >> lane & 1 == 1 && self.agree(lead, lane))
                    .fold(0, |g, lane| g | 1 << lane);
                rest &= !group;
                if std::mem::take(&mut first) {
                    self.classes[ci].lanes = group;
                    continue;
                }
                let mut pending = self.spare.pop().unwrap_or_default();
                pending.extend_from_slice(&self.classes[ci].pending);
                self.classes.push(Class {
                    lanes: group,
                    pending,
                });
            }
        }
    }

    /// One class's walk of one split, on its lowest lane's `view`: the
    /// Proposition 3.1 frontier of every (group, method), inserted into
    /// the class's pending joins `into`.  Returns the walk's (group,
    /// method) pairs and the combinations its frontier admits, which each
    /// member lane counts.
    fn walk(
        &self,
        model: &CostModel<'_>,
        plans: &PlanArena,
        (split, (outer, inner), view): ClassWalk<'_>,
        into: &mut Vec<Joined<f64>>,
    ) -> (u64, u64) {
        let range = |[start, end]: [usize; 2]| start..end;
        let outer_order = &self.outer_order[range(view.outer)];
        let inner_order = &self.inner_order;
        let prices = &self.prices[range(view.prices)];
        let c = self.c;
        let key = |i: usize| (outer[i].order.is_required(), outer[i].pages.to_bits());
        // Flattened inner entries: their orders are folded into the join's
        // output order rule, which for inner sides never depends on the
        // inner order, and a singleton's access paths all share its page
        // count.
        let inner_pages = inner[0].pages;
        let (mut groups, mut admitted) = (0, 0);
        // `into` is the run of entries not sorted as required, then the
        // run of those that are: a walk's run is one side of this split,
        // and only a walk in the first moves it.
        let mut others_end = order_run(into, OrderProperty::Unsorted).end;
        for group in outer_order.chunk_by(|&a, &b| key(a) == key(b)) {
            let (outer_order, outer_pages) = (outer[group[0]].order, outer[group[0]].pages);
            // Prop 3.1 frontier: only (i, k) with i·k ≤ c.  Every admitted
            // combination counts, whether or not the early stop reaches it.
            let group_admitted: u64 = (0..inner_order.len())
                .map(|k| (c / (k + 1)).min(group.len()) as u64)
                .sum();
            // Cost term constant within the group, and across groups of
            // one size: priced once per size.
            let (_, costs) = (prices.iter())
                .find(|(size, _)| *size == outer_pages.to_bits())
                .expect("every outer size is priced");
            let pages = split.pages(outer_pages, inner_pages);
            for (method, join_cost) in JoinMethod::ALL.into_iter().zip(*costs) {
                groups += 1;
                admitted += group_admitted;
                let required = split.order(method, outer_order).is_required();
                let mut run = match required {
                    true => others_end..into.len(),
                    false => 0..others_end,
                };
                'inner: for (ki, &ii) in inner_order.iter().enumerate() {
                    let ie = &inner[ii];
                    for (i, &oi) in group.iter().take(c / (ki + 1)).enumerate() {
                        let oe = &outer[oi];
                        let joined = Joined {
                            cost: oe.cost + ie.cost + join_cost,
                            order: split.order(method, oe.order),
                            size: pages,
                            method,
                            outer: oe.plan,
                            inner: ie.plan,
                        };
                        // The exact early stop of the module docs.
                        if insert_top_c(model, plans, into, &mut run, c, joined) {
                            if i == 0 {
                                break 'inner;
                            }
                            break;
                        }
                    }
                }
                if !required {
                    others_end = run.end;
                }
            }
        }
        (groups, admitted)
    }
}

/// Whether two lists of pending joins are one list: the same plans, in
/// order, with the same cost, order and size bits.
fn same_joins(plans: &PlanArena, a: &[Joined<f64>], b: &[Joined<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (x.cost.to_bits(), x.order, x.size.to_bits(), x.method)
                == (y.cost.to_bits(), y.order, y.size.to_bits(), y.method)
                && same_plan(plans, x.outer, y.outer)
                && same_plan(plans, x.inner, y.inner)
        })
}

/// Whether two steps root one plan.
fn same_plan(plans: &PlanArena, a: PlanId, b: PlanId) -> bool {
    a == b
        || match (plans.step(a), plans.step(b)) {
            (Step::Join(ma, oa, ia), Step::Join(mb, ob, ib)) => {
                ma == mb && same_plan(plans, oa, ob) && same_plan(plans, ia, ib)
            }
            (Step::Sort(ia, ka), Step::Sort(ib, kb)) => ka == kb && same_plan(plans, ia, ib),
            (sa, sb) => sa == sb,
        }
}

/// Where `order`'s class's run lies in `entries`, a list sorted by class
/// (as [`insert_top_c`] keeps it): `lo..hi`, empty at its insertion point
/// when no entry has that class.  The classes are those of
/// [`super::policy::covers`]: sorted as required, and the rest.
pub fn order_run<T: SearchEntry>(entries: &[T], order: OrderProperty) -> Range<usize> {
    let required = order.is_required();
    let lo = entries.partition_point(|f| required && !f.order().is_required());
    lo..lo + entries[lo..].partition_point(|f| f.order().is_required() == required)
}

/// Keep the `c` best entries of `e`'s order class in `entries` under
/// [`shape_rank`] (rename-equivariant, so Algorithm B can share the
/// canonical-shape plan cache).  `entries` — built entries, or a subset's
/// pending joins — stays sorted by `(class, cost, shape)`: each
/// class's list is one contiguous run whose last element is its worst,
/// and [`TopCPolicy::combine`] reads a node's groups off that order.
/// `run` is `e`'s class's run ([`order_run`]); the insert keeps it
/// current, so a caller inserting many entries of one class finds it
/// once.  A full run rejects a costlier candidate with one compare against
/// its worst and returns `true`; otherwise the candidate goes in after
/// every entry it does not outrank (an equal-rank newcomer loses) and a
/// full run drops its last element — the latest-kept worst — and the
/// answer is `false`.
/// Only `true` licenses [`TopCPolicy::combine`]'s early stop: a loss on a
/// cost tie does not, as rounding can give a later combination that cost.
pub fn insert_top_c<T: SearchEntry>(
    model: &CostModel<'_>,
    plans: &PlanArena,
    entries: &mut Vec<T>,
    run: &mut Range<usize>,
    c: usize,
    e: T,
) -> bool {
    debug_assert_eq!(*run, order_run(entries, e.order()), "a stale run");
    let (lo, hi) = (run.start, run.end);
    let full = hi - lo >= c;
    if full && entries[lo..hi].last().is_some_and(|w| w.cost() < e.cost()) {
        return true;
    }
    let at = lo
        + entries[lo..hi].partition_point(|f| shape_rank(model, plans, f, &e) != Ordering::Greater);
    if full {
        if at == hi {
            return false;
        }
        entries.remove(hi - 1);
    } else {
        run.end += 1;
    }
    entries.insert(at, e);
    false
}

impl CandidatePolicy for TopCPolicy {
    type Entry = DpEntry;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        idx: usize,
    ) -> Vec<DpEntry> {
        // A search starts with its first table: no lane set outlives it.
        if idx == 0 {
            self.lane_sets.by_plan.clear();
        }
        let alternatives = access_alternatives(model, plans, idx);
        // Every lane prices its access paths, as its own search would;
        // they read no memory, so the lanes share one class of them.
        for _ in 1..self.lanes.len() {
            for ((_, _, cost), e) in model.accesses(idx).zip(&alternatives) {
                debug_assert_eq!(
                    cost.to_bits(),
                    e.cost.to_bits(),
                    "an access path reads no memory"
                );
            }
        }
        let mut entries = Vec::new();
        for e in alternatives {
            let mut run = order_run(&entries, e.order);
            insert_top_c(model, plans, &mut entries, &mut run, self.c, e);
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
        assert!(
            ctx.right.len() == 1,
            "top-c runs left-deep splits only: Proposition 3.1's frontier needs one inner size"
        );
        let split = model.split(ctx.left, ctx.right);
        // Group each outer class by (order class, pages).  A class is a
        // top-c node, sorted by (class, cost, shape), so a stable sort on
        // the group key leaves every group cost-sorted with exact cost ties
        // shape-broken — the Prop 3.1 frontier window selects the same
        // plans under any table renaming — and groups come out in key
        // order, deterministic across runs.  Pages are part of the key
        // because the one-page clamp can give same-subset entries built
        // through different splits different sizes — the paper's
        // "identical physical properties" premise holds only within a
        // same-size group, and grouping by size keeps the shared
        // join-cost-term evaluation exact rather than approximate.
        let key = |i: usize| (outer[i].order.is_required(), outer[i].pages.to_bits());
        self.outer_order.clear();
        self.outer_order.extend(0..outer.len());
        for (_, [start, end]) in self.lane_sets.classes(outer) {
            self.outer_order[start..end].sort_by_key(|&i| key(i));
        }
        // The inner is a singleton's access paths, every lane's: one list,
        // walked cheapest first.
        self.inner_order.clear();
        self.inner_order.extend(0..inner.len());
        (self.inner_order).sort_by(|&a, &b| shape_rank(model, plans, &inner[a], &inner[b]));
        // Every lane prices its own split: each distinct page count of its
        // outer class against the inner's, once per call.
        self.views.clear();
        self.prices.clear();
        let inner_pages = inner[0].pages;
        for (lane, coster) in self.lanes.iter().enumerate() {
            let mut classes = self.lane_sets.classes(outer);
            let class = classes.find(|(lanes, _)| lanes >> lane & 1 == 1);
            let outer_run = class.expect("a populated operand holds every lane").1;
            let start = self.prices.len();
            for &i in &self.outer_order[outer_run[0]..outer_run[1]] {
                let size = outer[i].pages.to_bits();
                if self.prices[start..]
                    .iter()
                    .all(|(priced, _)| *priced != size)
                {
                    let costs = coster.join_costs(model, ctx, outer[i].pages, inner_pages);
                    self.prices.push((size, costs));
                }
            }
            self.views.push(View {
                outer: outer_run,
                prices: [start, self.prices.len()],
            });
        }
        self.split_classes();
        // Each class walks once, on its lowest lane's view, which is every
        // member's; each member counts the walk's frontier.
        let mut classes = take(&mut self.classes);
        for class in &mut classes {
            let view = self.views[class.lanes.trailing_zeros() as usize];
            let walk = (split, (outer, inner), view);
            let (groups, admitted) = self.walk(model, plans, walk, &mut class.pending);
            let members = u64::from(class.lanes.count_ones());
            let f = &mut self.frontier;
            f.groups += groups * members;
            let bound = self.bound.saturating_mul(groups * members);
            f.bound_total = f.bound_total.saturating_add(bound);
            f.combinations_examined += admitted * members;
            stats.candidates += admitted * members;
        }
        self.classes = classes;
    }

    /// Build each class's pending joins, recording the class's lanes on
    /// its entries.  Classes whose joins agree, plan for plan and bit for
    /// bit, are built once, as one class: their lanes agree on every split
    /// above too.
    fn build(&mut self, plans: &mut PlanArena, into: &mut Vec<DpEntry>) {
        let mut classes = take(&mut self.classes);
        for ci in 0..classes.len() {
            let (kept, rest) = classes.split_at_mut(ci + 1);
            let class = &mut kept[ci];
            for other in rest.iter_mut().filter(|o| o.lanes != 0) {
                if class.lanes != 0 && same_joins(plans, &class.pending, &other.pending) {
                    class.lanes |= take(&mut other.lanes);
                }
            }
        }
        for mut class in classes.drain(..) {
            if class.lanes == 0 {
                class.pending.clear();
                self.spare.push(class.pending);
                continue;
            }
            let start = into.len();
            build_entries(plans, &mut class.pending, into);
            for e in &into[start..] {
                self.lane_sets.record(e, class.lanes);
            }
            self.spare.push(class.pending);
        }
        self.classes = classes;
    }

    /// Each lane's roots in turn: its class's entries finalized at its
    /// memory value, ranked, its `c` best.
    fn finalize(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        entries: Vec<DpEntry>,
        stats: &mut SearchStats,
    ) -> Vec<DpEntry> {
        // A subset is populated when some split's halves are, at every
        // lane alike: the engine counted each lane's nodes once.
        stats.nodes *= self.lanes.len();
        let mut out = Vec::new();
        for (lane, coster) in self.lanes.iter().enumerate() {
            let in_lane = |e: &&DpEntry| self.lane_sets.of(e) >> lane & 1 == 1;
            let mine = entries.iter().filter(in_lane).copied().collect();
            let mut roots = finalize_with_coster(model, plans, mine, coster);
            sort_roots(model, plans, &mut roots);
            roots.truncate(self.c);
            out.extend(roots);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{run_search_with, PlanShape};

    /// A bushy split hands top-c a multi-table inner, whose entries may
    /// differ in size: the policy refuses it rather than price them all
    /// at one.
    #[test]
    #[should_panic(expected = "Proposition 3.1")]
    fn top_c_refuses_a_bushy_split() {
        let (cat, q) = crate::fixtures::three_chain();
        let model = CostModel::new(&cat, &q);
        let mut policy = TopCPolicy::new(500.0, 3);
        let _ = run_search_with(&model, PlanShape::Bushy, &mut policy);
    }
}
