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
//! Only the required order is interesting ([`lec_plan::order`]), so a node
//! keeps `c` plans sorted as required and `c` others in one run ranked by
//! (cost, shape), and groups its outer list on the same two classes.  Within one `combine` call the inner size is fixed, so the
//! join methods are priced once per distinct outer page count (groups of
//! both classes share it), and the call finds where the pending buffer's
//! two runs meet once: each (group, method) walk takes its class's run —
//! an outer order's class decides its page nested-loop output's — from
//! that boundary, hands it to every insert, and moves the boundary by what
//! the first run gained.

use super::arena::PlanArena;
use super::coster::{MemoryCoster, PhaseCoster};
use super::keep_best::{build_entries, finalize_with_coster, sort_roots, DpEntry};
use super::policy::{
    access_alternatives, join_output_order, priced, shape_rank, CandidatePolicy, JoinContext,
    Joined, RootContext, SearchEntry,
};
use super::SearchStats;
use lec_cost::CostModel;
use lec_plan::{JoinMethod, OrderProperty};
use std::cmp::Ordering;
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

/// The top-`c`-per-(subset, order class) policy at one fixed memory value.
#[derive(Debug, Clone)]
pub struct TopCPolicy {
    coster: MemoryCoster,
    c: usize,
    bound: u64,
    /// Frontier counters accumulated across the run.
    pub frontier: FrontierStats,
    /// One `combine` call's scratch, cleared per call: outer page count
    /// bits -> (method costs, result pages), and the operand lists'
    /// indices in walk order.
    sizes: Vec<(u64, ([f64; 4], f64))>,
    outer_order: Vec<usize>,
    inner_order: Vec<usize>,
}

impl TopCPolicy {
    /// A policy keeping the `c` cheapest plans per (subset, order class) at
    /// memory value `memory`.  Requires `c >= 1`.
    pub fn new(memory: f64, c: usize) -> Self {
        assert!(c >= 1, "TopCPolicy requires c >= 1");
        TopCPolicy {
            coster: MemoryCoster::point(memory),
            c,
            bound: (c as f64 + c as f64 * (c as f64).ln()).ceil() as u64,
            frontier: FrontierStats::default(),
            sizes: Vec::new(),
            outer_order: Vec::new(),
            inner_order: Vec::new(),
        }
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
    type Size = f64;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        idx: usize,
        _stats: &mut SearchStats,
    ) -> Vec<DpEntry> {
        let mut entries = Vec::new();
        for e in access_alternatives(model, plans, idx) {
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
        into: &mut Vec<Joined<f64>>,
        stats: &mut SearchStats,
    ) {
        let (sel, sm_order) = model.crossing(ctx.left, ctx.right);
        // Group the outer list by (order class, pages).  `outer` is a top-c
        // node, sorted by (class, cost, shape), so a stable sort on the
        // group key leaves every group cost-sorted with exact cost ties
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
        self.outer_order.sort_by_key(|&i| key(i));
        // Flatten inner entries (access paths) into one sorted list; their
        // orders are folded into the join's output order rule, which for
        // inner sides never depends on the inner order, and a singleton's
        // access paths all share the same page count.
        self.inner_order.clear();
        self.inner_order.extend(0..inner.len());
        self.inner_order
            .sort_by(|&a, &b| shape_rank(model, plans, &inner[a], &inner[b]));
        let inner_pages = self.inner_order.first().map_or(0.0, |&i| inner[i].pages);

        self.sizes.clear();
        // `into` is the run of entries not sorted as required, then the
        // run of those that are: a walk's run is one side of this split,
        // and only a walk in the first moves it.
        let mut others_end = order_run(into, OrderProperty::Unsorted).end;
        for group in self.outer_order.chunk_by(|&a, &b| key(a) == key(b)) {
            let (outer_order, outer_pages) = (outer[group[0]].order, outer[group[0]].pages);
            // Prop 3.1 frontier: only (i, k) with i·k ≤ c.  Every admitted
            // combination counts, whether or not the early stop reaches it.
            let admitted: u64 = (0..inner.len())
                .map(|k| (self.c / (k + 1)).min(group.len()) as u64)
                .sum();
            // Cost term constant within the group, and across groups of
            // one size: evaluate once per size.
            let (costs, pages) = priced(&mut self.sizes, outer_pages.to_bits(), || {
                let cost = |method| {
                    self.coster
                        .join_cost(model, ctx, method, outer_pages, inner_pages)
                };
                let pages = model.join_output_pages(outer_pages, inner_pages, sel);
                (JoinMethod::ALL.map(cost), pages)
            });
            for (method, join_cost) in JoinMethod::ALL.into_iter().zip(costs) {
                self.frontier.groups += 1;
                self.frontier.bound_total = self.frontier.bound_total.saturating_add(self.bound);
                self.frontier.combinations_examined += admitted;
                stats.candidates += admitted;
                let required = join_output_order(sm_order, outer_order, method).is_required();
                let mut run = match required {
                    true => others_end..into.len(),
                    false => 0..others_end,
                };
                'inner: for (ki, &ii) in self.inner_order.iter().enumerate() {
                    let ie = &inner[ii];
                    for (i, &oi) in group.iter().take(self.c / (ki + 1)).enumerate() {
                        let oe = &outer[oi];
                        let joined = Joined {
                            cost: oe.cost + ie.cost + join_cost,
                            order: join_output_order(sm_order, oe.order, method),
                            size: pages,
                            method,
                            outer: oe.plan,
                            inner: ie.plan,
                        };
                        // The exact early stop of the module docs.
                        if insert_top_c(model, plans, into, &mut run, self.c, joined) {
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
        let mut out = finalize_with_coster(model, plans, ctx, entries, &self.coster);
        sort_roots(model, plans, &mut out);
        out.truncate(self.c);
        out
    }
}
