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

use super::coster::{MemoryCoster, PhaseCoster};
use super::keep_best::DpEntry;
use super::policy::{
    access_alternatives, join_output_order, plan_shape_cmp, shared_join, sort_merge_order,
    CandidatePolicy, JoinContext, RootContext,
};
use super::SearchStats;
use lec_cost::CostModel;
use lec_plan::{JoinMethod, OrderProperty};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Counters proving Proposition 3.1 empirically.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrontierStats {
    /// Combinations actually examined across all (node, split, method)
    /// groups.
    pub combinations_examined: u64,
    /// Sum of the paper's `c + c·log c` bound over the same groups.
    pub bound_total: u64,
    /// Number of combination groups.
    pub groups: u64,
}

/// The top-`c`-per-(subset, order) policy at one fixed memory value.
#[derive(Debug, Clone)]
pub struct TopCPolicy {
    coster: MemoryCoster,
    c: usize,
    bound: u64,
    /// Frontier counters accumulated across the run.
    pub frontier: FrontierStats,
}

impl TopCPolicy {
    /// A policy keeping the `c` cheapest plans per (subset, order) at
    /// memory value `memory`.  Requires `c >= 1`.
    pub fn new(memory: f64, c: usize) -> Self {
        assert!(c >= 1, "TopCPolicy requires c >= 1");
        TopCPolicy {
            coster: MemoryCoster::point(memory),
            c,
            bound: (c as f64 + c as f64 * (c as f64).ln()).ceil() as u64,
            frontier: FrontierStats::default(),
        }
    }

    /// Keep the `c` cheapest entries of `e.order` under the
    /// *rename-equivariant* total order `(cost, plan shape)` — exact cost
    /// ties resolve by [`plan_shape_cmp`] instead of arrival order, so a
    /// table renaming of the query truncates the frontier to the same
    /// plans (up to relabeling).  This is what lets Algorithm B share the
    /// serving layer's canonical-shape cache; only genuinely
    /// indistinguishable twin tables (equal shape fingerprints, refused by
    /// the canonicalizer's automorphism check) fall back to first-wins.
    fn insert(&self, model: &CostModel<'_>, entries: &mut Vec<DpEntry>, e: DpEntry) {
        let rank = |a: &DpEntry, b: &DpEntry| {
            a.cost
                .total_cmp(&b.cost)
                .then_with(|| plan_shape_cmp(model, &a.plan, &b.plan))
        };
        let mut same = 0usize;
        let mut worst: Option<usize> = None;
        for (i, f) in entries.iter().enumerate() {
            if f.order != e.order {
                continue;
            }
            same += 1;
            if worst.is_none_or(|w| rank(&entries[w], f) != Ordering::Greater) {
                worst = Some(i);
            }
        }
        if same >= self.c {
            let w = worst.expect("same >= c >= 1 implies a worst entry");
            if rank(&e, &entries[w]) != Ordering::Less {
                return;
            }
            entries.remove(w);
        }
        entries.push(e);
    }
}

impl CandidatePolicy for TopCPolicy {
    type Entry = DpEntry;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        idx: usize,
        _stats: &mut SearchStats,
    ) -> Vec<DpEntry> {
        let mut entries = Vec::new();
        for (plan, cost, order, pages) in access_alternatives(model, idx) {
            self.insert(
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
        // Group the outer list by (order, pages), cost-sorted within each
        // group; the BTreeMap makes tie-breaking among equal-cost
        // candidates deterministic across runs.  Pages are part of the key
        // because the one-page clamp can give same-subset entries built
        // through different splits different sizes — the paper's
        // "identical physical properties" premise holds only within a
        // same-size group, and grouping by size keeps the shared
        // join-cost-term evaluation exact rather than approximate.
        let mut outer_groups: BTreeMap<(OrderProperty, u64), Vec<&DpEntry>> = BTreeMap::new();
        for e in outer {
            outer_groups
                .entry((e.order, e.pages.to_bits()))
                .or_default()
                .push(e);
        }
        // Cost-sort within each group, shape-breaking exact ties so the
        // Prop 3.1 frontier window selects the same plans under any table
        // renaming.
        for group in outer_groups.values_mut() {
            group.sort_by(|a, b| {
                a.cost
                    .total_cmp(&b.cost)
                    .then_with(|| plan_shape_cmp(model, &a.plan, &b.plan))
            });
        }
        // Flatten inner entries (access paths) into one sorted list; their
        // orders are folded into the join's output order rule, which for
        // inner sides never depends on the inner order, and a singleton's
        // access paths all share the same page count.
        let mut inner_list: Vec<&DpEntry> = inner.iter().collect();
        inner_list.sort_by(|a, b| {
            a.cost
                .total_cmp(&b.cost)
                .then_with(|| plan_shape_cmp(model, &a.plan, &b.plan))
        });

        for ((outer_order, outer_pages_bits), outer_list) in &outer_groups {
            for method in JoinMethod::ALL {
                self.frontier.groups += 1;
                self.frontier.bound_total += self.bound;
                // Cost term constant within the group: evaluate once.
                let outer_pages = f64::from_bits(*outer_pages_bits);
                let inner_pages = inner_list.first().map(|e| e.pages).unwrap_or(0.0);
                let join_cost = self
                    .coster
                    .join_cost(model, ctx, method, outer_pages, inner_pages);
                let order = join_output_order(sm_order, *outer_order, method);
                let pages = model.join_output_pages(outer_pages, inner_pages, sel);
                // Prop 3.1 frontier: only (i, k) with i·k ≤ c.
                for (ki, ie) in inner_list.iter().enumerate() {
                    let i_max = self.c / (ki + 1);
                    if i_max == 0 {
                        break;
                    }
                    for oe in outer_list.iter().take(i_max) {
                        self.frontier.combinations_examined += 1;
                        stats.candidates += 1;
                        self.insert(
                            model,
                            into,
                            DpEntry {
                                plan: shared_join(method, &oe.plan, &ie.plan),
                                cost: oe.cost + ie.cost + join_cost,
                                pages,
                                order,
                            },
                        );
                    }
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
        let mut out = super::keep_best::finalize_with_coster(model, ctx, entries, &self.coster);
        out.sort_by(|a, b| {
            a.cost
                .total_cmp(&b.cost)
                .then_with(|| plan_shape_cmp(model, &a.plan, &b.plan))
        });
        out.truncate(self.c);
        out
    }
}
