//! The multi-parameter policy of Algorithm D (§3.6, Figure 1).
//!
//! Every DP node carries exactly the four distributions of Figure 1:
//! `Pr(M)` (global), `Pr(|B_j|)` (the node's composite input size),
//! `Pr(|A_j|)` (the joined table's size after selection) and `Pr(σ)` (the
//! connecting predicates' selectivity).  Expected join cost uses the
//! linear-time algorithms of §3.6.1/§3.6.2 where the formula is separable,
//! and the generic triple sum otherwise; the result-size distribution is
//! the independent product `|B_j|·|A_j|·σ` (§3.6: "the probability that the
//! join has size abσ"), kept small by the §3.6.3 rebucketing — either
//! rebucket-after-product, or the paper's ∛b-inputs scheme.
//!
//! A size distribution carries its prefix tables, built once with the
//! entry (a table's access entries share one set), and a join's four
//! method costs depend only on its operands' sizes: so `combine` forms
//! the product and prices the four methods once per distinct (outer,
//! inner) size pair, and every entry pair of that pair reads them; as in
//! [`super::keep_best`], it inserts only the candidates no cheaper one of
//! the split covers.

use super::arena::{PlanArena, PlanId};
use super::keep_best::{for_each_cheapest, sort_where_required};
use super::policy::{
    access_alternatives, insert_entry_shaped, join_output_order, priced, CandidatePolicy,
    JoinContext, Joined, RootContext, SearchEntry,
};
use super::SearchStats;
use lec_cost::{CostModel, DistTables};
use lec_plan::{JoinMethod, OrderProperty, Step};
use lec_prob::{Distribution, Rebucket};
use std::cmp::Ordering;
use std::sync::Arc;

/// Configuration of Algorithm D's distribution bookkeeping.
#[derive(Debug, Clone)]
pub struct AlgDConfig {
    /// Maximum buckets kept for any node's size distribution (the paper's
    /// uniform `b`).
    pub max_buckets: usize,
    /// Rebucketing strategy.
    pub rebucket: Rebucket,
    /// When true, rebucket *inputs* of the size product to `∛b` buckets so
    /// the product itself lands near `b` (§3.6.3's scheme); when false,
    /// form the exact product and rebucket the result to `b`.
    pub cube_root_inputs: bool,
}

impl Default for AlgDConfig {
    fn default() -> Self {
        AlgDConfig {
            max_buckets: 16,
            rebucket: Rebucket::EqualDepth,
            cube_root_inputs: false,
        }
    }
}

/// A DP entry whose size is a full distribution (Figure 1's per-node
/// bookkeeping).
#[derive(Debug, Clone)]
pub struct DistEntry {
    /// The plan's step, an input of every entry built on top of it.
    pub plan: PlanId,
    /// Its expected cost over memory, sizes and selectivities.
    pub cost: f64,
    /// Distribution of the output size in pages, with its prefix tables;
    /// shared by the entries built with the same size.
    pub pages: Arc<DistTables>,
    /// `pages`' [`lec_cost::dist_fingerprint`], folded once when the entry
    /// is built: it keys the size pairs of every combine the entry is an
    /// operand of.
    pub pages_fp: u64,
    /// Output order property.
    pub order: OrderProperty,
}

impl SearchEntry for DistEntry {
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

/// (outer fingerprint, inner fingerprint) -> (size, method costs).
type PricedPairs = Vec<((u64, u64), (usize, [f64; 4]))>;

/// The Figure 1 multi-parameter policy.
#[derive(Debug, Clone)]
pub struct MultiParamPolicy {
    config: AlgDConfig,
    memory: DistTables,
    /// This subset's result sizes, one per distinct size pair of each
    /// combine, indexed by [`Joined::size`].
    sizes: Vec<Distribution>,
    /// The size pairs one `combine` call has priced, cleared per call.
    pairs: PricedPairs,
    /// One `combine` call's candidate costs and sizes per entry pair.
    sums: Vec<([f64; 4], usize)>,
    /// `build`'s per-size slots: each size's tables and fingerprint, built
    /// for the first survivor that has it.
    slots: Vec<Option<(Arc<DistTables>, u64)>>,
    /// Largest size-distribution support seen before rebucketing.
    pub max_product_support: usize,
}

impl MultiParamPolicy {
    /// A policy costing against `memory`.  Requires `config.max_buckets
    /// >= 1`.
    pub fn new(memory: &Distribution, config: AlgDConfig) -> Self {
        assert!(
            config.max_buckets >= 1,
            "MultiParamPolicy requires max_buckets >= 1"
        );
        MultiParamPolicy {
            memory: DistTables::new(memory.clone()),
            config,
            sizes: Vec::new(),
            pairs: Vec::new(),
            sums: Vec::new(),
            slots: Vec::new(),
            max_product_support: 0,
        }
    }

    /// The §3.6.3 result-size distribution `|B_j| · |A_j| · σ`.
    fn product_size(
        &mut self,
        outer: &Distribution,
        inner: &Distribution,
        sel: &Distribution,
    ) -> Distribution {
        let b = self.config.max_buckets;
        let strategy = self.config.rebucket;
        let product = if self.config.cube_root_inputs {
            // Rebucket each factor to ∛b so the product has ≈ b buckets.
            let cube = ((b as f64).cbrt().ceil() as usize).max(1);
            rebucket_to(outer, cube, strategy)
                .product(&rebucket_to(inner, cube, strategy))
                .product(&rebucket_to(sel, cube, strategy))
        } else {
            outer.product(inner).product(sel)
        };
        self.max_product_support = self.max_product_support.max(product.len());
        let clamped = product.map(|v| v.max(1.0));
        rebucket_to(&clamped, b, strategy)
    }
}

fn rebucket_to(d: &Distribution, n: usize, strategy: Rebucket) -> Distribution {
    d.rebucket(n.max(1), strategy)
        .expect("rebucket with n >= 1 cannot fail")
}

impl CandidatePolicy for MultiParamPolicy {
    type Entry = DistEntry;
    type Size = usize;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        idx: usize,
        _stats: &mut SearchStats,
    ) -> Vec<DistEntry> {
        let pages = rebucket_to(
            &model.base_pages_dist(idx),
            self.config.max_buckets,
            self.config.rebucket,
        );
        let pages_fp = lec_cost::dist_fingerprint(&pages);
        let pages = Arc::new(DistTables::new(pages));
        let mut entries = Vec::new();
        for e in access_alternatives(model, plans, idx) {
            let e = DistEntry {
                plan: e.plan,
                cost: e.cost,
                pages: Arc::clone(&pages),
                pages_fp,
                order: e.order,
            };
            insert_entry_shaped(model, plans, &mut entries, e);
        }
        entries
    }

    fn combine(
        &mut self,
        model: &CostModel<'_>,
        plans: &PlanArena,
        ctx: &JoinContext,
        outer: &[DistEntry],
        inner: &[DistEntry],
        into: &mut Vec<Joined<usize>>,
        stats: &mut SearchStats,
    ) {
        let sel_dist = model.join_selectivity_dist_sets(ctx.left, ctx.right);
        let sm_order = model.sort_merge_order(ctx.left, ctx.right);
        let mut pairs = std::mem::take(&mut self.pairs);
        pairs.clear();
        self.sums.clear();
        for oe in outer {
            for ie in inner {
                let (size, costs) = priced(&mut pairs, (oe.pages_fp, ie.pages_fp), || {
                    let result = self.product_size(&oe.pages.dist, &ie.pages.dist, &sel_dist);
                    self.sizes.push(result);
                    let costs = model.expected_join_costs_for(&oe.pages, &ie.pages, &self.memory);
                    (self.sizes.len() - 1, costs)
                });
                stats.candidates += JoinMethod::ALL.len() as u64;
                self.sums
                    .push((costs.map(|join_ec| oe.cost + ie.cost + join_ec), size));
            }
        }
        self.pairs = pairs;
        let order = |i: usize, method| join_output_order(sm_order, outer[i].order, method);
        for_each_cheapest(
            &self.sums,
            inner.len(),
            order,
            |i, j, method, cost, order, size| {
                let (oe, ie) = (&outer[i], &inner[j]);
                let joined = Joined {
                    cost,
                    order,
                    size,
                    method,
                    outer: oe.plan,
                    inner: ie.plan,
                };
                insert_entry_shaped(model, plans, into, joined);
            },
        );
    }

    /// Only survivors fingerprint a size distribution and build its
    /// tables, once per size whichever survivors share it.
    fn build(
        &mut self,
        plans: &mut PlanArena,
        pending: &mut Vec<Joined<usize>>,
        into: &mut Vec<DistEntry>,
    ) {
        self.slots.clear();
        self.slots.resize(self.sizes.len(), None);
        let (sizes, slots) = (&self.sizes, &mut self.slots);
        into.extend(pending.drain(..).map(|j| {
            let (pages, pages_fp) = slots[j.size].get_or_insert_with(|| {
                let size = &sizes[j.size];
                let fp = lec_cost::dist_fingerprint(size);
                (Arc::new(DistTables::new(size.clone())), fp)
            });
            DistEntry {
                plan: plans.push(Step::Join(j.method, j.outer, j.inner)),
                cost: j.cost,
                pages: Arc::clone(pages),
                pages_fp: *pages_fp,
                order: j.order,
            }
        }));
        self.sizes.clear();
    }

    fn finalize(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        _ctx: &RootContext,
        entries: Vec<DistEntry>,
        _stats: &mut SearchStats,
    ) -> Vec<DistEntry> {
        let m_tables = &self.memory.tables;
        let mut roots = sort_where_required(model, entries, |e, key| DistEntry {
            cost: e.cost + model.expected_sort_cost_for(&e.pages.dist, m_tables),
            plan: plans.push(Step::Sort(e.plan, key)),
            order: OrderProperty::Required,
            ..e
        });
        super::keep_best::sort_roots(model, plans, &mut roots);
        roots
    }
}
