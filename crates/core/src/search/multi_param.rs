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
//! A join's four method costs and its result size depend only on its
//! operands' sizes, so `combine` prices each distinct (outer, inner) size
//! pair once, and every entry pair of that pair reads the prices; as in
//! [`super::keep_best`], it inserts only the candidates no cheaper one of
//! the split covers.  What a size pair costs is only Figure 1's
//! arithmetic; everything that belongs to a distribution or to the search
//! is done once:
//!
//! * **The size chain runs in scratch.**  Product, product, one-page
//!   clamp and rebucket each run [`lec_prob::normalize_pairs`] — the
//!   normalization behind every `Distribution` constructor, so the bits
//!   are the allocating chain's — on the policy's three pair buffers; the
//!   result is appended to the subset's one size store, and only a
//!   survivor's size becomes tables.
//! * **`Pr(σ)` is built once per search per set of crossing predicates.**
//!   The predicates crossing `(left, right)` are those joining `right` to
//!   `left ∩ frontier(right)`, so that pair keys the memo
//!   (`Selectivities`), for bushy splits as for left-deep ones.
//! * **Roots once per distribution.**  A size's [`DistTables`] hold its
//!   prefix tables and every support value's `√` and `∛`, computed once,
//!   which the sort-merge, Grace and sort expectations read
//!   ([`lec_cost::expected`]).
//! * **A survivor's tables are one allocation**: one shared block,
//!   written through the policy's scratch, shared by the survivors with
//!   that size and by a table's access entries.

use super::arena::{PlanArena, PlanId};
use super::keep_best::sort_where_required;
use super::policy::{
    access_alternatives, insert_cheapest, insert_entry_shaped, priced, CandidatePolicy,
    JoinContext, Joined, SearchEntry,
};
use super::SearchStats;
use lec_cost::formulas::MIN_PAGES;
use lec_cost::{CostModel, DistTables, Split};
use lec_plan::{JoinMethod, OrderProperty, Step, TableSet};
use lec_prob::{normalize_pairs, product_pairs, rebucket_pairs, Distribution, Rebucket};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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
    /// Distribution of the output size in pages, with its prefix tables
    /// and roots; shared by the entries built with the same size.
    pub pages: DistTables,
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

/// `(value, probability)` buckets.
type Buckets = Vec<(f64, f64)>;

/// Folds a memo key's two set words, then avalanches: every bit of
/// either set reaches the bits a map probes with.
#[derive(Debug, Default)]
struct SplitHasher(u64);

impl Hasher for SplitHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("a split key writes its two sets' words");
    }
    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.rotate_left(32) ^ word;
    }
    fn finish(&self) -> u64 {
        lec_cost::avalanche(self.0)
    }
}

/// Figure 1's `Pr(σ)` of a search's splits, built once for each set of
/// crossing predicates.  The predicates crossing `(left, right)` are the
/// ones joining `right` to `left ∩ frontier(right)`, so that pair is the
/// key — a left-deep split's singleton inner and a bushy split's
/// multi-table one alike — and the entry it indexes holds the product's
/// run of buckets in one store, with the key's [`CostModel::split`].
#[derive(Debug, Clone, Default)]
struct Selectivities {
    index: HashMap<(TableSet, TableSet), usize, BuildHasherDefault<SplitHasher>>,
    entries: Vec<([u32; 2], Split)>,
    buckets: Buckets,
    scratch: [Buckets; 2],
}

impl Selectivities {
    /// Forget the search before.
    fn clear(&mut self) {
        self.index.clear();
        self.entries.clear();
        self.buckets.clear();
    }

    /// The entry of the split `(left, right)`, built on its key's first
    /// split as [`CostModel::join_selectivity_dist_sets`] builds it: the
    /// point 1 times each crossing predicate's distribution in turn.
    fn entry(&mut self, model: &CostModel<'_>, left: TableSet, right: TableSet) -> usize {
        let key = (right, left.intersect(model.frontier(right)));
        if let Some(&i) = self.index.get(&key) {
            return i;
        }
        let [product, next] = &mut self.scratch;
        product.clear();
        product.push((1.0, 1.0));
        for sel in model.crossing_selectivities(left, right) {
            next.clear();
            product_pairs(product.iter().copied(), sel.iter(), next);
            normalize_pairs(next).expect("product of valid distributions is valid");
            std::mem::swap(product, next);
        }
        let start = self.buckets.len();
        self.buckets.extend_from_slice(product);
        let run = [start, self.buckets.len()].map(|i| u32::try_from(i).expect("< 2^32 buckets"));
        self.entries.push((run, model.split(left, right)));
        self.index.insert(key, self.entries.len() - 1);
        self.entries.len() - 1
    }

    /// Entry `i`'s buckets.
    fn buckets(&self, i: usize) -> &[(f64, f64)] {
        let [start, end] = self.entries[i].0.map(|x| x as usize);
        &self.buckets[start..end]
    }

    /// Entry `i`'s split.
    fn split(&self, i: usize) -> Split {
        self.entries[i].1
    }
}

/// The §3.6.3 result-size distribution `|B_j| · |A_j| · σ`, each link
/// normalized in place in the three scratch buffers; returns the buffer
/// holding it, and raises `max_support` to the product's support before
/// the clamp and rebucket.
fn size_chain<'s>(
    config: &AlgDConfig,
    outer: &DistTables,
    inner: &DistTables,
    sel: &[(f64, f64)],
    [x, y, z]: &'s mut [Buckets; 3],
    max_support: &mut usize,
) -> &'s [(f64, f64)] {
    let (b, strategy) = (config.max_buckets.max(1), config.rebucket);
    let valid = "the chain of valid distributions is valid";
    x.clear();
    y.clear();
    if config.cube_root_inputs {
        // Rebucket each factor to ∛b so the product has ≈ b buckets.
        let cube = ((b as f64).cbrt().ceil() as usize).max(1);
        rebucket_pairs(outer.iter(), cube, strategy, y).expect(valid);
        rebucket_pairs(inner.iter(), cube, strategy, z).expect(valid);
        product_pairs(y.iter().copied(), z.iter().copied(), x);
        normalize_pairs(x).expect(valid);
        rebucket_pairs(sel.iter().copied(), cube, strategy, z).expect(valid);
        y.clear();
        product_pairs(x.iter().copied(), z.iter().copied(), y);
    } else {
        product_pairs(outer.iter(), inner.iter(), x);
        normalize_pairs(x).expect(valid);
        product_pairs(x.iter().copied(), sel.iter().copied(), y);
    }
    normalize_pairs(y).expect(valid);
    *max_support = (*max_support).max(y.len());
    for (v, _) in y.iter_mut() {
        *v = v.max(MIN_PAGES);
    }
    normalize_pairs(y).expect(valid);
    rebucket_pairs(y.iter().copied(), b, strategy, x).expect(valid);
    x
}

/// The Figure 1 multi-parameter policy.
#[derive(Debug, Clone)]
pub struct MultiParamPolicy {
    config: AlgDConfig,
    memory: DistTables,
    /// The search's crossing-selectivity distributions.
    selectivities: Selectivities,
    /// The size chain's scratch buffers.
    chain: [Buckets; 3],
    /// This subset's result sizes, one run of buckets per distinct size
    /// pair of each combine: `sizes[runs[i]]` is [`Joined::size`] `i`'s.
    sizes: Buckets,
    runs: Vec<[u32; 2]>,
    /// The size pairs one `combine` call has priced, cleared per call.
    pairs: PricedPairs,
    /// One `combine` call's candidate costs and sizes per entry pair.
    sums: Vec<([f64; 4], usize)>,
    /// The subset in hand's pending joins; `build` drains them, so one
    /// buffer serves the whole search.
    pending: Vec<Joined<usize>>,
    /// `build`'s per-size slots: each size's tables and fingerprint, built
    /// for the first survivor that has it.
    slots: Vec<Option<(DistTables, u64)>>,
    /// Where `build` lays out a survivor's tables.
    block: Vec<f64>,
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
            memory: DistTables::new(memory),
            config,
            selectivities: Selectivities::default(),
            chain: Default::default(),
            sizes: Vec::new(),
            runs: Vec::new(),
            pairs: Vec::new(),
            sums: Vec::new(),
            pending: Vec::new(),
            slots: Vec::new(),
            block: Vec::new(),
            max_product_support: 0,
        }
    }
}

fn rebucket_to(d: &Distribution, n: usize, strategy: Rebucket) -> Distribution {
    d.rebucket(n.max(1), strategy)
        .expect("rebucket with n >= 1 cannot fail")
}

impl CandidatePolicy for MultiParamPolicy {
    type Entry = DistEntry;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        idx: usize,
    ) -> Vec<DistEntry> {
        if idx == 0 {
            self.selectivities.clear();
        }
        let pages = rebucket_to(
            &model.base_pages_dist(idx),
            self.config.max_buckets,
            self.config.rebucket,
        );
        let pages = DistTables::new(&pages);
        let pages_fp = pages.fingerprint();
        let mut entries = Vec::new();
        for e in access_alternatives(model, plans, idx) {
            let e = DistEntry {
                plan: e.plan,
                cost: e.cost,
                pages: pages.clone(),
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
        stats: &mut SearchStats,
    ) {
        let sel = self.selectivities.entry(model, ctx.left, ctx.right);
        let split = self.selectivities.split(sel);
        let sel = self.selectivities.buckets(sel);
        let (pairs, sums) = (&mut self.pairs, &mut self.sums);
        let (sizes, runs) = (&mut self.sizes, &mut self.runs);
        let max_support = &mut self.max_product_support;
        pairs.clear();
        sums.clear();
        for oe in outer {
            for ie in inner {
                let (size, costs) = priced(pairs, (oe.pages_fp, ie.pages_fp), || {
                    let (o, i) = (&oe.pages, &ie.pages);
                    let result = size_chain(&self.config, o, i, sel, &mut self.chain, max_support);
                    let start = sizes.len();
                    sizes.extend_from_slice(result);
                    let run = [start, sizes.len()].map(|x| x as u32);
                    runs.push(run);
                    let costs = model.expected_join_costs_for(o, i, &self.memory);
                    (runs.len() - 1, costs)
                });
                stats.candidates += JoinMethod::ALL.len() as u64;
                sums.push((costs.map(|join_ec| oe.cost + ie.cost + join_ec), size));
            }
        }
        let (operands, into) = ((outer, inner), &mut self.pending);
        insert_cheapest(model, plans, split, operands, |e| e.plan, &self.sums, into);
    }

    /// Only survivors fingerprint a size distribution and build its
    /// tables, once per size whichever survivors share it.
    fn build(&mut self, plans: &mut PlanArena, into: &mut Vec<DistEntry>) {
        self.slots.clear();
        self.slots.resize(self.runs.len(), None);
        let (sizes, runs, slots, block) =
            (&self.sizes, &self.runs, &mut self.slots, &mut self.block);
        into.extend(self.pending.drain(..).map(|j| {
            let (pages, pages_fp) = slots[j.size].get_or_insert_with(|| {
                let [start, end] = runs[j.size].map(|x| x as usize);
                let pages = DistTables::from_buckets(sizes[start..end].iter().copied(), block);
                let fp = pages.fingerprint();
                (pages, fp)
            });
            DistEntry {
                plan: plans.push(Step::Join(j.method, j.outer, j.inner)),
                cost: j.cost,
                pages: pages.clone(),
                pages_fp: *pages_fp,
                order: j.order,
            }
        }));
        self.sizes.clear();
        self.runs.clear();
    }

    fn finalize(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        entries: Vec<DistEntry>,
        _stats: &mut SearchStats,
    ) -> Vec<DistEntry> {
        let memory = &self.memory;
        let mut roots = sort_where_required(model, entries, |e, key| DistEntry {
            cost: e.cost + model.expected_sort_cost_for(&e.pages, memory),
            plan: plans.push(Step::Sort(e.plan, key)),
            order: OrderProperty::Required,
            ..e
        });
        super::keep_best::sort_roots(model, plans, &mut roots);
        roots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_catalog::CatalogGenerator;
    use lec_plan::{QueryProfile, Topology, WorkloadGenerator};

    /// One memo over every left-deep split `(S∖{t}, {t})` and every bushy
    /// split of a query's tables returns, for each, the bits of
    /// [`CostModel::join_selectivity_dist_sets`] and the sort-merge order of
    /// [`CostModel::split`] — on chains, stars, cliques and
    /// random graphs with three-bucket selectivities, where a bushy
    /// split's inner has several tables and, but on the clique, many
    /// splits share a key.
    #[test]
    fn the_selectivity_memo_returns_the_crossing_products_bits() {
        let topologies = [
            Topology::Chain,
            Topology::Star,
            Topology::Clique,
            Topology::Random,
        ];
        for (seed, topology) in topologies.into_iter().enumerate() {
            let mut tables = CatalogGenerator::new(seed as u64);
            let catalog = tables.generate(10);
            let ids = tables.pick_tables(&catalog, 6);
            let profile = QueryProfile {
                topology,
                sel_buckets: 3,
                ..Default::default()
            };
            let query = WorkloadGenerator::new(seed as u64).gen_query(&catalog, &ids, &profile);
            let model = CostModel::new(&catalog, &query);
            let all = TableSet::full(query.n_tables()).bits();
            let mut memo = Selectivities::default();
            let (mut splits, mut hits) = (0, 0);
            for bits in 1..=all {
                let left = TableSet::from_bits(bits);
                let rest = all & !bits;
                // Every nonempty subset of the rest: bushy inners, and the
                // singletons among them left-deep inners.
                let mut sub = rest;
                while sub != 0 {
                    let right = TableSet::from_bits(sub);
                    sub = (sub - 1) & rest;
                    if model.frontier(left).intersect(right).is_empty() {
                        continue;
                    }
                    let before = memo.entries.len();
                    let i = memo.entry(&model, left, right);
                    (splits, hits) = (splits + 1, hits + usize::from(memo.entries.len() == before));
                    let want = model.join_selectivity_dist_sets(left, right);
                    let want: Vec<_> = want
                        .iter()
                        .map(|(v, p)| (v.to_bits(), p.to_bits()))
                        .collect();
                    let got: Vec<_> = (memo.buckets(i).iter())
                        .map(|(v, p)| (v.to_bits(), p.to_bits()))
                        .collect();
                    assert_eq!(got, want, "{topology:?}: {left} x {right}");
                    let merge_order = model.split(left, right).merge_order;
                    assert_eq!(memo.split(i).merge_order, merge_order);
                }
            }
            // A clique's crossing predicates differ with every split.
            let shared = !matches!(topology, Topology::Clique);
            assert_eq!(hits > 0, shared, "{topology:?}: {hits} of {splits} hit");
        }
    }
}
