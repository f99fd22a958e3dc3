//! Priced once, answered the same: keep-best reads each operand-size
//! pair's prices from one table per search (under the point costers of
//! LSC and Algorithm A, a static memory — C and the bushy extension — and
//! an evolving one, C-dynamic), and Algorithm D's multi-param policy
//! prices each distinct pair of a `combine` call once; they build exactly
//! the nodes — plan, cost bits, order, size — and do exactly the work,
//! every counter but `evals`, of eager references that price every
//! candidate.  The references are the policies' combines as they were
//! before any memo, kept here verbatim but for signatures: they insert
//! every candidate, so the node-by-node check also holds each keep-1
//! combine's insert of only its groups' cheapest candidates to inserting
//! them all.  Both shapes run, because only a bushy split gives one call
//! inner entries of different sizes, and the clamp-heavy fixtures give
//! one subset's entries different sizes.  A price read at the wrong phase
//! or size shows as a cost bit that differs from the reference's.

use lec_catalog::{Catalog, CatalogGenerator};
use lec_core::fixtures::{pruning_clique, pruning_star};
use lec_core::search::{
    insert_entry_shaped, run_search_with, CandidatePolicy, DistEntry, DpEntry, JoinContext, Joined,
    KeepBestPolicy, MultiParamPolicy, PhaseCoster, PlanArena, PlanShape, SearchStats, Step,
};
use lec_core::{AlgDConfig, MemoryCoster};
use lec_cost::{CostModel, DistTables, Objective};
use lec_plan::{JoinMethod, OrderProperty, PlanNode, Query, QueryProfile, Topology};
use lec_prob::{presets, Distribution, MarkovChain, Rebucket};
use proptest::prelude::*;

/// Keep-best's combine before any memo: four coster calls and one output
/// size per (outer, inner) entry pair.
struct EagerKeepBest<C> {
    policy: KeepBestPolicy<C>,
    pending: Vec<Joined<f64>>,
}

impl<C: PhaseCoster> CandidatePolicy for EagerKeepBest<C> {
    type Entry = DpEntry;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        idx: usize,
    ) -> Vec<DpEntry> {
        self.policy.access_entries(model, plans, idx)
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
        for oe in outer {
            for ie in inner {
                let pages = split.pages(oe.pages, ie.pages);
                for method in JoinMethod::ALL {
                    stats.candidates += 1;
                    let join_cost = self
                        .policy
                        .coster
                        .join_cost(model, ctx, method, oe.pages, ie.pages);
                    let joined = Joined {
                        cost: oe.cost + ie.cost + join_cost,
                        order: split.order(method, oe.order),
                        size: pages,
                        method,
                        outer: oe.plan,
                        inner: ie.plan,
                    };
                    insert_entry_shaped(model, plans, &mut self.pending, joined);
                }
            }
        }
    }

    fn build(&mut self, plans: &mut PlanArena, into: &mut Vec<DpEntry>) {
        into.extend(self.pending.drain(..).map(|j| DpEntry {
            plan: plans.push(Step::Join(j.method, j.outer, j.inner)),
            cost: j.cost,
            pages: j.size,
            order: j.order,
        }));
    }

    fn finalize(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        entries: Vec<DpEntry>,
        stats: &mut SearchStats,
    ) -> Vec<DpEntry> {
        self.policy.finalize(model, plans, entries, stats)
    }
}

/// Algorithm D's combine before the memo: a §3.6.3 size product and four
/// expectations per (outer, inner) entry pair, and a size (tables and
/// fingerprint) built per survivor.
struct EagerMultiParam {
    policy: MultiParamPolicy,
    config: AlgDConfig,
    memory: DistTables,
    sizes: Vec<Distribution>,
    pending: Vec<Joined<usize>>,
    max_product_support: usize,
}

impl EagerMultiParam {
    fn new(memory: &Distribution, config: AlgDConfig) -> Self {
        EagerMultiParam {
            policy: MultiParamPolicy::new(memory, config.clone()),
            config,
            memory: DistTables::new(memory),
            sizes: Vec::new(),
            pending: Vec::new(),
            max_product_support: 0,
        }
    }

    fn product_size(
        &mut self,
        outer: &Distribution,
        inner: &Distribution,
        sel: &Distribution,
    ) -> Distribution {
        let b = self.config.max_buckets;
        let strategy = self.config.rebucket;
        let to = |d: &Distribution, n: usize| d.rebucket(n.max(1), strategy).unwrap();
        let product = if self.config.cube_root_inputs {
            let cube = ((b as f64).cbrt().ceil() as usize).max(1);
            to(outer, cube)
                .product(&to(inner, cube))
                .product(&to(sel, cube))
        } else {
            outer.product(inner).product(sel)
        };
        self.max_product_support = self.max_product_support.max(product.len());
        to(&product.map(|v| v.max(1.0)), b)
    }
}

impl CandidatePolicy for EagerMultiParam {
    type Entry = DistEntry;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        idx: usize,
    ) -> Vec<DistEntry> {
        self.policy.access_entries(model, plans, idx)
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
        let sel_dist = model.join_selectivity_dist_sets(ctx.left, ctx.right);
        let split = model.split(ctx.left, ctx.right);
        for oe in outer {
            for ie in inner {
                let (o, i) = (oe.pages.to_distribution(), ie.pages.to_distribution());
                let result_size = self.product_size(&o, &i, &sel_dist);
                self.sizes.push(result_size);
                let size = self.sizes.len() - 1;
                let costs = model.expected_join_costs_for(&oe.pages, &ie.pages, &self.memory);
                for (method, join_ec) in JoinMethod::ALL.into_iter().zip(costs) {
                    stats.candidates += 1;
                    let joined = Joined {
                        cost: oe.cost + ie.cost + join_ec,
                        order: split.order(method, oe.order),
                        size,
                        method,
                        outer: oe.plan,
                        inner: ie.plan,
                    };
                    insert_entry_shaped(model, plans, &mut self.pending, joined);
                }
            }
        }
    }

    fn build(&mut self, plans: &mut PlanArena, into: &mut Vec<DistEntry>) {
        into.extend(self.pending.drain(..).map(|j| DistEntry {
            plan: plans.push(Step::Join(j.method, j.outer, j.inner)),
            cost: j.cost,
            pages: DistTables::new(&self.sizes[j.size]),
            pages_fp: lec_cost::dist_fingerprint(&self.sizes[j.size]),
            order: j.order,
        }));
        self.sizes.clear();
    }

    fn finalize(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        entries: Vec<DistEntry>,
        stats: &mut SearchStats,
    ) -> Vec<DistEntry> {
        self.policy.finalize(model, plans, entries, stats)
    }
}

/// One entry as a comparison sees it: plan, cost bits, order, and the
/// bits of its size (support and probabilities, then the fingerprint,
/// for a distribution).
type Row = (PlanNode, u64, OrderProperty, Vec<u64>);

trait Viewed {
    fn row(&self, plans: &PlanArena) -> Row;
}

impl Viewed for DpEntry {
    fn row(&self, plans: &PlanArena) -> Row {
        let size = vec![self.pages.to_bits()];
        (plans.node(self.plan), self.cost.to_bits(), self.order, size)
    }
}

impl Viewed for DistEntry {
    fn row(&self, plans: &PlanArena) -> Row {
        let d = &self.pages;
        let bits = d.support().iter().chain(d.probs()).map(|v| v.to_bits());
        let size = bits.chain([self.pages_fp]).collect();
        (plans.node(self.plan), self.cost.to_bits(), self.order, size)
    }
}

fn view<E: Viewed>(plans: &PlanArena, entries: &[E]) -> Vec<Row> {
    entries.iter().map(|e| e.row(plans)).collect()
}

/// A policy that records every node it builds, in build order.
struct Logged<P> {
    policy: P,
    nodes: Vec<Vec<Row>>,
}

impl<P: CandidatePolicy> CandidatePolicy for Logged<P>
where
    P::Entry: Viewed,
{
    type Entry = P::Entry;

    fn access_entries(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        idx: usize,
    ) -> Vec<P::Entry> {
        self.policy.access_entries(model, plans, idx)
    }

    fn combine(
        &mut self,
        model: &CostModel<'_>,
        plans: &PlanArena,
        ctx: &JoinContext,
        outer: &[P::Entry],
        inner: &[P::Entry],
        stats: &mut SearchStats,
    ) {
        self.policy.combine(model, plans, ctx, outer, inner, stats);
    }

    fn build(&mut self, plans: &mut PlanArena, into: &mut Vec<P::Entry>) {
        let start = into.len();
        self.policy.build(plans, into);
        self.nodes.push(view(plans, &into[start..]));
    }

    fn finalize(
        &mut self,
        model: &CostModel<'_>,
        plans: &mut PlanArena,
        entries: Vec<P::Entry>,
        stats: &mut SearchStats,
    ) -> Vec<P::Entry> {
        self.policy.finalize(model, plans, entries, stats)
    }
}

/// Every work counter of a run but `evals`.
fn counters(s: &SearchStats) -> [u64; 5] {
    [
        s.nodes as u64,
        s.candidates,
        s.cache_hits,
        s.memo_hits,
        s.memo_misses,
    ]
}

/// Run `memoized` and `eager` over `query` under both shapes, and require
/// the same nodes, node by node, the same
/// roots and every counter but `evals` the same, with no more `evals`
/// for the memoized policy.
fn assert_priced_once<P, Q>(
    catalog: &Catalog,
    query: &Query,
    what: &str,
    memoized: impl Fn() -> P,
    eager: impl Fn() -> Q,
) where
    P: CandidatePolicy,
    Q: CandidatePolicy<Entry = P::Entry>,
    P::Entry: Viewed,
{
    let model = CostModel::new(catalog, query);
    for shape in [PlanShape::LeftDeep, PlanShape::Bushy] {
        let ctx = format!("{what}, {shape:?}");
        let mut fast = Logged {
            policy: memoized(),
            nodes: Vec::new(),
        };
        let mut slow = Logged {
            policy: eager(),
            nodes: Vec::new(),
        };
        let got = run_search_with(&model, shape, &mut fast).unwrap();
        let want = run_search_with(&model, shape, &mut slow).unwrap();
        assert_eq!(fast.nodes.len(), slow.nodes.len(), "node count, {ctx}");
        for (k, (g, w)) in fast.nodes.iter().zip(&slow.nodes).enumerate() {
            assert_eq!(g, w, "node {k}, {ctx}");
        }
        assert_eq!(
            view(&got.plans, &got.roots),
            view(&want.plans, &want.roots),
            "roots, {ctx}"
        );
        assert_eq!(counters(&got.stats), counters(&want.stats), "stats, {ctx}");
        assert!(got.stats.evals <= want.stats.evals, "evals, {ctx}");
    }
}

/// Every memoized policy against its eager reference on one query.
fn assert_every_policy_priced_once(catalog: &Catalog, query: &Query) {
    let memory = presets::spread_family(500.0, 0.6, 4).unwrap();
    let chain = MarkovChain::sticky_uniform(memory.support().to_vec(), 0.6).unwrap();
    let n = query.n_tables();
    // LSC at the mean and Algorithm A's point runs, C (and, bushy, the
    // §4 extension), C-dynamic.
    let mut costers = vec![("LSC", MemoryCoster::point(memory.mean()))];
    for &m in memory.support() {
        costers.push(("AlgA's point run", MemoryCoster::point(m)));
    }
    costers.push(("fixed", MemoryCoster::fixed(&memory)));
    costers.push((
        "evolving",
        MemoryCoster::new(
            Objective::Dynamic {
                initial: memory.clone(),
                chain: chain.clone(),
            },
            n,
        )
        .unwrap(),
    ));
    // The uniform start barely moves under the sticky chain; a skewed one
    // gives every phase its own distribution, so its own prices.
    // Zipf weights: the k-th largest value weighs 1/(k+1)^1.5.
    let descending = memory.support().iter().rev().enumerate();
    let skewed =
        Distribution::from_pairs(descending.map(|(k, &v)| (v, 1.0 / ((k + 1) as f64).powf(1.5))))
            .unwrap();
    let drifting = MemoryCoster::new(
        Objective::Dynamic {
            initial: skewed,
            chain,
        },
        n,
    )
    .unwrap();
    costers.push(("evolving from a skew", drifting));
    for (what, coster) in costers {
        assert_priced_once(
            catalog,
            query,
            &format!("keep-best, {what}"),
            || KeepBestPolicy::new(coster.clone()),
            || EagerKeepBest {
                policy: KeepBestPolicy::new(coster.clone()),
                pending: Vec::new(),
            },
        );
    }
    for config in d_configs() {
        assert_priced_once(
            catalog,
            query,
            &format!("multi-param, {config:?}"),
            || MultiParamPolicy::new(&memory, config.clone()),
            || EagerMultiParam::new(&memory, config.clone()),
        );
    }
}

/// Every (rebucketing strategy, ∛b inputs) pair, at `b` = 16 and at
/// `b` = 2, where every product is rebucketed.
fn d_configs() -> Vec<AlgDConfig> {
    let mut configs = Vec::new();
    for rebucket in [Rebucket::EqualDepth, Rebucket::EqualWidth] {
        for cube_root_inputs in [false, true] {
            for max_buckets in [16, 2] {
                configs.push(AlgDConfig {
                    max_buckets,
                    rebucket,
                    cube_root_inputs,
                });
            }
        }
    }
    configs
}

/// The largest pre-rebucketing support D reports is the reference's too.
#[test]
fn multi_param_reports_the_eager_product_support() {
    let memory = presets::spread_family(500.0, 0.6, 4).unwrap();
    for (catalog, query) in [pruning_star(7), pruning_clique(6)] {
        let model = CostModel::new(&catalog, &query);
        for d in d_configs() {
            let mut fast = MultiParamPolicy::new(&memory, d.clone());
            let mut slow = EagerMultiParam::new(&memory, d.clone());
            run_search_with(&model, PlanShape::LeftDeep, &mut fast).unwrap();
            run_search_with(&model, PlanShape::LeftDeep, &mut slow).unwrap();
            assert_eq!(fast.max_product_support, slow.max_product_support, "{d:?}");
        }
    }
}

/// The clamp-heavy fixtures, where one-page intermediates give one
/// subset's entries different page counts.
#[test]
fn memoized_policies_build_the_eager_nodes_on_clamp_heavy_fixtures() {
    for (catalog, query) in [pruning_star(7), pruning_clique(6)] {
        assert_every_policy_priced_once(&catalog, &query);
    }
}

const TOPOLOGIES: [Topology; 3] = [Topology::Chain, Topology::Star, Topology::Random];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `rename_equivariance.rs`'s generator, twin tables included.
    #[test]
    fn memoized_policies_build_the_eager_nodes_on_random_queries(
        seed in 0u64..1_000_000,
        n in 4usize..8,
        topology in 0usize..3,
        sel_buckets in 1usize..4,
    ) {
        let mut tables = CatalogGenerator::new(seed);
        let catalog = tables.generate(n + 4);
        let ids = tables.pick_tables(&catalog, n);
        let profile = QueryProfile {
            topology: TOPOLOGIES[topology],
            sel_buckets,
            ..Default::default()
        };
        let query =
            lec_plan::WorkloadGenerator::new(seed ^ 0x5EED).gen_query(&catalog, &ids, &profile);
        assert_every_policy_priced_once(&catalog, &query);
    }
}
