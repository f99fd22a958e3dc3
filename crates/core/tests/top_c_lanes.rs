//! Algorithm B runs its memory representatives as the lanes of one
//! [`TopCPolicy`] search, and lanes that agree on a subset share its
//! work.  Sharing must be exact: every B answer — plan, cost bits and
//! every [`SearchStats`] counter — equals that of a reference that runs
//! one single-lane search per representative and EC-ranks the union (the
//! first of an exact tie), each lane's root list equals its own search's,
//! and the lanes' summed Proposition 3.1 counters equal the reference's.

use lec_catalog::{Catalog, CatalogGenerator, ColumnStats, TableStats};
use lec_core::alg_a::representatives;
use lec_core::fixtures::three_chain;
use lec_core::search::{
    run_search_with, DpEntry, FrontierStats, PlanArena, PlanShape, SearchStats, TopCPolicy,
};
use lec_core::{optimize, Mode};
use lec_cost::{expected_plan_cost_static, CostModel};
use lec_plan::{
    ColumnRef, JoinPredicate, OrderProperty, PlanNode, Query, QueryProfile, QueryTable, Topology,
    WorkloadGenerator,
};
use lec_prob::Distribution;

/// Release builds reach 8 tables; debug builds stop at 6.
const MAX_TABLES: usize = if cfg!(debug_assertions) { 6 } else { 8 };
const TOPOLOGIES: [Topology; 3] = [Topology::Chain, Topology::Star, Topology::Random];
const BUCKETS: [usize; 4] = [1, 2, 4, 8];
const CS: [usize; 4] = [1, 2, 3, 5];

type Roots = Vec<(PlanNode, u64, OrderProperty)>;

/// The comparable content of root entries: plans, cost bits, orders.
fn view(plans: &PlanArena, roots: &[DpEntry]) -> Roots {
    (roots.iter())
        .map(|e| (plans.node(e.plan), e.cost.to_bits(), e.order))
        .collect()
}

/// Every counter of `s` but `elapsed`.
fn counters(s: &SearchStats) -> [u64; 10] {
    [
        s.nodes as u64,
        s.candidates,
        s.evals,
        s.cache_hits,
        s.memo_hits,
        s.memo_misses,
        s.pruned_subsets,
        s.bound_evals,
        s.sharp_bound_evals,
        s.cheap_bound_skips,
    ]
}

/// What one search per representative gives.
struct Reference {
    plan: PlanNode,
    cost: f64,
    stats: SearchStats,
    frontier: FrontierStats,
    roots: Roots,
}

/// Algorithm B as separate searches: a single-lane [`TopCPolicy`] run per
/// representative, the union of root plans in representative order, and
/// the first candidate of least expected cost, its replay's evaluations
/// counted.
fn reference(model: &CostModel<'_>, memory: &Distribution, c: usize) -> Reference {
    let (mut stats, mut frontier) = (SearchStats::default(), FrontierStats::default());
    let (mut candidates, mut roots) = (Vec::new(), Vec::new());
    for m in representatives(memory) {
        let mut policy = TopCPolicy::new(m, c);
        let run = run_search_with(model, PlanShape::LeftDeep, &mut policy).unwrap();
        stats.absorb(&run.stats);
        let f = policy.frontier;
        frontier.combinations_examined += f.combinations_examined;
        frontier.bound_total = frontier.bound_total.saturating_add(f.bound_total);
        frontier.groups += f.groups;
        roots.extend(view(&run.plans, &run.roots));
        for e in &run.roots {
            let plan = run.plans.node(e.plan);
            if !candidates.contains(&plan) {
                candidates.push(plan);
            }
        }
    }
    model.reset_evals();
    let (plan, cost) = (candidates.into_iter())
        .map(|plan| {
            let ec = expected_plan_cost_static(model, &plan, memory);
            (plan, ec)
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    stats.evals += model.evals();
    Reference {
        plan,
        cost,
        stats,
        frontier,
        roots,
    }
}

/// B's answer, and one lanes search's roots and frontier, against the
/// reference.  The lanes search is run only when the representatives fit
/// one pass.
fn assert_lanes_match(catalog: &Catalog, query: &Query, memory: &Distribution, c: usize) {
    let model = CostModel::new(catalog, query);
    let want = reference(&model, memory, c);
    let got = optimize(&model, memory, &Mode::AlgorithmB { c }).unwrap();
    let ctx = format!("c = {c}, {} buckets, {}", memory.len(), want.plan.compact());
    assert_eq!(got.plan, want.plan, "plan, {ctx}");
    assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "cost, {ctx}");
    assert_eq!(counters(&got.stats), counters(&want.stats), "stats, {ctx}");
    let reps = representatives(memory);
    if reps.len() <= lec_core::search::MAX_LANES {
        let mut policy = TopCPolicy::with_lanes(&reps, c);
        let run = run_search_with(&model, PlanShape::LeftDeep, &mut policy).unwrap();
        assert_eq!(view(&run.plans, &run.roots), want.roots, "roots, {ctx}");
        assert_eq!(policy.frontier, want.frontier, "frontier, {ctx}");
    }
}

/// A memory belief of `buckets` equally likely values around `center`.
fn belief(center: f64, buckets: usize) -> Distribution {
    lec_prob::presets::spread_family(center, 0.8, buckets).unwrap()
}

/// Default-profile chains, stars and random graphs of 3 to
/// [`MAX_TABLES`] tables, under beliefs of 1, 2, 4 and 8 buckets around
/// a memory value that shifts with the case, and c in {1, 2, 3, 5}.
#[test]
fn lanes_give_the_separate_searches_answers() {
    let mut case = 0u64;
    for n in 3..=MAX_TABLES {
        for (t, &topology) in TOPOLOGIES.iter().enumerate() {
            let seed = 1000 * n as u64 + t as u64;
            let mut tables = CatalogGenerator::new(seed);
            let catalog = tables.generate(n + 4);
            let ids = tables.pick_tables(&catalog, n);
            let profile = QueryProfile {
                topology,
                ..Default::default()
            };
            let query = WorkloadGenerator::new(seed ^ 0x5EED).gen_query(&catalog, &ids, &profile);
            for buckets in BUCKETS {
                for c in CS {
                    case += 1;
                    let center = [40.0, 300.0, 1500.0, 8000.0][case as usize % 4];
                    assert_lanes_match(&catalog, &query, &belief(center, buckets), c);
                }
            }
        }
    }
}

/// More representatives than one search has lanes: 70 buckets run in
/// two passes, and the answer is still the separate searches'.
#[test]
fn more_representatives_than_lanes_run_in_passes() {
    let (catalog, query) = three_chain();
    let memory = lec_prob::presets::uniform_grid(20.0, 4000.0, 70).unwrap();
    assert!(representatives(&memory).len() > lec_core::search::MAX_LANES);
    for c in CS {
        assert_lanes_match(&catalog, &query, &memory, c);
    }
}

/// Two lanes whose block nested-loop prices of one split differ in the
/// last bit only, and a third lane that agrees with the first.  A table of
/// `a = 2⁵³ + 4` pages joined to a 2-page one scans the inner once at
/// `a + 2` pages of memory and twice at `2⁵² + 4` (or at their mean):
/// `a + 2` and `a + 4` are neighbouring doubles, and so are the sums of
/// the plan's costs, `2⁵⁴ + 12` and `2⁵⁴ + 16` after rounding.  Every
/// other method prices alike at all three values.  A lane that stayed in
/// the first lane's class would report that lane's cost bits for its
/// block nested-loop plan.
#[test]
fn a_last_bit_price_difference_splits_a_class() {
    let pages: u64 = (1 << 53) + 4;
    let mut catalog = Catalog::new();
    let columns = || vec![ColumnStats::plain("a", 100)];
    let big = catalog.add_table("BIG", TableStats::new(pages, pages, columns()));
    let small = catalog.add_table("SMALL", TableStats::new(2, 2, columns()));
    let query = Query {
        tables: vec![QueryTable::bare(big), QueryTable::bare(small)],
        joins: vec![JoinPredicate::exact(
            ColumnRef::new(0, 0),
            ColumnRef::new(1, 0),
            1e-20,
        )],
        required_order: None,
    };
    let (lo, hi) = (2f64.powi(52) + 4.0, pages as f64 + 2.0);
    let memory = Distribution::bimodal(lo, hi, 0.5).unwrap();
    let model = CostModel::new(&catalog, &query);
    let bnl = |m: f64| {
        let method = lec_plan::JoinMethod::BlockNestedLoop;
        let point = Distribution::point(m);
        model.expected_join_cost_over(method, pages as f64, 2.0, &point)
    };
    assert_eq!(bnl(hi).to_bits() + 1, bnl(lo).to_bits(), "one ulp apart");
    for c in [4, 8] {
        assert_lanes_match(&catalog, &query, &memory, c);
    }
}
