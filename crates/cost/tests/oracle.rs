//! The oracle's own check: on random queries of up to five tables (four in
//! a debug build), its prefix fold must find what a naive reference finds
//! by building every left-deep plan as a tree and replaying each one whole
//! — the same minimum cost bits, runner-up bits and plan count — and its
//! reported cost must be the replay of its own plan, bit for bit.

use lec_catalog::{Catalog, CatalogGenerator};
use lec_cost::{oracle, output_order, AccessPath, CostModel, Objective};
use lec_plan::{JoinMethod, PlanNode, Query, QueryProfile, TableSet, Topology, WorkloadGenerator};
use lec_prob::{presets, Distribution, MarkovChain};
use proptest::prelude::*;

fn workload(seed: u64, n: usize, topology: Topology) -> (Catalog, Query) {
    let mut g = CatalogGenerator::new(seed);
    let cat = g.generate(n + 1);
    let ids = g.pick_tables(&cat, n);
    let profile = QueryProfile {
        topology,
        ..Default::default()
    };
    let q = WorkloadGenerator::new(seed ^ 0x0AC1E).gen_query(&cat, &ids, &profile);
    (cat, q)
}

/// Call `visit` on every left-deep plan without cross products: each
/// connected order, access path and join method, with a root sort where
/// the order is missing.  Connectivity comes from [`Query::is_connected_to`].
fn every_left_deep_plan(model: &CostModel<'_>, visit: &mut dyn FnMut(PlanNode)) {
    fn grow(model: &CostModel<'_>, plan: PlanNode, visit: &mut dyn FnMut(PlanNode)) {
        let (q, set) = (model.query(), plan.tables());
        if set == TableSet::full(q.n_tables()) {
            let plan = match q.required_order {
                Some(key) if !output_order(model, &plan).is_required() => PlanNode::sort(plan, key),
                _ => plan,
            };
            return visit(plan);
        }
        for j in (0..q.n_tables()).filter(|&j| !set.contains(j) && q.is_connected_to(set, j)) {
            for leaf in leaves(model, j) {
                for method in JoinMethod::ALL {
                    grow(
                        model,
                        PlanNode::join(method, plan.clone(), leaf.clone()),
                        visit,
                    );
                }
            }
        }
    }
    for t in 0..model.query().n_tables() {
        for leaf in leaves(model, t) {
            grow(model, leaf, visit);
        }
    }
}

fn leaves(model: &CostModel<'_>, table: usize) -> Vec<PlanNode> {
    let leaf = |path| match path {
        AccessPath::SeqScan => PlanNode::seq_scan(table),
        AccessPath::IndexScan => PlanNode::index_scan(table),
    };
    model.access_paths(table).into_iter().map(leaf).collect()
}

/// The reference's (minimum, runner-up, plan count) under each objective.
fn reference(model: &CostModel<'_>, objectives: &[Objective]) -> Vec<(f64, f64, u64)> {
    let mut out = vec![(f64::INFINITY, f64::INFINITY, 0); objectives.len()];
    every_left_deep_plan(model, &mut |plan| {
        for ((best, runner_up, count), objective) in out.iter_mut().zip(objectives) {
            let cost = objective.replay(model, &plan);
            *count += 1;
            if cost < *best {
                *runner_up = *best;
                *best = cost;
            } else {
                *runner_up = runner_up.min(cost);
            }
        }
    });
    out
}

/// The largest query the naive reference replays plan by plan: five
/// tables in a release build, four in a debug one, where a five-table
/// space takes seconds.
const MAX_TABLES: usize = if cfg!(debug_assertions) { 4 } else { 5 };

/// Every topology but the clique, whose 5-table space (up to 10^6 plans)
/// the naive reference would replay for seconds.
fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(Topology::Chain),
        Just(Topology::Star),
        Just(Topology::Random),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn the_oracle_finds_the_naive_references_minimum(
        seed in 0u64..5000,
        n in 2usize..=MAX_TABLES,
        topology in arb_topology(),
        center in 40.0f64..3000.0,
        spread in 0.1f64..0.9,
        b in 1usize..6,
    ) {
        let (cat, q) = workload(seed, n, topology);
        let model = CostModel::new(&cat, &q);
        let memory = presets::spread_family(center, spread, b).unwrap();
        let objectives = [
            Objective::Static(Distribution::point(center)),
            Objective::Static(memory.clone()),
            Objective::Dynamic {
                chain: MarkovChain::birth_death(memory.support().to_vec(), 0.3, 0.2).unwrap(),
                initial: memory,
            },
        ];
        let references = reference(&model, &objectives);
        for (objective, (cost, runner_up, plans)) in objectives.iter().zip(references) {
            let best = oracle::left_deep(&model, objective).expect("generated queries are connected");
            prop_assert_eq!(best.cost.to_bits(), cost.to_bits(), "{} vs {}", best.cost, cost);
            prop_assert_eq!(best.runner_up.to_bits(), runner_up.to_bits());
            prop_assert_eq!(best.plans, plans);
            let replayed = objective.replay(&model, &best.plan);
            prop_assert_eq!(replayed.to_bits(), best.cost.to_bits(), "{}", best.plan.compact());
        }
    }

    /// The bushy space holds the left-deep one, so its optimum is no
    /// costlier, and its reported cost is its plan's replay.
    #[test]
    fn the_bushy_oracle_is_at_most_the_left_deep_one(
        seed in 0u64..5000,
        n in 2usize..=MAX_TABLES,
        topology in arb_topology(),
        center in 40.0f64..3000.0,
    ) {
        let (cat, q) = workload(seed, n, topology);
        let model = CostModel::new(&cat, &q);
        let memory = presets::spread_family(center, 0.6, 4).unwrap();
        let bushy = oracle::bushy(&model, &memory).unwrap();
        let left_deep = oracle::left_deep(&model, &Objective::Static(memory.clone())).unwrap();
        prop_assert!(bushy.cost <= left_deep.cost, "{} vs {}", bushy.cost, left_deep.cost);
        prop_assert!(bushy.plans >= left_deep.plans);
        let replayed = lec_cost::expected_plan_cost_static(&model, &bushy.plan, &memory);
        prop_assert_eq!(replayed.to_bits(), bushy.cost.to_bits());
    }
}

/// A two-table query is one split each way: left-deep and bushy agree on
/// the space and its optimum.
#[test]
fn two_tables_make_one_space() {
    let (cat, q) = workload(7, 2, Topology::Chain);
    let model = CostModel::new(&cat, &q);
    let memory = Distribution::point(500.0);
    let bushy = oracle::bushy(&model, &memory).unwrap();
    let left_deep = oracle::left_deep(&model, &Objective::Static(memory)).unwrap();
    let accesses = (model.access_paths(0).len() * model.access_paths(1).len()) as u64;
    assert_eq!(left_deep.plans, 2 * 4 * accesses);
    assert_eq!(bushy.plans, left_deep.plans);
    assert_eq!(bushy.cost.to_bits(), left_deep.cost.to_bits());
}
