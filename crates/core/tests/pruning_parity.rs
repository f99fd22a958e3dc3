//! The oracle's pruning is invisible in its answers: the streaming
//! keep-all verifier behind `exhaustive_best` returns the plan and cost
//! bits of a keep-all run that holds every plan, and the completion floor
//! it discards with is admissible on the plans the DP modes choose.  Also
//! pins the oracle's reach (an 8-table chain, and the 7-table star on
//! which Algorithm C's one-page clamp loses to the oracle).

use lec_core::search::{
    plan_space_size, run_search_with, CompletionFloor, KeepAllPolicy, PlanShape, SearchConfig,
};
use lec_core::{exhaustive_best, fixtures, optimize, MemoryCoster, Mode, PointEstimate};
use lec_cost::{expected_plan_cost_dynamic, expected_plan_cost_static, CostModel};
use lec_plan::{PlanNode, Query, QueryProfile, Topology, WorkloadGenerator};
use lec_prob::{presets, MarkovChain};
use proptest::prelude::*;

fn workload(seed: u64, n: usize) -> (lec_catalog::Catalog, Query) {
    let mut g = lec_catalog::CatalogGenerator::new(seed);
    let cat = g.generate(n + 1);
    let ids = g.pick_tables(&cat, n);
    let mut wg = WorkloadGenerator::new(seed ^ 0xBEEF);
    let q = wg.gen_query(
        &cat,
        &ids,
        &QueryProfile {
            topology: Topology::Random,
            ..Default::default()
        },
    );
    (cat, q)
}

/// Every subtree of `plan` below a root sort (composite and singleton
/// alike).
fn subtrees<'p>(plan: &'p PlanNode, out: &mut Vec<&'p PlanNode>) {
    match plan {
        PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. } => out.push(plan),
        PlanNode::Sort { input, .. } => subtrees(input, out),
        PlanNode::Join { outer, inner, .. } => {
            subtrees(outer, out);
            subtrees(inner, out);
            out.push(plan);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The streaming oracle returns the same plan at the same cost bits
    /// as a keep-all run that materializes every plan, under both shapes
    /// and under a static and an evolving memory.
    #[test]
    fn the_streaming_oracle_returns_the_materialized_answer(
        seed in 0u64..4000,
        n in 3usize..7,
        center in 60.0f64..2500.0,
        spread in 0.1f64..0.9,
        b in 2usize..6,
    ) {
        let (cat, q) = workload(seed, n);
        let memory = presets::spread_family(center, spread, b).unwrap();
        let chain = MarkovChain::birth_death(memory.support().to_vec(), 0.3, 0.1).unwrap();
        let model = CostModel::new(&cat, &q);
        let costers = [
            ("fixed", MemoryCoster::fixed(&memory)),
            ("evolving", MemoryCoster::evolving(&memory, &chain, n).unwrap()),
        ];
        for shape in [PlanShape::LeftDeep, PlanShape::Bushy] {
            // The materializing run holds every plan: past 300k plans a
            // debug build takes seconds per case.
            if plan_space_size(&model, shape) > 300_000 {
                continue;
            }
            for (name, coster) in &costers {
                let config = SearchConfig::default();
                let mut all = KeepAllPolicy::new(coster.clone());
                let held = run_search_with(&model, shape, &mut all, &config).unwrap();
                let (best, plans) = (held.best(), &held.plans);
                let streamed = exhaustive_best(&model, coster.clone(), shape, &config).unwrap();
                prop_assert_eq!(plans.node(best.plan), streamed.plan, "{} {:?}: plan drift", name, shape);
                prop_assert_eq!(
                    best.cost.to_bits(), streamed.cost.to_bits(),
                    "{} {:?}: cost drift ({} vs {})", name, shape, best.cost, streamed.cost
                );
            }
        }
    }

    /// Admissibility, checked against ground truth: for every subtree of
    /// the plan a mode chose, the subtree's own cost plus the completion
    /// floor of its tables stays at or below the whole plan's cost — a
    /// violation is exactly the failure that would make the oracle
    /// discard the optimal plan's prefix.
    #[test]
    fn the_completion_floor_is_admissible_on_the_chosen_plans(
        seed in 0u64..4000,
        n in 3usize..7,
        center in 60.0f64..2500.0,
        spread in 0.1f64..0.9,
        b in 2usize..6,
    ) {
        let (cat, q) = workload(seed, n);
        let memory = presets::spread_family(center, spread, b).unwrap();
        let point = lec_prob::Distribution::point(memory.mean());
        let chain = MarkovChain::birth_death(memory.support().to_vec(), 0.3, 0.1).unwrap();
        let model = &CostModel::new(&cat, &q);
        let config = SearchConfig::default();

        let static_cost = |memory: &lec_prob::Distribution| {
            let memory = memory.clone();
            move |p: &PlanNode| expected_plan_cost_static(model, p, &memory)
        };
        type Case<'a> = (&'static str, MemoryCoster, Mode, Box<dyn Fn(&PlanNode) -> f64 + 'a>);
        let cases: Vec<Case<'_>> = vec![
            (
                "lsc",
                MemoryCoster::point(memory.mean()),
                Mode::Lsc(PointEstimate::Mean),
                Box::new(static_cost(&point)),
            ),
            (
                "alg_c",
                MemoryCoster::fixed(&memory),
                Mode::AlgorithmC,
                Box::new(static_cost(&memory)),
            ),
            (
                "alg_c_dyn",
                MemoryCoster::evolving(&memory, &chain, n).unwrap(),
                Mode::AlgorithmCDynamic { chain: chain.clone() },
                Box::new(|p: &PlanNode| expected_plan_cost_dynamic(model, p, &memory, &chain).unwrap()),
            ),
        ];
        for (name, coster, mode, cost_of) in cases {
            let floor = CompletionFloor::new(model, coster.max_memory());
            let outcome = optimize(model, &memory, &mode, &config).unwrap();
            let mut parts = Vec::new();
            subtrees(&outcome.plan, &mut parts);
            for part in parts {
                let set = part.tables();
                let bound = cost_of(part) + floor.of(model, set);
                prop_assert!(
                    bound <= outcome.cost * (1.0 + 1e-9) + 1e-6,
                    "{}: subtree {} costs {} with floor {}, past the plan's {}",
                    name, part.compact(), cost_of(part), floor.of(model, set), outcome.cost
                );
            }
        }
    }
}

/// The oracle's reach past materialization: it streams the 8-table
/// pruning chain and agrees with Algorithm C to the bit.
#[test]
fn the_oracle_verifies_an_eight_table_chain() {
    let (cat, q) = fixtures::pruning_chain(8);
    let model = CostModel::new(&cat, &q);
    let memory = presets::spread_family(400.0, 0.5, 4).unwrap();
    let config = SearchConfig::default();
    let oracle = exhaustive_best(
        &model,
        MemoryCoster::fixed(&memory),
        PlanShape::LeftDeep,
        &config,
    )
    .unwrap();
    let dp = optimize(&model, &memory, &Mode::AlgorithmC, &config).unwrap();
    assert_eq!(oracle.cost.to_bits(), dp.cost.to_bits());
}

/// The oracle's answer on the 7-table pruning star, pinned as a literal so
/// a fix to Algorithm C's order-dependent sizes needs no edit here:
/// C's one-page clamp keeps a 70x worse plan, and the oracle's is at most
/// C's cost.  The run costs about 2.25M plans: about 0.7 s in a release
/// build and 3 s in a debug one, on a 2-vCPU host.
#[test]
fn the_oracle_finds_the_seven_table_star_plan_algorithm_c_misses() {
    let (cat, q) = fixtures::pruning_star(7);
    let model = CostModel::new(&cat, &q);
    let memory = presets::spread_family(500.0, 0.6, 4).unwrap();
    let config = SearchConfig::default();
    let oracle = exhaustive_best(
        &model,
        MemoryCoster::fixed(&memory),
        PlanShape::LeftDeep,
        &config,
    )
    .unwrap();
    assert_eq!(
        oracle.plan.compact(),
        "Sort(NL(NL(NL(BNL(NL(NL(R5,R0),R6),R4),R3),R2),R1))"
    );
    assert_eq!(oracle.cost.to_bits(), 0x40cc3d0000000000, "{}", oracle.cost);
    let c = optimize(&model, &memory, &Mode::AlgorithmC, &config).unwrap();
    assert!(
        oracle.cost <= c.cost,
        "oracle {} vs C {}",
        oracle.cost,
        c.cost
    );
}
