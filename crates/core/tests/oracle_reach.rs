//! The oracle's reach on the pruning fixtures (`lec_cost::oracle`, every
//! left-deep plan priced by the replay): six tables in every build, and in
//! release builds the 8-table chain and the 7-table star on which
//! Algorithm C's one-page clamp loses to the oracle.  The two release-only
//! cases take seconds in a debug build, so CI's release test step runs
//! them.

use lec_core::{fixtures, optimize, Mode};
use lec_cost::{expected_plan_cost_static, oracle, CostModel, Objective};
use lec_plan::{JoinMethod, PlanNode};
use lec_prob::presets;

/// Algorithm C matches the oracle's cost bits on `fixture`; returns the
/// number of plans the oracle enumerated.
fn c_matches_the_oracle((cat, q): (lec_catalog::Catalog, lec_plan::Query)) -> u64 {
    let model = CostModel::new(&cat, &q);
    let memory = presets::spread_family(400.0, 0.5, 4).unwrap();
    let dp = optimize(&model, &memory, &Mode::AlgorithmC).unwrap();
    let best = oracle::left_deep(&model, &Objective::Static(memory)).unwrap();
    assert_eq!(
        dp.cost.to_bits(),
        best.cost.to_bits(),
        "C {} vs oracle {}",
        dp.cost,
        best.cost
    );
    best.plans
}

#[test]
fn the_oracle_verifies_six_table_chains_and_stars() {
    assert_eq!(c_matches_the_oracle(fixtures::pruning_chain(6)), 32_768);
    assert_eq!(c_matches_the_oracle(fixtures::pruning_star(6)), 245_760);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only reach case")]
fn the_oracle_verifies_an_eight_table_chain() {
    c_matches_the_oracle(fixtures::pruning_chain(8));
}

/// Algorithm C's one-page clamp keeps a 70x worse plan on the 7-table
/// star: the oracle's optimum is pinned as cost bits, and the plan the
/// engine-hosted oracle used to report, replayed, gives the same bits (the
/// oracle now reports another plan of that exact cost).  About 5.9M plans:
/// well under a second in a release build.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only reach case")]
fn the_oracle_finds_the_seven_table_star_plan_algorithm_c_misses() {
    let (cat, q) = fixtures::pruning_star(7);
    let model = CostModel::new(&cat, &q);
    let memory = presets::spread_family(500.0, 0.6, 4).unwrap();
    let best = oracle::left_deep(&model, &Objective::Static(memory.clone())).unwrap();
    assert_eq!(best.plans, 5_898_240);
    assert_eq!(best.cost.to_bits(), 0x40cc3d0000000000, "{}", best.cost);
    // Sort(NL(NL(NL(BNL(NL(NL(R5,R0),R6),R4),R3),R2),R1))
    let scan = |table| PlanNode::seq_scan(table);
    let mut plan = PlanNode::join(JoinMethod::PageNestedLoop, scan(5), scan(0));
    for (method, table) in [
        (JoinMethod::PageNestedLoop, 6),
        (JoinMethod::BlockNestedLoop, 4),
        (JoinMethod::PageNestedLoop, 3),
        (JoinMethod::PageNestedLoop, 2),
        (JoinMethod::PageNestedLoop, 1),
    ] {
        plan = PlanNode::join(method, plan, scan(table));
    }
    let plan = PlanNode::sort(plan, q.required_order.unwrap());
    assert_eq!(
        plan.compact(),
        "Sort(NL(NL(NL(BNL(NL(NL(R5,R0),R6),R4),R3),R2),R1))"
    );
    let replayed = expected_plan_cost_static(&model, &plan, &memory);
    assert_eq!(replayed.to_bits(), best.cost.to_bits(), "{replayed}");
    let c = optimize(&model, &memory, &Mode::AlgorithmC).unwrap();
    assert_eq!(c.cost.round(), 1_013_454.0, "{}", c.cost);
}
