//! Algorithm B: generating more candidates with top-c lists (§3.3).
//!
//! Policy over the engine: one [`TopCPolicy`] run per memory
//! representative (the Proposition 3.1 frontier lives in the policy),
//! then EC ranking of the union of root candidates.

use crate::error::OptError;
use crate::search::{
    run_search_with, PlanShape, SearchConfig, SearchExtras, SearchOutcome, SearchStats, TopCPolicy,
};
use lec_cost::{expected_plan_cost_static, CostModel};
use lec_plan::PlanNode;
use lec_prob::Distribution;
use std::sync::Arc;

/// Run Algorithm B: top-c candidates per memory representative, then pick
/// the candidate of least expected cost.  The outcome's extras carry the
/// Proposition 3.1 [`crate::search::FrontierStats`] and the number of
/// distinct candidates ranked.
pub fn optimize_alg_b(
    model: &CostModel<'_>,
    memory: &Distribution,
    c: usize,
) -> Result<SearchOutcome, OptError> {
    optimize_alg_b_with(model, memory, c, &SearchConfig::default())
}

/// [`optimize_alg_b`] under an explicit [`SearchConfig`], applied to
/// each per-representative top-`c` search.
pub fn optimize_alg_b_with(
    model: &CostModel<'_>,
    memory: &Distribution,
    c: usize,
    config: &SearchConfig,
) -> Result<SearchOutcome, OptError> {
    if c == 0 {
        return Err(OptError::BadParameter("Algorithm B requires c >= 1"));
    }
    let mut reps: Vec<f64> = memory.support().to_vec();
    let mean = memory.mean();
    if !reps.iter().any(|&m| (m - mean).abs() < 1e-9) {
        reps.push(mean);
    }

    let mut frontier = crate::search::FrontierStats::default();
    let mut stats = SearchStats::default();
    let mut candidates: Vec<PlanNode> = Vec::new();
    for m in reps {
        let mut policy = TopCPolicy::new(m, c);
        let run = run_search_with(model, PlanShape::LeftDeep, &mut policy, config)?;
        stats.absorb(&run.stats);
        frontier.combinations_examined += policy.frontier.combinations_examined;
        frontier.bound_total += policy.frontier.bound_total;
        frontier.groups += policy.frontier.groups;
        for e in run.roots {
            if !candidates.contains(&e.plan) {
                candidates.push(Arc::unwrap_or_clone(e.plan));
            }
        }
    }

    // EC-rank the union of candidates, counting the replay evaluations.
    model.reset_evals();
    let mut best: Option<(PlanNode, f64)> = None;
    for plan in &candidates {
        let ec = expected_plan_cost_static(model, plan, memory);
        if best.as_ref().is_none_or(|(_, b)| ec < *b) {
            best = Some((plan.clone(), ec));
        }
    }
    stats.evals += model.evals();
    let (plan, expected_cost) = best.ok_or(OptError::NoPlanFound)?;
    Ok(SearchOutcome {
        plan,
        cost: expected_cost,
        stats,
        extras: SearchExtras::Frontier {
            frontier,
            n_candidates: candidates.len(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg_a::optimize_alg_a;
    use crate::alg_c::optimize_lec_static;
    use crate::fixtures::{example_1_1, example_1_1_memory, three_chain};

    #[test]
    fn b_with_c1_matches_a() {
        // With c = 1, Algorithm B's candidate set per memory value is the
        // single LSC plan — i.e. Algorithm A.
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let a = optimize_alg_a(&model, &memory).unwrap();
        let b = optimize_alg_b(&model, &memory, 1).unwrap();
        assert!((a.cost - b.cost).abs() < 1e-9);
    }

    #[test]
    fn b_improves_monotonically_with_c() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let memory = lec_prob::presets::spread_family(300.0, 0.8, 5).unwrap();
        let mut last = f64::INFINITY;
        for c in [1, 2, 4, 8] {
            let b = optimize_alg_b(&model, &memory, c).unwrap();
            assert!(
                b.cost <= last + 1e-9,
                "candidate superset cannot hurt (c={c})"
            );
            last = b.cost;
        }
    }

    #[test]
    fn b_is_bounded_by_a_and_c() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        for spread in [0.3, 0.6, 0.9] {
            let memory = lec_prob::presets::spread_family(350.0, spread, 6).unwrap();
            let a = optimize_alg_a(&model, &memory).unwrap();
            let b = optimize_alg_b(&model, &memory, 3).unwrap();
            let c = optimize_lec_static(&model, &memory).unwrap();
            assert!(b.cost <= a.cost + 1e-9);
            assert!(c.cost <= b.cost + 1e-9);
        }
    }

    #[test]
    fn frontier_respects_prop_3_1_bound() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let memory = example_1_1_memory();
        for c in [1, 2, 3, 5, 8, 13] {
            let b = optimize_alg_b(&model, &memory, c).unwrap();
            // Per group, examined ≤ c + c·log c (the bound_total is the
            // per-group bound times the number of groups).
            let f = b.frontier().unwrap();
            assert!(
                f.combinations_examined <= f.bound_total,
                "c={c}: {} > {}",
                f.combinations_examined,
                f.bound_total
            );
            assert!(f.groups > 0);
        }
    }

    #[test]
    fn example_1_1_found_by_b() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let memory = example_1_1_memory();
        let b = optimize_alg_b(&model, &memory, 2).unwrap();
        assert!(crate::fixtures::is_plan2(&b.plan), "{}", b.plan.compact());
        assert!((b.cost - 4_209_000.0).abs() < 1.0);
    }

    #[test]
    fn c_zero_is_rejected() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        assert!(matches!(
            optimize_alg_b(&model, &example_1_1_memory(), 0),
            Err(OptError::BadParameter(_))
        ));
    }
}
