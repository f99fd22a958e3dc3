//! Algorithm A: a standard optimizer as a black box (§3.2).
//!
//! "For each value m_i of the memory parameter, we run the optimizer under
//! the assumption that m_i is the actual amount of memory available.  This
//! gives us b candidate plans.  We then compute the expected cost of each
//! candidate, and choose the one with least expected cost."
//!
//! Algorithm B (§3.3) differs from A only in keeping `c` plans per DP
//! node, so [`crate::optimize`] runs `Mode::AlgorithmA` as B's lane
//! search at `c = 1`.  This module holds what the two share: the
//! representatives and the ranking, which replays each distinct
//! candidate once.

use crate::error::OptError;
use crate::search::{SearchOutcome, SearchStats};
use lec_cost::{expected_plan_cost_static, CostModel};
use lec_plan::PlanNode;
use lec_prob::Distribution;

/// The memory values Algorithms A and B search at, one lane each: the
/// distribution's bucket representatives, plus — per the paper's "without
/// loss of generality" remark — the mean when not already present, which
/// guarantees `EC(result) ≤ EC(LSC-at-mean plan)`.
pub fn representatives(memory: &Distribution) -> Vec<f64> {
    let mut reps: Vec<f64> = memory.support().to_vec();
    let mean = memory.mean();
    if !reps.iter().any(|&m| (m - mean).abs() < 1e-9) {
        reps.push(mean);
    }
    reps
}

/// Algorithm A's and B's last step: the candidate of least expected cost
/// under `memory` (the first of an exact tie), with the replay's formula
/// evaluations added to `stats` like every other cost-formula call.
pub(crate) fn rank_by_expected_cost(
    model: &CostModel<'_>,
    memory: &Distribution,
    candidates: Vec<PlanNode>,
    mut stats: SearchStats,
) -> Result<SearchOutcome, OptError> {
    model.reset_evals();
    let (plan, cost) = candidates
        .into_iter()
        .map(|plan| {
            let ec = expected_plan_cost_static(model, &plan, memory);
            (plan, ec)
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .ok_or(OptError::NoPlanFound)?;
    stats.evals += model.evals();
    Ok(SearchOutcome { plan, cost, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{example_1_1, example_1_1_memory, three_chain};
    use crate::lsc::PointEstimate;
    use crate::optimizer::{lsc_at, run, Mode};

    #[test]
    fn algorithm_a_recovers_plan2_in_example_1_1() {
        // The candidate from m=700 is the Grace plan, whose EC beats the
        // SM plan produced at m=2000 — Algorithm A suffices here.
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let memory = example_1_1_memory();
        let r = run(&model, &memory, Mode::AlgorithmA).unwrap();
        assert!(crate::fixtures::is_plan2(&r.plan), "{}", r.plan.compact());
        // Representatives: 700, 2000, and the mean 1740.
        assert_eq!(representatives(&memory), [700.0, 2000.0, 1740.0]);
        assert!((r.cost - 4_209_000.0).abs() < 1.0);
    }

    #[test]
    fn never_worse_than_lsc_at_mean_or_mode() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        for spread in [0.0, 0.4, 0.9] {
            let memory = lec_prob::presets::spread_family(300.0, spread, 6).unwrap();
            let a = run(&model, &memory, Mode::AlgorithmA).unwrap();
            for est in [PointEstimate::Mean, PointEstimate::Mode] {
                let lsc = run(&model, &memory, Mode::Lsc(est)).unwrap();
                let lsc_ec = expected_plan_cost_static(&model, &lsc.plan, &memory);
                assert!(a.cost <= lsc_ec + 1e-6);
            }
        }
    }

    #[test]
    fn never_better_than_algorithm_c() {
        // Algorithm C computes the true LEC plan; A only approximates it.
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        for spread in [0.2, 0.5, 0.8] {
            for n in [2, 4, 8] {
                let memory = lec_prob::presets::spread_family(350.0, spread, n).unwrap();
                let a = run(&model, &memory, Mode::AlgorithmA).unwrap();
                let c = run(&model, &memory, Mode::AlgorithmC).unwrap();
                assert!(
                    c.cost <= a.cost + 1e-6,
                    "spread {spread} n {n}: C {} vs A {}",
                    c.cost,
                    a.cost
                );
            }
        }
    }

    #[test]
    fn reported_cost_is_the_plans_replay() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let memory = example_1_1_memory();
        let r = run(&model, &memory, Mode::AlgorithmA).unwrap();
        let replay = expected_plan_cost_static(&model, &r.plan, &memory);
        assert_eq!(r.cost.to_bits(), replay.to_bits());
    }

    #[test]
    fn point_distribution_degenerates_to_lsc() {
        // One representative, one lane, one root: A returns LSC's plan at
        // that point, to the bit.
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        for m in [300.0, 800.0, 2_000.0] {
            let memory = Distribution::point(m);
            let a = run(&model, &memory, Mode::AlgorithmA).unwrap();
            let lsc = lsc_at(&model, m).unwrap();
            assert_eq!(a.plan, lsc.plan, "at {m}");
            assert_eq!(a.cost.to_bits(), lsc.cost.to_bits(), "at {m}");
            assert_eq!(representatives(&memory), [m]);
        }
    }
}
