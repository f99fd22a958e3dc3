//! Algorithm A: a standard optimizer as a black box (§3.2).
//!
//! "For each value m_i of the memory parameter, we run the optimizer under
//! the assumption that m_i is the actual amount of memory available.  This
//! gives us b candidate plans.  We then compute the expected cost of each
//! candidate, and choose the one with least expected cost."
//!
//! Policy over the engine: one [`crate::Mode::LscAt`] run — the black box
//! — per memory representative, then EC ranking of the candidates.

use crate::error::OptError;
use crate::optimizer::{optimize, Mode};
use crate::search::{SearchConfig, SearchExtras, SearchOutcome, SearchStats};
use lec_cost::{expected_plan_cost_static, CostModel};
use lec_plan::PlanNode;
use lec_prob::Distribution;

/// One candidate produced by Algorithm A: the LSC plan for memory `m`.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The memory representative the optimizer was run at.
    pub memory: f64,
    /// The plan it produced.
    pub plan: PlanNode,
    /// Its cost at `memory` (what the black-box optimizer reported).
    pub point_cost: f64,
    /// Its expected cost under the full distribution.
    pub expected_cost: f64,
}

/// The memory values Algorithms A and B run their point searches at: the
/// distribution's bucket representatives, plus — per the paper's "without
/// loss of generality" remark — the mean when not already present, which
/// guarantees `EC(result) ≤ EC(LSC-at-mean plan)`.
pub(crate) fn representatives(memory: &Distribution) -> Vec<f64> {
    let mut reps: Vec<f64> = memory.support().to_vec();
    let mean = memory.mean();
    if !reps.iter().any(|&m| (m - mean).abs() < 1e-9) {
        reps.push(mean);
    }
    reps
}

/// Algorithm A's ranking: the LSC plan of every representative, EC-ranked.
/// The outcome's extras carry the per-representative [`Candidate`] list.
pub(crate) fn rank_point_plans(
    model: &CostModel<'_>,
    memory: &Distribution,
    config: &SearchConfig,
) -> Result<SearchOutcome, OptError> {
    let reps = representatives(memory);
    let mut stats = SearchStats::default();
    let mut candidates = Vec::with_capacity(reps.len());
    for m in reps {
        let r = optimize(model, memory, &Mode::LscAt(m), config)?;
        stats.absorb(&r.stats);
        candidates.push(Candidate {
            memory: m,
            plan: r.plan,
            point_cost: r.cost,
            expected_cost: 0.0, // filled below, under the eval counter
        });
    }

    // EC-rank the candidates; the replay evaluations count toward the
    // uniform stats like every other cost-formula call.
    model.reset_evals();
    for c in &mut candidates {
        c.expected_cost = expected_plan_cost_static(model, &c.plan, memory);
    }
    stats.evals += model.evals();

    let best = candidates
        .iter()
        .min_by(|a, b| a.expected_cost.total_cmp(&b.expected_cost))
        .ok_or(OptError::NoPlanFound)?;
    Ok(SearchOutcome {
        plan: best.plan.clone(),
        cost: best.expected_cost,
        stats,
        extras: SearchExtras::Candidates(candidates.clone()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{example_1_1, example_1_1_memory, three_chain};
    use crate::lsc::PointEstimate;
    use crate::optimizer::{lsc_at, run};

    #[test]
    fn algorithm_a_recovers_plan2_in_example_1_1() {
        // The candidate from m=700 is the Grace plan, whose EC beats the
        // SM plan produced at m=2000 — Algorithm A suffices here.
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let memory = example_1_1_memory();
        let r = run(&model, &memory, Mode::AlgorithmA).unwrap();
        assert!(crate::fixtures::is_plan2(&r.plan), "{}", r.plan.compact());
        // Candidates: 700, 2000, and the mean 1740.
        assert_eq!(r.candidates().unwrap().len(), 3);
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
    fn candidate_expected_costs_are_replayable() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let memory = example_1_1_memory();
        let r = run(&model, &memory, Mode::AlgorithmA).unwrap();
        for c in r.candidates().unwrap() {
            let replay = expected_plan_cost_static(&model, &c.plan, &memory);
            assert!((c.expected_cost - replay).abs() < 1e-9);
            let point = lec_cost::plan_cost_at(&model, &c.plan, c.memory);
            assert!((c.point_cost - point).abs() < 1e-9);
        }
    }

    #[test]
    fn point_distribution_degenerates_to_lsc() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let memory = Distribution::point(800.0);
        let a = run(&model, &memory, Mode::AlgorithmA).unwrap();
        let lsc = lsc_at(&model, 800.0).unwrap();
        assert!((a.cost - lsc.cost).abs() < 1e-9);
        assert_eq!(a.candidates().unwrap().len(), 1);
    }
}
