//! Exhaustive enumeration as ground truth for Theorems 2.1, 3.3 and 3.4.
//!
//! Policy over the engine: the streaming [`KeepAllPolicy`].  Every plan of
//! the requested shape is *costed*, but a candidate that provably cannot
//! beat the cheapest complete plan in hand is discarded on emission
//! instead of held (the [`crate::search::bound`] module docs), so no
//! table count caps the oracle: its reach is bounded by how sharply the
//! completion floor bites on the given statistics.  The space covered for
//! left-deep search is exactly the one the keep-1 policies search:
//! left-deep join orders whose every prefix is connected (no cross
//! products), all four join methods per join, all access paths per table,
//! and a root sort enforcer when the query requires an order the plan
//! does not provide.

use crate::error::OptError;
use crate::search::{
    run_search_with, KeepAllPolicy, MemoryCoster, PlanShape, SearchConfig, SearchExtras,
    SearchOutcome,
};
use lec_cost::CostModel;

/// Exhaustively find the optimal plan of `shape` under `coster`'s
/// objective — the tests' reference oracle: `C(P, m)` for
/// [`MemoryCoster::point`] (LSC ground truth), `EC(P)` for `fixed`
/// (Algorithm C) and `evolving` (§3.5).  The outcome's extras carry the
/// number of complete plans costed.
pub fn exhaustive_best(
    model: &CostModel<'_>,
    coster: MemoryCoster,
    shape: PlanShape,
    config: &SearchConfig,
) -> Result<SearchOutcome, OptError> {
    let mut policy = KeepAllPolicy::streaming(model, coster);
    let run = run_search_with(model, shape, &mut policy, config)?;
    // Complete plans *costed* (the policy counts them at emission, before
    // any streaming discard).
    let plans_costed = policy.plans_emitted();
    let best = run.best();
    Ok(SearchOutcome {
        plan: run.plans.node(best.plan),
        cost: best.cost,
        stats: run.stats,
        extras: SearchExtras::PlansCosted(plans_costed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{example_1_1, example_1_1_memory, three_chain};
    use crate::optimizer::{lsc_at, run, Mode};
    use crate::search::MemoryCoster;
    use lec_prob::{Distribution, MarkovChain};

    #[test]
    fn dp_matches_exhaustive_point() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        for m in [30.0, 150.0, 700.0, 20_000.0] {
            let dp = lsc_at(&model, m).unwrap();
            let ex = exhaustive_best(
                &model,
                MemoryCoster::point(m),
                PlanShape::LeftDeep,
                &SearchConfig::default(),
            )
            .unwrap();
            assert!(
                (dp.cost - ex.cost).abs() < 1e-6,
                "m={m}: dp {} vs exhaustive {}",
                dp.cost,
                ex.cost
            );
        }
    }

    #[test]
    fn dp_matches_exhaustive_expected() {
        // Theorem 3.3: Algorithm C returns the LEC left-deep plan.
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        for spread in [0.2, 0.5, 0.9] {
            let memory = lec_prob::presets::spread_family(400.0, spread, 6).unwrap();
            let dp = run(&model, &memory, Mode::AlgorithmC).unwrap();
            let ex = exhaustive_best(
                &model,
                MemoryCoster::fixed(&memory),
                PlanShape::LeftDeep,
                &SearchConfig::default(),
            )
            .unwrap();
            assert!(
                (dp.cost - ex.cost).abs() < 1e-6,
                "spread {spread}: dp {} vs exhaustive {}",
                dp.cost,
                ex.cost
            );
        }
    }

    #[test]
    fn dp_matches_exhaustive_dynamic() {
        // Theorem 3.4: still optimal with per-phase memory evolution.
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let states = vec![50.0, 200.0, 800.0];
        let chain = MarkovChain::birth_death(states, 0.35, 0.15).unwrap();
        let initial = Distribution::point(200.0);
        let dp = run(
            &model,
            &initial,
            Mode::AlgorithmCDynamic {
                chain: chain.clone(),
            },
        )
        .unwrap();
        let ex = exhaustive_best(
            &model,
            MemoryCoster::evolving(&initial, &chain, 3).unwrap(),
            PlanShape::LeftDeep,
            &SearchConfig::default(),
        )
        .unwrap();
        assert!(
            (dp.cost - ex.cost).abs() < 1e-6,
            "dp {} vs exhaustive {}",
            dp.cost,
            ex.cost
        );
    }

    #[test]
    fn bushy_dp_matches_bushy_exhaustive() {
        // The §4 extension is optimal over its own (bushy) space too.
        let (cat, q) = crate::fixtures::diamond();
        let model = CostModel::new(&cat, &q);
        let memory = lec_prob::presets::spread_family(500.0, 0.5, 4).unwrap();
        let dp = run(&model, &memory, Mode::Bushy).unwrap();
        let ex = exhaustive_best(
            &model,
            MemoryCoster::fixed(&memory),
            PlanShape::Bushy,
            &SearchConfig::default(),
        )
        .unwrap();
        assert!(
            (dp.cost - ex.cost).abs() / ex.cost < 1e-9,
            "dp {} vs exhaustive {}",
            dp.cost,
            ex.cost
        );
        // The bushy space strictly contains the left-deep one here.
        let ld = exhaustive_best(
            &model,
            MemoryCoster::fixed(&memory),
            PlanShape::LeftDeep,
            &SearchConfig::default(),
        )
        .unwrap();
        assert!(ex.plans_costed().unwrap() > ld.plans_costed().unwrap());
    }

    #[test]
    fn example_1_1_exhaustive_agrees_with_the_paper() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let memory = example_1_1_memory();
        let ex = exhaustive_best(
            &model,
            MemoryCoster::fixed(&memory),
            PlanShape::LeftDeep,
            &SearchConfig::default(),
        )
        .unwrap();
        assert!(crate::fixtures::is_plan2(&ex.plan), "{}", ex.plan.compact());
        assert!((ex.cost - 4_209_000.0).abs() < 1.0);
        // 2 orders × 4 methods × 1 access path each = 8 plans, plus the 4
        // the incumbent's greedy walk costs after depth 1.
        assert_eq!(ex.plans_costed(), Some(12));
    }
}
