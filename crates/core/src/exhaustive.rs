//! Exhaustive enumeration as ground truth for Theorems 2.1, 3.3 and 3.4.
//!
//! Policy over the engine: [`KeepAllPolicy`].  Run plain, the engine
//! materializes every plan of the requested shape exactly once, so the
//! query-size caps below reject spaces too large to hold.  Run with
//! [`SearchConfig::pruning`], the policy is a streaming branch-and-bound
//! verifier — every plan is still *costed*, but candidates that provably
//! cannot beat the incumbent are discarded on emission instead of held —
//! and both caps are lifted: feasibility is then bounded by how sharply
//! the bounds bite on the given statistics, not by a fixed table count.
//! The space covered for left-deep search is exactly the one the keep-1
//! policies prune: left-deep join orders whose every prefix is connected
//! (no cross products), all four join methods per join, all access paths
//! per table, and a root sort enforcer when the query requires an order
//! the plan does not provide.

use crate::error::OptError;
use crate::search::{
    run_search_with, KeepAllPolicy, PhaseCoster, PlanShape, SearchConfig, SearchExtras,
    SearchOutcome,
};
use lec_cost::CostModel;
use std::sync::Arc;

/// Cap on query size for *unpruned* runs: the space is
/// `O(n! · 4^(n-1) · 2^n)`.  Pruned runs ([`SearchConfig::pruning`])
/// stream instead of materializing and are not table-capped.
pub const MAX_EXHAUSTIVE_TABLES: usize = 7;

/// Cap on the number of complete plans an *unpruned* keep-all run may
/// materialize.  Unlike a streaming enumerator, the plain keep-all engine
/// holds every plan in memory, so dense join graphs (a 7-table clique is
/// ~20M plans) must be rejected up front rather than thrashed through.
/// Pruned runs keep only candidates that might still win and skip this
/// check too.
pub const MAX_EXHAUSTIVE_PLANS: u128 = 1_000_000;

/// Exhaustively find the optimal plan of `shape` under `coster`'s
/// objective — the tests' reference oracle: `C(P, m)` for
/// [`crate::search::MemoryCoster::point`] (LSC ground truth), `EC(P)` for
/// `fixed` (Algorithm C) and `evolving` (§3.5).  The outcome's extras
/// carry the number of complete plans costed.
pub fn exhaustive_best(
    model: &CostModel<'_>,
    coster: impl PhaseCoster,
    shape: PlanShape,
    config: &SearchConfig,
) -> Result<SearchOutcome, OptError> {
    let n = model.query().n_tables();
    if !config.pruning {
        if n > MAX_EXHAUSTIVE_TABLES {
            return Err(OptError::BadParameter(
                "exhaustive search is capped at 7 tables (enable pruning to lift)",
            ));
        }
        if crate::search::plan_space_size(model, shape) > MAX_EXHAUSTIVE_PLANS {
            return Err(OptError::BadParameter(
                "exhaustive plan space exceeds the 1M-plan keep-all cap (enable pruning to lift)",
            ));
        }
    }
    let mut policy = KeepAllPolicy::new(coster);
    let run = run_search_with(model, shape, &mut policy, config)?;
    // Complete plans *costed* (the policy counts them at emission, before
    // any streaming discard): equals `roots.len()` unpruned, and keeps
    // honest books when pruning discards candidates it still had to cost.
    let plans_costed = policy.plans_emitted();
    let (best, stats) = run.into_best();
    Ok(SearchOutcome {
        plan: Arc::unwrap_or_clone(best.plan),
        cost: best.cost,
        stats,
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
        // 2 orders × 4 methods × 1 access path each = 8 plans.
        assert_eq!(ex.plans_costed(), Some(8));
    }

    #[test]
    fn dense_plan_spaces_are_rejected_before_materialization() {
        // A 7-table clique is within the table cap but ~20M plans; the
        // keep-all engine must refuse it instead of exhausting memory.
        use lec_catalog::{ColumnStats, TableStats};
        use lec_plan::{ColumnRef, JoinPredicate, Query, QueryTable};
        let mut cat = lec_catalog::Catalog::new();
        let n = 7;
        let tables: Vec<_> = (0..n)
            .map(|i| {
                cat.add_table(
                    format!("T{i}"),
                    TableStats::new(100, 1000, vec![ColumnStats::plain("c", 10)]),
                )
            })
            .collect();
        let mut joins = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                joins.push(JoinPredicate::exact(
                    ColumnRef::new(i, 0),
                    ColumnRef::new(j, 0),
                    1e-4,
                ));
            }
        }
        let q = Query {
            tables: tables.into_iter().map(QueryTable::bare).collect(),
            joins,
            required_order: None,
        };
        let model = CostModel::new(&cat, &q);
        assert!(matches!(
            exhaustive_best(
                &model,
                MemoryCoster::point(100.0),
                PlanShape::LeftDeep,
                &SearchConfig::default()
            ),
            Err(OptError::BadParameter(_))
        ));
        // A 7-table chain stays comfortably under the cap and still runs.
        let (chain_cat, chain_q) = crate::fixtures::scaling_chain(7);
        let chain_model = CostModel::new(&chain_cat, &chain_q);
        let ex = exhaustive_best(
            &chain_model,
            MemoryCoster::point(400.0),
            PlanShape::LeftDeep,
            &SearchConfig::default(),
        )
        .unwrap();
        assert!(ex.plans_costed().unwrap() > 0);
    }

    #[test]
    fn too_many_tables_is_rejected() {
        use lec_catalog::{ColumnStats, TableStats};
        use lec_plan::{ColumnRef, JoinPredicate, Query, QueryTable};
        let mut cat = lec_catalog::Catalog::new();
        let n = 8;
        let tables: Vec<_> = (0..n)
            .map(|i| {
                cat.add_table(
                    format!("T{i}"),
                    TableStats::new(100, 1000, vec![ColumnStats::plain("c", 10)]),
                )
            })
            .collect();
        let q = Query {
            tables: tables.into_iter().map(QueryTable::bare).collect(),
            joins: (0..n - 1)
                .map(|i| JoinPredicate::exact(ColumnRef::new(i, 0), ColumnRef::new(i + 1, 0), 1e-4))
                .collect(),
            required_order: None,
        };
        let model = CostModel::new(&cat, &q);
        assert!(matches!(
            exhaustive_best(
                &model,
                MemoryCoster::point(100.0),
                PlanShape::LeftDeep,
                &SearchConfig::default()
            ),
            Err(OptError::BadParameter(_))
        ));
    }
}
