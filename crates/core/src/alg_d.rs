//! Algorithm D: LEC optimization with multiple uncertain parameters
//! (§3.6, Figure 1).
//!
//! Policy over the engine: [`MultiParamPolicy`] — the Figure 1 per-node
//! distribution bookkeeping and §3.6.3 rebucketing live there; this module
//! is the thin entry point.

use crate::error::OptError;
pub use crate::search::AlgDConfig;
use crate::search::{run_search_with, MultiParamPolicy, PlanShape, SearchOutcome};
use lec_cost::CostModel;
use lec_prob::Distribution;

/// Run Algorithm D.
pub(crate) fn search(
    model: &CostModel<'_>,
    memory: &Distribution,
    config: &AlgDConfig,
) -> Result<SearchOutcome, OptError> {
    if config.max_buckets == 0 {
        return Err(OptError::BadParameter(
            "Algorithm D requires max_buckets >= 1",
        ));
    }
    let mut policy = MultiParamPolicy::new(memory, config.clone());
    let run = run_search_with(model, PlanShape::LeftDeep, &mut policy)?;
    let best = run.best();
    Ok(SearchOutcome {
        plan: run.plans.node(best.plan),
        cost: best.cost,
        stats: run.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{example_1_1, example_1_1_memory, three_chain};
    use crate::optimizer::{run, Mode};
    use lec_plan::ColumnRef;

    /// Algorithm D's diagnostics, read off its policy: the winning entry's
    /// result-size distribution and the largest pre-rebucketing product
    /// support.
    fn diagnostics(
        model: &CostModel<'_>,
        memory: &Distribution,
        config: AlgDConfig,
    ) -> (Distribution, usize) {
        let mut policy = MultiParamPolicy::new(memory, config);
        let run = run_search_with(model, PlanShape::LeftDeep, &mut policy).unwrap();
        (
            run.best().pages.to_distribution(),
            policy.max_product_support,
        )
    }

    #[test]
    fn with_point_sizes_d_reduces_to_c() {
        // All selectivities and base sizes certain → D must agree with C.
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 5).unwrap();
        let c = run(&model, &memory, Mode::AlgorithmC).unwrap();
        let d = run(
            &model,
            &memory,
            Mode::AlgorithmD {
                config: AlgDConfig::default(),
            },
        )
        .unwrap();
        assert!(
            (c.cost - d.cost).abs() / c.cost < 1e-9,
            "C {} vs D {}",
            c.cost,
            d.cost
        );
        assert_eq!(c.plan, d.plan);
    }

    #[test]
    fn example_1_1_unchanged_by_d() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let d = run(
            &model,
            &example_1_1_memory(),
            Mode::AlgorithmD {
                config: AlgDConfig::default(),
            },
        )
        .unwrap();
        assert!(crate::fixtures::is_plan2(&d.plan), "{}", d.plan.compact());
        assert!((d.cost - 4_209_000.0).abs() < 1.0);
        // Result size is the certain 3000 pages.
        let (size, _) = diagnostics(&model, &example_1_1_memory(), AlgDConfig::default());
        assert!(size.is_point());
        assert!((size.mean() - 3000.0).abs() < 1e-6);
        // The uniform counters are all populated (the seed hard-coded
        // evals to 0 for Algorithm D).
        assert!(d.stats.nodes > 0);
        assert!(d.stats.candidates > 0);
        assert!(
            d.stats.evals > 0,
            "D must report its §3.6 formula evaluations"
        );
    }

    #[test]
    fn uncertain_selectivity_shifts_the_expected_cost() {
        let (cat, mut q) = example_1_1();
        // Same mean selectivity, but with mass on a 10x larger value: the
        // expected sort cost of the hash plan rises.
        let base = 3000.0 / (1_000_000.0 * 400_000.0);
        q.joins[0].selectivity =
            Distribution::from_pairs([(base * 0.1, 0.5), (base * 1.9, 0.5)]).unwrap();
        let model = CostModel::new(&cat, &q);
        let memory = example_1_1_memory();
        let d = run(
            &model,
            &memory,
            Mode::AlgorithmD {
                config: AlgDConfig::default(),
            },
        )
        .unwrap();
        // Result size now has two buckets: 300 and 5700 pages.
        let (size, _) = diagnostics(&model, &memory, AlgDConfig::default());
        assert_eq!(size.len(), 2);
        assert!((size.mean() - 3000.0).abs() < 1e-6);
        // The plan choice is unchanged (sort cost is still small), but the
        // cost reflects the spread.
        assert!(crate::fixtures::is_plan2(&d.plan), "{}", d.plan.compact());
    }

    #[test]
    fn cube_root_mode_bounds_product_supports() {
        let (cat, mut q) = three_chain();
        for j in &mut q.joins {
            let s = j.selectivity.mean();
            j.selectivity =
                lec_prob::presets::selectivity_band(s / 4.0, (s * 4.0).min(1.0), 6).unwrap();
        }
        let model = CostModel::new(&cat, &q);
        let memory = lec_prob::presets::spread_family(300.0, 0.5, 6).unwrap();
        let full = AlgDConfig {
            cube_root_inputs: false,
            max_buckets: 8,
            ..Default::default()
        };
        let cube = AlgDConfig {
            cube_root_inputs: true,
            max_buckets: 8,
            ..Default::default()
        };
        let (_, full_support) = diagnostics(&model, &memory, full.clone());
        let (_, cube_support) = diagnostics(&model, &memory, cube.clone());
        assert!(
            cube_support <= 27,
            "∛8 = 2 per factor → ≤ 8 product buckets (constructor may merge), got {cube_support}"
        );
        assert!(full_support >= cube_support);
        let rf = run(&model, &memory, Mode::AlgorithmD { config: full }).unwrap();
        let rc = run(&model, &memory, Mode::AlgorithmD { config: cube }).unwrap();
        // Both should agree on cost within a coarse tolerance (rebucketing
        // error), sanity-bounded to the same order of magnitude.
        let ratio = rf.cost / rc.cost;
        assert!((0.2..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn uncertain_base_size_is_consumed() {
        // Rebuild the Example 1.1 catalog with B's size uncertain around
        // the same mean: the result-size distribution must spread out.
        let (cat, q) = example_1_1();
        let mut cat2 = lec_catalog::Catalog::new();
        cat2.add_table("A", cat.table(lec_catalog::TableId(0)).stats.clone());
        let mut b_stats = cat.table(lec_catalog::TableId(1)).stats.clone();
        b_stats.page_dist = Some(Distribution::bimodal(200_000.0, 600_000.0, 0.5).unwrap());
        cat2.add_table("B", b_stats);
        let model = CostModel::new(&cat2, &q);
        let memory = example_1_1_memory();
        let d = run(
            &model,
            &memory,
            Mode::AlgorithmD {
                config: AlgDConfig::default(),
            },
        )
        .unwrap();
        assert!(d.cost > 0.0);
        let (size, _) = diagnostics(&model, &memory, AlgDConfig::default());
        assert!(!size.is_point());
    }

    #[test]
    fn zero_buckets_rejected() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let config = AlgDConfig {
            max_buckets: 0,
            ..Default::default()
        };
        assert!(matches!(
            run(&model, &example_1_1_memory(), Mode::AlgorithmD { config }),
            Err(OptError::BadParameter(_))
        ));
    }

    #[test]
    fn d_handles_required_order_with_uncertain_result_size() {
        let (cat, mut q) = three_chain();
        q.required_order = Some(ColumnRef::new(0, 0));
        for j in &mut q.joins {
            let s = j.selectivity.mean();
            j.selectivity =
                lec_prob::presets::selectivity_band(s / 3.0, (s * 3.0).min(1.0), 4).unwrap();
        }
        let model = CostModel::new(&cat, &q);
        let memory = lec_prob::presets::spread_family(250.0, 0.4, 4).unwrap();
        let d = run(
            &model,
            &memory,
            Mode::AlgorithmD {
                config: AlgDConfig::default(),
            },
        )
        .unwrap();
        // The winning plan must end sorted (either via SM order or a Sort).
        assert!(lec_cost::output_order(&model, &d.plan).is_required());
    }
}
