//! Algorithm C: the LEC plan by dynamic programming on expected cost
//! (§3.4, Theorem 3.3), including the §3.5 dynamic-memory variant
//! (Theorem 3.4).
//!
//! "We now provide a generic modification of the basic System R query
//! optimizer that can directly compute the LEC plan, merging the candidate
//! generation and costing phases. ... We retain the plan for S with the
//! least expected total cost, discarding all the other candidates."
//!
//! Policy over the engine: [`crate::search::KeepBestPolicy`] with
//! [`crate::search::MemoryCoster::new`] under the mode's
//! [`crate::Mode::objective`] — the static belief for
//! [`crate::Mode::AlgorithmC`], its per-phase marginals for §3.5's
//! [`crate::Mode::AlgorithmCDynamic`] — over the left-deep shape: the
//! same coster LSC runs under, holding `b` buckets instead of one.
//!
//! If the distribution has `b` buckets, every join candidate is costed
//! with `b` evaluations of the cost formula — the paper's "b times the
//! cost of the standard computation using a single memory size".
//!
//! The dynamic variant, in the paper's words: "We simply associate the
//! initial distribution with the root of the dag, and use the transition
//! probabilities to compute the distribution associated with each node.
//! We can then apply the algorithm without change."

#[cfg(test)]
mod tests {
    use crate::fixtures::{example_1_1, example_1_1_memory, three_chain};
    use crate::optimizer::{lsc_at, run, Mode};
    use lec_cost::{CostModel, Objective};
    use lec_prob::{Distribution, MarkovChain};

    #[test]
    fn algorithm_c_picks_plan2_in_example_1_1() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let memory = example_1_1_memory();
        let r = run(&model, &memory, Mode::AlgorithmC).unwrap();
        assert!(
            crate::fixtures::is_plan2(&r.plan),
            "the paper's Plan 2, got {}",
            r.plan.compact()
        );
        // EC = scans + hash passes + sort: 1.4e6 + 2.8e6 + 9000.
        assert!((r.cost - 4_209_000.0).abs() < 1.0);
    }

    #[test]
    fn lec_cost_is_never_worse_than_lsc_plan_expected_cost() {
        // Definitional: EC(LEC plan) <= EC(LSC plan) under the same dist.
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        for spread in [0.0, 0.3, 0.8] {
            let memory = lec_prob::presets::spread_family(400.0, spread, 5).unwrap();
            let lec = run(&model, &memory, Mode::AlgorithmC).unwrap();
            let lsc = lsc_at(&model, memory.mean()).unwrap();
            let lsc_ec = lec_cost::expected_plan_cost_static(&model, &lsc.plan, &memory);
            assert!(
                lec.cost <= lsc_ec + 1e-6,
                "spread {spread}: LEC {} vs LSC-EC {lsc_ec}",
                lec.cost
            );
        }
    }

    #[test]
    fn point_distribution_reduces_to_lsc() {
        // "the standard approach ... the special case where there is only
        // one bucket" — with a point mass, Algorithm C must return a plan
        // of identical cost to the LSC run at that value.
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        for m in [40.0, 300.0, 2500.0, 60_000.0] {
            let lec = run(&model, &Distribution::point(m), Mode::AlgorithmC).unwrap();
            let lsc = lsc_at(&model, m).unwrap();
            assert!(
                (lec.cost - lsc.cost).abs() < 1e-9,
                "m={m}: {} vs {}",
                lec.cost,
                lsc.cost
            );
        }
    }

    #[test]
    fn reported_cost_matches_expected_cost_replay() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let memory = lec_prob::presets::spread_family(500.0, 0.7, 4).unwrap();
        let r = run(&model, &memory, Mode::AlgorithmC).unwrap();
        let replay = lec_cost::expected_plan_cost_static(&model, &r.plan, &memory);
        assert_eq!(r.cost.to_bits(), replay.to_bits(), "{} vs {replay}", r.cost);
    }

    #[test]
    fn dynamic_with_identity_chain_equals_static() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let memory = Distribution::bimodal(100.0, 1000.0, 0.6).unwrap();
        let chain = MarkovChain::identity(vec![100.0, 1000.0]).unwrap();
        let stat = run(&model, &memory, Mode::AlgorithmC).unwrap();
        let dynm = run(
            &model,
            &memory,
            Mode::AlgorithmCDynamic {
                chain: chain.clone(),
            },
        )
        .unwrap();
        assert!((stat.cost - dynm.cost).abs() < 1e-9);
        assert_eq!(stat.plan, dynm.plan);
    }

    #[test]
    fn dynamic_cost_matches_dynamic_replay() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let states = vec![100.0, 400.0, 1600.0];
        let chain = MarkovChain::birth_death(states.clone(), 0.3, 0.1).unwrap();
        let initial = Distribution::from_pairs([(400.0, 1.0)]).unwrap();
        let r = run(
            &model,
            &initial,
            Mode::AlgorithmCDynamic {
                chain: chain.clone(),
            },
        )
        .unwrap();
        let replay = Objective::Dynamic { initial, chain }.replay(&model, &r.plan);
        assert_eq!(r.cost.to_bits(), replay.to_bits(), "{} vs {replay}", r.cost);
    }

    #[test]
    fn dynamic_drift_can_change_the_plan() {
        // Start at high memory but collapse to very low memory after the
        // first phase: a plan whose later phases are memory-hungry loses.
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        // With 2 tables there is 1 join phase + 1 sort phase; the sort
        // phase sees the post-collapse distribution.
        let chain =
            MarkovChain::new(vec![10.0, 2000.0], vec![vec![1.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let initial = Distribution::point(2000.0);
        let dynm = run(
            &model,
            &initial,
            Mode::AlgorithmCDynamic {
                chain: chain.clone(),
            },
        )
        .unwrap();
        let stat = run(&model, &initial, Mode::AlgorithmC).unwrap();
        // Statically, 2000 pages favours the bare SM plan (Plan 1).
        assert!(
            crate::fixtures::is_plan1(&stat.plan),
            "{}",
            stat.plan.compact()
        );
        // Dynamically the sort (if any) runs at 10 pages: ∛3000≈14.4 > 10
        // → 7·3000 = 21000 extra for the hash plan, SM still wins; but the
        // *costs* must reflect the drifted phases, so dynamic == static
        // here only in plan, not in general cost for multi-phase plans.
        assert!(
            crate::fixtures::is_plan1(&dynm.plan),
            "{}",
            dynm.plan.compact()
        );
        assert!(
            (dynm.cost - stat.cost).abs() < 1e-9,
            "single join phase at 2000"
        );
    }
}
