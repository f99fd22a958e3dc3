//! Bushy-plan LEC optimization — the §4 extension.
//!
//! The paper's presentation restricts the DP to left-deep plans (the
//! System R heuristic of §2.2) and lists bushy trees under concluding
//! remarks as the main thing its "rather simplistic" treatment omits.
//! Theorem 3.3's proof only uses additivity of cost over subplans and
//! linearity of expectation, neither of which cares about tree shape —
//! so the same DP over *partitions* of each subset yields the LEC bushy
//! plan.  This module implements that generalization for static memory
//! distributions (the §3.5 phase model is inherently sequential and does
//! not transfer to bushy trees without a parallelism model, which the
//! paper also flags as out of scope).
//!
//! Policy over the engine: the *same* [`crate::search::KeepBestPolicy`] +
//! [`crate::search::MemoryCoster::new`] as Algorithm C — only the
//! [`crate::search::PlanShape`] changes ([`crate::Mode::Bushy`]).  That
//! one-word difference is the whole point of the pluggable engine.

#[cfg(test)]
mod tests {
    use crate::fixtures::{example_1_1, example_1_1_memory, three_chain};
    use crate::optimizer::{run, Mode};
    use lec_cost::CostModel;
    use lec_prob::presets;
    use lec_prob::Distribution;

    #[test]
    fn bushy_equals_left_deep_on_two_tables() {
        // With two tables the spaces coincide.
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let memory = example_1_1_memory();
        let ld = run(&model, &memory, Mode::AlgorithmC).unwrap();
        let bu = run(&model, &memory, Mode::Bushy).unwrap();
        assert!((ld.cost - bu.cost).abs() < 1e-9);
    }

    #[test]
    fn bushy_never_loses_to_left_deep() {
        // Left-deep plans are a subset of bushy plans.
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        for spread in [0.0, 0.4, 0.8] {
            for center in [80.0, 400.0, 2000.0] {
                let memory = presets::spread_family(center, spread, 5).unwrap();
                let ld = run(&model, &memory, Mode::AlgorithmC).unwrap();
                let bu = run(&model, &memory, Mode::Bushy).unwrap();
                assert!(
                    bu.cost <= ld.cost + 1e-9,
                    "center {center} spread {spread}: bushy {} vs left-deep {}",
                    bu.cost,
                    ld.cost
                );
            }
        }
    }

    #[test]
    fn bushy_cost_replays_through_the_cost_model() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let memory = presets::spread_family(300.0, 0.7, 4).unwrap();
        let bu = run(&model, &memory, Mode::Bushy).unwrap();
        let replay = lec_cost::expected_plan_cost_static(&model, &bu.plan, &memory);
        assert_eq!(
            bu.cost.to_bits(),
            replay.to_bits(),
            "{} vs {replay}",
            bu.cost
        );
    }

    #[test]
    fn bushy_strictly_beats_left_deep_on_a_diamond() {
        // The classic bushy-win shape needs BOTH join inputs composite:
        // a "diamond" A–B–C–D chain where A⋈B and C⋈D are tiny but any
        // left-deep prefix must drag a large intermediate across the
        // middle predicate.
        let (cat, q) = crate::fixtures::diamond();
        let model = CostModel::new(&cat, &q);
        let memory = presets::spread_family(500.0, 0.5, 4).unwrap();
        let ld = run(&model, &memory, Mode::AlgorithmC).unwrap();
        let bu = run(&model, &memory, Mode::Bushy).unwrap();
        assert!(
            bu.cost < ld.cost * 0.9,
            "bushy {} should clearly beat left-deep {}",
            bu.cost,
            ld.cost
        );
        assert!(
            !bu.plan.is_left_deep(),
            "winner must be bushy: {}",
            bu.plan.compact()
        );
    }

    #[test]
    fn bushy_point_distribution_matches_left_deep_at_points() {
        // At a point the bushy optimum is still ≤ the left-deep optimum;
        // for a chain of 3 they coincide (no bushy advantage possible).
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        for m in [50.0, 500.0, 5000.0] {
            let memory = Distribution::point(m);
            let ld = run(&model, &memory, Mode::AlgorithmC).unwrap();
            let bu = run(&model, &memory, Mode::Bushy).unwrap();
            assert!(bu.cost <= ld.cost + 1e-9);
        }
    }
}
