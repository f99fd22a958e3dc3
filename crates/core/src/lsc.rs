//! The LSC baseline: classical System R optimization at one fixed setting
//! of the parameters (Theorem 2.1).
//!
//! "Current optimizers simply approximate each distribution by using the
//! mean or modal value.  They then choose the plan that is cheapest under
//! the assumption that the parameters actually take these specific values
//! and remain constant during execution.  We call this the least specific
//! cost (LSC) plan." (§1)
//!
//! Policy over the engine: [`crate::search::KeepBestPolicy`] with
//! [`crate::search::MemoryCoster::new`] under a point objective
//! ([`crate::Mode::objective`]) — the memory value as a one-bucket
//! distribution, "the special case where there is only one bucket" —
//! over the left-deep shape ([`crate::Mode::Lsc`] and
//! [`crate::Mode::LscAt`]).

/// Which point of the memory distribution the LSC optimizer assumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointEstimate {
    /// The mean of the distribution (1740 pages in Example 1.1).
    Mean,
    /// The modal value (2000 pages in Example 1.1).
    Mode,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{example_1_1, example_1_1_memory, three_chain};
    use crate::optimizer::{lsc_at, run, Mode};
    use lec_cost::CostModel;
    use lec_plan::{JoinMethod, Step};

    #[test]
    fn lsc_picks_plan1_in_example_1_1() {
        // At both the modal (2000) and mean (1740) memory, the LSC plan is
        // the sort-merge plan — the paper's Plan 1.
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let memory = example_1_1_memory();
        for est in [PointEstimate::Mean, PointEstimate::Mode] {
            let r = run(&model, &memory, Mode::Lsc(est)).unwrap();
            match r.plan.root().node() {
                Step::Join(method, ..) => assert_eq!(method, JoinMethod::SortMerge, "{est:?}"),
                _ => panic!("expected bare SM join, got {}", r.plan.compact()),
            }
            // Scans + two passes.
            assert_eq!(r.cost, 1_400_000.0 + 2.0 * 1_400_000.0);
        }
    }

    #[test]
    fn lsc_at_low_memory_prefers_the_hash_plan() {
        // At 700 pages the Grace plan (flat) beats SM (which needs an
        // extra pass) even after paying the final sort.
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let r = lsc_at(&model, 700.0).unwrap();
        assert!(crate::fixtures::is_plan2(&r.plan), "{}", r.plan.compact());
        assert_eq!(r.cost, 1_400_000.0 + 2.0 * 1_400_000.0 + 9000.0);
    }

    #[test]
    fn reported_cost_matches_replay_through_the_cost_model() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        for m in [50.0, 200.0, 1000.0, 50_000.0] {
            let r = lsc_at(&model, m).unwrap();
            let replay = lec_cost::plan_cost_at(&model, &r.plan, m);
            assert_eq!(
                r.cost.to_bits(),
                replay.to_bits(),
                "m={m}: dp cost {} vs replay {replay}",
                r.cost
            );
            assert!(r.plan.is_left_deep());
        }
    }

    #[test]
    fn stats_are_populated() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let r = lsc_at(&model, 1000.0).unwrap();
        // 3 singletons + 2 pairs (chain: {0,1},{1,2} connected; {0,2} not) + full set
        assert_eq!(r.stats.nodes, 6);
        assert!(r.stats.candidates > 0);
        assert!(r.stats.evals > 0);
    }

    #[test]
    fn more_memory_never_costs_more() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let mut last = f64::INFINITY;
        for m in [10.0, 100.0, 1000.0, 10_000.0, 100_000.0] {
            let r = lsc_at(&model, m).unwrap();
            assert!(
                r.cost <= last + 1e-9,
                "optimal cost must be monotone in memory"
            );
            last = r.cost;
        }
    }
}
