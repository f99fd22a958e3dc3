//! Algorithm B: generating more candidates with top-c lists (§3.3).
//!
//! "For each value m_i of the memory parameter" the paper runs a top-`c`
//! search; here the representatives are the lanes of one
//! [`TopCPolicy`] search (the Proposition 3.1 frontier lives in the
//! policy), then the union of the lanes' distinct root candidates is
//! EC-ranked (`alg_a::rank_by_expected_cost`).  Algorithm A is this
//! search at `c = 1`.
//!
//! The search is left-deep, as the paper's "if we join A_j last" is: the
//! frontier prices a split's candidates at one inner size, which only a
//! single inner table guarantees, so [`TopCPolicy`] refuses a bushy
//! split.
//!
//! The lanes share everything that does not read memory — the level walk,
//! each split's `CostModel::split`, the outer grouping, one plan arena — and, at
//! each subset, the lanes that have agreed bit for bit on every split's
//! inputs and join prices so far form one class, whose top-`c` insert
//! walk runs once and whose entries are stored once.  Sharing is exact: a
//! lane's kept lists are what its own search would keep, and each lane
//! still prices its own splits and counts its own work, so plans, cost
//! bits and every [`SearchStats`] counter equal those of one search per
//! representative.  More than [`MAX_LANES`] representatives run in
//! passes of that many lanes.

use crate::error::OptError;
use crate::search::{
    run_search_with, PlanShape, SearchOutcome, SearchStats, TopCPolicy, MAX_LANES,
};
use lec_cost::CostModel;
use lec_plan::PlanNode;
use lec_prob::Distribution;

/// Algorithm B's ranking: the top-`c` plans of every memory
/// representative, one lane each, the union EC-ranked in representative
/// order.  The Proposition 3.1 counters stay on the policy's
/// [`TopCPolicy::frontier`].
pub(crate) fn rank_top_c_plans(
    model: &CostModel<'_>,
    memory: &Distribution,
    c: usize,
) -> Result<SearchOutcome, OptError> {
    if c == 0 {
        return Err(OptError::BadParameter("Algorithm B requires c >= 1"));
    }
    let reps = crate::alg_a::representatives(memory);

    let mut stats = SearchStats::default();
    let mut candidates: Vec<PlanNode> = Vec::new();
    for pass in reps.chunks(MAX_LANES) {
        let mut policy = TopCPolicy::with_lanes(pass, c);
        let run = run_search_with(model, PlanShape::LeftDeep, &mut policy)?;
        stats.absorb(&run.stats);
        for e in &run.roots {
            let plan = run.plans.node(e.plan);
            if !candidates.contains(&plan) {
                candidates.push(plan);
            }
        }
    }
    crate::alg_a::rank_by_expected_cost(model, memory, candidates, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg_a::representatives;
    use crate::fixtures::{example_1_1, example_1_1_memory, three_chain};
    use crate::optimizer::{run, Mode};
    use crate::search::FrontierStats;

    /// Algorithm B's Proposition 3.1 counters: its lanes', summed.
    fn frontier(model: &CostModel<'_>, memory: &Distribution, c: usize) -> FrontierStats {
        let mut policy = TopCPolicy::with_lanes(&representatives(memory), c);
        run_search_with(model, PlanShape::LeftDeep, &mut policy).unwrap();
        policy.frontier
    }

    #[test]
    fn b_with_c1_matches_a() {
        // With c = 1, Algorithm B's candidate per memory value is that
        // value's least-cost plan — Algorithm A, plan, cost bits and work.
        let work = |s: SearchStats| {
            format!(
                "{:?}",
                SearchStats {
                    elapsed: Default::default(),
                    ..s
                }
            )
        };
        let (cat, q) = example_1_1();
        let (cat3, q3) = three_chain();
        let spread = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        for (cat, q, memory) in [(&cat, &q, example_1_1_memory()), (&cat3, &q3, spread)] {
            let model = CostModel::new(cat, q);
            let a = run(&model, &memory, Mode::AlgorithmA).unwrap();
            let b = run(&model, &memory, Mode::AlgorithmB { c: 1 }).unwrap();
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            assert_eq!(work(a.stats), work(b.stats));
        }
    }

    #[test]
    fn b_improves_monotonically_with_c() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let memory = lec_prob::presets::spread_family(300.0, 0.8, 5).unwrap();
        let mut last = f64::INFINITY;
        for c in [1, 2, 4, 8] {
            let b = run(&model, &memory, Mode::AlgorithmB { c }).unwrap();
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
            let a = run(&model, &memory, Mode::AlgorithmA).unwrap();
            let b = run(&model, &memory, Mode::AlgorithmB { c: 3 }).unwrap();
            let c = run(&model, &memory, Mode::AlgorithmC).unwrap();
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
            // Per group, examined ≤ c + c·log c (the bound_total is the
            // per-group bound times the number of groups).
            let f = frontier(&model, &memory, c);
            assert!(
                f.combinations_examined <= f.bound_total,
                "c={c}: {} > {}",
                f.combinations_examined,
                f.bound_total
            );
            assert!(f.groups > 0);
        }
    }

    /// The Prop 3.1 bound of `c = usize::MAX` is itself `u64::MAX`: the
    /// frontier total saturates instead of overflowing (a debug build
    /// used to panic on the second group).
    #[test]
    fn huge_c_saturates_the_frontier_bound() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let memory = example_1_1_memory();
        let huge = run(&model, &memory, Mode::AlgorithmB { c: usize::MAX }).unwrap();
        assert_eq!(frontier(&model, &memory, usize::MAX).bound_total, u64::MAX);
        let c3 = run(&model, &memory, Mode::AlgorithmB { c: 3 }).unwrap();
        assert!(huge.cost <= c3.cost, "a candidate superset cannot hurt");
    }

    #[test]
    fn example_1_1_found_by_b() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let memory = example_1_1_memory();
        let b = run(&model, &memory, Mode::AlgorithmB { c: 2 }).unwrap();
        assert!(crate::fixtures::is_plan2(&b.plan), "{}", b.plan.compact());
        assert!((b.cost - 4_209_000.0).abs() < 1.0);
    }

    #[test]
    fn c_zero_is_rejected() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        assert!(matches!(
            run(&model, &example_1_1_memory(), Mode::AlgorithmB { c: 0 }),
            Err(OptError::BadParameter(_))
        ));
    }
}
