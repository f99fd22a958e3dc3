//! Property tests for the optimizer crate: DP entry pruning, algorithm
//! orderings and bucketing.

use lec_catalog::CatalogGenerator;
use lec_core::alg_a::representatives;
use lec_core::search::TopCPolicy;
use lec_core::{
    bucketize, optimize, run_search_with, BucketStrategy, Mode, OptError, PlanShape, PointEstimate,
    SearchOutcome,
};
use lec_cost::{expected_plan_cost_static, CostModel};
use lec_plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_prob::{presets, Distribution, MarkovChain};
use proptest::prelude::*;

/// [`optimize`] taking the mode by value.
fn run(
    model: &CostModel<'_>,
    memory: &Distribution,
    mode: Mode,
) -> Result<SearchOutcome, OptError> {
    optimize(model, memory, &mode)
}

fn workload(seed: u64, n: usize) -> (lec_catalog::Catalog, Query) {
    let mut g = CatalogGenerator::new(seed);
    let cat = g.generate(n + 1);
    let ids = g.pick_tables(&cat, n);
    let mut wg = WorkloadGenerator::new(seed ^ 0xBEEF);
    let q = wg.gen_query(
        &cat,
        &ids,
        &QueryProfile {
            topology: Topology::Random,
            ..Default::default()
        },
    );
    (cat, q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The theorem-grade quality chain on random workloads:
    /// bushy ≤ C ≤ {A, B(c)} and A ≤ EC(LSC plan).
    ///
    /// (A and B are not mutually ordered in general: when several plans tie
    /// on *point* cost at some memory value, A and B may keep different
    /// tied representatives whose *expected* costs differ.)
    #[test]
    fn quality_chain(
        seed in 0u64..5000,
        n in 3usize..6,
        center in 60.0f64..2500.0,
        spread in 0.05f64..0.95,
        c in 2usize..5,
    ) {
        let (cat, q) = workload(seed, n);
        let model = CostModel::new(&cat, &q);
        let memory = presets::spread_family(center, spread, 5).unwrap();
        let lsc = run(&model, &memory, Mode::Lsc(PointEstimate::Mean)).unwrap();
        let lsc_ec = expected_plan_cost_static(&model, &lsc.plan, &memory);
        let a = run(&model, &memory, Mode::AlgorithmA).unwrap();
        let bc = run(&model, &memory, Mode::AlgorithmB { c }).unwrap();
        let cc = run(&model, &memory, Mode::AlgorithmC).unwrap();
        let bu = run(&model, &memory, Mode::Bushy).unwrap();
        prop_assert!(a.cost <= lsc_ec + 1e-6);
        prop_assert!(cc.cost <= a.cost + 1e-6);
        prop_assert!(cc.cost <= bc.cost + 1e-6);
        prop_assert!(bu.cost <= cc.cost + 1e-6);
    }

    /// Algorithm B's frontier counters never exceed the Prop 3.1 bound,
    /// at any of its memory representatives.
    #[test]
    fn frontier_bound(seed in 0u64..5000, n in 3usize..6, c in 1usize..12) {
        let (cat, q) = workload(seed, n);
        let model = CostModel::new(&cat, &q);
        let memory = presets::spread_family(300.0, 0.6, 4).unwrap();
        for m in representatives(&memory) {
            let mut policy = TopCPolicy::new(m, c);
            run_search_with(&model, PlanShape::LeftDeep, &mut policy).unwrap();
            prop_assert!(policy.frontier.combinations_examined <= policy.frontier.bound_total);
        }
    }

    /// Every bucketing strategy preserves mass and mean on random truths
    /// and never exceeds its budget.
    #[test]
    fn bucketize_budget_and_moments(
        truth_pairs in prop::collection::vec((10.0f64..5000.0, 0.05f64..1.0), 2..40),
        b in 1usize..12,
        strat_idx in 0usize..3,
        cuts in prop::collection::vec(10.0f64..5000.0, 0..6),
    ) {
        let truth = Distribution::from_pairs(truth_pairs).unwrap();
        let strategy = [BucketStrategy::EqualWidth, BucketStrategy::EqualDepth, BucketStrategy::LevelSet][strat_idx];
        let mut sorted_cuts = cuts.clone();
        sorted_cuts.sort_by(f64::total_cmp);
        let d = bucketize(&truth, b, strategy, &sorted_cuts);
        prop_assert!(d.len() <= b.max(truth.len().min(b)));
        let mass: f64 = d.probs().iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
        let scale = truth.mean().abs().max(1.0);
        prop_assert!((d.mean() - truth.mean()).abs() / scale < 1e-9);
    }

    /// "The standard approach [is] the special case where there is only
    /// one bucket": on fresh models LSC at `m`, Algorithm C under a point
    /// at `m` and dynamic Algorithm C from that point under a chain that
    /// never moves are one search — same plan, same cost bits, same work.
    #[test]
    fn single_bucket_degeneracy(seed in 0u64..5000, n in 2usize..6, m in 10.0f64..5000.0) {
        let (cat, q) = workload(seed, n);
        let at_m = Distribution::point(m);
        let chain = MarkovChain::identity(vec![m]).unwrap();
        let fresh = |mode: Mode| {
            let r = optimize(&CostModel::new(&cat, &q), &at_m, &mode).unwrap();
            (r.plan.compact(), r.cost.to_bits(), work_counters(&r))
        };
        let lsc = fresh(Mode::LscAt(m));
        prop_assert_eq!(&lsc, &fresh(Mode::AlgorithmC));
        prop_assert_eq!(&lsc, &fresh(Mode::AlgorithmCDynamic { chain }));
    }
}

/// The work counters `golden_answers.rs` pins that a search can move.
fn work_counters(r: &SearchOutcome) -> [u64; 4] {
    let s = &r.stats;
    [s.nodes as u64, s.candidates, s.evals, s.cache_hits]
}

/// One path, priced in place: on a *shared* model, LSC at `m` and
/// Algorithm C under a point at `m` return the same plan and cost bits and
/// do the same formula work — the second run finds nothing memoized,
/// because nothing outlives a search.
#[test]
fn a_point_search_and_a_one_bucket_search_do_the_same_work() {
    for (cat, q) in [
        lec_core::fixtures::three_chain(),
        lec_core::fixtures::scaling_chain(6),
        lec_core::fixtures::pruning_star(6),
    ] {
        let m = 400.0;
        let model = CostModel::new(&cat, &q);
        let lsc = run(&model, &Distribution::point(m), Mode::LscAt(m)).unwrap();
        let lec = run(&model, &Distribution::point(m), Mode::AlgorithmC).unwrap();
        assert_eq!(lsc.plan, lec.plan);
        assert_eq!(lsc.cost.to_bits(), lec.cost.to_bits());
        assert_eq!(lsc.stats.evals, lec.stats.evals);
        assert_eq!((lsc.stats.cache_hits, lec.stats.cache_hits), (0, 0));
    }
}
