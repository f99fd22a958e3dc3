//! Property-based verification of the paper's optimality theorems against
//! the oracle (`lec_cost::oracle`: every plan enumerated and priced by the
//! plan replay, with no search code), on randomly generated catalogs and
//! queries.

use lec_qopt::catalog::{CatalogGenerator, CatalogProfile};
use lec_qopt::core::{optimize, Mode, OptError, SearchOutcome};
use lec_qopt::cost::{oracle, CostModel, Objective};
use lec_qopt::plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_qopt::prob::{presets, Distribution, MarkovChain};
use proptest::prelude::*;

/// [`optimize`] taking the mode by value.
fn run(
    model: &CostModel<'_>,
    memory: &Distribution,
    mode: Mode,
) -> Result<SearchOutcome, OptError> {
    optimize(model, memory, &mode)
}

/// The oracle's optimal left-deep cost under `objective`.
fn best_cost(model: &CostModel<'_>, objective: &Objective) -> f64 {
    oracle::left_deep(model, objective)
        .expect("generated queries are connected")
        .cost
}

fn random_workload(seed: u64, n: usize, topology: Topology) -> (lec_qopt::catalog::Catalog, Query) {
    let profile = CatalogProfile {
        min_pages: 50,
        max_pages: 500_000,
        ..Default::default()
    };
    let mut g = CatalogGenerator::with_profile(seed, profile);
    let cat = g.generate(n + 1);
    let ids = g.pick_tables(&cat, n);
    let mut wg = WorkloadGenerator::new(seed ^ 0xABCD);
    let q = wg.gen_query(
        &cat,
        &ids,
        &QueryProfile {
            topology,
            ..Default::default()
        },
    );
    (cat, q)
}

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(Topology::Chain),
        Just(Topology::Star),
        Just(Topology::Clique),
        Just(Topology::Random),
    ]
}

// The DP-against-oracle checks compare within relative 1e-9.  A search's
// cost and the oracle's are each a plan's replay to the bit, but not always
// the same plan's: a subset's size depends on the order that joined it (the
// one-page clamp on a join's output), so the DP can keep a plan whose
// replay lands an ulp above the oracle's optimum.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 2.1: the DP at a point finds the oracle's optimum at a point.
    #[test]
    fn lsc_dp_is_optimal(
        seed in 0u64..5000,
        n in 3usize..5,
        topology in arb_topology(),
        mem in 10.0f64..5000.0,
    ) {
        let (cat, q) = random_workload(seed, n, topology);
        let model = CostModel::new(&cat, &q);
        let dp = run(&model, &Distribution::point(mem), Mode::LscAt(mem)).unwrap();
        let ex = best_cost(&model, &Objective::Static(Distribution::point(mem)));
        prop_assert!(
            (dp.cost - ex).abs() / ex.max(1.0) < 1e-9,
            "dp {} vs oracle {}", dp.cost, ex
        );
    }

    /// Theorem 3.3: Algorithm C computes the LEC left-deep plan.
    #[test]
    fn algorithm_c_is_optimal(
        seed in 0u64..5000,
        n in 3usize..5,
        topology in arb_topology(),
        center in 50.0f64..3000.0,
        spread in 0.1f64..0.95,
        buckets in 2usize..7,
    ) {
        let (cat, q) = random_workload(seed, n, topology);
        let model = CostModel::new(&cat, &q);
        let memory = presets::spread_family(center, spread, buckets).unwrap();
        let dp = run(&model, &memory, Mode::AlgorithmC).unwrap();
        let ex = best_cost(&model, &Objective::Static(memory));
        prop_assert!(
            (dp.cost - ex).abs() / ex.max(1.0) < 1e-9,
            "dp {} vs oracle {}", dp.cost, ex
        );
    }

    /// Theorem 3.4: Algorithm C stays optimal under Markov drift.
    #[test]
    fn dynamic_algorithm_c_is_optimal(
        seed in 0u64..5000,
        n in 3usize..5,
        p_down in 0.05f64..0.45,
        p_up in 0.05f64..0.45,
    ) {
        let (cat, q) = random_workload(seed, n, Topology::Chain);
        let model = CostModel::new(&cat, &q);
        let states = vec![60.0, 240.0, 960.0, 3840.0];
        let chain = MarkovChain::birth_death(states, p_down, p_up).unwrap();
        let initial = Distribution::bimodal(240.0, 3840.0, 0.5).unwrap();
        let dp = run(&model, &initial, Mode::AlgorithmCDynamic { chain: chain.clone() }).unwrap();
        let ex = best_cost(&model, &Objective::Dynamic { initial, chain });
        prop_assert!(
            (dp.cost - ex).abs() / ex.max(1.0) < 1e-9,
            "dp {} vs oracle {}", dp.cost, ex
        );
    }

    /// Definitional: the LEC plan's EC lower-bounds every plan the
    /// oracle can build.
    #[test]
    fn lec_cost_lower_bounds_sampled_plans(
        seed in 0u64..5000,
        n in 3usize..5,
        center in 100.0f64..2000.0,
    ) {
        let (cat, q) = random_workload(seed, n, Topology::Random);
        let model = CostModel::new(&cat, &q);
        let memory = presets::spread_family(center, 0.7, 5).unwrap();
        let lec = run(&model, &memory, Mode::AlgorithmC).unwrap();
        // LSC plans at various points are a plan sample; none may beat LEC
        // in expectation.
        for m in [memory.min_value(), memory.mean(), memory.max_value()] {
            let p = run(&model, &Distribution::point(m), Mode::LscAt(m)).unwrap();
            let ec = lec_qopt::cost::expected_plan_cost_static(&model, &p.plan, &memory);
            prop_assert!(lec.cost <= ec + 1e-6);
        }
    }
}
