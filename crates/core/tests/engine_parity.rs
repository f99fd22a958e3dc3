//! Engine-parity properties: every policy plugged into the shared search
//! engine must agree with the keep-all (exhaustive) policy on randomized
//! 3–5 table fixtures, across seeds — in objective value always, and in
//! the plan bytes whenever the optimum is unique.  Also pins the
//! degeneracies the paper implies: Algorithm B at `c = 1` collapses to
//! Algorithm A, and with `c` large enough to hold every candidate list it
//! collapses to Algorithm C.  (`priced_once_parity.rs` holds the policies
//! to eager references that price every candidate.)

use lec_core::search::{run_search_with, KeepAllPolicy, PlanShape};
use lec_core::{
    exhaustive_best, optimize, AlgDConfig, MemoryCoster, Mode, OptError, SearchConfig,
    SearchOutcome,
};
use lec_cost::CostModel;
use lec_plan::{PlanNode, Query, QueryProfile, Topology, WorkloadGenerator};
use lec_prob::{presets, Distribution, MarkovChain};
use proptest::prelude::*;

/// [`optimize`] under the default [`SearchConfig`].
fn run(
    model: &CostModel<'_>,
    memory: &Distribution,
    mode: Mode,
) -> Result<SearchOutcome, OptError> {
    optimize(model, memory, &mode, &SearchConfig::default())
}

/// The keep-all reference oracle under the default [`SearchConfig`].
fn oracle(
    model: &CostModel<'_>,
    coster: MemoryCoster,
    shape: PlanShape,
) -> Result<SearchOutcome, OptError> {
    exhaustive_best(model, coster, shape, &SearchConfig::default())
}

fn workload(seed: u64, n: usize) -> (lec_catalog::Catalog, Query) {
    let mut g = lec_catalog::CatalogGenerator::new(seed);
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

fn rel_eq(a: f64, b: f64) -> bool {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0) < 1e-9
}

/// When the optimum over `shape` × `objective` is unique (no other plan
/// within relative 1e-6), return it for byte-identity checks.
fn unique_optimum(
    model: &CostModel<'_>,
    memory: Option<&Distribution>,
    point: Option<f64>,
    shape: PlanShape,
) -> Option<(PlanNode, f64)> {
    let run = match (memory, point) {
        (Some(d), None) => run_search_with(
            model,
            shape,
            &mut KeepAllPolicy::new(MemoryCoster::fixed(d)),
            &SearchConfig::default(),
        ),
        (None, Some(m)) => run_search_with(
            model,
            shape,
            &mut KeepAllPolicy::new(MemoryCoster::point(m)),
            &SearchConfig::default(),
        ),
        _ => unreachable!("exactly one objective"),
    }
    .expect("keep-all search succeeds on generated workloads");
    let best = *run.best();
    let near = run
        .roots
        .iter()
        .filter(|e| {
            use lec_core::search::SearchEntry;
            (e.cost() - best.cost).abs() / best.cost.max(1.0) < 1e-6
        })
        .count();
    (near == 1).then_some((run.plans.node(best.plan), best.cost))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Theorem 2.1 through the engine: the point policy equals the
    /// keep-all policy, bytes included when unique.
    #[test]
    fn lsc_matches_exhaustive(seed in 0u64..4000, n in 3usize..6, mem in 20.0f64..4000.0) {
        let (cat, q) = workload(seed, n);
        let model = CostModel::new(&cat, &q);
        let dp = run(&model, &Distribution::point(mem), Mode::LscAt(mem)).unwrap();
        let ex = oracle(&model, MemoryCoster::point(mem), PlanShape::LeftDeep).unwrap();
        prop_assert!(rel_eq(dp.cost, ex.cost), "dp {} vs exhaustive {}", dp.cost, ex.cost);
        if let Some((plan, _)) = unique_optimum(&model, None, Some(mem), PlanShape::LeftDeep) {
            prop_assert_eq!(&dp.plan, &plan, "unique optimum must match byte-for-byte");
        }
    }

    /// Theorem 3.3 through the engine, same byte-identity contract.
    #[test]
    fn alg_c_matches_exhaustive(
        seed in 0u64..4000,
        n in 3usize..6,
        center in 60.0f64..2500.0,
        spread in 0.1f64..0.9,
        b in 2usize..6,
    ) {
        let (cat, q) = workload(seed, n);
        let model = CostModel::new(&cat, &q);
        let memory = presets::spread_family(center, spread, b).unwrap();
        let dp = run(&model, &memory, Mode::AlgorithmC).unwrap();
        let ex = oracle(&model, MemoryCoster::fixed(&memory), PlanShape::LeftDeep).unwrap();
        prop_assert!(rel_eq(dp.cost, ex.cost), "dp {} vs exhaustive {}", dp.cost, ex.cost);
        if let Some((plan, _)) = unique_optimum(&model, Some(&memory), None, PlanShape::LeftDeep) {
            prop_assert_eq!(&dp.plan, &plan);
        }
    }

    /// Theorem 3.4 (dynamic memory) through the engine.
    #[test]
    fn dynamic_alg_c_matches_exhaustive(
        seed in 0u64..4000,
        n in 3usize..6,
        p_down in 0.05f64..0.4,
        p_up in 0.05f64..0.4,
    ) {
        let (cat, q) = workload(seed, n);
        let model = CostModel::new(&cat, &q);
        let states = vec![80.0, 320.0, 1280.0];
        let chain = MarkovChain::birth_death(states, p_down, p_up).unwrap();
        let initial = Distribution::bimodal(320.0, 1280.0, 0.5).unwrap();
        let dp = run(&model, &initial, Mode::AlgorithmCDynamic { chain: chain.clone() }).unwrap();
        let ex = oracle(&model, MemoryCoster::evolving(&initial, &chain, n).unwrap(), PlanShape::LeftDeep)
        .unwrap();
        prop_assert!(rel_eq(dp.cost, ex.cost), "dp {} vs exhaustive {}", dp.cost, ex.cost);
    }

    /// The §4 bushy policy equals keep-all over the bushy space.
    #[test]
    fn bushy_matches_bushy_exhaustive(
        seed in 0u64..4000,
        n in 3usize..6,
        center in 60.0f64..2500.0,
    ) {
        let (cat, q) = workload(seed, n);
        let model = CostModel::new(&cat, &q);
        // `unique_optimum` holds every plan: skip dense bushy spaces past
        // a million plans rather than materialize them.
        if lec_core::search::plan_space_size(&model, PlanShape::Bushy) > 1_000_000 {
            return Ok(());
        }
        let memory = presets::spread_family(center, 0.6, 4).unwrap();
        let dp = run(&model, &memory, Mode::Bushy).unwrap();
        let ex = oracle(&model, MemoryCoster::fixed(&memory), PlanShape::Bushy)
            .unwrap();
        prop_assert!(rel_eq(dp.cost, ex.cost), "dp {} vs exhaustive {}", dp.cost, ex.cost);
        if let Some((plan, _)) = unique_optimum(&model, Some(&memory), None, PlanShape::Bushy) {
            prop_assert_eq!(&dp.plan, &plan);
        }
    }

    /// With certain sizes and selectivities (the generator's default),
    /// Algorithm D's distribution bookkeeping degenerates to Algorithm C
    /// and therefore to the exhaustive optimum.
    #[test]
    fn alg_d_point_sizes_match_exhaustive(
        seed in 0u64..4000,
        n in 3usize..6,
        center in 60.0f64..2500.0,
        b in 2usize..6,
    ) {
        let (cat, q) = workload(seed, n);
        let model = CostModel::new(&cat, &q);
        let memory = presets::spread_family(center, 0.5, b).unwrap();
        let d = run(&model, &memory, Mode::AlgorithmD { config: AlgDConfig::default() }).unwrap();
        let ex = oracle(&model, MemoryCoster::fixed(&memory), PlanShape::LeftDeep).unwrap();
        prop_assert!(rel_eq(d.cost, ex.cost), "D {} vs exhaustive {}", d.cost, ex.cost);
        if let Some((plan, _)) = unique_optimum(&model, Some(&memory), None, PlanShape::LeftDeep) {
            prop_assert_eq!(&d.plan, &plan);
        }
    }

    /// Algorithm B degeneracies: at c = 1 the per-representative top-1
    /// list *is* the LSC plan, so B collapses to Algorithm A; with c
    /// large enough to never truncate a (subset, order) list on a 3-table
    /// query, B's candidate set is the whole space, so B collapses to
    /// Algorithm C (and hence the exhaustive optimum).
    #[test]
    fn alg_b_degeneracies(
        seed in 0u64..4000,
        center in 60.0f64..2500.0,
        spread in 0.1f64..0.9,
    ) {
        let (cat, q) = workload(seed, 3);
        let model = CostModel::new(&cat, &q);
        let memory = presets::spread_family(center, spread, 4).unwrap();
        let a = run(&model, &memory, Mode::AlgorithmA).unwrap();
        let b1 = run(&model, &memory, Mode::AlgorithmB { c: 1 }).unwrap();
        prop_assert!(rel_eq(a.cost, b1.cost), "B(1) {} vs A {}", b1.cost, a.cost);
        let b_all = run(&model, &memory, Mode::AlgorithmB { c: 256 }).unwrap();
        let c = run(&model, &memory, Mode::AlgorithmC).unwrap();
        prop_assert!(rel_eq(b_all.cost, c.cost), "B(256) {} vs C {}", b_all.cost, c.cost);
    }
}
