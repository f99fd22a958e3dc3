//! Engine-parity properties: every policy plugged into the shared search
//! engine must agree with the oracle (`lec_cost::oracle`, a plain
//! enumeration priced by the plan replay, sharing no search code) on
//! randomized 3–5 table fixtures, across seeds — in objective value
//! always, and in the plan bytes whenever the optimum is unique.  No
//! mode's plan may replay below the oracle's optimum.  Also pins the
//! degeneracies the paper implies: Algorithm B at `c = 1` collapses to
//! Algorithm A, and with `c` large enough to hold every candidate list it
//! collapses to Algorithm C.  (`priced_once_parity.rs` holds the policies
//! to eager references that price every candidate.)

use lec_core::{fixtures, optimize, AlgDConfig, Mode, OptError, PointEstimate, SearchOutcome};
use lec_cost::oracle::{self, Best};
use lec_cost::{CostModel, Objective};
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

/// Equal within relative 1e-9.  A search's cost and the oracle's are
/// each a plan's replay to the bit, but not always the same plan's: a
/// subset's size depends on the order that joined it (the one-page clamp
/// on a join's output), so the DP can keep a plan whose replay lands an
/// ulp above the oracle's optimum.
fn rel_eq(a: f64, b: f64) -> bool {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0) < 1e-9
}

/// `dp` matches the oracle's optimum: its cost always, its plan whenever
/// no other plan costs within relative 1e-6 of it.
fn assert_matches(dp: &SearchOutcome, best: &Best) -> Result<(), TestCaseError> {
    prop_assert!(
        rel_eq(dp.cost, best.cost),
        "dp {} vs oracle {}",
        dp.cost,
        best.cost
    );
    if best.runner_up - best.cost >= 1e-6 * best.cost.max(1.0) {
        prop_assert_eq!(
            &dp.plan,
            &best.plan,
            "a unique optimum must match byte for byte"
        );
    }
    Ok(())
}

/// The largest bushy query checked against the bushy oracle, which replays
/// every plan whole: a 5-table space holds 10^5 to 10^6 plans, about 5 µs
/// each in a debug build, so five tables run in release builds only.
const MAX_BUSHY: usize = if cfg!(debug_assertions) { 4 } else { 5 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Theorem 2.1 through the engine: the point policy finds the oracle's
    /// optimum at a point.
    #[test]
    fn lsc_matches_the_oracle(seed in 0u64..4000, n in 3usize..6, mem in 20.0f64..4000.0) {
        let (cat, q) = workload(seed, n);
        let model = CostModel::new(&cat, &q);
        let dp = run(&model, &Distribution::point(mem), Mode::LscAt(mem)).unwrap();
        let point = Objective::Static(Distribution::point(mem));
        assert_matches(&dp, &oracle::left_deep(&model, &point).unwrap())?;
    }

    /// Theorem 3.3 through the engine, same byte-identity contract.
    #[test]
    fn alg_c_matches_the_oracle(
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
        assert_matches(&dp, &oracle::left_deep(&model, &Objective::Static(memory)).unwrap())?;
    }

    /// Theorem 3.4 (dynamic memory) through the engine.
    #[test]
    fn dynamic_alg_c_matches_the_oracle(
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
        let ex = oracle::left_deep(&model, &Objective::Dynamic { initial, chain }).unwrap();
        prop_assert!(rel_eq(dp.cost, ex.cost), "dp {} vs oracle {}", dp.cost, ex.cost);
    }

    /// The §4 bushy policy finds the bushy oracle's optimum.
    #[test]
    fn bushy_matches_the_bushy_oracle(
        seed in 0u64..4000,
        n in 3usize..=MAX_BUSHY,
        center in 60.0f64..2500.0,
    ) {
        let (cat, q) = workload(seed, n);
        let model = CostModel::new(&cat, &q);
        let memory = presets::spread_family(center, 0.6, 4).unwrap();
        let dp = run(&model, &memory, Mode::Bushy).unwrap();
        assert_matches(&dp, &oracle::bushy(&model, &memory).unwrap())?;
    }

    /// With certain sizes and selectivities (the generator's default),
    /// Algorithm D's distribution bookkeeping degenerates to Algorithm C
    /// and therefore to the oracle's optimum.
    #[test]
    fn alg_d_point_sizes_match_the_oracle(
        seed in 0u64..4000,
        n in 3usize..6,
        center in 60.0f64..2500.0,
        b in 2usize..6,
    ) {
        let (cat, q) = workload(seed, n);
        let model = CostModel::new(&cat, &q);
        let memory = presets::spread_family(center, 0.5, b).unwrap();
        let d = run(&model, &memory, Mode::AlgorithmD { config: AlgDConfig::default() }).unwrap();
        assert_matches(&d, &oracle::left_deep(&model, &Objective::Static(memory)).unwrap())?;
    }

    /// Dominance, which holds whether or not a mode is exact: the replayed
    /// cost of every mode's plan is at least the oracle's optimum for the
    /// objective it is judged by — LSC, A, B, C and D under the static
    /// replay, C-dynamic under the dynamic one, Bushy against the bushy
    /// oracle up to [`MAX_BUSHY`] tables.  (`lec-cost`'s `oracle.rs` holds
    /// the bushy optimum to at most the left-deep one.)
    #[test]
    fn no_mode_replays_below_the_oracle(
        seed in 0u64..4000,
        n in 3usize..6,
        center in 60.0f64..2500.0,
        spread in 0.1f64..0.9,
        b in 2usize..6,
        p_down in 0.05f64..0.4,
        p_up in 0.05f64..0.4,
    ) {
        let (cat, q) = workload(seed, n);
        let model = CostModel::new(&cat, &q);
        let memory = presets::spread_family(center, spread, b).unwrap();
        let chain = MarkovChain::birth_death(memory.support().to_vec(), p_down, p_up).unwrap();
        let fixed = Objective::Static(memory.clone());
        let moving = Objective::Dynamic { initial: memory.clone(), chain: chain.clone() };
        let left_deep = oracle::left_deep(&model, &fixed).unwrap();
        let dynamic = oracle::left_deep(&model, &moving).unwrap();
        let bushy = (n <= MAX_BUSHY).then(|| oracle::bushy(&model, &memory).unwrap());
        let mut cases = vec![
            (Mode::Lsc(PointEstimate::Mean), &fixed, &left_deep),
            (Mode::AlgorithmA, &fixed, &left_deep),
            (Mode::AlgorithmB { c: 3 }, &fixed, &left_deep),
            (Mode::AlgorithmC, &fixed, &left_deep),
            (Mode::AlgorithmD { config: AlgDConfig::default() }, &fixed, &left_deep),
            (Mode::AlgorithmCDynamic { chain }, &moving, &dynamic),
        ];
        if let Some(bushy) = &bushy {
            cases.push((Mode::Bushy, &fixed, bushy));
        }
        for (mode, objective, best) in cases {
            let plan = run(&model, &memory, mode.clone()).unwrap().plan;
            let cost = objective.replay(&model, &plan);
            prop_assert!(
                cost >= best.cost * (1.0 - 1e-9),
                "{:?}: {} replays to {} below the oracle's {}", mode, plan.compact(), cost, best.cost
            );
        }
    }

    /// Every mode serves its plan's replay under the mode's objective, bit
    /// for bit: the DP adds `(outer + inner) + E[join]` and a root sort's
    /// `E[sort]` in the order the replay walks the plan, and A and B rank
    /// their candidates by the replay itself.  Algorithm D is not among
    /// them: it prices a join by §3.6's streaming sums over size
    /// distributions, which can land an ulp from the replay's point sizes
    /// even when every size is certain.
    #[test]
    fn every_mode_serves_its_plans_replay(
        seed in 0u64..4000,
        n in 3usize..8,
        center in 60.0f64..2500.0,
        spread in 0.1f64..0.9,
        b in 2usize..6,
        p_down in 0.05f64..0.4,
        p_up in 0.05f64..0.4,
    ) {
        let (cat, q) = workload(seed, n);
        let model = CostModel::new(&cat, &q);
        let memory = presets::spread_family(center, spread, b).unwrap();
        let chain = MarkovChain::birth_death(memory.support().to_vec(), p_down, p_up).unwrap();
        let modes = [
            Mode::Lsc(PointEstimate::Mean),
            Mode::Lsc(PointEstimate::Mode),
            Mode::LscAt(center),
            Mode::AlgorithmA,
            Mode::AlgorithmB { c: 3 },
            Mode::AlgorithmC,
            Mode::AlgorithmCDynamic { chain },
            Mode::Bushy,
        ];
        for mode in modes {
            let served = run(&model, &memory, mode.clone()).unwrap();
            let replay = mode.objective(&memory).unwrap().replay(&model, &served.plan);
            prop_assert_eq!(
                served.cost.to_bits(),
                replay.to_bits(),
                "{}: {} serves {} and replays to {}",
                mode.name(),
                served.plan.compact(),
                served.cost,
                replay
            );
        }
    }

    /// Algorithm B degeneracies: at c = 1 the per-representative top-1
    /// list *is* the LSC plan, so B collapses to Algorithm A; with c
    /// large enough to never truncate a (subset, order) list on a 3-table
    /// query, B's candidate set is the whole space, so B collapses to
    /// Algorithm C (and hence the oracle's optimum).
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

/// The oracle reproduces Example 1.1: Plan 2 at 4.209e6, out of 2 orders
/// × 4 methods × 1 access path each = 8 plans.
#[test]
fn the_oracle_agrees_with_example_1_1() {
    let (cat, q) = fixtures::example_1_1();
    let model = CostModel::new(&cat, &q);
    let objective = Objective::Static(fixtures::example_1_1_memory());
    let best = oracle::left_deep(&model, &objective).unwrap();
    assert!(fixtures::is_plan2(&best.plan), "{}", best.plan.compact());
    assert!((best.cost - 4_209_000.0).abs() < 1.0, "{}", best.cost);
    assert_eq!(best.plans, 8);
}

/// Fixed points on the 3-table chain the proptests do not draw: LSC from
/// a starved to an ample memory, Algorithm C across spreads, and
/// Algorithm C-dynamic from a point initial distribution.
#[test]
fn the_three_chain_matches_the_oracle() {
    let (cat, q) = fixtures::three_chain();
    let model = CostModel::new(&cat, &q);
    let matches = |mode: Mode, memory: &Distribution| {
        let dp = run(&model, memory, mode.clone()).unwrap();
        let best = oracle::left_deep(&model, &mode.objective(memory).unwrap()).unwrap();
        assert!(
            rel_eq(dp.cost, best.cost),
            "{mode:?}: dp {} vs oracle {}",
            dp.cost,
            best.cost
        );
    };
    for m in [30.0, 150.0, 700.0, 20_000.0] {
        matches(Mode::LscAt(m), &Distribution::point(m));
    }
    for spread in [0.2, 0.5, 0.9] {
        let memory = presets::spread_family(400.0, spread, 6).unwrap();
        matches(Mode::AlgorithmC, &memory);
    }
    let chain = MarkovChain::birth_death(vec![50.0, 200.0, 800.0], 0.35, 0.15).unwrap();
    matches(
        Mode::AlgorithmCDynamic { chain },
        &Distribution::point(200.0),
    );
}

/// On the diamond the bushy space strictly contains the left-deep one,
/// and the §4 policy finds its optimum.
#[test]
fn bushy_matches_the_bushy_oracle_on_the_diamond() {
    let (cat, q) = fixtures::diamond();
    let model = CostModel::new(&cat, &q);
    let memory = presets::spread_family(500.0, 0.5, 4).unwrap();
    let dp = run(&model, &memory, Mode::Bushy).unwrap();
    let bushy = oracle::bushy(&model, &memory).unwrap();
    assert!(
        rel_eq(dp.cost, bushy.cost),
        "dp {} vs oracle {}",
        dp.cost,
        bushy.cost
    );
    let left_deep = oracle::left_deep(&model, &Objective::Static(memory)).unwrap();
    assert!(bushy.plans > left_deep.plans);
    assert!(bushy.cost <= left_deep.cost);
}
