//! Pruning parity: branch-and-bound must be invisible in answers — a
//! pruned search returns the plan and cost bits of the unpruned one for
//! every prune-eligible policy — and the bounds it prunes with must be
//! admissible, per edge and on the plans the policies actually choose.

use lec_core::search::{PhaseCoster, PlanShape, SearchConfig};
use lec_core::{
    exhaustive_best, optimize, AlgDConfig, MemoryCoster, Mode, OptError, PointEstimate,
    SearchOutcome,
};
use lec_cost::CostModel;
use lec_plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_prob::{presets, MarkovChain};
use proptest::prelude::*;

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

/// Every subtree's table set in `plan` (composite and singleton alike).
fn subtree_sets(plan: &lec_plan::PlanNode, out: &mut Vec<lec_plan::TableSet>) {
    use lec_plan::PlanNode;
    match plan {
        PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. } => {}
        PlanNode::Sort { input, .. } => subtree_sets(input, out),
        PlanNode::Join { outer, inner, .. } => {
            subtree_sets(outer, out);
            subtree_sets(inner, out);
        }
    }
    out.push(plan.tables());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Branch-and-bound pruning must be invisible in answers: for every
    /// prune-eligible policy (and the streaming keep-all verifier), the
    /// pruned search returns the same plan and the same cost bits as the
    /// unpruned one.  Work counters may differ (that is the point of
    /// pruning); the answer may not.
    #[test]
    fn pruned_searches_return_byte_identical_answers(
        seed in 0u64..4000,
        n in 3usize..7,
        center in 60.0f64..2500.0,
        spread in 0.1f64..0.9,
        b in 2usize..6,
    ) {
        let (cat, q) = workload(seed, n);
        let memory = presets::spread_family(center, spread, b).unwrap();
        let chain = MarkovChain::birth_death(memory.support().to_vec(), 0.3, 0.1).unwrap();

        type Runner = dyn Fn(&CostModel<'_>, &SearchConfig) -> Result<SearchOutcome, OptError>;
        let memory2 = memory.clone();
        let memory3 = memory.clone();
        let memory4 = memory.clone();
        let memory5 = memory.clone();
        let memory6 = memory.clone();
        let runners: Vec<(&str, Box<Runner>)> = vec![
            ("lsc", Box::new(move |m, c| optimize(m, &memory2, &Mode::Lsc(PointEstimate::Mean), c))),
            ("alg_c", Box::new(move |m, c| optimize(m, &memory3, &Mode::AlgorithmC, c))),
            ("alg_c_dyn", Box::new(move |m, c| optimize(m, &memory4, &Mode::AlgorithmCDynamic { chain: chain.clone() }, c))),
            ("alg_d", Box::new(move |m, c| optimize(m, &memory5, &Mode::AlgorithmD { config: AlgDConfig::default() }, c))),
            ("bushy", Box::new(move |m, c| optimize(m, &memory6, &Mode::Bushy, c))),
            ("exhaustive", Box::new(move |m, c| exhaustive_best(m, MemoryCoster::fixed(&memory), PlanShape::LeftDeep, c))),
        ];

        for (name, run) in &runners {
            let base_model = CostModel::new(&cat, &q);
            let base = run(&base_model, &SearchConfig::default()).unwrap();
            let model = CostModel::new(&cat, &q);
            let out = run(&model, &SearchConfig::default().with_pruning(true)).unwrap();
            prop_assert_eq!(&base.plan, &out.plan, "{}: plan drift", name);
            prop_assert_eq!(
                base.cost.to_bits(), out.cost.to_bits(),
                "{}: cost drift ({} vs {})", name, base.cost, out.cost
            );
        }
    }

    /// Admissibility at the per-edge layer: every [`EdgeBound`]'s
    /// intermediate-size floor is at or below the *realized* output size
    /// of that base join under **every** memory bucket of the
    /// operand-size and selectivity distributions and both operand
    /// orders — the invariant that makes the sharp subset floor safe.
    #[test]
    fn per_edge_size_bounds_are_admissible(
        seed in 0u64..4000,
        n in 3usize..7,
        center in 60.0f64..2500.0,
        spread in 0.1f64..0.9,
        b in 2usize..6,
    ) {
        use lec_core::search::{PlanShape, PruneState};
        use lec_cost::formulas::MIN_PAGES;
        use lec_plan::TableSet;

        let (cat, q) = workload(seed, n);
        let memory = presets::spread_family(center, spread, b).unwrap();
        let model = CostModel::new(&cat, &q);
        let bound = MemoryCoster::fixed(&memory)
            .pruning_bound()
            .expect("alg_c is prune-eligible");
        let ps = PruneState::new(&model, PlanShape::LeftDeep, bound, vec![0.0; n]);

        for eb in ps.edge_bounds() {
            for order in [(eb.u, eb.v), (eb.v, eb.u)] {
                let (x, y) = order;
                let px = model.base_pages_dist(x);
                let py = model.base_pages_dist(y);
                let sel = model.join_selectivity_dist_sets(
                    TableSet::singleton(x),
                    TableSet::singleton(y),
                );
                for &pxv in px.support() {
                    for &pyv in py.support() {
                        for &sv in sel.support() {
                            let realized = (pxv * pyv * sv).max(MIN_PAGES);
                            prop_assert!(
                                eb.size_floor <= realized + 1e-9,
                                "edge ({},{}): size floor {} exceeds realized {} \
                                 (pages {}x{}, sel {})",
                                eb.u, eb.v, eb.size_floor, realized, pxv, pyv, sv
                            );
                        }
                    }
                }
            }
        }
    }

    /// Admissibility, checked against ground truth: every subtree of the
    /// plan a policy actually chose must survive its own bound —
    /// `subset_floor(S) <= cost` for every subtree set `S` of the chosen
    /// plan.  (A violation is exactly the failure that would make pruning
    /// discard the optimal plan.)
    #[test]
    fn bounds_are_admissible_on_the_chosen_plans(
        seed in 0u64..4000,
        n in 3usize..7,
        center in 60.0f64..2500.0,
        spread in 0.1f64..0.9,
        b in 2usize..6,
    ) {
        use lec_core::search::PruneState;
        let (cat, q) = workload(seed, n);
        let memory = presets::spread_family(center, spread, b).unwrap();
        let chain = MarkovChain::birth_death(memory.support().to_vec(), 0.3, 0.1).unwrap();
        let model = CostModel::new(&cat, &q);

        type Case = (
            &'static str,
            Option<Box<dyn lec_core::search::LowerBound>>,
            SearchOutcome,
        );
        let cases: Vec<Case> = vec![
            (
                "lsc",
                MemoryCoster::point(memory.mean()).pruning_bound(),
                optimize(&model, &memory, &Mode::Lsc(PointEstimate::Mean), &SearchConfig::default()).unwrap(),
            ),
            (
                "alg_c",
                MemoryCoster::fixed(&memory).pruning_bound(),
                optimize(&model, &memory, &Mode::AlgorithmC, &SearchConfig::default()).unwrap(),
            ),
            (
                "alg_c_dyn",
                MemoryCoster::evolving(&memory, &chain, n).unwrap().pruning_bound(),
                optimize(&model, &memory, &Mode::AlgorithmCDynamic { chain: chain.clone() }, &SearchConfig::default()).unwrap(),
            ),
        ];
        for (name, bound, outcome) in cases {
            // Zero access floors keep the state admissible a fortiori;
            // the size product and join floors are the load-bearing part.
            let ps = PruneState::new(
                &model,
                lec_core::search::PlanShape::LeftDeep,
                bound.expect("coster is prune-eligible"),
                vec![0.0; n],
            );
            let mut sets = Vec::new();
            subtree_sets(&outcome.plan, &mut sets);
            for set in sets {
                let pages = ps.bound().pages_floor(&model, set);
                let floor = ps.subset_floor(set, pages);
                prop_assert!(
                    floor <= outcome.cost + 1e-6,
                    "{}: subtree {:?} floor {} exceeds the chosen plan's cost {}",
                    name, set, floor, outcome.cost
                );
            }
        }
    }
}

/// The pruning fixtures actually prune — and whatever they discard, the
/// answer is the unpruned search's.
#[test]
fn pruning_fixtures_prune_without_changing_answers() {
    let memory = presets::spread_family(400.0, 0.5, 4).unwrap();
    for (cat, q) in [
        lec_core::fixtures::pruning_chain(9),
        lec_core::fixtures::pruning_star(10),
    ] {
        let base_model = CostModel::new(&cat, &q);
        let base = optimize(
            &base_model,
            &memory,
            &Mode::AlgorithmC,
            &SearchConfig::default(),
        )
        .unwrap();
        let pruned_model = CostModel::new(&cat, &q);
        let pruned = optimize(
            &pruned_model,
            &memory,
            &Mode::AlgorithmC,
            &SearchConfig::default().with_pruning(true),
        )
        .unwrap();
        assert!(
            pruned.stats.pruned_subsets > 0,
            "the fixture must actually trigger pruning"
        );
        assert_eq!(base.plan, pruned.plan, "pruning changed the plan");
        assert_eq!(
            base.cost.to_bits(),
            pruned.cost.to_bits(),
            "pruning changed the cost"
        );
    }
}
