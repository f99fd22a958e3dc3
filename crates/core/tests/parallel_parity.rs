//! Parallel-engine parity: for every candidate policy and every mode
//! wrapper, a search fanned out across worker threads must return a
//! `SearchOutcome` **byte-identical** to the serial engine's — same plan,
//! same cost bits, same `evals`, `cache_hits`, `candidates` and `nodes` —
//! on randomized 3–6-table fixtures at 2, 4 and 8 threads.  Also pins the
//! failure mode: a coster that panics inside a worker (a "poisoned
//! shard") must surface as `OptError::WorkerPanicked`, not a deadlock or
//! an unwound caller, and must leave the model usable.

use lec_core::search::{PersistentPool, PhaseCoster, SearchConfig, WorkerPool};
use lec_core::{
    exhaustive_best_with, optimize_alg_b_with, optimize_alg_d_with, optimize_lec_bushy_with,
    optimize_lec_dynamic_with, optimize_lec_static_with, optimize_lsc_with, AlgDConfig, Objective,
    OptError, SearchOutcome,
};
use lec_cost::CostModel;
use lec_plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_prob::{presets, MarkovChain};
use proptest::prelude::*;
use std::sync::Arc;

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

/// A parallel config with the size gates forced open, so even 3-table
/// fixtures exercise the fan-out machinery.
fn forced(threads: usize) -> SearchConfig {
    SearchConfig {
        threads,
        fanout_threshold: 1,
        ..Default::default()
    }
}

/// Assert two outcomes are byte-identical in everything the engine
/// promises determinism for (elapsed is wall-clock and excluded).
fn assert_identical(name: &str, threads: usize, serial: &SearchOutcome, parallel: &SearchOutcome) {
    assert_eq!(&serial.plan, &parallel.plan, "{name}@{threads}: plan drift");
    assert_eq!(
        serial.cost.to_bits(),
        parallel.cost.to_bits(),
        "{name}@{threads}: cost drift ({} vs {})",
        serial.cost,
        parallel.cost
    );
    assert_eq!(
        serial.stats.evals, parallel.stats.evals,
        "{name}@{threads}: evals drift"
    );
    assert_eq!(
        serial.stats.cache_hits, parallel.stats.cache_hits,
        "{name}@{threads}: cache_hits drift"
    );
    assert_eq!(
        serial.stats.candidates, parallel.stats.candidates,
        "{name}@{threads}: candidates drift"
    );
    assert_eq!(
        serial.stats.nodes, parallel.stats.nodes,
        "{name}@{threads}: nodes drift"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every policy, serial vs 2/4/8 threads, on randomized fixtures.
    /// Fresh models per run keep the eval cache (and so `evals` /
    /// `cache_hits`) comparable.
    #[test]
    fn parallel_search_is_byte_identical_for_every_policy(
        seed in 0u64..4000,
        n in 3usize..7,
        center in 60.0f64..2500.0,
        spread in 0.1f64..0.9,
        b in 2usize..6,
    ) {
        let (cat, q) = workload(seed, n);
        let memory = presets::spread_family(center, spread, b).unwrap();
        let chain = MarkovChain::birth_death(memory.support().to_vec(), 0.3, 0.1).unwrap();
        let serial_cfg = SearchConfig::serial();

        type Runner = dyn Fn(&CostModel<'_>, &SearchConfig) -> Result<SearchOutcome, OptError>;
        let memory2 = memory.clone();
        let memory3 = memory.clone();
        let memory4 = memory.clone();
        let memory5 = memory.clone();
        let memory6 = memory.clone();
        let memory7 = memory.clone();
        let chain2 = chain.clone();
        let runners: Vec<(&str, Box<Runner>)> = vec![
            ("lsc", Box::new(move |m, c| optimize_lsc_with(m, memory2.mean(), c))),
            ("alg_b", Box::new(move |m, c| optimize_alg_b_with(m, &memory3, 3, c))),
            ("alg_c", Box::new(move |m, c| optimize_lec_static_with(m, &memory4, c))),
            ("alg_c_dyn", Box::new(move |m, c| optimize_lec_dynamic_with(m, &memory5, &chain2, c))),
            ("alg_d", Box::new(move |m, c| optimize_alg_d_with(m, &memory6, &AlgDConfig::default(), c))),
            ("bushy", Box::new(move |m, c| optimize_lec_bushy_with(m, &memory7, c))),
            ("exhaustive", Box::new(move |m, c| exhaustive_best_with(m, &Objective::Expected(&memory), c))),
        ];

        for (name, run) in &runners {
            let serial_model = CostModel::new(&cat, &q);
            let serial = run(&serial_model, &serial_cfg).unwrap();
            for threads in [2usize, 4, 8] {
                let par_model = CostModel::new(&cat, &q);
                let parallel = run(&par_model, &forced(threads)).unwrap();
                assert_identical(name, threads, &serial, &parallel);
            }
        }
    }

    /// The intra-candidate bucket fan-out (forced on by an eval threshold
    /// of 1) is bit-identical too.  The two fan-out axes are exclusive by
    /// design — bucket parallelism only engages when the level fan-out
    /// does not — so the level gate is left closed (`fanout_threshold`
    /// maxed) to actually reach the bucket path.
    #[test]
    fn bucket_fanout_is_byte_identical(
        seed in 0u64..4000,
        n in 3usize..5,
        center in 60.0f64..2500.0,
    ) {
        let (cat, q) = workload(seed, n);
        let memory = presets::spread_family(center, 0.6, 5).unwrap();
        let serial_model = CostModel::new(&cat, &q);
        let serial = optimize_lec_static_with(&serial_model, &memory, &SearchConfig::serial()).unwrap();
        for threads in [2usize, 4] {
            let cfg = SearchConfig {
                threads,
                fanout_threshold: usize::MAX,
                bucket_evals_threshold: 1,
                ..Default::default()
            };
            let par_model = CostModel::new(&cat, &q);
            let parallel = optimize_lec_static_with(&par_model, &memory, &cfg).unwrap();
            assert_identical("alg_c+buckets", threads, &serial, &parallel);
            let d_serial_model = CostModel::new(&cat, &q);
            let d_serial = optimize_alg_d_with(
                &d_serial_model, &memory, &AlgDConfig::default(), &SearchConfig::serial(),
            ).unwrap();
            let d_model = CostModel::new(&cat, &q);
            let d_parallel = optimize_alg_d_with(
                &d_model, &memory, &AlgDConfig::default(), &cfg,
            ).unwrap();
            assert_identical("alg_d+buckets", threads, &d_serial, &d_parallel);
        }
    }
}

/// The persistent cross-search pool must be invisible in outcomes: for
/// every policy, a search whose workers come from long-lived parked
/// threads is byte-identical to the serial driver at 2, 4 and 8 threads —
/// and one pool serves many searches (and many thread counts) in a row.
#[test]
fn persistent_pool_searches_are_byte_identical_to_serial() {
    let pool: Arc<dyn WorkerPool> = Arc::new(PersistentPool::new(8));
    let memory = presets::spread_family(600.0, 0.6, 4).unwrap();
    let chain = MarkovChain::birth_death(memory.support().to_vec(), 0.3, 0.1).unwrap();
    for seed in [3u64, 17, 101] {
        let (cat, q) = workload(seed, 5);
        type Runner = dyn Fn(&CostModel<'_>, &SearchConfig) -> Result<SearchOutcome, OptError>;
        let runners: Vec<(&str, Box<Runner>)> = vec![
            ("alg_c", {
                let m = memory.clone();
                Box::new(move |model, c| optimize_lec_static_with(model, &m, c))
            }),
            ("alg_c_dyn", {
                let (m, ch) = (memory.clone(), chain.clone());
                Box::new(move |model, c| optimize_lec_dynamic_with(model, &m, &ch, c))
            }),
            ("alg_d", {
                let m = memory.clone();
                Box::new(move |model, c| optimize_alg_d_with(model, &m, &AlgDConfig::default(), c))
            }),
            ("bushy", {
                let m = memory.clone();
                Box::new(move |model, c| optimize_lec_bushy_with(model, &m, c))
            }),
        ];
        for (name, run) in &runners {
            let serial_model = CostModel::new(&cat, &q);
            let serial = run(&serial_model, &SearchConfig::serial()).unwrap();
            for threads in [2usize, 4, 8] {
                let cfg = SearchConfig {
                    pool: Some(Arc::clone(&pool)),
                    ..forced(threads)
                };
                let par_model = CostModel::new(&cat, &q);
                let parallel = run(&par_model, &cfg).unwrap();
                assert_identical(&format!("{name}+pool"), threads, &serial, &parallel);
            }
        }
    }
}

/// A panicking search through the persistent pool surfaces as
/// `WorkerPanicked` and leaves the pool healthy for the next search.
#[test]
fn persistent_pool_survives_a_poisoned_search() {
    use lec_core::search::{run_search_with, KeepBestPolicy, PlanShape};
    let pool: Arc<dyn WorkerPool> = Arc::new(PersistentPool::new(4));
    let (cat, q) = lec_core::fixtures::scaling_chain(5);
    let model = CostModel::new(&cat, &q);
    let cfg = SearchConfig {
        pool: Some(Arc::clone(&pool)),
        ..forced(4)
    };
    let mut policy = KeepBestPolicy::new(PoisonedCoster);
    let res = run_search_with(&model, PlanShape::LeftDeep, &mut policy, &cfg);
    assert!(matches!(res, Err(OptError::WorkerPanicked)), "got {res:?}");
    // The same pool then answers a healthy parallel search, byte-identical
    // to serial.
    let memory = presets::spread_family(400.0, 0.5, 4).unwrap();
    let healthy_model = CostModel::new(&cat, &q);
    let healthy = optimize_lec_static_with(&healthy_model, &memory, &cfg).unwrap();
    let serial_model = CostModel::new(&cat, &q);
    let serial = optimize_lec_static_with(&serial_model, &memory, &SearchConfig::serial()).unwrap();
    assert_identical("healthy-after-poison", 4, &serial, &healthy);
}

/// A coster that panics when it sees a composite join — always on a
/// worker thread once the fan-out is forced on.
#[derive(Debug, Clone)]
struct PoisonedCoster;

impl PhaseCoster for PoisonedCoster {
    fn join_cost(
        &self,
        _model: &CostModel<'_>,
        _ctx: &lec_core::search::JoinContext,
        _method: lec_plan::JoinMethod,
        _outer: f64,
        _inner: f64,
    ) -> f64 {
        panic!("poisoned shard: the coster blew up mid-combine")
    }

    fn sort_cost(&self, _model: &CostModel<'_>, _phase: usize, _pages: f64) -> f64 {
        panic!("poisoned shard: the coster blew up mid-sort")
    }
}

#[test]
fn panicking_coster_propagates_as_error_not_deadlock() {
    use lec_core::search::{run_search_with, KeepBestPolicy, PlanShape};
    let (cat, q) = lec_core::fixtures::scaling_chain(5);
    let model = CostModel::new(&cat, &q);
    for threads in [2usize, 4, 8] {
        let mut policy = KeepBestPolicy::new(PoisonedCoster);
        let res = run_search_with(&model, PlanShape::LeftDeep, &mut policy, &forced(threads));
        assert!(
            matches!(res, Err(OptError::WorkerPanicked)),
            "threads={threads}: expected WorkerPanicked, got {res:?}"
        );
    }
    // The shard mutexes recover from the poisoned compute: the same model
    // still answers a healthy search afterwards.
    let healthy = lec_core::optimize_lsc(&model, 400.0).unwrap();
    assert!(healthy.cost > 0.0);
}

#[test]
fn workaware_gate_keeps_sparse_chains_serial() {
    // An 8-table chain has C(8,4) = 70 subsets at its widest level but
    // only 5 connected ones — under the default threshold it must stay
    // serial; a 10-table star (C(9,4) = 126 connected mid-level subsets)
    // must fan out.
    let (_, chain) = lec_core::fixtures::scaling_chain(8);
    let (_, star) = lec_core::fixtures::scaling_star(10);
    let cfg = SearchConfig::with_threads(4);
    assert!(!cfg.fans_out(&chain), "sparse chain must stay serial");
    assert!(cfg.fans_out(&star), "wide star must fan out");
    assert!(!SearchConfig::serial().fans_out(&star));
    // Exclusive axes: when the level fan-out engages, bucket parallelism
    // is off; when it doesn't, bucket parallelism carries the threads.
    assert_eq!(cfg.bucket_parallelism_for(&star).threads, 1);
    assert_eq!(cfg.bucket_parallelism_for(&chain).threads, 4);
}

#[test]
fn serial_config_takes_the_serial_path() {
    // threads = 1 must behave exactly like run_search: same result type,
    // no worker machinery (observable via WorkerPanicked never appearing
    // for a healthy policy, and identical outcomes).
    let (cat, q) = lec_core::fixtures::three_chain();
    let model = CostModel::new(&cat, &q);
    let memory = presets::spread_family(400.0, 0.6, 4).unwrap();
    let a = lec_core::optimize_lec_static(&model, &memory).unwrap();
    let model2 = CostModel::new(&cat, &q);
    let b = optimize_lec_static_with(&model2, &memory, &SearchConfig::serial()).unwrap();
    assert_eq!(a.plan, b.plan);
    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    assert!(SearchConfig::serial().effective_threads() == 1);
    assert!(SearchConfig::with_threads(7).effective_threads() == 7);
    assert!(SearchConfig::default().effective_threads() >= 1);
}

// ---------------------------------------------------------------------
// Bound-based pruning: answers, schedule independence, admissibility.
// ---------------------------------------------------------------------

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
    /// unpruned one — serially and fanned out.  Work counters may differ
    /// (that is the point of pruning); the answer may not.
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
            ("lsc", Box::new(move |m, c| optimize_lsc_with(m, memory2.mean(), c))),
            ("alg_c", Box::new(move |m, c| optimize_lec_static_with(m, &memory3, c))),
            ("alg_c_dyn", Box::new(move |m, c| optimize_lec_dynamic_with(m, &memory4, &chain, c))),
            ("alg_d", Box::new(move |m, c| optimize_alg_d_with(m, &memory5, &AlgDConfig::default(), c))),
            ("bushy", Box::new(move |m, c| optimize_lec_bushy_with(m, &memory6, c))),
            ("exhaustive", Box::new(move |m, c| exhaustive_best_with(m, &Objective::Expected(&memory), c))),
        ];

        for (name, run) in &runners {
            let base_model = CostModel::new(&cat, &q);
            let base = run(&base_model, &SearchConfig::serial()).unwrap();
            let configs = [
                SearchConfig::serial().with_pruning(true),
                forced(2).with_pruning(true),
                forced(4).with_pruning(true),
            ];
            for (i, cfg) in configs.iter().enumerate() {
                let model = CostModel::new(&cat, &q);
                let out = run(&model, cfg).unwrap();
                prop_assert_eq!(&base.plan, &out.plan, "{} cfg {}: plan drift", name, i);
                prop_assert_eq!(
                    base.cost.to_bits(), out.cost.to_bits(),
                    "{} cfg {}: cost drift ({} vs {})", name, i, base.cost, out.cost
                );
            }
        }
    }

    /// A pruned search's counters are part of the determinism contract
    /// *between schedules*: pruned serial and pruned parallel agree on
    /// every counter — `pruned_subsets` included — because the incumbent
    /// only tightens at level barriers, never mid-level.
    #[test]
    fn pruned_stats_are_schedule_independent(
        seed in 0u64..4000,
        n in 3usize..7,
        center in 60.0f64..2500.0,
    ) {
        let memory = presets::spread_family(center, 0.5, 4).unwrap();
        let (cat, q) = workload(seed, n);
        let serial_model = CostModel::new(&cat, &q);
        let serial = optimize_lec_static_with(
            &serial_model, &memory, &SearchConfig::serial().with_pruning(true),
        ).unwrap();
        for threads in [2usize, 4] {
            let model = CostModel::new(&cat, &q);
            let par = optimize_lec_static_with(
                &model, &memory, &forced(threads).with_pruning(true),
            ).unwrap();
            assert_identical("alg_c+pruning", threads, &serial, &par);
            prop_assert_eq!(
                serial.stats.pruned_subsets, par.stats.pruned_subsets,
                "pruned_subsets must be schedule-independent"
            );
            prop_assert_eq!(
                serial.stats.bound_evals, par.stats.bound_evals,
                "bound_evals must be schedule-independent"
            );
            prop_assert_eq!(
                serial.stats.sharp_bound_evals, par.stats.sharp_bound_evals,
                "sharp_bound_evals must be schedule-independent"
            );
            prop_assert_eq!(
                serial.stats.cheap_bound_skips, par.stats.cheap_bound_skips,
                "cheap_bound_skips must be schedule-independent"
            );
        }
    }

    /// Tentpole admissibility, at the per-edge layer: every
    /// [`EdgeBound`]'s intermediate-size floor is at or below the
    /// *realized* output size of that base join under **every** memory
    /// bucket of the operand-size and selectivity distributions and both
    /// operand orders — the invariant that makes the sharp subset floor
    /// safe.  The tiered counters the sharp layer feeds are then pinned
    /// schedule-independent at 1, 2 and 4 threads.
    #[test]
    fn per_edge_size_bounds_are_admissible(
        seed in 0u64..4000,
        n in 3usize..7,
        center in 60.0f64..2500.0,
        spread in 0.1f64..0.9,
        b in 2usize..6,
    ) {
        use lec_core::search::{PlanShape, PruneState, StaticExpectationCoster};
        use lec_cost::formulas::MIN_PAGES;
        use lec_plan::TableSet;

        let (cat, q) = workload(seed, n);
        let memory = presets::spread_family(center, spread, b).unwrap();
        let model = CostModel::new(&cat, &q);
        let bound = StaticExpectationCoster::new(&memory)
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

        // The sharp layer's counters are schedule-independent.
        let serial_model = CostModel::new(&cat, &q);
        let serial = optimize_lec_static_with(
            &serial_model, &memory, &SearchConfig::serial().with_pruning(true),
        ).unwrap();
        for threads in [2usize, 4] {
            let par_model = CostModel::new(&cat, &q);
            let par = optimize_lec_static_with(
                &par_model, &memory, &forced(threads).with_pruning(true),
            ).unwrap();
            prop_assert_eq!(serial.stats.sharp_bound_evals, par.stats.sharp_bound_evals);
            prop_assert_eq!(serial.stats.cheap_bound_skips, par.stats.cheap_bound_skips);
            prop_assert_eq!(serial.stats.pruned_subsets, par.stats.pruned_subsets);
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
        use lec_core::search::{
            DynamicExpectationCoster, PointCoster, PruneState, StaticExpectationCoster,
        };
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
                PointCoster { memory: memory.mean() }.pruning_bound(),
                optimize_lsc_with(&model, memory.mean(), &SearchConfig::serial()).unwrap(),
            ),
            (
                "alg_c",
                StaticExpectationCoster::new(&memory).pruning_bound(),
                optimize_lec_static_with(&model, &memory, &SearchConfig::serial()).unwrap(),
            ),
            (
                "alg_c_dyn",
                DynamicExpectationCoster::new(&memory, &chain, n).unwrap().pruning_bound(),
                optimize_lec_dynamic_with(&model, &memory, &chain, &SearchConfig::serial()).unwrap(),
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
/// answer, the counters, and the schedule-independence contract all hold,
/// against both the unpruned search and across thread counts.
#[test]
fn pruning_fixtures_prune_without_changing_answers() {
    let memory = presets::spread_family(400.0, 0.5, 4).unwrap();
    for (cat, q) in [
        lec_core::fixtures::pruning_chain(9),
        lec_core::fixtures::pruning_star(10),
    ] {
        let base_model = CostModel::new(&cat, &q);
        let base = optimize_lec_static_with(&base_model, &memory, &SearchConfig::serial()).unwrap();
        let serial_model = CostModel::new(&cat, &q);
        let serial = optimize_lec_static_with(
            &serial_model,
            &memory,
            &SearchConfig::serial().with_pruning(true),
        )
        .unwrap();
        assert!(
            serial.stats.pruned_subsets > 0,
            "the fixture must actually trigger pruning"
        );
        assert_eq!(base.plan, serial.plan, "pruning changed the plan");
        assert_eq!(
            base.cost.to_bits(),
            serial.cost.to_bits(),
            "pruning changed the cost"
        );
        for threads in [2usize, 4] {
            let model = CostModel::new(&cat, &q);
            let par =
                optimize_lec_static_with(&model, &memory, &forced(threads).with_pruning(true))
                    .unwrap();
            assert_identical("pruning-fixture", threads, &serial, &par);
            assert_eq!(serial.stats.pruned_subsets, par.stats.pruned_subsets);
            assert_eq!(serial.stats.bound_evals, par.stats.bound_evals);
            assert_eq!(serial.stats.sharp_bound_evals, par.stats.sharp_bound_evals);
            assert_eq!(serial.stats.cheap_bound_skips, par.stats.cheap_bound_skips);
        }
    }
}
