//! The optimizer meets the executor: every plan any algorithm chooses for
//! a query must compute the same result through the page-counting
//! operators calibration measures (System R's §2.2 observations, verified
//! end to end on a physical twin of each query, at several memory values),
//! and sampled executions must average to the replay's expected cost.

use lec_qopt::catalog::{
    Catalog, CatalogGenerator, CatalogProfile, ColumnStats, IndexKind, TableStats,
};
use lec_qopt::core::{AlgDConfig, Mode, Optimizer, PointEstimate};
use lec_qopt::cost::{plan_node_costs, CostModel, Objective};
use lec_qopt::exec::Calibrator;
use lec_qopt::plan::{
    ColumnRef, JoinMethod, JoinPredicate, PlanNode, Query, QueryProfile, QueryTable, TableSet,
    Topology, WorkloadGenerator,
};
use lec_qopt::prob::{presets, Distribution, MarkovChain};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Buffer pages every plan runs at: the operators' floor and two more.
const MEMORY: [usize; 3] = [3, 5, 40];

fn workload(seed: u64, n: usize, topology: Topology, max_pages: u64) -> (Catalog, Query) {
    let profile = CatalogProfile {
        min_pages: 100,
        max_pages,
        ..Default::default()
    };
    let mut g = CatalogGenerator::with_profile(seed, profile);
    let cat = g.generate(n + 1);
    let ids = g.pick_tables(&cat, n);
    let mut wg = WorkloadGenerator::new(seed + 1);
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

/// `plan`'s output rows on the twin at `m` pages, sorted: the multiset
/// two plans must agree on.
fn rows(cal: &Calibrator, plan: &PlanNode, m: usize) -> Vec<Vec<i64>> {
    let mut rows = cal.run(plan, m).unwrap().rows;
    rows.sort_unstable();
    rows
}

#[test]
fn all_chosen_plans_return_identical_results() {
    // A 4-table clique stays empty on the twin (six predicates over a
    // 16-value join domain), so the multi-predicate case is a 3-table
    // cycle: its last join crosses two predicates.
    for (seed, n, topology) in [
        (1u64, 4, Topology::Chain),
        (2, 4, Topology::Star),
        (3, 3, Topology::Clique),
        (4, 4, Topology::Random),
    ] {
        let (cat, q) = workload(seed, n, topology, 3_200);
        let cal = Calibrator::new(&cat, &q);
        let memory = presets::spread_family(400.0, 0.8, 5).unwrap();
        let opt = Optimizer::new(&cat, memory);
        let mut reference: Option<Vec<Vec<i64>>> = None;
        let mut plans: Vec<PlanNode> = Vec::new();
        for mode in [
            Mode::Lsc(PointEstimate::Mean),
            Mode::Lsc(PointEstimate::Mode),
            Mode::LscAt(60.0),
            Mode::AlgorithmA,
            Mode::AlgorithmB { c: 3 },
            Mode::AlgorithmC,
            Mode::AlgorithmD {
                config: AlgDConfig::default(),
            },
            Mode::Bushy,
        ] {
            let r = opt.optimize(&q, &mode).unwrap();
            for m in MEMORY {
                let got = rows(&cal, &r.plan, m);
                match &reference {
                    None => {
                        assert!(
                            !got.is_empty(),
                            "{topology:?} seed {seed}: {} returned no rows at m={m}",
                            mode.name()
                        );
                        reference = Some(got);
                    }
                    Some(want) => assert!(
                        &got == want,
                        "{topology:?} seed {seed}: {} returned {} rows at m={m}, not the {} \
                         the first plan returned",
                        mode.name(),
                        got.len(),
                        want.len()
                    ),
                }
            }
            if !plans.contains(&r.plan) {
                plans.push(r.plan);
            }
        }
        // The comparison means something only if the modes disagree.
        assert!(
            plans.len() >= 2,
            "{topology:?} seed {seed}: every mode chose {}",
            plans[0].compact()
        );
    }
}

#[test]
fn required_order_is_physically_delivered() {
    for seed in [11u64, 12, 13] {
        let (cat, mut q) = workload(seed, 3, Topology::Chain, 3_200);
        // Force a required order on the last join's column.
        let key = q.joins.last().unwrap().right;
        q.required_order = Some(key);
        let cal = Calibrator::new(&cat, &q);
        let memory = presets::spread_family(300.0, 0.6, 4).unwrap();
        let opt = Optimizer::new(&cat, memory);
        let r = opt.optimize(&q, &Mode::AlgorithmC).unwrap();
        for m in MEMORY {
            let out = cal.run(&r.plan, m).unwrap();
            assert!(!out.rows.is_empty(), "seed {seed}: no rows at m={m}");
            let idx = out.column(key);
            assert!(
                out.rows.windows(2).all(|w| w[0][idx] <= w[1][idx]),
                "seed {seed}: {} output not sorted at m={m}",
                r.plan.compact()
            );
        }
    }
}

/// A 3-table cycle `R0 – R1 – R2 – R0` on distinct column pairs, so the
/// second join of any left-deep order crosses two predicates.  `R0` has a
/// clustered index on its filtered column 2.
fn cycle() -> (Catalog, Query) {
    let mut cat = Catalog::new();
    let ids: Vec<_> = [
        (12, IndexKind::Clustered),
        (20, IndexKind::None),
        (32, IndexKind::None),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (pages, index))| {
        let columns = vec![
            ColumnStats::plain("a", 40),
            ColumnStats::plain("b", 40),
            ColumnStats::indexed("f", 40, index),
        ];
        cat.add_table(format!("R{i}"), TableStats::new(pages, pages * 4, columns))
    })
    .collect();
    let query = Query {
        tables: vec![
            QueryTable::filtered(ids[0], 2, Distribution::point(0.5)),
            QueryTable::bare(ids[1]),
            QueryTable::bare(ids[2]),
        ],
        joins: vec![
            JoinPredicate::exact(ColumnRef::new(0, 0), ColumnRef::new(1, 0), 0.25),
            JoinPredicate::exact(ColumnRef::new(1, 1), ColumnRef::new(2, 0), 0.25),
            JoinPredicate::exact(ColumnRef::new(2, 1), ColumnRef::new(0, 1), 0.25),
        ],
        required_order: None,
    };
    (cat, query)
}

#[test]
fn every_left_deep_order_and_method_returns_the_same_rows() {
    let (cat, q) = cycle();
    let cal = Calibrator::new(&cat, &q);
    let orders = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let mut reference: Option<Vec<Vec<i64>>> = None;
    for [a, b, c] in orders {
        let first = TableSet::from_indices([a, b]);
        assert_eq!(
            q.joins_crossing(first, TableSet::from_indices([c])).len(),
            2
        );
        for m1 in JoinMethod::ALL {
            for m2 in JoinMethod::ALL {
                let plan = PlanNode::join(
                    m2,
                    PlanNode::join(m1, PlanNode::seq_scan(a), PlanNode::seq_scan(b)),
                    PlanNode::seq_scan(c),
                );
                for m in [3, 8] {
                    let got = rows(&cal, &plan, m);
                    match &reference {
                        None => {
                            assert!(!got.is_empty(), "{}: no rows", plan.compact());
                            reference = Some(got);
                        }
                        Some(want) => assert!(
                            &got == want,
                            "{} at m={m}: {} rows, not {}",
                            plan.compact(),
                            got.len(),
                            want.len()
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn filters_cut_cardinality() {
    let (cat, q) = cycle();
    let cal = Calibrator::new(&cat, &q);
    let twin = cal.twin();
    let stored = twin.catalog.table(twin.query.tables[0].table).stats.rows as usize;
    let scanned = rows(&cal, &PlanNode::seq_scan(0), 3);
    assert!(
        !scanned.is_empty() && scanned.len() < stored,
        "{} of {stored} rows pass the filter",
        scanned.len()
    );
    // The clustered index scan returns the same multiset, in filter order.
    let ix = cal.run(&PlanNode::index_scan(0), 3).unwrap();
    assert!(ix.rows.windows(2).all(|w| w[0][2] <= w[1][2]));
    let mut ix_rows = ix.rows;
    ix_rows.sort_unstable();
    assert_eq!(ix_rows, scanned);
}

#[test]
fn a_root_sort_delivers_its_order() {
    let (cat, q) = cycle();
    let cal = Calibrator::new(&cat, &q);
    let join = PlanNode::join(
        JoinMethod::GraceHash,
        PlanNode::seq_scan(1),
        PlanNode::seq_scan(2),
    );
    let key = ColumnRef::new(2, 2);
    let sorted = PlanNode::sort(join.clone(), key);
    for m in [3, 8] {
        let out = cal.run(&sorted, m).unwrap();
        let idx = out.column(key);
        assert!(out.rows.windows(2).all(|w| w[0][idx] <= w[1][idx]), "m={m}");
        let mut got = out.rows;
        got.sort_unstable();
        let want = rows(&cal, &join, m);
        assert!(!want.is_empty());
        assert_eq!(got, want, "m={m}");
    }
}

/// The mean cost of `runs` sampled executions of `plan`, each charging
/// every phase its model cost at the memory a trace drawn from
/// `objective` gives that phase: one static draw for the whole trace, or
/// a path of the chain.  Sampling noise aside, this is the replay's
/// expectation; it checks the replay's per-phase linearity independently.
fn sampled_mean(
    model: &CostModel<'_>,
    plan: &PlanNode,
    objective: &Objective,
    runs: usize,
    seed: u64,
) -> f64 {
    let nodes = plan_node_costs(model, plan);
    let n = plan.n_phases().max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0.0;
    for _ in 0..runs {
        let trace = match objective {
            Objective::Static(memory) => vec![memory.sample(&mut rng); n],
            Objective::Dynamic { initial, chain } => {
                chain.sample_path(&chain.dist_to_probs(initial).unwrap(), n, &mut rng)
            }
        };
        // An access costs the same in any phase: charge it phase 0's.
        let cost = (nodes.iter()).map(|node| node.cost_at(model, trace[node.phase.unwrap_or(0)]));
        total += cost.sum::<f64>();
    }
    total / runs as f64
}

#[test]
fn monte_carlo_agrees_with_analytic_expected_cost() {
    for seed in [21u64, 22] {
        let (cat, q) = workload(seed, 4, Topology::Chain, 800_000);
        let memory = presets::spread_family(350.0, 0.9, 4).unwrap();
        let model = CostModel::new(&cat, &q);
        let opt = Optimizer::new(&cat, memory.clone());
        let r = opt.optimize(&q, &Mode::Lsc(PointEstimate::Mean)).unwrap();
        let analytic = lec_qopt::cost::expected_plan_cost_static(&model, &r.plan, &memory);
        let sampled = sampled_mean(&model, &r.plan, &Objective::Static(memory), 60_000, seed);
        let rel = (sampled - analytic).abs() / analytic;
        assert!(
            rel < 0.02,
            "seed {seed}: sampled {sampled} vs analytic {analytic}"
        );
    }
}

/// Memory drifting down a birth-death chain from its top state: sampled
/// paths average to the dynamic replay of dynamic Algorithm C's plan.
#[test]
fn monte_carlo_agrees_with_dynamic_expected_cost() {
    let chain = MarkovChain::birth_death(vec![50.0, 150.0, 450.0, 1350.0], 0.45, 0.10).unwrap();
    let initial = Distribution::point(1350.0);
    let mode = Mode::AlgorithmCDynamic { chain };
    let objective = mode.objective(&initial).unwrap();
    for (seed, topology) in [(23u64, Topology::Chain), (24, Topology::Star)] {
        let (cat, q) = workload(seed, 5, topology, 800_000);
        let model = CostModel::new(&cat, &q);
        let plan = Optimizer::new(&cat, initial.clone())
            .optimize(&q, &mode)
            .unwrap()
            .plan;
        let analytic = objective.replay(&model, &plan);
        let sampled = sampled_mean(&model, &plan, &objective, 20_000, seed);
        let rel = (sampled - analytic).abs() / analytic;
        assert!(
            rel < 0.03,
            "{topology:?}: sampled {sampled} vs dynamic replay {analytic} (rel {rel})"
        );
    }
}

#[test]
fn lec_plan_never_replays_above_the_lsc_plan() {
    // On workloads where LEC and LSC disagree, Algorithm C's plan has the
    // lower expected cost: C is exact over a space holding LSC's plan.
    let mut disagreements = 0;
    for seed in 0..20u64 {
        let (cat, q) = workload(seed + 31, 4, Topology::Chain, 800_000);
        let memory = presets::spread_family(250.0, 0.9, 6).unwrap();
        let opt = Optimizer::new(&cat, memory);
        let lsc = opt.optimize(&q, &Mode::Lsc(PointEstimate::Mean)).unwrap();
        let lec = opt.optimize(&q, &Mode::AlgorithmC).unwrap();
        if lsc.plan == lec.plan {
            continue;
        }
        disagreements += 1;
        let (ec_lsc, ec_lec) = (
            opt.expected_cost_of(&q, &lsc.plan),
            opt.expected_cost_of(&q, &lec.plan),
        );
        assert!(
            ec_lec <= ec_lsc,
            "seed {seed}: EC(C) {ec_lec} vs EC(LSC) {ec_lsc}"
        );
    }
    assert!(
        disagreements >= 2,
        "expected several LSC/LEC disagreements, got {disagreements}"
    );
}
