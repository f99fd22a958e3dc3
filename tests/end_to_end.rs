//! End-to-end workspace tests: random workloads through every optimizer
//! mode, checking the paper's dominance chain and cross-crate consistency.

use lec_qopt::catalog::CatalogGenerator;
use lec_qopt::core::{AlgDConfig, Mode, Optimizer, PointEstimate};
use lec_qopt::cost::{expected_plan_cost_static, CostModel};
use lec_qopt::plan::{QueryProfile, TableSet, Topology, WorkloadGenerator};
use lec_qopt::prob::presets;

fn workloads(
    seed: u64,
    n_tables: usize,
    topology: Topology,
) -> Vec<(lec_qopt::catalog::Catalog, lec_qopt::plan::Query)> {
    let mut out = Vec::new();
    for s in 0..6u64 {
        let mut g = CatalogGenerator::new(seed + s);
        let cat = g.generate(n_tables + 2);
        let ids = g.pick_tables(&cat, n_tables);
        let mut wg = WorkloadGenerator::new(seed + 100 + s);
        let profile = QueryProfile {
            topology,
            ..Default::default()
        };
        let q = wg.gen_query(&cat, &ids, &profile);
        out.push((cat, q));
    }
    out
}

/// EC(C) ≤ EC(B) ≤ EC(A) ≤ EC(LSC plan): the paper's quality ordering, on
/// random workloads.
#[test]
fn dominance_chain_holds_on_random_workloads() {
    for topology in [Topology::Chain, Topology::Star, Topology::Random] {
        for (cat, q) in workloads(7, 5, topology) {
            let memory = presets::spread_family(500.0, 0.8, 6).unwrap();
            let opt = Optimizer::new(&cat, memory.clone());
            let model = CostModel::new(&cat, &q);

            let lsc = opt.optimize(&q, &Mode::Lsc(PointEstimate::Mean)).unwrap();
            let a = opt.optimize(&q, &Mode::AlgorithmA).unwrap();
            let b = opt.optimize(&q, &Mode::AlgorithmB { c: 3 }).unwrap();
            let c = opt.optimize(&q, &Mode::AlgorithmC).unwrap();

            let lsc_ec = expected_plan_cost_static(&model, &lsc.plan, &memory);
            assert!(a.cost <= lsc_ec + 1e-6, "{topology:?}: A > LSC");
            assert!(b.cost <= a.cost + 1e-6, "{topology:?}: B > A");
            assert!(c.cost <= b.cost + 1e-6, "{topology:?}: C > B");
        }
    }
}

/// Every mode's reported cost must replay exactly through the cost crate.
#[test]
fn reported_costs_replay_through_the_cost_model() {
    for (cat, q) in workloads(21, 4, Topology::Chain) {
        let memory = presets::spread_family(350.0, 0.6, 5).unwrap();
        let opt = Optimizer::new(&cat, memory.clone());
        let model = CostModel::new(&cat, &q);
        for mode in [
            Mode::Lsc(PointEstimate::Mean),
            Mode::AlgorithmA,
            Mode::AlgorithmB { c: 2 },
            Mode::AlgorithmC,
        ] {
            let r = opt.optimize(&q, &mode).unwrap();
            let replay = match mode {
                Mode::Lsc(_) => lec_qopt::cost::plan_cost_at(&model, &r.plan, memory.mean()),
                _ => expected_plan_cost_static(&model, &r.plan, &memory),
            };
            assert!(
                (r.cost - replay).abs() / replay.max(1.0) < 1e-9,
                "{}: reported {} vs replay {replay}",
                mode.name(),
                r.cost
            );
        }
    }
}

/// All plans are left-deep, cover every table, and honor required orders.
#[test]
fn plans_are_structurally_valid() {
    for (cat, q) in workloads(33, 5, Topology::Random) {
        let memory = presets::spread_family(400.0, 0.7, 4).unwrap();
        let opt = Optimizer::new(&cat, memory);
        let model = CostModel::new(&cat, &q);
        for mode in [
            Mode::Lsc(PointEstimate::Mode),
            Mode::AlgorithmA,
            Mode::AlgorithmB { c: 2 },
            Mode::AlgorithmC,
            Mode::AlgorithmD {
                config: AlgDConfig::default(),
            },
        ] {
            let r = opt.optimize(&q, &mode).unwrap();
            assert!(r.plan.is_left_deep(), "{}", mode.name());
            assert_eq!(
                r.plan.tables(),
                TableSet::full(q.n_tables()),
                "{}",
                mode.name()
            );
            if q.required_order.is_some() {
                let order = lec_qopt::cost::output_order(&model, &r.plan);
                assert!(
                    order.is_required(),
                    "{}: required order violated",
                    mode.name()
                );
            }
        }
    }
}

/// With a point memory distribution and point selectivities, every
/// algorithm must coincide with LSC (the paper's single-bucket remark).
#[test]
fn all_algorithms_collapse_at_a_point() {
    for (cat, q) in workloads(55, 4, Topology::Star) {
        let memory = lec_qopt::prob::Distribution::point(750.0);
        let opt = Optimizer::new(&cat, memory);
        let lsc = opt.optimize(&q, &Mode::Lsc(PointEstimate::Mean)).unwrap();
        for mode in [
            Mode::AlgorithmA,
            Mode::AlgorithmB { c: 3 },
            Mode::AlgorithmC,
            Mode::AlgorithmD {
                config: AlgDConfig::default(),
            },
        ] {
            let r = opt.optimize(&q, &mode).unwrap();
            assert!(
                (r.cost - lsc.cost).abs() / lsc.cost < 1e-9,
                "{}: {} vs LSC {}",
                mode.name(),
                r.cost,
                lsc.cost
            );
        }
    }
}

/// Uncertain selectivities: Algorithm D runs clean on workloads where
/// every join selectivity is a distribution.
#[test]
fn algorithm_d_on_uncertain_workloads() {
    for s in 0..4u64 {
        let mut g = CatalogGenerator::new(60 + s);
        let cat = g.generate(6);
        let ids = g.pick_tables(&cat, 4);
        let mut wg = WorkloadGenerator::new(600 + s);
        let profile = QueryProfile {
            topology: Topology::Chain,
            sel_buckets: 4,
            ..Default::default()
        };
        let q = wg.gen_query(&cat, &ids, &profile);
        assert!(
            q.joins.iter().any(|j| !j.selectivity.is_point())
                || q.tables
                    .iter()
                    .any(|t| t.filter.as_ref().is_some_and(|f| !f.selectivity.is_point()))
        );
        let memory = presets::spread_family(450.0, 0.5, 4).unwrap();
        let opt = Optimizer::new(&cat, memory);
        let r = opt
            .optimize(
                &q,
                &Mode::AlgorithmD {
                    config: AlgDConfig::default(),
                },
            )
            .unwrap();
        assert!(r.cost.is_finite() && r.cost > 0.0);
        assert!(r.plan.is_left_deep());
    }
}
