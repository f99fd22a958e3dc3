//! A pending join ([`Joined`]) ranks exactly as the node it builds: the
//! insert rules compare pending joins, so every tie-break of the built DP
//! table rests on this.  Operands are real plan nodes of a real search —
//! every node reachable from Algorithm B's root list — and half of the
//! pairs are forced to an exact cost tie, so the shape compare decides.

use lec_catalog::CatalogGenerator;
use lec_core::search::policy::shape_rank;
use lec_core::search::{
    plan_shape_cmp, run_search_with, CandidatePolicy, Joined, PlanShape, SearchConfig, SearchEntry,
    TopCPolicy,
};
use lec_cost::CostModel;
use lec_plan::{JoinMethod, OrderProperty, PlanNode, QueryProfile, Topology, WorkloadGenerator};
use proptest::prelude::*;
use std::sync::Arc;

const TOPOLOGIES: [Topology; 3] = [Topology::Chain, Topology::Star, Topology::Random];

/// A random (outer pick, inner pick, method index) of a pending join.
fn join() -> impl Strategy<Value = (usize, usize, usize)> {
    (0usize..1 << 16, 0usize..1 << 16, 0usize..4)
}

/// Every operand node below `plan`, shared nodes included once per path.
fn operands(plan: &PlanNode, into: &mut Vec<Arc<PlanNode>>) {
    match plan {
        PlanNode::Join { outer, inner, .. } => {
            for child in [outer, inner] {
                into.push(Arc::clone(child));
                operands(child, into);
            }
        }
        PlanNode::Sort { input, .. } => {
            into.push(Arc::clone(input));
            operands(input, into);
        }
        PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. } => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_pending_join_ranks_like_its_built_node(
        seed in 0u64..1_000_000,
        n in 3usize..7,
        topology in 0usize..3,
        picks in prop::collection::vec((join(), join(), 0usize..3, any::<bool>()), 48),
    ) {
        let mut tables = CatalogGenerator::new(seed);
        let catalog = tables.generate(n + 4);
        let ids = tables.pick_tables(&catalog, n);
        let profile = QueryProfile {
            topology: TOPOLOGIES[topology],
            ..Default::default()
        };
        let query = WorkloadGenerator::new(seed ^ 0x5EED).gen_query(&catalog, &ids, &profile);
        let model = CostModel::new(&catalog, &query);
        let mut policy = TopCPolicy::new(500.0, 8);
        let config = SearchConfig::default();
        let run = run_search_with(&model, PlanShape::LeftDeep, &mut policy, &config).unwrap();
        let mut pool = Vec::new();
        for root in &run.roots {
            pool.push(Arc::clone(&root.plan));
            operands(&root.plan, &mut pool);
        }
        let pick = |k: usize| &pool[k % pool.len()];
        for ((ao, ai, am), (bo, bi, bm), share, tie) in picks {
            let a = Joined {
                cost: (ao % 7) as f64,
                order: OrderProperty::None,
                size: 1.0,
                method: JoinMethod::ALL[am],
                outer: pick(ao),
                inner: pick(ai),
            };
            // Shared operands are the common case among tied candidates
            // of one node: they meet `plan_shape_cmp`'s pointer shortcut.
            let b = Joined {
                cost: if tie { a.cost } else { (bo % 7) as f64 },
                method: JoinMethod::ALL[bm],
                outer: if share >= 1 { a.outer } else { pick(bo) },
                inner: if share == 2 { a.inner } else { pick(bi) },
                ..a
            };
            let built_a = policy.build(vec![a]).remove(0);
            let built_b = policy.build(vec![b]).remove(0);
            let PlanNode::Join { outer, inner, .. } = &*built_a.plan else {
                panic!("a pending join builds a join node");
            };
            prop_assert!(Arc::ptr_eq(outer, a.outer) && Arc::ptr_eq(inner, a.inner));
            prop_assert_eq!(
                a.shape_cmp(&model, &b),
                plan_shape_cmp(&model, &built_a.plan, &built_b.plan)
            );
            prop_assert_eq!(
                shape_rank(&model, &a, &b),
                shape_rank(&model, &built_a, &built_b),
                "{} vs {}",
                built_a.plan.compact(),
                built_b.plan.compact()
            );
        }
    }
}
