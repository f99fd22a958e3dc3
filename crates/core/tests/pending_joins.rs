//! A pending join ([`Joined`]) ranks exactly as the join step it builds,
//! and the plan arena's step compare equals [`plan_shape_cmp`], the tree
//! compare it replaced (kept here as the reference), on the trees both
//! sides materialize: the insert rules compare pending joins and built
//! entries by their steps, so every tie-break of the built DP table rests
//! on this.  Operands are real steps of a real search — every step
//! reachable from Algorithm B's root list — and half of the pairs are
//! forced to an exact cost tie, so the shape compare decides.

use lec_catalog::CatalogGenerator;
use lec_core::search::policy::shape_rank;
use lec_core::search::{
    run_search_with, DpEntry, Joined, PlanArena, PlanId, PlanShape, SearchEntry, Step, TopCPolicy,
};
use lec_cost::CostModel;
use lec_plan::{JoinMethod, NodeRef, OrderProperty, QueryProfile, Topology, WorkloadGenerator};
use proptest::prelude::*;
use std::cmp::Ordering;

/// The shape tie-break over plan trees, as the search ran it before plans
/// lived in an arena: nodes compare by kind, joins by method then
/// operands, sorts by key column, scans by the table's shape fingerprint.
fn plan_shape_cmp(model: &CostModel<'_>, a: NodeRef<'_>, b: NodeRef<'_>) -> Ordering {
    fn kind(n: Step<NodeRef<'_>>) -> u8 {
        match n {
            Step::SeqScan(_) => 0,
            Step::IndexScan(_) => 1,
            Step::Sort(..) => 2,
            Step::Join(..) => 3,
        }
    }
    match (a.node(), b.node()) {
        (Step::SeqScan(ta), Step::SeqScan(tb)) | (Step::IndexScan(ta), Step::IndexScan(tb)) => {
            model
                .table_shape_fingerprint(ta)
                .cmp(&model.table_shape_fingerprint(tb))
        }
        (Step::Sort(ia, ka), Step::Sort(ib, kb)) => ka
            .column
            .cmp(&kb.column)
            .then_with(|| plan_shape_cmp(model, ia, ib)),
        (Step::Join(ma, oa, na), Step::Join(mb, ob, nb)) => ma
            .cmp(&mb)
            .then_with(|| plan_shape_cmp(model, oa, ob))
            .then_with(|| plan_shape_cmp(model, na, nb)),
        (na, nb) => kind(na).cmp(&kind(nb)),
    }
}

const TOPOLOGIES: [Topology; 3] = [Topology::Chain, Topology::Star, Topology::Random];

/// `id` and every step below it, shared steps once per path.
fn steps(plans: &PlanArena, id: PlanId, into: &mut Vec<PlanId>) {
    into.push(id);
    match plans.step(id) {
        Step::Join(_, outer, inner) => {
            steps(plans, outer, into);
            steps(plans, inner, into);
        }
        Step::Sort(input, _) => steps(plans, input, into),
        Step::SeqScan(_) | Step::IndexScan(_) => {}
    }
}

/// A random (outer pick, inner pick, method index) of a pending join.
fn join() -> impl Strategy<Value = (usize, usize, usize)> {
    (0usize..1 << 16, 0usize..1 << 16, 0usize..4)
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
        let run = run_search_with(&model, PlanShape::LeftDeep, &mut policy).unwrap();
        let mut pool = Vec::new();
        for root in &run.roots {
            steps(&run.plans, root.plan, &mut pool);
        }
        let mut plans = run.plans;
        let pick = |k: usize| pool[k % pool.len()];
        for ((ao, ai, am), (bo, bi, bm), share, tie) in picks {
            let a = Joined {
                cost: (ao % 7) as f64,
                order: OrderProperty::Unsorted,
                size: 1.0,
                method: JoinMethod::ALL[am],
                outer: pick(ao),
                inner: pick(ai),
            };
            // Shared operands are the common case among tied candidates
            // of one node: they meet the compare's equal-id shortcut.
            let b = Joined {
                cost: if tie { a.cost } else { (bo % 7) as f64 },
                method: JoinMethod::ALL[bm],
                outer: if share >= 1 { a.outer } else { pick(bo) },
                inner: if share == 2 { a.inner } else { pick(bi) },
                ..a
            };
            let [built_a, built_b] = [a, b].map(|j| DpEntry {
                plan: plans.push(Step::Join(j.method, j.outer, j.inner)),
                cost: j.cost,
                pages: j.size,
                order: j.order,
            });
            prop_assert_eq!(plans.step(built_a.plan), Step::Join(a.method, a.outer, a.inner));
            let (tree_a, tree_b) = (plans.node(built_a.plan), plans.node(built_b.plan));
            let want = plan_shape_cmp(&model, tree_a.root(), tree_b.root());
            prop_assert_eq!(a.shape_cmp(&model, &plans, &b), want);
            prop_assert_eq!(built_a.shape_cmp(&model, &plans, &built_b), want);
            let (x, y) = (pick(ao ^ bo), pick(ai ^ bi));
            prop_assert_eq!(
                plans.shape_cmp(&model, x, y),
                plan_shape_cmp(&model, plans.node(x).root(), plans.node(y).root())
            );
            prop_assert_eq!(
                shape_rank(&model, &plans, &a, &b),
                shape_rank(&model, &plans, &built_a, &built_b),
                "{} vs {}",
                tree_a.compact(),
                tree_b.compact()
            );
        }
    }
}
