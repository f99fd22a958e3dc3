//! Whole-plan costing: `C(P, v)`, phase decomposition, and expected cost
//! under static and dynamically changing memory.
//!
//! The paper's cost function takes "a plan p and a vector v of values of
//! relevant parameters" (§3.1).  Here `v` is the available memory (sizes
//! are point estimates at this layer; fully distributional sizes are the
//! business of `lec-core`'s Algorithm D, which costs joins *before* plans
//! exist).  For §3.5's dynamic case, "plan execution takes place in phases,
//! each corresponding to a join in the plan ... memory does not change
//! during the execution of a phase, but can change between phases" —
//! [`phases`] materializes exactly that decomposition.

use crate::model::{AccessPath, CostModel};
use lec_plan::{JoinMethod, NodeRef, OrderProperty, PlanNode, Step};
use lec_prob::{Distribution, MarkovChain, ProbError};

/// One execution phase (§3.5): a join or sort plus the memory-independent
/// access costs charged alongside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Memory-independent cost (base-table accesses feeding this phase).
    pub fixed: f64,
    /// The sort or join that opens the phase; `None` for a lone access
    /// (a degenerate single-access plan).
    pub op: Option<NodeKind>,
}

impl Phase {
    /// Cost of the phase when memory is `m`.
    pub fn cost_at(&self, model: &CostModel<'_>, m: f64) -> f64 {
        self.fixed + self.op.as_ref().map_or(0.0, |op| op.cost_at(model, m))
    }
}

/// What one audited plan node is, with the point-estimated operand sizes
/// its predicted cost is computed from.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// Base-table access (memory-independent cost).
    Access {
        /// Access path.
        path: AccessPath,
        /// Query-table index.
        table: usize,
    },
    /// Explicit external sort.
    Sort {
        /// Input size in pages.
        pages: f64,
    },
    /// A join of two point-estimated inputs.
    Join {
        /// Join algorithm.
        method: JoinMethod,
        /// Outer input size in pages.
        outer: f64,
        /// Inner input size in pages.
        inner: f64,
    },
}

/// Physical operator classes of the execution substrate: every class
/// `lec-exec` can execute and this crate can predict.  The calibration
/// audit (`lec-exec::calib`) reports each node's prediction error under
/// its class, so a formula that drifts from its operator shows up per
/// class rather than averaged away.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Sequential heap scan.
    SeqAccess,
    /// Index access (clustered or unclustered).
    IndexAccess,
    /// Explicit external sort.
    Sort,
    /// Sort-merge join.
    SortMerge,
    /// Grace hash join.
    GraceHash,
    /// Block nested-loop join.
    BlockNestedLoop,
    /// Page nested-loop join.
    PageNestedLoop,
}

impl OpClass {
    pub fn name(self) -> &'static str {
        match self {
            OpClass::SeqAccess => "seq_access",
            OpClass::IndexAccess => "index_access",
            OpClass::Sort => "sort",
            OpClass::SortMerge => "sort_merge",
            OpClass::GraceHash => "grace_hash",
            OpClass::BlockNestedLoop => "block_nl",
            OpClass::PageNestedLoop => "page_nl",
        }
    }
}

/// One plan node's predicted-cost record: the per-node decomposition the
/// calibration observatory (`lec-exec::calib`) audits against measured
/// page I/O.  Emitted by [`plan_node_costs`] in the exact traversal order
/// of [`phases`], so a node's `phase` index lines up with the phase list
/// and with [`Objective::phase_distributions`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNodeCost {
    /// Short display label (`R0`, `IxR2`, `Sort`, `SM`, ... — the
    /// vocabulary of `PlanNode::compact`).
    pub label: String,
    /// Index into [`phases`] for memory-dependent nodes; `None` for
    /// base-table accesses (their cost is memory-independent and folded
    /// into an enclosing phase's fixed part).
    pub phase: Option<usize>,
    /// The node's operator and operand sizes.
    pub kind: NodeKind,
}

impl PlanNodeCost {
    /// The node's predicted cost when memory is `m` pages.
    pub fn cost_at(&self, model: &CostModel<'_>, m: f64) -> f64 {
        self.kind.cost_at(model, m)
    }

    /// The physical operator class of this node.
    pub fn class(&self) -> OpClass {
        match &self.kind {
            NodeKind::Access {
                path: AccessPath::SeqScan,
                ..
            } => OpClass::SeqAccess,
            NodeKind::Access {
                path: AccessPath::IndexScan,
                ..
            } => OpClass::IndexAccess,
            NodeKind::Sort { .. } => OpClass::Sort,
            NodeKind::Join { method, .. } => match method {
                JoinMethod::SortMerge => OpClass::SortMerge,
                JoinMethod::GraceHash => OpClass::GraceHash,
                JoinMethod::PageNestedLoop => OpClass::PageNestedLoop,
                JoinMethod::BlockNestedLoop => OpClass::BlockNestedLoop,
            },
        }
    }
}

impl NodeKind {
    /// The operator's predicted cost when memory is `m` pages: the one
    /// per-operator price of the replay.
    pub fn cost_at(&self, model: &CostModel<'_>, m: f64) -> f64 {
        match *self {
            NodeKind::Access { path, table } => model.access_cost(path, table),
            NodeKind::Sort { pages } => model.sort_cost(pages, m),
            NodeKind::Join {
                method,
                outer,
                inner,
            } => model.join_cost(method, outer, inner, m),
        }
    }
}

/// The replay's one walk over a plan: postorder, outer before inner.
/// Calls `visit(node, kind, fixed)` once per node, where `fixed` is `Some`
/// for a sort or join — the access costs of the leaves directly below it,
/// which its phase carries — and `None` for an access.  Returns the
/// node's output pages and, for an access, its cost not yet carried by a
/// phase.
fn walk<'p>(
    model: &CostModel<'_>,
    node: NodeRef<'p>,
    visit: &mut impl FnMut(NodeRef<'p>, NodeKind, Option<f64>),
) -> (f64, f64) {
    let mut access = |path, table| {
        visit(node, NodeKind::Access { path, table }, None);
        (model.base_pages(table), model.access_cost(path, table))
    };
    match node.node() {
        Step::SeqScan(table) => access(AccessPath::SeqScan, table),
        Step::IndexScan(table) => access(AccessPath::IndexScan, table),
        Step::Sort(input, _) => {
            let (pages, pending) = walk(model, input, visit);
            visit(node, NodeKind::Sort { pages }, Some(pending));
            (pages, 0.0)
        }
        Step::Join(method, outer, inner) => {
            let (outer_pages, outer_pending) = walk(model, outer, visit);
            let (inner_pages, inner_pending) = walk(model, inner, visit);
            let kind = NodeKind::Join {
                method,
                outer: outer_pages,
                inner: inner_pages,
            };
            visit(node, kind, Some(outer_pending + inner_pending));
            let split = model.split(outer.tables(), inner.tables());
            (split.pages(outer_pages, inner_pages), 0.0)
        }
    }
}

/// Per-node predicted-cost decomposition of a plan, in the traversal order
/// of [`phases`] (post-order, outer before inner; access leaves emitted
/// where they occur).  Invariant, tested here and re-asserted by every
/// calibration audit: for any memory `m`, the node costs sum to the
/// whole-plan prediction `plan_cost_at(model, plan, m)`.
pub fn plan_node_costs(model: &CostModel<'_>, plan: &PlanNode) -> Vec<PlanNodeCost> {
    let mut out = Vec::with_capacity(plan.steps().len());
    let mut next_phase = 0..;
    walk(model, plan.root(), &mut |node, kind, fixed| {
        let label = match &kind {
            NodeKind::Access { .. } => node.compact(),
            NodeKind::Sort { .. } => "Sort".to_string(),
            NodeKind::Join { method, .. } => method.name().to_string(),
        };
        let phase = fixed.and_then(|_| next_phase.next());
        out.push(PlanNodeCost { label, phase, kind });
    });
    out
}

/// Decompose a plan into execution phases, innermost first.
pub fn phases(model: &CostModel<'_>, plan: &PlanNode) -> Vec<Phase> {
    let mut out = Vec::with_capacity(plan.n_phases());
    let (_, pending) = walk(model, plan.root(), &mut |_, kind, fixed| {
        if let Some(fixed) = fixed {
            out.push(Phase {
                fixed,
                op: Some(kind),
            });
        }
    });
    if pending > 0.0 {
        // Degenerate single-access plan: charge the access as its own phase.
        out.push(Phase {
            fixed: pending,
            op: None,
        });
    }
    out
}

/// The order property of a plan's output.
///
/// Rules (the \[SAC+79\] interesting-order extension, with the required
/// order the one interesting order — [`lec_plan::order`]):
/// * a join delivers what [`crate::Split::order`] says of its method;
/// * a clustered index scan produces its filter column's order;
/// * a sort produces its key's order.
pub fn output_order(model: &CostModel<'_>, plan: &PlanNode) -> OrderProperty {
    fn order(model: &CostModel<'_>, node: NodeRef<'_>) -> OrderProperty {
        match node.node() {
            Step::SeqScan(_) => OrderProperty::Unsorted,
            Step::IndexScan(table) => model.index_scan_order(table),
            Step::Sort(_, key) => model.equivalences.sorted_on(key),
            Step::Join(method, outer, inner) => {
                (model.split(outer.tables(), inner.tables())).order(method, order(model, outer))
            }
        }
    }
    order(model, plan.root())
}

/// Total plan cost `C(P, m)` at a fixed memory value.
pub fn plan_cost_at(model: &CostModel<'_>, plan: &PlanNode, m: f64) -> f64 {
    phases(model, plan)
        .iter()
        .map(|p| p.cost_at(model, m))
        .sum()
}

/// Expected plan cost under a static memory distribution:
/// `EC(P) = Σ_m C(P, m)·Pr(m)` (§3.1).
pub fn expected_plan_cost_static(
    model: &CostModel<'_>,
    plan: &PlanNode,
    memory: &Distribution,
) -> f64 {
    let ph = phases(model, plan);
    memory.expect(|m| ph.iter().map(|p| p.cost_at(model, m)).sum())
}

/// Expected plan cost when memory evolves between phases (§3.5): phase `k`
/// sees the initial distribution pushed `k` steps through the chain.
/// Linearity of expectation makes this a per-phase sum — the observation
/// Theorem 3.4 rests on.
pub fn expected_plan_cost_dynamic(
    model: &CostModel<'_>,
    plan: &PlanNode,
    initial: &Distribution,
    chain: &MarkovChain,
) -> Result<f64, ProbError> {
    let ph = phases(model, plan);
    let marginals = chain.marginals(initial, ph.len())?;
    let mut total = 0.0;
    for (phase, dist) in ph.iter().zip(&marginals) {
        total += dist.expect(|m| phase.cost_at(model, m));
    }
    Ok(total)
}

/// A memory belief: what a plan is priced by.  The optimizer's exact
/// modes search under one (`lec_core::Mode::objective` names each mode's),
/// the oracle enumerates under one, and the calibration audit weighs its
/// measurements by one.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// `EC(P)` under one memory distribution (§3.1); a point memory is the
    /// one-bucket distribution.
    Static(Distribution),
    /// §3.5: phase `k` sees `initial` pushed `k` steps through `chain`.
    Dynamic {
        /// The first phase's memory distribution.
        initial: Distribution,
        /// How memory moves between phases.
        chain: MarkovChain,
    },
}

impl Objective {
    /// The memory distribution of each of `n` phases: `n` copies of a
    /// static belief, or the chain's marginals.
    pub fn phase_distributions(&self, n: usize) -> Result<Vec<Distribution>, ProbError> {
        match self {
            Objective::Static(memory) => Ok(vec![memory.clone(); n]),
            Objective::Dynamic { initial, chain } => chain.marginals(initial, n),
        }
    }

    /// The replay's cost of `plan`.  Panics if a dynamic objective's chain
    /// cannot evolve its initial distribution.
    pub fn replay(&self, model: &CostModel<'_>, plan: &PlanNode) -> f64 {
        match self {
            Objective::Static(memory) => expected_plan_cost_static(model, plan, memory),
            Objective::Dynamic { initial, chain } => {
                expected_plan_cost_dynamic(model, plan, initial, chain).expect("chain evolves")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_catalog::{Catalog, ColumnStats, TableStats};
    use lec_plan::{ColumnRef, JoinPredicate, Query, QueryTable};

    /// The Example 1.1 setting: A = 1,000,000 pages, B = 400,000 pages,
    /// join result 3000 pages, output ordered by the join column.
    fn example_1_1() -> (Catalog, Query) {
        let mut cat = Catalog::new();
        let a = cat.add_table(
            "A",
            TableStats::new(1_000_000, 50_000_000, vec![ColumnStats::plain("k", 1000)]),
        );
        let b = cat.add_table(
            "B",
            TableStats::new(400_000, 20_000_000, vec![ColumnStats::plain("k", 1000)]),
        );
        let sel = 3000.0 / (1_000_000.0 * 400_000.0);
        let query = Query {
            tables: vec![QueryTable::bare(a), QueryTable::bare(b)],
            joins: vec![JoinPredicate::exact(
                ColumnRef::new(0, 0),
                ColumnRef::new(1, 0),
                sel,
            )],
            required_order: Some(ColumnRef::new(0, 0)),
        };
        (cat, query)
    }

    fn plan1() -> PlanNode {
        // Sort-merge join; output already ordered.
        PlanNode::join(
            JoinMethod::SortMerge,
            PlanNode::seq_scan(0),
            PlanNode::seq_scan(1),
        )
    }

    fn plan2() -> PlanNode {
        // Grace hash join, then sort the 3000-page result.
        PlanNode::sort(
            PlanNode::join(
                JoinMethod::GraceHash,
                PlanNode::seq_scan(0),
                PlanNode::seq_scan(1),
            ),
            ColumnRef::new(0, 0),
        )
    }

    #[test]
    fn example_1_1_point_costs() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let scans = 1_400_000.0;

        // M = 2000: plan 1 runs in two passes.
        let c1_hi = plan_cost_at(&model, &plan1(), 2000.0);
        assert_eq!(c1_hi, scans + 2.0 * 1_400_000.0);
        // M = 700 < 1000 = √L: an extra pass.
        let c1_lo = plan_cost_at(&model, &plan1(), 700.0);
        assert_eq!(c1_lo, scans + 4.0 * 1_400_000.0);

        // Plan 2 is flat across the two memory values (700 > √400000 ≈ 633):
        // hash passes + the small sort (3·3000 = 9000).
        let c2_hi = plan_cost_at(&model, &plan2(), 2000.0);
        let c2_lo = plan_cost_at(&model, &plan2(), 700.0);
        assert_eq!(c2_hi, scans + 2.0 * 1_400_000.0 + 9000.0);
        assert_eq!(c2_lo, c2_hi);

        // The paper's narrative: plan 2 "slightly more expensive" at high
        // memory, far cheaper at low memory.
        assert!(c2_hi > c1_hi);
        assert!(c2_hi - c1_hi < 0.01 * c1_hi);
        assert!(c1_lo > c2_lo + 1_000_000.0);
    }

    #[test]
    fn example_1_1_expected_costs_prefer_plan2() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let memory = lec_prob::presets::example_1_1_memory();
        let ec1 = expected_plan_cost_static(&model, &plan1(), &memory);
        let ec2 = expected_plan_cost_static(&model, &plan2(), &memory);
        // EC(plan1) = 1.4e6 + 0.8·2.8e6 + 0.2·5.6e6 = 4.76e6
        assert!((ec1 - (1_400_000.0 + 0.8 * 2_800_000.0 + 0.2 * 5_600_000.0)).abs() < 1.0);
        // EC(plan2) = 1.4e6 + 2.8e6 + 9000
        assert!((ec2 - (1_400_000.0 + 2_800_000.0 + 9000.0)).abs() < 1.0);
        assert!(ec2 < ec1, "the paper's LEC choice");
        // While at the modal AND mean memory, plan 1 is the LSC winner:
        for m in [2000.0, memory.mean()] {
            assert!(plan_cost_at(&model, &plan1(), m) < plan_cost_at(&model, &plan2(), m));
        }
    }

    #[test]
    fn phase_decomposition_shape() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let ph = phases(&model, &plan2());
        assert_eq!(ph.len(), 2);
        // Phase 0: the join, carrying both scans as fixed cost.
        assert_eq!(ph[0].fixed, 1_400_000.0);
        assert!(matches!(
            ph[0].op,
            Some(NodeKind::Join {
                method: JoinMethod::GraceHash,
                ..
            })
        ));
        // Phase 1: the sort of the 3000-page result.
        assert_eq!(ph[0].fixed + ph[1].fixed, 1_400_000.0);
        match ph[1].op {
            Some(NodeKind::Sort { pages }) => assert!((pages - 3000.0).abs() < 1e-6),
            _ => panic!("expected sort phase"),
        }
    }

    #[test]
    fn order_properties() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        // SM output satisfies the required order; GH does not; the sort fixes it.
        assert_eq!(output_order(&model, &plan1()), OrderProperty::Required);
        let bare_gh = PlanNode::join(
            JoinMethod::GraceHash,
            PlanNode::seq_scan(0),
            PlanNode::seq_scan(1),
        );
        assert_eq!(output_order(&model, &bare_gh), OrderProperty::Unsorted);
        assert_eq!(output_order(&model, &plan2()), OrderProperty::Required);
        // NL preserves the outer's (lack of) order.
        let nl = PlanNode::join(
            JoinMethod::PageNestedLoop,
            PlanNode::seq_scan(0),
            PlanNode::seq_scan(1),
        );
        assert_eq!(output_order(&model, &nl), OrderProperty::Unsorted);
        // A sort on a column outside the required class is incidental.
        let off_key = PlanNode::sort(PlanNode::seq_scan(0), ColumnRef::new(0, 1));
        assert_eq!(output_order(&model, &off_key), OrderProperty::Incidental);
    }

    #[test]
    fn dynamic_cost_with_identity_chain_matches_static() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let memory = lec_prob::presets::example_1_1_memory();
        let chain = MarkovChain::identity(vec![700.0, 2000.0]).unwrap();
        for plan in [plan1(), plan2()] {
            let stat = expected_plan_cost_static(&model, &plan, &memory);
            let dynm = expected_plan_cost_dynamic(&model, &plan, &memory, &chain).unwrap();
            assert!((stat - dynm).abs() < 1e-6, "{} vs {}", stat, dynm);
        }
    }

    #[test]
    fn dynamic_cost_sees_later_phase_drift() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        // Start surely at 2000 pages, but crash toward 50 pages next phase:
        // plan 2's sort phase gets expensive, plan 1 has no second phase.
        let chain =
            MarkovChain::new(vec![50.0, 2000.0], vec![vec![1.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let start = Distribution::point(2000.0);
        let c1 = expected_plan_cost_dynamic(&model, &plan1(), &start, &chain).unwrap();
        let c2 = expected_plan_cost_dynamic(&model, &plan2(), &start, &chain).unwrap();
        assert_eq!(c1, 1_400_000.0 + 2.0 * 1_400_000.0);
        // Sort of 3000 pages at m=50: ∛3000 ≈ 14.4 ≤ 50 < √3000 → 5·3000.
        assert_eq!(c2, 1_400_000.0 + 2.0 * 1_400_000.0 + 15_000.0);
    }

    #[test]
    fn objectives_give_one_distribution_per_phase() {
        let memory = lec_prob::presets::example_1_1_memory();
        let fixed = Objective::Static(memory.clone());
        assert_eq!(fixed.phase_distributions(3).unwrap(), vec![memory; 3]);
        let chain =
            MarkovChain::new(vec![50.0, 2000.0], vec![vec![1.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let initial = Distribution::point(2000.0);
        let moving = Objective::Dynamic {
            initial: initial.clone(),
            chain: chain.clone(),
        };
        let marginals = moving.phase_distributions(3).unwrap();
        assert_eq!(marginals, chain.marginals(&initial, 3).unwrap());
        let means: Vec<f64> = marginals.iter().map(Distribution::mean).collect();
        assert_eq!(means, [2000.0, 50.0, 50.0]);
        let foreign = Objective::Dynamic {
            initial: Distribution::point(123.0),
            chain,
        };
        assert!(foreign.phase_distributions(1).is_err());
    }

    #[test]
    fn node_costs_sum_to_whole_plan_prediction() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        for plan in [
            plan1(),
            plan2(),
            PlanNode::seq_scan(0),
            PlanNode::sort(PlanNode::seq_scan(1), ColumnRef::new(1, 0)),
        ] {
            let nodes = plan_node_costs(&model, &plan);
            for m in [50.0, 700.0, 2000.0, 1e6] {
                let node_sum: f64 = nodes.iter().map(|n| n.cost_at(&model, m)).sum();
                let whole = plan_cost_at(&model, &plan, m);
                assert!(
                    (node_sum - whole).abs() <= 1e-9 * whole.max(1.0),
                    "{}: Σ nodes {} != plan {} at m={}",
                    plan.compact(),
                    node_sum,
                    whole,
                    m
                );
            }
        }
    }

    #[test]
    fn node_phase_indices_align_with_phase_list() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let plan = plan2();
        let ph = phases(&model, &plan);
        let nodes = plan_node_costs(&model, &plan);
        // Every memory-dependent node maps to the phase holding the same
        // operator, with the same operand sizes.
        let mut mem_nodes = 0;
        for n in &nodes {
            let Some(i) = n.phase else { continue };
            mem_nodes += 1;
            assert_eq!(Some(&n.kind), ph[i].op.as_ref(), "phase {i}");
        }
        assert_eq!(mem_nodes, ph.len());
        // Access leaves carry no phase and classify by path.
        assert_eq!(nodes[0].class(), OpClass::SeqAccess);
        assert_eq!(nodes[0].phase, None);
        assert_eq!(nodes.last().unwrap().class(), OpClass::Sort);
    }
}
