//! Whole-plan costing: `C(P, v)` and expected cost under static and
//! dynamically changing memory, one replay for all three.
//!
//! The paper's cost function takes "a plan p and a vector v of values of
//! relevant parameters" (§3.1).  Here `v` is the available memory (sizes
//! are point estimates at this layer; fully distributional sizes are the
//! business of `lec-core`'s Algorithm D, which costs joins *before* plans
//! exist).  For §3.5's dynamic case, "plan execution takes place in phases,
//! each corresponding to a join in the plan ... memory does not change
//! during the execution of a phase, but can change between phases": the
//! replay prices the `k`-th sort or join of a plan's postorder under phase
//! `k`'s memory distribution ([`Objective::phase_distributions`]).

use crate::model::{AccessPath, CostModel};
use lec_plan::{JoinMethod, NodeRef, OrderProperty, PlanNode, Step};
use lec_prob::{Distribution, MarkovChain, ProbError};
use std::borrow::Cow;

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
/// page I/O.  Emitted by [`plan_node_costs`] in the replay's traversal
/// order, so a node's `phase` index is the one the replay prices it at
/// and indexes [`Objective::phase_distributions`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNodeCost {
    /// Short display label (`R0`, `IxR2`, `Sort`, `SM`, ... — the
    /// vocabulary of `PlanNode::compact`).
    pub label: String,
    /// The §3.5 phase of a sort or join, the `k`-th of the plan's
    /// postorder being phase `k`; `None` for base-table accesses (their
    /// cost is memory-independent).
    pub phase: Option<usize>,
    /// The node's operator and operand sizes.
    pub kind: NodeKind,
}

impl PlanNodeCost {
    /// The node's predicted cost when memory is `m` pages.
    pub fn cost_at(&self, model: &CostModel<'_>, m: f64) -> f64 {
        match self.kind {
            NodeKind::Access { path, table } => model.access_cost(path, table),
            NodeKind::Sort { pages } => model.sort_cost(pages, m),
            NodeKind::Join {
                method,
                outer,
                inner,
            } => model.join_cost(method, outer, inner, m),
        }
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

/// The replay's one walk over a plan: postorder, outer before inner.
/// Calls `visit(node, kind, phase)` once per node, where `phase` is the
/// node's §3.5 phase — the `k`-th sort or join in postorder is phase `k` —
/// and `None` for an access.
fn walk<'p>(
    model: &CostModel<'_>,
    plan: &'p PlanNode,
    mut visit: impl FnMut(NodeRef<'p>, NodeKind, Option<usize>),
) {
    /// Visit `node`'s subtree and return its output pages.
    fn go<'p>(
        model: &CostModel<'_>,
        node: NodeRef<'p>,
        phases: &mut std::ops::RangeFrom<usize>,
        visit: &mut impl FnMut(NodeRef<'p>, NodeKind, Option<usize>),
    ) -> f64 {
        let access = |path, table| (NodeKind::Access { path, table }, model.base_pages(table));
        let (kind, pages) = match node.node() {
            Step::SeqScan(table) => access(AccessPath::SeqScan, table),
            Step::IndexScan(table) => access(AccessPath::IndexScan, table),
            Step::Sort(input, _) => {
                let pages = go(model, input, phases, visit);
                (NodeKind::Sort { pages }, pages)
            }
            Step::Join(method, outer, inner) => {
                let outer_pages = go(model, outer, phases, visit);
                let inner_pages = go(model, inner, phases, visit);
                let split = model.split(outer.tables(), inner.tables());
                let kind = NodeKind::Join {
                    method,
                    outer: outer_pages,
                    inner: inner_pages,
                };
                (kind, split.pages(outer_pages, inner_pages))
            }
        };
        let phase = match kind {
            NodeKind::Access { .. } => None,
            _ => phases.next(),
        };
        visit(node, kind, phase);
        pages
    }
    go(model, plan.root(), &mut (0..), &mut visit);
}

/// Per-node predicted-cost decomposition of a plan, in the replay's
/// traversal order (postorder, outer before inner).  Invariant, tested
/// here and re-asserted by every calibration audit: for any memory `m`,
/// the node costs sum to the whole-plan prediction
/// `plan_cost_at(model, plan, m)`.
pub fn plan_node_costs(model: &CostModel<'_>, plan: &PlanNode) -> Vec<PlanNodeCost> {
    let mut out = Vec::with_capacity(plan.steps().len());
    walk(model, plan, |node, kind, phase| {
        let label = match &kind {
            NodeKind::Access { .. } => node.compact(),
            NodeKind::Sort { .. } => "Sort".to_string(),
            NodeKind::Join { method, .. } => method.name().to_string(),
        };
        out.push(PlanNodeCost { label, phase, kind });
    });
    out
}

/// Phase `k`'s memory among `phases`: `phases[k]`, or the last where
/// there are fewer (the rule of `lec_core`'s `MemoryCoster`).
pub(crate) fn phase_memory(phases: &[Distribution], k: usize) -> &Distribution {
    &phases[k.min(phases.len() - 1)]
}

/// The replay: `plan`'s cost with each phase priced under its
/// [`phase_memory`], summed as the DP sums — an access costs its access
/// cost, a sort its input plus `E[sort]`, a join `(outer + inner) +
/// E[join]` — so a search's cost is its plan's replay to the bit.
fn replay_over(model: &CostModel<'_>, plan: &PlanNode, phases: &[Distribution]) -> f64 {
    let memory = |phase: Option<usize>| phase_memory(phases, phase.unwrap_or(0));
    // The costs of the subtrees whose parent is not visited yet.
    let mut costs = Vec::with_capacity(plan.steps().len());
    walk(model, plan, |_, kind, phase| {
        let cost = match kind {
            NodeKind::Access { path, table } => model.access_cost(path, table),
            NodeKind::Sort { pages } => {
                let input = costs.pop().expect("a sort has an input");
                input + model.expected_sort_cost_over(pages, memory(phase))
            }
            NodeKind::Join {
                method,
                outer,
                inner,
            } => {
                let inner_cost = costs.pop().expect("a join has an inner");
                let outer_cost = costs.pop().expect("a join has an outer");
                let join = model.expected_join_cost_over(method, outer, inner, memory(phase));
                (outer_cost + inner_cost) + join
            }
        };
        costs.push(cost);
    });
    costs.pop().expect("a plan has a root")
}

/// The order property of a plan's output.
///
/// Rules (the \[SAC+79\] interesting-order extension, with the required
/// order the one interesting order — [`lec_plan::order`]):
/// * a join delivers what [`crate::Split::order`] says of its method;
/// * an access delivers its [`CostModel::access_order`];
/// * a sort produces its key's order.
pub fn output_order(model: &CostModel<'_>, plan: &PlanNode) -> OrderProperty {
    fn order(model: &CostModel<'_>, node: NodeRef<'_>) -> OrderProperty {
        match node.node() {
            Step::SeqScan(table) => model.access_order(AccessPath::SeqScan, table),
            Step::IndexScan(table) => model.access_order(AccessPath::IndexScan, table),
            Step::Sort(_, key) => model.equivalences.sorted_on(key),
            Step::Join(method, outer, inner) => {
                (model.split(outer.tables(), inner.tables())).order(method, order(model, outer))
            }
        }
    }
    order(model, plan.root())
}

/// Total plan cost `C(P, m)` at a fixed memory value: the replay under a
/// point memory.  Panics on a non-finite `m` ([`Distribution::point`]).
pub fn plan_cost_at(model: &CostModel<'_>, plan: &PlanNode, m: f64) -> f64 {
    replay_over(model, plan, &[Distribution::point(m)])
}

/// Expected plan cost under a static memory distribution:
/// `EC(P) = Σ_m C(P, m)·Pr(m)` (§3.1), [`Objective::replay`] of a static
/// belief.
pub fn expected_plan_cost_static(
    model: &CostModel<'_>,
    plan: &PlanNode,
    memory: &Distribution,
) -> f64 {
    replay_over(model, plan, std::slice::from_ref(memory))
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
    /// Linearity of expectation makes a plan's cost one expectation per
    /// phase — the observation Theorem 3.4 rests on.
    Dynamic {
        /// The first phase's memory distribution.
        initial: Distribution,
        /// How memory moves between phases.
        chain: MarkovChain,
    },
}

impl Objective {
    /// The memory distribution of each of `n` phases: phase `k` reads
    /// element `k`, or the last where there are fewer.  A static belief is
    /// its one distribution, a dynamic one the chain's `n` marginals.
    pub fn phase_distributions(&self, n: usize) -> Result<Cow<'_, [Distribution]>, ProbError> {
        match self {
            Objective::Static(memory) => Ok(Cow::Borrowed(std::slice::from_ref(memory))),
            Objective::Dynamic { initial, chain } => chain.marginals(initial, n).map(Cow::Owned),
        }
    }

    /// The replay's cost of `plan`.  Panics if a dynamic objective's chain
    /// cannot evolve its initial distribution.
    pub fn replay(&self, model: &CostModel<'_>, plan: &PlanNode) -> f64 {
        let phases = (self.phase_distributions(plan.n_phases().max(1))).expect("chain evolves");
        replay_over(model, plan, &phases)
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
        let nodes = plan_node_costs(&model, &plan2());
        let phased: Vec<_> = nodes
            .iter()
            .filter_map(|n| Some((n.phase?, &n.kind)))
            .collect();
        assert_eq!(phased.len(), 2);
        // Phase 0: the join of the two scans.
        assert!(matches!(
            phased[0],
            (
                0,
                NodeKind::Join {
                    method: JoinMethod::GraceHash,
                    ..
                }
            )
        ));
        // Phase 1: the sort of the 3000-page result.
        match phased[1] {
            (1, NodeKind::Sort { pages }) => assert!((pages - 3000.0).abs() < 1e-6),
            _ => panic!("expected sort phase"),
        }
        // The scans carry no phase, and cost their access in any phase.
        let scans: f64 = (nodes.iter())
            .filter(|n| n.phase.is_none())
            .map(|n| n.cost_at(&model, 0.0))
            .sum();
        assert_eq!(scans, 1_400_000.0);
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
            let dynm = Objective::Dynamic {
                initial: memory.clone(),
                chain: chain.clone(),
            }
            .replay(&model, &plan);
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
        let objective = Objective::Dynamic {
            initial: Distribution::point(2000.0),
            chain,
        };
        let c1 = objective.replay(&model, &plan1());
        let c2 = objective.replay(&model, &plan2());
        assert_eq!(c1, 1_400_000.0 + 2.0 * 1_400_000.0);
        // Sort of 3000 pages at m=50: ∛3000 ≈ 14.4 ≤ 50 < √3000 → 5·3000.
        assert_eq!(c2, 1_400_000.0 + 2.0 * 1_400_000.0 + 15_000.0);
    }

    #[test]
    fn objectives_give_one_distribution_per_phase() {
        let memory = lec_prob::presets::example_1_1_memory();
        let fixed = Objective::Static(memory.clone());
        assert_eq!(*fixed.phase_distributions(3).unwrap(), [memory]);
        let chain =
            MarkovChain::new(vec![50.0, 2000.0], vec![vec![1.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let initial = Distribution::point(2000.0);
        let moving = Objective::Dynamic {
            initial: initial.clone(),
            chain: chain.clone(),
        };
        let marginals = moving.phase_distributions(3).unwrap();
        assert_eq!(*marginals, chain.marginals(&initial, 3).unwrap());
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
        let nodes = plan_node_costs(&model, &plan);
        // Each node's cost, weighted by the distribution of the phase it
        // names (accesses by any), sums to the dynamic replay.
        let chain =
            MarkovChain::new(vec![50.0, 2000.0], vec![vec![1.0, 0.0], vec![1.0, 0.0]]).unwrap();
        let objective = Objective::Dynamic {
            initial: Distribution::point(2000.0),
            chain,
        };
        let dists = objective.phase_distributions(plan.n_phases()).unwrap();
        let by_node: f64 = (nodes.iter())
            .map(|n| dists[n.phase.unwrap_or(0)].expect(|m| n.cost_at(&model, m)))
            .sum();
        assert_eq!(by_node, objective.replay(&model, &plan));
        assert_eq!(
            nodes.iter().filter_map(|n| n.phase).count(),
            plan.n_phases()
        );
        // Access leaves carry no phase and classify by path.
        assert_eq!(nodes[0].class(), OpClass::SeqAccess);
        assert_eq!(nodes[0].phase, None);
        assert_eq!(nodes.last().unwrap().class(), OpClass::Sort);
    }
}
