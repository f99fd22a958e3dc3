//! The per-search plan arena, the DP's back-pointer store: every access
//! path, retained join and root sort is one [`Step`], its inputs named by
//! [`PlanId`]; [`PlanArena::node`] builds a tree for a root a caller takes.

use lec_cost::CostModel;
use lec_plan::{ColumnRef, JoinMethod, PlanNode};
use std::cmp::Ordering;

/// A step's index in its search's [`PlanArena`].
pub type PlanId = u32;

/// One plan operator, its inputs named by their steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// Full scan of a query table.
    SeqScan(usize),
    /// Index scan of a query table.
    IndexScan(usize),
    /// Sort of a plan on a key.
    Sort(PlanId, ColumnRef),
    /// Join of an outer and an inner plan.
    Join(JoinMethod, PlanId, PlanId),
}

/// Every plan step of one search, in creation order.
#[derive(Debug, Clone, Default)]
pub struct PlanArena(Vec<Step>);

impl PlanArena {
    /// Append `step`, returning its id.
    pub fn push(&mut self, step: Step) -> PlanId {
        let id = PlanId::try_from(self.0.len()).expect("fewer than 2^32 plan steps");
        self.0.push(step);
        id
    }

    /// The step `id` names.
    pub fn step(&self, id: PlanId) -> Step {
        self.0[id as usize]
    }

    /// The plan tree rooted at `id`.
    pub fn node(&self, id: PlanId) -> PlanNode {
        match self.step(id) {
            Step::SeqScan(table) => PlanNode::SeqScan { table },
            Step::IndexScan(table) => PlanNode::IndexScan { table },
            Step::Sort(input, key) => PlanNode::sort(self.node(input), key),
            Step::Join(method, o, i) => PlanNode::join(method, self.node(o), self.node(i)),
        }
    }

    /// The shape tie-break, a total order on plans invariant under table
    /// renaming: steps compare by kind, joins by method then operands,
    /// sorts by key *column* (the table index is label-dependent), scans
    /// by [`CostModel::table_shape_fingerprint`].  Equal ids are one plan
    /// (tied candidates of a node often extend one entry).  Consulted only
    /// on exact cost ties, it picks which equal-cost plan is reported.
    pub fn shape_cmp(&self, model: &CostModel<'_>, a: PlanId, b: PlanId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let kind = |s| match s {
            Step::SeqScan(_) => 0,
            Step::IndexScan(_) => 1,
            Step::Sort(..) => 2,
            Step::Join(..) => 3,
        };
        match (self.step(a), self.step(b)) {
            (Step::SeqScan(ta), Step::SeqScan(tb)) | (Step::IndexScan(ta), Step::IndexScan(tb)) => {
                let shape = |t| model.table_shape_fingerprint(t);
                shape(ta).cmp(&shape(tb))
            }
            (Step::Sort(ia, ka), Step::Sort(ib, kb)) => ka
                .column
                .cmp(&kb.column)
                .then_with(|| self.shape_cmp(model, ia, ib)),
            (Step::Join(ma, oa, na), Step::Join(mb, ob, nb)) => ma
                .cmp(&mb)
                .then_with(|| self.shape_cmp(model, oa, ob))
                .then_with(|| self.shape_cmp(model, na, nb)),
            (sa, sb) => kind(sa).cmp(&kind(sb)),
        }
    }
}
