//! The per-search plan arena, the DP's back-pointer store: every access
//! path, retained join and root sort is one [`Step`], its inputs named by
//! [`PlanId`]; [`PlanArena::node`] copies out the plan of a root a caller
//! takes.

use lec_cost::CostModel;
use lec_plan::{PlanNode, Step};
use std::cmp::Ordering;

/// A step's index in its search's [`PlanArena`].
pub type PlanId = u32;

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

    /// The plan rooted at `id`: a postorder copy of the steps it reaches.
    pub fn node(&self, id: PlanId) -> PlanNode {
        let mut steps = Vec::new();
        self.copy_postorder(id, &mut steps);
        PlanNode::from_postorder(steps)
    }

    /// Append the subtree at `id` to `out` in postorder; its root's index.
    fn copy_postorder(&self, id: PlanId, out: &mut Vec<Step>) -> u32 {
        let step = self
            .step(id)
            .map_inputs(|input| self.copy_postorder(input, out));
        out.push(step);
        out.len() as u32 - 1
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
