//! # lec-cost — the I/O cost model of the PODS'99 LEC paper
//!
//! Five modules:
//!
//! * [`formulas`] — the raw piecewise page-I/O formulas (§3.6.1/§3.6.2 of
//!   the paper, plus the Grace-hash and external-sort formulas implied by
//!   Example 1.1), together with their *breakpoints* (the memory values at
//!   which cost jumps — the discontinuities that make LEC ≠ LSC);
//! * [`model`] — [`CostModel`], binding a catalog and query: effective
//!   sizes after selections, what a join ([`Split`]), an access and a root
//!   sort deliver — the one definition the DP, the replay and the oracle
//!   read — access-path and join cost dispatch, and the cost-formula
//!   evaluation counter the paper's complexity claims are stated in;
//! * [`plan_cost`] — whole-plan costing: the replay, one walk that prices
//!   a plan's §3.5 phases under static or Markov-evolving memory and sums
//!   as the DP sums, under the memory belief [`Objective`] that names
//!   which, and the per-node decomposition the calibration audit reads;
//! * [`expected`] — expected *join* cost under size+memory distributions:
//!   the defining `O(b³)` triple sum and the paper's `O(b)` streaming
//!   algorithms, which are tested to agree exactly, reading each
//!   distribution's one-pass prefix tables ([`DistTables`]);
//! * [`oracle`] — ground truth for the optimizer's theorems: every plan of
//!   a space, priced by the replay.

#![forbid(unsafe_code)]

pub mod expected;
pub mod formulas;
pub mod model;
pub mod oracle;
pub mod plan_cost;

pub use expected::{
    expected_join_costs, expected_sort_cost, naive_expected_join_cost,
    streaming_expected_join_costs, DistTables,
};
pub use model::{
    avalanche, dist_fingerprint, table_occurrence_fingerprint, table_stats_fingerprint, AccessPath,
    CostModel, Fingerprint, Prehashed, Split,
};
pub use plan_cost::{
    expected_plan_cost_static, output_order, plan_cost_at, plan_node_costs, NodeKind, Objective,
    OpClass, PlanNodeCost,
};
