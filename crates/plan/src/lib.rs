//! # lec-plan — queries, plans, and workloads
//!
//! Representation layer for the LEC reproduction:
//!
//! * [`TableSet`] — the subset-of-relations bitsets labelling nodes of the
//!   System R dynamic-programming dag (§2.2);
//! * [`Query`] — an SPJ block: tables (with optional local selections),
//!   equi-join predicates with (possibly uncertain) selectivities, and an
//!   optional required output order (Example 1.1's "result needs to be
//!   ordered by the join column");
//! * [`order`] — column equivalence classes induced by join predicates and
//!   the three-valued order property of the one interesting order, the
//!   query's required one;
//! * [`PlanNode`] — physical plans over the four join methods, each one
//!   vector of [`Step`]s in postorder, read through [`NodeRef`];
//! * [`workload`] — seeded generators for chain/star/clique/random join
//!   queries, substituting for the paper's unavailable "realistic queries".

#![forbid(unsafe_code)]

pub mod order;
pub mod physical;
pub mod query;
pub mod tableset;
pub mod workload;

pub use order::{ColumnEquivalences, OrderProperty};
pub use physical::{JoinMethod, NodeRef, PlanNode, Step};
pub use query::{ColumnRef, JoinPredicate, LocalPredicate, Query, QueryTable};
pub use tableset::TableSet;
pub use workload::{QueryProfile, Topology, WorkloadGenerator};
