//! # lec-qopt — Least Expected Cost query optimization
//!
//! A from-scratch reproduction of Chu, Halpern & Seshadri,
//! *"Least Expected Cost Query Optimization: An Exercise in Utility"*
//! (PODS 1999, arXiv cs/9909016), as a Rust workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`prob`] | bucketed distributions, prefix tables, Markov memory chains |
//! | [`catalog`] | table statistics and synthetic catalogs |
//! | [`plan`] | queries, order properties, physical plans, workloads |
//! | [`cost`] | the paper's I/O cost formulas and expected-cost algorithms; the memory belief (`Objective`) and the plan replay under it |
//! | [`core`] | LSC baseline and Algorithms A, B, C, D; bucketing; ground truth |
//! | [`service`] | cross-query serving: canonical-shape plan cache shared by many client threads |
//! | [`serviced`] | hardened network daemon: wire protocol, admission control, graceful drain, fault injection |
//! | [`exec`] | Page-counting operators (the one plan executor), synthetic data, cost-calibration observatory |
//! | [`telemetry`] | lock-free histograms, request tracing, the slow log |
//!
//! This facade crate re-exports the public APIs and hosts the runnable
//! examples (`examples/`) and workspace integration tests (`tests/`).
//!
//! ## Ten-second tour
//!
//! ```
//! use lec_qopt::core::{fixtures, Mode, Optimizer, PointEstimate};
//!
//! let (catalog, query) = fixtures::example_1_1();
//! let opt = Optimizer::new(&catalog, fixtures::example_1_1_memory());
//! let lsc = opt.optimize(&query, &Mode::Lsc(PointEstimate::Mode)).unwrap();
//! let lec = opt.optimize(&query, &Mode::AlgorithmC).unwrap();
//! // The paper's Example 1.1: the optimizer that reasons about the
//! // distribution chooses a different — and in expectation cheaper — plan.
//! assert_ne!(lsc.plan, lec.plan);
//! assert!(opt.expected_cost_of(&query, &lec.plan)
//!       < opt.expected_cost_of(&query, &lsc.plan));
//! ```

#![forbid(unsafe_code)]

pub use lec_catalog as catalog;
pub use lec_core as core;
pub use lec_cost as cost;
pub use lec_exec as exec;
pub use lec_plan as plan;
pub use lec_prob as prob;
pub use lec_service as service;
pub use lec_serviced as serviced;
pub use lec_telemetry as telemetry;
