//! # lec-core — Least Expected Cost query optimization
//!
//! Faithful implementation of the optimization algorithms of Chu, Halpern &
//! Seshadri, *"Least Expected Cost Query Optimization: An Exercise in
//! Utility"* (PODS 1999).
//!
//! ## Architecture: one engine, many policies
//!
//! The paper's central observation is that LEC optimization is "a generic
//! modification of the basic System R optimizer".  This crate is built
//! around that observation: a single dynamic-programming engine
//! ([`search`]) walks the subset dag, and every optimizer mode is a
//! *policy* plugged into it.  The engine is parameterized along two axes:
//!
//! * **plan shape** ([`search::PlanShape`]): left-deep enumeration (§2.2)
//!   or bushy enumeration over all connected 2-partitions (§4);
//! * **candidate policy** ([`search::CandidatePolicy`]): what each dag
//!   node retains and how candidates are costed.
//!
//! One function, [`optimize`], holds the only `match` from a [`Mode`] to
//! that shape × policy × coster triple; the per-algorithm modules carry
//! the paper's text for each mode, its tests, and — for the modes that
//! rank several searches' results — the ranking:
//!
//! * [`lsc`] — keep-1 at a point parameter value (Theorem 2.1, the
//!   "least specific cost" plan);
//! * [`alg_a`] — Algorithm A (§3.2): Algorithm B's search at `c = 1`,
//!   each memory bucket's least-cost plan ranked by expected cost, and
//!   the representatives and ranking the two share;
//! * [`alg_b`] — Algorithm B (§3.3): top-`c` plans per (subset, order class)
//!   with the Proposition 3.1 frontier enumeration, every memory
//!   representative a lane of one search, lanes that agree on a subset
//!   sharing its work;
//! * [`alg_c`] — Algorithm C (§3.4/§3.5): keep-1 on expected cost, under
//!   static or Markov-evolving memory (Theorems 3.3 and 3.4);
//! * [`alg_d`] — Algorithm D (§3.6): per-node distribution bookkeeping
//!   (Figure 1) with §3.6.3 rebucketing;
//! * [`bushy`] — Algorithm C's policy under the bushy shape (the §4
//!   extension);
//! * [`bucketing`] — the §3.7 strategies for partitioning the parameter
//!   space (equal-width, equi-depth, level-set aware);
//! * [`optimizer`] — [`optimize`], and [`Optimizer`], which binds it to a
//!   catalog and a memory belief;
//! * [`fixtures`] — the paper's Example 1.1, ready to run.
//!
//! Every [`Mode`] is one of the paper's DP searches — LSC, Algorithms A–D
//! or the §4 bushy extension — so every mode commutes with table renaming,
//! which is what lets the serving layer cache answers by query shape.
//!
//! Every mode returns the same [`SearchOutcome`] — plan, objective value
//! and uniform [`SearchStats`] — and so does [`Optimizer::optimize`]; a
//! mode's own diagnostics (Algorithm B's Proposition 3.1 frontier,
//! Algorithm D's product supports) stay on its policy.  A scalar-size
//! operator is priced in place, `b` formula calls under a `b`-bucket
//! memory distribution, and each `combine` prices each distinct
//! operand-size pair once; nothing is memoized across calls.
//! [`SearchStats::evals`] counts the formula evaluations actually
//! performed, making the paper's "factor b" overhead claims directly
//! observable.
//!
//! ## Threading model
//!
//! A search runs to completion on its caller's thread — a plain function
//! call, whatever the mode.  Parallelism is per connection: the serving
//! layer (`lec-service`, `lec-serviced`) runs one thread per client, each
//! doing its own searches.
//!
//! The quickest way in:
//!
//! ```
//! use lec_core::{fixtures, Mode, Optimizer, PointEstimate};
//!
//! let (catalog, query) = fixtures::example_1_1();
//! let memory = fixtures::example_1_1_memory(); // 2000@80% / 700@20%
//! let opt = Optimizer::new(&catalog, memory);
//!
//! let lsc = opt.optimize(&query, &Mode::Lsc(PointEstimate::Mode)).unwrap();
//! let lec = opt.optimize(&query, &Mode::AlgorithmC).unwrap();
//! assert!(fixtures::is_plan1(&lsc.plan));   // the paper's Plan 1: bare sort-merge
//! assert!(fixtures::is_plan2(&lec.plan));   // the paper's Plan 2: Grace hash + sort
//! assert!(opt.expected_cost_of(&query, &lec.plan)
//!       < opt.expected_cost_of(&query, &lsc.plan));
//! ```

#![forbid(unsafe_code)]

pub mod alg_a;
pub mod alg_b;
pub mod alg_c;
pub mod alg_d;
pub mod bucketing;
pub mod bushy;
pub mod error;
pub mod fixtures;
pub mod lsc;
pub mod optimizer;
pub mod search;

pub use alg_d::AlgDConfig;
pub use bucketing::{bucketize, query_memory_breakpoints, BucketStrategy};
pub use error::OptError;
pub use lsc::PointEstimate;
pub use optimizer::{optimize, Mode, Optimizer};
pub use search::{
    run_search_with, CandidatePolicy, FrontierStats, MemoryCoster, PlanShape, SearchOutcome,
    SearchStats,
};
