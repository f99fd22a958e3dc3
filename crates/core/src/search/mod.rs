//! The pluggable dynamic-programming search engine every optimizer mode
//! runs on.
//!
//! The paper presents LEC optimization as "a generic modification of the
//! basic System R optimizer": one DP driver over the subset dag, with the
//! *costing and candidate-retention rule* as the only thing that changes
//! between algorithms.  This module is that claim made literal.  The
//! engine ([`engine::run_search_with`]) walks the dag — "the nodes at depth k
//! are labeled by the subsets of {1,…,n} of cardinality k", of which it
//! visits the connected ones — and is parameterized along two axes:
//!
//! * **plan shape** ([`engine::PlanShape`]): how a subset is split into
//!   (outer, inner) operand pairs — left-deep (`S∖{j}` × `{j}`, §2.2) or
//!   bushy (every connected 2-partition, the §4 extension).  Both shapes
//!   walk the same levels, grown once from the level below, and differ
//!   only in the splits they combine for a set;
//! * **candidate policy** ([`policy::CandidatePolicy`]): what is kept per
//!   dag node and how a join candidate is costed.
//!
//! Paper-section → policy mapping ([`coster::MemoryCoster`] is the one
//! coster; a keep-best row names the [`lec_cost::Objective`] that
//! [`crate::Mode::objective`] gives and `MemoryCoster::new` prices under):
//!
//! | policy | costing | paper | used by |
//! |---|---|---|---|
//! | [`keep_best::KeepBestPolicy`] + `Static(point(m))` | `C(P, m)` at one memory value — the one-bucket expectation | Thm 2.1 | [`crate::lsc`] |
//! | [`keep_best::KeepBestPolicy`] + `Static(dist)` | `EC(P)` under a static distribution | §3.4, Thm 3.3 | [`crate::alg_c`], [`crate::bushy`] |
//! | [`keep_best::KeepBestPolicy`] + `Dynamic { initial, chain }` | per-phase Markov-evolved `EC(P)` | §3.5, Thm 3.4 | [`crate::alg_c`] |
//! | [`top_c::TopCPolicy`] + one `MemoryCoster::point(m)` per lane | top-`c` per (subset, order class) at each lane's point, Prop 3.1 frontier; left-deep splits only | §3.2, §3.3 | [`crate::alg_a`] (`c = 1`), [`crate::alg_b`] |
//! | [`multi_param::MultiParamPolicy`] | Figure 1 distribution bookkeeping, §3.6.3 rebucketing | §3.6 | [`crate::alg_d`] |
//!
//! Every policy funnels its memory-dependent evaluations through the
//! `expected_*` methods of [`lec_cost::CostModel`], which price in place:
//! `expected_*_over` a scalar-size operator (`b` formula calls under a
//! `b`-bucket distribution), `expected_*_for` Algorithm D's expectations
//! over size distributions that carry their prefix tables.  A join's
//! method costs depend only on its operands' sizes (Proposition 3.1's
//! observation), so no operand-size pair is priced twice where it is
//! bound to repeat: a keep-1 search keeps one price table for all its
//! splits, keyed by the two sizes and the phase distribution the coster
//! reads ([`keep_best`]); top-c and multi-param price each distinct pair
//! of one `combine` call once.  Nothing outlives a search.
//! [`SearchStats::evals`] counts the formula calls made.
//!
//! What a plan step delivers is not a policy's to say: a join's result
//! size and output order come from [`lec_cost::CostModel::split`]
//! ([`lec_cost::Split::pages`], [`lec_cost::Split::order`]), the access
//! alternatives from [`lec_cost::CostModel::accesses`] and the root sort
//! from [`lec_cost::CostModel::root_sort`] — the definitions the replay
//! and the oracle read too.
//!
//! # Who holds plans
//!
//! A search's [`arena::PlanArena`] does: every access path, retained join
//! and root sort is one step, named by a `u32` [`arena::PlanId`] that DP
//! entries and pending joins ([`policy::Joined`]) hold.  It leaves with
//! the roots ([`engine::SearchRun::plans`]), and a caller copies out a
//! [`PlanNode`] — the steps a root reaches, in postorder — only for the
//! root it takes ([`SearchOutcome::plan`]).
//!
//! # Threading model
//!
//! There is none: a search is a plain function call that runs to
//! completion on the thread that asked for it ([`engine::run_search_with`]),
//! and a panic inside a policy or coster unwinds to that caller.  The only
//! parallelism in the process is the serving layer's — one thread per
//! connection, each running its own searches.
//!
//! No search prunes: every DP mode combines every connected subset.  The
//! ground truth the modes are tested against is `lec_cost::oracle`, which
//! shares none of this module's code.

pub mod arena;
pub mod coster;
pub mod engine;
pub mod keep_best;
pub mod multi_param;
pub mod policy;
pub mod top_c;

pub use arena::{PlanArena, PlanId};
pub use coster::{MemoryCoster, PhaseCoster};
pub use engine::{run_search_with, PlanShape, SearchRun};
pub use keep_best::{DpEntry, KeepBestPolicy};
pub use lec_plan::Step;
pub use multi_param::{AlgDConfig, DistEntry, MultiParamPolicy};
pub use policy::{insert_entry_shaped, CandidatePolicy, JoinContext, Joined, SearchEntry};
pub use top_c::{insert_top_c, order_run, FrontierStats, TopCPolicy, MAX_LANES};

use lec_plan::PlanNode;
use std::time::Duration;

// Shim (the subplan memo is gone): crates/bench/src/bin/ledger/src/harness.rs is the only caller.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct SubplanMemo;

// Shim (searches run on their caller's thread): crates/bench/src/bin/ledger/src/harness.rs is the only caller.
#[doc(hidden)]
pub trait WorkerPool: std::fmt::Debug + Send + Sync {}

// Shim, spawns nothing: crates/bench/src/bin/ledger/src/harness.rs is the only caller.
#[doc(hidden)]
#[derive(Debug)]
pub struct PersistentPool;

impl PersistentPool {
    #[doc(hidden)]
    pub fn for_host() -> Self {
        PersistentPool
    }
}

impl WorkerPool for PersistentPool {}

/// Uniform search statistics, populated by the engine for every mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Dag nodes (subsets) populated; for move-based searches, complete
    /// plans costed.
    pub nodes: usize,
    /// Join candidates generated (subset × split × entry pair × method;
    /// for top-c, the pairs its frontier admits), whether or not they are
    /// ranked or built; for move-based searches, neighbour moves proposed.
    pub candidates: u64,
    /// Cost-formula evaluations made, in the paper's units (§3.4, §3.6).
    pub evals: u64,
    /// Always 0: no cost model memoizes an expectation.  Kept because the
    /// wire and the frozen ledger read it.
    pub cache_hits: u64,
    // Shim, always 0 (still absorbed and on the wire): only crates/bench/src/bin/ledger/src/trace.rs reads it.
    #[doc(hidden)]
    pub memo_hits: u64,
    // Shim, always 0: only crates/bench/src/bin/ledger/src/trace.rs reads it.
    #[doc(hidden)]
    pub memo_misses: u64,
    /// Always 0: no served search prunes.  This and the next three
    /// counters stay because the wire and the frozen ledger read them.
    pub pruned_subsets: u64,
    /// Always 0 (see `pruned_subsets`).
    pub bound_evals: u64,
    /// Always 0 (see `pruned_subsets`).
    pub sharp_bound_evals: u64,
    /// Always 0 (see `pruned_subsets`).
    pub cheap_bound_skips: u64,
    /// Wall-clock optimization time.
    pub elapsed: Duration,
}

impl SearchStats {
    /// Accumulate another run's counters (Algorithms A and B run one
    /// search per pass of at most `MAX_LANES` representatives).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.nodes += other.nodes;
        self.candidates += other.candidates;
        self.evals += other.evals;
        self.cache_hits += other.cache_hits;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.pruned_subsets += other.pruned_subsets;
        self.bound_evals += other.bound_evals;
        self.sharp_bound_evals += other.sharp_bound_evals;
        self.cheap_bound_skips += other.cheap_bound_skips;
        self.elapsed += other.elapsed;
    }
}

/// The one result of an optimization, whatever the mode: what the free
/// [`crate::optimize`] and [`crate::Optimizer::optimize`] return and what
/// the plan cache stores.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The chosen plan.
    pub plan: PlanNode,
    /// Its objective value: point cost for LSC, expected cost for every
    /// LEC mode.
    pub cost: f64,
    /// Uniform statistics.
    pub stats: SearchStats,
}
