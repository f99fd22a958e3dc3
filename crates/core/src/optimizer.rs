//! The one way in: [`optimize`] maps a [`Mode`] to the engine's shape ×
//! policy × coster, and [`Optimizer`] binds it to a catalog and a memory
//! belief.
//!
//! Both return one [`SearchOutcome`] for every mode, so no caller
//! destructures a per-mode result.

use crate::alg_d::AlgDConfig;
use crate::error::OptError;
use crate::lsc::PointEstimate;
use crate::search::{run_search_with, KeepBestPolicy, MemoryCoster, PlanShape};
pub use crate::search::{SearchOutcome, SearchStats};
use lec_catalog::Catalog;
use lec_cost::{CostModel, Objective};
use lec_plan::{PlanNode, Query};
use lec_prob::{Distribution, MarkovChain};
use std::sync::Arc;
use std::time::Instant;

/// Which optimization algorithm to run.
///
/// No memory value is validated: an `LscAt` point, a memory belief or a
/// chain state of zero or negative pages is accepted and priced at the
/// formulas' floor, every join and sort in its lowest-memory regime (six
/// passes for sort-merge and Grace hash, the quadratic page nested-loop,
/// one-page blocks, seven sort passes).  `tests/degenerate_inputs.rs`
/// pins that such requests get finite, non-negative costs in every mode.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Classical System R at the mean or mode of the memory distribution
    /// (the paper's "current optimizers").
    Lsc(PointEstimate),
    /// Classical System R at an explicit memory value.
    LscAt(f64),
    /// Algorithm A (§3.2): the least-cost plan per bucket, EC-ranked —
    /// Algorithm B at `c = 1`.
    AlgorithmA,
    /// Algorithm B (§3.3): top-`c` candidates per bucket, EC-ranked.
    AlgorithmB {
        /// Candidate list length per DP node.
        c: usize,
    },
    /// Algorithm C (§3.4): exact LEC DP under static memory.
    AlgorithmC,
    /// Algorithm C under §3.5 per-phase Markov memory evolution.
    AlgorithmCDynamic {
        /// The memory transition model.
        chain: MarkovChain,
    },
    /// Algorithm D (§3.6): multi-parameter LEC DP.
    AlgorithmD {
        /// Bucketing configuration.
        config: AlgDConfig,
    },
    /// Bushy-plan LEC DP (the §4 extension; static memory only).
    Bushy,
}

impl Mode {
    /// Stable fingerprint of the mode *and every parameter that shapes its
    /// outcome* (point estimates, candidate widths, Markov transition
    /// matrices, bucketing configs) — one ingredient of the
    /// cross-query plan-cache key.  Two requests whose modes fingerprint
    /// equal are answered by the same algorithm with the same tuning.
    /// Tags 9 and 10 named the retired randomized searches and are not
    /// reused.
    pub fn fingerprint(&self) -> u64 {
        use lec_cost::Fingerprint;
        let fp = Fingerprint::new();
        match self {
            Mode::Lsc(PointEstimate::Mean) => fp.u64(0),
            Mode::Lsc(PointEstimate::Mode) => fp.u64(1),
            Mode::LscAt(m) => fp.u64(2).f64(*m),
            Mode::AlgorithmA => fp.u64(3),
            Mode::AlgorithmB { c } => fp.u64(4).u64(*c as u64),
            Mode::AlgorithmC => fp.u64(5),
            Mode::AlgorithmCDynamic { chain } => {
                let mut fp = fp.u64(6).u64(chain.n_states() as u64);
                for (i, &s) in chain.states().iter().enumerate() {
                    fp = fp.f64(s);
                    for &p in chain.row(i) {
                        fp = fp.f64(p);
                    }
                }
                fp
            }
            Mode::AlgorithmD { config } => fp
                .u64(7)
                .u64(config.max_buckets as u64)
                .u64(match config.rebucket {
                    lec_prob::Rebucket::EqualWidth => 0,
                    lec_prob::Rebucket::EqualDepth => 1,
                })
                .u64(config.cube_root_inputs as u64),
            Mode::Bushy => fp.u64(8),
        }
        .finish()
    }

    /// The memory belief this mode's plan is priced by, given the
    /// optimizer's `memory`: a point for LSC, `memory` evolved through
    /// the mode's chain for C-dynamic, `memory` itself for every other
    /// mode.  The keep-best modes search under it, and it is what the
    /// oracle must agree with.  A non-finite `LscAt` value (it arrives
    /// unchecked from callers and the wire) is a bad parameter.
    pub fn objective(&self, memory: &Distribution) -> Result<Objective, OptError> {
        Ok(match self {
            Mode::Lsc(PointEstimate::Mean) => Objective::Static(Distribution::point(memory.mean())),
            Mode::Lsc(PointEstimate::Mode) => Objective::Static(Distribution::point(memory.mode())),
            Mode::LscAt(m) if !m.is_finite() => {
                return Err(OptError::BadParameter(
                    "LscAt requires a finite memory value",
                ))
            }
            Mode::LscAt(m) => Objective::Static(Distribution::point(*m)),
            Mode::AlgorithmCDynamic { chain } => Objective::Dynamic {
                initial: memory.clone(),
                chain: chain.clone(),
            },
            _ => Objective::Static(memory.clone()),
        })
    }

    /// Short display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Lsc(PointEstimate::Mean) => "LSC(mean)",
            Mode::Lsc(PointEstimate::Mode) => "LSC(mode)",
            Mode::LscAt(_) => "LSC(at)",
            Mode::AlgorithmA => "AlgA",
            Mode::AlgorithmB { .. } => "AlgB",
            Mode::AlgorithmC => "AlgC",
            Mode::AlgorithmCDynamic { .. } => "AlgC-dyn",
            Mode::AlgorithmD { .. } => "AlgD",
            Mode::Bushy => "Bushy",
        }
    }
}

/// Run `mode` over `model` under the memory belief `memory`: the only
/// place a [`Mode`] is turned into a plan shape, a candidate policy and a
/// coster.  The paper's claim that LEC is "a generic modification of the
/// basic System R optimizer" is the last arm: one keep-best DP in which
/// only the mode's [`Mode::objective`] — a point for LSC — or, for the §4
/// extension, the shape changes.
pub fn optimize(
    model: &CostModel<'_>,
    memory: &Distribution,
    mode: &Mode,
) -> Result<SearchOutcome, OptError> {
    match mode {
        Mode::AlgorithmA => crate::alg_b::rank_top_c_plans(model, memory, 1),
        Mode::AlgorithmB { c } => crate::alg_b::rank_top_c_plans(model, memory, *c),
        Mode::AlgorithmD { config: buckets } => crate::alg_d::search(model, memory, buckets),
        _ => {
            let shape = match mode {
                Mode::Bushy => PlanShape::Bushy,
                _ => PlanShape::LeftDeep,
            };
            // The keep-1 DP of Theorems 2.1, 3.3 and 3.4, over n-1 join
            // phases plus a possible root sort phase.
            let phases = model.query().n_tables().max(1);
            let coster = MemoryCoster::new(mode.objective(memory)?, phases)?;
            let mut policy = KeepBestPolicy::new(coster);
            let run = run_search_with(model, shape, &mut policy)?;
            let best = run.best();
            Ok(SearchOutcome {
                plan: run.plans.node(best.plan),
                cost: best.cost,
                stats: run.stats,
            })
        }
    }
}

/// An optimizer bound to a catalog and a memory model.
#[derive(Debug)]
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    memory: Distribution,
}

impl<'a> Optimizer<'a> {
    /// Create an optimizer believing `memory` describes the run-time
    /// environment.  Searches run on the calling thread.  A belief with
    /// support at or below zero pages is accepted and priced at the
    /// formulas' floor (see [`Mode`]).
    pub fn new(catalog: &'a Catalog, memory: Distribution) -> Self {
        Optimizer { catalog, memory }
    }

    // Shim, returns `self`: crates/bench/src/bin/ledger/src/harness.rs is the only caller.
    #[doc(hidden)]
    pub fn with_worker_pool(self, _pool: Arc<dyn crate::search::WorkerPool>) -> Self {
        self
    }

    // Shim, returns `self`: crates/bench/src/bin/ledger/src/harness.rs is the only caller.
    #[doc(hidden)]
    pub fn with_subplan_memo(self, _memo: Arc<crate::search::SubplanMemo>) -> Self {
        self
    }

    // Shim, returns `self` (no search prunes): crates/bench/src/bin/ledger/src/{harness,oracle}.rs are the only callers.
    #[doc(hidden)]
    pub fn with_pruning(self, _pruning: bool) -> Self {
        self
    }

    /// The catalog this optimizer is bound to.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }

    /// The memory distribution in force.
    pub fn memory(&self) -> &Distribution {
        &self.memory
    }

    /// Optimize `query` under `mode`: validate, build the cost model, run
    /// the free [`optimize`].  `stats.elapsed` covers the whole call.
    pub fn optimize(&self, query: &Query, mode: &Mode) -> Result<SearchOutcome, OptError> {
        query.validate(self.catalog)?;
        let model = CostModel::new(self.catalog, query);
        let start = Instant::now();
        let mut outcome = optimize(&model, &self.memory, mode)?;
        outcome.stats.elapsed = start.elapsed();
        Ok(outcome)
    }

    /// Expected cost of an arbitrary plan under this optimizer's memory
    /// distribution (for cross-mode comparisons).
    pub fn expected_cost_of(&self, query: &Query, plan: &PlanNode) -> f64 {
        let model = CostModel::new(self.catalog, query);
        lec_cost::expected_plan_cost_static(&model, plan, &self.memory)
    }
}

/// Unit-test shorthand: [`optimize`] taking the mode by value.
#[cfg(test)]
pub(crate) fn run(
    model: &CostModel<'_>,
    memory: &Distribution,
    mode: Mode,
) -> Result<SearchOutcome, OptError> {
    optimize(model, memory, &mode)
}

/// Unit-test shorthand: classical System R at the memory value `m`.
#[cfg(test)]
pub(crate) fn lsc_at(model: &CostModel<'_>, m: f64) -> Result<SearchOutcome, OptError> {
    run(model, &Distribution::point(m), Mode::LscAt(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{example_1_1, example_1_1_memory, three_chain};

    #[test]
    fn facade_runs_every_mode_on_example_1_1() {
        let (cat, q) = example_1_1();
        let opt = Optimizer::new(&cat, example_1_1_memory());
        let chain = MarkovChain::identity(vec![700.0, 2000.0]).unwrap();
        let modes = vec![
            Mode::Lsc(PointEstimate::Mean),
            Mode::Lsc(PointEstimate::Mode),
            Mode::LscAt(700.0),
            Mode::AlgorithmA,
            Mode::AlgorithmB { c: 3 },
            Mode::AlgorithmC,
            Mode::AlgorithmCDynamic { chain },
            Mode::AlgorithmD {
                config: AlgDConfig::default(),
            },
        ];
        for mode in modes {
            let r = opt.optimize(&q, &mode).unwrap();
            assert!(r.cost > 0.0, "{}", mode.name());
            assert!(r.plan.is_left_deep());
            assert!(r.stats.elapsed.as_nanos() > 0);
        }
    }

    #[test]
    fn all_four_counters_are_live_in_every_mode() {
        // Every mode populates every work counter.
        let (cat, q) = three_chain();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let chain = MarkovChain::identity(memory.support().to_vec()).unwrap();
        let opt = Optimizer::new(&cat, memory);
        let modes = vec![
            Mode::Lsc(PointEstimate::Mean),
            Mode::LscAt(700.0),
            Mode::AlgorithmA,
            Mode::AlgorithmB { c: 3 },
            Mode::AlgorithmC,
            Mode::AlgorithmCDynamic { chain },
            Mode::AlgorithmD {
                config: AlgDConfig::default(),
            },
            Mode::Bushy,
        ];
        for mode in modes {
            let r = opt.optimize(&q, &mode).unwrap();
            assert!(r.stats.nodes > 0, "{}: nodes", mode.name());
            assert!(r.stats.candidates > 0, "{}: candidates", mode.name());
            assert!(r.stats.evals > 0, "{}: evals", mode.name());
            assert!(r.stats.elapsed.as_nanos() > 0, "{}: elapsed", mode.name());
        }
    }

    #[test]
    fn the_papers_headline_result() {
        // LSC (mean or mode) → Plan 1; every LEC algorithm → Plan 2,
        // with EC(Plan 2) < EC(Plan 1).
        let (cat, q) = example_1_1();
        let opt = Optimizer::new(&cat, example_1_1_memory());
        let lsc = opt.optimize(&q, &Mode::Lsc(PointEstimate::Mode)).unwrap();
        assert!(
            crate::fixtures::is_plan1(&lsc.plan),
            "{}",
            lsc.plan.compact()
        );
        for mode in [
            Mode::AlgorithmA,
            Mode::AlgorithmB { c: 2 },
            Mode::AlgorithmC,
            Mode::AlgorithmD {
                config: AlgDConfig::default(),
            },
        ] {
            let lec = opt.optimize(&q, &mode).unwrap();
            assert!(
                crate::fixtures::is_plan2(&lec.plan),
                "{}: {}",
                mode.name(),
                lec.plan.compact()
            );
            let lsc_ec = opt.expected_cost_of(&q, &lsc.plan);
            assert!(
                lec.cost < lsc_ec,
                "{}: {} !< {}",
                mode.name(),
                lec.cost,
                lsc_ec
            );
        }
    }

    #[test]
    fn extension_modes_run_through_the_facade() {
        let (cat, q) = example_1_1();
        let opt = Optimizer::new(&cat, example_1_1_memory());
        let exact = opt.optimize(&q, &Mode::AlgorithmC).unwrap();
        let r = opt.optimize(&q, &Mode::Bushy).unwrap();
        // On a two-table query the bushy search must find the exact
        // optimum (the plan space is tiny).
        assert!(
            (r.cost - exact.cost).abs() < 1.0,
            "Bushy: {} vs {}",
            r.cost,
            exact.cost
        );
    }

    #[test]
    fn invalid_queries_are_rejected_up_front() {
        let (cat, mut q) = three_chain();
        q.joins.clear(); // disconnects the graph
        let opt = Optimizer::new(&cat, example_1_1_memory());
        assert!(matches!(
            opt.optimize(&q, &Mode::AlgorithmC),
            Err(OptError::InvalidQuery(_))
        ));
    }

    #[test]
    fn a_non_finite_lsc_memory_is_a_bad_parameter() {
        // `Mode::LscAt` carries whatever `f64` the caller (or the wire
        // decoder) put there; a point distribution cannot hold these.
        let (cat, q) = three_chain();
        let opt = Optimizer::new(&cat, example_1_1_memory());
        for m in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    opt.optimize(&q, &Mode::LscAt(m)),
                    Err(OptError::BadParameter(_))
                ),
                "LscAt({m})"
            );
        }
        assert!(opt.optimize(&q, &Mode::LscAt(700.0)).is_ok());
    }

    #[test]
    fn each_mode_names_its_objective() {
        // Example 1.1's belief: 700 pages w.p. 0.2, 2000 w.p. 0.8.
        let memory = example_1_1_memory();
        let chain = MarkovChain::birth_death(vec![700.0, 2000.0], 0.3, 0.1).unwrap();
        let point = |m| Ok(Objective::Static(Distribution::point(m)));
        let fixed = Ok(Objective::Static(memory.clone()));
        let cases = [
            (Mode::LscAt(700.0), point(700.0)),
            (Mode::Lsc(PointEstimate::Mean), point(1740.0)),
            (Mode::Lsc(PointEstimate::Mode), point(2000.0)),
            (
                Mode::AlgorithmCDynamic {
                    chain: chain.clone(),
                },
                Ok(Objective::Dynamic {
                    initial: memory.clone(),
                    chain,
                }),
            ),
            (Mode::AlgorithmC, fixed.clone()),
            (Mode::Bushy, fixed.clone()),
            (Mode::AlgorithmA, fixed.clone()),
            (Mode::AlgorithmB { c: 3 }, fixed.clone()),
            (
                Mode::AlgorithmD {
                    config: AlgDConfig::default(),
                },
                fixed,
            ),
        ];
        for (mode, objective) in cases {
            assert_eq!(mode.objective(&memory), objective, "{}", mode.name());
        }
        for m in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    Mode::LscAt(m).objective(&memory),
                    Err(OptError::BadParameter(_))
                ),
                "LscAt({m})"
            );
        }
    }

    #[test]
    fn overhead_grows_with_bucket_count() {
        // Contribution 3: "the extension increases the cost of query
        // optimization by a factor depending on the granularity of the
        // parameter distribution" — evals scale with b for Algorithm C.
        let (cat, q) = three_chain();
        let mut last_evals = 0;
        for b in [1usize, 2, 4, 8] {
            let memory = lec_prob::presets::spread_family(400.0, 0.5, b).unwrap();
            let opt = Optimizer::new(&cat, memory);
            let r = opt.optimize(&q, &Mode::AlgorithmC).unwrap();
            assert!(
                r.stats.evals >= last_evals,
                "evals must grow with buckets: {} after {}",
                r.stats.evals,
                last_evals
            );
            last_evals = r.stats.evals;
        }
    }
}
