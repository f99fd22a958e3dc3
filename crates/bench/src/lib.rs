//! # lec-bench — experiment harness for the LEC reproduction
//!
//! One function per experiment ([`registry`]: E1–E11, E14, E15, F1), each printing
//! the table it regenerates and returning a JSON summary that the
//! `experiments` binary can persist under `results/`.  Criterion
//! micro-benchmarks live in `benches/`.

#![forbid(unsafe_code)]

pub mod exp_ext;
pub mod exp_model;
pub mod exp_plans;
pub mod table;
pub mod workloads;

use serde_json::Value;

/// Schema version stamped into every `BENCH_*.json` record.  Bump when
/// any bench record's shape changes incompatibly, so downstream tooling
/// (CI artifact diffing, dashboards) can reject mixed-schema comparisons.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Core count of the host a bench ran on, recorded alongside results so
/// cross-host comparisons stay interpretable (parallel speedups and
/// contention numbers are meaningless without it).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The experiments' shorthand: one search under the default
/// [`lec_core::SearchConfig`], on a model and belief the experiment built.
pub(crate) fn search(
    model: &lec_cost::CostModel<'_>,
    memory: &lec_prob::Distribution,
    mode: lec_core::Mode,
) -> lec_core::SearchOutcome {
    lec_core::optimize(model, memory, &mode, &lec_core::SearchConfig::default())
        .expect("experiment workloads optimize")
}

/// One experiment: `(id, description, runner)`.
pub type Experiment = (&'static str, &'static str, fn() -> Value);

/// Experiment registry.
pub fn registry() -> Vec<Experiment> {
    vec![
        (
            "e1",
            "Example 1.1 cost table and plan choices",
            exp_plans::e1 as fn() -> Value,
        ),
        ("e2", "LEC advantage vs run-time variability", exp_plans::e2),
        ("e3", "Algorithm A/B/C plan quality ladder", exp_plans::e3),
        ("e4", "optimization overhead vs bucket count", exp_plans::e4),
        ("e5", "Prop 3.1 top-c combination frontier", exp_plans::e5),
        ("e6", "naive vs streaming expected cost", exp_model::e6),
        ("e7", "dynamic memory (Markov drift)", exp_model::e7),
        ("e8", "uncertain selectivities (Algorithm D)", exp_model::e8),
        ("e9", "bucket granularity and placement", exp_model::e9),
        ("e10", "result-size rebucketing accuracy", exp_model::e10),
        (
            "e11",
            "measured operator I/O vs the formulas",
            exp_model::e11,
        ),
        ("e14", "left-deep vs bushy LEC plans", exp_ext::e14),
        ("e15", "closed-loop statistics fitting", exp_ext::e15),
        (
            "f1",
            "Figure 1 per-node distribution bookkeeping",
            exp_model::f1,
        ),
    ]
}

/// Run one experiment by id.
pub fn run(id: &str) -> Option<Value> {
    registry()
        .into_iter()
        .find(|(name, _, _)| *name == id)
        .map(|(_, _, f)| f())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_runnable() {
        let reg = registry();
        assert_eq!(reg.len(), 14);
        let mut ids: Vec<_> = reg.iter().map(|(id, _, _)| *id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 14);
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run("e99").is_none());
    }

    /// Smoke-run the cheapest experiments end to end (the heavyweight ones
    /// are exercised by the binary / CI run), and hold e1 and e5 to the
    /// claims they compute.
    #[test]
    fn smoke_e1_e5_f1() {
        let [e1, e5, _f1] = ["e1", "e5", "f1"].map(|id| {
            let v = run(id).unwrap();
            assert_eq!(v["experiment"], id);
            v
        });
        // Example 1.1: LSC at the mode and at the mean picks Plan 1, and
        // the LEC plan differs and is cheaper in expectation.
        assert_eq!(
            e1["claim_holds"].as_bool(),
            Some(true),
            "e1: expected LSC(mode) and LSC(mean) = Plan 1 = SM(A,B) and a cheaper LEC plan; \
             got LSC(mode) {}, LSC(mean) {}, LEC {}, saving {}",
            e1["lsc_plan"],
            e1["lsc_mean_plan"],
            e1["lec_plan"],
            e1["lec_saving"]
        );
        // Proposition 3.1: Algorithm B's frontier stays within its bound
        // at every c.
        for row in e5["rows"].as_array().unwrap() {
            assert_eq!(
                row["within"].as_bool(),
                Some(true),
                "e5 at c = {}: expected at most {} combinations examined, got {}",
                row["c"],
                row["bound_total"],
                row["examined"]
            );
        }
    }
}
