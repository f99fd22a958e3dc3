//! Monte-Carlo plan-cost simulation: the measurement half of the paper's
//! promised prototype ("to test its benefits against realistic queries and
//! execution environments", §4).
//!
//! A simulated execution samples one memory trace from the environment and
//! charges each phase of the plan its model cost at that phase's memory.
//! Averaging over many runs estimates the *true* average execution cost of
//! a plan in that environment — which is exactly what the LEC objective
//! claims to minimize and the LSC objective does not.

use crate::env::Environment;
use lec_cost::{phases, CostModel, Phase};
use lec_plan::PlanNode;
use lec_prob::ProbError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Summary statistics of a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Number of simulated executions.
    pub runs: usize,
    /// Mean cost.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum observed cost.
    pub min: f64,
    /// Maximum observed cost.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl SimStats {
    /// Relative error of a prediction against the simulated mean:
    /// `|predicted − mean| / mean`.
    pub fn relative_error(&self, predicted: f64) -> f64 {
        if self.mean == 0.0 {
            return if predicted == 0.0 { 0.0 } else { f64::INFINITY };
        }
        (predicted - self.mean).abs() / self.mean.abs()
    }
}

/// Cost of one execution given a concrete per-phase memory trace.
pub fn cost_with_trace(model: &CostModel<'_>, plan_phases: &[Phase], trace: &[f64]) -> f64 {
    plan_phases
        .iter()
        .enumerate()
        .map(|(i, p)| p.cost_at(model, trace[i.min(trace.len().saturating_sub(1))]))
        .sum()
}

/// Simulate `runs` executions of `plan` in `env` and summarize.
pub fn monte_carlo(
    model: &CostModel<'_>,
    plan: &PlanNode,
    env: &Environment,
    runs: usize,
    seed: u64,
) -> Result<SimStats, ProbError> {
    assert!(runs > 0, "need at least one run");
    let plan_phases = phases(model, plan);
    let n_phases = plan_phases.len().max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut costs = Vec::with_capacity(runs);
    for _ in 0..runs {
        let trace = env.sample_trace(n_phases, &mut rng)?;
        costs.push(cost_with_trace(model, &plan_phases, &trace));
    }
    Ok(summarize(costs))
}

fn summarize(mut costs: Vec<f64>) -> SimStats {
    costs.sort_by(f64::total_cmp);
    let runs = costs.len();
    let mean = costs.iter().sum::<f64>() / runs as f64;
    let var = if runs > 1 {
        costs.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / (runs - 1) as f64
    } else {
        0.0
    };
    let pct = |q: f64| costs[(((runs - 1) as f64) * q).round() as usize];
    SimStats {
        runs,
        mean,
        std_dev: var.sqrt(),
        min: costs[0],
        max: costs[runs - 1],
        p50: pct(0.5),
        p95: pct(0.95),
        p99: pct(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_core::fixtures::{example_1_1, example_1_1_memory};
    use lec_core::{optimize, Mode, PointEstimate, SearchConfig};
    use lec_prob::{Distribution, MarkovChain};

    fn plan_of(model: &CostModel<'_>, memory: &Distribution, mode: Mode) -> PlanNode {
        optimize(model, memory, &mode, &SearchConfig::default())
            .unwrap()
            .plan
    }

    fn plan2(model: &CostModel<'_>) -> PlanNode {
        plan_of(model, &example_1_1_memory(), Mode::AlgorithmC)
    }

    #[test]
    fn point_environment_reproduces_plan_cost() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let plan = plan2(&model);
        let env = Environment::Static(Distribution::point(2000.0));
        let s = monte_carlo(&model, &plan, &env, 10, 1).unwrap();
        let direct = lec_cost::plan_cost_at(&model, &plan, 2000.0);
        assert_eq!(s.mean, direct);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, s.max);
    }

    #[test]
    fn static_monte_carlo_converges_to_expected_cost() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let memory = example_1_1_memory();
        let env = Environment::Static(memory.clone());
        // Compare the *LSC* plan (whose cost varies with memory) so the
        // convergence is non-trivial.
        let lsc = plan_of(&model, &example_1_1_memory(), Mode::LscAt(2000.0));
        let ec = lec_cost::expected_plan_cost_static(&model, &lsc, &memory);
        let s = monte_carlo(&model, &lsc, &env, 40_000, 7).unwrap();
        let rel = (s.mean - ec).abs() / ec;
        assert!(rel < 0.01, "MC mean {} vs EC {ec} (rel {rel})", s.mean);
        assert!(s.std_dev > 0.0);
    }

    #[test]
    fn dynamic_monte_carlo_converges_to_dynamic_expected_cost() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let chain = MarkovChain::birth_death(vec![700.0, 2000.0], 0.3, 0.3).unwrap();
        let initial = Distribution::bimodal(700.0, 2000.0, 0.8).unwrap();
        let env = Environment::Dynamic {
            initial: initial.clone(),
            chain: chain.clone(),
        };
        let plan = plan2(&model);
        let ec = lec_cost::expected_plan_cost_dynamic(&model, &plan, &initial, &chain).unwrap();
        let s = monte_carlo(&model, &plan, &env, 40_000, 9).unwrap();
        let rel = (s.mean - ec).abs() / ec;
        assert!(rel < 0.01, "MC mean {} vs dyn EC {ec} (rel {rel})", s.mean);
    }

    #[test]
    fn percentiles_are_ordered() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let env = Environment::Static(example_1_1_memory());
        let lsc = plan_of(&model, &example_1_1_memory(), Mode::LscAt(2000.0));
        let s = monte_carlo(&model, &lsc, &env, 5000, 3).unwrap();
        assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert!(s.runs == 5000);
    }

    #[test]
    fn single_run_quantiles_collapse_to_the_observation() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let env = Environment::Static(Distribution::point(700.0));
        let plan = plan2(&model);
        let s = monte_carlo(&model, &plan, &env, 1, 5).unwrap();
        assert_eq!(s.runs, 1);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, s.max);
        assert_eq!(s.p50, s.min);
        assert_eq!(s.p95, s.min);
        assert_eq!(s.p99, s.min);
    }

    #[test]
    fn constant_trace_gives_degenerate_stats() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let env = Environment::Static(Distribution::point(2000.0));
        let plan = plan2(&model);
        let s = monte_carlo(&model, &plan, &env, 100, 5).unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, s.max);
        assert_eq!(s.p99, s.mean);
    }

    #[test]
    fn relative_error_edge_cases() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let env = Environment::Static(Distribution::point(2000.0));
        let plan = plan2(&model);
        let s = monte_carlo(&model, &plan, &env, 10, 1).unwrap();
        assert_eq!(s.relative_error(s.mean), 0.0);
        assert!((s.relative_error(s.mean * 1.5) - 0.5).abs() < 1e-12);
        assert!((s.relative_error(s.mean * 0.5) - 0.5).abs() < 1e-12);
        let zero = SimStats {
            runs: 1,
            mean: 0.0,
            std_dev: 0.0,
            min: 0.0,
            max: 0.0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
        };
        assert_eq!(zero.relative_error(0.0), 0.0);
        assert!(zero.relative_error(1.0).is_infinite());
    }

    #[test]
    fn lec_plan_beats_lsc_plan_in_simulation() {
        // The paper's bottom line, measured: average simulated cost of the
        // LEC plan is lower than that of the LSC plan.
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let memory = example_1_1_memory();
        let env = Environment::Static(memory.clone());
        let lsc = plan_of(&model, &memory, Mode::Lsc(PointEstimate::Mode));
        let lec = plan_of(&model, &memory, Mode::AlgorithmC);
        let s_lsc = monte_carlo(&model, &lsc, &env, 20_000, 11).unwrap();
        let s_lec = monte_carlo(&model, &lec, &env, 20_000, 11).unwrap();
        assert!(
            s_lec.mean < s_lsc.mean,
            "LEC {} !< LSC {}",
            s_lec.mean,
            s_lsc.mean
        );
    }
}
