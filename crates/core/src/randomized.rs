//! Randomized LEC optimization: iterative improvement and simulated
//! annealing over the left-deep plan space.
//!
//! §1 of the paper notes that beyond dynamic programming, "randomized
//! algorithms have also been proposed [Swa89, IK90].  As we shall see,
//! they apply in our approach too."  The application is exactly this
//! module: the move-based search of Swami/Ioannidis-Kang with the paper's
//! *expected* cost as the objective function.  Nothing else changes — the
//! objective is just `EC(P)` instead of `C(P, v₀)`.
//!
//! These searches are move-based rather than DP-based, so they do not run
//! on the subset engine; they still report the uniform
//! [`SearchStats`]: `nodes` counts complete plans costed, `candidates`
//! counts neighbour moves proposed, and `evals` counts cost-formula
//! evaluations through the model.
//!
//! The state is a complete left-deep plan: a connected join order, one
//! join method per join, and one access path per table.  Moves:
//!
//! * swap two adjacent tables in the order (rejected if connectivity of
//!   any prefix breaks);
//! * change the join method of one join;
//! * flip the access path of one table (when an index exists).

use crate::error::OptError;
use crate::search::{SearchOutcome, SearchStats};
use lec_cost::{expected_plan_cost_static, output_order, AccessPath, CostModel};
use lec_plan::{JoinMethod, PlanNode, TableSet};
use lec_prob::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// A point in the left-deep plan space.
#[derive(Debug, Clone, PartialEq)]
struct State {
    order: Vec<usize>,
    methods: Vec<JoinMethod>,
    paths: Vec<AccessPath>, // indexed by table idx (not order position)
}

/// Tuning for the randomized searches.
#[derive(Debug, Clone)]
pub struct RandomizedConfig {
    /// Random restarts (iterative improvement) / independent chains (SA).
    pub restarts: usize,
    /// Consecutive rejected moves before a restart concludes (II).
    pub patience: usize,
    /// Initial temperature as a fraction of the starting cost (SA).
    pub initial_temp_frac: f64,
    /// Geometric cooling factor per accepted-or-rejected step (SA).
    pub cooling: f64,
    /// Steps per SA chain.
    pub sa_steps: usize,
}

impl Default for RandomizedConfig {
    fn default() -> Self {
        RandomizedConfig {
            restarts: 8,
            patience: 64,
            initial_temp_frac: 0.1,
            cooling: 0.995,
            sa_steps: 1200,
        }
    }
}

struct Search<'a, 'b> {
    model: &'a CostModel<'b>,
    memory: &'a Distribution,
    rng: StdRng,
    stats: SearchStats,
}

impl Search<'_, '_> {
    fn n(&self) -> usize {
        self.model.query().n_tables()
    }

    /// A uniformly random connected join order (random connected DFS).
    fn random_state(&mut self) -> State {
        let n = self.n();
        let query = self.model.query();
        let mut order = Vec::with_capacity(n);
        let mut used = TableSet::EMPTY;
        order.push(self.rng.gen_range(0..n));
        used = used.with(order[0]);
        while order.len() < n {
            let candidates: Vec<usize> = (0..n)
                .filter(|&t| !used.contains(t) && query.is_connected_to(used, t))
                .collect();
            let pick = candidates[self.rng.gen_range(0..candidates.len())];
            order.push(pick);
            used = used.with(pick);
        }
        let methods = (0..n - 1)
            .map(|_| JoinMethod::ALL[self.rng.gen_range(0..4)])
            .collect();
        let paths = (0..n)
            .map(|t| {
                let av = self.model.access_paths(t);
                av[self.rng.gen_range(0..av.len())]
            })
            .collect();
        State {
            order,
            methods,
            paths,
        }
    }

    fn build_plan(&self, s: &State) -> PlanNode {
        let access = |t: usize| match s.paths[t] {
            AccessPath::SeqScan => PlanNode::seq_scan(t),
            AccessPath::IndexScan => PlanNode::index_scan(t),
        };
        let mut plan = access(s.order[0]);
        for (k, &t) in s.order.iter().enumerate().skip(1) {
            plan = PlanNode::join(s.methods[k - 1], plan, access(t));
        }
        // Root order enforcement, same rule as the DP.
        match self.model.query().required_order {
            Some(want) if !output_order(self.model, &plan).is_required() => {
                PlanNode::sort(plan, want)
            }
            _ => plan,
        }
    }

    fn cost(&mut self, s: &State) -> f64 {
        self.stats.nodes += 1;
        let plan = self.build_plan(s);
        expected_plan_cost_static(self.model, &plan, self.memory)
    }

    /// Propose a random neighbouring state; `None` if the move is invalid.
    fn neighbour(&mut self, s: &State) -> Option<State> {
        let n = self.n();
        self.stats.candidates += 1;
        let mut next = s.clone();
        match self.rng.gen_range(0..3) {
            0 if n >= 2 => {
                // Adjacent swap preserving prefix connectivity.
                let i = self.rng.gen_range(0..n - 1);
                next.order.swap(i, i + 1);
                let query = self.model.query();
                let mut used = TableSet::EMPTY;
                for (k, &t) in next.order.iter().enumerate() {
                    if k > 0 && !query.is_connected_to(used, t) {
                        return None;
                    }
                    used = used.with(t);
                }
                Some(next)
            }
            1 if n >= 2 => {
                let i = self.rng.gen_range(0..n - 1);
                next.methods[i] = JoinMethod::ALL[self.rng.gen_range(0..4)];
                (next != *s).then_some(next)
            }
            _ => {
                let t = self.rng.gen_range(0..n);
                let av = self.model.access_paths(t);
                if av.len() < 2 {
                    return None;
                }
                next.paths[t] = if next.paths[t] == AccessPath::SeqScan {
                    AccessPath::IndexScan
                } else {
                    AccessPath::SeqScan
                };
                Some(next)
            }
        }
    }

    fn into_outcome(mut self, state: State, cost: f64, start: Instant) -> SearchOutcome {
        let plan = self.build_plan(&state);
        self.stats.evals = self.model.evals();
        self.stats.elapsed = start.elapsed();
        SearchOutcome::new(plan, cost, self.stats)
    }
}

fn new_search<'a, 'b>(
    model: &'a CostModel<'b>,
    memory: &'a Distribution,
    seed: u64,
) -> Result<Search<'a, 'b>, OptError> {
    if model.query().n_tables() == 0 {
        return Err(OptError::EmptyQuery);
    }
    model.reset_evals();
    Ok(Search {
        model,
        memory,
        rng: StdRng::seed_from_u64(seed),
        stats: SearchStats::default(),
    })
}

/// Iterative improvement \[Swa89\]: repeated randomized hill climbing, with
/// expected cost as the objective.
pub fn iterative_improvement(
    model: &CostModel<'_>,
    memory: &Distribution,
    config: &RandomizedConfig,
    seed: u64,
) -> Result<SearchOutcome, OptError> {
    let start = Instant::now();
    let mut search = new_search(model, memory, seed)?;
    let mut best: Option<(State, f64)> = None;
    for _ in 0..config.restarts.max(1) {
        let mut cur = search.random_state();
        let mut cur_cost = search.cost(&cur);
        let mut stale = 0usize;
        while stale < config.patience {
            match search.neighbour(&cur) {
                Some(cand) => {
                    let c = search.cost(&cand);
                    if c < cur_cost {
                        cur = cand;
                        cur_cost = c;
                        stale = 0;
                    } else {
                        stale += 1;
                    }
                }
                None => stale += 1,
            }
        }
        if best.as_ref().is_none_or(|(_, b)| cur_cost < *b) {
            best = Some((cur, cur_cost));
        }
    }
    let (state, expected_cost) = best.expect("at least one restart ran");
    Ok(search.into_outcome(state, expected_cost, start))
}

/// Simulated annealing \[IK90\] with expected cost as the energy.
pub fn simulated_annealing(
    model: &CostModel<'_>,
    memory: &Distribution,
    config: &RandomizedConfig,
    seed: u64,
) -> Result<SearchOutcome, OptError> {
    let start = Instant::now();
    let mut search = new_search(model, memory, seed)?;
    let mut best: Option<(State, f64)> = None;
    for _ in 0..config.restarts.max(1) {
        let mut cur = search.random_state();
        let mut cur_cost = search.cost(&cur);
        // Seed `best` with the chain's start state: a query with no valid
        // neighbour moves (single table, no index) must still return its
        // trivial plan rather than panic below.
        if best.as_ref().is_none_or(|(_, b)| cur_cost < *b) {
            best = Some((cur.clone(), cur_cost));
        }
        let mut temp = (cur_cost * config.initial_temp_frac).max(1e-9);
        for _ in 0..config.sa_steps {
            if let Some(cand) = search.neighbour(&cur) {
                let c = search.cost(&cand);
                let accept = c < cur_cost || {
                    let u: f64 = search.rng.gen();
                    u < ((cur_cost - c) / temp).exp()
                };
                if accept {
                    cur = cand;
                    cur_cost = c;
                }
                if best.as_ref().is_none_or(|(_, b)| cur_cost < *b) {
                    best = Some((cur.clone(), cur_cost));
                }
            }
            temp *= config.cooling;
        }
    }
    let (state, expected_cost) = best.expect("at least one chain ran");
    Ok(search.into_outcome(state, expected_cost, start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{example_1_1, example_1_1_memory, three_chain};
    use crate::optimizer::{run, Mode};

    #[test]
    fn ii_finds_the_lec_plan_on_example_1_1() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let memory = example_1_1_memory();
        let r = iterative_improvement(&model, &memory, &Default::default(), 1).unwrap();
        let c = run(&model, &memory, Mode::AlgorithmC).unwrap();
        assert!(
            (r.cost - c.cost).abs() < 1.0,
            "II should find the LEC plan on a 2-table query"
        );
        assert!(crate::fixtures::is_plan2(&r.plan));
    }

    #[test]
    fn sa_finds_the_lec_plan_on_small_queries() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let memory = lec_prob::presets::spread_family(400.0, 0.7, 5).unwrap();
        let c = run(&model, &memory, Mode::AlgorithmC).unwrap();
        let r = simulated_annealing(&model, &memory, &Default::default(), 3).unwrap();
        assert!(
            r.cost <= c.cost * 1.0 + 1e-6,
            "SA {} vs C {}",
            r.cost,
            c.cost
        );
    }

    #[test]
    fn randomized_never_beats_the_exact_dp() {
        // Sanity: the DP is optimal; randomized search can only approach it.
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        for seed in 0..5u64 {
            let memory = lec_prob::presets::spread_family(300.0, 0.8, 4).unwrap();
            let c = run(&model, &memory, Mode::AlgorithmC).unwrap();
            let ii = iterative_improvement(&model, &memory, &Default::default(), seed).unwrap();
            let sa = simulated_annealing(&model, &memory, &Default::default(), seed).unwrap();
            assert!(ii.cost >= c.cost - 1e-6);
            assert!(sa.cost >= c.cost - 1e-6);
            // Reported costs replay.
            let replay = expected_plan_cost_static(&model, &ii.plan, &memory);
            assert!((ii.cost - replay).abs() < 1e-6);
        }
    }

    #[test]
    fn single_table_query_has_no_moves_but_still_returns_its_plan() {
        // Every neighbour proposal is invalid here (no second table, no
        // index), so the searches must fall back to the start state
        // instead of panicking.
        use lec_catalog::{Catalog, ColumnStats, TableStats};
        use lec_plan::{Query, QueryTable};
        let mut cat = Catalog::new();
        let t = cat.add_table(
            "solo",
            TableStats::new(500, 25_000, vec![ColumnStats::plain("c", 100)]),
        );
        let q = Query {
            tables: vec![QueryTable::bare(t)],
            joins: vec![],
            required_order: None,
        };
        let model = CostModel::new(&cat, &q);
        let memory = lec_prob::presets::spread_family(200.0, 0.5, 3).unwrap();
        let sa = simulated_annealing(&model, &memory, &Default::default(), 1).unwrap();
        let ii = iterative_improvement(&model, &memory, &Default::default(), 1).unwrap();
        for r in [&sa, &ii] {
            assert!(matches!(r.plan.steps(), [lec_plan::Step::SeqScan(_)]));
            assert!(r.cost > 0.0);
        }
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let memory = lec_prob::presets::spread_family(350.0, 0.6, 4).unwrap();
        let a = iterative_improvement(&model, &memory, &Default::default(), 42).unwrap();
        let b = iterative_improvement(&model, &memory, &Default::default(), 42).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.stats.nodes, b.stats.nodes);
        assert_eq!(a.stats.candidates, b.stats.candidates);
    }

    #[test]
    fn uniform_counters_are_populated() {
        // The seed hard-coded nodes/evals to 0 for the randomized modes;
        // all four counters must now be live.
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let memory = lec_prob::presets::spread_family(350.0, 0.6, 4).unwrap();
        let r = iterative_improvement(&model, &memory, &Default::default(), 9).unwrap();
        assert!(r.stats.nodes > 0, "plans costed");
        assert!(r.stats.candidates > 0, "moves proposed");
        assert!(r.stats.evals > 0, "cost-formula evaluations");
        // Each plan costed is either a restart's initial state or followed
        // a proposed move, so nodes <= candidates + restarts.
        let restarts = RandomizedConfig::default().restarts as u64;
        assert!(r.stats.nodes as u64 <= r.stats.candidates + restarts);
    }

    #[test]
    fn evaluation_counter_reflects_search_effort() {
        let (cat, q) = three_chain();
        let model = CostModel::new(&cat, &q);
        let memory = lec_prob::presets::spread_family(350.0, 0.6, 4).unwrap();
        let small = RandomizedConfig {
            restarts: 1,
            patience: 10,
            ..Default::default()
        };
        let big = RandomizedConfig {
            restarts: 8,
            patience: 100,
            ..Default::default()
        };
        let rs = iterative_improvement(&model, &memory, &small, 7).unwrap();
        let rb = iterative_improvement(&model, &memory, &big, 7).unwrap();
        assert!(rb.stats.nodes > rs.stats.nodes);
        assert!(rb.cost <= rs.cost + 1e-9);
    }
}
