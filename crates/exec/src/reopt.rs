//! A mid-query re-optimization baseline in the style of \[KD98\]
//! (Kabra & DeWitt), which the paper's §2.3 contrasts with the LEC
//! approach: "the way they deal with uncertainty is to wait until they
//! have more information."
//!
//! The reactive executor observes the *actual* memory at every phase
//! boundary, re-plans the entire remaining join optimally for that value
//! (assuming, as an LSC optimizer does, that it will persist), executes
//! one phase, and repeats.  This is an idealized reactive baseline —
//! re-planning is free and intermediate results are pipelined — so it
//! upper-bounds what \[KD98\]-style systems can achieve in this cost model,
//! making the comparison against Algorithm C conservative.
//!
//! Simplification: base accesses are costed at their cheapest access path
//! and order properties propagate as in the DP; queries with local filters
//! and index orders are supported but the reactive planner does not
//! speculate on order-carrying index paths.

use lec_cost::CostModel;
use lec_plan::{JoinMethod, OrderProperty, TableSet};
use lec_prob::MarkovChain;
use rand::Rng;

/// Outcome of one reactive execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReoptRun {
    /// Total charged cost.
    pub cost: f64,
    /// Number of phase boundaries where the committed move differed from
    /// the previously planned one.
    pub replans: usize,
}

/// Cheapest access path cost for a table.
fn best_access(model: &CostModel<'_>, idx: usize) -> f64 {
    model
        .access_paths(idx)
        .into_iter()
        .map(|p| model.access_cost(p, idx))
        .fold(f64::INFINITY, f64::min)
}

/// One step of the remaining-plan search: `(next table, method, estimated
/// completion cost)` assuming memory `m` persists.
struct Completion {
    next: usize,
    method: JoinMethod,
    est_cost: f64,
}

/// Exhaustive best completion of the join from state `(set, pages, order)`
/// at fixed memory `m`.  Returns `None` when `set` is the full set.
fn best_completion(
    model: &CostModel<'_>,
    set: TableSet,
    pages: f64,
    order: OrderProperty,
    m: f64,
) -> Option<Completion> {
    let query = model.query();
    let n = query.n_tables();
    if set.len() == n {
        return None;
    }
    let mut best: Option<Completion> = None;
    for j in 0..n {
        if set.contains(j) || !query.is_connected_to(set, j) {
            continue;
        }
        let inner_pages = model.base_pages(j);
        let sel = model.join_selectivity(set, j);
        for method in JoinMethod::ALL {
            let join_cost = model.join_cost(method, pages, inner_pages, m);
            let new_pages = model.join_output_pages(pages, inner_pages, sel);
            let new_order = join_order_after(model, set, order, j, method);
            let tail = completion_cost(model, set.with(j), new_pages, new_order, m);
            let est = best_access(model, j) + join_cost + tail;
            if best.as_ref().is_none_or(|b| est < b.est_cost) {
                best = Some(Completion {
                    next: j,
                    method,
                    est_cost: est,
                });
            }
        }
    }
    best
}

/// Cost of the best completion from a state (0 at the root, plus a final
/// sort if required).
fn completion_cost(
    model: &CostModel<'_>,
    set: TableSet,
    pages: f64,
    order: OrderProperty,
    m: f64,
) -> f64 {
    if set.len() == model.query().n_tables() {
        return match model.query().required_order {
            Some(_) if !order.is_required() => model.sort_cost(pages, m),
            _ => 0.0,
        };
    }
    match best_completion(model, set, pages, order, m) {
        Some(c) => c.est_cost,
        None => f64::INFINITY, // disconnected remainder (validated queries avoid this)
    }
}

fn join_order_after(
    model: &CostModel<'_>,
    set: TableSet,
    order: OrderProperty,
    j: usize,
    method: JoinMethod,
) -> OrderProperty {
    match method {
        JoinMethod::SortMerge => model.sort_merge_order(set, TableSet::singleton(j)),
        JoinMethod::PageNestedLoop => order,
        JoinMethod::GraceHash | JoinMethod::BlockNestedLoop => OrderProperty::Unsorted,
    }
}

/// The best starting pair `(outer, inner, method)` at memory `m`.
fn best_start(model: &CostModel<'_>, m: f64) -> (usize, usize, JoinMethod, f64) {
    let query = model.query();
    let n = query.n_tables();
    let mut best: Option<(usize, usize, JoinMethod, f64)> = None;
    for outer in 0..n {
        let set = TableSet::singleton(outer);
        let Some(c) = best_completion(
            model,
            set,
            model.base_pages(outer),
            OrderProperty::Unsorted,
            m,
        ) else {
            continue;
        };
        let est = best_access(model, outer) + c.est_cost;
        if best.is_none_or(|(_, _, _, b)| est < b) {
            best = Some((outer, c.next, c.method, est));
        }
    }
    best.expect("validated queries have a connected start")
}

/// Execute the query reactively under a Markov memory environment.
///
/// `init_probs` is a dense probability vector over `chain` states for the
/// phase-0 memory.
pub fn run_reoptimizing<R: Rng + ?Sized>(
    model: &CostModel<'_>,
    chain: &MarkovChain,
    init_probs: &[f64],
    rng: &mut R,
) -> ReoptRun {
    let query = model.query();
    let n = query.n_tables();
    let mut state = chain.sample_state(init_probs, rng);
    let mut m = chain.states()[state];
    let mut total = 0.0;
    let mut replans = 0usize;

    // Phase 1: commit the best starting join for the observed memory.
    let (outer, inner, method, _) = best_start(model, m);
    total += best_access(model, outer) + best_access(model, inner);
    let sel = model.join_selectivity(TableSet::singleton(outer), inner);
    total += model.join_cost(method, model.base_pages(outer), model.base_pages(inner), m);
    let mut pages = model.join_output_pages(model.base_pages(outer), model.base_pages(inner), sel);
    let mut set = TableSet::singleton(outer).with(inner);
    let mut order = join_order_after(
        model,
        TableSet::singleton(outer),
        OrderProperty::Unsorted,
        inner,
        method,
    );
    // What we currently expect to do next (for replan counting).
    let mut planned_next = best_completion(model, set, pages, order, m).map(|c| (c.next, c.method));

    while set.len() < n {
        // Phase boundary: memory moves, we observe it and re-plan.
        state = chain.sample_state(chain.row(state), rng);
        m = chain.states()[state];
        let c =
            best_completion(model, set, pages, order, m).expect("connected query always completes");
        if planned_next != Some((c.next, c.method)) {
            replans += 1;
        }
        total += best_access(model, c.next);
        let inner_pages = model.base_pages(c.next);
        let sel = model.join_selectivity(set, c.next);
        total += model.join_cost(c.method, pages, inner_pages, m);
        order = join_order_after(model, set, order, c.next, c.method);
        pages = model.join_output_pages(pages, inner_pages, sel);
        set = set.with(c.next);
        planned_next = best_completion(model, set, pages, order, m).map(|x| (x.next, x.method));
    }

    // Final sort phase if needed (memory moves once more).
    if query.required_order.is_some() && !order.is_required() {
        state = chain.sample_state(chain.row(state), rng);
        m = chain.states()[state];
        total += model.sort_cost(pages, m);
    }
    ReoptRun {
        cost: total,
        replans,
    }
}

/// Average reactive execution cost over `runs` Monte-Carlo executions.
pub fn monte_carlo_reopt(
    model: &CostModel<'_>,
    chain: &MarkovChain,
    init_probs: &[f64],
    runs: usize,
    seed: u64,
) -> (f64, f64) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut total = 0.0;
    let mut replans = 0usize;
    for _ in 0..runs {
        let r = run_reoptimizing(model, chain, init_probs, &mut rng);
        total += r.cost;
        replans += r.replans;
    }
    (total / runs as f64, replans as f64 / runs as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_core::fixtures::three_chain;
    use lec_core::{optimize, Mode, SearchConfig, SearchOutcome};
    use lec_prob::Distribution;
    use rand::SeedableRng;

    fn lsc_at(model: &CostModel<'_>, m: f64) -> SearchOutcome {
        let config = SearchConfig::default();
        optimize(model, &Distribution::point(m), &Mode::LscAt(m), &config).unwrap()
    }

    #[test]
    fn without_drift_reopt_equals_lsc() {
        // Identity chain: the reactive planner sees the same memory at
        // every boundary, so it executes exactly the LSC plan for it.
        let (cat, q) = three_chain();
        let model = lec_cost::CostModel::new(&cat, &q);
        for m in [60.0, 400.0, 2500.0] {
            let chain = MarkovChain::identity(vec![m]).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            let run = run_reoptimizing(&model, &chain, &[1.0], &mut rng);
            let lsc = lsc_at(&model, m);
            assert!(
                (run.cost - lsc.cost).abs() / lsc.cost < 1e-9,
                "m={m}: reopt {} vs lsc {}",
                run.cost,
                lsc.cost
            );
            assert_eq!(run.replans, 0, "no drift, no replans");
        }
    }

    #[test]
    fn reopt_reacts_to_drift() {
        // A crash from plentiful to scarce memory: the reactive executor's
        // later phases must be costed at the scarce value.
        let (cat, q) = three_chain();
        let model = lec_cost::CostModel::new(&cat, &q);
        let chain = MarkovChain::new(
            vec![30.0, 3000.0],
            vec![vec![1.0, 0.0], vec![1.0, 0.0]], // absorb at 30 pages
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let run = run_reoptimizing(&model, &chain, &[0.0, 1.0], &mut rng);
        // Costs are monotone in memory, so the collapsed run can never
        // beat the all-memory-high optimum (and may equal it when later
        // phases are memory-insensitive).
        let high = lsc_at(&model, 3000.0);
        assert!(run.cost >= high.cost - 1e-9);
        // ... but react better than blindly running the high-memory plan
        // with its later phases at 30 pages.
        let dyn_ec_of_lsc = lec_cost::expected_plan_cost_dynamic(
            &model,
            &high.plan,
            &Distribution::point(3000.0),
            &chain,
        )
        .unwrap();
        assert!(
            run.cost <= dyn_ec_of_lsc + 1e-6,
            "reactive {} should not lose to frozen LSC {}",
            run.cost,
            dyn_ec_of_lsc
        );
    }

    #[test]
    fn monte_carlo_reopt_is_deterministic_per_seed() {
        let (cat, q) = three_chain();
        let model = lec_cost::CostModel::new(&cat, &q);
        let chain = MarkovChain::birth_death(vec![50.0, 200.0, 800.0], 0.3, 0.2).unwrap();
        let init = [0.0, 1.0, 0.0];
        let (a, ra) = monte_carlo_reopt(&model, &chain, &init, 200, 9);
        let (b, rb) = monte_carlo_reopt(&model, &chain, &init, 200, 9);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        assert!(a > 0.0);
    }
}
