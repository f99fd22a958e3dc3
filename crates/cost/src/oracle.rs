//! Ground truth for the optimizer's theorems: every plan of a space, priced
//! by the replay ([`Objective::replay`]), below the optimizer crate so that
//! it shares none of the DP's search code (what a join, an access and a
//! root sort deliver it reads from [`CostModel`], as the DP does).
//! [`left_deep`] carries one cost per prefix, shared among the plans
//! extending it and summed in the replay's order — the prefix plus the new
//! table's access, plus the join's expectation under its phase's memory,
//! then the root sort's — so every cost is the replay's to the bit;
//! [`bushy`] replays each plan whole.

use crate::model::CostModel;
use crate::plan_cost::{expected_plan_cost_static, output_order, phase_memory, Objective};
use lec_plan::{JoinMethod, OrderProperty as Order, PlanNode, TableSet};
use lec_prob::Distribution;
use std::borrow::Cow;

/// The cheapest plan of a space and what the enumeration saw.
#[derive(Debug, Clone)]
pub struct Best {
    /// The cheapest plan, the first enumerated among exact cost ties.
    pub plan: PlanNode,
    /// Its cost: the replay's bits.
    pub cost: f64,
    /// The second-lowest cost enumerated: `cost` itself on an exact tie.
    pub runner_up: f64,
    /// Complete plans enumerated.
    pub plans: u64,
}

impl Best {
    fn nothing() -> Best {
        Best {
            plan: PlanNode::seq_scan(0),
            cost: f64::INFINITY,
            runner_up: f64::INFINITY,
            plans: 0,
        }
    }

    /// Count a complete plan of `cost`, built only if it is the cheapest.
    fn offer(&mut self, cost: f64, plan: impl FnOnce() -> PlanNode) {
        self.plans += 1;
        if cost < self.cost {
            (self.runner_up, self.cost, self.plan) = (self.cost, cost, plan());
        } else {
            self.runner_up = self.runner_up.min(cost);
        }
    }
}

/// One access path of a table: its cost, output order and plan leaf.
type Access = (f64, Order, PlanNode);

/// Each table's [`CostModel::accesses`], each with its plan leaf.
fn accesses(model: &CostModel<'_>) -> Vec<Vec<Access>> {
    let leaf = |(step, order, cost)| (cost, order, PlanNode::from_postorder(vec![step]));
    let n = model.query().n_tables();
    (0..n)
        .map(|t| model.accesses(t).map(leaf).collect())
        .collect()
}

/// A left-deep enumeration in progress.
struct LeftDeep<'m, 'a> {
    model: &'m CostModel<'a>,
    /// The memory distribution per phase ([`Objective::phase_distributions`]).
    phases: Cow<'m, [Distribution]>,
    accesses: Vec<Vec<Access>>,
    /// The prefix's leaves as (table, index into its `accesses`), each
    /// with the join that brought it in (unread for the first).
    path: Vec<(JoinMethod, usize, usize)>,
    best: Best,
}

impl LeftDeep<'_, '_> {
    /// Extend the prefix over `set`, which costs `cost`, by each table `j`
    /// it can join: at phase `|set| - 1` that costs `(cost + access) +
    /// E[join]`, as the DP and the replay add, and `j`'s access paths
    /// share the size pair's four prices.
    fn extend(&mut self, set: TableSet, pages: f64, order: Order, cost: f64) {
        let (model, q, k) = (self.model, self.model.query(), set.len() - 1);
        if k + 1 == q.n_tables() {
            return self.complete(k, pages, order, cost);
        }
        for j in (0..q.n_tables()).filter(|&j| !set.contains(j) && q.is_connected_to(set, j)) {
            let (right, inner) = (TableSet::singleton(j), model.base_pages(j));
            let split = model.split(set, right);
            let out = split.pages(pages, inner);
            let memory = phase_memory(&self.phases, k);
            let prices = JoinMethod::ALL
                .map(|method| model.expected_join_cost_over(method, pages, inner, memory));
            for a in 0..self.accesses[j].len() {
                let access = self.accesses[j][a].0;
                for (method, price) in JoinMethod::ALL.into_iter().zip(prices) {
                    self.path.push((method, j, a));
                    let order = split.order(method, order);
                    self.extend(set.with(j), out, order, (cost + access) + price);
                    self.path.pop();
                }
            }
        }
    }

    /// Price a complete order's root sort, at phase `k`, where the order
    /// is missing, and offer it.
    fn complete(&mut self, k: usize, pages: f64, order: Order, cost: f64) {
        let (model, sort) = (self.model, self.model.root_sort(order));
        let cost = match sort {
            Some(_) => cost + model.expected_sort_cost_over(pages, phase_memory(&self.phases, k)),
            None => cost,
        };
        let (path, accesses) = (&self.path, &self.accesses);
        let leaf = |t: usize, a: usize| accesses[t][a].2.clone();
        let join = |outer, &(method, t, a): &(_, _, _)| PlanNode::join(method, outer, leaf(t, a));
        let plan = || path[1..].iter().fold(leaf(path[0].1, path[0].2), join);
        self.best
            .offer(cost, || sort.into_iter().fold(plan(), PlanNode::sort));
    }
}

/// The cheapest left-deep plan without cross products (every join method,
/// every access path, a root sort where the order is missing); `None` for
/// no tables or a disconnected join graph.  Panics if a dynamic
/// objective's chain cannot evolve its initial distribution.
pub fn left_deep(model: &CostModel<'_>, objective: &Objective) -> Option<Best> {
    let n = model.query().n_tables();
    let mut walk = LeftDeep {
        model,
        phases: objective.phase_distributions(n).expect("chain evolves"),
        accesses: accesses(model),
        path: Vec::with_capacity(n),
        best: Best::nothing(),
    };
    for t in 0..n {
        for a in 0..walk.accesses[t].len() {
            let (cost, order, _) = walk.accesses[t][a];
            walk.path.push((JoinMethod::SortMerge, t, a));
            walk.extend(TableSet::singleton(t), model.base_pages(t), order, cost);
            walk.path.pop();
        }
    }
    Some(walk.best).filter(|best| best.plans > 0)
}

/// The cheapest bushy plan (each join's halves connected and joined by a
/// predicate) under a static `memory`; `None` as for [`left_deep`].  It
/// holds every proper subset's plans: small queries only.
pub fn bushy(model: &CostModel<'_>, memory: &Distribution) -> Option<Best> {
    let (q, n) = (model.query(), model.query().n_tables());
    assert!(n <= 16, "the bushy oracle holds every subset's plans");
    let (accesses, full) = (accesses(model), (1u64 << n) - 1);
    let mut best = Best::nothing();
    // Each subset's plans, by its bits: a proper subset has smaller bits.
    let mut plans: Vec<Vec<PlanNode>> = vec![Vec::new(); 1 << n];
    for bits in 1..=full {
        let mut here = Vec::new();
        let mut emit = |plan: PlanNode| {
            if bits != full {
                return here.push(plan);
            }
            let sort = model.root_sort(output_order(model, &plan));
            let plan = sort.into_iter().fold(plan, PlanNode::sort);
            best.offer(expected_plan_cost_static(model, &plan, memory), || plan);
        };
        let set = TableSet::from_bits(bits);
        if set.len() == 1 {
            for (_, _, leaf) in &accesses[set.sole_member()] {
                emit(leaf.clone());
            }
        }
        let mut sub = (bits - 1) & bits;
        while sub != 0 {
            let (left, right) = (TableSet::from_bits(sub), TableSet::from_bits(bits & !sub));
            sub = (sub - 1) & bits;
            if left.iter().any(|t| q.is_connected_to(right, t)) {
                for outer in &plans[left.bits() as usize] {
                    for inner in &plans[right.bits() as usize] {
                        for method in JoinMethod::ALL {
                            emit(PlanNode::join(method, outer.clone(), inner.clone()));
                        }
                    }
                }
            }
        }
        plans[bits as usize] = here;
    }
    Some(best).filter(|best| best.plans > 0)
}
