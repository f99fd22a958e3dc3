//! Ground truth for the optimizer's theorems: every plan of a space, priced
//! by the replay (`expected_plan_cost_{static,dynamic}`), below the
//! optimizer crate so that it shares none of the DP's search code (what a
//! join, an access and a root sort deliver it reads from [`CostModel`], as
//! the DP does).  [`left_deep`]
//! shares each prefix's fold among the plans extending it, in the replay's
//! own order (static: a running sum per memory bucket, phases innermost
//! first, then `Σ f(m)·p(m)`; dynamic: a running sum of per-phase
//! expectations), so every cost is the replay's to the bit; [`bushy`]
//! replays each plan whole.

use crate::model::CostModel;
use crate::plan_cost::{expected_plan_cost_static, output_order, Objective};
use lec_plan::{JoinMethod, OrderProperty as Order, PlanNode, TableSet};
use lec_prob::Distribution;

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
    objective: &'m Objective,
    /// The memory distribution per phase, read by a dynamic objective.
    phases: Vec<Distribution>,
    accesses: Vec<Vec<Access>>,
    /// Running sums, `width` per row: row `k` after `k` phases.
    sums: Vec<f64>,
    width: usize,
    /// The prefix's leaves as (table, index into its `accesses`), each
    /// with the join that brought it in (unread for the first).
    path: Vec<(JoinMethod, usize, usize)>,
    best: Best,
}

impl LeftDeep<'_, '_> {
    /// Fill row `k + 1`, returned, with row `k` plus phase `k` at `cost(m)`:
    /// fixed part plus operator, as [`crate::Phase::cost_at`] adds them.
    fn add(&mut self, k: usize, cost: impl Fn(f64) -> f64) -> usize {
        let w = self.width;
        let (prev, next) = self.sums[k * w..(k + 2) * w].split_at_mut(w);
        match self.objective {
            Objective::Static(memory) => {
                for ((n, p), &m) in next.iter_mut().zip(&*prev).zip(memory.support()) {
                    *n = p + cost(m);
                }
            }
            Objective::Dynamic { .. } => next[0] = prev[0] + self.phases[k].expect(cost),
        }
        k + 1
    }

    /// Extend the prefix over `set`, its phases folded into row `|set| - 1`;
    /// `pending` is a lone table's access cost, which the first join pays.
    fn extend(&mut self, set: TableSet, pages: f64, order: Order, pending: f64) {
        let (model, q, k) = (self.model, self.model.query(), set.len() - 1);
        if k + 1 == q.n_tables() {
            return self.complete(k, pages, order, pending);
        }
        for j in (0..q.n_tables()).filter(|&j| !set.contains(j) && q.is_connected_to(set, j)) {
            let (right, inner) = (TableSet::singleton(j), model.base_pages(j));
            let split = model.split(set, right);
            let out = split.pages(pages, inner);
            for a in 0..self.accesses[j].len() {
                let fixed = pending + self.accesses[j][a].0;
                for method in JoinMethod::ALL {
                    self.add(k, |m| fixed + model.join_cost(method, pages, inner, m));
                    self.path.push((method, j, a));
                    self.extend(set.with(j), out, split.order(method, order), 0.0);
                    self.path.pop();
                }
            }
        }
    }

    /// Price a complete order with its root phase — a sort where the order
    /// is missing, else a lone table's access — and offer it.
    fn complete(&mut self, k: usize, pages: f64, order: Order, pending: f64) {
        let (model, sort) = (self.model, self.model.root_sort(order));
        let row = if sort.is_some() {
            self.add(k, |m| pending + model.sort_cost(pages, m))
        } else if pending > 0.0 {
            self.add(k, |_| pending)
        } else {
            k
        };
        let sums = &self.sums[row * self.width..(row + 1) * self.width];
        let cost = match self.objective {
            Objective::Static(memory) => sums.iter().zip(memory.probs()).map(|(s, p)| s * p).sum(),
            Objective::Dynamic { .. } => sums[0],
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
    let width = match objective {
        Objective::Static(memory) => memory.len(),
        Objective::Dynamic { .. } => 1,
    };
    let phases = objective.phase_distributions(n).expect("chain evolves");
    let (accesses, sums) = (accesses(model), vec![0.0; (n + 1) * width]);
    let mut walk = LeftDeep {
        model,
        objective,
        phases,
        accesses,
        sums,
        width,
        path: Vec::with_capacity(n),
        best: Best::nothing(),
    };
    for t in 0..n {
        for a in 0..walk.accesses[t].len() {
            let (pending, order, _) = walk.accesses[t][a];
            walk.path.push((JoinMethod::SortMerge, t, a));
            walk.extend(TableSet::singleton(t), model.base_pages(t), order, pending);
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
