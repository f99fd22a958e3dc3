//! The exhaustive oracle's completion floor.
//!
//! No served search bounds anything: every DP mode combines every
//! connected subset.  The one consumer of a lower bound is the streaming
//! keep-all verifier ([`super::KeepAllPolicy::streaming`], run by
//! [`crate::exhaustive::exhaustive_best`]), which discards a candidate on
//! emission when its accumulated cost plus [`CompletionFloor::of`] its
//! subset strictly exceeds the cheapest complete plan it has in hand.
//!
//! # Admissibility
//!
//! Admissibility rests on two monotonicity facts the cost layer pins by
//! test ([`lec_cost::formulas`]): every join formula is nondecreasing in
//! its page inputs and nonincreasing in memory.  So for any costing — an
//! expectation over a point, a static distribution or per-phase evolved
//! ones — the cost assigned to one join is at least
//! `raw_join_cost(method, a_floor, b_floor, m_max)`, where
//! `a_floor`/`b_floor` floor the input sizes and `m_max` is the largest
//! memory value any phase can see.  A complete plan containing a subtree
//! over `S` must still access every table outside `S` and perform
//! `n − |S|` joins: one directly above the subtree, one of whose operands
//! is `S`'s result (at least [`point_size_product`] pages), and the others
//! on inputs of at least [`MIN_PAGES`].  A root sort only adds cost.
//! Discarding only on a *strict* excess keeps exact cost ties, so the
//! streaming answer is the materializing one's, plan and cost bits.

use lec_cost::formulas::{raw_join_cost, MIN_PAGES};
use lec_cost::CostModel;
use lec_plan::{JoinMethod, TableSet};

/// The point size product of `set`: base pages of every member times the
/// mean selectivity of every join internal to `set`, clamped to
/// [`MIN_PAGES`].
///
/// This is exactly the value the scalar-page policies chain through
/// [`CostModel::join_output_pages`], except that the chain clamps at
/// *every* intermediate step while this clamps once at the end — so the
/// product is a floor on every entry's `pages`, whatever join order
/// built it.
pub fn point_size_product(model: &CostModel<'_>, set: TableSet) -> f64 {
    let mut pages = 1.0f64;
    for i in set.iter() {
        pages *= model.base_pages(i);
    }
    for selectivity in model.selectivities_within(set) {
        pages *= selectivity;
    }
    pages.max(MIN_PAGES)
}

/// An admissible floor on everything a complete plan must still pay
/// outside a subtree (module docs): the remaining tables' cheapest
/// accesses and the cheapest conceivable cost of each remaining join.
#[derive(Debug, Clone)]
pub struct CompletionFloor {
    /// Cheapest access cost per table.
    access_floors: Vec<f64>,
    total_access_floor: f64,
    /// Cheapest conceivable join: the cheapest method on two
    /// [`MIN_PAGES`] inputs at the most favourable memory.
    join_floor_each: f64,
    /// Largest memory value any phase can see.
    max_memory: f64,
}

impl CompletionFloor {
    /// The floor for a search over `model` whose coster never sees more
    /// memory than `max_memory`: each table's cheapest access path is
    /// priced once here.
    pub fn new(model: &CostModel<'_>, max_memory: f64) -> Self {
        let cheapest_access = |i| {
            let paths = model.access_paths(i).into_iter();
            paths
                .map(|path| model.access_cost(path, i))
                .fold(f64::INFINITY, f64::min)
        };
        let access_floors: Vec<f64> = (0..model.query().n_tables()).map(cheapest_access).collect();
        let join_floor_each = JoinMethod::ALL
            .iter()
            .map(|&m| raw_join_cost(m, MIN_PAGES, MIN_PAGES, max_memory))
            .fold(f64::INFINITY, f64::min);
        CompletionFloor {
            total_access_floor: access_floors.iter().sum(),
            access_floors,
            join_floor_each,
            max_memory,
        }
    }

    /// Floor on the cost of the single join directly above a subtree of
    /// `pages` output pages: the cheapest method and orientation against
    /// a [`MIN_PAGES`]-sized partner at the most favourable memory.
    fn first_join_floor(&self, pages: f64) -> f64 {
        if pages == MIN_PAGES {
            // The constant's own operand pair, both orientations.
            return self.join_floor_each;
        }
        let m_max = self.max_memory;
        JoinMethod::ALL
            .iter()
            .map(|&m| {
                raw_join_cost(m, pages, MIN_PAGES, m_max)
                    .min(raw_join_cost(m, MIN_PAGES, pages, m_max))
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Admissible floor on what a complete plan must still pay outside a
    /// subtree over `set`: accessing every remaining table, the join
    /// directly above the subtree (its operand at least `set`'s
    /// [`point_size_product`]), and the cheapest conceivable cost for each
    /// other remaining join.  Zero for the full set.
    pub fn of(&self, model: &CostModel<'_>, set: TableSet) -> f64 {
        let (n, k) = (self.access_floors.len(), set.len());
        if k >= n {
            return 0.0;
        }
        let outside_access: f64 =
            self.total_access_floor - set.iter().map(|i| self.access_floors[i]).sum::<f64>();
        // A complete plan has `n - 1` joins; the subtree contains
        // `k - 1`, leaving `n - k`: one directly above the subtree, the
        // rest floored by the cheapest conceivable join.
        let pages = point_size_product(model, set);
        outside_access
            + self.first_join_floor(pages).max(self.join_floor_each)
            + (n - k - 1) as f64 * self.join_floor_each
    }
}
