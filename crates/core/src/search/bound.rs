//! Admissible lower bounds for branch-and-bound pruning of the DP
//! search.
//!
//! A [`LowerBound`] gives, per connected subset `S`, floors on the sizes
//! the active policy's coster can ever feed into a join — the output of
//! `S` itself ([`LowerBound::pages_floor`]), each base table as a join
//! operand ([`LowerBound::table_floor`]), and each join edge's most
//! favourable selectivity ([`LowerBound::selectivity_floor`]).
//! [`PruneState`] turns those floors into admissible lower bounds on the
//! cost of *any complete plan containing `S` as a subtree*, and the
//! engine discards `S` before its combine/cost loop whenever a bound
//! strictly exceeds the best complete-plan cost found so far (the
//! **incumbent**).
//!
//! # Two tiers
//!
//! The engine evaluates bounds in two tiers ([`PruneState::check`]):
//!
//! * **Cheap tier** ([`PruneState::subset_floor`]): access floors, the
//!   join directly above `S` against a [`MIN_PAGES`] partner, and the
//!   universal cheapest-join constant for every other remaining join.
//!   One size product plus O(k) adds — always evaluated.
//! * **Sharp tier** ([`PruneState::sharp_subset_floor`]): evaluated only
//!   when the cheap floor lands within [`SHARP_MARGIN`] of the incumbent
//!   (so far-from-the-line subsets never pay for it).  Built from the
//!   per-edge bound table ([`EdgeBound`], precomputed once per search):
//!   for each table a completion must still join, the cheapest edge that
//!   can attach it — a minimum-spanning selection over the remaining
//!   join edges — costed from the edge operands' minimum cardinalities
//!   instead of the universal constant.
//!
//! The sharp tier is exact for left-deep completions: every table
//! outside `S` enters exactly once as the *inner* operand of exactly one
//! join, and that join costs at least the cheapest method on
//! ([`MIN_PAGES`], that table's floor) at the most favourable memory —
//! with the one join directly above `S` strengthened to use `S`'s own
//! size floor as its outer operand.  Under the bushy shape a table can
//! enter via a composite whose clamped size floor is [`MIN_PAGES`], so
//! no per-table strengthening is admissible there and
//! [`PruneState::check`] never escalates past the cheap tier.
//!
//! # Admissibility
//!
//! Admissibility rests on two monotonicity facts the cost layer pins by
//! test ([`lec_cost::formulas`]): every join formula is nondecreasing in
//! its page inputs and nonincreasing in memory.  So for either costing —
//! an expectation over a point, a static distribution or per-phase
//! evolved ones ([`ExpectationBound`]), or Algorithm D's multi-parameter
//! expectation ([`MinSupportBound`]) — the cost assigned to one join is
//! at least `raw_join_cost(method, a_floor, b_floor, m_max)` where
//! `a_floor`/`b_floor` floor the input sizes and `m_max` is the largest
//! memory value any phase can see.  Summing floors over the
//! joins and accesses a completion must still perform (a root sort only
//! adds cost) yields the bound; strict-inequality pruning then preserves
//! exact cost ties, so pruned searches return byte-identical answers.
//!
//! The per-edge size floors are admissible the same way: an edge's
//! intermediate relation is at least `table_floor(u) · table_floor(v) ·
//! selectivity_floor(u, v)` clamped to [`MIN_PAGES`], under every memory
//! bucket and either operand order — the clamped realized size only ever
//! multiplies larger factors.  The `pruning_parity` suite pins this
//! property over randomized workloads.
//!
//! # Connectivity
//!
//! A *disconnected* subset can never produce a DP entry at all: every
//! split the engine builds excludes cross products, so by induction no
//! combination over a disconnected set survives.  The engine therefore
//! never visits one — each DP level is grown from the previous level's
//! connected sets through the model's neighbour masks
//! ([`lec_cost::CostModel::frontier`]) — and a bound is only ever asked
//! about a connected subset.  With pruning on, the disconnected share of
//! each level is *counted* into [`super::SearchStats::pruned_subsets`]
//! (`C(n, k)` minus the level's size) without being enumerated:
//! vacuously admissible, since there is nothing a disconnected subset
//! could have contributed.

use super::PlanShape;
use lec_cost::formulas::{raw_join_cost, MIN_PAGES};
use lec_cost::CostModel;
use lec_plan::{JoinMethod, TableSet};
use std::cell::Cell;

/// Escalation margin of the tiered check: the sharp tier runs only when
/// `cheap_floor * SHARP_MARGIN >= incumbent` (and an incumbent exists).
/// The sharp floor can exceed the cheap one by at most the summed
/// per-table attach floors, which in practice stays well inside one
/// order of magnitude; a factor-4 window keeps every profitable
/// escalation while small searches — whose floors sit far below their
/// incumbents — skip the sharp tier entirely.
pub const SHARP_MARGIN: f64 = 4.0;

/// A per-subset output-size floor under one policy family's size model.
///
/// Implementations must be *admissible*: no floor may exceed the
/// corresponding value the policy's coster actually feeds into any join
/// (for scalar-page policies, the entry's `pages` and the mean
/// selectivity; for Algorithm D, the minimum support of the entry's
/// size distribution and of the selectivity distribution).
pub trait LowerBound {
    /// Floor on the output pages of `set`'s result, at least
    /// [`MIN_PAGES`].
    fn pages_floor(&self, model: &CostModel<'_>, set: TableSet) -> f64;

    /// The most favourable (largest) memory value any execution phase
    /// can observe under the coster's memory model.
    fn max_memory(&self) -> f64;

    /// Floor on the pages table `i` contributes as a join operand (its
    /// cheapest access path's output size under the policy's size
    /// model).
    fn table_floor(&self, model: &CostModel<'_>, i: usize) -> f64;

    /// The most favourable (smallest) selectivity value the predicates
    /// joining tables `u` and `v` can take under the policy's size
    /// model.
    fn selectivity_floor(&self, model: &CostModel<'_>, u: usize, v: usize) -> f64;
}

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

/// The scalar-pages bound of every [`super::MemoryCoster`] search (LSC,
/// Algorithms C/C-dynamic, bushy): sizes are point products (those
/// policies carry scalar pages), and every per-memory-bucket evaluation
/// is floored by the formula at the distribution's largest support value
/// — costs are nonincreasing in memory, so `E_M[cost(M)] ≥ cost(max M)`,
/// with equality for a point.  `max_memory` is the largest value over
/// *all* phase distributions.
#[derive(Debug, Clone)]
pub struct ExpectationBound {
    /// Largest memory support value any phase can see.
    pub max_memory: f64,
}

impl LowerBound for ExpectationBound {
    fn pages_floor(&self, model: &CostModel<'_>, set: TableSet) -> f64 {
        point_size_product(model, set)
    }
    fn max_memory(&self) -> f64 {
        self.max_memory
    }
    fn table_floor(&self, model: &CostModel<'_>, i: usize) -> f64 {
        model.base_pages(i)
    }
    fn selectivity_floor(&self, model: &CostModel<'_>, u: usize, v: usize) -> f64 {
        model.join_selectivity_sets(TableSet::singleton(u), TableSet::singleton(v))
    }
}

/// Algorithm D's bound: sizes are floored by the minimum-support product
/// (the policy's per-node size *distributions* never dip below it) and
/// memory by its largest support value.
#[derive(Debug, Clone)]
pub struct MinSupportBound {
    /// Largest memory support value.
    pub max_memory: f64,
    /// Each table's minimum page support, computed once per search.
    table_mins: Vec<f64>,
    /// Each join predicate's minimum selectivity support, by predicate
    /// index, computed once per search.
    selectivity_mins: Vec<f64>,
}

impl MinSupportBound {
    /// The bound for one search under a memory whose largest support
    /// value is `max_memory`.
    pub fn new(model: &CostModel<'_>, max_memory: f64) -> Self {
        let query = model.query();
        MinSupportBound {
            max_memory,
            table_mins: (0..query.n_tables())
                .map(|i| model.base_pages_dist(i).min_value())
                .collect(),
            selectivity_mins: query
                .joins
                .iter()
                .map(|join| join.selectivity.min_value())
                .collect(),
        }
    }
}

impl LowerBound for MinSupportBound {
    /// The minimum-support size product of `set`: smallest support value
    /// of every member's page distribution times the smallest support
    /// value of every internal join's selectivity distribution, clamped
    /// to [`MIN_PAGES`].  A floor on the minimum support of any
    /// [`super::multi_param::DistEntry`] size distribution for `set`:
    /// Algorithm D clamps each product value at one page, and rebucketing
    /// (a weighted merge of adjacent buckets) can only raise a
    /// distribution's minimum.
    fn pages_floor(&self, model: &CostModel<'_>, set: TableSet) -> f64 {
        let mut pages = 1.0f64;
        for i in set.iter() {
            pages *= self.table_mins[i];
        }
        for p in model.predicates_within(set) {
            pages *= self.selectivity_mins[p];
        }
        pages.max(MIN_PAGES)
    }
    fn max_memory(&self) -> f64 {
        self.max_memory
    }
    fn table_floor(&self, _model: &CostModel<'_>, i: usize) -> f64 {
        self.table_mins[i]
    }
    fn selectivity_floor(&self, model: &CostModel<'_>, u: usize, v: usize) -> f64 {
        model
            .join_selectivity_dist_sets(TableSet::singleton(u), TableSet::singleton(v))
            .min_bucket()
            .0
    }
}

/// One join edge's precomputed admissible floors: the edge's
/// intermediate-relation size (from the operands' minimum cardinalities
/// and the selectivity distribution's most favourable bucket) and the
/// cheapest cost of the join that attaches each endpoint as the inner
/// operand of a left-deep completion step.
#[derive(Debug, Clone, Copy)]
pub struct EdgeBound {
    /// One endpoint table.
    pub u: usize,
    /// The other endpoint table.
    pub v: usize,
    /// Floor on the pages of `u ⋈ v`: `table_floor(u) · table_floor(v) ·
    /// selectivity_floor(u, v)`, clamped to [`MIN_PAGES`].  Never above
    /// the realized intermediate size under any memory bucket or operand
    /// order (the `pruning_parity` proptests pin this).
    pub size_floor: f64,
    /// Cheapest cost of a join with `u` as the inner operand: the best
    /// method on ([`MIN_PAGES`], `table_floor(u)`) at the most
    /// favourable memory.
    pub attach_u: f64,
    /// Cheapest cost of a join with `v` as the inner operand.
    pub attach_v: f64,
}

/// The result of one tiered prune check ([`PruneState::check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundCheck {
    /// The cheap floor alone exceeded the incumbent; sharp tier skipped.
    PrunedCheap,
    /// The cheap floor was far enough below the incumbent (outside
    /// [`SHARP_MARGIN`]) that the sharp tier was skipped; subset kept.
    KeptCheap,
    /// The sharp per-edge floor exceeded the incumbent.
    PrunedSharp,
    /// The sharp floor was evaluated but did not reach the incumbent.
    KeptSharp,
}

impl BoundCheck {
    /// Whether this check discards the subset.
    pub fn pruned(self) -> bool {
        matches!(self, BoundCheck::PrunedCheap | BoundCheck::PrunedSharp)
    }

    /// Whether the sharp tier was evaluated.
    pub fn sharp(self) -> bool {
        matches!(self, BoundCheck::PrunedSharp | BoundCheck::KeptSharp)
    }
}

/// Everything the engine and policies need to evaluate one prune check:
/// the size bound, the incumbent, the query-constant floors (cheapest
/// access per table, cheapest possible join) and the per-search
/// edge-bound table feeding the sharp tier.  One thread runs a search, so
/// the two values the driver updates between levels are plain `Cell`s.
#[derive(Debug)]
pub struct PruneState {
    bound: Box<dyn LowerBound>,
    /// Cheapest complete-plan cost found so far (`+∞` until one is).
    /// During a DP level it is only read; the driver tightens it between
    /// levels (and once after depth 1), so every subset of one level is
    /// checked against the same incumbent.
    incumbent: Cell<f64>,
    /// The plan shape the search runs under; the sharp tier's per-table
    /// strengthening is admissible only for left-deep completions.
    shape: PlanShape,
    /// Cheapest depth-1 entry cost per table (the policy's own access
    /// costs, harvested after depth 1 — no extra evaluations).
    access_floors: Vec<f64>,
    total_access_floor: f64,
    /// Cheapest conceivable join: the cheapest method on two
    /// [`MIN_PAGES`] inputs at the most favourable memory.
    join_floor_each: f64,
    /// Per-edge admissible floors, one entry per joined table pair.
    edges: Vec<EdgeBound>,
    /// Per-table operand size floors ([`LowerBound::table_floor`]).
    table_floors: Vec<f64>,
    /// Per-table minimum-spanning attach selection: the cheapest
    /// [`EdgeBound`] attach floor over the table's incident edges
    /// (`join_floor_each` for a table with no edges).
    attach_floors: Vec<f64>,
    total_attach_floor: f64,
    /// Set once the driver's first completed-but-non-improving greedy
    /// walk retires the per-level incumbent refresh (changes only
    /// between levels, like the incumbent itself).
    refresh_retired: Cell<bool>,
    n: usize,
}

impl std::fmt::Debug for dyn LowerBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LowerBound(max_memory={})", self.max_memory())
    }
}

impl PruneState {
    /// Assemble the prune state for one search from the policy's bound
    /// and the already-built depth-1 access floors, precomputing the
    /// per-search edge-bound table.
    pub fn new(
        model: &CostModel<'_>,
        shape: PlanShape,
        bound: Box<dyn LowerBound>,
        access_floors: Vec<f64>,
    ) -> Self {
        let m_max = bound.max_memory();
        let join_floor_each = JoinMethod::ALL
            .iter()
            .map(|&m| raw_join_cost(m, MIN_PAGES, MIN_PAGES, m_max))
            .fold(f64::INFINITY, f64::min);
        let total_access_floor = access_floors.iter().sum();
        let n = access_floors.len();
        let table_floors: Vec<f64> = (0..n).map(|i| bound.table_floor(model, i)).collect();
        let attach = |i: usize| {
            JoinMethod::ALL
                .iter()
                .map(|&m| raw_join_cost(m, MIN_PAGES, table_floors[i], m_max))
                .fold(f64::INFINITY, f64::min)
        };
        let mut edges: Vec<EdgeBound> = Vec::new();
        for u in 0..n {
            for v in model.neighbours(u).iter().filter(|&v| v > u) {
                let sel = bound.selectivity_floor(model, u, v);
                edges.push(EdgeBound {
                    u,
                    v,
                    size_floor: (table_floors[u] * table_floors[v] * sel).max(MIN_PAGES),
                    attach_u: attach(u),
                    attach_v: attach(v),
                });
            }
        }
        // Minimum-spanning attach selection: for each table, the cheapest
        // incident edge's attach floor for that endpoint.
        let mut attach_floors = vec![f64::INFINITY; n];
        for e in &edges {
            attach_floors[e.u] = attach_floors[e.u].min(e.attach_u);
            attach_floors[e.v] = attach_floors[e.v].min(e.attach_v);
        }
        for f in attach_floors.iter_mut() {
            if !f.is_finite() {
                *f = join_floor_each;
            }
        }
        let total_attach_floor = attach_floors.iter().sum();
        PruneState {
            bound,
            incumbent: Cell::new(f64::INFINITY),
            shape,
            access_floors,
            total_access_floor,
            join_floor_each,
            edges,
            table_floors,
            attach_floors,
            total_attach_floor,
            refresh_retired: Cell::new(false),
            n,
        }
    }

    /// Whether the driver has retired the per-level incumbent refresh
    /// (the first completed greedy walk that failed to lower the
    /// incumbent — later walks only re-walk longer prefixes of the same
    /// completions).
    pub fn refresh_retired(&self) -> bool {
        self.refresh_retired.get()
    }

    /// Retire the per-level incumbent refresh for the rest of the
    /// search.  Driver-only, between levels.
    pub fn retire_refresh(&self) {
        self.refresh_retired.set(true);
    }

    /// The active size bound.
    pub fn bound(&self) -> &dyn LowerBound {
        &*self.bound
    }

    /// The current incumbent completion cost (`+∞` until one is found).
    pub fn incumbent(&self) -> f64 {
        self.incumbent.get()
    }

    /// Lower the incumbent to `cost` if it improves on the current one.
    /// Driver-only, between levels.
    pub fn observe(&self, cost: f64) {
        if cost < self.incumbent.get() {
            self.incumbent.set(cost);
        }
    }

    /// The per-search edge-bound table.
    pub fn edge_bounds(&self) -> &[EdgeBound] {
        &self.edges
    }

    /// Floor on the cost of the single join directly above a subtree of
    /// `pages` output pages: the cheapest method and orientation against
    /// a [`MIN_PAGES`]-sized partner at the most favourable memory.
    fn first_join_floor(&self, pages: f64) -> f64 {
        if pages == MIN_PAGES {
            // The constant's own operand pair, both orientations.
            return self.join_floor_each;
        }
        let m_max = self.bound.max_memory();
        JoinMethod::ALL
            .iter()
            .map(|&m| {
                raw_join_cost(m, pages, MIN_PAGES, m_max)
                    .min(raw_join_cost(m, MIN_PAGES, pages, m_max))
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Admissible floor on everything a complete plan must still pay
    /// *outside* a subtree over `set` with output-size floor `pages`:
    /// accessing every remaining table, the join directly above the
    /// subtree (at least [`Self::first_join_floor`]), and the cheapest
    /// conceivable cost for each of the other remaining joins.  A root
    /// sort only adds cost, so it floors at zero.
    pub fn completion_floor(&self, set: TableSet, pages: f64) -> f64 {
        let k = set.len();
        if k >= self.n {
            return 0.0;
        }
        let outside_access: f64 =
            self.total_access_floor - set.iter().map(|i| self.access_floors[i]).sum::<f64>();
        // A complete plan has `n - 1` joins; the subtree contains
        // `k - 1`, leaving `n - k`: one directly above the subtree, the
        // rest floored by the cheapest conceivable join.
        outside_access
            + self.first_join_floor(pages).max(self.join_floor_each)
            + (self.n - k - 1) as f64 * self.join_floor_each
    }

    /// Admissible floor on the total cost of any complete plan containing
    /// a subtree over `set`, given `set`'s output-size floor `pages`:
    /// building the subtree (every member's access plus `|set| - 1`
    /// joins) plus [`Self::completion_floor`].  This is the cheap tier.
    pub fn subset_floor(&self, set: TableSet, pages: f64) -> f64 {
        let k = set.len();
        let inside_access: f64 = set.iter().map(|i| self.access_floors[i]).sum();
        inside_access
            + (k.saturating_sub(1)) as f64 * self.join_floor_each
            + self.completion_floor(set, pages)
    }

    /// The sharp tier: the cheap floor with the universal per-join
    /// constant replaced, for every table a left-deep completion must
    /// still join, by that table's minimum-spanning attach floor from
    /// the edge-bound table — and the attach of the one table joined
    /// directly above `S` strengthened to use `S`'s own size floor as
    /// its outer operand.
    ///
    /// Exactness for left-deep: every table outside `S` enters exactly
    /// once as the inner operand of exactly one completion join, whose
    /// cost is at least the cheapest method on ([`MIN_PAGES`], the
    /// table's floor); the first such join's outer operand is `S`'s
    /// result, whose pages are at least `pages`.  Under the bushy shape
    /// this strengthening is *not* admissible (a table can enter via a
    /// composite clamped to [`MIN_PAGES`]), so the sharp floor falls
    /// back to the cheap one.  `cheap` is `subset_floor(set, pages)`,
    /// which the caller has in hand from the tier below.
    pub fn sharp_subset_floor(
        &self,
        model: &CostModel<'_>,
        set: TableSet,
        pages: f64,
        cheap: f64,
    ) -> f64 {
        let k = set.len();
        if self.shape != PlanShape::LeftDeep || k >= self.n {
            return cheap;
        }
        let mut inside_access = 0.0;
        let mut inside_attach = 0.0;
        for i in set.iter() {
            inside_access += self.access_floors[i];
            inside_attach += self.attach_floors[i];
        }
        let outside_access = self.total_access_floor - inside_access;
        let outside_attach = self.total_attach_floor - inside_attach;
        // The first completion join's inner is some table adjacent to
        // `S`; strengthen its attach with `S`'s size floor as the outer
        // operand, minimized over the candidates.  A one-page `S` is the
        // outer operand every attach floor already assumes: nothing to add.
        let mut first_delta = f64::INFINITY;
        if pages > MIN_PAGES {
            let m_max = self.bound.max_memory();
            for t in model.frontier(set).iter() {
                let with_pages = JoinMethod::ALL
                    .iter()
                    .map(|&m| raw_join_cost(m, pages, self.table_floors[t], m_max))
                    .fold(f64::INFINITY, f64::min);
                first_delta = first_delta.min((with_pages - self.attach_floors[t]).max(0.0));
            }
        }
        if !first_delta.is_finite() {
            first_delta = 0.0;
        }
        let sharp = inside_access
            + (k.saturating_sub(1)) as f64 * self.join_floor_each
            + outside_access
            + outside_attach
            + first_delta;
        sharp.max(cheap)
    }

    /// Whether a subset with floor `pages` should be discarded before
    /// combining: its floor strictly exceeds the incumbent.  Strict
    /// inequality preserves exact cost ties, which is what keeps pruned
    /// answers byte-identical to unpruned ones.  Cheap tier only; the
    /// engine's tiered entry point is [`Self::check`].
    pub fn prunes(&self, set: TableSet, pages: f64) -> bool {
        self.subset_floor(set, pages) > self.incumbent()
    }

    /// The tiered prune check: the cheap floor always, the sharp
    /// per-edge floor only when the cheap one lands within
    /// [`SHARP_MARGIN`] of the incumbent.  The decision depends only on
    /// (`set`, `pages`, the level's incumbent, the shape).
    pub fn check(&self, model: &CostModel<'_>, set: TableSet, pages: f64) -> BoundCheck {
        let incumbent = self.incumbent();
        let cheap = self.subset_floor(set, pages);
        if cheap > incumbent {
            return BoundCheck::PrunedCheap;
        }
        if self.shape != PlanShape::LeftDeep
            || !incumbent.is_finite()
            || cheap * SHARP_MARGIN < incumbent
        {
            return BoundCheck::KeptCheap;
        }
        if self.sharp_subset_floor(model, set, pages, cheap) > incumbent {
            BoundCheck::PrunedSharp
        } else {
            BoundCheck::KeptSharp
        }
    }
}
