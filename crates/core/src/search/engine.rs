//! The one DP driver.  Everything that enumerates subsets lives here —
//! no optimizer module outside `search/` walks the dag itself.
//!
//! A search is a plain function call: [`run_search_with`] walks the
//! subset dag level by level on the thread that called it.  A level holds
//! the *connected* subsets of its size only ([`next_level`]): the walk
//! costs what the join graph has, not the `2^n` lattice around it.
//!
//! A level's entries live in one exactly sized vector ([`fill_table`]),
//! their plans as steps of the search's [`PlanArena`]; plan trees are
//! built only for the roots a caller takes ([`SearchRun::plans`]).

use super::arena::PlanArena;
use super::policy::{CandidatePolicy, JoinContext, RootContext, SearchEntry};
use super::SearchStats;
use crate::error::OptError;
use lec_cost::{CostModel, Prehashed};
use lec_plan::TableSet;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// A DP-table key: a subset, hashed as one [`lec_cost::avalanche`] of
/// its bits — every probe of a combine pays a few multiplies, not SipHash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Subset(TableSet);

impl Hash for Subset {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(lec_cost::avalanche(self.0.bits()));
    }
}

/// The DP table: each level's entries in one vector (`levels[k - 1]` for
/// the `k`-table subsets) and each populated subset's range in its level's.
pub struct DpTable<E> {
    ranges: HashMap<Subset, [u32; 2], BuildHasherDefault<Prehashed>>,
    levels: Vec<Vec<E>>,
}

impl<E> DpTable<E> {
    /// The entries retained for `set`, if it is populated.
    pub fn get(&self, set: TableSet) -> Option<&[E]> {
        let &[start, end] = self.ranges.get(&Subset(set))?;
        Some(&self.levels[set.len() - 1][start as usize..end as usize])
    }

    /// Store the level in hand exactly sized; `level` keeps its capacity.
    fn push_level(&mut self, level: &mut Vec<E>) {
        #[allow(clippy::drain_collect)]
        self.levels.push(level.drain(..).collect());
    }

    /// Record `set`'s entries, `level[start..]`, if it has any.
    fn add(&mut self, set: TableSet, level: &[E], start: usize, stats: &mut SearchStats) {
        if level.len() > start {
            stats.nodes += 1;
            let range = [start, level.len()].map(|i| u32::try_from(i).expect("< 2^32 entries"));
            self.ranges.insert(Subset(set), range);
        }
    }
}

/// How a subset is split into (outer, inner) operand pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanShape {
    /// System R left-deep trees (§2.2): `S∖{j}` joined with base table
    /// `{j}`.
    LeftDeep,
    /// All binary trees without cross products (the §4 extension): every
    /// connected ordered 2-partition of `S`.
    Bushy,
}

impl PlanShape {
    /// Fill `out` with the ordered operand splits of `set`, cross products
    /// excluded.  Each half is a proper subset of `set`.
    fn splits(self, model: &CostModel<'_>, set: TableSet, out: &mut Vec<(TableSet, TableSet)>) {
        out.clear();
        match self {
            PlanShape::LeftDeep => out.extend(set.iter().filter_map(|j| {
                let left = set.without(j);
                (!model.neighbours(j).intersect(left).is_empty())
                    .then_some((left, TableSet::singleton(j)))
            })),
            PlanShape::Bushy => {
                let bits = set.bits();
                // Walk all non-empty proper subsets via the standard trick.
                let mut sub = (bits - 1) & bits;
                while sub != 0 {
                    let left = TableSet::from_bits(sub);
                    let right = TableSet::from_bits(bits & !sub);
                    if !model.frontier(left).intersect(right).is_empty() {
                        out.push((left, right));
                    }
                    sub = (sub - 1) & bits;
                }
            }
        }
    }
}

/// The connected subsets one table larger than those of `level`, in
/// increasing bit order: each set grown by each table on its frontier,
/// sorted and deduplicated.  Every connected set of `k + 1` tables has a
/// connected `k`-subset (drop a leaf of a spanning tree), so growing *all*
/// connected `k`-sets reaches all of them — in the order a walk of every
/// `k + 1`-subset by increasing bits would meet them, which is the order
/// the tie-breaks and the oracle's incumbent refresh were recorded against.
pub fn next_level(model: &CostModel<'_>, level: &[TableSet]) -> Vec<TableSet> {
    let mut next: Vec<TableSet> = level
        .iter()
        .flat_map(|&set| model.frontier(set).iter().map(move |t| set.with(t)))
        .collect();
    next.sort_unstable();
    next.dedup();
    next
}

/// The engine's raw product: the finalized (order-enforced) root
/// candidates, the run's statistics and its plan steps.
#[derive(Debug, Clone)]
pub struct SearchRun<E> {
    /// Finalized root candidates; non-empty.
    pub roots: Vec<E>,
    /// Statistics for this run.
    pub stats: SearchStats,
    /// Every plan step the run built; [`PlanArena::node`] builds a tree.
    pub plans: PlanArena,
}

impl<E: SearchEntry> SearchRun<E> {
    /// The cheapest finalized candidate.
    pub fn best(&self) -> &E {
        self.roots
            .iter()
            .min_by(|a, b| a.cost().total_cmp(&b.cost()))
            .expect("run_search_with guarantees a non-empty root list")
    }
}

/// Number of complete plans of `shape` the keep-all policy would
/// materialize for this query: the same subset recursion as the search
/// itself, counting instead of building.  Lets callers reject
/// plan spaces too large to hold in memory before paying for them.
pub fn plan_space_size(model: &CostModel<'_>, shape: PlanShape) -> u128 {
    let n = model.query().n_tables();
    if n == 0 {
        return 0;
    }
    let n_methods = lec_plan::JoinMethod::ALL.len() as u128;
    let mut counts: HashMap<TableSet, u128> = HashMap::new();
    let mut level = singletons(n);
    for &set in &level {
        counts.insert(set, model.access_paths(set.sole_member()).len() as u128);
    }
    let mut splits = Vec::new();
    for _ in 2..=n {
        level = next_level(model, &level);
        for &set in &level {
            let mut total: u128 = 0;
            shape.splits(model, set, &mut splits);
            for &(left, right) in &splits {
                if let (Some(l), Some(r)) = (counts.get(&left), counts.get(&right)) {
                    total = total.saturating_add(l.saturating_mul(*r).saturating_mul(n_methods));
                }
            }
            if total > 0 {
                counts.insert(set, total);
            }
        }
    }
    counts.get(&TableSet::full(n)).copied().unwrap_or(0)
}

/// What a search does beyond the plain DP ([`run_search_with`]).
#[derive(Debug, Clone, Default)]
pub struct SearchConfig {
    /// Optional engine-internal telemetry
    /// ([`lec_telemetry::EngineTelemetry`]): when installed, the driver
    /// times each DP level's combine pass into its histogram.  Purely
    /// observational — results and all work counters are byte-identical
    /// with or without it.
    pub telemetry: Option<Arc<lec_telemetry::EngineTelemetry>>,
}

impl SearchConfig {
    /// This configuration with engine-internal telemetry installed (see
    /// [`SearchConfig::telemetry`]).
    pub fn with_telemetry(mut self, telemetry: Arc<lec_telemetry::EngineTelemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

/// Level 1 of the walk: every table on its own.
fn singletons(n: usize) -> Vec<TableSet> {
    (0..n).map(TableSet::singleton).collect()
}

/// Fill the DP table of an `n ≥ 1`-table query level by level: a subset's
/// splits rank *pending* joins into one buffer, built after its last split,
/// and a level (reading only those below it) fills one buffer, stored
/// exactly sized when done.  The policy sees each level below the root
/// ([`CandidatePolicy::after_level`]).
fn fill_table<P: CandidatePolicy>(
    model: &CostModel<'_>,
    shape: PlanShape,
    policy: &mut P,
    plans: &mut PlanArena,
    config: &SearchConfig,
    stats: &mut SearchStats,
) -> DpTable<P::Entry> {
    let n = model.query().n_tables();
    let mut table = DpTable {
        ranges: HashMap::default(),
        levels: Vec::with_capacity(n),
    };
    let (mut entries, mut splits, mut pending) = (Vec::new(), Vec::new(), Vec::new());
    for idx in 0..n {
        let start = entries.len();
        entries.extend(policy.access_entries(model, plans, idx, stats));
        table.add(TableSet::singleton(idx), &entries, start, stats);
    }
    table.push_level(&mut entries);
    let tel = config.telemetry.as_deref();
    let mut level = singletons(n);
    // Depths 2..n.
    for _ in 2..=n {
        policy.after_level(model, plans, &table, &level, stats);
        let level_start = tel.map(|_| Instant::now());
        level = next_level(model, &level);
        for &set in &level {
            shape.splits(model, set, &mut splits);
            for &(left, right) in &splits {
                let (Some(outer), Some(inner)) = (table.get(left), table.get(right)) else {
                    continue;
                };
                let ctx = JoinContext {
                    left,
                    right,
                    result: set,
                    phase: set.len() - 2,
                };
                policy.combine(model, plans, &ctx, outer, inner, &mut pending, stats);
            }
            let start = entries.len();
            policy.build(plans, &mut pending, &mut entries);
            table.add(set, &entries, start, stats);
        }
        table.push_level(&mut entries);
        if let (Some(t), Some(t0)) = (tel, level_start) {
            t.level_combine_ns.record_duration(t0.elapsed());
        }
    }
    table
}

/// Run the DP under `shape` and `policy` and return the finalized root
/// candidates, cheapest-available via [`SearchRun::best`].  The search
/// runs to completion on the calling thread; a panic inside a policy or
/// coster unwinds through it to the caller.
pub fn run_search_with<P: CandidatePolicy>(
    model: &CostModel<'_>,
    shape: PlanShape,
    policy: &mut P,
    config: &SearchConfig,
) -> Result<SearchRun<P::Entry>, OptError> {
    let n = model.query().n_tables();
    if n == 0 {
        return Err(OptError::EmptyQuery);
    }
    let start = Instant::now();
    model.reset_evals();
    let mut stats = SearchStats::default();
    let mut plans = PlanArena::default();
    let mut table = fill_table(model, shape, policy, &mut plans, config, &mut stats);
    // Level `n` holds the full set only.
    let root = table.levels.pop().unwrap_or_default();
    if root.is_empty() {
        return Err(OptError::NoPlanFound);
    }
    let ctx = RootContext { sort_phase: n - 1 };
    let roots = policy.finalize(model, &mut plans, &ctx, root, &mut stats);
    if roots.is_empty() {
        return Err(OptError::NoPlanFound);
    }
    stats.evals = model.evals();
    stats.elapsed = start.elapsed();
    Ok(SearchRun {
        roots,
        stats,
        plans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::arena::Step;
    use crate::search::{AlgDConfig, KeepBestPolicy, MemoryCoster, MultiParamPolicy, TopCPolicy};

    /// Fill `policy`'s table for `query` under `shape`.
    fn filled<P: CandidatePolicy>(
        model: &CostModel<'_>,
        shape: PlanShape,
        policy: &mut P,
    ) -> (DpTable<P::Entry>, PlanArena, SearchStats) {
        let (mut plans, mut stats) = (PlanArena::default(), SearchStats::default());
        let config = SearchConfig::default();
        let table = fill_table(model, shape, policy, &mut plans, &config, &mut stats);
        (table, plans, stats)
    }

    /// The DP table is a dag of steps: a composite entry's join step
    /// names, as its operands, the steps of entries stored for its split's
    /// two halves — it points at them, it does not copy them.
    #[test]
    fn a_join_step_names_entries_stored_for_its_halves() {
        let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();
        let runs = [
            (crate::fixtures::three_chain(), PlanShape::LeftDeep),
            (crate::fixtures::pruning_clique(5), PlanShape::Bushy),
        ];
        for ((cat, q), shape) in &runs {
            let model = CostModel::new(cat, q);
            let mut policy = KeepBestPolicy::new(MemoryCoster::fixed(&memory));
            let (table, plans, _) = filled(&model, *shape, &mut policy);
            let composites = table.ranges.keys().filter(|Subset(set)| set.len() > 1);
            for &Subset(set) in composites {
                for e in table.get(set).unwrap() {
                    let Step::Join(_, outer, inner) = plans.step(e.plan) else {
                        panic!("a composite entry is a join step");
                    };
                    let halves = [outer, inner].map(|id| (id, plans.node(id).tables()));
                    assert_eq!(halves[0].1.union(halves[1].1), set, "{shape:?}");
                    for (id, half) in halves {
                        let stored = table.get(half).expect("a stored half");
                        assert!(
                            stored.iter().any(|below| below.plan == id),
                            "{shape:?}: {} must point at an entry of {half}",
                            plans.node(e.plan).compact()
                        );
                    }
                }
            }
        }
    }

    /// Fill `policy`'s table and require every level's entry vector to
    /// hold exactly its entries: a level lives as long as the table, so
    /// spare capacity is resident memory for nothing.
    fn assert_levels_exactly_sized<P: CandidatePolicy>(
        (cat, q): &(lec_catalog::Catalog, lec_plan::Query),
        shape: PlanShape,
        mut policy: P,
        what: &str,
    ) {
        let model = CostModel::new(cat, q);
        let (table, _, stats) = filled(&model, shape, &mut policy);
        assert_eq!(
            table.ranges.len(),
            stats.nodes,
            "{what}: every node is stored"
        );
        assert_eq!(
            table.levels.len(),
            q.n_tables(),
            "{what}: one vector per level"
        );
        for (k, level) in table.levels.iter().enumerate() {
            assert_eq!(level.capacity(), level.len(), "{what}: level {}", k + 1);
        }
    }

    #[test]
    fn every_level_entry_vector_is_exactly_sized() {
        let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();
        let runs = [
            (crate::fixtures::pruning_star(9), PlanShape::LeftDeep),
            (crate::fixtures::pruning_clique(6), PlanShape::Bushy),
        ];
        for (query, shape) in &runs {
            let what = |policy: &str| format!("{policy}, {shape:?}");
            let keep_best = KeepBestPolicy::new(MemoryCoster::fixed(&memory));
            assert_levels_exactly_sized(query, *shape, keep_best, &what("keep-best"));
            let top_c = TopCPolicy::new(memory.mean(), 3);
            assert_levels_exactly_sized(query, *shape, top_c, &what("top-c"));
            let multi_param = MultiParamPolicy::new(&memory, AlgDConfig::default());
            assert_levels_exactly_sized(query, *shape, multi_param, &what("multi-param"));
        }
    }
}
