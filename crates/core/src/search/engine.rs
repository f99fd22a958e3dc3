//! The one DP driver.  Everything that enumerates subsets lives here —
//! no optimizer module outside `search/` walks the dag itself.
//!
//! A search is a plain function call: [`run_search_with`] walks the
//! subset dag level by level on the thread that called it.  A level holds
//! the *connected* subsets of its size only ([`next_level`]): the walk
//! costs what the join graph has, not the `2^n` lattice around it.
//!
//! Every split of a subset ranks *pending* joins, which borrow their
//! operands from the table, into one buffer ([`combine_subset`]); the
//! policy builds the survivors once, after the last split.  A level only
//! reads the levels below it, so its subsets share that buffer and its
//! nodes enter the table when the level is done ([`fill_table`]).

use super::policy::{CandidatePolicy, JoinContext, Joined, RootContext, SearchEntry};
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

/// The DP table: each populated subset's retained entries.
type DpTable<E> = HashMap<Subset, Vec<E>, BuildHasherDefault<Prehashed>>;

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
/// candidates plus the run's statistics.
#[derive(Debug, Clone)]
pub struct SearchRun<E> {
    /// Finalized root candidates; non-empty.
    pub roots: Vec<E>,
    /// Statistics for this run.
    pub stats: SearchStats,
}

impl<E: SearchEntry + Clone> SearchRun<E> {
    /// The cheapest finalized candidate.
    pub fn best(&self) -> &E {
        self.roots
            .iter()
            .min_by(|a, b| a.cost().total_cmp(&b.cost()))
            .expect("run_search_with guarantees a non-empty root list")
    }

    /// Consume the run, returning the cheapest candidate and the stats.
    pub fn into_best(self) -> (E, SearchStats) {
        let best = self.best().clone();
        (best, self.stats)
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

/// Read access to the DP table as filled so far, for
/// [`CandidatePolicy::after_level`]: each populated subset's retained
/// entries.
pub struct DpView<'t, E>(&'t DpTable<E>);

impl<'t, E> DpView<'t, E> {
    /// The entries retained for `set`, if it is populated.
    pub fn get(&self, set: TableSet) -> Option<&'t [E]> {
        self.0.get(&Subset(set)).map(Vec::as_slice)
    }
}

/// Combine one connected subset over its operand `splits` — every
/// split's entry pairs under every method into the level's buffer of
/// pending joins, whose survivors are then built.  `pending` is scratch
/// shared by a level's subsets and comes back empty.  `stats.nodes` is
/// counted here for non-empty results.
fn combine_subset<'t, P: CandidatePolicy>(
    model: &CostModel<'_>,
    policy: &mut P,
    table: &'t DpTable<P::Entry>,
    set: TableSet,
    splits: &[(TableSet, TableSet)],
    pending: &mut Vec<Joined<'t, P::Size>>,
    stats: &mut SearchStats,
) -> Vec<P::Entry> {
    for &(left, right) in splits {
        let (Some(outer), Some(inner)) = (table.get(&Subset(left)), table.get(&Subset(right)))
        else {
            continue;
        };
        let ctx = JoinContext {
            left,
            right,
            result: set,
            phase: set.len() - 2,
        };
        policy.combine(model, &ctx, outer, inner, pending, stats);
    }
    // The survivors leave in an exactly sized vector; the buffer keeps its
    // capacity for the level's next subset.
    #[allow(clippy::drain_collect)]
    let entries = policy.build(pending.drain(..).collect());
    if !entries.is_empty() {
        stats.nodes += 1;
    }
    entries
}

/// Level 1 of the walk: every table on its own.
fn singletons(n: usize) -> Vec<TableSet> {
    (0..n).map(TableSet::singleton).collect()
}

/// DP depth 1: every table's access-path alternatives, keyed by its
/// singleton set.
fn access_level<P: CandidatePolicy>(
    model: &CostModel<'_>,
    policy: &mut P,
    stats: &mut SearchStats,
) -> DpTable<P::Entry> {
    let mut table = DpTable::default();
    for idx in 0..model.query().n_tables() {
        let mut entries = policy.access_entries(model, idx, stats);
        // A node lives as long as the table: it keeps no spare capacity.
        entries.shrink_to_fit();
        if !entries.is_empty() {
            stats.nodes += 1;
            table.insert(Subset(TableSet::singleton(idx)), entries);
        }
    }
    table
}

/// Fill the DP table of an `n ≥ 1`-table query level by level.  A split's
/// halves are proper subsets, so a level reads only the levels below it:
/// its subsets share one pending buffer and one splits buffer, and its
/// nodes enter the table once the whole level is combined.  The policy
/// sees every level below the root once it is filled
/// ([`CandidatePolicy::after_level`]).
fn fill_table<P: CandidatePolicy>(
    model: &CostModel<'_>,
    shape: PlanShape,
    policy: &mut P,
    config: &SearchConfig,
    stats: &mut SearchStats,
) -> DpTable<P::Entry> {
    let n = model.query().n_tables();
    let mut table = access_level(model, policy, stats);
    let tel = config.telemetry.as_deref();
    let mut level = singletons(n);
    let mut splits = Vec::new();
    let mut nodes = Vec::new();
    // Depths 2..n.
    for _ in 2..=n {
        policy.after_level(model, DpView(&table), &level, stats);
        let level_start = tel.map(|_| Instant::now());
        level = next_level(model, &level);
        let mut pending = Vec::new();
        for &set in &level {
            shape.splits(model, set, &mut splits);
            let entries = combine_subset(model, policy, &table, set, &splits, &mut pending, stats);
            if !entries.is_empty() {
                nodes.push((Subset(set), entries));
            }
        }
        table.extend(nodes.drain(..));
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
    let mut table = fill_table(model, shape, policy, config, &mut stats);
    let root = table
        .remove(&Subset(TableSet::full(n)))
        .ok_or(OptError::NoPlanFound)?;
    let ctx = RootContext { sort_phase: n - 1 };
    let roots = policy.finalize(model, &ctx, root, &mut stats);
    if roots.is_empty() {
        return Err(OptError::NoPlanFound);
    }
    stats.evals = model.evals();
    stats.elapsed = start.elapsed();
    Ok(SearchRun { roots, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{KeepBestPolicy, MemoryCoster};
    use lec_plan::PlanNode;

    /// The DP table is a dag of plan nodes: a level-(k+1) entry *points
    /// at* the level-k entry it extends, it does not copy it.
    #[test]
    fn an_entry_shares_the_plan_node_of_the_entry_it_extends() {
        let (cat, q) = crate::fixtures::three_chain();
        let model = CostModel::new(&cat, &q);
        let mut policy = KeepBestPolicy::new(MemoryCoster::point(500.0));
        let mut stats = SearchStats::default();
        let mut table = access_level(&model, &mut policy, &mut stats);
        let mut splits = Vec::new();
        for bits in [0b011u64, 0b110, 0b111] {
            let set = TableSet::from_bits(bits);
            PlanShape::LeftDeep.splits(&model, set, &mut splits);
            let entries = combine_subset(
                &model,
                &mut policy,
                &table,
                set,
                &splits,
                &mut Vec::new(),
                &mut stats,
            );
            assert!(!entries.is_empty());
            for e in &entries {
                let PlanNode::Join { outer, inner, .. } = &*e.plan else {
                    panic!("a composite entry is a join");
                };
                for child in [outer, inner] {
                    assert!(
                        table[&Subset(child.tables())]
                            .iter()
                            .any(|below| Arc::ptr_eq(&below.plan, child)),
                        "{} must point at a table entry's node",
                        e.plan.compact()
                    );
                }
            }
            table.insert(Subset(set), entries);
        }
    }

    /// Fill `policy`'s table for `query` under `shape` and require every
    /// stored node to hold exactly its entries: a node lives as long as
    /// the table, so spare capacity is resident memory for nothing.
    fn assert_nodes_exactly_sized<P: CandidatePolicy>(
        (cat, q): &(lec_catalog::Catalog, lec_plan::Query),
        shape: PlanShape,
        mut policy: P,
        what: &str,
    ) {
        let model = CostModel::new(cat, q);
        let mut stats = SearchStats::default();
        let table = fill_table(
            &model,
            shape,
            &mut policy,
            &SearchConfig::default(),
            &mut stats,
        );
        assert_eq!(table.len(), stats.nodes, "{what}: every node is stored");
        for (Subset(set), node) in &table {
            assert_eq!(node.capacity(), node.len(), "{what}: node {set}");
        }
    }

    #[test]
    fn every_stored_node_is_exactly_sized() {
        use crate::search::{AlgDConfig, MultiParamPolicy, TopCPolicy};
        let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();
        let runs = [
            (crate::fixtures::pruning_star(9), PlanShape::LeftDeep),
            (crate::fixtures::pruning_clique(6), PlanShape::Bushy),
        ];
        for (query, shape) in &runs {
            let what = |policy: &str| format!("{policy}, {shape:?}");
            let keep_best = KeepBestPolicy::new(MemoryCoster::fixed(&memory));
            assert_nodes_exactly_sized(query, *shape, keep_best, &what("keep-best"));
            let top_c = TopCPolicy::new(memory.mean(), 3);
            assert_nodes_exactly_sized(query, *shape, top_c, &what("top-c"));
            let multi_param = MultiParamPolicy::new(&memory, AlgDConfig::default());
            assert_nodes_exactly_sized(query, *shape, multi_param, &what("multi-param"));
        }
    }
}
