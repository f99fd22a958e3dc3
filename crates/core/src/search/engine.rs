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

use super::bound::{point_size_product, PruneState};
use super::policy::{CandidatePolicy, JoinContext, Joined, RootContext, SearchEntry};
use super::SearchStats;
use crate::error::OptError;
use lec_cost::{CostModel, Prehashed};
use lec_plan::TableSet;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::rc::Rc;
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
/// the tie-breaks and the incumbent refresh were recorded against.
pub fn next_level(model: &CostModel<'_>, level: &[TableSet]) -> Vec<TableSet> {
    let mut next: Vec<TableSet> = level
        .iter()
        .flat_map(|&set| model.frontier(set).iter().map(move |t| set.with(t)))
        .collect();
    next.sort_unstable();
    next.dedup();
    next
}

/// `C(n, k) − connected`: how many `k`-subsets of `n` tables a level of
/// `connected` sets leaves out.  The running product needs `u128`
/// (`C(64, 32) · 33` is past `u64`); the result saturates into the `u64`
/// counter.
fn disconnected_count(n: usize, k: usize, connected: usize) -> u64 {
    let mut choose: u128 = 1;
    for i in 0..k.min(n - k) {
        choose = choose * (n - i) as u128 / (i + 1) as u128;
    }
    u64::try_from(choose - connected as u128).unwrap_or(u64::MAX)
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
    /// Branch-and-bound pruning (see the module docs of
    /// [`super::bound`]): maintain an incumbent complete-plan cost and
    /// discard a connected subset before its combine/cost loop when an
    /// admissible lower bound on any completion through it strictly
    /// exceeds the incumbent.  Takes effect only when the active policy
    /// opts in with an admissible bound
    /// ([`CandidatePolicy::pruning_bound`]) — keep-best, multi-param and
    /// keep-all do; top-c bypasses.  Pruned searches return answers
    /// byte-identical (plans, cost bits) to unpruned ones; only the four
    /// pruning counters ([`SearchStats::pruned_subsets`] and its kin) and
    /// `candidates` (generated, built or not), `evals` and `nodes`
    /// differ.
    pub pruning: bool,
    /// Optional engine-internal telemetry
    /// ([`lec_telemetry::EngineTelemetry`]): when installed, the driver
    /// times each DP level's combine pass and every bound evaluation into
    /// its histograms.  Purely observational — results and all work
    /// counters are byte-identical with or without it.
    pub telemetry: Option<Arc<lec_telemetry::EngineTelemetry>>,
}

impl SearchConfig {
    /// This configuration with branch-and-bound pruning switched on or
    /// off (see [`SearchConfig::pruning`]).
    pub fn with_pruning(mut self, pruning: bool) -> Self {
        self.pruning = pruning;
        self
    }

    /// This configuration with engine-internal telemetry installed (see
    /// [`SearchConfig::telemetry`]).
    pub fn with_telemetry(mut self, telemetry: Arc<lec_telemetry::EngineTelemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

/// Run `f`, timing it into `h` when a histogram is installed.  The
/// `None` path is a single branch — engine telemetry off costs nothing
/// measurable per call site.
#[inline]
fn timed<T>(h: Option<&lec_telemetry::Histogram>, f: impl FnOnce() -> T) -> T {
    match h {
        Some(h) => {
            let t0 = Instant::now();
            let v = f();
            h.record_duration(t0.elapsed());
            v
        }
        None => f(),
    }
}

/// Combine one connected subset — every split's entry pairs under every
/// method into the level's buffer of pending joins, whose survivors are
/// then built — after the branch-and-bound prune check when `prune` is
/// set.  The check runs *before* the combine (that is the whole point: a
/// pruned subset skips its entire combine/cost loop) and costs one
/// [`SearchStats::bound_evals`] size-floor computation.  The full set is
/// never checked — the root must always combine.  `splits` and `pending`
/// are scratch shared by a level's subsets: both come back empty.
/// `stats.nodes` is counted here for non-empty results.
#[allow(clippy::too_many_arguments)]
fn combine_subset<'t, P: CandidatePolicy>(
    model: &CostModel<'_>,
    shape: PlanShape,
    policy: &mut P,
    table: &'t DpTable<P::Entry>,
    set: TableSet,
    prune: Option<&PruneState>,
    tel: Option<&lec_telemetry::EngineTelemetry>,
    splits: &mut Vec<(TableSet, TableSet)>,
    pending: &mut Vec<Joined<'t, P::Size>>,
    stats: &mut SearchStats,
) -> Vec<P::Entry> {
    if let Some(ps) = prune.filter(|_| set.len() < model.query().n_tables()) {
        stats.bound_evals += 1;
        let pages = timed(tel.map(|t| &t.bound_eval_ns), || {
            ps.bound().pages_floor(model, set)
        });
        if tally_check(ps.check(model, set, pages), stats) {
            return Vec::new();
        }
    }
    shape.splits(model, set, splits);
    for &(left, right) in splits.iter() {
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

/// Fold one tiered prune-check result ([`PruneState::check`]) into the
/// stats and report whether the subset was discarded.  Every checked
/// subset ticks exactly one of `sharp_bound_evals` / `cheap_bound_skips`.
fn tally_check(check: super::bound::BoundCheck, stats: &mut SearchStats) -> bool {
    if check.sharp() {
        stats.sharp_bound_evals += 1;
    } else {
        stats.cheap_bound_skips += 1;
    }
    if check.pruned() {
        stats.pruned_subsets += 1;
        return true;
    }
    false
}

/// One level's [`lec_telemetry::LevelPrune`] record: the delta of the
/// pruning counters between the running-stats snapshots taken before and
/// after the level's combine pass.
fn level_prune_delta(
    k: usize,
    before: &SearchStats,
    after: &SearchStats,
) -> lec_telemetry::LevelPrune {
    lec_telemetry::LevelPrune {
        level: k as u32,
        pruned_subsets: after.pruned_subsets - before.pruned_subsets,
        sharp_bound_evals: after.sharp_bound_evals - before.sharp_bound_evals,
        cheap_bound_skips: after.cheap_bound_skips - before.cheap_bound_skips,
    }
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

/// `min_by` as a strict `<` scan: the first of equal or unordered values.
fn first_min<T>(a: &(f64, T), b: &(f64, T)) -> Ordering {
    a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal)
}

/// Index of the minimal-cost entry in `entries` (first among exact
/// ties, matching [`SearchRun::best`]'s pick).
fn cheapest_index<E: SearchEntry>(entries: &[E]) -> Option<usize> {
    let costs = entries.iter().map(SearchEntry::cost).zip(0..);
    costs.min_by(first_min).map(|(_, i)| i)
}

/// Assemble — and install into the policy — the search's prune state,
/// when `config` asks for pruning and the policy supplies an admissible
/// bound ([`CandidatePolicy::pruning_bound`]).  Called right after depth
/// 1: the access floors are the policy's own cheapest access cost per
/// table, harvested from the table — no extra evaluations.
fn build_prune<P: CandidatePolicy>(
    model: &CostModel<'_>,
    shape: PlanShape,
    policy: &mut P,
    config: &SearchConfig,
    table: &DpTable<P::Entry>,
) -> Option<Rc<PruneState>> {
    if !config.pruning {
        return None;
    }
    let bound = policy.pruning_bound(model)?;
    let n = model.query().n_tables();
    let access_floors = (0..n)
        .map(|i| {
            table
                .get(&Subset(TableSet::singleton(i)))
                .and_then(|es| cheapest_index(es).map(|j| es[j].cost()))
                .unwrap_or(0.0)
        })
        .collect();
    let ps = Rc::new(PruneState::new(model, shape, bound, access_floors));
    policy.install_pruning(&ps);
    Some(ps)
}

/// Greedily complete the cheapest entry of `seed` to a full plan through
/// the policy's own `combine`/`finalize`, returning the finalized cost —
/// a *real, achievable* completion cost under the policy's exact
/// objective (coster, phases, root sort), which is what makes it a valid
/// incumbent.  Each chain step joins the single cheapest surviving
/// candidate with the connected table whose point size product keeps the
/// intermediate smallest; truncating to one entry per step keeps the walk
/// at `O(n)` cheap combines for every policy, keep-all included.  `None`
/// when the walk dead-ends (disconnected remainder, or a pruning
/// keep-all's own streaming discard dropped every candidate) — the
/// incumbent simply stays where it was.
fn greedy_complete<P: CandidatePolicy>(
    model: &CostModel<'_>,
    policy: &mut P,
    table: &DpTable<P::Entry>,
    seed: TableSet,
    stats: &mut SearchStats,
) -> Option<f64> {
    let n = model.query().n_tables();
    let mut set = seed;
    let seed_entries = table.get(&Subset(seed))?;
    let mut cur = vec![seed_entries[cheapest_index(seed_entries)?].clone()];
    while set.len() < n {
        let (_, j) = model
            .frontier(set)
            .iter()
            .filter(|&j| table.contains_key(&Subset(TableSet::singleton(j))))
            .map(|j| (point_size_product(model, set.with(j)), j))
            .min_by(first_min)?;
        let result = set.with(j);
        let ctx = JoinContext {
            left: set,
            right: TableSet::singleton(j),
            result,
            phase: result.len() - 2,
        };
        let mut out = Vec::new();
        policy.combine(
            model,
            &ctx,
            &cur,
            &table[&Subset(TableSet::singleton(j))],
            &mut out,
            stats,
        );
        let best = cheapest_index(&out)?;
        cur = policy.build(vec![out.swap_remove(best)]);
        set = result;
    }
    let ctx = RootContext { sort_phase: n - 1 };
    policy
        .finalize(model, &ctx, cur, stats)
        .iter()
        .map(SearchEntry::cost)
        .min_by(|a, b| a.total_cmp(b))
}

/// Tighten the incumbent once a level is complete: pick the most
/// promising surviving subset of `level` (cheapest minimal entry;
/// smallest bit pattern on exact ties), greedily complete it through the
/// policy, and observe the resulting cost.  The incumbent changes exactly
/// here (the post-depth-1 seeding included), never mid-level — the
/// per-level schedule is how pruning tightens as the search climbs.
fn refresh_incumbent<P: CandidatePolicy>(
    model: &CostModel<'_>,
    policy: &mut P,
    table: &DpTable<P::Entry>,
    prune: &PruneState,
    level: &[TableSet],
    stats: &mut SearchStats,
) {
    if prune.refresh_retired() {
        return;
    }
    // `level` is in increasing bit order: the first minimum is the smallest.
    let best = level.iter().filter_map(|&set| {
        let entries = table.get(&Subset(set))?;
        Some((entries[cheapest_index(entries)?].cost(), set))
    });
    let Some((_, seed)) = best.min_by(first_min) else {
        return;
    };
    let before = prune.incumbent();
    if let Some(cost) = greedy_complete(model, policy, table, seed, stats) {
        prune.observe(cost);
        // Greedy walks have sharply diminishing returns: the first walk
        // that completes without lowering a finite incumbent signals the
        // remaining ones won't either (each later seed walks a longer
        // prefix of an already-observed completion), so retire the
        // refresh for the rest of the search rather than paying a full
        // costed walk per level for nothing.
        if cost >= before {
            prune.retire_refresh();
        }
    }
}

/// Fill the DP table of an `n ≥ 1`-table query level by level.  A split's
/// halves are proper subsets, so a level reads only the levels below it:
/// its subsets share one pending buffer and one splits buffer, and its
/// nodes enter the table once the whole level is combined.
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

    let prune_cx = build_prune(model, shape, policy, config, &table);
    let mut level = singletons(n);
    if let Some(ps) = &prune_cx {
        refresh_incumbent(model, policy, &table, ps, &level, stats);
    }

    let mut splits = Vec::new();
    let mut nodes = Vec::new();
    // Depths 2..n.
    for k in 2..=n {
        let level_start = tel.map(|_| Instant::now());
        let prune_mark = *stats;
        level = next_level(model, &level);
        if prune_cx.is_some() && k < n {
            // The disconnected sets of this size: discarded by structure,
            // so counted rather than visited.
            stats.pruned_subsets =
                stats
                    .pruned_subsets
                    .saturating_add(disconnected_count(n, k, level.len()));
        }
        let mut pending = Vec::new();
        for &set in &level {
            let entries = combine_subset(
                model,
                shape,
                policy,
                &table,
                set,
                prune_cx.as_deref(),
                tel,
                &mut splits,
                &mut pending,
                stats,
            );
            if !entries.is_empty() {
                nodes.push((Subset(set), entries));
            }
        }
        table.extend(nodes.drain(..));
        if let (Some(t), Some(t0)) = (tel, level_start) {
            t.level_combine_ns.record_duration(t0.elapsed());
            if prune_cx.is_some() {
                t.record_level_prune(level_prune_delta(k, &prune_mark, stats));
            }
        }
        if k < n {
            if let Some(ps) = &prune_cx {
                refresh_incumbent(model, policy, &table, ps, &level, stats);
            }
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
            let entries = combine_subset(
                &model,
                PlanShape::LeftDeep,
                &mut policy,
                &table,
                set,
                None,
                None,
                &mut splits,
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
