//! The one DP driver.  Everything that enumerates subsets lives here —
//! no optimizer module outside `search/` walks the dag itself.
//!
//! A search is a plain function call: [`run_search_with`] walks the
//! subset dag level by level on the thread that called it.  A level holds
//! the *connected* subsets of its size only ([`next_level`]): the walk
//! costs what the join graph has, not the `2^n` lattice around it.
//!
//! A level's entries live in one exactly sized vector (`fill_table`),
//! their plans as steps of the search's [`PlanArena`]; a plan is copied
//! out only for a root a caller takes ([`SearchRun::plans`]).  A
//! left-deep level is grown from its parents (`grow_left_deep`), so a
//! split reads its outer entries at its parent's index and its inner ones
//! at its table's; its splits are ordered by set, with a radix sort on
//! the set's bits once a level holds `RADIX_MIN_SPLITS` of them and a
//! comparison sort below.  Only the bushy walk looks a subset up
//! (`DpTable::get`: by its bits, or past `DENSE_INDEX_TABLES` tables by
//! a binary search of its level).

use super::arena::PlanArena;
use super::policy::{CandidatePolicy, JoinContext, RootContext, SearchEntry};
use super::SearchStats;
use crate::error::OptError;
use lec_cost::CostModel;
use lec_plan::TableSet;
use std::time::Instant;

/// The most tables whose bushy walk indexes its subsets by their bits: a
/// `4·2^n`-byte index beside a `3^n`-step walk, at most 256 KB.
const DENSE_INDEX_TABLES: usize = 16;

/// The DP table, one level per subset size (index `k - 1` for `k`
/// tables): the level's connected subsets in increasing bit order, each
/// one's range in the level's entry vector (empty when it kept none), and
/// that vector.
struct DpTable<E> {
    sets: Vec<Vec<TableSet>>,
    ranges: Vec<Vec<[u32; 2]>>,
    levels: Vec<Vec<E>>,
    /// A bushy walk's two lookups per split read each subset's index in
    /// its level here, by its bits (`u32::MAX` for no subset), where a
    /// binary search of the level would cost the walk an eighth of its
    /// time; empty for every other search, and past
    /// [`DENSE_INDEX_TABLES`].
    dense: Vec<u32>,
}

impl<E> DpTable<E> {
    /// The entries retained for `set`, if it is populated.
    fn get(&self, set: TableSet) -> Option<&[E]> {
        let k = set.len().checked_sub(1)?;
        let i = if self.dense.is_empty() {
            self.sets.get(k)?.binary_search(&set).ok()?
        } else {
            let i = *self.dense.get(set.bits() as usize)?;
            (i != u32::MAX).then_some(i as usize)?
        };
        self.entries(k, i)
    }

    /// The entries of the `i`-th subset of level `k + 1`, if it kept any.
    fn entries(&self, k: usize, i: usize) -> Option<&[E]> {
        let [start, end] = self.ranges[k][i].map(|x| x as usize);
        (start < end).then(|| &self.levels[k][start..end])
    }

    /// Store the level in hand exactly sized; `level` keeps its capacity.
    #[allow(clippy::drain_collect)]
    fn push_level(&mut self, level: &mut Level<E>) {
        if !self.dense.is_empty() {
            for (i, set) in level.sets.iter().enumerate() {
                self.dense[set.bits() as usize] = i as u32;
            }
        }
        self.sets.push(level.sets.drain(..).collect());
        self.ranges.push(level.ranges.drain(..).collect());
        self.levels.push(level.entries.drain(..).collect());
    }
}

/// The level being filled: its subsets so far, their ranges and entries.
struct Level<E> {
    sets: Vec<TableSet>,
    ranges: Vec<[u32; 2]>,
    entries: Vec<E>,
}

impl<E> Level<E> {
    /// Record `set`, whose entries are `entries[start..]`.
    fn add(&mut self, set: TableSet, start: usize, stats: &mut SearchStats) {
        if self.entries.len() > start {
            stats.nodes += 1;
        }
        self.sets.push(set);
        let range = [start, self.entries.len()].map(|i| u32::try_from(i).expect("< 2^32 entries"));
        self.ranges.push(range);
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

/// Fill `out` with the bushy splits of `set`: every ordered 2-partition
/// whose halves a predicate joins, by decreasing outer bits.
fn bushy_splits(model: &CostModel<'_>, set: TableSet, out: &mut Vec<(TableSet, TableSet)>) {
    out.clear();
    let bits = set.bits();
    // Walk all non-empty proper subsets via the standard trick.
    let mut sub = (bits - 1) & bits;
    while sub != 0 {
        let (left, right) = (TableSet::from_bits(sub), TableSet::from_bits(bits & !sub));
        if !model.frontier(left).intersect(right).is_empty() {
            out.push((left, right));
        }
        sub = (sub - 1) & bits;
    }
}

/// The connected subsets one table larger than those of `level`, in
/// increasing bit order: each set grown by each table on its frontier,
/// sorted and deduplicated.  Every connected set of `k + 1` tables has a
/// connected `k`-subset (drop a leaf of a spanning tree), so growing *all*
/// connected `k`-sets reaches all of them — in the order a walk of every
/// `k + 1`-subset by increasing bits would meet them, which is the order
/// the tie-breaks were recorded against.
pub fn next_level(model: &CostModel<'_>, level: &[TableSet]) -> Vec<TableSet> {
    let mut next: Vec<TableSet> = level
        .iter()
        .flat_map(|&set| model.frontier(set).iter().map(move |t| set.with(t)))
        .collect();
    next.sort_unstable();
    next.dedup();
    next
}

/// A left-deep split of level `k + 1`: table `table` joined to the
/// subset at index `parent` of level `k`, the outer half.  It names its
/// set rather than holding it, so a level's splits take 8 bytes each.
#[derive(Debug, Clone, Copy)]
struct Grown {
    parent: u32,
    table: u32,
}

impl Grown {
    /// The subset the split builds, `parents` being level `k`.
    fn set(self, parents: &[TableSet]) -> TableSet {
        parents[self.parent as usize].with(self.table as usize)
    }
}

/// Below this many splits a level is ordered by a comparison sort, at
/// and above it by [`radix_sort_by_set`], whose 256-slot count per byte
/// of the set is a fixed cost.  Measured on the levels of chains, stars
/// and cliques of 5–13 tables (release build): radix takes 0.2–0.7x the
/// comparison sort's time from about 30 splits when the sets fit a byte,
/// 0.7–0.9x at 132 splits and 0.9–1.2x at 90 when they take two, and
/// 0.4x at the thousands of a 12-table clique's levels.
const RADIX_MIN_SPLITS: usize = 128;

/// Level `k + 1` of a left-deep walk as its splits: every subset of
/// `level` (level `k`'s, in increasing bit order) grown by each table on
/// its frontier, ordered by (set, table).  A set's run holds its splits
/// `(S∖{t}, {t})` with a connected outer, in ascending `t` — the sets of
/// [`next_level`], in its order, each with its left-deep splits (`t`
/// adjacent to `S∖{t}`) whose outer a level holds, in ascending `t`.
///
/// Parents are grown by descending bits, so a set's splits arrive by
/// ascending `t` (a greater `t` leaves a smaller parent) and a stable
/// sort on the set alone orders them: a large level's is a radix sort
/// through `scratch`, the search's one spare buffer.
fn grow_left_deep(
    model: &CostModel<'_>,
    level: &[TableSet],
    out: &mut Vec<Grown>,
    scratch: &mut Vec<Grown>,
) {
    out.clear();
    for (parent, &set) in level.iter().enumerate().rev() {
        let parent = u32::try_from(parent).expect("< 2^32 subsets");
        out.extend(model.frontier(set).iter().map(|t| Grown {
            parent,
            table: t as u32,
        }));
    }
    if out.len() < RADIX_MIN_SPLITS {
        out.sort_unstable_by_key(|g| (g.set(level), g.table));
    } else {
        let bytes = model.query().n_tables().div_ceil(8);
        radix_sort_by_set(out, scratch, level, bytes);
    }
}

/// Stable LSD radix sort of `splits` on the low `bytes` bytes of their
/// sets' bits (the rest are zero), a byte a pass through `scratch`; a pass
/// whose byte is the same for every split moves nothing.
fn radix_sort_by_set(
    splits: &mut Vec<Grown>,
    scratch: &mut Vec<Grown>,
    parents: &[TableSet],
    bytes: usize,
) {
    for byte in 0..bytes {
        let digit = |g: &Grown| (g.set(parents).bits() >> (8 * byte)) as u8 as usize;
        let mut at = [0usize; 256];
        for g in splits.iter() {
            at[digit(g)] += 1;
        }
        if at[digit(&splits[0])] == splits.len() {
            continue;
        }
        let mut sum = 0;
        for slot in &mut at {
            (*slot, sum) = (sum, sum + *slot);
        }
        scratch.resize(splits.len(), splits[0]);
        for g in splits.iter() {
            let slot = &mut at[digit(g)];
            scratch[*slot] = *g;
            *slot += 1;
        }
        std::mem::swap(splits, scratch);
    }
}

/// The engine's raw product: the finalized (order-enforced) root
/// candidates, the run's statistics and its plan steps.
#[derive(Debug, Clone)]
pub struct SearchRun<E> {
    /// Finalized root candidates; non-empty.
    pub roots: Vec<E>,
    /// Statistics for this run.
    pub stats: SearchStats,
    /// Every plan step the run built; [`PlanArena::node`] copies a plan out.
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

/// Holds nothing: a search is the plain DP.  The type and the parameter
/// of [`run_search_with`] and [`crate::optimize`] stay only because pinned
/// callers pass `SearchConfig::default()`.
#[derive(Debug, Clone, Default)]
pub struct SearchConfig {}

/// Fill the DP table of an `n ≥ 1`-table query level by level: a subset's
/// splits rank *pending* joins into one buffer, built after its last split,
/// and a level (reading only those below it) fills one buffer, stored
/// exactly sized when done.
fn fill_table<P: CandidatePolicy>(
    model: &CostModel<'_>,
    shape: PlanShape,
    policy: &mut P,
    plans: &mut PlanArena,
    stats: &mut SearchStats,
) -> DpTable<P::Entry> {
    let n = model.query().n_tables();
    let mut table = DpTable {
        sets: Vec::with_capacity(n),
        ranges: Vec::with_capacity(n),
        levels: Vec::with_capacity(n),
        dense: match shape {
            PlanShape::Bushy if n <= DENSE_INDEX_TABLES => vec![u32::MAX; 1 << n],
            _ => Vec::new(),
        },
    };
    let mut level = Level {
        sets: Vec::new(),
        ranges: Vec::new(),
        entries: Vec::new(),
    };
    let (mut grown, mut scratch) = (Vec::new(), Vec::new());
    let (mut splits, mut pending) = (Vec::new(), Vec::new());
    for idx in 0..n {
        let start = level.entries.len();
        let access = policy.access_entries(model, plans, idx, stats);
        level.entries.extend(access);
        level.add(TableSet::singleton(idx), start, stats);
    }
    table.push_level(&mut level);
    // Depths 2..n, each read off depth `k + 1`, the level at index `k`.
    for k in 0..n - 1 {
        match shape {
            PlanShape::LeftDeep => {
                let parents = &table.sets[k];
                grow_left_deep(model, parents, &mut grown, &mut scratch);
                for run in grown.chunk_by(|a, b| a.set(parents) == b.set(parents)) {
                    for g in run {
                        let (t, parent) = (g.table as usize, g.parent as usize);
                        let outer = table.entries(k, parent);
                        let (Some(outer), Some(inner)) = (outer, table.entries(0, t)) else {
                            continue;
                        };
                        let ctx = JoinContext::of(parents[parent], TableSet::singleton(t));
                        policy.combine(model, plans, &ctx, outer, inner, &mut pending, stats);
                    }
                    let start = level.entries.len();
                    policy.build(plans, &mut pending, &mut level.entries);
                    level.add(run[0].set(parents), start, stats);
                }
            }
            PlanShape::Bushy => {
                for set in next_level(model, &table.sets[k]) {
                    bushy_splits(model, set, &mut splits);
                    for &(left, right) in &splits {
                        let (Some(outer), Some(inner)) = (table.get(left), table.get(right)) else {
                            continue;
                        };
                        let ctx = JoinContext::of(left, right);
                        policy.combine(model, plans, &ctx, outer, inner, &mut pending, stats);
                    }
                    let start = level.entries.len();
                    policy.build(plans, &mut pending, &mut level.entries);
                    level.add(set, start, stats);
                }
            }
        }
        table.push_level(&mut level);
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
    _config: &SearchConfig,
) -> Result<SearchRun<P::Entry>, OptError> {
    let n = model.query().n_tables();
    if n == 0 {
        return Err(OptError::EmptyQuery);
    }
    let start = Instant::now();
    model.reset_evals();
    let mut stats = SearchStats::default();
    let mut plans = PlanArena::default();
    let mut table = fill_table(model, shape, policy, &mut plans, &mut stats);
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
    use crate::search::{AlgDConfig, KeepBestPolicy, MemoryCoster, MultiParamPolicy, TopCPolicy};
    use lec_plan::Step;

    /// Fill `policy`'s table for `query` under `shape`.
    fn filled<P: CandidatePolicy>(
        model: &CostModel<'_>,
        shape: PlanShape,
        policy: &mut P,
    ) -> (DpTable<P::Entry>, PlanArena, SearchStats) {
        let (mut plans, mut stats) = (PlanArena::default(), SearchStats::default());
        let table = fill_table(model, shape, policy, &mut plans, &mut stats);
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
            let composites = table.sets.iter().skip(1).flatten();
            for &set in composites {
                for e in table.get(set).into_iter().flatten() {
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
        let populated = table.ranges.iter().flatten();
        assert_eq!(
            populated.filter(|[start, end]| start < end).count(),
            stats.nodes,
            "{what}: every node is stored"
        );
        assert_eq!(
            table.levels.len(),
            q.n_tables(),
            "{what}: one vector per level"
        );
        for k in 0..q.n_tables() {
            let level = k + 1;
            let (sets, ranges) = (&table.sets[k], &table.ranges[k]);
            assert_eq!(sets.len(), ranges.len(), "{what}: level {level}");
            for capacity_and_len in [
                (table.levels[k].capacity(), table.levels[k].len()),
                (sets.capacity(), sets.len()),
                (ranges.capacity(), ranges.len()),
            ] {
                assert_eq!(
                    capacity_and_len.0, capacity_and_len.1,
                    "{what}: level {level}"
                );
            }
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

    /// A left-deep level grown from its parents gives every set its
    /// left-deep splits whose halves are populated, in ascending inner
    /// table, and [`DpTable::get`] finds every set a level stores and no
    /// other, by binary search and, in a bushy table, by bits: on stars,
    /// a clique and random graphs, whose disconnected outers the grown
    /// splits never name.  The 10-star's middle levels pass
    /// [`RADIX_MIN_SPLITS`], so both ways of ordering a level are checked,
    /// each against a comparison sort on (set, table).
    #[test]
    fn grown_left_deep_splits_are_the_shapes_populated_splits() {
        let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();
        let mut queries = vec![
            crate::fixtures::pruning_star(7),
            crate::fixtures::pruning_star(10),
            crate::fixtures::pruning_clique(6),
        ];
        let mut radix_levels = 0;
        for seed in [3, 11] {
            let mut tables = lec_catalog::CatalogGenerator::new(seed);
            let catalog = tables.generate(12);
            let ids = tables.pick_tables(&catalog, 8);
            let profile = lec_plan::QueryProfile {
                topology: lec_plan::Topology::Random,
                ..Default::default()
            };
            let query = lec_plan::WorkloadGenerator::new(seed).gen_query(&catalog, &ids, &profile);
            queries.push((catalog, query));
        }
        for (cat, q) in &queries {
            let model = CostModel::new(cat, q);
            let mut policy = KeepBestPolicy::new(MemoryCoster::fixed(&memory));
            let (table, _, _) = filled(&model, PlanShape::LeftDeep, &mut policy);
            let (mut grown, mut scratch) = (Vec::new(), Vec::new());
            for k in 0..q.n_tables() - 1 {
                let parents = &table.sets[k];
                grow_left_deep(&model, parents, &mut grown, &mut scratch);
                let key = |g: &Grown| (g.set(parents), g.table, g.parent);
                let mut sorted = grown.clone();
                sorted.sort_unstable_by_key(key);
                assert!(grown.iter().map(key).eq(sorted.iter().map(key)));
                radix_levels += usize::from(grown.len() >= RADIX_MIN_SPLITS);
                let runs: Vec<_> = grown.chunk_by(|a, b| key(a).0 == key(b).0).collect();
                let sets: Vec<_> = runs.iter().map(|run| run[0].set(parents)).collect();
                assert_eq!(sets, next_level(&model, parents));
                assert_eq!(sets, table.sets[k + 1], "level {}", k + 2);
                for run in runs {
                    let set = run[0].set(parents);
                    let got: Vec<_> = run
                        .iter()
                        .filter(|g| {
                            let outer = table.entries(k, g.parent as usize);
                            outer.is_some() && table.entries(0, g.table as usize).is_some()
                        })
                        .map(|g| {
                            let outer = parents[g.parent as usize];
                            (outer, TableSet::singleton(g.table as usize))
                        })
                        .collect();
                    let want: Vec<_> = set
                        .iter()
                        .map(|j| (set.without(j), TableSet::singleton(j)))
                        .filter(|&(l, r)| !model.frontier(l).intersect(r).is_empty())
                        .filter(|&(l, r)| table.get(l).is_some() && table.get(r).is_some())
                        .collect();
                    assert!(!want.is_empty(), "{set}");
                    assert_eq!(got, want, "{set}");
                }
            }
            let mut policy = KeepBestPolicy::new(MemoryCoster::fixed(&memory));
            let (bushy, _, _) = filled(&model, PlanShape::Bushy, &mut policy);
            assert!(!bushy.dense.is_empty() && table.dense.is_empty());
            for table in [table, bushy] {
                for (k, sets) in table.sets.iter().enumerate() {
                    for (i, &set) in sets.iter().enumerate() {
                        let got = table.get(set).map(|e| e.as_ptr());
                        assert_eq!(got, table.entries(k, i).map(|e| e.as_ptr()), "{set}");
                        assert!(got.is_some(), "{set} is populated");
                    }
                }
                let full = TableSet::full(q.n_tables()).bits();
                for bits in 1..=full {
                    let set = TableSet::from_bits(bits);
                    let stored = table.sets[set.len() - 1].contains(&set);
                    assert_eq!(table.get(set).is_some(), stored, "{set}");
                }
                let outside = TableSet::singleton(q.n_tables());
                assert!(table.get(outside).is_none() && table.get(TableSet::EMPTY).is_none());
            }
        }
        assert!(radix_levels > 0, "some level is radix sorted");
    }
}
