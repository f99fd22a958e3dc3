//! The query-aware cost model: effective sizes, selectivities, and cost
//! dispatch, with an evaluation counter for the paper's complexity claims.

use crate::formulas;
pub use lec_catalog::{table_stats_fingerprint, Fingerprint};
use lec_catalog::{Catalog, IndexKind};
use lec_plan::{ColumnEquivalences, JoinMethod, Query, TableSet};
use lec_prob::{Distribution, PrefixTables};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// How a base table is accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Heap scan.
    SeqScan,
    /// Scan through the index matching the table's local filter.
    IndexScan,
}

/// Operator discriminant for [`EvalKey`]: every memoized evaluation is
/// Algorithm D's expectation over size and memory distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvalOp {
    /// Expected join cost over size + memory distributions.
    DistJoin(JoinMethod),
    /// Expected sort cost over size + memory distributions.
    DistSort,
}

/// One step of FxHash — the rustc-style multiply-rotate mix.  [`EvalKey`]
/// lookups sit on Algorithm D's innermost loop, where the default SipHash
/// costs more than the cost formulas it would be saving.
#[inline]
fn fx_mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(0x517CC1B727220A95)
}

/// MurmurHash3's `fmix64`, for word-sized keys hashed through [`Prehashed`]:
/// every input bit reaches the low bits hashbrown indexes on and the top
/// seven it tags with (a lone FxHash multiply only moves bits upward).
#[inline]
pub fn avalanche(word: u64) -> u64 {
    let mut h = word;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51AFD7ED558CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CEB9FE1A85EC53);
    h ^ (h >> 33)
}

/// The identity hasher for keys that hash themselves once, when built:
/// an [`EvalKey`] (picking the shard, probing the map and inserting on a
/// miss share one FxHash pass), the serving layer's plan-cache key (one
/// [`Fingerprint`] fold picks the stripe and probes it) and the DP
/// table's subsets (one [`avalanche`] of the set's bits).
#[derive(Debug, Default)]
pub struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("a prehashed key writes its one precomputed u64");
    }
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type EvalMap = HashMap<EvalKey, f64, std::hash::BuildHasherDefault<Prehashed>>;

/// Number of cache shards.  Power of two.
const EVAL_SHARDS: usize = 32;

/// The evaluation cache: an array of small map shards, selected by the
/// FxHash of the [`EvalKey`].
///
/// One thread owns a model, so the shards are plain `RefCell`s and no
/// borrow outlives a probe or an insert.  The cache is 32 small maps
/// rather than one table because of memory, not contention: a single map
/// holding a search's several thousand entries pays hashbrown's
/// old-plus-new resize transient on one large allocation, which measured
/// +6% `peak_rss_mb` on the ledger's `cold_mix` workload (bound 5%);
/// small shards resize a few hundred entries at a time.
///
/// Every entry is one of Algorithm D's expectations, which stream `b_A +
/// b_B` (block nested-loop: `b_A·b_B·b_M`) formula calls behind one probe;
/// with the cache off, D measured 12–15% slower on the ledger's `cold_mix`
/// shapes (in process, 2-vCPU host).  A scalar-size expectation is never
/// memoized: its `b` formula calls cost less than the key fold and probe.
#[derive(Default)]
struct ShardedEvalCache {
    shards: [RefCell<EvalMap>; EVAL_SHARDS],
}

impl ShardedEvalCache {
    /// The shard responsible for `key`.
    fn shard(&self, key: &EvalKey) -> &RefCell<EvalMap> {
        // The final multiply pushes entropy to the high bits; index there.
        &self.shards[(key.hash >> (64 - EVAL_SHARDS.trailing_zeros())) as usize]
    }
}

impl std::fmt::Debug for ShardedEvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEvalCache")
            .field("shards", &EVAL_SHARDS)
            .finish()
    }
}

/// Memoization key for one of Algorithm D's expectations: the operator,
/// the memory distribution's fingerprint, and the operand size
/// distributions' fingerprints.
///
/// The key is exactly the tuple the cost formulas read — and nothing
/// more.  Every compute behind [`CostModel::cached`] is a pure function
/// of `(op, mem, outer, inner)`; the operand *table sets* never enter a
/// formula, so keying on them would only relabel identical computations
/// as distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EvalKey {
    /// FxHash of the four fields below, computed by [`EvalKey::new`].
    hash: u64,
    op: EvalOp,
    mem: u64,
    outer: u64,
    inner: u64,
}

impl EvalKey {
    /// Build a key, hashing it once: FxHash over the operator tag, the
    /// join method if the operator has one, then `mem`, `outer`, `inner`.
    ///
    /// The operator tags are 4 and 5: the words `derive(Hash)` fed the
    /// hasher while four retired operators (tags 0..3) preceded these two.
    /// The tag is the first word mixed in, so it decides which shard and
    /// which bucket every key lands in; renumbering tags once measured −8%
    /// `large_joins` throughput on the ledger (slower in 9 of 10 pairs)
    /// with nothing else changed (`eval_key_hashes_are_pinned` holds the
    /// values).
    fn new(op: EvalOp, mem: u64, outer: u64, inner: u64) -> Self {
        let mut hash = match op {
            EvalOp::DistJoin(m) => fx_mix(fx_mix(0, 4), m as u64),
            EvalOp::DistSort => fx_mix(0, 5),
        };
        for word in [mem, outer, inner] {
            hash = fx_mix(hash, word);
        }
        EvalKey {
            hash,
            op,
            mem,
            outer,
            inner,
        }
    }
}

impl Hash for EvalKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// 64-bit FNV-1a fingerprint of a distribution's exact contents, used to
/// key the expected-cost caches.
pub fn dist_fingerprint(d: &Distribution) -> u64 {
    Fingerprint::new().dist(d).finish()
}

/// Label-independent fingerprint of one table *occurrence* in a query:
/// the stored table's statistics fingerprint (folded once, when the
/// catalog registered the table) plus the occurrence's filter (column and
/// selectivity distribution).  The free-function form of
/// [`CostModel::table_shape_fingerprint`], for callers that have no model
/// (e.g. cache-key canonicalization).
pub fn table_occurrence_fingerprint(catalog: &Catalog, query: &Query, idx: usize) -> u64 {
    let qt = &query.tables[idx];
    let fp = catalog.exact_prefix(qt.table);
    match &qt.filter {
        Some(f) => fp.u64(1).u64(f.column as u64).dist(&f.selectivity),
        None => fp.u64(0),
    }
    .finish()
}

/// Cost model bound to one catalog and one query.
///
/// All size parameters are in pages.  Uncertain quantities are exposed both
/// as point estimates (mean — what the LSC baseline uses) and as
/// distributions (what Algorithms C/D use).  The model counts every
/// evaluation of a cost formula through [`CostModel::evals`], which is the
/// unit in which the paper states its overheads ("this computation requires
/// b evaluations of the cost formula", §3.4).
///
/// The `expected_*_over` methods price a scalar-size operator in place:
/// `b` formula calls over a `b`-bucket memory distribution, one for a
/// point.  Algorithm D's `expected_*_for` methods additionally memoize
/// whole expectations in a cache keyed by `(operator, memory
/// distribution, size distributions)`, so the repeats across entry pairs
/// and DP levels are computed once; cache hits do not increment the
/// evaluation counter (they perform no formula work).  The cache is on by
/// default and can be disabled with [`CostModel::set_eval_cache`] for
/// apples-to-apples overhead measurements.
///
/// # Thread safety
///
/// A search runs on the thread that asked for it and builds its own
/// model, so nothing shares a `CostModel` across threads — and nothing
/// can: the evaluation cache is `RefCell` shards and the counters are
/// `Cell`s, which makes the type `!Sync`.  No borrow of a shard is held
/// across the compute of a miss, so a compute that panics leaves the map
/// without the entry and the model usable.  [`ShardedEvalCache`] says why
/// the cache is still 32 small maps.
#[derive(Debug)]
pub struct CostModel<'a> {
    catalog: &'a Catalog,
    query: &'a Query,
    equivalences: ColumnEquivalences,
    /// Per-table [`table_occurrence_fingerprint`]s, precomputed so the
    /// engine's tie-breaks are an array lookup rather than a rehash.
    table_shapes: Vec<u64>,
    /// Point post-filter page count per table ([`CostModel::base_pages`]).
    base_pages: Vec<f64>,
    /// Join-graph neighbours per table ([`CostModel::neighbours`]).
    neighbours: Vec<TableSet>,
    /// One [`JoinEdge`] per join predicate, in predicate order.
    edges: Vec<JoinEdge>,
    evals: Cell<u64>,
    eval_cache: ShardedEvalCache,
    cache_enabled: Cell<bool>,
    cache_hits: Cell<u64>,
    /// When installed, Algorithm D's cache misses time their compute into
    /// `telemetry.eval_compute_ns`.  `None` (the default) keeps the hot
    /// path a single branch.
    telemetry: Option<Arc<lec_telemetry::EngineTelemetry>>,
}

/// One join predicate as the search reads it: its endpoint tables as
/// singleton sets (empty for an index outside the query, which no operand
/// set can then match) and the mean of its selectivity distribution.
#[derive(Debug)]
struct JoinEdge {
    left: TableSet,
    right: TableSet,
    selectivity: f64,
}

impl JoinEdge {
    /// Whether the predicate has one side in `a` and the other in `b`.
    fn crosses(&self, a: TableSet, b: TableSet) -> bool {
        let hits = |side: TableSet, set: TableSet| !side.intersect(set).is_empty();
        (hits(self.left, a) && hits(self.right, b)) || (hits(self.right, a) && hits(self.left, b))
    }
}

impl<'a> CostModel<'a> {
    /// Bind the model to a query.
    pub fn new(catalog: &'a Catalog, query: &'a Query) -> Self {
        let n = query.n_tables();
        let base_pages = query
            .tables
            .iter()
            .map(|qt| {
                let pages = catalog.table(qt.table).stats.pages as f64;
                match &qt.filter {
                    Some(f) => (pages * f.selectivity.mean()).max(formulas::MIN_PAGES),
                    None => pages,
                }
            })
            .collect();
        // The query's graph tables, built once: every split of every
        // subset asks which predicates cross it.
        let side = |t: usize| TableSet::from_indices((t < n).then_some(t));
        let mut neighbours = vec![TableSet::EMPTY; n];
        let edges: Vec<JoinEdge> = query
            .joins
            .iter()
            .map(|join| {
                let (u, v) = join.tables();
                if u != v && u < n && v < n {
                    neighbours[u] = neighbours[u].with(v);
                    neighbours[v] = neighbours[v].with(u);
                }
                JoinEdge {
                    left: side(u),
                    right: side(v),
                    selectivity: join.selectivity.mean(),
                }
            })
            .collect();
        CostModel {
            catalog,
            query,
            equivalences: ColumnEquivalences::for_query(query),
            table_shapes: (0..n)
                .map(|i| table_occurrence_fingerprint(catalog, query, i))
                .collect(),
            base_pages,
            neighbours,
            edges,
            evals: Cell::new(0),
            eval_cache: ShardedEvalCache::default(),
            cache_enabled: Cell::new(true),
            cache_hits: Cell::new(0),
            telemetry: None,
        }
    }

    /// Install (or remove) engine telemetry: Algorithm D's cache-miss
    /// computes are timed into its `eval_compute_ns` histogram.  Purely
    /// observational — costs, counters, and results are unaffected.
    pub fn set_telemetry(&mut self, telemetry: Option<Arc<lec_telemetry::EngineTelemetry>>) {
        self.telemetry = telemetry;
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }

    /// The query this model is bound to.
    pub fn query(&self) -> &Query {
        self.query
    }

    /// Column equivalence classes of the query (for order properties).
    pub fn equivalences(&self) -> &ColumnEquivalences {
        &self.equivalences
    }

    /// Label-independent fingerprint of one table occurrence: everything
    /// this model can observe about it (statistics, filter column and
    /// selectivity distribution) and nothing about its query-local index.
    /// Two occurrences with equal fingerprints are interchangeable to the
    /// DP; the engine uses this to break exact cost ties the same way
    /// under any table renaming.
    pub fn table_shape_fingerprint(&self, table_idx: usize) -> u64 {
        self.table_shapes[table_idx]
    }

    /// Number of cost-formula evaluations since the last reset.
    pub fn evals(&self) -> u64 {
        self.evals.get()
    }

    /// Reset the evaluation counter.
    pub fn reset_evals(&self) {
        self.evals.set(0);
    }

    fn count_eval(&self) {
        self.count_evals(1);
    }

    fn count_evals(&self, n: u64) {
        self.evals.set(self.evals.get() + n);
    }

    // ---- evaluation cache -----------------------------------------------

    /// Enable or disable the memoized evaluation cache used by the
    /// `expected_*_for` methods.  Toggling (in either direction) clears every shard of the
    /// cache **and resets the hit counter**, so measurements taken after a
    /// toggle never mix cached and uncached regimes.
    pub fn set_eval_cache(&self, enabled: bool) {
        self.cache_enabled.set(enabled);
        for shard in &self.eval_cache.shards {
            shard.borrow_mut().clear();
        }
        self.cache_hits.set(0);
    }

    /// Number of evaluations answered from the cache (no formula work).
    pub fn eval_cache_hits(&self) -> u64 {
        self.cache_hits.get()
    }

    /// Number of distinct evaluations currently memoized.
    pub fn eval_cache_len(&self) -> usize {
        self.eval_cache
            .shards
            .iter()
            .map(|s| s.borrow().len())
            .sum()
    }

    fn cached(&self, key: EvalKey, compute: impl FnOnce() -> f64) -> f64 {
        if !self.cache_enabled.get() {
            return compute();
        }
        let shard = self.eval_cache.shard(&key);
        let hit = shard.borrow().get(&key).copied();
        if let Some(v) = hit {
            self.cache_hits.set(self.cache_hits.get() + 1);
            return v;
        }
        let v = match &self.telemetry {
            Some(t) => {
                let t0 = std::time::Instant::now();
                let v = compute();
                t.eval_compute_ns.record_duration(t0.elapsed());
                v
            }
            None => compute(),
        };
        shard.borrow_mut().insert(key, v);
        v
    }

    /// Expected join cost of *point-sized* inputs over a memory
    /// distribution — the `b`-bucket expectation of Algorithm C, or the
    /// one-bucket one of a point mode: "b evaluations of the cost formula"
    /// (§3.4), all `b` counted ([`formulas::join_cost_over`]).
    pub fn expected_join_cost_over(
        &self,
        method: JoinMethod,
        outer: f64,
        inner: f64,
        memory: &Distribution,
    ) -> f64 {
        self.count_evals(memory.len() as u64);
        formulas::join_cost_over(method, outer, inner, memory)
    }

    /// Expected sort cost of a point-sized input over a memory
    /// distribution, priced like [`CostModel::expected_join_cost_over`].
    pub fn expected_sort_cost_over(&self, pages: f64, memory: &Distribution) -> f64 {
        self.count_evals(memory.len() as u64);
        memory.expect(|m| formulas::sort_cost(pages, m))
    }

    /// Expected join cost over size and memory distributions (Algorithm
    /// D's per-method costing step), memoized under the method and the
    /// distribution fingerprints.  Every `*_fp` is the matching
    /// distribution's [`dist_fingerprint`], precomputed by the caller —
    /// the memory distribution is constant for a whole run and a size
    /// distribution for its DP entry's life, so the hot path never
    /// rehashes one.  Counts the §3.6.1/§3.6.2 number of
    /// cost-formula evaluations on a miss: linear in the bucket counts for
    /// the separable methods, the full `b_A·b_B·b_M` triple product for
    /// block nested-loop.
    #[allow(clippy::too_many_arguments)]
    pub fn expected_join_cost_for(
        &self,
        method: JoinMethod,
        a_dist: &Distribution,
        a_fp: u64,
        b_dist: &Distribution,
        b_fp: u64,
        m_dist: &Distribution,
        m_fp: u64,
        m_tables: &PrefixTables,
    ) -> f64 {
        let key = EvalKey::new(EvalOp::DistJoin(method), m_fp, a_fp, b_fp);
        self.cached(key, || {
            let evals = match method {
                JoinMethod::BlockNestedLoop => {
                    crate::expected::naive_eval_count(a_dist, b_dist, m_dist)
                }
                _ => (a_dist.len() + b_dist.len()) as u64,
            };
            self.count_evals(evals);
            crate::expected::expected_join_cost(method, a_dist, b_dist, m_dist, m_tables)
        })
    }

    /// Expected sort cost over size and memory distributions, memoized
    /// like [`CostModel::expected_join_cost_for`].
    pub fn expected_sort_cost_for(
        &self,
        r_dist: &Distribution,
        r_fp: u64,
        m_fp: u64,
        m_tables: &PrefixTables,
    ) -> f64 {
        let key = EvalKey::new(EvalOp::DistSort, m_fp, r_fp, 0);
        self.cached(key, || {
            self.count_evals(r_dist.len() as u64);
            crate::expected::expected_sort_cost(r_dist, m_tables)
        })
    }

    // ---- sizes ----------------------------------------------------------

    /// Raw heap pages of a query table.
    pub fn raw_pages(&self, table_idx: usize) -> f64 {
        self.catalog
            .table(self.query.tables[table_idx].table)
            .stats
            .pages as f64
    }

    /// Rows of a query table.
    pub fn raw_rows(&self, table_idx: usize) -> f64 {
        self.catalog
            .table(self.query.tables[table_idx].table)
            .stats
            .rows as f64
    }

    /// Point estimate (mean) of the post-filter page count of a table —
    /// the paper's `|A_j|` "after any initial selection".
    pub fn base_pages(&self, table_idx: usize) -> f64 {
        self.base_pages[table_idx]
    }

    /// Distribution of the post-filter page count of a table
    /// (`Pr(|A_j|)` in Figure 1).
    pub fn base_pages_dist(&self, table_idx: usize) -> Distribution {
        let qt = &self.query.tables[table_idx];
        let t = self.catalog.table(qt.table);
        let page_dist = t.stats.page_distribution();
        match &qt.filter {
            Some(f) => page_dist
                .product(&f.selectivity)
                .map(|v| v.max(formulas::MIN_PAGES)),
            None => page_dist,
        }
    }

    /// Point (mean) combined selectivity of all join predicates connecting
    /// `set` to table `idx` (independence assumption, §3.6).
    pub fn join_selectivity(&self, set: TableSet, idx: usize) -> f64 {
        self.join_selectivity_sets(set, TableSet::singleton(idx))
    }

    /// Distribution of the combined selectivity (`Pr(σ)` in Figure 1).
    pub fn join_selectivity_dist(&self, set: TableSet, idx: usize) -> Distribution {
        self.join_selectivity_dist_sets(set, TableSet::singleton(idx))
    }

    /// The tables sharing a join predicate with table `table_idx`.
    pub fn neighbours(&self, table_idx: usize) -> TableSet {
        self.neighbours[table_idx]
    }

    /// The tables outside `set` sharing a join predicate with a member of
    /// it: what `set` can be joined with, one table at a time, without a
    /// cross product.
    pub fn frontier(&self, set: TableSet) -> TableSet {
        let reach = set.iter().fold(0, |acc, i| acc | self.neighbours[i].bits());
        TableSet::from_bits(reach & !set.bits())
    }

    /// The join predicates with one side in `a` and the other in `b`, each
    /// with its index, in predicate order — [`Query::joins_crossing`] read
    /// off the edge table.
    fn crossing(&self, a: TableSet, b: TableSet) -> impl Iterator<Item = (usize, &JoinEdge)> {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.crosses(a, b))
    }

    /// The first join predicate (in predicate order) crossing two disjoint
    /// table sets: the one a sort-merge join of the two sorts on.
    pub fn first_crossing_join(&self, a: TableSet, b: TableSet) -> Option<usize> {
        self.crossing(a, b).map(|(i, _)| i).next()
    }

    /// Distribution of the combined selectivity of all predicates crossing
    /// two disjoint table sets (the `Pr(σ)` of Figure 1 in bushy-capable
    /// form).
    pub fn join_selectivity_dist_sets(&self, a: TableSet, b: TableSet) -> Distribution {
        let mut dist = Distribution::point(1.0);
        for (i, _) in self.crossing(a, b) {
            dist = dist.product(&self.query.joins[i].selectivity);
        }
        dist
    }

    /// Point (mean) combined selectivity of all predicates crossing two
    /// disjoint table sets (general form used when costing arbitrary
    /// trees): the product of the crossing predicates' means, taken in
    /// predicate order.
    pub fn join_selectivity_sets(&self, a: TableSet, b: TableSet) -> f64 {
        self.crossing(a, b).map(|(_, e)| e.selectivity).product()
    }

    /// Mean selectivity of each join predicate with both sides in `set`,
    /// in predicate order.
    pub fn selectivities_within(&self, set: TableSet) -> impl Iterator<Item = f64> + '_ {
        let inside = move |side: TableSet| !side.intersect(set).is_empty();
        self.edges
            .iter()
            .filter(move |e| inside(e.left) && inside(e.right))
            .map(|e| e.selectivity)
    }

    /// Result size of a join: the paper's `a·b·σ` pages, clamped to one page.
    pub fn join_output_pages(&self, outer: f64, inner: f64, selectivity: f64) -> f64 {
        (outer * inner * selectivity).max(formulas::MIN_PAGES)
    }

    // ---- access paths ---------------------------------------------------

    /// Access paths worth considering for a table: sequential scan always,
    /// plus an index scan when the local filter matches an index.
    pub fn access_paths(&self, table_idx: usize) -> Vec<AccessPath> {
        let mut out = vec![AccessPath::SeqScan];
        if self.index_kind_for_filter(table_idx) != IndexKind::None {
            out.push(AccessPath::IndexScan);
        }
        out
    }

    fn index_kind_for_filter(&self, table_idx: usize) -> IndexKind {
        let qt = &self.query.tables[table_idx];
        match &qt.filter {
            Some(f) => self.catalog.table(qt.table).stats.index_on(f.column),
            None => IndexKind::None,
        }
    }

    /// Cost of one access path (memory-independent in this model).
    pub fn access_cost(&self, path: AccessPath, table_idx: usize) -> f64 {
        self.count_eval();
        let pages = self.raw_pages(table_idx);
        match path {
            AccessPath::SeqScan => formulas::seq_scan_cost(pages),
            AccessPath::IndexScan => {
                let qt = &self.query.tables[table_idx];
                let f = qt.filter.as_ref().expect("index scan requires a filter");
                let rows = self.raw_rows(table_idx);
                match self.index_kind_for_filter(table_idx) {
                    IndexKind::Clustered => {
                        formulas::clustered_index_scan_cost(pages, rows, f.selectivity.mean())
                    }
                    IndexKind::Unclustered => {
                        formulas::unclustered_index_scan_cost(rows, f.selectivity.mean())
                    }
                    IndexKind::None => unreachable!("access_paths gates on index presence"),
                }
            }
        }
    }

    // ---- joins and sorts ------------------------------------------------

    /// Join cost at a specific memory value (the paper's `C(P, v)` for one
    /// operator); `outer`/`inner` in pages.
    pub fn join_cost(&self, method: JoinMethod, outer: f64, inner: f64, m: f64) -> f64 {
        self.count_eval();
        formulas::raw_join_cost(method, outer, inner, m)
    }

    /// Sort cost at a specific memory value.
    pub fn sort_cost(&self, pages: f64, m: f64) -> f64 {
        self.count_eval();
        formulas::sort_cost(pages, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_catalog::{ColumnStats, TableStats};
    use lec_plan::{ColumnRef, JoinPredicate, QueryTable};

    fn fixture() -> (Catalog, Query) {
        let mut cat = Catalog::new();
        let a = cat.add_table(
            "A",
            TableStats::new(
                1000,
                50_000,
                vec![
                    ColumnStats::indexed("pk", 50_000, IndexKind::Clustered),
                    ColumnStats::plain("x", 100),
                ],
            ),
        );
        let b = cat.add_table(
            "B",
            TableStats::new(500, 25_000, vec![ColumnStats::plain("y", 50)]),
        );
        let query = Query {
            tables: vec![
                QueryTable::filtered(a, 0, Distribution::point(0.1)),
                QueryTable::bare(b),
            ],
            joins: vec![JoinPredicate::exact(
                ColumnRef::new(0, 1),
                ColumnRef::new(1, 0),
                1e-4,
            )],
            required_order: None,
        };
        (cat, query)
    }

    #[test]
    fn base_pages_apply_filters() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        assert_eq!(m.base_pages(0), 100.0); // 1000 × 0.1
        assert_eq!(m.base_pages(1), 500.0);
        let d = m.base_pages_dist(0);
        assert!(d.is_point());
        assert_eq!(d.mean(), 100.0);
    }

    #[test]
    fn uncertain_filter_propagates_to_size_distribution() {
        let (cat, mut q) = fixture();
        q.tables[0].filter.as_mut().unwrap().selectivity =
            Distribution::bimodal(0.01, 0.5, 0.5).unwrap();
        let m = CostModel::new(&cat, &q);
        let d = m.base_pages_dist(0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.support(), &[10.0, 500.0]);
        assert_eq!(m.base_pages(0), 1000.0 * (0.01 + 0.5) / 2.0);
    }

    #[test]
    fn selectivity_product_over_connecting_predicates() {
        let (cat, mut q) = fixture();
        // Add a second predicate between the same pair.
        q.joins.push(JoinPredicate::exact(
            ColumnRef::new(0, 0),
            ColumnRef::new(1, 0),
            0.5,
        ));
        let m = CostModel::new(&cat, &q);
        let s = m.join_selectivity(TableSet::singleton(0), 1);
        assert!((s - 1e-4 * 0.5).abs() < 1e-18);
        let d = m.join_selectivity_dist(TableSet::singleton(0), 1);
        assert!(d.is_point());
        assert!((d.mean() - 5e-5).abs() < 1e-18);
    }

    #[test]
    fn access_paths_depend_on_indexes() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        // Table 0: clustered index on the filtered column.
        assert_eq!(
            m.access_paths(0),
            vec![AccessPath::SeqScan, AccessPath::IndexScan]
        );
        // Table 1: no filter, no index scan.
        assert_eq!(m.access_paths(1), vec![AccessPath::SeqScan]);
        // Index scan cheaper than full scan at 10% selectivity.
        assert!(m.access_cost(AccessPath::IndexScan, 0) < m.access_cost(AccessPath::SeqScan, 0));
    }

    #[test]
    fn eval_counter_counts_formula_calls() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        assert_eq!(m.evals(), 0);
        m.join_cost(JoinMethod::SortMerge, 100.0, 200.0, 50.0);
        m.sort_cost(100.0, 10.0);
        m.access_cost(AccessPath::SeqScan, 1);
        assert_eq!(m.evals(), 3);
        m.reset_evals();
        assert_eq!(m.evals(), 0);
    }

    #[test]
    fn join_cost_dispatch_matches_formulas() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        let (a, b, mem) = (1e6, 4e5, 700.0);
        assert_eq!(
            m.join_cost(JoinMethod::SortMerge, a, b, mem),
            crate::formulas::sm_join_cost(a, b, mem)
        );
        assert_eq!(
            m.join_cost(JoinMethod::GraceHash, a, b, mem),
            crate::formulas::grace_join_cost(a, b, mem)
        );
        assert_eq!(
            m.join_cost(JoinMethod::PageNestedLoop, a, b, mem),
            crate::formulas::nl_join_cost(a, b, mem)
        );
        assert_eq!(
            m.join_cost(JoinMethod::BlockNestedLoop, a, b, mem),
            crate::formulas::bnl_join_cost(a, b, mem)
        );
    }

    /// One of Algorithm D's memoized expectations: a grace-hash join of
    /// two two-bucket sizes under a two-bucket memory (four formula calls
    /// on a miss).
    fn dist_join(m: &CostModel<'_>) -> f64 {
        let a = Distribution::bimodal(1e4, 2e4, 0.5).unwrap();
        let b = Distribution::bimodal(3e3, 5e3, 0.5).unwrap();
        let mem = Distribution::bimodal(100.0, 300.0, 0.5).unwrap();
        let fp = dist_fingerprint;
        let mt = PrefixTables::new(&mem);
        m.expected_join_cost_for(
            JoinMethod::GraceHash,
            &a,
            fp(&a),
            &b,
            fp(&b),
            &mem,
            fp(&mem),
            &mt,
        )
    }

    #[test]
    fn disabled_cache_matches_enabled_values() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        let cached = dist_join(&m);
        m.set_eval_cache(false);
        m.reset_evals();
        let raw = dist_join(&m);
        dist_join(&m);
        assert_eq!(cached.to_bits(), raw.to_bits());
        assert_eq!(m.evals(), 8, "disabled cache evaluates every call");
        assert_eq!(m.eval_cache_hits(), 0);
    }

    #[test]
    fn disabling_the_cache_resets_the_hit_counter() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        dist_join(&m);
        dist_join(&m);
        assert_eq!(m.eval_cache_hits(), 1);
        assert!(m.eval_cache_len() > 0);
        m.set_eval_cache(false);
        assert_eq!(m.eval_cache_hits(), 0, "toggle must reset cache_hits");
        assert_eq!(m.eval_cache_len(), 0, "toggle must clear every shard");
        // Re-enabling starts from a clean slate too.
        m.set_eval_cache(true);
        assert_eq!(m.eval_cache_hits(), 0);
        assert_eq!(m.eval_cache_len(), 0);
    }

    #[test]
    fn a_panicking_compute_leaves_no_entry_and_no_borrow() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        let key = || {
            EvalKey::new(
                EvalOp::DistJoin(JoinMethod::SortMerge),
                dist_fingerprint(&Distribution::point(50.0)),
                dist_fingerprint(&Distribution::point(100.0)),
                dist_fingerprint(&Distribution::point(200.0)),
            )
        };
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.cached(key(), || panic!("the formula blew up"))
        }));
        assert!(died.is_err());
        assert_eq!(m.eval_cache_len(), 0, "the dead compute left no entry");
        // Same key, same shard: a miss that computes (its insert would
        // panic on an outstanding borrow), then a hit.
        assert_eq!(m.cached(key(), || 7.0), 7.0);
        assert_eq!(m.cached(key(), || unreachable!("memoized")), 7.0);
        assert_eq!(m.eval_cache_hits(), 1);
    }

    /// The hash decides shard and bucket, and both are tuned against: a
    /// change that moves these values is a performance change.
    #[test]
    fn eval_key_hashes_are_pinned() {
        for (op, hash) in [
            (
                EvalOp::DistJoin(JoinMethod::GraceHash),
                0xDD1401E8210D59F3_u64,
            ),
            (EvalOp::DistSort, 0x25ABE29D9817E7CB),
        ] {
            assert_eq!(EvalKey::new(op, 1, 2, 3).hash, hash, "{op:?}");
        }
    }

    #[test]
    fn expected_cost_cache_counts_paper_eval_units() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        let a = Distribution::bimodal(100.0, 200.0, 0.5).unwrap();
        let b = Distribution::bimodal(50.0, 80.0, 0.5).unwrap();
        let mem = Distribution::bimodal(10.0, 1000.0, 0.5).unwrap();
        let mt = lec_prob::PrefixTables::new(&mem);
        let mem_fp = dist_fingerprint(&mem);
        let (a_fp, b_fp) = (dist_fingerprint(&a), dist_fingerprint(&b));
        let join = |method| m.expected_join_cost_for(method, &a, a_fp, &b, b_fp, &mem, mem_fp, &mt);
        m.reset_evals();
        let ec = join(JoinMethod::SortMerge);
        assert_eq!(m.evals(), 4, "streaming SM is linear in bucket counts");
        let replay = crate::expected::expected_join_cost(JoinMethod::SortMerge, &a, &b, &mem, &mt);
        assert_eq!(ec, replay);
        join(JoinMethod::SortMerge);
        assert_eq!(m.evals(), 4, "second call is a cache hit");
        m.reset_evals();
        join(JoinMethod::BlockNestedLoop);
        assert_eq!(m.evals(), 8, "BNL falls back to the b_A*b_B*b_M triple sum");
        m.reset_evals();
        m.expected_sort_cost_for(&a, a_fp, mem_fp, &mt);
        assert_eq!(m.evals(), 2);
    }

    #[test]
    fn output_pages_clamped() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        assert_eq!(m.join_output_pages(100.0, 500.0, 1e-4), 5.0);
        assert_eq!(m.join_output_pages(10.0, 10.0, 1e-9), 1.0);
    }
}
