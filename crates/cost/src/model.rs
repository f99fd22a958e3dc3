//! The query-aware cost model: effective sizes, selectivities, and cost
//! dispatch, with an evaluation counter for the paper's complexity claims.

use crate::formulas;
use lec_catalog::{Catalog, IndexKind};
use lec_plan::{ColumnEquivalences, JoinMethod, Query, TableSet};
use lec_prob::{Distribution, PrefixTables};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// How a base table is accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Heap scan.
    SeqScan,
    /// Scan through the index matching the table's local filter.
    IndexScan,
}

/// Operator discriminant for [`EvalKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum EvalOp {
    /// Point join cost of one method.
    Join(JoinMethod),
    /// Point sort cost.
    Sort,
    /// Expected join cost of point-sized inputs over a memory
    /// distribution (Algorithms B/C): one cache entry stands for a whole
    /// `b`-bucket expectation.
    ExpectedJoinOver(JoinMethod),
    /// Expected sort cost of a point-sized input over a memory
    /// distribution.
    ExpectedSortOver,
    /// Expected join cost over size + memory distributions (Algorithm D).
    ExpectedJoin(JoinMethod),
    /// Expected sort cost over size + memory distributions.
    ExpectedSort,
}

impl EvalOp {
    /// Whether this operator lives in the *expectation* tier of the cache
    /// (see [`ShardedEvalCache`] for why the two tiers keep separate shard
    /// arrays).
    fn is_expectation(self) -> bool {
        !matches!(self, EvalOp::Join(_) | EvalOp::Sort)
    }
}

/// FxHash — the rustc-style multiply-rotate hasher.  [`EvalKey`] lookups
/// sit on the engine's innermost loop, where the default SipHash costs
/// more than the cost formulas it would be saving.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    fn finish(&self) -> u64 {
        self.hash
    }
}

impl FxHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(0x517CC1B727220A95);
    }
}

type EvalMap = HashMap<EvalKey, f64, std::hash::BuildHasherDefault<FxHasher>>;

/// Number of lock shards per cache tier.  Power of two; large enough that
/// a handful of search threads rarely collide, small enough that clearing
/// and summing stay trivial.
const EVAL_SHARDS: usize = 32;

/// The thread-safe evaluation cache: two arrays of `Mutex`-guarded map
/// shards, selected by the FxHash of the [`EvalKey`].
///
/// Shard locks are held for the whole compute of a miss — that is what
/// makes every key evaluate **exactly once** even under concurrency,
/// keeping [`CostModel::evals`] identical between serial and parallel
/// searches.  Point and expectation keys live in separate tiers so the
/// two workloads never contend: the point tier serves the classical
/// point-coster's per-candidate probes, the expectation tier the whole
/// `b`-bucket expectations of Algorithms C/D.  An expectation miss
/// evaluates its buckets through the raw formulas rather than the point
/// tier — per-bucket values of a `b`-bucket expectation are never probed
/// individually again, so memoizing them one by one was pure write
/// traffic (it grew the cache by `b` locked inserts per miss and
/// dominated dense-search wall time), and computing them directly charges
/// the same `b` formula evaluations while taking no nested locks.
struct ShardedEvalCache {
    point: [Mutex<EvalMap>; EVAL_SHARDS],
    expectation: [Mutex<EvalMap>; EVAL_SHARDS],
}

impl ShardedEvalCache {
    fn new() -> Self {
        ShardedEvalCache {
            point: std::array::from_fn(|_| Mutex::new(EvalMap::default())),
            expectation: std::array::from_fn(|_| Mutex::new(EvalMap::default())),
        }
    }

    /// Lock the shard responsible for `key`.  Mutex poisoning is ignored:
    /// a worker that panicked mid-compute never inserted its entry, so the
    /// map itself is always consistent and recovery is safe.
    fn shard(&self, key: &EvalKey) -> MutexGuard<'_, EvalMap> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        // The final multiply pushes entropy to the high bits; index there.
        let idx = (h.finish() >> (64 - EVAL_SHARDS.trailing_zeros())) as usize;
        let tier = if key.op.is_expectation() {
            &self.expectation
        } else {
            &self.point
        };
        tier[idx].lock().unwrap_or_else(|e| e.into_inner())
    }

    fn for_each_shard(&self, mut f: impl FnMut(MutexGuard<'_, EvalMap>)) {
        for shard in self.point.iter().chain(self.expectation.iter()) {
            f(shard.lock().unwrap_or_else(|e| e.into_inner()));
        }
    }
}

impl std::fmt::Debug for ShardedEvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEvalCache")
            .field("shards", &(2 * EVAL_SHARDS))
            .finish()
    }
}

/// Memoization key for one memory-dependent operator evaluation: the
/// operator, the memory ingredient (bucket value or distribution
/// fingerprint), and the exact operand sizes (point pages or distribution
/// fingerprints).
///
/// The key is exactly the tuple the cost formulas read — and nothing
/// more.  Every compute behind [`CostModel::cached`] is a pure function
/// of `(op, mem, outer, inner)`; the operand *table sets* never enter a
/// formula, so keying on them would only relabel identical computations
/// as distinct.  On dense join graphs the distinction is enormous: a
/// 15-table star probes ~900k `(sets, sizes)` pairs but only a few
/// thousand distinct `(sizes)` tuples — set-free keys turn the cache
/// from a net loss (insert traffic, hash pressure) into a ~99% hit rate.
/// The sizes must participate, though: the one-page clamp in
/// `join_output_pages` can make entries of the same subset built through
/// different splits carry different sizes, so sizes — not sets — are
/// what keeps the cache exact rather than approximate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct EvalKey {
    op: EvalOp,
    mem: u64,
    outer: u64,
    inner: u64,
}

/// An incremental 64-bit FNV-1a fingerprint over exact bit patterns: the
/// shared hashing primitive behind every cross-query cache key (model
/// state, memory distributions, optimizer modes, canonical query shapes).
///
/// Builder-style so key assembly reads as a pipeline:
///
/// ```
/// let fp = lec_cost::Fingerprint::new().u64(3).f64(0.25).finish();
/// assert_ne!(fp, lec_cost::Fingerprint::new().f64(0.25).u64(3).finish());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Start from the FNV-1a offset basis.
    pub fn new() -> Self {
        Fingerprint(0xCBF29CE484222325)
    }

    /// Absorb raw bytes.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001B3);
        }
        self
    }

    /// Absorb a `u64`.
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Absorb an `f64` by exact bit pattern (`-0.0` and `0.0` differ; every
    /// NaN payload is its own value — cache keys must never conflate
    /// almost-equal floats).
    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    /// Absorb a distribution's exact contents.
    pub fn dist(self, d: &Distribution) -> Self {
        d.iter().fold(self, |fp, (v, p)| fp.f64(v).f64(p))
    }

    /// The accumulated fingerprint.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

/// 64-bit FNV-1a fingerprint of a distribution's exact contents, used to
/// key the expected-cost caches.
pub fn dist_fingerprint(d: &Distribution) -> u64 {
    Fingerprint::new().dist(d).finish()
}

/// The lock stripe responsible for a multi-word cache key: a
/// [`Fingerprint`] fold mapped onto `0..n_shards` by multiply-shift
/// (uniform for any shard count, no power-of-two requirement).  Shared by
/// every sharded cross-query cache (the serving layer's plan cache) so
/// stripe selection lives in one place.
pub fn shard_index(key: &[u64], n_shards: usize) -> usize {
    let h = key
        .iter()
        .fold(Fingerprint::new(), |fp, &w| fp.u64(w))
        .finish();
    ((h as u128 * n_shards as u128) >> 64) as usize
}

/// Remove and return the key of the least-recently-used entry of one
/// cache shard, per `last_used`'s reading of the shard's LRU clock.  The
/// scan is `O(shard len)` — shards are small slices of a bounded
/// capacity, and eviction only runs when a shard is full.
pub fn evict_coldest<V, S: std::hash::BuildHasher>(
    map: &mut HashMap<Box<[u64]>, V, S>,
    last_used: impl Fn(&V) -> u64,
) -> Option<Box<[u64]>> {
    let victim = map
        .iter()
        .min_by_key(|(_, v)| last_used(v))
        .map(|(k, _)| k.clone())?;
    map.remove(&victim);
    Some(victim)
}

/// Label-independent fingerprint of one table *occurrence* in a query:
/// the stored table's statistics fingerprint plus the occurrence's filter
/// (column and selectivity distribution).  The free-function form of
/// [`CostModel::table_shape_fingerprint`], for callers that have no model
/// (e.g. cache-key canonicalization).
pub fn table_occurrence_fingerprint(catalog: &Catalog, query: &Query, idx: usize) -> u64 {
    let qt = &query.tables[idx];
    let fp = Fingerprint::new().u64(table_stats_fingerprint(&catalog.table(qt.table).stats));
    match &qt.filter {
        Some(f) => fp.u64(1).u64(f.column as u64).dist(&f.selectivity),
        None => fp.u64(0),
    }
    .finish()
}

/// Fingerprint of everything in one table's statistics that the cost
/// model can observe: pages, rows, the optional page-count distribution,
/// and each column's distinct count and index kind (names are display
/// only).  This is the per-table ingredient of cross-query cache keys —
/// two tables with equal fingerprints are interchangeable to the DP.
pub fn table_stats_fingerprint(stats: &lec_catalog::TableStats) -> u64 {
    let mut fp = Fingerprint::new().u64(stats.pages).u64(stats.rows);
    fp = match &stats.page_dist {
        Some(d) => fp.u64(1).dist(d),
        None => fp.u64(0),
    };
    fp = fp.u64(stats.columns.len() as u64);
    for col in &stats.columns {
        let kind = match col.index {
            IndexKind::None => 0u64,
            IndexKind::Clustered => 1,
            IndexKind::Unclustered => 2,
        };
        fp = fp.u64(col.distinct).u64(kind);
    }
    fp.finish()
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
/// The `*_for` methods additionally memoize evaluations in a cache keyed by
/// `(operator, memory bucket, operand sizes)`, so the repeated
/// per-bucket evaluations the DP algorithms perform across entry pairs and
/// DP levels are computed once; cache hits do not increment the evaluation
/// counter (they perform no formula work), which is exactly the reduction
/// [`CostModel::evals`] is meant to expose.  The cache is on by default and
/// can be disabled with [`CostModel::set_eval_cache`] for apples-to-apples
/// overhead measurements.
///
/// # Thread safety
///
/// A search runs on the thread that asked for it and builds its own
/// model, so nothing shares a `CostModel` across threads and the shard
/// locks of [`ShardedEvalCache`] are never contended.  The 2 × 32 mutex
/// shards and atomic counters stay because the obvious replacement
/// measured worse where it counts: one unlocked table per
/// model was 7–14% faster on the ledger's `cold_mix` / `large_joins`
/// workloads but raised `cold_mix` peak RSS by 6% (bound 5%) — a single
/// large map's resize transient outweighs 64 small ones in a 5 MiB
/// process.  Flattening the cache needs a design that avoids that
/// transient (ROADMAP open item 2).  A shard lock is held across the
/// compute of a miss and poisoning is ignored, so a compute that panics
/// leaves the map without the entry and the model usable.
#[derive(Debug)]
pub struct CostModel<'a> {
    catalog: &'a Catalog,
    query: &'a Query,
    equivalences: ColumnEquivalences,
    /// Per-table [`table_occurrence_fingerprint`]s, precomputed so the
    /// engine's tie-breaks are an array lookup rather than a rehash.
    table_shapes: Vec<u64>,
    evals: AtomicU64,
    eval_cache: ShardedEvalCache,
    cache_enabled: AtomicBool,
    cache_hits: AtomicU64,
    /// When installed, expectation-tier cache misses time their compute
    /// into `telemetry.eval_compute_ns`.  `None` (the default) keeps the
    /// hot path a single branch.
    telemetry: Option<Arc<lec_telemetry::EngineTelemetry>>,
}

impl<'a> CostModel<'a> {
    /// Bind the model to a query.
    pub fn new(catalog: &'a Catalog, query: &'a Query) -> Self {
        CostModel {
            catalog,
            query,
            equivalences: ColumnEquivalences::for_query(query),
            table_shapes: (0..query.n_tables())
                .map(|i| table_occurrence_fingerprint(catalog, query, i))
                .collect(),
            evals: AtomicU64::new(0),
            eval_cache: ShardedEvalCache::new(),
            cache_enabled: AtomicBool::new(true),
            cache_hits: AtomicU64::new(0),
            telemetry: None,
        }
    }

    /// Install (or remove) engine telemetry: expectation-tier cache-miss
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
        self.evals.load(Ordering::Relaxed)
    }

    /// Reset the evaluation counter.
    pub fn reset_evals(&self) {
        self.evals.store(0, Ordering::Relaxed);
    }

    fn count_eval(&self) {
        self.evals.fetch_add(1, Ordering::Relaxed);
    }

    fn count_evals(&self, n: u64) {
        self.evals.fetch_add(n, Ordering::Relaxed);
    }

    // ---- evaluation cache -----------------------------------------------

    /// Enable or disable the memoized evaluation cache used by the `*_for`
    /// methods.  Toggling (in either direction) clears every shard of the
    /// cache **and resets the hit counter**, so measurements taken after a
    /// toggle never mix cached and uncached regimes.
    ///
    /// Interaction with the sharded cache: the toggle is read with relaxed
    /// atomics on the hot path and the shards are cleared one lock at a
    /// time, so this method must not race a running search — toggle
    /// between searches, as the benchmarks and tests do.  A search running
    /// concurrently with a toggle would see a mix of cached and uncached
    /// answers (all *correct*, since entries are pure function values, but
    /// the `evals`/`cache_hits` counters would no longer be reproducible).
    pub fn set_eval_cache(&self, enabled: bool) {
        self.cache_enabled.store(enabled, Ordering::Relaxed);
        self.eval_cache.for_each_shard(|mut shard| shard.clear());
        self.cache_hits.store(0, Ordering::Relaxed);
    }

    /// Whether the evaluation cache is active.
    pub fn eval_cache_enabled(&self) -> bool {
        self.cache_enabled.load(Ordering::Relaxed)
    }

    /// Number of evaluations answered from the cache (no formula work).
    pub fn eval_cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Number of distinct evaluations currently memoized.
    pub fn eval_cache_len(&self) -> usize {
        let mut total = 0;
        self.eval_cache.for_each_shard(|shard| total += shard.len());
        total
    }

    fn cached(&self, key: EvalKey, compute: impl FnOnce() -> f64) -> f64 {
        if !self.cache_enabled.load(Ordering::Relaxed) {
            return compute();
        }
        let mut shard = self.eval_cache.shard(&key);
        if let Some(&v) = shard.get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        // Compute while holding the shard lock: concurrent threads racing
        // on the same key serialize here, and the loser scores a hit
        // instead of re-evaluating — the exactly-once guarantee that makes
        // the evaluation counters schedule-independent.
        let v = match &self.telemetry {
            Some(t) if key.op.is_expectation() => {
                let t0 = std::time::Instant::now();
                let v = compute();
                t.eval_compute_ns.record_duration(t0.elapsed());
                v
            }
            _ => compute(),
        };
        shard.insert(key, v);
        v
    }

    /// [`CostModel::join_cost`] memoized under `(method, m, sizes)` — the
    /// per-bucket evaluation unit of Algorithms B/C (see [`EvalKey`]).
    pub fn join_cost_for(&self, method: JoinMethod, outer: f64, inner: f64, m: f64) -> f64 {
        let key = EvalKey {
            op: EvalOp::Join(method),
            mem: m.to_bits(),
            outer: outer.to_bits(),
            inner: inner.to_bits(),
        };
        self.cached(key, || self.join_cost(method, outer, inner, m))
    }

    /// [`CostModel::sort_cost`] memoized under `(m, pages)`.
    pub fn sort_cost_for(&self, pages: f64, m: f64) -> f64 {
        let key = EvalKey {
            op: EvalOp::Sort,
            mem: m.to_bits(),
            outer: pages.to_bits(),
            inner: 0,
        };
        self.cached(key, || self.sort_cost(pages, m))
    }

    /// Expected join cost of *point-sized* inputs over a memory
    /// distribution — the whole `b`-bucket expectation of Algorithms B/C
    /// as one cache entry.  `mem_fp` is the distribution's
    /// [`dist_fingerprint`], precomputed by the caller so the hot path
    /// never rehashes the distribution.  On a miss the per-bucket
    /// evaluations compute through the raw formulas (each one counted, per
    /// §3.4's "b evaluations of the cost formula") without touching the
    /// point tier — see [`ShardedEvalCache`].
    pub fn expected_join_cost_over(
        &self,
        method: JoinMethod,
        outer: f64,
        inner: f64,
        memory: &Distribution,
        mem_fp: u64,
    ) -> f64 {
        let key = EvalKey {
            op: EvalOp::ExpectedJoinOver(method),
            mem: mem_fp,
            outer: outer.to_bits(),
            inner: inner.to_bits(),
        };
        self.cached(key, || {
            memory.expect(|m| self.join_cost(method, outer, inner, m))
        })
    }

    /// Expected sort cost of a point-sized input over a memory
    /// distribution, memoized like [`CostModel::expected_join_cost_over`].
    pub fn expected_sort_cost_over(&self, pages: f64, memory: &Distribution, mem_fp: u64) -> f64 {
        let key = EvalKey {
            op: EvalOp::ExpectedSortOver,
            mem: mem_fp,
            outer: pages.to_bits(),
            inner: 0,
        };
        self.cached(key, || memory.expect(|m| self.sort_cost(pages, m)))
    }

    /// Expected join cost over size and memory distributions (Algorithm
    /// D's per-method costing step), memoized under the method and the
    /// distribution fingerprints.  `m_fp` is the memory distribution's
    /// [`dist_fingerprint`], precomputed by the caller — the memory
    /// distribution is constant for a whole run, so the hot path never
    /// rehashes it.  Counts the §3.6.1/§3.6.2 number of
    /// cost-formula evaluations on a miss: linear in the bucket counts for
    /// the separable methods, the full `b_A·b_B·b_M` triple product for
    /// block nested-loop.
    pub fn expected_join_cost_for(
        &self,
        method: JoinMethod,
        a_dist: &Distribution,
        b_dist: &Distribution,
        m_dist: &Distribution,
        m_fp: u64,
        m_tables: &PrefixTables,
    ) -> f64 {
        let key = EvalKey {
            op: EvalOp::ExpectedJoin(method),
            mem: m_fp,
            outer: dist_fingerprint(a_dist),
            inner: dist_fingerprint(b_dist),
        };
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
        m_fp: u64,
        m_tables: &PrefixTables,
    ) -> f64 {
        let key = EvalKey {
            op: EvalOp::ExpectedSort,
            mem: m_fp,
            outer: dist_fingerprint(r_dist),
            inner: 0,
        };
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
        let qt = &self.query.tables[table_idx];
        let pages = self.raw_pages(table_idx);
        match &qt.filter {
            Some(f) => (pages * f.selectivity.mean()).max(formulas::MIN_PAGES),
            None => pages,
        }
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
        self.query
            .joins_connecting(set, idx)
            .iter()
            .map(|&i| self.query.joins[i].selectivity.mean())
            .product()
    }

    /// Distribution of the combined selectivity (`Pr(σ)` in Figure 1).
    pub fn join_selectivity_dist(&self, set: TableSet, idx: usize) -> Distribution {
        let mut dist = Distribution::point(1.0);
        for &i in &self.query.joins_connecting(set, idx) {
            dist = dist.product(&self.query.joins[i].selectivity);
        }
        dist
    }

    /// Distribution of the combined selectivity of all predicates crossing
    /// two disjoint table sets (the `Pr(σ)` of Figure 1 in bushy-capable
    /// form).
    pub fn join_selectivity_dist_sets(&self, a: TableSet, b: TableSet) -> Distribution {
        let mut dist = Distribution::point(1.0);
        for &i in &self.query.joins_crossing(a, b) {
            dist = dist.product(&self.query.joins[i].selectivity);
        }
        dist
    }

    /// Point (mean) combined selectivity of all predicates crossing two
    /// disjoint table sets (general form used when costing arbitrary trees).
    pub fn join_selectivity_sets(&self, a: TableSet, b: TableSet) -> f64 {
        self.query
            .joins_crossing(a, b)
            .iter()
            .map(|&i| self.query.joins[i].selectivity.mean())
            .product()
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

    #[test]
    fn eval_cache_hits_skip_the_counter() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        let first = m.join_cost_for(JoinMethod::SortMerge, 100.0, 200.0, 50.0);
        assert_eq!(m.evals(), 1);
        assert_eq!(m.eval_cache_hits(), 0);
        let again = m.join_cost_for(JoinMethod::SortMerge, 100.0, 200.0, 50.0);
        assert_eq!(first, again);
        assert_eq!(m.evals(), 1, "hit must not re-evaluate");
        assert_eq!(m.eval_cache_hits(), 1);
        // A different memory bucket is a different key.
        m.join_cost_for(JoinMethod::SortMerge, 100.0, 200.0, 60.0);
        assert_eq!(m.evals(), 2);
        // Sort shares the machinery.
        m.sort_cost_for(100.0, 10.0);
        m.sort_cost_for(100.0, 10.0);
        assert_eq!(m.evals(), 3);
        assert_eq!(m.eval_cache_hits(), 2);
    }

    #[test]
    fn disabled_cache_matches_enabled_values() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        let cached = m.join_cost_for(JoinMethod::GraceHash, 1e4, 2e4, 300.0);
        m.set_eval_cache(false);
        m.reset_evals();
        let raw = m.join_cost_for(JoinMethod::GraceHash, 1e4, 2e4, 300.0);
        m.join_cost_for(JoinMethod::GraceHash, 1e4, 2e4, 300.0);
        assert_eq!(cached, raw);
        assert_eq!(m.evals(), 2, "disabled cache evaluates every call");
        assert_eq!(m.eval_cache_hits(), 0);
    }

    #[test]
    fn disabling_the_cache_resets_the_hit_counter() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        m.join_cost_for(JoinMethod::GraceHash, 1e4, 2e4, 300.0);
        m.join_cost_for(JoinMethod::GraceHash, 1e4, 2e4, 300.0);
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
    fn a_panicking_compute_leaves_its_shard_usable() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        let key = || EvalKey {
            op: EvalOp::Join(JoinMethod::SortMerge),
            mem: 50f64.to_bits(),
            outer: 100f64.to_bits(),
            inner: 200f64.to_bits(),
        };
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.cached(key(), || panic!("the formula blew up"))
        }));
        assert!(died.is_err());
        assert_eq!(m.eval_cache_len(), 0, "the dead compute left no entry");
        // Same key, same (now poisoned) shard: a miss that computes, then a hit.
        assert_eq!(m.cached(key(), || 7.0), 7.0);
        assert_eq!(m.cached(key(), || unreachable!("memoized")), 7.0);
        assert_eq!(m.eval_cache_hits(), 1);
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
        m.reset_evals();
        let ec = m.expected_join_cost_for(JoinMethod::SortMerge, &a, &b, &mem, mem_fp, &mt);
        assert_eq!(m.evals(), 4, "streaming SM is linear in bucket counts");
        let replay = crate::expected::expected_join_cost(JoinMethod::SortMerge, &a, &b, &mem, &mt);
        assert_eq!(ec, replay);
        m.expected_join_cost_for(JoinMethod::SortMerge, &a, &b, &mem, mem_fp, &mt);
        assert_eq!(m.evals(), 4, "second call is a cache hit");
        m.reset_evals();
        m.expected_join_cost_for(JoinMethod::BlockNestedLoop, &a, &b, &mem, mem_fp, &mt);
        assert_eq!(m.evals(), 8, "BNL falls back to the b_A*b_B*b_M triple sum");
        m.reset_evals();
        m.expected_sort_cost_for(&a, mem_fp, &mt);
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
