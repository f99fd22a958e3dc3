//! The one DP driver.  Everything that enumerates subsets lives here —
//! no optimizer module outside `search/` walks the dag itself.
//!
//! Two drivers share one recursion: [`run_search`] is the serial
//! reference implementation, and [`run_search_with`] fans each DP level
//! out across a pool of scoped worker threads (see [`SearchConfig`]).
//! The parallel driver is **deterministic**: subsets at one level are
//! independent (their splits only read completed lower levels), each
//! subset is combined wholly by one worker in the same split/pair/method
//! order as the serial driver, worker results are merged at a level
//! barrier, and the evaluation cache computes every distinct key exactly
//! once — so plans, costs, tie-breaks, and all counters are byte-identical
//! to a serial run.

use super::bound::{point_size_product, PruneState};
use super::policy::{CandidatePolicy, JoinContext, RootContext, SearchEntry};
use super::pool::{ScopedSpawnPool, WorkerPool};
use super::SearchStats;
use crate::error::OptError;
use lec_cost::CostModel;
use lec_plan::{Query, TableSet};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

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
    /// The ordered operand splits of `set`, cross products excluded.
    fn splits(self, query: &Query, set: TableSet) -> Vec<(TableSet, TableSet)> {
        match self {
            PlanShape::LeftDeep => set
                .iter()
                .filter_map(|j| {
                    let left = set.without(j);
                    query
                        .is_connected_to(left, j)
                        .then_some((left, TableSet::singleton(j)))
                })
                .collect(),
            PlanShape::Bushy => {
                let bits = set.bits();
                let mut out = Vec::new();
                // Walk all non-empty proper subsets via the standard trick.
                let mut sub = (bits - 1) & bits;
                while sub != 0 {
                    let left = TableSet::from_bits(sub);
                    let right = TableSet::from_bits(bits & !sub);
                    if !query.joins_crossing(left, right).is_empty() {
                        out.push((left, right));
                    }
                    sub = (sub - 1) & bits;
                }
                out
            }
        }
    }
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

impl<E: SearchEntry> SearchRun<E> {
    /// The cheapest finalized candidate.
    pub fn best(&self) -> &E {
        self.roots
            .iter()
            .min_by(|a, b| a.cost().total_cmp(&b.cost()))
            .expect("run_search guarantees a non-empty root list")
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
    let query = model.query();
    let n = query.n_tables();
    if n == 0 {
        return 0;
    }
    let n_methods = lec_plan::JoinMethod::ALL.len() as u128;
    let mut counts: HashMap<TableSet, u128> = HashMap::new();
    for idx in 0..n {
        counts.insert(
            TableSet::singleton(idx),
            model.access_paths(idx).len() as u128,
        );
    }
    for k in 2..=n {
        for set in TableSet::subsets_of_size(n, k) {
            let mut total: u128 = 0;
            for (left, right) in shape.splits(query, set) {
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

/// Default [`SearchConfig::fanout_threshold`]: the widest DP level must
/// carry at least this many *connected* (work-bearing) subsets before the
/// engine spawns workers.  28 is between the widest levels of fully
/// dense 6-table (20) and 7-table (35) queries: below that, one search
/// runs in well under 100µs and thread spawn overhead would dominate.
/// Sparse shapes gate on their real width — an 8-table chain (widest
/// connected level: 5) stays serial at any size the scan covers.
pub const DEFAULT_FANOUT_THRESHOLD: usize = 28;

/// Tuning knobs for the parallel DP driver ([`run_search_with`]).
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Total search threads, including the calling thread.  `0` resolves
    /// to [`std::thread::available_parallelism`]; `1` forces the serial
    /// driver (exactly the [`run_search`] code path).
    pub threads: usize,
    /// Minimum number of subsets the widest DP level must have before the
    /// engine fans out at all (small searches stay serial).
    pub fanout_threshold: usize,
    /// Minimum cost-formula evaluations one candidate must need before
    /// its bucket expectation is itself fanned out (the inner hot loop of
    /// Algorithms C/D); forwarded to the costers as
    /// [`lec_cost::BucketParallelism::min_evals`].
    pub bucket_evals_threshold: usize,
    /// Where the level fan-out's worker threads come from.  `None` spawns
    /// a scoped pool per search (the zero-standing-cost default); a
    /// [`super::PersistentPool`] shares long-lived parked threads across
    /// searches, cutting per-search dispatch from ~50µs to a few µs.  The
    /// pool choice never affects results — outcomes are byte-identical
    /// either way.
    pub pool: Option<Arc<dyn WorkerPool>>,
    /// Branch-and-bound pruning (see the module docs of
    /// [`super::bound`]): maintain an incumbent complete-plan cost and
    /// discard a connected subset before its combine/cost loop when an
    /// admissible lower bound on any completion through it strictly
    /// exceeds the incumbent.  Takes effect only when the active policy
    /// opts in with an admissible bound
    /// ([`CandidatePolicy::pruning_bound`]) — keep-best, multi-param and
    /// keep-all do; top-c bypasses.  Pruned searches return answers
    /// byte-identical (plans, cost bits) to unpruned ones; only work
    /// counters ([`SearchStats::pruned_subsets`],
    /// [`SearchStats::bound_evals`], `candidates`, `evals`, `nodes`,
    /// `cache_hits`) differ.
    pub pruning: bool,
    /// Optional engine-internal telemetry
    /// ([`lec_telemetry::EngineTelemetry`]): when installed, the drivers
    /// time each DP level's combine pass and every bound evaluation into
    /// its histograms.  Purely observational — results and all work
    /// counters are byte-identical with or without it, so like the pool
    /// it does not participate in [`SearchConfig::fingerprint`].
    pub telemetry: Option<Arc<lec_telemetry::EngineTelemetry>>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            threads: 0,
            fanout_threshold: DEFAULT_FANOUT_THRESHOLD,
            bucket_evals_threshold: lec_cost::DEFAULT_MIN_PARALLEL_EVALS,
            pool: None,
            pruning: false,
            telemetry: None,
        }
    }
}

impl PartialEq for SearchConfig {
    fn eq(&self, other: &Self) -> bool {
        self.threads == other.threads
            && self.fanout_threshold == other.fanout_threshold
            && self.bucket_evals_threshold == other.bucket_evals_threshold
            && match (&self.pool, &other.pool) {
                (None, None) => true,
                (Some(a), Some(b)) => {
                    // Same pool instance (vtable-independent data-pointer
                    // comparison; Arc::ptr_eq on dyn Trait compares
                    // vtables too, which is not what "same pool" means).
                    std::ptr::addr_eq(Arc::as_ptr(a), Arc::as_ptr(b))
                }
                _ => false,
            }
            && self.pruning == other.pruning
            && match (&self.telemetry, &other.telemetry) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl Eq for SearchConfig {}

impl SearchConfig {
    /// A configuration that always takes the serial driver.
    pub fn serial() -> Self {
        SearchConfig {
            threads: 1,
            ..Default::default()
        }
    }

    /// A configuration with an explicit thread count and default
    /// thresholds.
    pub fn with_threads(threads: usize) -> Self {
        SearchConfig {
            threads,
            ..Default::default()
        }
    }

    /// This configuration with a shared worker pool installed; also drops
    /// the fan-out gate to [`super::pool::PERSISTENT_FANOUT_THRESHOLD`]
    /// when the current threshold is the spawn-pool default, since waking
    /// a parked worker is an order of magnitude cheaper than spawning one.
    pub fn with_pool(mut self, pool: Arc<dyn WorkerPool>) -> Self {
        if self.fanout_threshold == DEFAULT_FANOUT_THRESHOLD {
            self.fanout_threshold = super::pool::PERSISTENT_FANOUT_THRESHOLD;
        }
        self.pool = Some(pool);
        self
    }

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

    /// Stable fingerprint of the outcome-relevant knobs, for cross-query
    /// plan-cache keys.  The pool is a thread *source*, not a semantic
    /// knob (results are byte-identical with or without it), so it does
    /// not participate; pruning is excluded for the same reason — it
    /// discards only strictly-worse candidates, so the answer a cache key
    /// names is identical either way.  Telemetry is pure observation and
    /// is excluded likewise.
    pub fn fingerprint(&self) -> u64 {
        lec_cost::Fingerprint::new()
            .u64(self.threads as u64)
            .u64(self.fanout_threshold as u64)
            .u64(self.bucket_evals_threshold as u64)
            .finish()
    }

    /// The resolved thread count: `threads`, or the machine's available
    /// parallelism when `threads == 0`.
    pub fn effective_threads(&self) -> usize {
        if self.threads != 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }

    /// The per-candidate bucket fan-out policy implied by this config for
    /// `query`, for handing to the expectation costers.
    ///
    /// The two fan-out axes are **exclusive**: when the level fan-out
    /// engages ([`SearchConfig::fans_out`]), bucket evaluation stays
    /// serial — otherwise every DP worker could spawn its own bucket
    /// scope (`threads²` live threads), and it would do so while holding
    /// an eval-cache shard lock that other DP workers may want.  Bucket
    /// fan-out is the fallback axis for narrow-but-deep searches the
    /// level fan-out cannot help.
    pub fn bucket_parallelism_for(&self, query: &Query) -> lec_cost::BucketParallelism {
        if self.fans_out(query) {
            lec_cost::BucketParallelism::serial()
        } else {
            lec_cost::BucketParallelism {
                threads: self.effective_threads(),
                min_evals: self.bucket_evals_threshold,
            }
        }
    }

    /// Whether a search over `query` fans out under this config: more
    /// than one resolved thread and at least `fanout_threshold` subsets
    /// of *actual work* at the widest DP level.
    ///
    /// Raw subset counts are the wrong gauge for sparse join graphs — an
    /// 8-table chain has `C(8,4) = 70` subsets at its widest level but
    /// only 5 connected ones (contiguous runs) that produce candidates —
    /// so for queries small enough to scan (`n ≤ 12`, a few µs) this
    /// counts *connected* subsets per level exactly and gates on that.
    /// Larger queries fall back to the binomial upper bound: there, the
    /// subset enumeration itself is the dominant cost and parallelizes
    /// regardless of topology.
    pub fn fans_out(&self, query: &Query) -> bool {
        if self.effective_threads() <= 1 {
            return false;
        }
        let n = query.n_tables();
        let threshold = self.fanout_threshold as u128;
        // Cheap upper bound first: connected subsets per level can never
        // beat the binomial.
        if widest_level(n) < threshold {
            return false;
        }
        if n > WIDTH_SCAN_MAX_TABLES {
            return true;
        }
        widest_connected_level(query, n, self.fanout_threshold) >= self.fanout_threshold
    }
}

/// `C(n, n/2)` — the number of subsets at the widest DP level.
fn widest_level(n: usize) -> u128 {
    let k = n / 2;
    let mut r: u128 = 1;
    for i in 0..k {
        r = r.saturating_mul((n - i) as u128) / (i as u128 + 1);
    }
    r
}

/// Cap on the exact connected-width scan in [`SearchConfig::fans_out`].
/// The scan is `O(2^n)` in cheap bit operations over the same subsets
/// the search itself will enumerate with strictly more work each, so it
/// stays a small fraction of any search it gates; 16 caps its absolute
/// cost (~64k subsets) while covering every query size where misgating a
/// sparse topology would actually hurt — beyond it, subset enumeration
/// dominates whatever the topology and parallelizes regardless.
const WIDTH_SCAN_MAX_TABLES: usize = 16;

/// The largest number of *connected* subsets at any single DP level —
/// i.e. the widest level of real work — computed by a bitmask scan over
/// all subsets (`n ≤` [`WIDTH_SCAN_MAX_TABLES`]).  Returns early once any
/// level reaches `threshold`, so dense graphs (the fan-out case) answer
/// in a few hundred subsets and only sparse graphs pay the full scan.
fn widest_connected_level(query: &Query, n: usize, threshold: usize) -> usize {
    let mut adj = vec![0u64; n];
    for j in &query.joins {
        adj[j.left.table] |= 1 << j.right.table;
        adj[j.right.table] |= 1 << j.left.table;
    }
    let mut widths = vec![0usize; n + 1];
    let mut max = 0;
    for bits in 1u64..(1u64 << n) {
        let k = bits.count_ones() as usize;
        if k < 2 {
            continue;
        }
        // Grow the lowest member's component within `bits` to a fixpoint.
        let mut comp = bits & bits.wrapping_neg();
        loop {
            let mut grown = comp;
            let mut rest = comp;
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                grown |= adj[i] & bits;
            }
            if grown == comp {
                break;
            }
            comp = grown;
        }
        if comp == bits {
            widths[k] += 1;
            if widths[k] > max {
                max = widths[k];
                if max >= threshold {
                    return max;
                }
            }
        }
    }
    max
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

/// Combine one subset — every split's entry pairs under every method —
/// after the branch-and-bound prune check when `prune` is set.  The check
/// runs *before* the combine (that is the whole point: a pruned subset
/// skips its entire combine/cost loop) and costs one
/// [`SearchStats::bound_evals`] size-floor computation.  The full set is
/// never checked — the root must always combine.  `stats.nodes` is
/// counted here for non-empty results.
#[allow(clippy::too_many_arguments)]
fn combine_subset<P: CandidatePolicy>(
    model: &CostModel<'_>,
    shape: PlanShape,
    policy: &mut P,
    table: &HashMap<TableSet, Vec<P::Entry>>,
    set: TableSet,
    prune: Option<&PruneState>,
    tel: Option<&lec_telemetry::EngineTelemetry>,
    stats: &mut SearchStats,
) -> Vec<P::Entry> {
    let query = model.query();
    if let Some(ps) = prune.filter(|_| set.len() < query.n_tables()) {
        // Structural connectivity first: a disconnected subset can never
        // produce an entry (every split excludes cross products), so it
        // is discarded before any size product — this counts toward
        // `pruned_subsets` but ticks no bound tier.
        if !ps.is_connected(set) {
            stats.pruned_subsets += 1;
            return Vec::new();
        }
        stats.bound_evals += 1;
        let pages = timed(tel.map(|t| &t.bound_eval_ns), || {
            ps.bound().pages_floor(model, set)
        });
        if tally_check(ps.check(set, pages), stats) {
            return Vec::new();
        }
    }
    let mut entries: Vec<P::Entry> = Vec::new();
    for (left, right) in shape.splits(query, set) {
        let (Some(outer), Some(inner)) = (table.get(&left), table.get(&right)) else {
            continue;
        };
        let ctx = JoinContext {
            left,
            right,
            result: set,
            phase: set.len() - 2,
        };
        policy.combine(model, &ctx, outer, inner, &mut entries, stats);
    }
    if !entries.is_empty() {
        stats.nodes += 1;
    }
    entries
}

/// Fold one tiered prune-check result ([`PruneState::check`]) into the
/// stats and report whether the subset was discarded.  Every connected
/// non-full subset ticks exactly one of `sharp_bound_evals` /
/// `cheap_bound_skips`, so their sum — like `pruned_subsets` — is
/// schedule-independent.
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
/// schedule-independent pruning counters between the running-stats
/// snapshots taken before and after the level's combine pass.
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

/// DP depth 1: every table's access-path alternatives, keyed by its
/// singleton set.
fn access_level<P: CandidatePolicy>(
    model: &CostModel<'_>,
    policy: &mut P,
    stats: &mut SearchStats,
) -> HashMap<TableSet, Vec<P::Entry>> {
    let mut table = HashMap::new();
    for idx in 0..model.query().n_tables() {
        let entries = policy.access_entries(model, idx, stats);
        if !entries.is_empty() {
            stats.nodes += 1;
            table.insert(TableSet::singleton(idx), entries);
        }
    }
    table
}

/// Index of the minimal-cost entry in `entries` (first among exact
/// ties, matching [`SearchRun::best`]'s pick).
fn cheapest_index<E: SearchEntry>(entries: &[E]) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (i, e) in entries.iter().enumerate() {
        let c = e.cost();
        let better = match best {
            None => true,
            Some((bc, _)) => c < bc,
        };
        if better {
            best = Some((c, i));
        }
    }
    best.map(|(_, i)| i)
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
    config: Option<&SearchConfig>,
    table: &HashMap<TableSet, Vec<P::Entry>>,
) -> Option<Arc<PruneState>> {
    if !config?.pruning {
        return None;
    }
    let bound = policy.pruning_bound(model)?;
    let n = model.query().n_tables();
    let access_floors = (0..n)
        .map(|i| {
            table
                .get(&TableSet::singleton(i))
                .and_then(|es| cheapest_index(es).map(|j| es[j].cost()))
                .unwrap_or(0.0)
        })
        .collect();
    let ps = Arc::new(PruneState::new(model, shape, bound, access_floors));
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
    table: &HashMap<TableSet, Vec<P::Entry>>,
    seed: TableSet,
    stats: &mut SearchStats,
) -> Option<f64> {
    let query = model.query();
    let n = query.n_tables();
    let mut set = seed;
    let seed_entries = table.get(&seed)?;
    let mut cur = vec![seed_entries[cheapest_index(seed_entries)?].clone()];
    while set.len() < n {
        let mut choice: Option<(f64, usize)> = None;
        for j in 0..n {
            if set.contains(j)
                || !query.is_connected_to(set, j)
                || !table.contains_key(&TableSet::singleton(j))
            {
                continue;
            }
            let size = point_size_product(model, set.with(j));
            let better = match choice {
                None => true,
                Some((best, _)) => size < best,
            };
            if better {
                choice = Some((size, j));
            }
        }
        let (_, j) = choice?;
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
            &table[&TableSet::singleton(j)],
            &mut out,
            stats,
        );
        let best = cheapest_index(&out)?;
        cur = vec![out.swap_remove(best)];
        set = result;
    }
    let ctx = RootContext { sort_phase: n - 1 };
    policy
        .finalize(model, &ctx, cur, stats)
        .iter()
        .map(SearchEntry::cost)
        .min_by(|a, b| a.total_cmp(b))
}

/// Tighten the incumbent at a level barrier: pick the most promising
/// surviving subset of size `k` (cheapest minimal entry; smallest bit
/// pattern on exact ties), greedily complete it through the policy, and
/// observe the resulting cost.  Driver-only — the incumbent changes
/// exactly here (and at the post-depth-1 seeding, `k = 1`), never
/// mid-level, which is what makes every prune decision
/// schedule-independent: the serial and parallel drivers call this at the
/// same barriers over the same merged table, so pruned runs are
/// byte-identical across thread counts and pools.
fn refresh_incumbent<P: CandidatePolicy>(
    model: &CostModel<'_>,
    policy: &mut P,
    table: &HashMap<TableSet, Vec<P::Entry>>,
    prune: &PruneState,
    k: usize,
    stats: &mut SearchStats,
) {
    if prune.refresh_retired() {
        return;
    }
    let n = model.query().n_tables();
    let mut best: Option<(f64, TableSet)> = None;
    for set in TableSet::subsets_of_size(n, k) {
        let Some(entries) = table.get(&set) else {
            continue;
        };
        let Some(i) = cheapest_index(entries) else {
            continue;
        };
        let c = entries[i].cost();
        let better = match best {
            None => true,
            Some((bc, bs)) => c < bc || (c == bc && set.bits() < bs.bits()),
        };
        if better {
            best = Some((c, set));
        }
    }
    let Some((_, seed)) = best else { return };
    let before = prune.incumbent().get();
    if let Some(cost) = greedy_complete(model, policy, table, seed, stats) {
        prune.incumbent().observe(cost);
        // Greedy walks have sharply diminishing returns: the first walk
        // that completes without lowering a finite incumbent signals the
        // remaining ones won't either (each later seed walks a longer
        // prefix of an already-observed completion), so retire the
        // refresh for the rest of the search rather than paying a full
        // costed walk per level for nothing.  The decision reads only
        // barrier-deterministic state — the merged level table and the
        // incumbent, which changes nowhere else — so serial and parallel
        // drivers retire at the same level and every counter stays
        // schedule-independent.
        if cost >= before {
            prune.retire_refresh();
        }
    }
}

/// Run the DP under `shape` and `policy` and return the finalized root
/// candidates, cheapest-available via [`SearchRun::best`].
pub fn run_search<P: CandidatePolicy>(
    model: &CostModel<'_>,
    shape: PlanShape,
    policy: &mut P,
) -> Result<SearchRun<P::Entry>, OptError> {
    run_search_serial(model, shape, policy, None)
}

/// The serial driver; of `config` it reads only the pruning switch and
/// the telemetry handle.
fn run_search_serial<P: CandidatePolicy>(
    model: &CostModel<'_>,
    shape: PlanShape,
    policy: &mut P,
    config: Option<&SearchConfig>,
) -> Result<SearchRun<P::Entry>, OptError> {
    let query: &Query = model.query();
    let n = query.n_tables();
    if n == 0 {
        return Err(OptError::EmptyQuery);
    }
    let start = Instant::now();
    let hits_before = model.eval_cache_hits();
    model.reset_evals();
    let mut stats = SearchStats::default();
    let mut table = access_level(model, policy, &mut stats);
    let tel = config.and_then(|c| c.telemetry.as_deref());

    let prune_cx = build_prune(model, shape, policy, config, &table);
    if let Some(ps) = &prune_cx {
        refresh_incumbent(model, policy, &table, ps, 1, &mut stats);
    }

    // Depths 2..n.
    for k in 2..=n {
        let level_start = tel.map(|_| Instant::now());
        let prune_mark = stats;
        for set in TableSet::subsets_of_size(n, k) {
            let entries = combine_subset(
                model,
                shape,
                policy,
                &table,
                set,
                prune_cx.as_deref(),
                tel,
                &mut stats,
            );
            if !entries.is_empty() {
                table.insert(set, entries);
            }
        }
        if let (Some(t), Some(t0)) = (tel, level_start) {
            t.level_combine_ns.record_duration(t0.elapsed());
            if prune_cx.is_some() {
                t.record_level_prune(level_prune_delta(k, &prune_mark, &stats));
            }
        }
        if k < n {
            if let Some(ps) = &prune_cx {
                refresh_incumbent(model, policy, &table, ps, k, &mut stats);
            }
        }
    }

    let root = table
        .remove(&TableSet::full(n))
        .ok_or(OptError::NoPlanFound)?;
    let ctx = RootContext { sort_phase: n - 1 };
    let roots = policy.finalize(model, &ctx, root, &mut stats);
    if roots.is_empty() {
        return Err(OptError::NoPlanFound);
    }
    stats.evals = model.evals();
    stats.cache_hits = model.eval_cache_hits() - hits_before;
    stats.elapsed = start.elapsed();
    Ok(SearchRun { roots, stats })
}

/// Epoch value signalling the workers to exit.
const STOP_EPOCH: usize = usize::MAX;

/// One worker's output for one DP level: the non-empty `(subset,
/// candidates)` pairs it combined plus its local statistics.
struct LevelOutput<E> {
    produced: Vec<(TableSet, Vec<E>)>,
    stats: SearchStats,
}

impl<E> Default for LevelOutput<E> {
    fn default() -> Self {
        LevelOutput {
            produced: Vec::new(),
            stats: SearchStats::default(),
        }
    }
}

/// Level-barrier coordination shared between the driver and its workers.
struct Coordinator {
    /// Monotonically increasing level sequence number; [`STOP_EPOCH`]
    /// terminates the workers.
    epoch: AtomicUsize,
    /// The current level's subsets, published by the driver before each
    /// epoch bump.
    sets: RwLock<Vec<TableSet>>,
    /// Work-stealing cursor into `sets`.
    next: AtomicUsize,
    /// Set when any thread panicked while combining; the driver aborts the
    /// search instead of dispatching further levels.
    panicked: AtomicBool,
}

/// Spin briefly, then yield: level phases last microseconds, but on
/// oversubscribed hosts the peer we wait for may need our core.  Used by
/// the driver's ack barrier, where the wait is bounded by a level's
/// remaining combine work.
fn relax(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// A worker's wait for the next epoch: spin, then yield, then *park* —
/// the driver may be in an arbitrarily long serial phase (depth-1, a
/// single-subset root level, finalization), and idle workers must not
/// burn cores through it.  The driver unparks every worker after each
/// epoch bump; the timeout makes a lost wake-up (e.g. the driver
/// unwinding past its unpark) self-heal.
fn wait_for_epoch(epoch: &AtomicUsize, current: usize) -> usize {
    let mut spins = 0u32;
    loop {
        let e = epoch.load(Ordering::Acquire);
        if e != current {
            return e;
        }
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else if spins < 192 {
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(std::time::Duration::from_millis(1));
        }
    }
}

/// Signals a worker's per-level completion even when its combine panicked
/// (the unwinding drop is what keeps the driver's barrier from
/// deadlocking on a dead worker).
struct AckGuard<'a> {
    ack: &'a AtomicUsize,
    epoch: usize,
    panicked: &'a AtomicBool,
}

impl Drop for AckGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.panicked.store(true, Ordering::SeqCst);
        }
        self.ack.store(self.epoch, Ordering::Release);
    }
}

/// On unwind of the driver thread, release the workers so the scope can
/// join them instead of deadlocking.
struct StopGuard<'a>(&'a AtomicUsize);

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.0.store(STOP_EPOCH, Ordering::Release);
    }
}

/// Steal subsets off the level cursor and combine them, accumulating into
/// `out`.  Identical inner body to the serial driver: one subset is
/// processed wholly by one thread, in the same split → entry-pair → method
/// order, so its candidate vector is byte-identical to a serial run.
#[allow(clippy::too_many_arguments)]
fn combine_level_sets<P: CandidatePolicy>(
    model: &CostModel<'_>,
    shape: PlanShape,
    policy: &mut P,
    table: &HashMap<TableSet, Vec<P::Entry>>,
    sets: &[TableSet],
    next: &AtomicUsize,
    prune: Option<&PruneState>,
    tel: Option<&lec_telemetry::EngineTelemetry>,
    out: &mut LevelOutput<P::Entry>,
) {
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&set) = sets.get(i) else { break };
        let entries = combine_subset(model, shape, policy, table, set, prune, tel, &mut out.stats);
        if !entries.is_empty() {
            out.produced.push((set, entries));
        }
    }
}

/// Run the DP under `shape` and `policy` with the parallelism described by
/// `config`.
///
/// With one (effective) thread, or a query whose widest level of
/// *connected* subsets is under [`SearchConfig::fanout_threshold`] (see
/// [`SearchConfig::fans_out`]), this is exactly [`run_search`].
/// Otherwise the engine borrows `threads - 1` workers from
/// [`SearchConfig::pool`] (a scoped pool spawned for this search when
/// `None`) that live for the whole search; at each DP level the driver
/// publishes that level's subsets, every thread (the caller included)
/// steals subsets off a shared cursor and combines them against the
/// read-only lower levels, and the driver merges the per-worker results at
/// the level barrier.  The merged outcome — plans, costs, tie-breaks,
/// `SearchStats` counters — is byte-identical to the serial driver's (see
/// the module docs for why), whatever the pool.
///
/// A panic inside any policy or coster (on a worker or the caller) aborts
/// the search and surfaces as [`OptError::WorkerPanicked`] rather than
/// propagating the panic or deadlocking the barrier; a persistent pool
/// survives the panic and serves the next search.
pub fn run_search_with<P>(
    model: &CostModel<'_>,
    shape: PlanShape,
    policy: &mut P,
    config: &SearchConfig,
) -> Result<SearchRun<P::Entry>, OptError>
where
    P: CandidatePolicy + Send,
    P::Entry: Send + Sync,
{
    let query: &Query = model.query();
    let n = query.n_tables();
    if n == 0 {
        return Err(OptError::EmptyQuery);
    }
    if !config.fans_out(query) {
        return run_search_serial(model, shape, policy, Some(config));
    }
    let spawn_pool = ScopedSpawnPool;
    let pool: &dyn WorkerPool = match &config.pool {
        Some(p) => p.as_ref(),
        None => &spawn_pool,
    };
    let threads = config.effective_threads();
    let start = Instant::now();
    let hits_before = model.eval_cache_hits();
    model.reset_evals();
    let mut stats = SearchStats::default();
    // Depth 1 (access paths) is trivially cheap: keep it on the caller.
    let table = access_level(model, policy, &mut stats);
    let tel = config.telemetry.as_deref();

    // Install pruning before the forks below so every worker's policy
    // clone shares the one incumbent cell.
    let prune_cx = build_prune(model, shape, policy, Some(config), &table);
    if let Some(ps) = &prune_cx {
        refresh_incumbent(model, policy, &table, ps, 1, &mut stats);
    }

    let n_workers = (threads - 1).min(pool.max_workers());
    let coord = Coordinator {
        epoch: AtomicUsize::new(0),
        sets: RwLock::new(Vec::new()),
        next: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
    };
    let table_lock = RwLock::new(table);
    let outputs: Vec<Mutex<LevelOutput<P::Entry>>> = (0..n_workers)
        .map(|_| Mutex::new(LevelOutput::default()))
        .collect();
    let acks: Vec<AtomicUsize> = (0..n_workers).map(|_| AtomicUsize::new(0)).collect();
    // Forked policies ride in slots rather than thread return values: pool
    // threads outlive the search, so results flow through shared state.
    let policy_slots: Vec<Mutex<Option<P>>> = (0..n_workers)
        .map(|_| Mutex::new(Some(policy.fork())))
        .collect();
    // Worker thread handles, registered by each worker on entry so the
    // driver can unpark a worker that dozed off between levels.
    let worker_threads: Vec<Mutex<Option<std::thread::Thread>>> =
        (0..n_workers).map(|_| Mutex::new(None)).collect();

    let worker_body = |w: usize| {
        *worker_threads[w].lock().unwrap_or_else(|p| p.into_inner()) = Some(std::thread::current());
        let Some(mut wp) = policy_slots[w]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
        else {
            return;
        };
        let mut my_epoch = 0;
        loop {
            let e = wait_for_epoch(&coord.epoch, my_epoch);
            if e == STOP_EPOCH {
                break;
            }
            my_epoch = e;
            // Declared before the work so its drop (the ack) runs after
            // the output store — and on unwind.
            let _ack = AckGuard {
                ack: &acks[w],
                epoch: e,
                panicked: &coord.panicked,
            };
            let tbl = table_lock.read().unwrap_or_else(|p| p.into_inner());
            let sets = coord.sets.read().unwrap_or_else(|p| p.into_inner());
            let mut out = LevelOutput::default();
            combine_level_sets(
                model,
                shape,
                &mut wp,
                &tbl,
                &sets,
                &coord.next,
                prune_cx.as_deref(),
                tel,
                &mut out,
            );
            *outputs[w].lock().unwrap_or_else(|p| p.into_inner()) = out;
        }
        // A panic above skips this put-back; the empty slot is how the
        // driver learns the fork (and its diagnostics) died.
        *policy_slots[w].lock().unwrap_or_else(|p| p.into_inner()) = Some(wp);
    };

    let wake_workers = || {
        for slot in &worker_threads {
            if let Some(t) = slot.lock().unwrap_or_else(|p| p.into_inner()).as_ref() {
                t.unpark();
            }
        }
    };

    let mut aborted = false;
    {
        let stats = &mut stats;
        let aborted = &mut aborted;
        let policy = &mut *policy;
        pool.scope(n_workers, &worker_body, &mut || {
            // Ensure the workers are released even if this thread unwinds.
            let _stop = StopGuard(&coord.epoch);
            for k in 2..=n {
                let sets = TableSet::subsets_of_size(n, k);
                let level_start = tel.map(|_| Instant::now());
                let prune_mark = *stats;
                if sets.len() < 2 {
                    // A single subset (the root level) gains nothing from a
                    // dispatch round-trip; combine it on the caller.
                    let mut out = LevelOutput::default();
                    let cursor = AtomicUsize::new(0);
                    let res = {
                        let tbl = table_lock.read().unwrap_or_else(|p| p.into_inner());
                        catch_unwind(AssertUnwindSafe(|| {
                            combine_level_sets(
                                model,
                                shape,
                                policy,
                                &tbl,
                                &sets,
                                &cursor,
                                prune_cx.as_deref(),
                                tel,
                                &mut out,
                            )
                        }))
                    };
                    if res.is_err() {
                        coord.panicked.store(true, Ordering::SeqCst);
                        *aborted = true;
                        break;
                    }
                    let mut tbl = table_lock.write().unwrap_or_else(|p| p.into_inner());
                    stats.absorb(&out.stats);
                    tbl.extend(out.produced);
                    if let (Some(t), Some(t0)) = (tel, level_start) {
                        t.level_combine_ns.record_duration(t0.elapsed());
                        if prune_cx.is_some() {
                            t.record_level_prune(level_prune_delta(k, &prune_mark, stats));
                        }
                    }
                    if k < n {
                        if let Some(ps) = &prune_cx {
                            refresh_incumbent(model, policy, &tbl, ps, k, stats);
                        }
                    }
                    continue;
                }

                // Publish the level and open the epoch.
                *coord.sets.write().unwrap_or_else(|p| p.into_inner()) = sets;
                coord.next.store(0, Ordering::SeqCst);
                let e = coord.epoch.load(Ordering::Relaxed) + 1;
                coord.epoch.store(e, Ordering::Release);
                wake_workers();

                // The caller steals alongside the workers.
                let mut my_out = LevelOutput::default();
                let res = {
                    let tbl = table_lock.read().unwrap_or_else(|p| p.into_inner());
                    let sets = coord.sets.read().unwrap_or_else(|p| p.into_inner());
                    catch_unwind(AssertUnwindSafe(|| {
                        combine_level_sets(
                            model,
                            shape,
                            policy,
                            &tbl,
                            &sets,
                            &coord.next,
                            prune_cx.as_deref(),
                            tel,
                            &mut my_out,
                        )
                    }))
                };
                if res.is_err() {
                    coord.panicked.store(true, Ordering::SeqCst);
                }

                // Level barrier: every worker acks (their AckGuard fires
                // even on panic, so a poisoned combine cannot deadlock us
                // here).
                for ack in acks.iter() {
                    let mut spins = 0;
                    while ack.load(Ordering::Acquire) < e {
                        relax(&mut spins);
                    }
                }
                if coord.panicked.load(Ordering::SeqCst) {
                    *aborted = true;
                    break;
                }

                // Deterministic merge: worker outputs in worker order, then
                // the caller's own.  (Subsets are unique per level, and the
                // counters are sums, so any fixed order gives identical
                // results; worker order keeps it canonical.)
                let mut tbl = table_lock.write().unwrap_or_else(|p| p.into_inner());
                for slot in outputs.iter() {
                    let out = std::mem::take(&mut *slot.lock().unwrap_or_else(|p| p.into_inner()));
                    stats.absorb(&out.stats);
                    tbl.extend(out.produced);
                }
                stats.absorb(&my_out.stats);
                tbl.extend(my_out.produced);
                if let (Some(t), Some(t0)) = (tel, level_start) {
                    t.level_combine_ns.record_duration(t0.elapsed());
                    if prune_cx.is_some() {
                        t.record_level_prune(level_prune_delta(k, &prune_mark, stats));
                    }
                }
                if k < n {
                    if let Some(ps) = &prune_cx {
                        refresh_incumbent(model, policy, &tbl, ps, k, stats);
                    }
                }
            }

            coord.epoch.store(STOP_EPOCH, Ordering::Release);
            wake_workers();
        });
    }

    // Fold the forks back in worker order (deterministic merge); an empty
    // slot means that worker's policy died mid-panic.
    let mut worker_panicked = false;
    for slot in policy_slots {
        match slot.into_inner().unwrap_or_else(|p| p.into_inner()) {
            Some(wp) => policy.merge(wp),
            None => worker_panicked = true,
        }
    }
    if aborted || worker_panicked || coord.panicked.load(Ordering::SeqCst) {
        return Err(OptError::WorkerPanicked);
    }

    let mut table = table_lock.into_inner().unwrap_or_else(|p| p.into_inner());
    let root = table
        .remove(&TableSet::full(n))
        .ok_or(OptError::NoPlanFound)?;
    let ctx = RootContext { sort_phase: n - 1 };
    let roots = policy.finalize(model, &ctx, root, &mut stats);
    if roots.is_empty() {
        return Err(OptError::NoPlanFound);
    }
    stats.evals = model.evals();
    stats.cache_hits = model.eval_cache_hits() - hits_before;
    stats.elapsed = start.elapsed();
    Ok(SearchRun { roots, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{KeepBestPolicy, PointCoster};
    use lec_plan::PlanNode;

    /// The DP table is a dag of plan nodes: a level-(k+1) entry *points
    /// at* the level-k entry it extends, it does not copy it.
    #[test]
    fn an_entry_shares_the_plan_node_of_the_entry_it_extends() {
        let (cat, q) = crate::fixtures::three_chain();
        let model = CostModel::new(&cat, &q);
        let mut policy = KeepBestPolicy::new(PointCoster { memory: 500.0 });
        let mut stats = SearchStats::default();
        let mut table = access_level(&model, &mut policy, &mut stats);
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
                &mut stats,
            );
            assert!(!entries.is_empty());
            for e in &entries {
                let PlanNode::Join { outer, inner, .. } = &*e.plan else {
                    panic!("a composite entry is a join");
                };
                for child in [outer, inner] {
                    assert!(
                        table[&child.tables()]
                            .iter()
                            .any(|below| Arc::ptr_eq(&below.plan, child)),
                        "{} must point at a table entry's node",
                        e.plan.compact()
                    );
                }
            }
            table.insert(set, entries);
        }
    }
}
