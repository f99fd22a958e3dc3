//! The cross-query plan store: a lock-striped, `&self`-shareable cache of
//! exact-key LRU entries, and the in-flight singleflight table behind
//! request coalescing.
//!
//! Entries are keyed by the full exact encoding (not a hash of it), so
//! distinct shapes can never collide into each other's plans.  The exact
//! map is split into [`CACHE_SHARDS`] lock-striped shards selected by a
//! fingerprint of the canonical key: the 97%+ hit path of a skewed
//! workload takes exactly one shard lock, so concurrent clients only ever
//! serialize when they race on the same sliver of the key space.  Each
//! shard runs its own LRU over its slice of the capacity, and the
//! counters are atomics ([`CacheStats`] is a point-in-time snapshot).
//!
//! Each shard also carries the shard's **in-flight table**: the
//! first thread to miss on a key inserts an [`InflightSearch`] under the
//! same shard lock that observed the miss and becomes the *leader*;
//! concurrent misses on the same key find the entry and become
//! *followers*, blocking on the leader's search instead of running their
//! own ([`CacheDecision::Coalesced`]).  Plans are stored in *canonical*
//! label space — the server relabels them into each caller's numbering on
//! the way out.

use crate::concurrent::ServeError;
use lec_canon::RefusalReason;
use lec_core::SearchOutcome;
use lec_cost::{Fingerprint, Prehashed};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Number of lock stripes in the exact-key map.  Enough that a
/// handful of client threads rarely collide on a shard, few enough that
/// per-shard LRU slices stay large (default capacity 512 → 32 entries per
/// shard).
pub const CACHE_SHARDS: usize = 16;

/// What the cache did for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDecision {
    /// Exact canonical-shape hit: the cached plan was relabeled and
    /// returned without running any search.
    Served,
    /// Exact miss that raced an identical in-flight miss: this request
    /// blocked on that leader's search and was answered by relabeling the
    /// leader's canonical result — one DP ran for the whole cohort.
    Coalesced,
    /// Miss: a fresh search ran and its result was inserted.
    Recomputed,
    /// The request cannot be cached: the canonicalizer declined the query
    /// (too many tables or permutations, or twin tables).
    Uncacheable,
}

impl CacheDecision {
    /// Lower-case label for logs and JSON metrics.
    pub fn name(&self) -> &'static str {
        match self {
            CacheDecision::Served => "served",
            CacheDecision::Coalesced => "coalesced",
            CacheDecision::Recomputed => "recomputed",
            CacheDecision::Uncacheable => "uncacheable",
        }
    }
}

/// A point-in-time snapshot of a cache's lifetime counters (the live
/// counters are atomics so every client thread can bump them through
/// `&self`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Requests that consulted the cache (uncacheable ones included).
    pub lookups: u64,
    /// Exact hits answered without a search.
    pub served: u64,
    /// Followers answered by blocking on a concurrent leader's search.
    pub coalesced_followers: u64,
    /// Leaders whose single search also answered at least one follower.
    pub coalesced_leaders: u64,
    // Shim, always 0 (weak-key revalidation is gone): crates/bench/src/bin/ledger/src/harness.rs is the only reader.
    #[doc(hidden)]
    pub revalidated: u64,
    /// Misses that ran a fresh search.
    pub recomputed: u64,
    /// Requests that bypassed the cache entirely.
    pub uncacheable: u64,
    /// Uncacheable requests the canonicalizer refused as empty or larger
    /// than [`lec_canon::MAX_CANON_TABLES`] tables.
    pub refused_too_many_tables: u64,
    /// Uncacheable requests refused as too symmetric to label within
    /// [`lec_canon::MAX_CANDIDATE_PERMS`] candidate permutations.
    pub refused_too_many_permutations: u64,
    /// Uncacheable requests refused for interchangeable twin tables
    /// (label-dependent DP tie-breaks).
    pub refused_twin_tables: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted by the per-shard LRU policy.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of cacheable lookups answered without running (or waiting
    /// on) a search — exact hits only; coalesced followers are counted
    /// separately since they still paid a search's latency.
    pub fn hit_rate(&self) -> f64 {
        let cacheable = self.lookups.saturating_sub(self.uncacheable);
        if cacheable == 0 {
            0.0
        } else {
            self.served as f64 / cacheable as f64
        }
    }

    /// Machine-readable form for the service's metrics endpoint.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "lookups": self.lookups,
            "served": self.served,
            "coalesced_followers": self.coalesced_followers,
            "coalesced_leaders": self.coalesced_leaders,
            "recomputed": self.recomputed,
            "uncacheable": self.uncacheable,
            "refusals": {
                "too_many_tables": self.refused_too_many_tables,
                "too_many_permutations": self.refused_too_many_permutations,
                "twin_tables": self.refused_twin_tables,
            },
            "insertions": self.insertions,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate(),
        })
    }
}

impl serde_json::Serialize for CacheStats {
    fn to_value(&self) -> serde_json::Value {
        self.to_json()
    }
}

/// The live (atomic) counters behind [`CacheStats`].
#[derive(Debug, Default)]
struct AtomicCacheStats {
    lookups: AtomicU64,
    served: AtomicU64,
    coalesced_followers: AtomicU64,
    coalesced_leaders: AtomicU64,
    recomputed: AtomicU64,
    uncacheable: AtomicU64,
    refused_too_many_tables: AtomicU64,
    refused_too_many_permutations: AtomicU64,
    refused_twin_tables: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl AtomicCacheStats {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            coalesced_followers: self.coalesced_followers.load(Ordering::Relaxed),
            coalesced_leaders: self.coalesced_leaders.load(Ordering::Relaxed),
            revalidated: 0,
            recomputed: self.recomputed.load(Ordering::Relaxed),
            uncacheable: self.uncacheable.load(Ordering::Relaxed),
            refused_too_many_tables: self.refused_too_many_tables.load(Ordering::Relaxed),
            refused_too_many_permutations: self
                .refused_too_many_permutations
                .load(Ordering::Relaxed),
            refused_twin_tables: self.refused_twin_tables.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// A plan-cache key: the exact encoding plus the environment fingerprints,
/// folded through [`Fingerprint`] once when built.  That one fold picks the
/// stripe and is the hash its maps probe with ([`Prehashed`]); equality is
/// on the full words, so distinct shapes never collide into one plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PlanKey {
    fingerprint: u64,
    words: Vec<u64>,
}

impl PlanKey {
    pub(crate) fn new(words: Vec<u64>) -> Self {
        let fold = words.iter().fold(Fingerprint::new(), |fp, &w| fp.u64(w));
        let fingerprint = fold.finish();
        PlanKey { fingerprint, words }
    }
}

impl Hash for PlanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

type KeyMap<V> = HashMap<PlanKey, V, BuildHasherDefault<Prehashed>>;

/// One in-flight search: the rendezvous between a leader and the
/// followers coalesced onto it.  The leader publishes exactly once —
/// its [`SearchOutcome`] in canonical labels, or the [`ServeError`] its
/// search died with (an optimizer error, or `Overloaded` when admission
/// control shed the leader: the whole cohort is told, never left
/// hanging) — and every follower wakes with a clone of it.
#[derive(Debug)]
pub(crate) struct InflightSearch {
    done: Mutex<Option<Result<Arc<SearchOutcome>, ServeError>>>,
    cv: Condvar,
    followers: AtomicU64,
}

impl InflightSearch {
    fn new() -> Self {
        InflightSearch {
            done: Mutex::new(None),
            cv: Condvar::new(),
            followers: AtomicU64::new(0),
        }
    }

    /// Block until the leader publishes, then share its result out (an
    /// `Arc` bump, not a deep clone — followers relabel from the shared
    /// canonical outcome).  With a `deadline`, give up then: `None` if
    /// the leader has not published by it.  The leader's search is *not*
    /// cancelled — it still completes and feeds the cache; only this
    /// follower stops waiting (and reports `DeadlineExceeded` upstream).
    pub(crate) fn wait(
        &self,
        deadline: Option<Instant>,
    ) -> Option<Result<Arc<SearchOutcome>, ServeError>> {
        let mut slot = self.done.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(result) = slot.as_ref() {
                return Some(result.clone());
            }
            slot = match deadline {
                None => self.cv.wait(slot).unwrap_or_else(|p| p.into_inner()),
                Some(deadline) => {
                    let left = deadline.checked_duration_since(Instant::now())?;
                    let waited = self.cv.wait_timeout(slot, left);
                    waited.unwrap_or_else(|p| p.into_inner()).0
                }
            };
        }
    }

    /// Number of followers that coalesced onto this search.
    pub(crate) fn followers(&self) -> u64 {
        self.followers.load(Ordering::Relaxed)
    }

    fn publish(&self, result: Result<Arc<SearchOutcome>, ServeError>) {
        let mut slot = self.done.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some(result);
        }
        drop(slot);
        self.cv.notify_all();
    }
}

/// The outcome of one exact-key lookup.
pub(crate) enum ExactLookup {
    /// The cached outcome, canonically labeled (already counted as served).
    Hit(Arc<SearchOutcome>),
    /// This thread is the leader: it must run the search and then call
    /// [`ShapeCache::publish_answer`] or [`ShapeCache::publish_error`]
    /// with the same key — unconditionally, or followers deadlock (the
    /// server wraps the obligation in a drop guard).
    Lead(Arc<InflightSearch>),
    /// Another thread is already searching this exact key; wait on it.
    Follow(Arc<InflightSearch>),
}

/// One cached search outcome in canonical label space.  It rides in an
/// `Arc` so the hit path hands it out with a pointer bump — the deep
/// work (relabeling into the caller's numbering) happens outside the
/// shard lock, and one allocation is shared between the entry and every
/// coalesced follower.
#[derive(Debug, Clone)]
struct CachedShapePlan {
    answer: Arc<SearchOutcome>,
    /// Exact hits this entry has answered.
    hits: u64,
    /// LRU clock value of the last touch.
    last_used: u64,
}

/// One stripe of the map: its entries, its slice of the in-flight table,
/// and its own LRU clock.
#[derive(Debug, Default)]
struct ExactShard {
    entries: KeyMap<CachedShapePlan>,
    inflight: KeyMap<Arc<InflightSearch>>,
    tick: u64,
}

/// The sharded canonical-shape plan cache with per-shard LRU eviction and
/// singleflight coalescing.  Every method takes `&self`; the cache is
/// `Sync` and shared by all of a [`crate::ConcurrentPlanServer`]'s client
/// threads.
#[derive(Debug)]
pub struct ShapeCache {
    exact: Box<[Mutex<ExactShard>]>,
    shard_capacity: usize,
    capacity: usize,
    stats: AtomicCacheStats,
}

impl ShapeCache {
    /// An empty cache holding at most `capacity` plans (apportioned over
    /// [`CACHE_SHARDS`] stripes; the stripe count clamps to `capacity`
    /// so the bound is never exceeded).
    pub fn new(capacity: usize) -> Self {
        ShapeCache::with_shards(capacity, CACHE_SHARDS)
    }

    /// An empty cache with an explicit stripe count (`shards >= 1`,
    /// clamped to `capacity`); tests use a single stripe to make the LRU
    /// order deterministic.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        ShapeCache {
            exact: (0..shards)
                .map(|_| Mutex::new(ExactShard::default()))
                .collect(),
            shard_capacity: capacity / shards,
            capacity,
            stats: AtomicCacheStats::default(),
        }
    }

    /// `key`'s stripe: multiply-shift of its fingerprint, uniform for any count.
    fn exact_shard(&self, key: &PlanKey) -> MutexGuard<'_, ExactShard> {
        self.exact[((key.fingerprint as u128 * self.exact.len() as u128) >> 64) as usize]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.exact
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).entries.len())
            .sum()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of cached plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// Count one request consulting the cache.
    pub(crate) fn count_lookup(&self) {
        self.stats.lookups.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one request the canonicalizer refused — bypasses the cache
    /// like any uncacheable request, plus a per-reason counter so the
    /// metrics can say *why* requests stopped being cacheable.
    pub(crate) fn count_refusal(&self, reason: RefusalReason) {
        self.stats.uncacheable.fetch_add(1, Ordering::Relaxed);
        match reason {
            RefusalReason::TooManyTables => &self.stats.refused_too_many_tables,
            RefusalReason::TooManyPermutations => &self.stats.refused_too_many_permutations,
            RefusalReason::TwinTables => &self.stats.refused_twin_tables,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Per-entry exact-hit counters, descending — the skew profile of the
    /// workload as the cache sees it.
    pub fn hit_histogram(&self) -> Vec<u64> {
        let mut hits: Vec<u64> = Vec::new();
        for shard in self.exact.iter() {
            let shard = shard.lock().unwrap_or_else(|p| p.into_inner());
            hits.extend(shard.entries.values().map(|e| e.hits));
        }
        hits.sort_unstable_by(|a, b| b.cmp(a));
        hits
    }

    /// Exact lookup with singleflight admission, in one shard-lock
    /// critical section: a cached entry is a [`ExactLookup::Hit`] (LRU and
    /// hit counters touched), an uncached key with a search already in
    /// flight joins it ([`ExactLookup::Follow`]), and an uncached idle key
    /// makes this thread the leader ([`ExactLookup::Lead`]).
    pub(crate) fn lookup_or_lead(&self, exact: &PlanKey) -> ExactLookup {
        let mut shard = self.exact_shard(exact);
        let tick = shard.tick + 1;
        shard.tick = tick;
        if let Some(entry) = shard.entries.get_mut(exact) {
            entry.last_used = tick;
            entry.hits += 1;
            let answer = Arc::clone(&entry.answer);
            drop(shard);
            self.stats.served.fetch_add(1, Ordering::Relaxed);
            return ExactLookup::Hit(answer);
        }
        if let Some(flight) = shard.inflight.get(exact) {
            flight.followers.fetch_add(1, Ordering::Relaxed);
            let flight = Arc::clone(flight);
            drop(shard);
            self.stats
                .coalesced_followers
                .fetch_add(1, Ordering::Relaxed);
            return ExactLookup::Follow(flight);
        }
        let flight = Arc::new(InflightSearch::new());
        shard.inflight.insert(exact.clone(), Arc::clone(&flight));
        ExactLookup::Lead(flight)
    }

    /// Leader completion (success): insert the entry under the exact key,
    /// retire the in-flight record, and wake the followers.
    pub(crate) fn publish_answer(&self, exact: &PlanKey, answer: SearchOutcome) {
        // One allocation shared by the entry and every follower.
        let answer = Arc::new(answer);
        self.stats.recomputed.fetch_add(1, Ordering::Relaxed);
        let flight = {
            let mut shard = self.exact_shard(exact);
            let tick = shard.tick + 1;
            shard.tick = tick;
            shard.entries.insert(
                exact.clone(),
                CachedShapePlan {
                    answer: Arc::clone(&answer),
                    hits: 0,
                    last_used: tick,
                },
            );
            self.stats.insertions.fetch_add(1, Ordering::Relaxed);
            // The LRU scan is O(stripe): stripes are small slices of a
            // bounded capacity, and it only runs when one is full.
            while shard.entries.len() > self.shard_capacity {
                let coldest = shard.entries.iter().min_by_key(|(_, e)| e.last_used);
                let victim = coldest.expect("over capacity, so not empty").0.clone();
                shard.entries.remove(&victim);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
            // Retiring the in-flight record under the same lock that
            // inserted the entry closes the follower window: from here on
            // every new lookup is a plain hit.
            shard.inflight.remove(exact)
        };
        if let Some(flight) = flight {
            if flight.followers() > 0 {
                self.stats.coalesced_leaders.fetch_add(1, Ordering::Relaxed);
            }
            flight.publish(Ok(answer));
        }
    }

    /// Leader completion (failure): retire the in-flight record and wake
    /// the followers with the leader's error.  Nothing is cached.
    pub(crate) fn publish_error(&self, exact: &PlanKey, error: ServeError) {
        let flight = self.exact_shard(exact).inflight.remove(exact);
        if let Some(flight) = flight {
            if flight.followers() > 0 {
                self.stats.coalesced_leaders.fetch_add(1, Ordering::Relaxed);
            }
            flight.publish(Err(error));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_core::{OptError, SearchStats};
    use lec_plan::PlanNode;

    fn key(v: u64) -> PlanKey {
        PlanKey::new(vec![v])
    }

    fn answer(t: usize, cost: f64) -> SearchOutcome {
        SearchOutcome {
            plan: PlanNode::seq_scan(t),
            cost,
            stats: SearchStats::default(),
        }
    }

    /// Lead on `k` and immediately publish `a` (the single-threaded
    /// equivalent of the old insert).
    fn insert(c: &ShapeCache, k: u64, a: SearchOutcome) {
        match c.lookup_or_lead(&key(k)) {
            ExactLookup::Lead(_) => c.publish_answer(&key(k), a),
            _ => panic!("fresh key must elect a leader"),
        }
    }

    #[test]
    fn exact_hits_count_and_touch() {
        let c = ShapeCache::with_shards(4, 1);
        insert(&c, 1, answer(0, 1.0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().recomputed, 1);
        assert!(matches!(c.lookup_or_lead(&key(2)), ExactLookup::Lead(_)));
        c.publish_error(&key(2), ServeError::Opt(OptError::NoPlanFound));
        let ExactLookup::Hit(a) = c.lookup_or_lead(&key(1)) else {
            panic!("must hit")
        };
        assert_eq!(a.cost, 1.0);
        assert!(matches!(c.lookup_or_lead(&key(1)), ExactLookup::Hit(_)));
        assert_eq!(c.hit_histogram(), vec![2]);
        assert_eq!(c.stats().served, 2);
    }

    #[test]
    fn per_shard_lru_evicts_the_coldest_entry() {
        let c = ShapeCache::with_shards(2, 1);
        insert(&c, 1, answer(0, 1.0));
        insert(&c, 2, answer(1, 2.0));
        assert!(matches!(c.lookup_or_lead(&key(1)), ExactLookup::Hit(_))); // 2 is now coldest
        insert(&c, 3, answer(2, 3.0));
        assert_eq!(c.len(), 2);
        assert!(
            matches!(c.lookup_or_lead(&key(2)), ExactLookup::Lead(_)),
            "coldest entry evicted"
        );
        c.publish_error(&key(2), ServeError::Opt(OptError::NoPlanFound));
        assert!(matches!(c.lookup_or_lead(&key(1)), ExactLookup::Hit(_)));
        assert!(matches!(c.lookup_or_lead(&key(3)), ExactLookup::Hit(_)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn followers_coalesce_onto_the_leader_and_share_its_answer() {
        let c = Arc::new(ShapeCache::with_shards(4, 1));
        let ExactLookup::Lead(_lead) = c.lookup_or_lead(&key(7)) else {
            panic!("first miss leads")
        };
        let followers: Vec<_> = (0..3)
            .map(|_| {
                let ExactLookup::Follow(f) = c.lookup_or_lead(&key(7)) else {
                    panic!("concurrent miss follows")
                };
                f
            })
            .collect();
        let waiters: Vec<_> = followers
            .into_iter()
            .map(|f| std::thread::spawn(move || f.wait(None).unwrap()))
            .collect();
        c.publish_answer(&key(7), answer(4, 9.0));
        for w in waiters {
            let got = w.join().unwrap().expect("leader succeeded");
            assert_eq!(got.plan, PlanNode::seq_scan(4));
            assert_eq!(got.cost.to_bits(), 9.0f64.to_bits());
        }
        let s = c.stats();
        assert_eq!(s.coalesced_followers, 3);
        assert_eq!(s.coalesced_leaders, 1);
        // The cohort is gone; the key now hits.
        assert!(matches!(c.lookup_or_lead(&key(7)), ExactLookup::Hit(_)));
    }

    #[test]
    fn a_failed_leader_wakes_followers_with_its_error() {
        let c = ShapeCache::with_shards(4, 1);
        let ExactLookup::Lead(_lead) = c.lookup_or_lead(&key(9)) else {
            panic!("first miss leads")
        };
        let ExactLookup::Follow(f) = c.lookup_or_lead(&key(9)) else {
            panic!("second miss follows")
        };
        c.publish_error(&key(9), ServeError::Opt(OptError::WorkerPanicked));
        assert_eq!(
            f.wait(None).unwrap().unwrap_err(),
            ServeError::Opt(OptError::WorkerPanicked)
        );
        // Nothing was cached; the next request elects a fresh leader.
        assert!(matches!(c.lookup_or_lead(&key(9)), ExactLookup::Lead(_)));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn hit_rate_ignores_uncacheable_lookups() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.lookups = 10;
        s.uncacheable = 2;
        s.served = 4;
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        let v = s.to_json();
        assert_eq!(v["served"].as_f64(), Some(4.0));
        assert!((v["hit_rate"].as_f64().unwrap() - 0.5).abs() < 1e-12);
    }
}
