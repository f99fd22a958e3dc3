//! The cross-query plan store: a lock-striped, `&self`-shareable cache of
//! exact-key LRU entries.
//!
//! Entries are keyed by the full exact encoding (not a hash of it), so
//! distinct shapes can never collide into each other's plans.  The exact
//! map is split into [`CACHE_SHARDS`] lock-striped shards selected by a
//! one-multiply-per-word fold of the canonical key: the 97%+ hit path of a
//! skewed workload takes exactly one shard lock, so concurrent clients only
//! ever serialize when they race on the same sliver of the key space.  Each
//! shard runs its own LRU over its slice of the capacity, and the
//! counters are atomics ([`CacheStats`] is a point-in-time snapshot).
//!
//! A lookup is a hit or a miss; a miss runs its own search and inserts
//! the outcome.  Plans are stored in *canonical* label space — the server
//! relabels them into each caller's numbering on the way out.

use lec_canon::RefusalReason;
use lec_core::SearchOutcome;
use lec_cost::Prehashed;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

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
    // Shims, always 0 (request coalescing and weak-key revalidation are
    // gone): crates/bench/src/bin/ledger/src/harness.rs is the only reader.
    #[doc(hidden)]
    pub coalesced_followers: u64,
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
    /// Fraction of cacheable lookups answered without running a search.
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
            coalesced_followers: 0,
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
/// folded once when built, one FxHash multiply per word, then
/// [`lec_cost::avalanche`] of the fold and the length.  That fold picks the
/// stripe and is the hash its maps probe with ([`Prehashed`]); equality is
/// on the full words, so a colliding fingerprint is still a miss, and as a
/// stripe holds its share of the capacity, crafted collisions cost at most
/// one stripe's scan.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct PlanKey {
    fingerprint: u64,
    words: Vec<u64>,
}

impl PlanKey {
    pub(crate) fn new(words: Vec<u64>) -> Self {
        let fold = words.iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        let fingerprint = lec_cost::avalanche(fold ^ words.len() as u64);
        PlanKey { fingerprint, words }
    }
}

impl Hash for PlanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

type KeyMap<V> = HashMap<PlanKey, V, BuildHasherDefault<Prehashed>>;

/// One cached search outcome in canonical label space.  It rides in an
/// `Arc` so the hit path hands it out with a pointer bump — the deep
/// work (relabeling into the caller's numbering) happens outside the
/// shard lock.
#[derive(Debug, Clone)]
struct CachedShapePlan {
    answer: Arc<SearchOutcome>,
    /// Exact hits this entry has answered.
    hits: u64,
    /// LRU clock value of the last touch.
    last_used: u64,
}

/// One stripe of the map: its entries and its own LRU clock.
#[derive(Debug, Default)]
struct ExactShard {
    entries: KeyMap<CachedShapePlan>,
    tick: u64,
}

/// The sharded canonical-shape plan cache with per-shard LRU eviction.
/// Every method takes `&self`; the cache is
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
    fn with_shards(capacity: usize, shards: usize) -> Self {
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

    /// `key`'s stripe: multiply-shift of its fingerprint's top bits,
    /// uniform for any count (the avalanche spreads every word into them).
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

    /// Exact lookup: the cached outcome, canonically labeled, with its
    /// LRU clock and hit counters touched; `None` on a miss, whose caller
    /// runs the search and [`Self::insert`]s the outcome.  Either way the
    /// shard's clock ticks once.
    pub(crate) fn lookup(&self, exact: &PlanKey) -> Option<Arc<SearchOutcome>> {
        let mut shard = self.exact_shard(exact);
        let tick = shard.tick + 1;
        shard.tick = tick;
        let entry = shard.entries.get_mut(exact)?;
        entry.last_used = tick;
        entry.hits += 1;
        let answer = Arc::clone(&entry.answer);
        drop(shard);
        self.stats.served.fetch_add(1, Ordering::Relaxed);
        Some(answer)
    }

    /// Insert a miss's search outcome, in canonical labels, under its
    /// exact key, evicting the stripe's coldest entries past its capacity.
    /// A concurrent miss on the same key may have inserted first: its
    /// entry, which holds the same outcome, stays and is touched.
    pub(crate) fn insert(&self, exact: PlanKey, answer: SearchOutcome) {
        self.stats.recomputed.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.exact_shard(&exact);
        let tick = shard.tick + 1;
        shard.tick = tick;
        match shard.entries.entry(exact) {
            Entry::Occupied(mut entry) => entry.get_mut().last_used = tick,
            Entry::Vacant(slot) => {
                slot.insert(CachedShapePlan {
                    answer: Arc::new(answer),
                    hits: 0,
                    last_used: tick,
                });
                self.stats.insertions.fetch_add(1, Ordering::Relaxed);
            }
        }
        // The LRU scans are O(stripe): stripes are small slices of a
        // bounded capacity, and they only run when one is full.  A stripe's
        // ticks are unique, so its least one names the coldest entry, and
        // removing it clones no key.
        while shard.entries.len() > self.shard_capacity {
            let coldest = shard.entries.values().map(|e| e.last_used).min();
            let coldest = coldest.expect("over capacity, so not empty");
            shard.entries.retain(|_, e| e.last_used != coldest);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_core::SearchStats;
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

    /// Miss on `k`, then insert `a`, as a served miss does.
    fn insert(c: &ShapeCache, k: u64, a: SearchOutcome) {
        assert!(c.lookup(&key(k)).is_none(), "fresh key must miss");
        c.insert(key(k), a);
    }

    #[test]
    fn exact_hits_count_and_touch() {
        let c = ShapeCache::with_shards(4, 1);
        insert(&c, 1, answer(0, 1.0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().recomputed, 1);
        assert!(c.lookup(&key(2)).is_none());
        let a = c.lookup(&key(1)).expect("must hit");
        assert_eq!(a.cost, 1.0);
        assert!(c.lookup(&key(1)).is_some());
        assert_eq!(c.hit_histogram(), vec![2]);
        assert_eq!(c.stats().served, 2);
    }

    #[test]
    fn per_shard_lru_evicts_the_coldest_entry() {
        let c = ShapeCache::with_shards(2, 1);
        insert(&c, 1, answer(0, 1.0));
        insert(&c, 2, answer(1, 2.0));
        assert!(c.lookup(&key(1)).is_some()); // 2 is now coldest
        insert(&c, 3, answer(2, 3.0));
        assert_eq!(c.len(), 2);
        assert!(c.lookup(&key(2)).is_none(), "coldest entry evicted");
        assert!(c.lookup(&key(1)).is_some());
        assert!(c.lookup(&key(3)).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    /// Two misses on one key each insert; the first entry, and its hit
    /// count, stays.
    #[test]
    fn a_second_insert_of_a_key_keeps_the_first_entry() {
        let c = ShapeCache::with_shards(4, 1);
        assert!(c.lookup(&key(7)).is_none());
        assert!(c.lookup(&key(7)).is_none());
        c.insert(key(7), answer(4, 9.0));
        assert!(c.lookup(&key(7)).is_some());
        c.insert(key(7), answer(4, 9.0));
        let s = c.stats();
        assert_eq!((s.recomputed, s.insertions, s.served), (2, 1, 1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.hit_histogram(), vec![1]);
    }

    /// The fold, its finisher and the stripe pick, as literals: a change
    /// to any of them re-rolls which stripe each shape lands in, and so
    /// the LRU evictions of a full cache, so it must show here first.
    #[test]
    fn fingerprint_and_stripe_are_pinned() {
        let pinned: [(&[u64], u64, usize); 3] = [
            (&[1, 2, 3], 0xD291_14AC_007C_01B6, 13),
            (&[0, 0, 0, 0], 0x4790_0468_A8F0_1875, 4),
            (
                &[5, 0x1234_5678_9ABC_DEF0, 42, 3, 0xDEAD_BEEF],
                0x4508_A152_B82A_0937,
                4,
            ),
        ];
        for (words, fingerprint, stripe) in pinned {
            let key = PlanKey::new(words.to_vec());
            assert_eq!(key.fingerprint, fingerprint, "{words:x?}: fingerprint");
            let c = ShapeCache::with_shards(CACHE_SHARDS, CACHE_SHARDS);
            c.insert(key, answer(0, 1.0));
            let held: Vec<usize> = (0..CACHE_SHARDS)
                .filter(|&i| !c.exact[i].lock().unwrap().entries.is_empty())
                .collect();
            assert_eq!(held, [stripe], "{words:x?}: stripe");
        }
    }

    /// Two keys with one fingerprint but different words are two entries:
    /// equality compares the words, so neither is ever answered with the
    /// other's plan.
    #[test]
    fn a_shared_fingerprint_never_serves_the_other_keys_plan() {
        let colliding = |w: u64| PlanKey {
            fingerprint: 0x5EED,
            words: vec![w, 9],
        };
        let c = ShapeCache::with_shards(4, 1);
        assert!(c.lookup(&colliding(1)).is_none());
        c.insert(colliding(1), answer(1, 1.0));
        assert!(c.lookup(&colliding(2)).is_none(), "the other key misses");
        c.insert(colliding(2), answer(2, 2.0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(&colliding(1)).expect("hit").cost, 1.0);
        assert_eq!(c.lookup(&colliding(2)).expect("hit").cost, 2.0);
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
