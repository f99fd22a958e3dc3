//! The serving layer: a [`PlanServer`] answering streams of optimization
//! requests through the canonical-shape cache.
//!
//! Since PR 5 the single-client `PlanServer` is a thin facade over the
//! thread-shared [`ConcurrentPlanServer`] — same sharded cache, same
//! singleflight machinery (which simply never sees a follower when one
//! client calls through `&mut self`), one implementation to test.

use crate::cache::{CacheDecision, CacheStats};
use crate::concurrent::ConcurrentPlanServer;
use lec_catalog::Catalog;
use lec_core::{Mode, OptError, Optimizer, SearchStats};
use lec_plan::{PlanNode, Query};
use lec_prob::Distribution;

/// Default number of cached plans.
pub const DEFAULT_CACHE_CAPACITY: usize = 512;

/// One answered request: the plan in the *caller's* table numbering, its
/// objective value, the search statistics behind it, and what the cache
/// did.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// The chosen plan, relabeled to the request's table indices.
    pub plan: PlanNode,
    /// Its objective value (point cost for LSC, expected cost otherwise).
    pub cost: f64,
    /// Mode display name.
    pub mode: &'static str,
    /// Statistics of the search that produced the plan.  For
    /// [`CacheDecision::Served`] and [`CacheDecision::Coalesced`]
    /// responses these are the *original* computation's counters with
    /// `elapsed` re-stamped to this request's serve latency (the whole
    /// point of serving from cache or coalescing onto a leader).
    pub stats: SearchStats,
    /// How the cache participated.
    pub decision: CacheDecision,
}

impl ServeResponse {
    /// Machine-readable form (the per-response record of the metrics
    /// stream).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "mode": self.mode,
            "plan": self.plan.compact(),
            "cost": self.cost,
            "decision": self.decision.name(),
            "stats": self.stats.to_json(),
        })
    }
}

/// A long-lived query-optimization service over one catalog and memory
/// belief.
///
/// `PlanServer` is the workload-level face of the repo: where
/// [`Optimizer`] answers one query, the server answers a *stream*,
/// carrying the cross-query state the per-query facade cannot — a
/// **canonical-shape plan cache** (see [`crate::canon`]): requests that
/// are table-renamings of an already-optimized shape are answered by
/// relabeling the cached plan — no DP at all — and near-misses (same
/// bucketed shape, drifted parameters) revalidate the cached plan against
/// one fresh search instead of silently trusting it.
///
/// Responses are **byte-identical** to what a fresh
/// [`Optimizer::optimize`] would return for the same request — plan, cost
/// bits, table numbering — whatever the cache decided; the `server_parity`
/// integration test pins this over a 500-query skewed workload.
///
/// This facade serves one client at a time (`&mut self`); for many client
/// threads sharing one server through `&self`, use the underlying
/// [`ConcurrentPlanServer`] (also reachable via [`PlanServer::concurrent`]).
#[derive(Debug)]
pub struct PlanServer<'a> {
    inner: ConcurrentPlanServer<'a>,
}

impl<'a> PlanServer<'a> {
    /// A server over `catalog` believing `memory`, with the default cache
    /// capacity.
    pub fn new(catalog: &'a Catalog, memory: Distribution) -> Self {
        PlanServer {
            inner: ConcurrentPlanServer::new(catalog, memory),
        }
    }

    /// A server around an explicitly configured optimizer (search config)
    /// and cache capacity.
    pub fn with_optimizer(optimizer: Optimizer<'a>, cache_capacity: usize) -> Self {
        PlanServer {
            inner: ConcurrentPlanServer::with_optimizer(optimizer, cache_capacity),
        }
    }

    /// The thread-shared server underneath, for callers graduating from
    /// one client to many: every cache entry and counter is shared
    /// between the two views.
    pub fn concurrent(&self) -> &ConcurrentPlanServer<'a> {
        &self.inner
    }

    /// The optimizer answering cache misses.
    pub fn optimizer(&self) -> &Optimizer<'a> {
        self.inner.optimizer()
    }

    /// A snapshot of the lifetime cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    /// Number of plans currently cached.
    pub fn cache_len(&self) -> usize {
        self.inner.cache_len()
    }

    /// Per-entry exact-hit counters, descending.
    pub fn hit_histogram(&self) -> Vec<u64> {
        self.inner.hit_histogram()
    }

    /// Answer one optimization request.
    pub fn serve(&mut self, query: &Query, mode: &Mode) -> Result<ServeResponse, OptError> {
        self.inner.serve(query, mode)
    }

    /// Answer a batch of requests in order, stopping at the first error.
    pub fn serve_batch(
        &mut self,
        requests: &[(Query, Mode)],
    ) -> Result<Vec<ServeResponse>, OptError> {
        requests.iter().map(|(q, m)| self.serve(q, m)).collect()
    }

    /// Machine-readable service metrics: cache counters, occupancy, the
    /// exact-hit skew histogram, and the pruning totals.
    pub fn metrics_json(&self) -> serde_json::Value {
        self.inner.metrics_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_core::fixtures;

    #[test]
    fn repeat_requests_are_served_from_cache_byte_identically() {
        let (cat, q) = fixtures::three_chain();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let mut server = PlanServer::new(&cat, memory.clone());
        let first = server.serve(&q, &Mode::AlgorithmC).unwrap();
        assert_eq!(first.decision, CacheDecision::Recomputed);
        let second = server.serve(&q, &Mode::AlgorithmC).unwrap();
        assert_eq!(second.decision, CacheDecision::Served);
        assert_eq!(first.plan, second.plan);
        assert_eq!(first.cost.to_bits(), second.cost.to_bits());
        // And both match a fresh, cache-free optimization.
        let fresh = Optimizer::new(&cat, memory)
            .optimize(&q, &Mode::AlgorithmC)
            .unwrap();
        assert_eq!(fresh.plan, second.plan);
        assert_eq!(fresh.cost.to_bits(), second.cost.to_bits());
        assert_eq!(server.cache_stats().served, 1);
        assert_eq!(server.cache_stats().recomputed, 1);
        assert_eq!(server.hit_histogram(), vec![1]);
    }

    #[test]
    fn renamed_requests_hit_the_same_entry() {
        let (cat, q) = fixtures::three_chain();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let mut server = PlanServer::new(&cat, memory.clone());
        server.serve(&q, &Mode::AlgorithmC).unwrap();
        let map = [2usize, 0, 1];
        let renamed = q.relabel_tables(&map);
        let served = server.serve(&renamed, &Mode::AlgorithmC).unwrap();
        assert_eq!(served.decision, CacheDecision::Served);
        // The served plan must match a fresh optimization of the renamed
        // query — table numbering included.
        let fresh = Optimizer::new(&cat, memory)
            .optimize(&renamed, &Mode::AlgorithmC)
            .unwrap();
        assert_eq!(served.plan, fresh.plan);
        assert_eq!(served.cost.to_bits(), fresh.cost.to_bits());
    }

    #[test]
    fn distinct_modes_and_memories_do_not_share_entries() {
        let (cat, q) = fixtures::three_chain();
        let m1 = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let m2 = lec_prob::presets::spread_family(900.0, 0.4, 4).unwrap();
        let mut s1 = PlanServer::new(&cat, m1.clone());
        s1.serve(&q, &Mode::AlgorithmC).unwrap();
        assert_eq!(
            s1.serve(&q, &Mode::Bushy).unwrap().decision,
            CacheDecision::Recomputed,
            "a different mode is a different key"
        );
        let mut s2 = PlanServer::new(&cat, m2);
        assert_eq!(
            s2.serve(&q, &Mode::AlgorithmC).unwrap().decision,
            CacheDecision::Recomputed,
            "a different memory belief is a different key"
        );
        let _ = m1;
    }

    #[test]
    fn near_miss_revalidates_instead_of_trusting_the_cache() {
        let (cat, mut q) = fixtures::three_chain();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let mut server = PlanServer::new(&cat, memory.clone());
        server.serve(&q, &Mode::AlgorithmC).unwrap();
        // Drift a selectivity within its log2 bucket: same weak shape,
        // different exact computation.
        let drifted = q.joins[0].selectivity.mean() * 1.01;
        q.joins[0].selectivity = lec_prob::Distribution::point(drifted);
        let resp = server.serve(&q, &Mode::AlgorithmC).unwrap();
        assert_eq!(resp.decision, CacheDecision::Revalidated);
        let fresh = Optimizer::new(&cat, memory)
            .optimize(&q, &Mode::AlgorithmC)
            .unwrap();
        assert_eq!(resp.plan, fresh.plan);
        assert_eq!(resp.cost.to_bits(), fresh.cost.to_bits());
    }

    #[test]
    fn randomized_modes_bypass_the_cache() {
        let (cat, q) = fixtures::three_chain();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let mut server = PlanServer::new(&cat, memory);
        let mode = Mode::IterativeImprovement {
            config: lec_core::RandomizedConfig::default(),
            seed: 7,
        };
        for _ in 0..2 {
            let resp = server.serve(&q, &mode).unwrap();
            assert_eq!(resp.decision, CacheDecision::Uncacheable);
        }
        assert_eq!(server.cache_len(), 0);
        assert_eq!(server.cache_stats().uncacheable, 2);
    }

    #[test]
    fn invalid_queries_are_rejected_before_touching_the_cache() {
        let (cat, mut q) = fixtures::three_chain();
        q.joins.clear();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let mut server = PlanServer::new(&cat, memory);
        assert!(matches!(
            server.serve(&q, &Mode::AlgorithmC),
            Err(OptError::InvalidQuery(_))
        ));
        assert_eq!(server.cache_stats().lookups, 0);
    }

    #[test]
    fn metrics_are_machine_readable() {
        let (cat, q) = fixtures::three_chain();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let mut server = PlanServer::new(&cat, memory);
        server.serve(&q, &Mode::AlgorithmC).unwrap();
        server.serve(&q, &Mode::AlgorithmC).unwrap();
        let v = server.metrics_json();
        assert_eq!(v["cache"]["served"].as_f64(), Some(1.0));
        assert_eq!(v["cache"]["coalesced_followers"].as_f64(), Some(0.0));
        assert_eq!(v["cache_entries"].as_f64(), Some(1.0));
        assert_eq!(v["hit_histogram"][0].as_f64(), Some(1.0));
    }
}
