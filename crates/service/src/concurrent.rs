//! The concurrent serving front end: a [`ConcurrentPlanServer`] that many
//! client threads share through `&self`.
//!
//! A search is a plain call on the thread that asks for it, so the client
//! threads are the only parallelism here; what they share is the plan
//! cache ([`crate::cache::ShapeCache`]).  Its exact-key map is
//! lock-striped, so the hit path — the 97%+ common case on a skewed
//! workload — takes one shard lock for a few hundred nanoseconds instead
//! of serializing every client behind a global `&mut self`.  A miss runs
//! its own search and inserts the outcome; concurrent misses on one key
//! each search, and a search that fails or panics fails only its own
//! request.
//!
//! Byte-identity is the same acceptance bar as every layer before it:
//! whatever the interleaving, every response (plan, cost bits, table
//! numbering) equals a fresh [`Optimizer::optimize`] of that request —
//! pinned by `tests/server_parity.rs` (one client) and
//! `tests/concurrent_parity.rs` (many).
//!
//! ```
//! use std::sync::Arc;
//! use lec_core::{fixtures, Mode};
//! use lec_service::{CacheDecision, ConcurrentPlanServer};
//!
//! let (catalog, query) = fixtures::three_chain();
//! let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
//! let server = Arc::new(ConcurrentPlanServer::new(&catalog, memory));
//!
//! // Many clients, one server, `&self` all the way down.
//! std::thread::scope(|scope| {
//!     for _ in 0..4 {
//!         let server = Arc::clone(&server);
//!         let query = query.clone();
//!         scope.spawn(move || {
//!             let resp = server.serve(&query, &Mode::AlgorithmC).unwrap();
//!             assert!(resp.cost > 0.0);
//!         });
//!     }
//! });
//! assert_eq!(server.cache_stats().lookups, 4);
//! ```

use crate::cache::{CacheDecision, CacheStats, PlanKey, ShapeCache};
use lec_canon::canonical_form;
use lec_catalog::Catalog;
use lec_core::{Mode, OptError, Optimizer, SearchOutcome, SearchStats};
use lec_cost::dist_fingerprint;
use lec_plan::{PlanNode, Query};
use lec_prob::Distribution;
use lec_telemetry::{Outcome, Stage, Telemetry, TraceCtx};
use std::sync::Arc;
use std::time::Instant;

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
    /// Statistics of the search that produced the plan.  For a
    /// [`CacheDecision::Served`] response these are the *original*
    /// computation's counters with `elapsed` re-stamped to this request's
    /// serve latency.
    pub stats: SearchStats,
    /// How the cache participated.
    pub decision: CacheDecision,
}

/// A service-level serving error: either the optimizer's own verdict, or
/// a condition of the *serving* layer (admission control, deadlines) that
/// no single-query [`Optimizer`] can produce.
///
/// [`ConcurrentPlanServer::serve_with`] returns this; plain
/// [`ConcurrentPlanServer::serve`] keeps its historical
/// `Result<_, OptError>` signature (it admits every search and sets no
/// deadline, so the service-level variants never surface there).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The search itself failed; identical to what a fresh
    /// [`Optimizer::optimize`] of the request would return.
    Opt(OptError),
    /// Admission control shed this request: the cold-search backlog was
    /// at capacity.  Transient — retry with backoff.
    Overloaded,
    /// The request's answer was done past its deadline.  The search ran to
    /// the end and fed the cache; only this response is abandoned.
    /// Transient — a retry usually hits the cache.
    DeadlineExceeded,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Opt(e) => write!(f, "optimizer error: {e}"),
            ServeError::Overloaded => write!(f, "server overloaded; retry with backoff"),
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<OptError> for ServeError {
    fn from(e: OptError) -> Self {
        ServeError::Opt(e)
    }
}

/// The telemetry outcome a finished request is recorded under — the one
/// place a serving result is mapped onto [`Outcome`].
pub fn outcome_of(result: &Result<ServeResponse, ServeError>) -> Outcome {
    match result {
        Ok(resp) => match resp.decision {
            CacheDecision::Served => Outcome::Served,
            _ => Outcome::Fresh,
        },
        Err(ServeError::Overloaded) => Outcome::Shed,
        Err(_) => Outcome::Error,
    }
}

/// Serving-layer extension points, carried by [`ServeCtx`].  A daemon implements this once
/// to get admission control (bounded cold-search backlog with
/// load-shedding) and a search hook for tests; the default
/// implementation of every hook is a no-op, and `()` implements the
/// trait as "admit everything, hook nothing".
///
/// Only requests that are about to run a **fresh search** (a miss, or an
/// uncacheable request) consult [`ServeHooks::admit_cold`]; exact hits
/// cost microseconds and bypass admission entirely — under overload the
/// cache keeps serving while the expensive path sheds.
pub trait ServeHooks: Sync {
    /// Called before this request occupies a cold-search slot.  Return
    /// `false` to shed it: the request fails fast with
    /// [`ServeError::Overloaded`].
    fn admit_cold(&self) -> bool {
        true
    }

    /// Called when an admitted cold search releases its slot (however it
    /// ended — success, error, or panic; the server guarantees pairing
    /// via a drop guard).
    fn release_cold(&self) {}

    /// Called after admission, immediately before the search runs.  A
    /// daemon hands it to its search hook, which tests use to delay or
    /// kill a search; a panic out of this hook is indistinguishable from
    /// a search that died, and unwinds to the caller of `serve_with`.
    fn before_search(&self) {}
}

/// `()` is the ungated hook set: admit everything, hook nothing.
impl ServeHooks for () {}

/// Drop guard pairing every successful [`ServeHooks::admit_cold`] with
/// exactly one [`ServeHooks::release_cold`], even when the search panics.
struct ColdPermit<'h> {
    hooks: &'h dyn ServeHooks,
}

impl Drop for ColdPermit<'_> {
    fn drop(&mut self) {
        self.hooks.release_cold();
    }
}

/// What one request carries through [`ConcurrentPlanServer::serve_with`]
/// besides the query and the mode.
pub struct ServeCtx<'a> {
    /// Admission control for fresh (cold) searches, and the search hook;
    /// `&()` admits everything and hooks nothing.
    pub hooks: &'a dyn ServeHooks,
    /// Turns any answer finished after it into
    /// [`ServeError::DeadlineExceeded`] (the search still runs to the end,
    /// and a cacheable answer feeds the cache).
    pub deadline: Option<Instant>,
    /// Typed stage spans (cache probe, admission gate, DP search) are
    /// appended here as the request moves through the pipeline; a
    /// [`TraceCtx::disabled`] context makes every span a predictable early
    /// return.  The caller owns the trace lifecycle: the
    /// daemon brackets the serve with its decode and flush spans and then
    /// publishes via [`Telemetry::finish_request`].
    pub trace: &'a mut TraceCtx,
}

/// A long-lived, thread-shared query-optimization service over one
/// catalog and memory belief.
///
/// Where [`Optimizer`] answers one query, the server answers a *stream*,
/// carrying the cross-query state the per-query facade cannot.  [`serve`]
/// takes `&self`, so any number of threads share one instance (typically
/// `Arc<ConcurrentPlanServer>`, or plain borrows under
/// [`std::thread::scope`]).  See the [module docs](self) for the sharded
/// cache and the byte-identity contract.
///
/// [`serve`]: ConcurrentPlanServer::serve
#[derive(Debug)]
pub struct ConcurrentPlanServer<'a> {
    optimizer: Optimizer<'a>,
    cache: ShapeCache,
    memory_fp: u64,
    /// Observability surface ([`lec_telemetry::Telemetry`]): outcome
    /// latency histograms recorded on every serve, and the slow log — the
    /// one store of finished traces — fed by traced callers.  `None` keeps the serve
    /// path entirely uninstrumented.
    telemetry: Option<Arc<Telemetry>>,
}

/// The whole point: one server instance is shared by every client thread.
const _: fn() = || {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<ConcurrentPlanServer<'static>>();
};

impl<'a> ConcurrentPlanServer<'a> {
    /// A server over `catalog` believing `memory`, with the default cache
    /// capacity.
    pub fn new(catalog: &'a Catalog, memory: Distribution) -> Self {
        Self::with_optimizer(Optimizer::new(catalog, memory), DEFAULT_CACHE_CAPACITY)
    }

    /// A server around `optimizer` with an explicit cache capacity.
    pub fn with_optimizer(optimizer: Optimizer<'a>, cache_capacity: usize) -> Self {
        let memory_fp = dist_fingerprint(optimizer.memory());
        ConcurrentPlanServer {
            optimizer,
            cache: ShapeCache::new(cache_capacity),
            memory_fp,
            telemetry: None,
        }
    }

    /// This server with a telemetry surface installed: request outcomes
    /// (served/fresh/shed/error) are recorded into its latency
    /// histograms on every serve.  The optimizer never sees it, so served
    /// bytes are identical with or without it.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The installed telemetry surface, if any: its snapshot rides in
    /// [`Self::metrics_json`] under `telemetry`, and traced callers offer
    /// finished requests to its slow log through
    /// [`Telemetry::finish_request`].
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// The optimizer answering cache misses.
    pub fn optimizer(&self) -> &Optimizer<'a> {
        &self.optimizer
    }

    /// A snapshot of the lifetime cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of plans currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Per-entry exact-hit counters, descending.
    pub fn hit_histogram(&self) -> Vec<u64> {
        self.cache.hit_histogram()
    }

    /// Answer one optimization request; safe to call from any number of
    /// threads concurrently.
    ///
    /// The response is byte-identical (plan, cost bits, table numbering)
    /// to a fresh [`Optimizer::optimize`] of the same request whatever
    /// the cache decided and however the calls interleaved.
    pub fn serve(&self, query: &Query, mode: &Mode) -> Result<ServeResponse, OptError> {
        let ctx = ServeCtx {
            hooks: &(),
            deadline: None,
            trace: &mut TraceCtx::disabled(),
        };
        self.serve_with(query, mode, ctx).map_err(|e| match e {
            ServeError::Opt(e) => e,
            // `()` admits every search and no deadline is set.
            ServeError::Overloaded | ServeError::DeadlineExceeded => {
                unreachable!("an ungated request without a deadline failed with {e}")
            }
        })
    }

    /// [`serve`](Self::serve) with the serving-layer controls of `ctx`:
    /// admission of fresh (cold) searches, the search hook, a deadline,
    /// and request tracing.
    ///
    /// The byte-identity contract is unchanged — a response, when one is
    /// produced, is bit-identical to plain `serve`.  The extra
    /// [`ServeError`] variants are *refusals*, not different answers: a
    /// cold request denied admission fails fast with
    /// [`ServeError::Overloaded`], and a request whose answer is done past
    /// its deadline gets [`ServeError::DeadlineExceeded`] while its search
    /// still feeds the cache.  Warm hits bypass admission: under overload
    /// the cache keeps serving.  When telemetry is installed the request's
    /// outcome class (a missed deadline is an error) and wall time land in
    /// the latency histograms.
    pub fn serve_with(
        &self,
        query: &Query,
        mode: &Mode,
        ctx: ServeCtx<'_>,
    ) -> Result<ServeResponse, ServeError> {
        let ServeCtx {
            hooks,
            deadline,
            trace,
        } = ctx;
        let t0 = Instant::now();
        let result = (|| {
            query
                .validate(self.optimizer.catalog())
                .map_err(OptError::InvalidQuery)?;
            self.cache.count_lookup();
            // Cache-probe span: canonicalization + lookup, closed at the
            // decision point with the branch taken as its detail
            // (0 = hit, 2 = miss, 3 = uncacheable; 1 is retired).
            let probe_start = trace.now_ns();
            // Serving a cached plan to a renamed request is sound because
            // every mode commutes with table renaming
            // (`rename_equivariance.rs`): only the query can be refused.
            let form = match canonical_form(self.optimizer.catalog(), query) {
                Ok(form) => form,
                Err(reason) => {
                    // Counts as uncacheable *and* under its reason, so the
                    // metrics can distinguish "workload outgrew the
                    // canonicalizer" from "queries are too symmetric".
                    self.cache.count_refusal(reason);
                    // Uncacheable requests always run a fresh search, so
                    // they pay the cold toll too.
                    trace.span(Stage::CacheProbe, probe_start, 3);
                    let out = self.cold_search(query, mode, hooks, trace)?;
                    return Ok(ServeResponse {
                        plan: out.plan,
                        cost: out.cost,
                        mode: mode.name(),
                        stats: out.stats,
                        decision: CacheDecision::Uncacheable,
                    });
                }
            };

            // On the stack: a hit allocates only the key's words, the
            // labeling and the plan.
            let inverse = form.inverse_perm();
            let exact_key = self.plan_key(form.exact, mode);
            if let Some(answer) = self.cache.lookup(&exact_key) {
                trace.span(Stage::CacheProbe, probe_start, 0);
                // The canonical outcome, carried back into the caller's
                // table numbering.
                let plan = answer.plan.relabel_tables(&inverse[..form.perm.len()]);
                let mut stats = answer.stats;
                stats.elapsed = t0.elapsed();
                return Ok(ServeResponse {
                    plan,
                    cost: answer.cost,
                    mode: mode.name(),
                    stats,
                    decision: CacheDecision::Served,
                });
            }
            trace.span(Stage::CacheProbe, probe_start, 2);
            let out = self.cold_search(query, mode, hooks, trace)?;
            self.cache.insert(
                exact_key,
                SearchOutcome {
                    plan: out.plan.relabel_tables(&form.perm),
                    cost: out.cost,
                    stats: out.stats,
                },
            );
            let mut stats = out.stats;
            stats.elapsed = t0.elapsed();
            Ok(ServeResponse {
                plan: out.plan,
                cost: out.cost,
                mode: mode.name(),
                stats,
                decision: CacheDecision::Recomputed,
            })
        })();
        // A search is never cancelled (its answer feeds the cache), but an
        // answer finished past the deadline is a refusal, recorded as one.
        let result = match (result, deadline) {
            (Ok(_), Some(d)) if Instant::now() > d => Err(ServeError::DeadlineExceeded),
            (other, _) => other,
        };
        if let Some(tel) = &self.telemetry {
            tel.record_outcome(
                outcome_of(&result),
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        result
    }

    /// The cache key: the exact encoding with the memory and mode
    /// fingerprints pushed onto it (it arrives with room for them).
    fn plan_key(&self, mut exact: Vec<u64>, mode: &Mode) -> PlanKey {
        exact.extend_from_slice(&[self.memory_fp, mode.fingerprint()]);
        PlanKey::new(exact)
    }

    /// One fresh search, as the uncacheable branch and a miss both run it: take a cold slot or shed, call `before_search`,
    /// search, close the span, count.
    fn cold_search(
        &self,
        query: &Query,
        mode: &Mode,
        hooks: &dyn ServeHooks,
        trace: &mut TraceCtx,
    ) -> Result<SearchOutcome, ServeError> {
        let adm_start = trace.now_ns();
        let admitted = hooks.admit_cold();
        trace.span(Stage::Admission, adm_start, admitted as u64);
        if !admitted {
            return Err(ServeError::Overloaded);
        }
        let _permit = ColdPermit { hooks };
        hooks.before_search();
        let search_start = trace.now_ns();
        let result = self.optimizer.optimize(query, mode);
        let nodes = result.as_ref().map_or(0, |out| out.stats.nodes as u64);
        trace.span(Stage::Search, search_start, nodes);
        Ok(result?)
    }

    /// Machine-readable service metrics: cache counters (per-reason
    /// canonicalizer refusals included), occupancy, the
    /// exact-hit skew histogram, and — when telemetry is installed — the
    /// full observability snapshot (latency histograms with
    /// p50/p90/p99/p999, slow log).  Keys are
    /// emitted recursively sorted so snapshots diff cleanly across runs.
    pub fn metrics_json(&self) -> serde_json::Value {
        serde_json::json!({
            "cache": self.cache.stats().to_json(),
            "cache_entries": self.cache.len(),
            "cache_capacity": self.cache.capacity(),
            "hit_histogram": self.hit_histogram(),
            "telemetry": match &self.telemetry {
                Some(t) => t.snapshot_json(),
                None => serde_json::Value::Null,
            },
        })
        .sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_core::fixtures;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// `serve_with` under `hooks`, untraced, with no deadline.
    fn serve_behind(
        server: &ConcurrentPlanServer<'_>,
        query: &Query,
        mode: &Mode,
        hooks: &dyn ServeHooks,
    ) -> Result<ServeResponse, ServeError> {
        let ctx = ServeCtx {
            hooks,
            deadline: None,
            trace: &mut TraceCtx::disabled(),
        };
        server.serve_with(query, mode, ctx)
    }

    #[test]
    fn concurrent_server_serves_through_a_shared_reference() {
        let (cat, q) = fixtures::three_chain();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let server = ConcurrentPlanServer::new(&cat, memory.clone());
        let first = server.serve(&q, &Mode::AlgorithmC).unwrap();
        assert_eq!(first.decision, CacheDecision::Recomputed);
        let second = server.serve(&q, &Mode::AlgorithmC).unwrap();
        assert_eq!(second.decision, CacheDecision::Served);
        assert_eq!(first.plan, second.plan);
        assert_eq!(first.cost.to_bits(), second.cost.to_bits());
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
        let server = ConcurrentPlanServer::new(&cat, memory.clone());
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
        let s1 = ConcurrentPlanServer::new(&cat, m1);
        s1.serve(&q, &Mode::AlgorithmC).unwrap();
        assert_eq!(
            s1.serve(&q, &Mode::Bushy).unwrap().decision,
            CacheDecision::Recomputed,
            "a different mode is a different key"
        );
        let s2 = ConcurrentPlanServer::new(&cat, m2);
        assert_eq!(
            s2.serve(&q, &Mode::AlgorithmC).unwrap().decision,
            CacheDecision::Recomputed,
            "a different memory belief is a different key"
        );
    }

    #[test]
    fn invalid_queries_are_rejected_before_touching_the_cache() {
        let (cat, mut q) = fixtures::three_chain();
        q.joins.clear();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let server = ConcurrentPlanServer::new(&cat, memory);
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
        let server = ConcurrentPlanServer::new(&cat, memory);
        server.serve(&q, &Mode::AlgorithmC).unwrap();
        server.serve(&q, &Mode::AlgorithmC).unwrap();
        let v = server.metrics_json();
        assert_eq!(v["cache"]["served"].as_f64(), Some(1.0));
        assert_eq!(v["cache"]["recomputed"].as_f64(), Some(1.0));
        assert_eq!(v["cache_entries"].as_f64(), Some(1.0));
        assert_eq!(v["hit_histogram"][0].as_f64(), Some(1.0));
    }

    #[test]
    fn scoped_clients_share_one_server() {
        let (cat, q) = fixtures::three_chain();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let server = Arc::new(ConcurrentPlanServer::new(&cat, memory.clone()));
        let fresh = Optimizer::new(&cat, memory)
            .optimize(&q, &Mode::AlgorithmC)
            .unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let server = Arc::clone(&server);
                let q = &q;
                let fresh = &fresh;
                scope.spawn(move || {
                    let resp = server.serve(q, &Mode::AlgorithmC).unwrap();
                    assert_eq!(resp.plan, fresh.plan);
                    assert_eq!(resp.cost.to_bits(), fresh.cost.to_bits());
                });
            }
        });
        let stats = server.cache_stats();
        assert_eq!(stats.lookups, 4);
        // Every response was answered by exactly one decision.
        assert_eq!(stats.served + stats.recomputed, 4);
        // However the four clients interleaved, one entry holds the shape.
        assert_eq!((stats.insertions, server.cache_len()), (1, 1));
    }

    #[test]
    fn refusal_reasons_reach_the_metrics() {
        // The pruning star's reductive spokes are interchangeable twins,
        // so the canonicalizer refuses it — the request still gets a real
        // (uncacheable) answer.
        let (cat, q) = fixtures::pruning_star(9);
        let memory = lec_prob::presets::spread_family(400.0, 0.5, 4).unwrap();
        let server = ConcurrentPlanServer::new(&cat, memory);
        let resp = server.serve(&q, &Mode::AlgorithmC).unwrap();
        assert_eq!(resp.decision, CacheDecision::Uncacheable);
        let v = server.metrics_json();
        assert_eq!(v["cache"]["refusals"]["twin_tables"].as_f64(), Some(1.0));
        assert_eq!(
            v["cache"]["refusals"]["too_many_tables"].as_f64(),
            Some(0.0)
        );
        assert_eq!(v["cache"]["uncacheable"].as_f64(), Some(1.0));

        // An oversize query lands in the size-cap bucket.
        let (big_cat, big_q) = fixtures::pruning_chain(13);
        let server = ConcurrentPlanServer::new(
            &big_cat,
            lec_prob::presets::spread_family(400.0, 0.5, 4).unwrap(),
        );
        server.serve(&big_q, &Mode::AlgorithmC).unwrap();
        let v = server.metrics_json();
        assert_eq!(
            v["cache"]["refusals"]["too_many_tables"].as_f64(),
            Some(1.0)
        );
    }

    struct CountingGate {
        admitted: AtomicU64,
        released: AtomicU64,
        deny: std::sync::atomic::AtomicBool,
        panic_in_search: std::sync::atomic::AtomicBool,
    }

    impl CountingGate {
        fn new() -> Self {
            CountingGate {
                admitted: AtomicU64::new(0),
                released: AtomicU64::new(0),
                deny: std::sync::atomic::AtomicBool::new(false),
                panic_in_search: std::sync::atomic::AtomicBool::new(false),
            }
        }
    }

    impl ServeHooks for CountingGate {
        fn admit_cold(&self) -> bool {
            if self.deny.load(Ordering::SeqCst) {
                return false;
            }
            self.admitted.fetch_add(1, Ordering::SeqCst);
            true
        }
        fn release_cold(&self) {
            self.released.fetch_add(1, Ordering::SeqCst);
        }
        fn before_search(&self) {
            if self.panic_in_search.load(Ordering::SeqCst) {
                panic!("injected search fault");
            }
        }
    }

    #[test]
    fn gated_serve_pairs_admissions_with_releases_and_bypasses_warm_hits() {
        let (cat, q) = fixtures::three_chain();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let server = ConcurrentPlanServer::new(&cat, memory);
        let gate = CountingGate::new();
        let cold = serve_behind(&server, &q, &Mode::AlgorithmC, &gate).unwrap();
        assert_eq!(cold.decision, CacheDecision::Recomputed);
        assert_eq!(gate.admitted.load(Ordering::SeqCst), 1);
        assert_eq!(gate.released.load(Ordering::SeqCst), 1);
        // A warm hit never consults the gate — even one that would deny.
        gate.deny.store(true, Ordering::SeqCst);
        let warm = serve_behind(&server, &q, &Mode::AlgorithmC, &gate).unwrap();
        assert_eq!(warm.decision, CacheDecision::Served);
        assert_eq!(warm.cost.to_bits(), cold.cost.to_bits());
        assert_eq!(gate.admitted.load(Ordering::SeqCst), 1);
        // But a fresh shape is cold and gets shed.
        let (_, q2) = fixtures::three_chain();
        let renamed_mode = Mode::AlgorithmA; // different env fingerprint → cold
        assert!(matches!(
            serve_behind(&server, &q2, &renamed_mode, &gate),
            Err(ServeError::Overloaded)
        ));
        assert_eq!(
            gate.released.load(Ordering::SeqCst),
            1,
            "no release on shed"
        );
    }

    /// A shed request is the whole of its own cohort: no follower waits
    /// on a miss, so the shed request alone fails with `Overloaded`.  It
    /// takes no slot, caches nothing, and the key then serves as fresh
    /// optimization would.
    #[test]
    fn a_shed_leader_tells_its_whole_cohort_and_leaves_the_key_healthy() {
        let (cat, q) = fixtures::three_chain();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let server = ConcurrentPlanServer::new(&cat, memory);
        let gate = CountingGate::new();
        gate.deny.store(true, Ordering::SeqCst);
        assert!(matches!(
            serve_behind(&server, &q, &Mode::AlgorithmC, &gate),
            Err(ServeError::Overloaded)
        ));
        assert_eq!(gate.admitted.load(Ordering::SeqCst), 0);
        assert_eq!(gate.released.load(Ordering::SeqCst), 0);
        assert_eq!(server.cache_len(), 0);
        // The key is healthy: an ungated serve searches, matches fresh
        // optimization bit for bit, and its answer is then served.
        let fresh = server.optimizer.optimize(&q, &Mode::AlgorithmC).unwrap();
        let resp = server.serve(&q, &Mode::AlgorithmC).unwrap();
        assert_eq!(resp.decision, CacheDecision::Recomputed);
        assert_eq!(resp.plan, fresh.plan);
        assert_eq!(resp.cost.to_bits(), fresh.cost.to_bits());
        let warm = server.serve(&q, &Mode::AlgorithmC).unwrap();
        assert_eq!(warm.decision, CacheDecision::Served);
    }

    /// A search killed by a fault panics out of `serve_with` to its own
    /// caller (a daemon reports that panic as `WorkerPanicked`), its cold
    /// permit is released across the unwind, and the key serves again.
    #[test]
    fn a_fault_killed_leader_reports_worker_panicked_and_releases_its_permit() {
        let (cat, q) = fixtures::three_chain();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let server = ConcurrentPlanServer::new(&cat, memory);
        let gate = CountingGate::new();
        gate.panic_in_search.store(true, Ordering::SeqCst);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = serve_behind(&server, &q, &Mode::AlgorithmC, &gate);
        }));
        assert!(died.is_err(), "the injected panic propagates to the caller");
        assert_eq!(
            gate.released.load(Ordering::SeqCst),
            1,
            "the cold permit is released even across the panic"
        );
        assert_eq!(server.cache_len(), 0, "a killed search caches nothing");
        gate.panic_in_search.store(false, Ordering::SeqCst);
        let resp = serve_behind(&server, &q, &Mode::AlgorithmC, &gate).unwrap();
        assert_eq!(resp.decision, CacheDecision::Recomputed);
        assert_eq!(gate.admitted.load(Ordering::SeqCst), 2);
        assert_eq!(gate.released.load(Ordering::SeqCst), 2);
    }

    /// An optimizer error reaches only the request whose search raised it,
    /// which has no followers.  AlgorithmB with c = 0 is rejected after the
    /// lookup missed: nothing is cached, the cold slot is given back, the
    /// same request fails the same way again, and a healthy mode on the
    /// query is unaffected.
    #[test]
    fn leader_errors_reach_their_followers_only() {
        let (cat, q) = fixtures::three_chain();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let server = ConcurrentPlanServer::new(&cat, memory);
        let gate = CountingGate::new();
        let bad = Mode::AlgorithmB { c: 0 };
        for _ in 0..2 {
            assert!(matches!(
                serve_behind(&server, &q, &bad, &gate),
                Err(ServeError::Opt(OptError::BadParameter(_)))
            ));
            assert_eq!(server.cache_len(), 0);
        }
        assert_eq!(gate.admitted.load(Ordering::SeqCst), 2);
        assert_eq!(gate.released.load(Ordering::SeqCst), 2);
        let ok = server.serve(&q, &Mode::AlgorithmC).unwrap();
        assert_eq!(ok.decision, CacheDecision::Recomputed);
        assert_eq!(server.cache_len(), 1);
    }

    /// An answer done past its deadline is refused, and the search still
    /// feeds the cache.
    #[test]
    fn a_late_answer_is_refused_and_still_feeds_the_cache() {
        let (cat, q) = fixtures::three_chain();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let server = ConcurrentPlanServer::new(&cat, memory);
        let ctx = ServeCtx {
            hooks: &(),
            deadline: Some(Instant::now()),
            trace: &mut TraceCtx::disabled(),
        };
        let got = server.serve_with(&q, &Mode::AlgorithmC, ctx);
        assert!(matches!(got, Err(ServeError::DeadlineExceeded)));
        let warm = server.serve(&q, &Mode::AlgorithmC).unwrap();
        assert_eq!(warm.decision, CacheDecision::Served);
        assert_eq!(server.cache_stats().recomputed, 1);
    }

    #[test]
    fn telemetry_records_outcomes_spans_and_sorted_metrics() {
        let (cat, q) = fixtures::three_chain();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let tel = Arc::new(lec_telemetry::Telemetry::on());
        let server = ConcurrentPlanServer::new(&cat, memory).with_telemetry(Arc::clone(&tel));
        // Cold miss lands in the `fresh` histogram, then a traced warm hit
        // in `served`.
        server.serve(&q, &Mode::AlgorithmC).unwrap();
        let mut trace = TraceCtx::new(7);
        let ctx = ServeCtx {
            hooks: &(),
            deadline: None,
            trace: &mut trace,
        };
        let resp = server.serve_with(&q, &Mode::AlgorithmC, ctx).unwrap();
        assert_eq!(resp.decision, CacheDecision::Served);
        tel.finish_request(&trace, Outcome::Served);
        assert_eq!(tel.outcome_snapshot(Outcome::Fresh).count(), 1);
        assert_eq!(tel.outcome_snapshot(Outcome::Served).count(), 1);
        // The warm hit's trace holds exactly one span: the cache probe,
        // closed with detail 0 (= hit).
        let rec = tel
            .slow_log()
            .entries()
            .into_iter()
            .find(|e| e.request_id == 7)
            .expect("trace retained in the slow log");
        assert_eq!(rec.spans.len(), 1);
        assert_eq!(rec.spans[0].stage, Stage::CacheProbe);
        assert_eq!(rec.spans[0].detail, 0);
        // metrics_json folds the snapshot in, with keys recursively sorted.
        let v = server.metrics_json();
        assert_eq!(
            v["telemetry"]["latency"]["served"]["count"].as_f64(),
            Some(1.0)
        );
        fn assert_sorted(v: &serde_json::Value) {
            if let serde_json::Value::Object(pairs) = v {
                for w in pairs.windows(2) {
                    assert!(w[0].0 < w[1].0, "unsorted keys: {} >= {}", w[0].0, w[1].0);
                }
                for (_, inner) in pairs {
                    assert_sorted(inner);
                }
            }
        }
        assert_sorted(&v);
    }
}
