//! # lec-service — the cross-query serving layer
//!
//! The paper optimizes one query at a time; its §5 parametric argument
//! (precompute plans for anticipated environments, pick cheaply at
//! start-up) already gestures at the workload-level question: how do you
//! serve a *stream* of optimization requests fast?  This crate is that
//! subsystem, built around one piece:
//!
//! * **Canonical-shape plan cache** ([`lec_canon`], [`cache`]): every request
//!   is normalized to a canonical table labeling (join-graph topology up
//!   to renaming, per-table statistics, memory-distribution and
//!   mode fingerprints — Weisfeiler–Leman refinement plus
//!   minimum-encoding tie-breaking).  Requests that are renamings of an
//!   already-optimized shape skip the whole DP: the cached plan is
//!   relabeled into the caller's numbering and served.  Anything else —
//!   a drifted parameter included — is a miss and a fresh search, so every
//!   response, served or recomputed, is byte-identical to a fresh
//!   [`lec_core::Optimizer::optimize`] on the same request.  LRU
//!   eviction, per-entry hit counters, and a [`CacheDecision`] in every
//!   response keep the cache observable.
//!
//! A miss is a plain search on the thread that asked; the serving layer
//! adds no threads of its own.  [`ConcurrentPlanServer`] puts the cache
//! behind one `serve` call:
//!
//! ```
//! use lec_core::{fixtures, Mode};
//! use lec_service::{CacheDecision, ConcurrentPlanServer};
//!
//! let (catalog, query) = fixtures::three_chain();
//! let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
//! let server = ConcurrentPlanServer::new(&catalog, memory);
//!
//! let cold = server.serve(&query, &Mode::AlgorithmC).unwrap();
//! assert_eq!(cold.decision, CacheDecision::Recomputed);
//!
//! // A table-renamed copy of the same query: answered from cache, no DP.
//! let renamed = query.relabel_tables(&[2, 0, 1]);
//! let warm = server.serve(&renamed, &Mode::AlgorithmC).unwrap();
//! assert_eq!(warm.decision, CacheDecision::Served);
//! assert_eq!(warm.cost.to_bits(), cold.cost.to_bits());
//! ```
//!
//! # Many clients, one server
//!
//! `serve` takes `&self` and the plan cache is lock-striped, so hits
//! never serialize behind a global lock.  A miss runs its own search on
//! its own thread and inserts the outcome; misses that race on one shape
//! each search, and every answer is the same.  Share the server with
//! `Arc` (or plain borrows under [`std::thread::scope`]):
//!
//! ```
//! use std::sync::Arc;
//! use lec_core::{fixtures, Mode, Optimizer};
//! use lec_service::ConcurrentPlanServer;
//!
//! let (catalog, query) = fixtures::three_chain();
//! let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
//! let server = Arc::new(ConcurrentPlanServer::new(&catalog, memory.clone()));
//!
//! let fresh = Optimizer::new(&catalog, memory)
//!     .optimize(&query, &Mode::AlgorithmC)
//!     .unwrap();
//! std::thread::scope(|scope| {
//!     for _ in 0..4 {
//!         let server = Arc::clone(&server);
//!         let (query, fresh) = (&query, &fresh);
//!         scope.spawn(move || {
//!             let resp = server.serve(query, &Mode::AlgorithmC).unwrap();
//!             // Byte-identical under any interleaving.
//!             assert_eq!(resp.plan, fresh.plan);
//!             assert_eq!(resp.cost.to_bits(), fresh.cost.to_bits());
//!         });
//!     }
//! });
//! // However the clients raced, one entry holds the shape.
//! let stats = server.cache_stats();
//! assert_eq!(stats.served + stats.recomputed, 4);
//! assert_eq!(server.metrics_json()["cache_entries"].as_f64(), Some(1.0));
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod concurrent;

pub use cache::{CacheDecision, CacheStats, ShapeCache, CACHE_SHARDS};
pub use concurrent::{
    outcome_of, ConcurrentPlanServer, ServeCtx, ServeError, ServeHooks, ServeResponse,
    DEFAULT_CACHE_CAPACITY,
};
pub use lec_canon::{
    canonical_form, CanonicalForm, RefusalReason, MAX_CANDIDATE_PERMS, MAX_CANON_TABLES,
};
