//! The concurrent-serving acceptance tests: N client threads sharing one
//! `ConcurrentPlanServer` through `&self`, with every response —
//! served, coalesced, recomputed — byte-identical (plan,
//! cost bits, table numbering) to a fresh `Optimizer::optimize` of the
//! same request under randomized interleavings; plus deterministic
//! coalescing tests built on a gate-keeping serve hook that holds a
//! leader just short of its search until its followers have provably
//! queued.

use lec_core::{Mode, OptError, Optimizer};
use lec_plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_service::{
    CacheDecision, ConcurrentPlanServer, ServeCtx, ServeError, ServeHooks, ServeResponse,
};
use lec_telemetry::TraceCtx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const STREAM_LEN: usize = 500;
const CLIENTS: usize = 4;

fn random_perm(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// A pool of base queries over one catalog, mixed topologies and sizes
/// (the same construction as `server_parity`).
fn base_pool(catalog: &lec_catalog::Catalog, seed: u64, count: usize) -> Vec<Query> {
    let mut g = lec_catalog::CatalogGenerator::new(seed);
    let mut wg = WorkloadGenerator::new(seed ^ 0xFEED);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    (0..count)
        .map(|i| {
            let n = 3 + (i % 4); // 3..=6 tables
            let ids = g.pick_tables(catalog, n);
            let topology = [Topology::Chain, Topology::Star, Topology::Random][i % 3];
            let profile = QueryProfile {
                topology,
                sel_buckets: if rng.gen::<bool>() { 1 } else { 3 },
                ..Default::default()
            };
            wg.gen_query(catalog, &ids, &profile)
        })
        .collect()
}

/// The skewed stream: base query `i` drawn with weight `1/(i+1)`, each
/// occurrence randomly table-renamed.
fn skewed_stream(pool: &[Query], seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let weights: Vec<f64> = (0..pool.len()).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    (0..STREAM_LEN)
        .map(|_| {
            let mut pick = rng.gen::<f64>() * total;
            let mut idx = 0;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    idx = i;
                    break;
                }
                pick -= w;
                idx = i;
            }
            let q = &pool[idx];
            q.relabel_tables(&random_perm(&mut rng, q.n_tables()))
        })
        .collect()
}

/// Four clients replay disjoint interleaved slices of the 500-query
/// skewed stream against one shared server; every response must be
/// byte-identical to a fresh optimization of that request, and the
/// decision accounting must close exactly.
#[test]
fn concurrent_clients_stay_byte_identical_to_fresh_optimization() {
    let mut g = lec_catalog::CatalogGenerator::new(11);
    let catalog = g.generate(16);
    let pool = base_pool(&catalog, 11, 24);
    let stream = skewed_stream(&pool, 131);
    let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();

    let fresh_opt = Optimizer::new(&catalog, memory.clone());
    let mode = Mode::AlgorithmC;
    let fresh: Vec<_> = stream
        .iter()
        .map(|q| fresh_opt.optimize(q, &mode).expect("fresh optimize"))
        .collect();

    let server = Arc::new(ConcurrentPlanServer::new(&catalog, memory));
    let coalesced = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = Arc::clone(&server);
            let (stream, fresh, mode, coalesced) = (&stream, &fresh, &mode, &coalesced);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ client as u64);
                for i in (client..STREAM_LEN).step_by(CLIENTS) {
                    // Randomize the interleaving: sometimes yield before
                    // serving so leaders and followers swap roles between
                    // runs.
                    if rng.gen::<bool>() {
                        std::thread::yield_now();
                    }
                    let resp = server.serve(&stream[i], mode).expect("serve succeeds");
                    assert_eq!(
                        resp.plan, fresh[i].plan,
                        "request {i}: served plan differs from fresh optimization \
                         (decision {:?})",
                        resp.decision
                    );
                    assert_eq!(
                        resp.cost.to_bits(),
                        fresh[i].cost.to_bits(),
                        "request {i}: cost bits differ (decision {:?})",
                        resp.decision
                    );
                    if resp.decision == CacheDecision::Coalesced {
                        coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let stats = server.cache_stats();
    assert_eq!(stats.lookups as usize, STREAM_LEN);
    assert_eq!(stats.uncacheable, 0, "this stream is fully cacheable");
    // Every request resolved to exactly one decision.
    assert_eq!(
        stats.served + stats.coalesced_followers + stats.recomputed,
        STREAM_LEN as u64,
        "decision accounting must close"
    );
    // The follower counter agrees with the responses the clients saw.
    assert_eq!(
        stats.coalesced_followers as usize,
        coalesced.load(Ordering::Relaxed),
        "follower stat must match Coalesced responses"
    );
    // The skew must still be absorbed: at most one search per distinct
    // shape (coalescing can only reduce searches, never add).
    assert!(
        stats.recomputed <= pool.len() as u64,
        "more searches ({}) than distinct shapes ({})",
        stats.recomputed,
        pool.len()
    );
    assert!(
        stats.hit_rate() > 0.8,
        "hit rate {:.3} too low for a {}-shape pool over {} requests",
        stats.hit_rate(),
        pool.len(),
        STREAM_LEN
    );
    // Per-entry hits add up to the served total.
    assert_eq!(server.hit_histogram().iter().sum::<u64>(), stats.served);
}

/// Serve hooks that can hold a leader at `before_search` — after cohort
/// admission, so a test can pile followers onto the in-flight leader
/// deterministically — and, when armed to, panic it instead of letting
/// the search run.
#[derive(Debug, Default)]
struct Gate {
    gated: AtomicBool,
    entered: AtomicUsize,
    released: AtomicBool,
    poisoned: AtomicBool,
}

impl Gate {
    fn arm(&self, poison: bool) {
        self.entered.store(0, Ordering::SeqCst);
        self.released.store(false, Ordering::SeqCst);
        self.poisoned.store(poison, Ordering::SeqCst);
        self.gated.store(true, Ordering::SeqCst);
    }

    fn release(&self) {
        self.released.store(true, Ordering::SeqCst);
        self.gated.store(false, Ordering::SeqCst);
    }

    fn await_entered(&self, n: usize) {
        let t0 = Instant::now();
        while self.entered.load(Ordering::SeqCst) < n {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "timed out waiting for {n} gated searches"
            );
            std::thread::yield_now();
        }
    }
}

impl ServeHooks for Gate {
    fn before_search(&self) {
        if self.gated.load(Ordering::SeqCst) {
            self.entered.fetch_add(1, Ordering::SeqCst);
            let t0 = Instant::now();
            while !self.released.load(Ordering::SeqCst) {
                assert!(
                    t0.elapsed() < Duration::from_secs(30),
                    "gate never released"
                );
                std::thread::yield_now();
            }
            if self.poisoned.load(Ordering::SeqCst) {
                panic!("the gate poisoned this search");
            }
        }
    }
}

/// A 4-table chain for the gated cohort, plus a 3-table chain (another
/// canonical key) for bystander traffic.
fn gated_fixtures() -> (lec_catalog::Catalog, Query, Query) {
    let mut g = lec_catalog::CatalogGenerator::new(77);
    let catalog = g.generate(12);
    let mut wg = WorkloadGenerator::new(0xBEEF);
    let profile = QueryProfile {
        topology: Topology::Chain,
        ..Default::default()
    };
    let big_ids = g.pick_tables(&catalog, 4);
    let big = wg.gen_query(&catalog, &big_ids, &profile);
    let small_ids = g.pick_tables(&catalog, 3);
    let small = wg.gen_query(&catalog, &small_ids, &profile);
    (catalog, big, small)
}

/// `serve_with` behind `gate`, untraced, with no deadline.
fn serve_behind(
    server: &ConcurrentPlanServer<'_>,
    query: &Query,
    mode: &Mode,
    gate: &Gate,
) -> Result<ServeResponse, ServeError> {
    let ctx = ServeCtx {
        hooks: gate,
        deadline: None,
        trace: &mut TraceCtx::disabled(),
    };
    server.serve_with(query, mode, ctx)
}

fn gated_server(catalog: &lec_catalog::Catalog) -> ConcurrentPlanServer<'_> {
    let memory = lec_prob::presets::spread_family(600.0, 0.6, 4).unwrap();
    ConcurrentPlanServer::with_optimizer(Optimizer::new(catalog, memory), 64)
}

/// Concurrent misses on one exact canonical key must run exactly one DP:
/// the gate holds the leader's search open until three followers have
/// provably attached, then every response comes out byte-identical and
/// the metrics show one leader, three followers, one search.
#[test]
fn coalesced_misses_on_one_key_run_exactly_one_dp() {
    let (catalog, big, _) = gated_fixtures();
    let gate = Gate::default();
    let server = gated_server(&catalog);
    let mode = Mode::AlgorithmC;

    // Renamed copies of the same shape: one exact canonical key.
    let renamings: [&[usize]; 3] = [&[1, 0, 2, 3], &[3, 2, 1, 0], &[2, 0, 3, 1]];

    gate.arm(false);
    std::thread::scope(|scope| {
        let leader = {
            let (server, big, mode, gate) = (&server, &big, &mode, &gate);
            scope.spawn(move || serve_behind(server, big, mode, gate).unwrap())
        };
        // The leader now provably holds the key (gated just before its DP).
        gate.await_entered(1);
        let followers: Vec<_> = renamings
            .iter()
            .map(|map| {
                let renamed = big.relabel_tables(map);
                let (server, mode, gate) = (&server, &mode, &gate);
                scope.spawn(move || {
                    let fresh = Optimizer::new(
                        server.optimizer().catalog(),
                        server.optimizer().memory().clone(),
                    )
                    .optimize(&renamed, mode)
                    .unwrap();
                    let resp = serve_behind(server, &renamed, mode, gate).unwrap();
                    (resp, fresh)
                })
            })
            .collect();
        // Hold the gate until every follower has attached to the leader's
        // in-flight search — then release and let the single DP answer
        // all four clients.
        let t0 = Instant::now();
        while server.cache_stats().coalesced_followers < renamings.len() as u64 {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "followers never attached"
            );
            std::thread::yield_now();
        }
        gate.release();

        let leader_resp = leader.join().unwrap();
        assert_eq!(leader_resp.decision, CacheDecision::Recomputed);
        for f in followers {
            let (resp, fresh) = f.join().unwrap();
            assert_eq!(resp.decision, CacheDecision::Coalesced);
            assert_eq!(resp.plan, fresh.plan, "coalesced plan differs from fresh");
            assert_eq!(resp.cost.to_bits(), fresh.cost.to_bits());
        }
    });

    let stats = server.cache_stats();
    assert_eq!(stats.recomputed, 1, "exactly one DP ran");
    assert_eq!(stats.coalesced_followers, 3);
    assert_eq!(stats.coalesced_leaders, 1);
    assert_eq!(stats.served, 0);
    // The cohort's key is now a plain cache entry.
    let again = server.serve(&big, &mode).unwrap();
    assert_eq!(again.decision, CacheDecision::Served);
}

/// A leader that panics mid-flight fails exactly its own followers —
/// each receives `WorkerPanicked` — while a bystander on a different key
/// is untouched, and the poisoned key elects a healthy fresh leader
/// afterwards.
#[test]
fn poisoned_leader_fails_only_its_followers() {
    let (catalog, big, small) = gated_fixtures();
    let gate = Gate::default();
    let server = gated_server(&catalog);
    let mode = Mode::AlgorithmC;

    gate.arm(true);
    std::thread::scope(|scope| {
        let leader = {
            let (server, big, mode, gate) = (&server, &big, &mode, &gate);
            scope.spawn(move || serve_behind(server, big, mode, gate))
        };
        gate.await_entered(1);
        let followers: Vec<_> = [[1usize, 0, 2, 3], [3, 2, 1, 0]]
            .iter()
            .map(|map| {
                let renamed = big.relabel_tables(map);
                let (server, mode, gate) = (&server, &mode, &gate);
                scope.spawn(move || serve_behind(server, &renamed, mode, gate))
            })
            .collect();
        let t0 = Instant::now();
        while server.cache_stats().coalesced_followers < 2 {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "followers never attached"
            );
            std::thread::yield_now();
        }
        // A bystander on a different key serves ungated, so it never
        // meets the gate and must be answered normally while the leader
        // hangs.
        let bystander = server.serve(&small, &mode).unwrap();
        assert_eq!(bystander.decision, CacheDecision::Recomputed);

        gate.release();
        assert!(
            leader.join().is_err(),
            "the poisoned leader's own thread must observe the panic"
        );
        for f in followers {
            let got = f.join().unwrap();
            assert!(
                matches!(got, Err(ServeError::Opt(OptError::WorkerPanicked))),
                "followers of the failed leader must see WorkerPanicked, got {got:?}"
            );
        }
    });

    // Nothing about the poisoned key was cached: the same key now elects
    // a fresh leader whose search succeeds and is byte-identical to fresh
    // optimization.
    let resp = server.serve(&big, &mode).unwrap();
    assert_eq!(resp.decision, CacheDecision::Recomputed);
    let fresh = Optimizer::new(&catalog, server.optimizer().memory().clone())
        .optimize(&big, &mode)
        .unwrap();
    assert_eq!(resp.plan, fresh.plan);
    assert_eq!(resp.cost.to_bits(), fresh.cost.to_bits());
    assert_eq!(
        server.serve(&big, &mode).unwrap().decision,
        CacheDecision::Served
    );
    // The bystander's entry survived untouched.
    assert_eq!(
        server.serve(&small, &mode).unwrap().decision,
        CacheDecision::Served
    );
}
