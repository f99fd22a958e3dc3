//! The concurrent-serving acceptance tests: N client threads sharing one
//! `ConcurrentPlanServer` through `&self`, with every response — served
//! or recomputed — byte-identical (plan, cost bits, table numbering) to a
//! fresh `Optimizer::optimize` of the same request under randomized
//! interleavings; plus deterministic same-key tests built on a
//! gate-keeping serve hook that holds every search just short of its DP
//! until all of them have provably missed.

use lec_core::{Mode, Optimizer, SearchOutcome};
use lec_plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_service::{
    canonical_form, CacheDecision, ConcurrentPlanServer, ServeCtx, ServeError, ServeHooks,
    ServeResponse,
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
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = Arc::clone(&server);
            let (stream, fresh, mode) = (&stream, &fresh, &mode);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ client as u64);
                for i in (client..STREAM_LEN).step_by(CLIENTS) {
                    // Randomize the interleaving: sometimes yield before
                    // serving so racing misses change between runs.
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
                }
            });
        }
    });

    let stats = server.cache_stats();
    assert_eq!(stats.lookups as usize, STREAM_LEN);
    assert_eq!(stats.uncacheable, 0, "this stream is fully cacheable");
    // Every request resolved to exactly one decision.
    assert_eq!(
        stats.served + stats.recomputed,
        STREAM_LEN as u64,
        "decision accounting must close"
    );
    // The skew must still be absorbed: misses racing on one shape each
    // search, but at most one entry per distinct shape is inserted.
    let entries = server.metrics_json()["cache_entries"]
        .as_f64()
        .expect("cache_entries");
    assert_eq!(stats.insertions as f64, entries);
    assert!(
        entries <= pool.len() as f64,
        "more entries ({entries}) than distinct shapes ({})",
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
    let hits: f64 = server.metrics_json()["hit_histogram"]
        .as_array()
        .expect("hit_histogram")
        .iter()
        .map(|n| n.as_f64().expect("a hit count"))
        .sum();
    assert_eq!(hits, stats.served as f64);
}

/// Serve hooks that count cold-slot admissions and releases and can hold
/// every search at `before_search` — after its lookup missed, so a test
/// can pile several misses onto one key deterministically — and, when
/// armed to, panic the first search released instead of letting it run.
#[derive(Debug, Default)]
struct Gate {
    gated: AtomicBool,
    entered: AtomicUsize,
    released: AtomicBool,
    poisoned: AtomicBool,
    admits: AtomicUsize,
    releases: AtomicUsize,
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

    /// Cold slots taken and given back.
    fn permits(&self) -> (usize, usize) {
        let admits = self.admits.load(Ordering::SeqCst);
        (admits, self.releases.load(Ordering::SeqCst))
    }
}

impl ServeHooks for Gate {
    fn admit_cold(&self) -> bool {
        self.admits.fetch_add(1, Ordering::SeqCst);
        true
    }

    fn release_cold(&self) {
        self.releases.fetch_add(1, Ordering::SeqCst);
    }

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
            if self.poisoned.swap(false, Ordering::SeqCst) {
                panic!("the gate poisoned this search");
            }
        }
    }
}

/// A 4-table chain for the same-key tests, plus a 3-table chain (another
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

/// `serve_with` behind `hooks`, untraced, with no deadline.
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

fn gated_server(catalog: &lec_catalog::Catalog) -> ConcurrentPlanServer<'_> {
    let memory = lec_prob::presets::spread_family(600.0, 0.6, 4).unwrap();
    ConcurrentPlanServer::with_optimizer(Optimizer::new(catalog, memory), 64)
}

/// `query`'s fresh optimization, from a new optimizer over `server`'s
/// catalog and memory.
fn fresh_of(server: &ConcurrentPlanServer<'_>, query: &Query, mode: &Mode) -> SearchOutcome {
    let opt = server.optimizer();
    Optimizer::new(opt.catalog(), opt.memory().clone())
        .optimize(query, mode)
        .unwrap()
}

fn assert_same_answer(got: &ServeResponse, want: &SearchOutcome, what: &str) {
    assert_eq!(got.plan, want.plan, "{what}: plan differs from fresh");
    assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{what}: cost bits");
}

/// Four clients cold-serve renamings of one shape at once: the gate holds
/// every search until all four have missed, so each runs its own search.
/// Every answer is fresh optimization's, bit for bit; the first insert
/// stays the shape's one entry, and a second round is all hits — in each
/// caller's own table numbering.
#[test]
fn concurrent_misses_on_one_key_each_search_and_answer_alike() {
    let (catalog, big, _) = gated_fixtures();
    let gate = Gate::default();
    let server = gated_server(&catalog);
    let mode = Mode::AlgorithmC;

    // Renamed copies of one shape: one exact canonical key.  None is in
    // canonical labels already, so an entry stored in its inserter's
    // labels would answer the second round wrong.
    let renamed: Vec<Query> = [[1usize, 0, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], [0, 3, 1, 2]]
        .iter()
        .map(|map| big.relabel_tables(map))
        .collect();
    for q in &renamed {
        let perm = canonical_form(&catalog, q).expect("cacheable").perm;
        assert!(perm.iter().enumerate().any(|(i, &p)| i != p));
    }
    let fresh: Vec<SearchOutcome> = renamed
        .iter()
        .map(|q| fresh_of(&server, q, &mode))
        .collect();

    gate.arm(false);
    std::thread::scope(|scope| {
        let clients: Vec<_> = renamed
            .iter()
            .map(|q| {
                let (server, mode, gate) = (&server, &mode, &gate);
                scope.spawn(move || serve_behind(server, q, mode, gate).unwrap())
            })
            .collect();
        gate.await_entered(renamed.len());
        gate.release();
        for (client, want) in clients.into_iter().zip(&fresh) {
            let resp = client.join().unwrap();
            assert_eq!(resp.decision, CacheDecision::Recomputed);
            assert_same_answer(&resp, want, "racing miss");
        }
    });

    let stats = server.cache_stats();
    assert_eq!(stats.lookups, 4);
    assert_eq!(stats.served + stats.recomputed, 4);
    assert_eq!(stats.recomputed, 4, "every held miss ran its own search");
    assert_eq!(stats.insertions, 1);
    assert_eq!(server.metrics_json()["cache_entries"].as_f64(), Some(1.0));
    assert_eq!(gate.permits(), (4, 4));
    for (q, want) in renamed.iter().zip(&fresh) {
        let resp = server.serve(q, &mode).unwrap();
        assert_eq!(resp.decision, CacheDecision::Served);
        assert_same_answer(&resp, want, "second round");
    }
}

/// A poisoned leader — a search that panics — fails only the request it
/// serves.  A miss has no followers: a concurrent miss on the same key
/// runs its own search and answers normally, and so does a bystander on
/// another key.  The panicking search gives its cold slot back, caches
/// nothing, and leaves the key healthy.
#[test]
fn poisoned_leader_fails_only_its_followers() {
    let (catalog, big, small) = gated_fixtures();
    let gate = Gate::default();
    let server = gated_server(&catalog);
    let mode = Mode::AlgorithmC;
    let renamed = big.relabel_tables(&[3, 2, 1, 0]);
    let fresh = [
        fresh_of(&server, &big, &mode),
        fresh_of(&server, &renamed, &mode),
    ];

    gate.arm(true);
    std::thread::scope(|scope| {
        let clients: Vec<_> = [&big, &renamed]
            .into_iter()
            .map(|q| {
                let (server, mode, gate) = (&server, &mode, &gate);
                scope.spawn(move || serve_behind(server, q, mode, gate))
            })
            .collect();
        gate.await_entered(2);
        // A bystander on a different key serves ungated, so it never
        // meets the gate and is answered normally while both searches
        // hang.
        let bystander = server.serve(&small, &mode).unwrap();
        assert_eq!(bystander.decision, CacheDecision::Recomputed);

        gate.release();
        let mut panicked = 0;
        for (client, want) in clients.into_iter().zip(&fresh) {
            match client.join() {
                Err(_) => panicked += 1,
                Ok(resp) => {
                    let resp = resp.expect("the unpoisoned search answers");
                    assert_eq!(resp.decision, CacheDecision::Recomputed);
                    assert_same_answer(&resp, want, "the surviving miss");
                }
            }
        }
        assert_eq!(panicked, 1, "exactly the poisoned search's caller panics");
    });
    assert_eq!(
        gate.permits(),
        (2, 2),
        "the panicking search gave its slot back"
    );
    // The survivor's answer is the key's one entry; the bystander's
    // entry is untouched.
    assert_eq!(server.metrics_json()["cache_entries"].as_f64(), Some(2.0));
    for (q, want) in [&big, &renamed].into_iter().zip(&fresh) {
        let resp = server.serve(q, &mode).unwrap();
        assert_eq!(resp.decision, CacheDecision::Served);
        assert_same_answer(&resp, want, "after the panic");
    }
    assert_eq!(
        server.serve(&small, &mode).unwrap().decision,
        CacheDecision::Served
    );
}
