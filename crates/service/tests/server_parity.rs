//! The acceptance parity test: over a 500-query skewed workload (repeats
//! and table-renamed copies of a base query pool), every response of a
//! `ConcurrentPlanServer` with one client — served, recomputed, or
//! uncacheable — is
//! byte-identical (plan, cost bits, table numbering) to a fresh
//! `Optimizer::optimize` of the same request, and the cache actually
//! absorbs the skew (non-trivial hit rate, per-entry hit counters),
//! with telemetry installed or not.

mod common;

use lec_core::{Mode, Optimizer};
use lec_plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_service::{CacheDecision, ConcurrentPlanServer};
use lec_telemetry::{Outcome, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const STREAM_LEN: usize = 500;

fn random_perm(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// A pool of base queries over one catalog, mixed topologies and sizes.
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

/// The 500-request skewed stream: base query `i` drawn with weight
/// `1/(i+1)` (a zipf-flavoured head), each occurrence randomly
/// table-renamed — the isomorphic-repeat pattern the canonical cache is
/// built for.
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

/// The stream runs through two servers, one with telemetry installed:
/// each must serve fresh optimization's bytes, and the telemetry one
/// records every request under its outcome.
#[test]
fn five_hundred_query_stream_is_byte_identical_to_fresh_optimization() {
    let mut g = lec_catalog::CatalogGenerator::new(11);
    let catalog = g.generate(16);
    let pool = base_pool(&catalog, 11, 24);
    let stream = skewed_stream(&pool, 97);
    assert_eq!(stream.len(), STREAM_LEN);

    let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();
    let tel = Arc::new(Telemetry::on());
    let plain = ConcurrentPlanServer::new(&catalog, memory.clone());
    let observed =
        ConcurrentPlanServer::new(&catalog, memory.clone()).with_telemetry(Arc::clone(&tel));
    let fresh_opt = Optimizer::new(&catalog, memory);
    let mode = Mode::AlgorithmC;

    for (name, server, tel) in [
        ("plain", &plain, None),
        ("telemetry", &observed, Some(&tel)),
    ] {
        let mut decisions = [0usize; 3];
        for (i, q) in stream.iter().enumerate() {
            let resp = server.serve(q, &mode).expect("serve succeeds");
            let fresh = fresh_opt
                .optimize(q, &mode)
                .expect("fresh optimize succeeds");
            assert_eq!(
                resp.plan, fresh.plan,
                "{name} request {i}: served plan differs from fresh optimization \
                 (decision {:?})",
                resp.decision
            );
            assert_eq!(
                resp.cost.to_bits(),
                fresh.cost.to_bits(),
                "{name} request {i}: cost bits differ (decision {:?})",
                resp.decision
            );
            decisions[match resp.decision {
                CacheDecision::Served => 0,
                CacheDecision::Recomputed => 1,
                CacheDecision::Uncacheable => 2,
            }] += 1;
        }

        let stats = server.cache_stats();
        assert_eq!(stats.lookups as usize, STREAM_LEN);
        assert_eq!(stats.served as usize, decisions[0]);
        assert_eq!(
            stats.uncacheable, 0,
            "every request in this stream is cacheable"
        );
        // The skewed stream repeats shapes heavily: the cache must be doing
        // real work, and each distinct shape is recomputed exactly once.
        assert!(
            stats.hit_rate() > 0.8,
            "{name}: hit rate {:.3} too low for a {}-shape pool over {} requests",
            stats.hit_rate(),
            pool.len(),
            STREAM_LEN
        );
        assert_eq!(
            Some(decisions[1] as f64),
            server.metrics_json()["cache_entries"].as_f64(),
            "{name}: one recompute per distinct shape"
        );
        // Hit counters expose the skew: the hottest entry outdraws the sum's
        // tail by construction of the 1/(i+1) weights.
        let histogram: Vec<u64> = server.metrics_json()["hit_histogram"]
            .as_array()
            .expect("hit_histogram")
            .iter()
            .map(|n| n.as_f64().expect("a hit count") as u64)
            .collect();
        assert!(histogram[0] >= histogram[histogram.len() - 1]);
        assert_eq!(
            histogram.iter().sum::<u64>(),
            stats.served,
            "{name}: per-entry hits must add up to the served total"
        );
        if let Some(tel) = tel {
            assert_eq!(
                tel.outcome_snapshot(Outcome::Fresh).count() as usize,
                decisions[1]
            );
            assert_eq!(
                tel.outcome_snapshot(Outcome::Served).count() as usize,
                decisions[0]
            );
        }
    }
}

#[test]
fn mixed_mode_stream_stays_byte_identical() {
    // The cache key includes the mode fingerprint: interleaving modes over
    // the same queries must neither cross-contaminate nor lose identity.
    let mut g = lec_catalog::CatalogGenerator::new(23);
    let catalog = g.generate(12);
    let pool = base_pool(&catalog, 23, 6);
    let memory = lec_prob::presets::spread_family(700.0, 0.5, 4).unwrap();
    let server = ConcurrentPlanServer::new(&catalog, memory.clone());
    let fresh_opt = Optimizer::new(&catalog, memory);
    // AlgorithmB used to be the uncacheable-mode representative; its top-c
    // frontier now truncates under the rename-equivariant (cost, plan
    // shape) order, so the server caches it like the keep-best modes —
    // parity must hold *and* repeats must actually hit.
    let modes = [
        Mode::AlgorithmC,
        Mode::Lsc(lec_core::PointEstimate::Mean),
        Mode::AlgorithmB { c: 2 },
        Mode::Bushy,
        Mode::AlgorithmD {
            config: lec_core::AlgDConfig::default(),
        },
    ];
    let mut rng = StdRng::seed_from_u64(5);
    let mut alg_b_served = 0usize;
    let mut alg_b_uncacheable = 0usize;
    for round in 0..60 {
        let q = &pool[round % pool.len()];
        let renamed = q.relabel_tables(&random_perm(&mut rng, q.n_tables()));
        let mode = &modes[round % modes.len()];
        let resp = server.serve(&renamed, mode).unwrap();
        let fresh = fresh_opt.optimize(&renamed, mode).unwrap();
        assert_eq!(resp.plan, fresh.plan, "round {round} ({})", mode.name());
        assert_eq!(
            resp.cost.to_bits(),
            fresh.cost.to_bits(),
            "round {round} ({})",
            mode.name()
        );
        if matches!(mode, Mode::AlgorithmB { .. }) {
            match resp.decision {
                CacheDecision::Served => alg_b_served += 1,
                CacheDecision::Uncacheable => alg_b_uncacheable += 1,
                _ => {}
            }
        }
    }
    assert!(server.cache_stats().served > 0, "repeats must hit");
    // Every (query, mode) pair appears twice over 60 rounds: with AlgB now
    // rename-equivariant, its renamed repeats are served from cache (only
    // queries the canonicalizer itself refuses may bypass).
    assert!(
        alg_b_served > 0,
        "Algorithm B renamed repeats must now hit the cache \
         (served {alg_b_served}, uncacheable {alg_b_uncacheable})"
    );
}

#[test]
fn a_query_labeled_by_enumeration_is_served_byte_identically() {
    // No ledger workload reaches the canonicalizer's enumeration path (all
    // their colourings are discrete); this fixture does, and is cacheable.
    let (catalog, q) = common::near_twin_cycle();
    let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();
    let server = ConcurrentPlanServer::new(&catalog, memory.clone());
    let fresh_opt = Optimizer::new(&catalog, memory);
    let mode = Mode::AlgorithmC;
    let first = server.serve(&q, &mode).unwrap();
    assert_eq!(first.decision, CacheDecision::Recomputed);
    for map in [[1, 2, 3, 4, 0], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]] {
        let renamed = q.relabel_tables(&map);
        let served = server.serve(&renamed, &mode).unwrap();
        let fresh = fresh_opt.optimize(&renamed, &mode).unwrap();
        assert_eq!(served.decision, CacheDecision::Served, "renaming {map:?}");
        assert_eq!(served.plan, fresh.plan, "renaming {map:?}");
        assert_eq!(
            served.cost.to_bits(),
            fresh.cost.to_bits(),
            "renaming {map:?}"
        );
    }
}
