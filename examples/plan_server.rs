//! The cross-query serving layer: a `ConcurrentPlanServer` answering one
//! client's skewed stream of optimization requests through the
//! canonical-shape plan cache.
//!
//! Repeats and table-renamed copies of an already-optimized query shape
//! are answered by relabeling the cached plan — no dynamic programming at
//! all — while new shapes recompute.  Every response is byte-identical to
//! a fresh `Optimizer::optimize` of the same request.
//!
//! ```text
//! cargo run --example plan_server --release
//! ```

use lec_qopt::catalog::CatalogGenerator;
use lec_qopt::core::{Mode, Optimizer};
use lec_qopt::plan::{QueryProfile, Topology, WorkloadGenerator};
use lec_qopt::prob::presets;
use lec_qopt::service::{CacheDecision, ConcurrentPlanServer};

fn main() {
    let mut gen = CatalogGenerator::new(42);
    let catalog = gen.generate(10);
    let mut wg = WorkloadGenerator::new(7);

    // Three base query shapes over the catalog.
    let base: Vec<_> = [Topology::Chain, Topology::Star, Topology::Random]
        .into_iter()
        .map(|topology| {
            let ids = gen.pick_tables(&catalog, 5);
            wg.gen_query(
                &catalog,
                &ids,
                &QueryProfile {
                    topology,
                    ..Default::default()
                },
            )
        })
        .collect();

    let memory = presets::spread_family(600.0, 0.6, 4).unwrap();
    let server = ConcurrentPlanServer::new(&catalog, memory.clone());
    let fresh = Optimizer::new(&catalog, memory);

    // A small skewed stream: each base shape repeatedly, under rotating
    // table renamings (the cache's bread and butter).
    let renamings: [&[usize]; 4] = [
        &[0, 1, 2, 3, 4],
        &[4, 3, 2, 1, 0],
        &[2, 0, 4, 1, 3],
        &[1, 4, 0, 3, 2],
    ];
    println!("serving a 24-request stream (3 shapes x 4 renamings x 2 rounds):\n");
    let mut served_us = 0.0;
    let mut computed_us = 0.0;
    for round in 0..2 {
        for (qi, q) in base.iter().enumerate() {
            for (ri, map) in renamings.iter().enumerate() {
                let request = q.relabel_tables(map);
                let resp = server.serve(&request, &Mode::AlgorithmC).unwrap();
                let us = resp.stats.elapsed.as_secs_f64() * 1e6;
                match resp.decision {
                    CacheDecision::Served => served_us += us,
                    _ => computed_us += us,
                }
                // Byte-identity check against a fresh, cache-free run.
                let check = fresh.optimize(&request, &Mode::AlgorithmC).unwrap();
                assert_eq!(resp.plan, check.plan, "served plan must match fresh");
                assert_eq!(resp.cost.to_bits(), check.cost.to_bits());
                if ri == 0 || round == 0 {
                    println!(
                        "  round {round} shape {qi} renaming {ri}: {:<12} {:>8.0}us  {}",
                        resp.decision.name(),
                        us,
                        resp.plan.compact()
                    );
                }
            }
        }
    }

    let stats = server.cache_stats();
    println!(
        "\ncache: {} served / {} recomputed over {} lookups (hit rate {:.0}%)",
        stats.served,
        stats.recomputed,
        stats.lookups,
        stats.hit_rate() * 100.0
    );
    println!(
        "mean latency: served {:.0}us vs computed {:.0}us",
        served_us / stats.served.max(1) as f64,
        computed_us / (stats.lookups - stats.served).max(1) as f64
    );
    println!("\nmetrics: {}", server.metrics_json());
    assert!(stats.served > stats.recomputed, "repeats must dominate");
}
