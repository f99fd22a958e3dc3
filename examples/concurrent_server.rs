//! The concurrent serving front end: one `ConcurrentPlanServer` shared by
//! four client threads through `&self` (the `Arc` multi-client pattern).
//!
//! The plan cache is lock-striped so warm hits from different clients
//! never serialize behind a global lock, and concurrent misses on the
//! same canonical shape *coalesce*: one leader runs the DP, the other
//! clients block on it and get the leader's canonical outcome relabeled
//! into their own table numbering (`CacheDecision::Coalesced`).  Every
//! response — whatever the interleaving — is byte-identical to a fresh
//! `Optimizer::optimize` of the same request.
//!
//! ```text
//! cargo run --example concurrent_server --release
//! ```

use std::sync::Arc;

use lec_qopt::catalog::CatalogGenerator;
use lec_qopt::core::{Mode, Optimizer};
use lec_qopt::plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_qopt::prob::presets;
use lec_qopt::service::{CacheDecision, ConcurrentPlanServer};

const CLIENTS: usize = 4;

fn main() {
    let mut gen = CatalogGenerator::new(42);
    let catalog = gen.generate(12);
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

    // Each client's stream: every shape under its own renaming, repeated
    // — so the clients keep racing onto the same canonical shapes.
    let renamings: [&[usize]; CLIENTS] = [
        &[0, 1, 2, 3, 4],
        &[4, 3, 2, 1, 0],
        &[2, 0, 4, 1, 3],
        &[1, 4, 0, 3, 2],
    ];
    let streams: Vec<Vec<Query>> = renamings
        .iter()
        .map(|map| {
            let mut s = Vec::new();
            for _ in 0..3 {
                for q in &base {
                    s.push(q.relabel_tables(map));
                }
            }
            s
        })
        .collect();

    let memory = presets::spread_family(600.0, 0.6, 4).unwrap();
    let server = Arc::new(ConcurrentPlanServer::new(&catalog, memory.clone()));
    let fresh = Optimizer::new(&catalog, memory);

    println!(
        "serving {} requests from {CLIENTS} concurrent clients \
         (3 shapes x {CLIENTS} renamings x 3 rounds):\n",
        streams.iter().map(Vec::len).sum::<usize>()
    );

    std::thread::scope(|scope| {
        for (client, stream) in streams.iter().enumerate() {
            let server = Arc::clone(&server);
            let fresh = &fresh;
            scope.spawn(move || {
                for q in stream {
                    let resp = server.serve(q, &Mode::AlgorithmC).unwrap();
                    // Byte-identity check against a fresh, cache-free run
                    // of this client's own request.
                    let check = fresh.optimize(q, &Mode::AlgorithmC).unwrap();
                    assert_eq!(resp.plan, check.plan, "served plan must match fresh");
                    assert_eq!(resp.cost.to_bits(), check.cost.to_bits());
                    if resp.decision != CacheDecision::Served {
                        println!(
                            "  client {client}: {:<12} {:>8.0}us  {}",
                            resp.decision.name(),
                            resp.stats.elapsed.as_secs_f64() * 1e6,
                            resp.plan.compact()
                        );
                    }
                }
            });
        }
    });

    let stats = server.cache_stats();
    println!(
        "\ncache: {} served / {} coalesced / {} recomputed over {} lookups \
         (hit rate {:.0}%)",
        stats.served,
        stats.coalesced_followers,
        stats.recomputed,
        stats.lookups,
        stats.hit_rate() * 100.0
    );
    println!("\nmetrics: {}", server.metrics_json());

    // Every response resolved to exactly one decision, and however the
    // clients interleaved, each distinct shape ran at most one search.
    assert_eq!(
        stats.served + stats.coalesced_followers + stats.recomputed,
        stats.lookups,
        "decision accounting must close"
    );
    assert!(
        stats.recomputed <= base.len() as u64,
        "at most one search per distinct canonical shape"
    );
    assert!(stats.served > 0, "repeats must be served from cache");
}
