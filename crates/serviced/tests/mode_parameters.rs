//! Every value of every mode parameter reaches the answer: one shape is
//! served under each value through one plan cache, in process and over
//! the wire, and every response must equal a fresh `optimize` of its own
//! mode.  The shape is chosen so that within each mode the values all
//! answer differently (checked first), so a cache key that forgets a
//! parameter serves one value's answer for another, and a wire codec that
//! decodes one value as another answers the other's — both fail here.

use lec_core::{AlgDConfig, Mode, Optimizer, SearchStats};
use lec_plan::{PlanNode, Query, QueryProfile, Topology, WorkloadGenerator};
use lec_prob::{Distribution, MarkovChain, Rebucket};
use lec_service::{CacheDecision, ConcurrentPlanServer};
use lec_serviced::{Client, Daemon, DaemonConfig};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

mod common;
use common::Socket;

/// A five-table star with three-bucket join selectivities, so Algorithm
/// D's bucketing choices move its answer.
fn fixture() -> (lec_catalog::Catalog, Query, Distribution) {
    let mut tables = lec_catalog::CatalogGenerator::new(51);
    let catalog = tables.generate(12);
    let ids = tables.pick_tables(&catalog, 5);
    let profile = QueryProfile {
        topology: Topology::Star,
        sel_buckets: 3,
        ..Default::default()
    };
    let query = WorkloadGenerator::new(51).gen_query(&catalog, &ids, &profile);
    let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();
    (catalog, query, memory)
}

/// The values of each parameterized mode: `LscAt` at each support point
/// of `memory`, B at three widths, D at every (rebucket, cube-root) pair
/// under two bucket caps, and C-dynamic under two chains.
fn parameter_values(memory: &Distribution) -> Vec<Vec<Mode>> {
    let states = memory.support().to_vec();
    let lsc_at = states.iter().map(|&m| Mode::LscAt(m)).collect();
    let b = [1, 2, 4].map(|c| Mode::AlgorithmB { c }).into();
    let mut d = Vec::new();
    for max_buckets in [2, 4] {
        for rebucket in [Rebucket::EqualWidth, Rebucket::EqualDepth] {
            for cube_root_inputs in [false, true] {
                let config = AlgDConfig {
                    max_buckets,
                    rebucket,
                    cube_root_inputs,
                };
                d.push(Mode::AlgorithmD { config });
            }
        }
    }
    let chains = [
        MarkovChain::sticky_uniform(states.clone(), 0.9).unwrap(),
        MarkovChain::birth_death(states, 0.3, 0.1).unwrap(),
    ];
    let c_dyn = chains.map(|chain| Mode::AlgorithmCDynamic { chain }).into();
    vec![lsc_at, b, d, c_dyn]
}

/// What a response must share with its fresh search: the plan, the cost
/// bits and the search's work counters.
type Answer = (String, u64, usize, u64, u64);

fn answer(plan: &PlanNode, cost: f64, s: &SearchStats) -> Answer {
    (
        plan.compact(),
        cost.to_bits(),
        s.nodes,
        s.candidates,
        s.evals,
    )
}

#[test]
fn every_mode_parameter_value_is_served_as_fresh() {
    let (catalog, query, memory) = fixture();
    let families = parameter_values(&memory);
    let fresh_opt = Optimizer::new(&catalog, memory.clone());
    let fresh: Vec<Vec<Answer>> = (families.iter())
        .map(|modes| {
            (modes.iter())
                .map(|mode| {
                    let o = fresh_opt.optimize(&query, mode).expect("fresh optimize");
                    answer(&o.plan, o.cost, &o.stats)
                })
                .collect()
        })
        .collect();
    for (modes, answers) in families.iter().zip(&fresh) {
        for (i, a) in answers.iter().enumerate() {
            assert!(
                !answers[..i].contains(a),
                "{}: every value answers differently, so a dropped one shows",
                modes[i].name()
            );
        }
    }

    let server = ConcurrentPlanServer::new(&catalog, memory);
    let daemon = Daemon::new(&server, DaemonConfig::default());
    let socket = Socket::bind();
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| daemon.run(&socket.acceptor));
        // Drain even when an assertion fails, so the test fails instead
        // of waiting on a daemon that still runs.
        let served = catch_unwind(AssertUnwindSafe(|| {
            let mut client = Client::new(Box::new(socket.connect()), 0x18A);
            let modes = families.iter().flatten().zip(fresh.iter().flatten());
            for (id, (mode, want)) in modes.enumerate() {
                // Twice each: the first is a miss or, with a key that
                // forgets a parameter, a hit on another value's answer;
                // the second a hit on this one's.
                for round in 0..2 {
                    let wire = client
                        .optimize(id as u64, mode, &query)
                        .expect("served over the wire");
                    let got = answer(&wire.plan, wire.cost, &wire.stats);
                    assert_eq!(&got, want, "{mode:?} over the wire, round {round}");
                    let local = server.serve(&query, mode).expect("served in process");
                    let got = answer(&local.plan, local.cost, &local.stats);
                    assert_eq!(&got, want, "{mode:?} in process, round {round}");
                    assert_eq!(local.decision, CacheDecision::Served, "{mode:?} is cached");
                }
            }
        }));
        daemon.initiate_drain();
        runner.join().expect("daemon thread");
        served.unwrap_or_else(|panic| resume_unwind(panic));
    });
    assert_eq!(daemon.metrics().requests_err(), 0);
}
