//! The daemon serving guard: the warm skewed workload served through
//! `lec-serviced` over a real Unix-domain socket vs the same
//! `ConcurrentPlanServer` called in-process.
//!
//! Three jobs:
//!
//! 1. **Correctness**: every response that crosses the wire — cold pass,
//!    warm batched pass, and the overload pass's survivors — must be
//!    byte-identical (plan, cost bits, table numbering) to a fresh
//!    `Optimizer::optimize` of the same request; the run *fails*
//!    otherwise.
//! 2. **Regression guards**, on every host: the wire may add at most
//!    `RECORDED_WIRE_NS * (1 + WIRE_NS_MARGIN)` nanoseconds to a warm
//!    batched request over serving it in-process (`1e9 / wire qps − 1e9 /
//!    in-process qps`, each side at its best of `WARM_PASSES` passes), and
//!    the overload pass must shed every cold request in a fraction of the
//!    time the backlog is actually held (refusal is immediate, not
//!    queued).  The tax is a difference, not a ratio: a faster hit path
//!    raises `in-process / wire` without the wire costing a nanosecond
//!    more, and a guard must not punish that.  The *behavioral* overload
//!    assertions (sheds happen, warm hits keep serving, nothing hangs) sit
//!    beside them.
//! 3. **Record**: throughputs, the wire tax, and the overload counters
//!    land in `BENCH_daemon_serve.json` at the workspace root.

use criterion::{criterion_group, criterion_main, Criterion};
use lec_core::{Mode, Optimizer};
use lec_plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_service::ConcurrentPlanServer;
use lec_serviced::transport::UnixAcceptor;
use lec_serviced::{Client, ClientError, Daemon, DaemonConfig, ErrorCode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::{Duration, Instant};

const STREAM_LEN: usize = 400;
const POOL_SIZE: usize = 24;
const BATCH: usize = 32;
/// Warm passes timed on each side; the fastest one is the side's number.
const WARM_PASSES: usize = 20;
/// What the wire added to a warm batched request, in nanoseconds, when
/// this guard was recorded on the 2-vCPU builder host: the median of
/// forty runs.
const RECORDED_WIRE_NS: f64 = 3100.0;
/// The cap is `RECORDED_WIRE_NS * (1 + WIRE_NS_MARGIN)`.  The margin is
/// this wide because of the host, not the program: two runs in three read
/// 2,484–4,010, and the third, for minutes at a time and with in-process
/// throughput unmoved, 4,451–7,572 — a cross-vCPU wake-up per batch, when
/// a neighbour has the other vCPU.
const WIRE_NS_MARGIN: f64 = 2.0;

/// `actual <= expected * (1 + margin)`, saying both numbers when not (the
/// upper half of lantern's `is_within_error`: costing less is no failure).
fn is_within_cap(actual: f64, expected: f64, margin: f64) -> bool {
    let within = actual <= expected * (1.0 + margin);
    if !within {
        eprintln!(
            "Expected: {expected:.0} +/- {:.0} %, Actual: {actual:.0}",
            margin * 100.0
        );
    }
    within
}

fn random_perm(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// The skewed stream over a pool of base shapes: shape `i` drawn with
/// weight `1/(i+1)`, every occurrence randomly table-renamed (the same
/// construction as `concurrent_parity.rs`).
fn build_stream(catalog: &lec_catalog::Catalog) -> Vec<Query> {
    let mut g = lec_catalog::CatalogGenerator::new(31);
    let mut wg = WorkloadGenerator::new(0x5EED);
    let pool: Vec<Query> = (0..POOL_SIZE)
        .map(|i| {
            let n = 4 + (i % 4); // 4..=7 tables
            let ids = g.pick_tables(catalog, n);
            let topology = [Topology::Chain, Topology::Star, Topology::Random][i % 3];
            wg.gen_query(
                catalog,
                &ids,
                &QueryProfile {
                    topology,
                    ..Default::default()
                },
            )
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let weights: Vec<f64> = (0..pool.len()).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    (0..STREAM_LEN)
        .map(|_| {
            let mut pick = rng.gen::<f64>() * total;
            let mut idx = pool.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    idx = i;
                    break;
                }
                pick -= w;
            }
            let q = &pool[idx];
            q.relabel_tables(&random_perm(&mut rng, q.n_tables()))
        })
        .collect()
}

/// A fresh Unix socket path in the temp dir (removed before bind).
fn socket_path(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "lec-serviced-bench-{}-{tag}.sock",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn assert_identical(
    resp: &lec_service::ServeResponse,
    fresh: &lec_core::SearchOutcome,
    i: usize,
    label: &str,
) {
    assert_eq!(
        resp.plan, fresh.plan,
        "{label}: request {i} plan differs from fresh optimization"
    );
    assert_eq!(
        resp.cost.to_bits(),
        fresh.cost.to_bits(),
        "{label}: request {i} cost bits differ"
    );
}

fn bench_daemon_serve(_c: &mut Criterion) {
    let mut g = lec_catalog::CatalogGenerator::new(31);
    let catalog = g.generate(18);
    let stream = build_stream(&catalog);
    let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();
    let mode = Mode::AlgorithmC;

    // Fresh per-request baseline: the byte-identity oracle.
    let fresh_opt = Optimizer::new(&catalog, memory.clone());
    let fresh: Vec<_> = stream
        .iter()
        .map(|q| fresh_opt.optimize(q, &mode).expect("fresh optimize"))
        .collect();

    // In-process baseline: warm the server, then time the warm passes.
    let inproc = ConcurrentPlanServer::new(&catalog, memory.clone());
    for (i, q) in stream.iter().enumerate() {
        assert_identical(
            &inproc.serve(q, &mode).unwrap(),
            &fresh[i],
            i,
            "inproc-cold",
        );
    }
    let mut inproc_qps = 0f64;
    for _ in 0..WARM_PASSES {
        let t0 = Instant::now();
        for (i, q) in stream.iter().enumerate() {
            assert_identical(
                &inproc.serve(q, &mode).unwrap(),
                &fresh[i],
                i,
                "inproc-warm",
            );
        }
        inproc_qps = inproc_qps.max(STREAM_LEN as f64 / t0.elapsed().as_secs_f64());
    }

    // ------------------------------------------------------------------
    // The daemon over a real Unix-domain socket.
    // ------------------------------------------------------------------
    let server = ConcurrentPlanServer::new(&catalog, memory.clone());
    let daemon = Daemon::new(&server, DaemonConfig::default());
    let path = socket_path("serve");
    let acceptor = UnixAcceptor::new(UnixListener::bind(&path).expect("bind unix socket"))
        .expect("nonblocking acceptor");

    let (cold_qps, warm_wire_qps) = std::thread::scope(|scope| {
        let runner = scope.spawn(|| daemon.run(&acceptor));

        let connect =
            || Box::new(UnixStream::connect(&path).expect("connect unix socket")) as Box<_>;
        let mut client = Client::new(connect(), 0xBE7C);

        // Cold pass over the wire: every response byte-identical.
        let t0 = Instant::now();
        for (i, q) in stream.iter().enumerate() {
            let resp = client.optimize(i as u64, &mode, q).expect("cold serve");
            assert_identical(&resp, &fresh[i], i, "wire-cold");
        }
        let cold_qps = STREAM_LEN as f64 / t0.elapsed().as_secs_f64();

        // Warm pass, batched: one write per BATCH requests — the
        // syscall-amortized path the daemon exists to serve.
        let requests: Vec<(u64, Mode, Query)> = stream
            .iter()
            .enumerate()
            .map(|(i, q)| (i as u64, mode.clone(), q.clone()))
            .collect();
        let mut warm_wire_qps = 0f64;
        for _ in 0..WARM_PASSES {
            let t0 = Instant::now();
            for batch in requests.chunks(BATCH) {
                for (k, resp) in client
                    .optimize_batch(batch)
                    .expect("warm batch")
                    .into_iter()
                    .enumerate()
                {
                    let i = batch[k].0 as usize;
                    assert_identical(&resp.expect("warm serve"), &fresh[i], i, "wire-warm");
                }
            }
            warm_wire_qps = warm_wire_qps.max(STREAM_LEN as f64 / t0.elapsed().as_secs_f64());
        }

        let mut ctl = Client::new(connect(), 0xD1A1);
        ctl.drain().expect("drain");
        let report = runner.join().expect("daemon thread");
        assert_eq!(report.forced_aborts, 0, "graceful drain needs no hammer");
        (cold_qps, warm_wire_qps)
    });
    let _ = std::fs::remove_file(&path);
    let warm_hit_rate = server.cache_stats().hit_rate();

    // ------------------------------------------------------------------
    // Overload pass: one cold slot, held; cold requests must be shed
    // immediately while warm hits keep serving.
    // ------------------------------------------------------------------
    let hold = Duration::from_millis(600);
    let shed_probes = 8usize;
    // Dedicated probe queries generated under a fresh seed: their random
    // selectivities make each canonical shape distinct from the whole
    // stream pool, so no probe can coalesce onto the holder's in-flight
    // search (or hit stream[0]'s warm entry) — every one needs the cold
    // slot the holder occupies.
    let probe_queries: Vec<Query> = {
        let mut pg = lec_catalog::CatalogGenerator::new(97);
        let mut pwg = WorkloadGenerator::new(0xF00D);
        (0..shed_probes)
            .map(|i| {
                let ids = pg.pick_tables(&catalog, 4 + (i % 3));
                pwg.gen_query(&catalog, &ids, &QueryProfile::default())
            })
            .collect()
    };
    let over_server = ConcurrentPlanServer::new(&catalog, memory);
    let over_daemon = Daemon::new(
        &over_server,
        DaemonConfig {
            max_cold_backlog: 1,
            ..DaemonConfig::default()
        },
    )
    // The search of stream[1] parks in the search hook holding the only
    // cold slot for `hold`.
    .with_search_hook(|q| {
        if q == &stream[1] {
            std::thread::sleep(hold);
        }
    });
    let over_path = socket_path("overload");
    let over_acceptor =
        UnixAcceptor::new(UnixListener::bind(&over_path).expect("bind unix socket"))
            .expect("nonblocking acceptor");

    let max_refusal = std::thread::scope(|scope| {
        let runner = scope.spawn(|| over_daemon.run(&over_acceptor));
        let connect =
            || Box::new(UnixStream::connect(&over_path).expect("connect unix socket")) as Box<_>;
        let mut blocker = Client::new(connect(), 1);
        let mut prober = Client::new(connect(), 2);

        // Warm query 0 through the blocker (no hold: it is not stream[1]).
        assert_identical(
            &blocker.optimize_once(0, &mode, &stream[0]).expect("warmup"),
            &fresh[0],
            0,
            "overload-warmup",
        );

        let max_refusal = std::thread::scope(|inner| {
            let holder = inner.spawn(|| blocker.optimize_once(1, &mode, &stream[1]));
            std::thread::sleep(Duration::from_millis(60));

            // Cold probes: distinct shapes, all shed, each refusal fast.
            let mut max_refusal = Duration::ZERO;
            for (k, probe) in probe_queries.iter().enumerate() {
                let t0 = Instant::now();
                match prober.optimize_once(k as u64, &mode, probe) {
                    Err(ClientError::Server(e)) => {
                        assert_eq!(e.code, ErrorCode::Overloaded, "probe {k} must be shed")
                    }
                    other => panic!("probe {k}: expected Overloaded, got {other:?}"),
                }
                max_refusal = max_refusal.max(t0.elapsed());
            }
            // Warm hits keep serving mid-overload.
            assert_identical(
                &prober
                    .optimize_once(99, &mode, &stream[0])
                    .expect("warm hit under overload"),
                &fresh[0],
                0,
                "overload-warm",
            );
            let held = holder.join().expect("holder thread").expect("held search");
            assert_identical(&held, &fresh[1], 1, "overload-held");
            max_refusal
        });

        let mut ctl = Client::new(connect(), 3);
        ctl.drain().expect("drain");
        runner.join().expect("daemon thread");
        max_refusal
    });
    let _ = std::fs::remove_file(&over_path);
    assert_eq!(
        over_daemon.metrics().shed_requests(),
        shed_probes as u64,
        "every cold probe was shed"
    );

    let wire_added_ns = 1e9 / warm_wire_qps - 1e9 / inproc_qps;
    assert!(
        is_within_cap(wire_added_ns, RECORDED_WIRE_NS, WIRE_NS_MARGIN),
        "wire tax regression: a warm batched request costs {wire_added_ns:.0} ns more over the \
         socket ({warm_wire_qps:.0} req/s) than in process ({inproc_qps:.0} req/s)"
    );
    assert!(
        max_refusal < hold / 4,
        "overload refusals must be immediate: slowest took {max_refusal:?} \
         against a {hold:?} hold"
    );
    println!(
        "daemon-serve guard  in-process {inproc_qps:.0} req/s, warm wire {warm_wire_qps:.0} \
         req/s (+{wire_added_ns:.0} ns per request), slowest shed {max_refusal:?}"
    );

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_daemon_serve.json");
    std::fs::write(
        out,
        serde_json::to_string_pretty(&json!({
            "bench": "daemon_serve",
            "schema_version": lec_bench::BENCH_SCHEMA_VERSION,
            "host_cores": lec_bench::host_cores() as u64,
            "claim": "the daemon serves the skewed workload over a Unix socket with every \
                      response byte-identical to fresh optimization; the wire adds no more \
                      than the recorded nanoseconds plus margin to a warm batched request; under \
                      overload every cold request is shed immediately with Overloaded while \
                      warm hits keep serving; drain completes without forced aborts",
            "workload": {
                "requests": STREAM_LEN,
                "base_shapes": POOL_SIZE,
                "skew": "weight 1/(i+1) per shape, uniformly random table renaming per request",
                "tables_per_query": "4..=7",
                "mode": "AlgorithmC",
                "memory_buckets": 4,
                "batch": BATCH,
                "transport": "unix-domain socket",
            },
            "warm_passes": WARM_PASSES,
            "inproc_warm_qps": inproc_qps,
            "wire_cold_qps": cold_qps,
            "wire_warm_batched_qps": warm_wire_qps,
            "wire_added_ns_per_request": wire_added_ns,
            "wire_added_ns_recorded": RECORDED_WIRE_NS,
            "wire_added_ns_margin": WIRE_NS_MARGIN,
            "warm_hit_rate": warm_hit_rate,
            "overload": {
                "cold_backlog_slots": 1,
                "hold_ms": hold.as_millis() as f64,
                "cold_probes_shed": shed_probes,
                "slowest_refusal_ms": max_refusal.as_secs_f64() * 1e3,
                "warm_hits_served_during_overload": true,
            },
            "byte_identical_to_fresh": true,
        }))
        .unwrap(),
    )
    .expect("write BENCH_daemon_serve.json");
}

criterion_group!(benches, bench_daemon_serve);
criterion_main!(benches);
