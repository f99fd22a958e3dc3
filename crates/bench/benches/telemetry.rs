//! The telemetry overhead guard: the plan-cache skewed workload (500
//! requests over a 24-shape pool, random table renaming) served through
//! two `ConcurrentPlanServer`s — telemetry installed on one, absent on
//! the other.
//!
//! Four jobs:
//!
//! 1. **Overhead guard**: the telemetry-on warm pass must stay within
//!    10% of the telemetry-off warm pass (best of 5 alternating passes)
//!    — the run *fails* otherwise.  Instrumentation on the warm hit path
//!    is one clock pair plus two relaxed atomic adds, so losing here
//!    means the zero-allocation contract broke.
//! 2. **Byte identity**: every telemetry-on response must be
//!    byte-identical (plan, cost bits, decision) to the telemetry-off
//!    response — observation must never perturb answers.
//! 3. **Trace coherence**: a traced cold request's per-stage spans must
//!    sum to within its own measured wall time.
//! 4. **Wire agreement**: a `STATS` snapshot fetched over the wire must
//!    be byte-identical to the daemon's in-process `metrics_json`.
//!
//! Results land in `BENCH_telemetry.json`; the wire snapshot lands beside
//! it (`BENCH_telemetry_stats.json`) for the CI artifact upload.

use criterion::{criterion_group, criterion_main, Criterion};
use lec_core::Mode;
use lec_plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_service::{ConcurrentPlanServer, ServeCtx};
use lec_serviced::{Client, Daemon, DaemonConfig, UnixAcceptor};
use lec_telemetry::{Outcome, Telemetry, TraceCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::hint::black_box;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::time::Instant;

const STREAM_LEN: usize = 500;
const POOL_SIZE: usize = 24;
const WARM_ROUNDS: usize = 5;
const MAX_OVERHEAD: f64 = 1.10;

fn random_perm(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// The skewed stream of `server_parity.rs`: shape `i` drawn with weight
/// `1/(i+1)`, every occurrence randomly table-renamed.
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

fn warm_pass_ms(server: &ConcurrentPlanServer, stream: &[Query], mode: &Mode) -> f64 {
    let t0 = Instant::now();
    for q in stream {
        black_box(server.serve(q, mode).expect("warm serve"));
    }
    t0.elapsed().as_secs_f64() * 1e3
}

fn bench_telemetry(c: &mut Criterion) {
    let mut g = lec_catalog::CatalogGenerator::new(31);
    let catalog = g.generate(18);
    let stream = build_stream(&catalog);
    let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();
    let mode = Mode::AlgorithmC;

    let server_off = ConcurrentPlanServer::new(&catalog, memory.clone());
    let tel = Arc::new(Telemetry::on());
    let server_on =
        ConcurrentPlanServer::new(&catalog, memory.clone()).with_telemetry(Arc::clone(&tel));

    // Cold passes warm both caches; every pair of responses must agree
    // byte for byte — telemetry is pure observation.
    for (i, q) in stream.iter().enumerate() {
        let off = server_off.serve(q, &mode).expect("cold serve (off)");
        let on = server_on.serve(q, &mode).expect("cold serve (on)");
        assert_eq!(
            on.plan, off.plan,
            "request {i}: telemetry perturbed the chosen plan"
        );
        assert_eq!(
            on.cost.to_bits(),
            off.cost.to_bits(),
            "request {i}: telemetry perturbed the cost bits"
        );
        assert_eq!(on.decision, off.decision, "request {i}: decision differs");
    }

    // Overhead guard: alternate warm passes, best of each.
    let mut off_best = f64::INFINITY;
    let mut on_best = f64::INFINITY;
    for _ in 0..WARM_ROUNDS {
        off_best = off_best.min(warm_pass_ms(&server_off, &stream, &mode));
        on_best = on_best.min(warm_pass_ms(&server_on, &stream, &mode));
    }
    let overhead = on_best / off_best;
    assert!(
        overhead <= MAX_OVERHEAD,
        "telemetry overhead regression: warm pass with telemetry {on_best:.2}ms is \
         {overhead:.3}x the telemetry-off pass {off_best:.2}ms (cap {MAX_OVERHEAD})"
    );

    // Trace coherence on a cold request: a fresh relabeling no server has
    // seen, traced end to end — stage spans are sequential, so their sum
    // is bounded by the trace's own wall time, which is bounded by ours.
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let slow_q = stream[0].relabel_tables(&random_perm(&mut rng, stream[0].n_tables()));
    let mut ctx = TraceCtx::new(0x510);
    let wall0 = Instant::now();
    let serve_ctx = ServeCtx {
        hooks: &(),
        deadline: None,
        trace: &mut ctx,
    };
    server_on
        .serve_with(&slow_q, &mode, serve_ctx)
        .expect("traced serve");
    tel.finish_request(&ctx, Outcome::Fresh);
    let wall_ns = wall0.elapsed().as_nanos() as u64;
    let rec = tel
        .slow_log()
        .entries()
        .into_iter()
        .find(|e| e.request_id == 0x510)
        .expect("the traced cold request enters the slow log");
    let span_sum: u64 = rec.spans.iter().map(|s| s.dur_ns).sum();
    assert!(
        span_sum <= rec.total_ns && rec.total_ns <= wall_ns,
        "trace incoherent: spans sum {span_sum}ns, trace total {}ns, measured wall {wall_ns}ns",
        rec.total_ns
    );

    // Wire agreement: STATS over a Unix socket == in-process metrics_json.
    let daemon = Daemon::new(&server_on, DaemonConfig::default());
    let path = std::env::temp_dir().join(format!(
        "lec-serviced-bench-{}-telemetry.sock",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let acceptor =
        UnixAcceptor::new(UnixListener::bind(&path).expect("bind unix socket")).expect("acceptor");
    let wire_json = std::thread::scope(|scope| {
        let runner = scope.spawn(|| daemon.run(&acceptor));
        let stream = UnixStream::connect(&path).expect("connect unix socket");
        let mut client = Client::new(Box::new(stream), 0xD0C5);
        let wire_json = client.stats().expect("stats json");
        let local_json = serde_json::to_string(&daemon.metrics_json()).unwrap();
        assert_eq!(
            wire_json, local_json,
            "STATS-over-the-wire snapshot disagrees with in-process metrics_json"
        );
        client.drain().expect("drain");
        runner.join().expect("daemon thread");
        wire_json
    });
    let _ = std::fs::remove_file(&path);

    let served = tel.outcome_snapshot(Outcome::Served);
    println!(
        "telemetry guard  warm off {off_best:.2}ms, on {on_best:.2}ms ({overhead:.3}x, cap \
         {MAX_OVERHEAD}), served p50 {}ns p99 {}ns, slow log {} entries",
        served.quantile(0.5),
        served.quantile(0.99),
        tel.slow_log().len(),
    );

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::write(
        root.join("BENCH_telemetry.json"),
        serde_json::to_string_pretty(&json!({
            "bench": "telemetry",
            "schema_version": lec_bench::BENCH_SCHEMA_VERSION,
            "host_cores": lec_bench::host_cores() as u64,
            "claim": "full telemetry (outcome histograms, request tracing) \
                      costs at most 10% of warm plan-cache throughput, perturbs no served \
                      byte, and its STATS wire snapshot matches the in-process document",
            "workload": {
                "requests": STREAM_LEN,
                "base_shapes": POOL_SIZE,
                "skew": "weight 1/(i+1) per shape, uniformly random table renaming per request",
                "tables_per_query": "4..=7",
                "mode": "AlgorithmC",
                "warm_rounds": WARM_ROUNDS as u64,
            },
            "warm_off_ms": off_best,
            "warm_on_ms": on_best,
            "overhead_ratio": overhead,
            "overhead_cap": MAX_OVERHEAD,
            "served_latency_ns": {
                "p50": served.quantile(0.5) as f64,
                "p90": served.quantile(0.9) as f64,
                "p99": served.quantile(0.99) as f64,
                "p999": served.quantile(0.999) as f64,
            },
            "trace": {
                "slow_log_entries": tel.slow_log().len() as u64,
                "span_sum_ns": span_sum,
                "trace_total_ns": rec.total_ns,
                "measured_wall_ns": wall_ns,
            },
            "byte_identical_to_untelemetered": true,
            "stats_wire_matches_in_process": true,
        }))
        .unwrap(),
    )
    .expect("write BENCH_telemetry.json");
    std::fs::write(root.join("BENCH_telemetry_stats.json"), &wire_json)
        .expect("write BENCH_telemetry_stats.json");

    // Criterion history: one hot warm hit with and without telemetry.
    let hot = &stream[0];
    let mut group = c.benchmark_group("telemetry");
    group.sample_size(20);
    group.bench_function("serve_warm_telemetry_off", |b| {
        b.iter(|| black_box(server_off.serve(black_box(hot), &mode).unwrap().cost))
    });
    group.bench_function("serve_warm_telemetry_on", |b| {
        b.iter(|| black_box(server_on.serve(black_box(hot), &mode).unwrap().cost))
    });
    group.finish();
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
