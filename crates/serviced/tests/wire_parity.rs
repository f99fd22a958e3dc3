//! Cross-wire byte-identity: responses served through the daemon —
//! encoded, framed, pushed through a socket-faithful pipe, decoded —
//! must be byte-identical (plan shape, cost bits, table numbering, mode)
//! to a fresh `Optimizer::optimize` of the same request, over a skewed
//! multi-client workload with batching, warm hits, and coalescing all in
//! play.  Plus the metrics-closure assertions: every accepted connection
//! is closed, every request accounted ok or err, the cold gate empty.

use lec_core::{Mode, Optimizer};
use lec_plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_service::ConcurrentPlanServer;
use lec_serviced::protocol::{self, Writer};
use lec_serviced::transport::{Listener, PipeListener, Stream, PIPE_CAPACITY};
use lec_serviced::{Client, Daemon, DaemonConfig, StatsFormat, TcpAcceptor, UnixAcceptor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const POOL_SIZE: usize = 12;
const STREAM_LEN: usize = 180;
const CLIENTS: usize = 3;

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
/// construction as the in-process serving guards).
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

#[test]
fn responses_cross_the_wire_byte_identically() {
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

    let server = ConcurrentPlanServer::new(&catalog, memory);
    let daemon = Daemon::new(
        &server,
        DaemonConfig {
            max_cold_backlog: 8, // ample: this test must never shed
            ..DaemonConfig::default()
        },
    );
    let listener = PipeListener::new();

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| daemon.run(&listener));

        // N clients replay overlapping staggered views of the stream, so
        // warm hits, coalesced cohorts, and cold leads all cross the
        // wire.  Client 0 pipelines in batches (one write per batch);
        // the others round-trip one request at a time.
        let mut client_threads = Vec::new();
        for client_id in 0..CLIENTS {
            let stream = &stream;
            let fresh = &fresh;
            let listener = &listener;
            let mode = mode.clone();
            client_threads.push(scope.spawn(move || {
                let mut client =
                    Client::new(Box::new(listener.connect()), 0xC0FFEE + client_id as u64);
                let indices: Vec<usize> = (0..stream.len())
                    .map(|k| (k + client_id * 7) % stream.len())
                    .collect();
                if client_id == 0 {
                    for batch in indices.chunks(16) {
                        let requests: Vec<_> = batch
                            .iter()
                            .map(|&i| (i as u64, mode.clone(), stream[i].clone()))
                            .collect();
                        let responses = client.optimize_batch(&requests).expect("batch io");
                        for (&i, resp) in batch.iter().zip(responses) {
                            let resp = resp.expect("batched optimize succeeds");
                            assert_eq!(
                                resp.plan, fresh[i].plan,
                                "request {i}: wire plan differs from fresh optimization"
                            );
                            assert_eq!(
                                resp.cost.to_bits(),
                                fresh[i].cost.to_bits(),
                                "request {i}: wire cost bits differ"
                            );
                            assert_eq!(resp.mode, fresh[i].mode, "request {i}: mode name");
                        }
                    }
                } else {
                    for &i in &indices {
                        let resp = client
                            .optimize(i as u64, &mode, &stream[i])
                            .expect("optimize succeeds");
                        assert_eq!(
                            resp.plan, fresh[i].plan,
                            "request {i}: wire plan differs from fresh optimization"
                        );
                        assert_eq!(
                            resp.cost.to_bits(),
                            fresh[i].cost.to_bits(),
                            "request {i}: wire cost bits differ"
                        );
                        assert_eq!(resp.mode, fresh[i].mode, "request {i}: mode name");
                    }
                }
            }));
        }
        for t in client_threads {
            t.join().expect("client thread");
        }

        // A final control client checks liveness and metrics, then drains.
        let mut control = Client::new(Box::new(listener.connect()), 0xD1A1);
        control.ping().expect("ping");
        let metrics = control.stats(StatsFormat::Json).expect("metrics");
        assert!(
            metrics.contains("\"daemon\""),
            "metrics carry a daemon section"
        );
        assert!(
            metrics.contains("\"service\""),
            "metrics embed the serving layer"
        );
        control.drain().expect("drain");
        let report = runner.join().expect("daemon thread");

        // Closure: all connections closed, no sheds/deadlines/aborts, and
        // every optimize accounted ok.
        let m = daemon.metrics();
        assert_eq!(m.connections_accepted(), CLIENTS as u64 + 1);
        assert_eq!(m.connections_active(), 0, "every connection closed");
        assert_eq!(m.requests_ok(), (CLIENTS * STREAM_LEN) as u64);
        assert_eq!(m.requests_err(), 0);
        assert_eq!(m.shed_requests(), 0, "backlog of 8 never sheds here");
        assert_eq!(m.deadline_expirations(), 0);
        assert_eq!(m.malformed_frames(), 0);
        assert_eq!(report.forced_aborts, 0, "graceful drain needs no hammer");
        assert_eq!(daemon.gate().depth(), 0, "cold gate drains to empty");
        assert!(
            daemon.gate().high_water() >= 1,
            "cold searches did pass the gate"
        );
    });
}

/// Assert one wire response against the fresh optimization of request `i`.
fn assert_identical(
    i: usize,
    resp: &lec_service::ServeResponse,
    fresh: &[lec_core::Optimized],
    over: &str,
) {
    assert_eq!(resp.plan, fresh[i].plan, "request {i} over {over}: plan");
    assert_eq!(
        resp.cost.to_bits(),
        fresh[i].cost.to_bits(),
        "request {i} over {over}: cost bits"
    );
    assert_eq!(resp.mode, fresh[i].mode, "request {i} over {over}: mode");
}

/// The parity stream over one real transport: a batching client and a
/// round-trip client replay it against a fresh daemon on `listener`.
fn parity_over<L: Listener + Sync>(
    over: &str,
    listener: &L,
    dial: &(dyn Fn() -> Box<dyn Stream> + Sync),
    catalog: &lec_catalog::Catalog,
    stream: &[Query],
    fresh: &[lec_core::Optimized],
) {
    let mode = Mode::AlgorithmC;
    let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();
    let server = ConcurrentPlanServer::new(catalog, memory);
    let daemon = Daemon::new(
        &server,
        DaemonConfig {
            max_cold_backlog: 8,
            ..DaemonConfig::default()
        },
    );
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| daemon.run(listener));
        let batcher = scope.spawn(|| {
            let mut client = Client::new(dial(), 0xBA7C);
            let indices: Vec<usize> = (0..stream.len()).collect();
            for batch in indices.chunks(16) {
                let requests: Vec<_> = batch
                    .iter()
                    .map(|&i| (i as u64, mode.clone(), stream[i].clone()))
                    .collect();
                let responses = client.optimize_batch(&requests).expect("batch io");
                for (&i, resp) in batch.iter().zip(responses) {
                    assert_identical(i, &resp.expect("batched optimize"), fresh, over);
                }
            }
        });
        let mut single = Client::new(dial(), 0x51261E);
        for (i, q) in stream.iter().enumerate().rev() {
            let resp = single.optimize(i as u64, &mode, q).expect("optimize");
            assert_identical(i, &resp, fresh, over);
        }
        batcher.join().expect("batching client");
        single.drain().expect("drain");
        let report = runner.join().expect("daemon thread");
        assert_eq!(report.forced_aborts, 0, "{over}: graceful drain");
    });
    let m = daemon.metrics();
    assert_eq!(m.connections_accepted(), 2, "{over}");
    assert_eq!(m.connections_active(), 0, "{over}");
    assert_eq!(m.requests_ok(), 2 * stream.len() as u64, "{over}");
    assert_eq!(m.requests_err(), 0, "{over}");
    assert_eq!(m.malformed_frames(), 0, "{over}");
}

/// The catalog, the parity stream over it and its fresh optimizations.
fn parity_fixture() -> (lec_catalog::Catalog, Vec<Query>, Vec<lec_core::Optimized>) {
    let mut g = lec_catalog::CatalogGenerator::new(31);
    let catalog = g.generate(18);
    let stream = build_stream(&catalog);
    let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();
    let fresh_opt = Optimizer::new(&catalog, memory);
    let fresh = stream
        .iter()
        .map(|q| fresh_opt.optimize(q, &Mode::AlgorithmC).expect("fresh"))
        .collect();
    (catalog, stream, fresh)
}

/// The same stream over the two kernel sockets — TCP on loopback and a
/// Unix-domain socket in a temp dir — which share one implementation.
#[test]
fn responses_cross_tcp_and_unix_sockets_byte_identically() {
    let (catalog, stream, fresh) = parity_fixture();

    let tcp = std::net::TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = tcp.local_addr().expect("bound address");
    parity_over(
        "tcp",
        &TcpAcceptor::new(tcp).expect("acceptor"),
        &|| Box::new(std::net::TcpStream::connect(addr).expect("dial tcp")),
        &catalog,
        &stream,
        &fresh,
    );

    let dir = std::env::temp_dir().join(format!("lec-wire-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("daemon.sock");
    let unix = std::os::unix::net::UnixListener::bind(&path).expect("unix bind");
    parity_over(
        "unix",
        &UnixAcceptor::new(unix).expect("acceptor"),
        &|| Box::new(std::os::unix::net::UnixStream::connect(&path).expect("dial unix")),
        &catalog,
        &stream,
        &fresh,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// 96 requests in one `optimize_batch`: one client write of more than two
/// 16 KiB daemon reads (and under `PIPE_CAPACITY`, so the write completes
/// before the first reply is read), so request frames straddle the
/// daemon's read boundaries and the partial frame left by each read must
/// be carried into the next.  Replies come back in order, byte-identical
/// to fresh optimization.
#[test]
fn a_pipelined_batch_straddles_read_boundaries() {
    const BATCH: usize = 96;
    let (catalog, stream, fresh) = parity_fixture();
    let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();
    let mode = Mode::AlgorithmC;
    let requests: Vec<_> = stream[..BATCH]
        .iter()
        .enumerate()
        .map(|(i, q)| (i as u64, mode.clone(), q.clone()))
        .collect();

    let mut bytes = 0;
    for (id, mode, query) in &requests {
        let mut w = Writer::new();
        w.u64(*id);
        protocol::encode_mode(&mut w, mode);
        protocol::encode_query(&mut w, query);
        bytes += protocol::frame(protocol::op::OPTIMIZE, &w.into_bytes()).len();
    }
    assert!(
        2 * 16 * 1024 < bytes && bytes < PIPE_CAPACITY,
        "the batch is {bytes} bytes: it must span more than two reads and fit the pipe"
    );

    let server = ConcurrentPlanServer::new(&catalog, memory);
    let daemon = Daemon::new(
        &server,
        DaemonConfig {
            max_cold_backlog: 8,
            ..DaemonConfig::default()
        },
    );
    let listener = PipeListener::new();
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| daemon.run(&listener));
        let mut client = Client::new(Box::new(listener.connect()), 0x96);
        let responses = client.optimize_batch(&requests).expect("batch io");
        assert_eq!(responses.len(), BATCH);
        for (i, resp) in responses.into_iter().enumerate() {
            let resp = resp.expect("pipelined optimize succeeds");
            assert_identical(i, &resp, &fresh, "one pipelined batch");
        }
        client.drain().expect("drain");
        runner.join().expect("daemon thread");
    });
    assert_eq!(daemon.metrics().requests_ok(), BATCH as u64);
    assert_eq!(daemon.metrics().malformed_frames(), 0);
}
