//! Cross-wire byte-identity: responses served through the daemon —
//! encoded, framed, pushed through a Unix-domain socket, decoded —
//! must be byte-identical (plan shape, cost bits, table numbering, mode)
//! to a fresh `Optimizer::optimize` of the same request, over a skewed
//! multi-client workload with batching, warm hits, and racing cold misses
//! all in play.  Plus the metrics-closure assertions: every accepted connection
//! is closed, every request accounted ok or err, the cold gate empty.

use lec_core::{Mode, Optimizer};
use lec_plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_service::ConcurrentPlanServer;
use lec_serviced::protocol::{self, Writer};
use lec_serviced::transport::{Listener, Stream};
use lec_serviced::{Client, Daemon, DaemonConfig, DrainReport, TcpAcceptor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

mod common;
use common::Socket;

const POOL_SIZE: usize = 12;
const STREAM_LEN: usize = 180;
const CLIENTS: usize = 3;

/// Run `body` while `daemon` serves `listener`, then drain and return
/// the report.  A body may drain over the wire itself; the drain here
/// comes as well, and even when `body` panics, so a failed assertion
/// fails the test instead of leaving it waiting on a daemon that still
/// runs.
fn while_serving<T>(
    daemon: &Daemon<'_, '_>,
    listener: &(dyn Listener + Sync),
    body: impl FnOnce() -> T,
) -> (T, DrainReport) {
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| daemon.run(listener));
        let out = catch_unwind(AssertUnwindSafe(body));
        daemon.initiate_drain();
        let report = runner.join().expect("daemon thread");
        (out.unwrap_or_else(|panic| resume_unwind(panic)), report)
    })
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
    let socket = Socket::bind();

    let ((), report) = while_serving(&daemon, &socket.acceptor, || {
        // N clients replay overlapping staggered views of the stream, so
        // warm hits and cold misses, some racing on one shape, all cross
        // the wire.  Client 0 pipelines in batches (one write per batch);
        // the others round-trip one request at a time.
        std::thread::scope(|scope| {
            for client_id in 0..CLIENTS {
                let stream = &stream;
                let fresh = &fresh;
                let socket = &socket;
                let mode = mode.clone();
                scope.spawn(move || {
                    let mut client =
                        Client::new(Box::new(socket.connect()), 0xC0FFEE + client_id as u64);
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
                        }
                    }
                });
            }
        });

        // A final control client checks liveness and metrics, then drains.
        let mut control = Client::new(Box::new(socket.connect()), 0xD1A1);
        control.ping().expect("ping");
        let metrics = control.stats().expect("metrics");
        assert!(
            metrics.contains("\"daemon\""),
            "metrics carry a daemon section"
        );
        assert!(
            metrics.contains("\"service\""),
            "metrics embed the serving layer"
        );
        control.drain().expect("drain");
    });

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
}

/// Assert one wire response against the fresh optimization of request `i`.
fn assert_identical(
    i: usize,
    resp: &lec_service::ServeResponse,
    fresh: &[lec_core::SearchOutcome],
    over: &str,
) {
    assert_eq!(resp.plan, fresh[i].plan, "request {i} over {over}: plan");
    assert_eq!(
        resp.cost.to_bits(),
        fresh[i].cost.to_bits(),
        "request {i} over {over}: cost bits"
    );
}

/// The parity stream over one real transport: a batching client and a
/// round-trip client replay it against a fresh daemon on `listener`.
fn parity_over<L: Listener + Sync>(
    over: &str,
    listener: &L,
    dial: &(dyn Fn() -> Box<dyn Stream> + Sync),
    catalog: &lec_catalog::Catalog,
    stream: &[Query],
    fresh: &[lec_core::SearchOutcome],
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
    let ((), report) = while_serving(&daemon, listener, || {
        let mut single = Client::new(dial(), 0x51261E);
        std::thread::scope(|scope| {
            scope.spawn(|| {
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
            for (i, q) in stream.iter().enumerate().rev() {
                let resp = single.optimize(i as u64, &mode, q).expect("optimize");
                assert_identical(i, &resp, fresh, over);
            }
        });
        single.drain().expect("drain");
    });
    assert_eq!(report.forced_aborts, 0, "{over}: graceful drain");
    let m = daemon.metrics();
    assert_eq!(m.connections_accepted(), 2, "{over}");
    assert_eq!(m.connections_active(), 0, "{over}");
    assert_eq!(m.requests_ok(), 2 * stream.len() as u64, "{over}");
    assert_eq!(m.requests_err(), 0, "{over}");
    assert_eq!(m.malformed_frames(), 0, "{over}");
}

/// The catalog, the parity stream over it and its fresh optimizations.
fn parity_fixture() -> (
    lec_catalog::Catalog,
    Vec<Query>,
    Vec<lec_core::SearchOutcome>,
) {
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

    let unix = Socket::bind();
    parity_over(
        "unix",
        &unix.acceptor,
        &|| Box::new(unix.connect()),
        &catalog,
        &stream,
        &fresh,
    );
}

/// 96 requests in one `optimize_batch`: one client write of more than two
/// 16 KiB daemon reads, so request frames straddle the daemon's read
/// boundaries and the partial frame left by each read must be carried
/// into the next.  Replies come back in order, byte-identical to fresh
/// optimization.
#[test]
fn a_pipelined_batch_straddles_read_boundaries() {
    const BATCH: usize = 96;
    // The client writes the whole batch before it reads a reply, while
    // the daemon answers as it reads.  A batch past a socket buffer could
    // fill the socket in both directions, and each side would wait on the
    // other until the daemon's write timeout.  Linux's default Unix
    // socket buffer is some 208 KiB; this bound keeps the batch far below.
    const SOCKET_ROOM: usize = 64 * 1024;
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
        2 * 16 * 1024 < bytes && bytes < SOCKET_ROOM,
        "the batch is {bytes} bytes: it must span more than two reads and fit the socket"
    );

    let server = ConcurrentPlanServer::new(&catalog, memory);
    let daemon = Daemon::new(
        &server,
        DaemonConfig {
            max_cold_backlog: 8,
            ..DaemonConfig::default()
        },
    );
    let socket = Socket::bind();
    while_serving(&daemon, &socket.acceptor, || {
        let mut client = Client::new(Box::new(socket.connect()), 0x96);
        let responses = client.optimize_batch(&requests).expect("batch io");
        assert_eq!(responses.len(), BATCH);
        for (i, resp) in responses.into_iter().enumerate() {
            let resp = resp.expect("pipelined optimize succeeds");
            assert_identical(i, &resp, &fresh, "one pipelined batch");
        }
        client.drain().expect("drain");
    });
    assert_eq!(daemon.metrics().requests_ok(), BATCH as u64);
    assert_eq!(daemon.metrics().malformed_frames(), 0);
}

/// Mode tag 10 (simulated annealing) is retired: an OPTIMIZE frame that
/// carries it, laid out as the old encoder wrote it, is answered with one
/// `Malformed` error frame and counted, its connection is closed, and a
/// new connection is still served byte-identically.
#[test]
fn a_retired_mode_tag_is_malformed_and_a_new_connection_is_served() {
    let (catalog, query) = lec_core::fixtures::three_chain();
    let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();
    let fresh = [Optimizer::new(&catalog, memory.clone())
        .optimize(&query, &Mode::AlgorithmC)
        .expect("fresh")];

    let mut w = Writer::new();
    w.u64(7); // request id
    w.u8(10);
    // The old parameters: restarts, patience, initial temperature,
    // cooling, steps per chain, seed.
    w.u64(8);
    w.u64(64);
    w.f64(0.1);
    w.f64(0.995);
    w.u64(1200);
    w.u64(42);
    protocol::encode_query(&mut w, &query);
    let request = protocol::frame(protocol::op::OPTIMIZE, &w.into_bytes());

    let server = ConcurrentPlanServer::new(&catalog, memory);
    let daemon = Daemon::new(&server, DaemonConfig::default());
    let socket = Socket::bind();
    while_serving(&daemon, &socket.acceptor, || {
        let mut raw = socket.connect();
        raw.write_all(&request).unwrap();
        // Read to EOF: the daemon answers one frame, then closes.
        let mut reply = Vec::new();
        let mut chunk = [0u8; 256];
        loop {
            match raw.read(&mut chunk).expect("reply, then a clean close") {
                0 => break,
                n => reply.extend_from_slice(&chunk[..n]),
            }
        }
        let (frame, used) = protocol::split_frame(&reply)
            .expect("legal prefix")
            .expect("one whole frame");
        assert_eq!(used, reply.len(), "nothing follows the error frame");
        assert_eq!(frame[0], protocol::op::ERROR);
        let mut r = protocol::Reader::new(&frame[1..]);
        assert_eq!(r.u64(), Ok(0), "no request id to echo");
        assert_eq!(r.u8(), Ok(protocol::ErrorCode::Malformed as u8));
        assert_eq!(daemon.metrics().malformed_frames(), 1);

        let mut client = Client::new(Box::new(socket.connect()), 2);
        let resp = client
            .optimize_once(0, &Mode::AlgorithmC, &query)
            .expect("a new connection is served");
        assert_identical(0, &resp, &fresh, "a new connection");
    });
    assert_eq!(daemon.metrics().requests_ok(), 1);
    assert_eq!(daemon.metrics().malformed_frames(), 1);
}

/// The plan encoder's bytes, pinned as hex literals: every mode's plan on
/// the golden fixtures (`golden_answers.rs`'s small queries) and
/// hand-built plans covering what those miss — index scans, a sort at the
/// root and below a join, bushy joins, all four methods and table ids
/// past one byte.  Every other test compares plans by value after a round
/// trip, which an encoder and decoder drifting together would pass.
#[test]
fn plan_bytes_are_pinned() {
    use lec_core::{fixtures, AlgDConfig, PointEstimate};
    use lec_plan::{ColumnRef, JoinMethod, PlanNode};
    use lec_prob::{presets, MarkovChain};

    fn hex(plan: &PlanNode) -> String {
        let mut w = Writer::new();
        protocol::encode_plan(&mut w, plan);
        w.into_bytes().iter().map(|b| format!("{b:02x}")).collect()
    }
    let (scan, ix) = (PlanNode::seq_scan, PlanNode::index_scan);
    let [sm, gh, nl, bnl] = JoinMethod::ALL;

    let memory = presets::spread_family(500.0, 0.6, 4).unwrap();
    let fixtures = [
        (
            "example_1_1",
            fixtures::example_1_1(),
            fixtures::example_1_1_memory(),
        ),
        ("three_chain", fixtures::three_chain(), memory.clone()),
        ("diamond", fixtures::diamond(), memory.clone()),
        (
            "scaling_chain(6)",
            fixtures::scaling_chain(6),
            memory.clone(),
        ),
        ("scaling_star(6)", fixtures::scaling_star(6), memory.clone()),
        (
            "pruning_chain(7)",
            fixtures::pruning_chain(7),
            memory.clone(),
        ),
        ("pruning_star(7)", fixtures::pruning_star(7), memory.clone()),
        ("pruning_clique(6)", fixtures::pruning_clique(6), memory),
    ];
    let mut actual = Vec::new();
    for (name, (cat, q), mem) in &fixtures {
        let opt = Optimizer::new(cat, mem.clone());
        let chain = MarkovChain::sticky_uniform(mem.support().to_vec(), 0.6).unwrap();
        for mode in [
            Mode::Lsc(PointEstimate::Mean),
            Mode::Lsc(PointEstimate::Mode),
            Mode::AlgorithmA,
            Mode::AlgorithmB { c: 3 },
            Mode::AlgorithmC,
            Mode::AlgorithmCDynamic { chain },
            Mode::AlgorithmD {
                config: AlgDConfig::default(),
            },
            Mode::Bushy,
        ] {
            let plan = opt.optimize(q, &mode).unwrap().plan;
            actual.push((name.to_string(), mode.name().to_string(), hex(&plan)));
        }
    }
    let hand_built = [
        ("index scan", ix(3)),
        (
            "sort at the root",
            PlanNode::sort(PlanNode::join(gh, scan(0), ix(1)), ColumnRef::new(1, 2)),
        ),
        (
            "bushy, every method",
            PlanNode::join(
                bnl,
                PlanNode::join(sm, scan(0), PlanNode::sort(ix(1), ColumnRef::new(1, 0))),
                PlanNode::join(nl, scan(2), PlanNode::join(gh, ix(3), scan(4))),
            ),
        ),
        (
            "table ids past one byte",
            PlanNode::sort(
                PlanNode::join(nl, scan(256), ix(300)),
                ColumnRef::new(300, 258),
            ),
        ),
    ];
    for (name, plan) in &hand_built {
        actual.push((name.to_string(), String::new(), hex(plan)));
    }

    #[rustfmt::skip]
    let pinned: &[(&str, &str, &str)] = &[
        ("example_1_1", "LSC(mean)", "0300000000000000000000000100000000000000"),
        ("example_1_1", "LSC(mode)", "0300000000000000000000000100000000000000"),
        ("example_1_1", "AlgA", "02000000000000000000000000000000000301000000000000000000000100000000000000"),
        ("example_1_1", "AlgB", "02000000000000000000000000000000000301000000000000000000000100000000000000"),
        ("example_1_1", "AlgC", "02000000000000000000000000000000000301000000000000000000000100000000000000"),
        ("example_1_1", "AlgC-dyn", "02000000000000000000000000000000000301000000000000000000000100000000000000"),
        ("example_1_1", "AlgD", "02000000000000000000000000000000000301000000000000000000000100000000000000"),
        ("example_1_1", "Bushy", "02000000000000000000000000000000000301000000000000000000000100000000000000"),
        ("three_chain", "LSC(mean)", "03020300000000000000000000000100000000000000000200000000000000"),
        ("three_chain", "LSC(mode)", "03020300000000000000000000000100000000000000000200000000000000"),
        ("three_chain", "AlgA", "03020301000000000000000000000100000000000000000200000000000000"),
        ("three_chain", "AlgB", "03020301000000000000000000000100000000000000000200000000000000"),
        ("three_chain", "AlgC", "03020301000000000000000000000100000000000000000200000000000000"),
        ("three_chain", "AlgC-dyn", "03020301000000000000000000000100000000000000000200000000000000"),
        ("three_chain", "AlgD", "03020301000000000000000000000100000000000000000200000000000000"),
        ("three_chain", "Bushy", "03020002000000000000000301000000000000000000000100000000000000"),
        ("diamond", "LSC(mean)", "030103020300000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("diamond", "LSC(mode)", "030103020300000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("diamond", "AlgA", "030103020300000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("diamond", "AlgB", "030103020300000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("diamond", "AlgC", "030103020300000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("diamond", "AlgC-dyn", "030103020300000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("diamond", "AlgD", "030103020300000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("diamond", "Bushy", "030203000003000000000000000002000000000000000300000100000000000000000000000000000000"),
        ("scaling_chain(6)", "LSC(mean)", "020500000000000000010000000000000003020302030303000300000000000000000000000100000000000000000200000000000000000300000000000000000400000000000000000500000000000000"),
        ("scaling_chain(6)", "LSC(mode)", "020500000000000000010000000000000003020302030203000300000500000000000000000400000000000000000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("scaling_chain(6)", "AlgA", "020500000000000000010000000000000003020302030003010301000500000000000000000400000000000000000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("scaling_chain(6)", "AlgB", "020500000000000000010000000000000003020302030003010301000500000000000000000400000000000000000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("scaling_chain(6)", "AlgC", "020500000000000000010000000000000003020303030103000300000000000000000000000100000000000000000200000000000000000300000000000000000400000000000000000500000000000000"),
        ("scaling_chain(6)", "AlgC-dyn", "020500000000000000010000000000000003020303030103000300000000000000000000000100000000000000000200000000000000000300000000000000000400000000000000000500000000000000"),
        ("scaling_chain(6)", "AlgD", "020500000000000000010000000000000003020303030103000300000000000000000000000100000000000000000200000000000000000300000000000000000400000000000000000500000000000000"),
        ("scaling_chain(6)", "Bushy", "020500000000000000010000000000000003020005000000000000000303030100030000000000000003000002000000000000000300000000000000000000000100000000000000000400000000000000"),
        ("scaling_star(6)", "LSC(mean)", "020500000000000000010000000000000003020302030303000300000500000000000000000000000000000000000200000000000000000100000000000000000300000000000000000400000000000000"),
        ("scaling_star(6)", "LSC(mode)", "020500000000000000010000000000000003020302030303000300000500000000000000000000000000000000000200000000000000000100000000000000000300000000000000000400000000000000"),
        ("scaling_star(6)", "AlgA", "020500000000000000010000000000000003020303030003000300000500000000000000000000000000000000000200000000000000000100000000000000000300000000000000000400000000000000"),
        ("scaling_star(6)", "AlgB", "020500000000000000010000000000000003020303030003000300000500000000000000000000000000000000000200000000000000000100000000000000000300000000000000000400000000000000"),
        ("scaling_star(6)", "AlgC", "020500000000000000010000000000000003020303030003000300000500000000000000000000000000000000000200000000000000000100000000000000000300000000000000000400000000000000"),
        ("scaling_star(6)", "AlgC-dyn", "020500000000000000010000000000000003020303030003000300000500000000000000000000000000000000000200000000000000000100000000000000000300000000000000000400000000000000"),
        ("scaling_star(6)", "AlgD", "020500000000000000010000000000000003020303030003000300000500000000000000000000000000000000000200000000000000000100000000000000000300000000000000000400000000000000"),
        ("scaling_star(6)", "Bushy", "020500000000000000010000000000000003020004000000000000000303030000050000000000000003000002000000000000000300000000000000000000000100000000000000000300000000000000"),
        ("pruning_chain(7)", "LSC(mean)", "0206000000000000000100000000000000030003020303030203020300000200000000000000000100000000000000000000000000000000000300000000000000000400000000000000000500000000000000000600000000000000"),
        ("pruning_chain(7)", "LSC(mode)", "0206000000000000000100000000000000030303020302030203020303000200000000000000000100000000000000000000000000000000000300000000000000000400000000000000000500000000000000000600000000000000"),
        ("pruning_chain(7)", "AlgA", "0206000000000000000100000000000000030003020303030203020300000200000000000000000100000000000000000000000000000000000300000000000000000400000000000000000500000000000000000600000000000000"),
        ("pruning_chain(7)", "AlgB", "0206000000000000000100000000000000030003020303030203020300000200000000000000000100000000000000000000000000000000000300000000000000000400000000000000000500000000000000000600000000000000"),
        ("pruning_chain(7)", "AlgC", "0206000000000000000100000000000000030003020303030203020300000200000000000000000100000000000000000000000000000000000300000000000000000400000000000000000500000000000000000600000000000000"),
        ("pruning_chain(7)", "AlgC-dyn", "0206000000000000000100000000000000030003020303030203020300000200000000000000000100000000000000000000000000000000000300000000000000000400000000000000000500000000000000000600000000000000"),
        ("pruning_chain(7)", "AlgD", "0206000000000000000100000000000000030003020303030203020300000200000000000000000100000000000000000000000000000000000300000000000000000400000000000000000500000000000000000600000000000000"),
        ("pruning_chain(7)", "Bushy", "0206000000000000000100000000000000030203000006000000000000000005000000000000000303030203020300000200000000000000000100000000000000000000000000000000000300000000000000000400000000000000"),
        ("pruning_star(7)", "LSC(mean)", "0206000000000000000100000000000000030303020302030203020302000500000000000000000000000000000000000400000000000000000300000000000000000200000000000000000600000000000000000100000000000000"),
        ("pruning_star(7)", "LSC(mode)", "0206000000000000000100000000000000030203020302030203020302000500000000000000000000000000000000000400000000000000000300000000000000000200000000000000000600000000000000000100000000000000"),
        ("pruning_star(7)", "AlgA", "0206000000000000000100000000000000030303020302030203020302000500000000000000000000000000000000000400000000000000000300000000000000000200000000000000000600000000000000000100000000000000"),
        ("pruning_star(7)", "AlgB", "0206000000000000000100000000000000030303020302030203020302000500000000000000000000000000000000000400000000000000000300000000000000000200000000000000000600000000000000000100000000000000"),
        ("pruning_star(7)", "AlgC", "0206000000000000000100000000000000030303020302030203020302000500000000000000000000000000000000000400000000000000000300000000000000000200000000000000000600000000000000000100000000000000"),
        ("pruning_star(7)", "AlgC-dyn", "0206000000000000000100000000000000030303020302030203020302000500000000000000000000000000000000000400000000000000000300000000000000000200000000000000000600000000000000000100000000000000"),
        ("pruning_star(7)", "AlgD", "0206000000000000000100000000000000030303020302030203020302000500000000000000000000000000000000000400000000000000000300000000000000000200000000000000000600000000000000000100000000000000"),
        ("pruning_star(7)", "Bushy", "0206000000000000000100000000000000030303020006000000000000000302000500000000000000030200040000000000000003020003000000000000000302000200000000000000000000000000000000000100000000000000"),
        ("pruning_clique(6)", "LSC(mean)", "020500000000000000010000000000000003020302030003000300000500000000000000000400000000000000000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("pruning_clique(6)", "LSC(mode)", "020500000000000000010000000000000003020302030303000303000500000000000000000400000000000000000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("pruning_clique(6)", "AlgA", "020500000000000000010000000000000003020302030003000300000500000000000000000400000000000000000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("pruning_clique(6)", "AlgB", "020500000000000000010000000000000003020302030003000300000500000000000000000400000000000000000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("pruning_clique(6)", "AlgC", "020500000000000000010000000000000003020302030003000300000500000000000000000400000000000000000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("pruning_clique(6)", "AlgC-dyn", "020500000000000000010000000000000003020302030003000300000500000000000000000400000000000000000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("pruning_clique(6)", "AlgD", "020500000000000000010000000000000003020302030003000300000500000000000000000400000000000000000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("pruning_clique(6)", "Bushy", "020500000000000000010000000000000003020302030000050000000000000003000004000000000000000300000300000000000000000200000000000000000100000000000000000000000000000000"),
        ("index scan", "", "010300000000000000"),
        ("sort at the root", "", "02010000000000000002000000000000000301000000000000000000010100000000000000"),
        ("bushy, every method", "", "03030300000000000000000000020100000000000000000000000000000001010000000000000003020002000000000000000301010300000000000000000400000000000000"),
        ("table ids past one byte", "", "022c0100000000000002010000000000000302000001000000000000012c01000000000000"),
    ];
    let table: String = actual
        .iter()
        .map(|(q, m, h)| format!("        (\"{q}\", \"{m}\", \"{h}\"),\n"))
        .collect();
    let matches = pinned.len() == actual.len()
        && pinned
            .iter()
            .zip(&actual)
            .all(|(p, a)| (p.0, p.1, p.2) == (&*a.0, &*a.1, &*a.2));
    assert!(
        matches,
        "plan bytes moved; the encoder now writes:\n{table}"
    );
}
