//! The chaos suite: deterministic fault injection against a live daemon.
//!
//! Every test scripts an exact [`FaultPlan`] — faults keyed by
//! `(connection id, frame/request index)` with connection ids in accept
//! order — and asserts the exact blast radius: only the affected
//! connection or cohort observes an error, everything else keeps
//! serving, and drain completes within its deadline.

use lec_core::{Mode, Optimizer};
use lec_plan::Query;
use lec_service::ConcurrentPlanServer;
use lec_serviced::protocol::{self, op, ErrorCode, Writer, MAX_FRAME};
use lec_serviced::transport::Stream;
use lec_serviced::{Client, ClientError, Daemon, DaemonConfig, FaultPlan, FrameFault, SearchFault};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

mod common;
use common::Socket;

fn fixture() -> (lec_catalog::Catalog, Vec<Query>) {
    let mut g = lec_catalog::CatalogGenerator::new(31);
    let catalog = g.generate(12);
    let mut wg = lec_plan::WorkloadGenerator::new(0x5EED);
    let queries: Vec<Query> = (0..6)
        .map(|i| {
            let ids = g.pick_tables(&catalog, 3 + (i % 3));
            wg.gen_query(&catalog, &ids, &lec_plan::QueryProfile::default())
        })
        .collect();
    (catalog, queries)
}

fn memory() -> lec_prob::Distribution {
    lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap()
}

/// Run `body` against a daemon configured with `config` and `faults`;
/// returns the drain report after `body` finishes and the daemon drains.
fn with_daemon<T>(
    catalog: &lec_catalog::Catalog,
    config: DaemonConfig,
    faults: FaultPlan,
    body: impl FnOnce(&Socket, &Daemon<'_, '_>) -> T,
) -> (T, lec_serviced::DrainReport) {
    let server = ConcurrentPlanServer::new(catalog, memory());
    let daemon = Daemon::new(&server, config).with_faults(faults);
    let socket = Socket::bind();
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| daemon.run(&socket.acceptor));
        // Drain even when `body` panics, so a failed assertion fails the
        // test instead of leaving it waiting on a daemon that still runs.
        let out = catch_unwind(AssertUnwindSafe(|| body(&socket, &daemon)));
        daemon.initiate_drain();
        let report = runner.join().expect("daemon thread");
        (out.unwrap_or_else(|panic| resume_unwind(panic)), report)
    })
}

// ---------------------------------------------------------------------
// Malformed frames poison exactly one connection
// ---------------------------------------------------------------------

#[test]
fn a_garbled_frame_poisons_only_its_connection() {
    let (catalog, queries) = fixture();
    let mode = Mode::AlgorithmC;
    // Garble the opcode byte of connection 0's first frame.
    let faults = FaultPlan::new().inbound(
        0,
        0,
        FrameFault::Garble {
            offset: 0,
            mask: 0x7F,
        },
    );
    let ((), report) = with_daemon(
        &catalog,
        DaemonConfig::default(),
        faults,
        |socket, daemon| {
            // Connection ids follow accept order, which for a Unix
            // socket is dial order: dial sequentially.
            let mut poisoned = Client::new(Box::new(socket.connect()), 1);
            let mut healthy = Client::new(Box::new(socket.connect()), 2);

            match poisoned.optimize_once(0, &mode, &queries[0]) {
                Err(ClientError::Server(e)) => {
                    assert_eq!(e.code, ErrorCode::Malformed, "garbled frame is rejected");
                }
                other => panic!("expected a Malformed rejection, got {other:?}"),
            }
            // The poisoned connection is closed after the error frame…
            assert!(
                matches!(
                    poisoned.optimize_once(1, &mode, &queries[1]),
                    Err(ClientError::Io(_))
                ),
                "poisoned connection must be closed"
            );
            // …while the other connection never notices.
            let resp = healthy
                .optimize_once(0, &mode, &queries[0])
                .expect("healthy conn serves");
            assert!(resp.cost.is_finite());

            let m = daemon.metrics();
            assert_eq!(m.malformed_frames(), 1);
            assert_eq!(m.requests_ok(), 1);
        },
    );
    assert_eq!(report.forced_aborts, 0);
}

#[test]
fn a_dropped_frame_hangs_up_without_a_response() {
    let (catalog, queries) = fixture();
    let mode = Mode::AlgorithmC;
    let faults = FaultPlan::new().inbound(0, 0, FrameFault::Drop);
    let ((), _report) = with_daemon(
        &catalog,
        DaemonConfig::default(),
        faults,
        |socket, daemon| {
            let mut dropped = Client::new(Box::new(socket.connect()), 1);
            assert!(
                matches!(
                    dropped.optimize_once(0, &mode, &queries[0]),
                    Err(ClientError::Io(_))
                ),
                "dropped frame means EOF, never a hang"
            );
            // No request was dispatched, no error frame sent.
            assert_eq!(
                daemon.metrics().requests_ok() + daemon.metrics().requests_err(),
                0
            );
        },
    );
}

#[test]
fn an_oversized_frame_is_rejected_without_reading_it() {
    let (catalog, _queries) = fixture();
    let ((), _report) = with_daemon(
        &catalog,
        DaemonConfig::default(),
        FaultPlan::new(),
        |socket, daemon| {
            let mut raw = socket.connect();
            // A header announcing MAX_FRAME + 1 bytes: the daemon must
            // reject on the prefix alone.
            raw.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
            let mut client = Client::new(Box::new(raw), 1);
            match client.ping() {
                Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Malformed),
                Err(ClientError::Io(_)) => {} // error frame raced the close
                other => panic!("expected rejection, got {other:?}"),
            }
            assert_eq!(daemon.metrics().malformed_frames(), 1);
        },
    );
}

#[test]
fn truncated_optimize_bodies_are_rejected_cleanly() {
    let (catalog, queries) = fixture();
    let mode = Mode::AlgorithmC;
    // Build a full OPTIMIZE frame, then deliver ever-shorter prefixes of
    // its body via the Truncate fault (which cuts the peeled frame).
    let mut w = Writer::new();
    w.u64(7);
    protocol::encode_mode(&mut w, &mode);
    protocol::encode_query(&mut w, &queries[0]);
    let body_len = w.into_bytes().len();
    let (catalog2, _) = (catalog, ());
    for cut in [0usize, 1, 9, body_len / 2] {
        let faults = FaultPlan::new().inbound(0, 0, FrameFault::Truncate(cut));
        let ((), _report) = with_daemon(
            &catalog2,
            DaemonConfig::default(),
            faults,
            |socket, daemon| {
                let mut client = Client::new(Box::new(socket.connect()), 1);
                match client.optimize_once(7, &mode, &queries[0]) {
                    Err(ClientError::Server(e)) => {
                        assert_eq!(e.code, ErrorCode::Malformed, "cut at {cut}")
                    }
                    other => panic!("cut at {cut}: expected Malformed, got {other:?}"),
                }
                assert_eq!(daemon.metrics().malformed_frames(), 1);
            },
        );
    }
}

/// Opcode 0x02 was `METRICS` until `STATS` with the JSON format byte
/// replaced it.  It is retired, not reused: a peer still sending it is
/// answered like any unknown opcode — one `Malformed` error frame, then
/// its connection is closed.
#[test]
fn the_retired_metrics_opcode_is_malformed_and_poisons_its_connection() {
    let (catalog, queries) = fixture();
    let ((), report) = with_daemon(
        &catalog,
        DaemonConfig::default(),
        FaultPlan::new(),
        |socket, daemon| {
            let mut raw = socket.connect();
            raw.write_all(&protocol::frame(0x02, &[])).unwrap();
            // Read to EOF: the daemon closes the connection by itself,
            // after exactly one frame.
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
            assert_eq!(frame[0], op::ERROR);
            let mut r = protocol::Reader::new(&frame[1..]);
            assert_eq!(r.u64(), Ok(0), "no request id to echo");
            assert_eq!(r.u8(), Ok(ErrorCode::Malformed as u8));
            let mut healthy = Client::new(Box::new(socket.connect()), 2);
            healthy
                .optimize_once(0, &Mode::AlgorithmC, &queries[0])
                .expect("healthy conn serves");
            assert_eq!(daemon.metrics().malformed_frames(), 1);
        },
    );
    assert_eq!(report.forced_aborts, 0);
}

// ---------------------------------------------------------------------
// Leader kills: the cohort fails, the connection survives
// ---------------------------------------------------------------------

#[test]
fn a_killed_leader_surfaces_worker_panicked_and_the_connection_survives() {
    let (catalog, queries) = fixture();
    let mode = Mode::AlgorithmC;
    let faults = FaultPlan::new().search(0, 0, SearchFault::KillLeader);
    let ((), _report) = with_daemon(
        &catalog,
        DaemonConfig::default(),
        faults,
        |socket, daemon| {
            let mut client = Client::new(Box::new(socket.connect()), 1);
            // optimize (with retry) must NOT mask the panic behind retries:
            // WorkerPanicked is not transient, so it surfaces immediately.
            match client.optimize(0, &mode, &queries[0]) {
                Err(ClientError::Server(e)) => {
                    assert_eq!(e.code, ErrorCode::WorkerPanicked);
                    assert!(!e.code.is_transient());
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
            // The connection is healthy — only the cohort died — and the
            // same request succeeds on the next, unfaulted attempt.
            let resp = client
                .optimize_once(1, &mode, &queries[0])
                .expect("retry succeeds");
            assert!(resp.cost.is_finite());

            let m = daemon.metrics();
            assert_eq!(m.requests_err(), 1);
            assert_eq!(m.requests_ok(), 1);
            assert_eq!(
                daemon.gate().depth(),
                0,
                "the killed leader released its slot"
            );
        },
    );
}

// ---------------------------------------------------------------------
// A parameter the decoder lets through is the optimizer's to reject
// ---------------------------------------------------------------------

/// `decode_mode` reads `LscAt`'s memory value as raw `f64` bits.  A
/// non-finite one must come back as a typed, non-transient error frame —
/// not as a search that panics building a point distribution — with
/// nothing cached and the connection still serving.
#[test]
fn a_non_finite_lsc_memory_is_an_error_frame_and_the_daemon_keeps_serving() {
    let (catalog, queries) = fixture();
    let ((), _report) = with_daemon(
        &catalog,
        DaemonConfig::default(),
        FaultPlan::new(),
        |socket, daemon| {
            let mut client = Client::new(Box::new(socket.connect()), 1);
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            for (i, m) in bad.into_iter().enumerate() {
                match client.optimize_once(i as u64, &Mode::LscAt(m), &queries[0]) {
                    Err(ClientError::Server(e)) => {
                        assert_eq!(e.code, ErrorCode::Opt, "LscAt({m})");
                        assert!(!e.code.is_transient());
                    }
                    other => panic!("LscAt({m}): expected an Opt error, got {other:?}"),
                }
            }
            let cached = || daemon.metrics_json()["service"]["cache_entries"].as_f64();
            assert_eq!(cached(), Some(0.0), "a rejected request caches nothing");
            let resp = client
                .optimize_once(3, &Mode::LscAt(500.0), &queries[0])
                .expect("the same connection serves the next request");
            assert!(resp.cost.is_finite());
            assert_eq!(cached(), Some(1.0));

            let m = daemon.metrics();
            assert_eq!(m.requests_err(), bad.len() as u64);
            assert_eq!(m.requests_ok(), 1);
            assert_eq!(m.malformed_frames(), 0);
            assert_eq!(
                daemon.gate().depth(),
                0,
                "every rejection released its slot"
            );
        },
    );
}

// ---------------------------------------------------------------------
// Overload: cold requests shed fast, warm hits keep serving
// ---------------------------------------------------------------------

#[test]
fn overload_sheds_cold_requests_while_warm_hits_keep_serving() {
    let (catalog, queries) = fixture();
    let mode = Mode::AlgorithmC;
    let hold = Duration::from_millis(400);
    // Connection 0's second request holds the single cold slot.
    let faults = FaultPlan::new().search(0, 1, SearchFault::Delay(hold));
    let config = DaemonConfig {
        max_cold_backlog: 1,
        ..DaemonConfig::default()
    };
    let ((), _report) = with_daemon(&catalog, config, faults, |socket, daemon| {
        let mut blocker = Client::new(Box::new(socket.connect()), 1);
        let mut prober = Client::new(Box::new(socket.connect()), 2);

        // Warm the cache with query 0 before saturating the gate.
        blocker
            .optimize_once(0, &mode, &queries[0])
            .expect("warmup");

        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                // Occupies the only cold slot for `hold`.
                blocker
                    .optimize_once(1, &mode, &queries[1])
                    .expect("held search completes")
            });
            // Give the holder time to take the slot.
            std::thread::sleep(Duration::from_millis(60));

            // A cold request is shed *immediately* — not after `hold`.
            let t0 = Instant::now();
            match prober.optimize_once(0, &mode, &queries[2]) {
                Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Overloaded),
                other => panic!("expected Overloaded, got {other:?}"),
            }
            assert!(
                t0.elapsed() < hold / 2,
                "shedding must not wait out the backlog: took {:?}",
                t0.elapsed()
            );

            // Warm hits bypass admission: query 0 still serves during
            // the overload, and both it and the held search serve fresh
            // optimization's bytes.
            let fresh = Optimizer::new(&catalog, memory());
            let resp = prober
                .optimize_once(1, &mode, &queries[0])
                .expect("warm hit");
            let held = holder.join().expect("holder thread");
            for (got, q) in [(&resp, &queries[0]), (&held, &queries[1])] {
                let want = fresh.optimize(q, &mode).expect("fresh optimize");
                assert_eq!(got.plan, want.plan);
                assert_eq!(got.cost.to_bits(), want.cost.to_bits());
            }
        });
        assert_eq!(daemon.metrics().shed_requests(), 1, "only the probe shed");
    });
}

#[test]
fn the_client_retry_rides_out_a_transient_overload() {
    let (catalog, queries) = fixture();
    let mode = Mode::AlgorithmC;
    let hold = Duration::from_millis(120);
    let faults = FaultPlan::new().search(0, 0, SearchFault::Delay(hold));
    let config = DaemonConfig {
        max_cold_backlog: 1,
        ..DaemonConfig::default()
    };
    let ((), _report) = with_daemon(&catalog, config, faults, |socket, daemon| {
        let mut blocker = Client::new(Box::new(socket.connect()), 1);
        // A generous retry budget: backoff outlasts the 120ms hold.
        let mut retrier = Client::with_policy(
            Box::new(socket.connect()),
            lec_serviced::RetryPolicy {
                max_retries: 30,
                base: Duration::from_millis(10),
                cap: Duration::from_millis(40),
            },
            2,
        );
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| blocker.optimize_once(0, &mode, &queries[1]));
            std::thread::sleep(Duration::from_millis(30));
            // Shed at first, then admitted once the slot frees: the
            // retry loop turns a transient refusal into an answer.
            let resp = retrier
                .optimize(0, &mode, &queries[2])
                .expect("retry wins through");
            assert!(resp.cost.is_finite());
            holder.join().expect("holder").expect("held search");
        });
        assert!(
            daemon.metrics().shed_requests() >= 1,
            "the overload actually happened"
        );
    });
}

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

#[test]
fn a_request_deadline_expires_instead_of_hanging() {
    let (catalog, queries) = fixture();
    let mode = Mode::AlgorithmC;
    let faults = FaultPlan::new().search(0, 0, SearchFault::Delay(Duration::from_millis(200)));
    let config = DaemonConfig {
        request_deadline: Some(Duration::from_millis(40)),
        ..DaemonConfig::default()
    };
    let ((), _report) = with_daemon(&catalog, config, faults, |socket, daemon| {
        let mut client = Client::new(Box::new(socket.connect()), 1);
        match client.optimize_once(0, &mode, &queries[0]) {
            Err(ClientError::Server(e)) => {
                assert_eq!(e.code, ErrorCode::DeadlineExceeded);
                assert!(e.code.is_transient(), "deadlines are retryable");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(daemon.metrics().deadline_expirations(), 1);
        // The leader's search fed the cache anyway, so the retry is warm
        // and beats the same deadline easily.
        let resp = client
            .optimize_once(1, &mode, &queries[0])
            .expect("warm retry");
        assert!(resp.cost.is_finite());
    });
}

// ---------------------------------------------------------------------
// Slow clients
// ---------------------------------------------------------------------

#[test]
fn a_slow_client_is_disconnected_not_waited_on() {
    let (catalog, _queries) = fixture();
    let socket = Socket::bind();
    let server = ConcurrentPlanServer::new(&catalog, memory());
    let config = DaemonConfig {
        write_timeout: Some(Duration::from_millis(50)),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::new(&server, config);
    std::thread::scope(|scope| {
        let runner = scope.spawn(|| daemon.run(&socket.acceptor));

        // The slow client pipelines 1,000 STATS requests in one write and
        // then never reads.  Each reply is a JSON document of some 640
        // bytes, so the replies overflow both socket buffers.
        let mut slow = socket.connect();
        let stats = protocol::frame(op::STATS, &[protocol::StatsFormat::Json as u8]);
        slow.write_all(&stats.repeat(1_000))
            .expect("the requests fit the socket");

        // A ping on a second connection is answered only after the daemon
        // has accepted the slow one, which is then counted active.
        Client::new(Box::new(socket.connect()), 1)
            .ping()
            .expect("the daemon serves other connections");

        // The daemon must give up on the write within the timeout and
        // close the connection rather than wedge the handler.
        let t0 = Instant::now();
        while daemon.metrics().connections_active() > 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "slow client still wedging the daemon after 5s"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        daemon.initiate_drain();
        let report = runner.join().expect("daemon thread");
        assert_eq!(report.forced_aborts, 0, "the write timeout did the job");
    });
}

// ---------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------

#[test]
fn drain_finishes_inflight_work_and_rejects_late_arrivals() {
    let (catalog, queries) = fixture();
    let mode = Mode::AlgorithmC;
    let faults = FaultPlan::new().search(0, 0, SearchFault::Delay(Duration::from_millis(150)));
    let config = DaemonConfig {
        drain_deadline: Duration::from_secs(5),
        ..DaemonConfig::default()
    };
    let ((), report) = with_daemon(&catalog, config, faults, |socket, daemon| {
        let mut inflight = Client::new(Box::new(socket.connect()), 1);
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| inflight.optimize_once(0, &mode, &queries[0]));
            std::thread::sleep(Duration::from_millis(40));

            // Drain arrives while the search is mid-flight.
            let mut ctl = Client::new(Box::new(socket.connect()), 2);
            ctl.drain().expect("drain acknowledged");

            // A connection dialed after the drain ack is rejected
            // (closed), never served, never hung.
            let mut late = Client::new(Box::new(socket.connect()), 3);
            assert!(
                matches!(late.ping(), Err(ClientError::Io(_))),
                "late connection must be closed"
            );

            // The in-flight cohort still completes and flushes.
            let resp = worker.join().expect("thread").expect("in-flight completes");
            assert!(resp.cost.is_finite());
        });
        assert!(daemon.metrics().connections_rejected() >= 1);
    });
    assert_eq!(report.forced_aborts, 0, "drain waited for the cohort");
    assert!(
        report.drain_duration < Duration::from_secs(5),
        "drain completed within its deadline: {:?}",
        report.drain_duration
    );
    let m = &report.metrics;
    assert_eq!(m["daemon"]["requests_ok"].as_f64(), Some(1.0));
    assert!(m["daemon"]["drain_duration_ms"].as_f64().is_some());
}

#[test]
fn the_drain_watchdog_force_closes_stragglers_at_the_deadline() {
    let (catalog, queries) = fixture();
    let mode = Mode::AlgorithmC;
    let hold = Duration::from_millis(400);
    let faults = FaultPlan::new().search(0, 0, SearchFault::Delay(hold));
    let config = DaemonConfig {
        drain_deadline: Duration::from_millis(50),
        ..DaemonConfig::default()
    };
    let ((), report) = with_daemon(&catalog, config, faults, |socket, daemon| {
        let mut straggler = Client::new(Box::new(socket.connect()), 1);
        std::thread::scope(|scope| {
            let worker = scope.spawn(move || straggler.optimize_once(0, &mode, &queries[0]));
            std::thread::sleep(Duration::from_millis(40));
            daemon.initiate_drain();
            // The force-closed client observes an I/O failure, not a hang.
            assert!(matches!(
                worker.join().expect("thread"),
                Err(ClientError::Io(_))
            ));
        });
    });
    assert!(report.forced_aborts >= 1, "the watchdog had to act");
    // The handler itself unblocks as soon as its held search ends.
    assert!(
        report.drain_duration < hold + Duration::from_secs(2),
        "drain resolved promptly after the hold: {:?}",
        report.drain_duration
    );
}
