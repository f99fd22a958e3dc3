//! The chaos suite: faults against a live daemon, each with an exact
//! blast radius.
//!
//! The daemon runs no fault script.  Tests send malformed bytes down a raw
//! socket themselves, and a search hook ([`Daemon::with_search_hook`]),
//! keyed on the query a test sends, sleeps to hold a cold slot or panics to
//! kill a search.  Each test asserts that only the affected connection or
//! request observes an error, everything else keeps serving, and drain
//! completes within its deadline.

use lec_core::{Mode, Optimizer};
use lec_plan::Query;
use lec_service::ConcurrentPlanServer;
use lec_serviced::protocol::{self, op, ErrorCode, Writer, MAX_FRAME};
use lec_serviced::transport::Stream;
use lec_serviced::{Client, ClientError, Daemon, DaemonConfig};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

/// A search hook that does nothing.
fn no_hook(_: &Query) {}

/// A search hook that sleeps `hold` before searching `target`.
fn hold_on(target: &Query, hold: Duration) -> impl Fn(&Query) + Sync + '_ {
    move |q| {
        if q == target {
            std::thread::sleep(hold);
        }
    }
}

/// Run `body` against a daemon over `catalog` configured with `config`
/// and `search_hook`; returns the drain report after `body` finishes and
/// the daemon drains.
fn with_daemon<T>(
    catalog: &lec_catalog::Catalog,
    config: DaemonConfig,
    search_hook: impl Fn(&Query) + Sync,
    body: impl FnOnce(&Socket, &Daemon<'_, '_>) -> T,
) -> (T, lec_serviced::DrainReport) {
    with_daemon_over(
        ConcurrentPlanServer::new(catalog, memory()),
        config,
        search_hook,
        body,
    )
}

/// [`with_daemon`] over a server the caller built.
fn with_daemon_over<T>(
    server: ConcurrentPlanServer<'_>,
    config: DaemonConfig,
    search_hook: impl Fn(&Query) + Sync,
    body: impl FnOnce(&Socket, &Daemon<'_, '_>) -> T,
) -> (T, lec_serviced::DrainReport) {
    let daemon = Daemon::new(&server, config).with_search_hook(search_hook);
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

/// An `OPTIMIZE` frame, as a client encodes it.
fn optimize_frame(req_id: u64, mode: &Mode, query: &Query) -> Vec<u8> {
    let mut body = Writer::new();
    body.u64(req_id);
    protocol::encode_mode(&mut body, mode);
    protocol::encode_query(&mut body, query);
    protocol::frame(op::OPTIMIZE, &body.into_bytes())
}

/// Write `bytes` on `raw`, then read until the daemon closes the
/// connection by itself: the reply must be exactly one `ERROR` frame with
/// no request id to echo.  Returns its code.
fn sole_error_reply(raw: &mut impl Stream, bytes: &[u8]) -> u8 {
    raw.write_all(bytes).unwrap();
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
    r.u8().expect("an error code")
}

// ---------------------------------------------------------------------
// Malformed frames poison exactly one connection
// ---------------------------------------------------------------------

#[test]
fn a_garbled_frame_poisons_only_its_connection() {
    let (catalog, queries) = fixture();
    let mode = Mode::AlgorithmC;
    let ((), report) = with_daemon(
        &catalog,
        DaemonConfig::default(),
        no_hook,
        |socket, daemon| {
            let mut raw = socket.connect();
            let mut healthy = Client::new(Box::new(socket.connect()), 2);

            // A whole OPTIMIZE frame with its opcode byte (just past the
            // 4-byte length prefix) flipped: length intact, contents not.
            let mut garbled = optimize_frame(0, &mode, &queries[0]);
            garbled[4] ^= 0x7F;
            assert_eq!(
                sole_error_reply(&mut raw, &garbled),
                ErrorCode::Malformed as u8,
                "garbled frame is rejected"
            );
            // The poisoned connection is closed after the error frame: the
            // next call sees EOF as an I/O error, never a hang…
            let mut poisoned = Client::new(Box::new(raw), 1);
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
fn an_oversized_frame_is_rejected_without_reading_it() {
    let (catalog, _queries) = fixture();
    let ((), _report) = with_daemon(
        &catalog,
        DaemonConfig::default(),
        no_hook,
        |socket, daemon| {
            // A header announcing MAX_FRAME + 1 bytes and nothing else:
            // the daemon must reject on the prefix alone, with one
            // `Malformed` frame, and close.
            assert_eq!(
                sole_error_reply(&mut socket.connect(), &(MAX_FRAME + 1).to_le_bytes()),
                ErrorCode::Malformed as u8
            );
            assert_eq!(daemon.metrics().malformed_frames(), 1);
        },
    );
}

#[test]
fn truncated_optimize_bodies_are_rejected_cleanly() {
    let (catalog, queries) = fixture();
    let mode = Mode::AlgorithmC;
    // A full OPTIMIZE frame, then ever-shorter prefixes of its opcode and
    // body, each under a length prefix that announces just the cut: a
    // zero-length frame, an opcode alone, an opcode and request id, and
    // half the body.
    let whole = optimize_frame(7, &mode, &queries[0]);
    let body_len = whole.len() - 5;
    for cut in [0usize, 1, 9, body_len / 2] {
        let mut cut_frame = (cut as u32).to_le_bytes().to_vec();
        cut_frame.extend_from_slice(&whole[4..4 + cut]);
        let ((), _report) = with_daemon(
            &catalog,
            DaemonConfig::default(),
            no_hook,
            |socket, daemon| {
                assert_eq!(
                    sole_error_reply(&mut socket.connect(), &cut_frame),
                    ErrorCode::Malformed as u8,
                    "cut at {cut}"
                );
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
        no_hook,
        |socket, daemon| {
            // The daemon closes the connection by itself, after exactly
            // one frame.
            assert_eq!(
                sole_error_reply(&mut socket.connect(), &protocol::frame(0x02, &[])),
                ErrorCode::Malformed as u8
            );
            let mut healthy = Client::new(Box::new(socket.connect()), 2);
            healthy
                .optimize_once(0, &Mode::AlgorithmC, &queries[0])
                .expect("healthy conn serves");
            assert_eq!(daemon.metrics().malformed_frames(), 1);
        },
    );
    assert_eq!(report.forced_aborts, 0);
}

/// `STATS` format byte 1 named a second rendering of the JSON document.
/// It is retired like opcode 0x02: that byte, and any other but
/// `STATS_JSON`, is answered with one `Malformed` error frame and a
/// close, while another connection still gets the JSON document.
#[test]
fn a_retired_stats_format_byte_is_malformed_and_poisons_its_connection() {
    let (catalog, _queries) = fixture();
    let ((), report) = with_daemon(
        &catalog,
        DaemonConfig::default(),
        no_hook,
        |socket, daemon| {
            for format in [1, 2] {
                let stats = protocol::frame(op::STATS, &[format]);
                assert_eq!(
                    sole_error_reply(&mut socket.connect(), &stats),
                    ErrorCode::Malformed as u8,
                    "STATS format byte {format}"
                );
            }
            let mut healthy = Client::new(Box::new(socket.connect()), 2);
            let doc = healthy.stats().expect("healthy conn gets the document");
            assert!(doc.starts_with("{\"daemon\": {"), "{doc}");
            assert!(doc.contains("\"malformed_frames\": 2,"), "{doc}");
            assert_eq!(daemon.metrics().malformed_frames(), 2);
        },
    );
    assert_eq!(report.forced_aborts, 0);
}

// ---------------------------------------------------------------------
// Search kills: the request fails, the connection survives
// ---------------------------------------------------------------------

#[test]
fn a_killed_leader_surfaces_worker_panicked_and_the_connection_survives() {
    let (catalog, queries) = fixture();
    let mode = Mode::AlgorithmC;
    // The first search of query 0 dies after admission, as if the DP
    // itself had panicked; later searches of it run.
    let killed = AtomicBool::new(false);
    let kill_once = |q: &Query| {
        if q == &queries[0] && !killed.swap(true, Ordering::SeqCst) {
            panic!("leader killed mid-search");
        }
    };
    let ((), _report) = with_daemon(
        &catalog,
        DaemonConfig::default(),
        kill_once,
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
            // The connection is healthy — only the request died — and the
            // same request succeeds on the next attempt.
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
        no_hook,
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
    // The search of query 1 holds the single cold slot.
    let config = DaemonConfig {
        max_cold_backlog: 1,
        ..DaemonConfig::default()
    };
    let hook = hold_on(&queries[1], hold);
    let ((), _report) = with_daemon(&catalog, config, hook, |socket, daemon| {
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

/// Poll `done` every millisecond for at most ten seconds; true once it
/// holds.  The bound keeps a failing test from hanging the suite.
fn wait_until(done: impl Fn() -> bool) -> bool {
    let t0 = Instant::now();
    while !done() {
        if t0.elapsed() > Duration::from_secs(10) {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

#[test]
fn the_client_retry_rides_out_a_transient_overload() {
    let (catalog, queries) = fixture();
    let mode = Mode::AlgorithmC;
    let config = DaemonConfig {
        max_cold_backlog: 1,
        ..DaemonConfig::default()
    };
    // The search of query 1 holds the only cold slot from `held` until the
    // test sees a shed and sets `release`.
    let held = AtomicBool::new(false);
    let release = AtomicBool::new(false);
    let hook = |q: &Query| {
        if q == &queries[1] {
            held.store(true, Ordering::SeqCst);
            wait_until(|| release.load(Ordering::SeqCst));
        }
    };
    let ((), _report) = with_daemon(&catalog, config, hook, |socket, daemon| {
        let mut blocker = Client::new(Box::new(socket.connect()), 1);
        let mut retrier = Client::new(Box::new(socket.connect()), 2);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| blocker.optimize_once(0, &mode, &queries[1]));
            let slot_taken = wait_until(|| held.load(Ordering::SeqCst));
            // Shed at first, then admitted once the slot frees: the
            // retry loop turns a transient refusal into an answer.  The
            // release follows the first shed within milliseconds, and the
            // client's four retries wait at least 37.5 ms in all.
            let retried = scope.spawn(|| retrier.optimize(0, &mode, &queries[2]));
            let shed = wait_until(|| daemon.metrics().shed_requests() >= 1);
            release.store(true, Ordering::SeqCst);
            assert!(slot_taken, "the held search never started");
            assert!(shed, "the overload never happened");
            let resp = retried
                .join()
                .expect("retrier thread")
                .expect("retry wins through");
            assert!(resp.cost.is_finite());
            holder.join().expect("holder").expect("held search");
        });
    });
}

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

#[test]
fn a_request_deadline_expires_instead_of_hanging() {
    let (catalog, queries) = fixture();
    let mode = Mode::AlgorithmC;
    let config = DaemonConfig {
        request_deadline: Some(Duration::from_millis(40)),
        ..DaemonConfig::default()
    };
    let hook = hold_on(&queries[0], Duration::from_millis(200));
    let ((), _report) = with_daemon(&catalog, config, hook, |socket, daemon| {
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

/// A request whose answer comes back past its deadline is refused, and
/// the latency histograms file it under the refusal: an error, never a
/// fresh answer the client did not get.
#[test]
fn a_missed_deadline_is_recorded_as_an_error_not_a_fresh_answer() {
    let (catalog, queries) = fixture();
    let mode = Mode::AlgorithmC;
    let server = ConcurrentPlanServer::new(&catalog, memory())
        .with_telemetry(Arc::new(lec_telemetry::Telemetry::on()));
    let config = DaemonConfig {
        request_deadline: Some(Duration::from_millis(40)),
        ..DaemonConfig::default()
    };
    let hook = hold_on(&queries[0], Duration::from_millis(200));
    let ((), _report) = with_daemon_over(server, config, hook, |socket, daemon| {
        let mut client = Client::new(Box::new(socket.connect()), 1);
        match client.optimize_once(0, &mode, &queries[0]) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::DeadlineExceeded),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let doc = daemon.metrics_json();
        let latency = &doc["service"]["telemetry"]["latency"];
        assert_eq!(latency["error"]["count"].as_f64(), Some(1.0));
        assert_eq!(latency["fresh"]["count"].as_f64(), Some(0.0));
        assert_eq!(doc["daemon"]["requests_err"].as_f64(), Some(1.0));
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
        let stats = protocol::frame(op::STATS, &[protocol::STATS_JSON]);
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
    let config = DaemonConfig {
        drain_deadline: Duration::from_secs(5),
        ..DaemonConfig::default()
    };
    // The hook marks when the held search starts and when its hold ends.
    let (held, released) = (AtomicBool::new(false), AtomicBool::new(false));
    let hook = |q: &Query| {
        if q == &queries[0] {
            held.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(300));
            released.store(true, Ordering::SeqCst);
        }
    };
    let ((), report) = with_daemon(&catalog, config, hook, |socket, daemon| {
        let mut inflight = Client::new(Box::new(socket.connect()), 1);
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| inflight.optimize_once(0, &mode, &queries[0]));
            assert!(
                wait_until(|| held.load(Ordering::SeqCst)),
                "the search is held"
            );

            // Drain arrives while the search is mid-flight.
            let mut ctl = Client::new(Box::new(socket.connect()), 2);
            ctl.drain().expect("drain acknowledged");
            assert!(
                !released.load(Ordering::SeqCst),
                "the drain overlapped the held search"
            );

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
            assert!(released.load(Ordering::SeqCst));
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
    let config = DaemonConfig {
        drain_deadline: Duration::from_millis(50),
        ..DaemonConfig::default()
    };
    let hook = hold_on(&queries[0], hold);
    let ((), report) = with_daemon(&catalog, config, hook, |socket, daemon| {
        let mut straggler = Client::new(Box::new(socket.connect()), 1);
        std::thread::scope(|scope| {
            let query = &queries[0];
            let worker = scope.spawn(move || straggler.optimize_once(0, &mode, query));
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
