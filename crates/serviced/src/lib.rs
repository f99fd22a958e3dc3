//! `lec-serviced` — a hardened network daemon over the LEC serving layer.
//!
//! The in-process [`ConcurrentPlanServer`](lec_service::ConcurrentPlanServer)
//! answers warm hits in microseconds but assumes callers live in the same
//! address space.  This crate puts it behind a socket without giving up
//! the property the serving stack is built on: **a response that crosses
//! the wire is byte-identical to one served in-process** — same plan
//! shape, same cost bits, same table numbering, same cache decision.
//!
//! # Wire protocol
//!
//! Length-prefixed binary frames, little-endian throughout:
//!
//! ```text
//! +-------------+---------+--------------------+
//! | len: u32 LE | op: u8  | body: len - 1 bytes |
//! +-------------+---------+--------------------+
//! ```
//!
//! `len` counts the opcode plus body (`1 <= len <=`
//! [`MAX_FRAME`](protocol::MAX_FRAME)).
//!
//! | op   | name         | direction | body                                        |
//! |-----:|--------------|-----------|---------------------------------------------|
//! | 0x01 | `OPTIMIZE`   | request   | `req_id: u64`, mode, query                  |
//! | 0x02 | *retired*    | request   | was `METRICS`; answered as an unknown opcode |
//! | 0x03 | `PING`       | request   | empty                                       |
//! | 0x04 | `DRAIN`      | request   | empty                                       |
//! | 0x05 | `STATS`      | request   | `format: u8`, 0 = JSON; 1 retired           |
//! | 0x81 | `OPTIMIZE_OK`| response  | `req_id: u64`, plan, cost, decision, stats  |
//! | 0x82 | `ERROR`      | response  | `req_id: u64`, `code: u8`, message          |
//! | 0x83 | *retired*    | response  | was `METRICS_OK`; never sent                |
//! | 0x84 | `PONG`       | response  | empty                                       |
//! | 0x85 | `DRAIN_OK`   | response  | empty                                       |
//! | 0x86 | `STATS_OK`   | response  | the JSON document as one string             |
//!
//! Opcodes 0x02 / 0x83 are retired, not renumbered: `METRICS` returned the
//! document `STATS` with the JSON format byte returns, so `STATS` is the
//! one stats op.  Its format byte `1` named a second rendering of that
//! document; it is retired the same way, and any byte but
//! [`protocol::STATS_JSON`] is answered `Malformed`.
//! [`protocol::split_frame`] is the only code that reads a length prefix
//! and [`protocol::Writer::end_frame`] the only code that writes one;
//! daemon and client each keep one input buffer whose frames are slices
//! of it and one output buffer encoded in place.
//!
//! `STATS` returns the daemon's full observability snapshot — latency
//! histograms (p50/p90/p99/p999 per outcome) and the slow-query log when
//! telemetry is installed — byte-identical to the in-process
//! `Daemon::metrics_json` document at snapshot time.  Floats travel as
//! IEEE-754 bit patterns and distributions are reconstructed with
//! [`Distribution::from_parts_exact`](lec_prob::Distribution::from_parts_exact)
//! (validate, never renormalize), which is what carries bit-exactness
//! across the socket.
//!
//! # Error codes
//!
//! | code | name               | transient? | meaning                                    |
//! |-----:|--------------------|------------|--------------------------------------------|
//! | 1    | `Overloaded`       | yes        | admission control shed this cold request   |
//! | 2    | `DeadlineExceeded` | yes        | the request's deadline expired             |
//! | 3    | `WorkerPanicked`   | **no**     | the search serving this request panicked — surfaced, never retried blindly |
//! | 4    | `Opt`              | no         | deterministic optimizer rejection          |
//! | 5    | `Malformed`        | no         | undecodable frame; the connection is poisoned |
//!
//! An `OPTIMIZE_OK` body carries no mode: the caller knows the mode it
//! sent, and a pipelined client matches replies by `req_id`.  Its cache
//! decision tags are 0 (served), 3 (recomputed) and 4 (uncacheable); tags
//! 1 and 2 are retired.
//!
//! Transient codes are the only ones [`Client`] retries, up to four times
//! with capped jittered exponential backoff (5 ms doubling to at most
//! 200 ms, each delay scaled by a jitter in `[0.5, 1)`).
//!
//! # Robustness posture
//!
//! - **Admission control**: fresh (cold) searches pass a bounded gate;
//!   past `max_cold_backlog` they are shed with `Overloaded` immediately.
//!   Warm hits bypass the gate entirely, so an overloaded daemon degrades
//!   to a cache, never to a hang.
//! - **Failure discipline**: per-request deadlines, slow-client write
//!   timeouts, and malformed frames that poison exactly one connection.
//! - **Graceful drain**: stop accepting, finish in-flight requests,
//!   flush, report.  A watchdog force-closes stragglers at `drain_deadline`.
//! - **Fault injection**: none in the daemon.  Tests send malformed bytes
//!   themselves, and a search hook ([`Daemon::with_search_hook`]) lets
//!   them hold a cold slot or kill a search, so the chaos suite
//!   asserts exact blast radii.
//!
//! The daemon serves any [`transport::Listener`] of
//! [`transport::Stream`]s.  There is one implementation, the kernel
//! sockets: [`TcpAcceptor`] and [`UnixAcceptor`] are one macro
//! instantiated twice.  Every daemon test runs on a Unix socket, and
//! `wire_parity.rs` runs the parity stream over TCP too.

#![forbid(unsafe_code)]

pub mod client;
pub mod daemon;
pub mod protocol;
pub mod transport;

pub use client::{Client, ClientError, ServerError};
pub use daemon::{Daemon, DaemonConfig, DaemonMetrics, DrainReport};
pub use protocol::ErrorCode;
pub use transport::{TcpAcceptor, UnixAcceptor};
