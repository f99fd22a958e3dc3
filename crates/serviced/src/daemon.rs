//! The daemon: accept loop, per-connection frame pump, admission control,
//! graceful drain, and deterministic fault injection.
//!
//! # Threading model
//!
//! [`Daemon::run`] owns a `std::thread::scope`: one accept loop (the
//! calling thread) plus one handler thread per connection.  Handlers never
//! block indefinitely — reads use the configured poll interval as a
//! timeout so the drain flag is observed within one interval, and writes
//! carry the slow-client write timeout.  `run` returns only after every
//! handler has exited, so the returned [`DrainReport`] is a complete
//! account of the daemon's lifetime.
//!
//! # Admission control
//!
//! Warm cache hits and coalesced followers are practically free, so they
//! are never gated.  Fresh (cold) searches are the expensive resource: a
//! bounded [`Gate`] of `max_cold_backlog` slots fronts them, and a cold
//! request that cannot take a slot is shed with
//! [`ErrorCode::Overloaded`](crate::protocol::ErrorCode::Overloaded)
//! *immediately* — under overload the daemon degrades to serving only
//! what it already knows, it never hangs.  A shed leader publishes the
//! refusal to its whole coalesced cohort (see
//! [`lec_service::ConcurrentPlanServer::serve_with`]).
//!
//! # Drain semantics
//!
//! [`Daemon::initiate_drain`] (or a wire `DRAIN` frame) flips one flag:
//! the accept loop stops accepting (late connections are closed and
//! counted rejected), handlers finish the batch in hand, flush, and close.
//! A watchdog force-closes any connection still open at
//! `drain_deadline` via its [`AbortHandle`].  The drain duration is
//! recorded in the metrics and the final metrics snapshot is returned in
//! the [`DrainReport`].

use crate::faults::{FaultPlan, FrameFault, SearchFault};
use crate::protocol::{self, op, DecodeError, ErrorCode, Reader, StatsFormat, Writer, MAX_FRAME};
use crate::transport::{is_timeout, AbortHandle, Listener, Stream};
use lec_core::OptError;
use lec_service::{CacheDecision, ConcurrentPlanServer, ServeCtx, ServeError, ServeHooks};
use lec_telemetry::{Outcome, Stage, TraceCtx};
use serde_json::json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Everything tunable about one daemon.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Cold-search slots: fresh searches admitted concurrently before
    /// further cold requests are shed with `Overloaded`.
    pub max_cold_backlog: usize,
    /// Per-request deadline.  Bounds a follower's coalesced wait inside
    /// the serving layer and converts an over-deadline completion into
    /// `DeadlineExceeded` at the response site.  `None` disables it.
    pub request_deadline: Option<Duration>,
    /// Slow-client write timeout; a connection whose peer stops draining
    /// its socket is closed rather than allowed to wedge a handler.
    pub write_timeout: Option<Duration>,
    /// How often blocked reads/accepts wake up to poll the drain flag.
    pub poll_interval: Duration,
    /// How long a drain waits for in-flight connections before the
    /// watchdog force-closes the stragglers.
    pub drain_deadline: Duration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            max_cold_backlog: 4,
            request_deadline: None,
            write_timeout: Some(Duration::from_secs(2)),
            poll_interval: Duration::from_millis(10),
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// Monotonic counters, cheap to bump from any handler thread.  The
/// closure invariants tests assert: `connections_accepted ==
/// connections_active + closed`, `requests == requests_ok +
/// requests_err`, and the gate's depth returns to zero at drain.
#[derive(Debug, Default)]
pub struct DaemonMetrics {
    connections_accepted: AtomicU64,
    connections_active: AtomicU64,
    connections_rejected: AtomicU64,
    requests_ok: AtomicU64,
    requests_err: AtomicU64,
    shed_requests: AtomicU64,
    deadline_expirations: AtomicU64,
    malformed_frames: AtomicU64,
    forced_aborts: AtomicU64,
    drain_duration_ms: AtomicU64,
}

macro_rules! metric_getters {
    ($($name:ident),* $(,)?) => {$(
        pub fn $name(&self) -> u64 {
            self.$name.load(Ordering::Acquire)
        }
    )*};
}

impl DaemonMetrics {
    metric_getters!(
        connections_accepted,
        connections_active,
        connections_rejected,
        requests_ok,
        requests_err,
        shed_requests,
        deadline_expirations,
        malformed_frames,
        forced_aborts,
        drain_duration_ms,
    );
}

/// The bounded cold-search backlog.  `try_acquire` is the only admission
/// path; the high-water mark records the deepest the queue ever got.
#[derive(Debug)]
pub struct Gate {
    depth: AtomicUsize,
    max: usize,
    high_water: AtomicUsize,
}

impl Gate {
    fn new(max: usize) -> Self {
        Gate {
            depth: AtomicUsize::new(0),
            max,
            high_water: AtomicUsize::new(0),
        }
    }

    fn try_acquire(&self) -> bool {
        let mut cur = self.depth.load(Ordering::Relaxed);
        loop {
            if cur >= self.max {
                return false;
            }
            match self.depth.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    let new = cur + 1;
                    let mut hw = self.high_water.load(Ordering::Relaxed);
                    while new > hw {
                        match self.high_water.compare_exchange_weak(
                            hw,
                            new,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => break,
                            Err(seen) => hw = seen,
                        }
                    }
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    fn release(&self) {
        self.depth.fetch_sub(1, Ordering::AcqRel);
    }

    /// Current cold-search queue depth.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }

    /// Deepest the cold-search queue ever got.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Acquire)
    }
}

/// Per-request [`ServeHooks`]: wires the daemon's gate into the serving
/// layer's admission points and injects the scripted search fault.
struct RequestHooks<'d> {
    gate: &'d Gate,
    fault: Option<SearchFault>,
}

impl ServeHooks for RequestHooks<'_> {
    fn admit_cold(&self) -> bool {
        self.gate.try_acquire()
    }

    fn release_cold(&self) {
        self.gate.release()
    }

    fn before_search(&self) {
        match self.fault {
            // A genuine mid-cohort death: this panic unwinds through the
            // serving layer's LeaderGuard (publishing `WorkerPanicked` to
            // the whole cohort) before the daemon's catch_unwind stops it.
            Some(SearchFault::KillLeader) => panic!("fault injection: leader killed mid-search"),
            // Holding the admission slot while sleeping is the lever
            // overload tests use to saturate the backlog deterministically.
            Some(SearchFault::Delay(d)) => std::thread::sleep(d),
            None => {}
        }
    }
}

/// What [`Daemon::run`] hands back once the last connection closes.
#[derive(Debug)]
pub struct DrainReport {
    /// Wall time from drain initiation to the last handler exiting.
    pub drain_duration: Duration,
    /// Connections the watchdog had to force-close at the deadline.
    pub forced_aborts: u64,
    /// Final metrics snapshot (same shape as a wire `METRICS` response).
    pub metrics: serde_json::Value,
    /// The same snapshot flattened into dotted counter keys, every one
    /// prefixed with its layer's namespace (`daemon.requests_ok`,
    /// `service.cache.served`, ...).  The prefixes keep the two layers'
    /// counter names from colliding however either document evolves —
    /// pinned by `drain_report_counters_are_namespaced_and_collision_free`.
    pub counters: Vec<(String, f64)>,
}

/// Flatten a nested metrics document into dotted counter keys.  Only
/// numeric leaves are taken (booleans, strings, and arrays — e.g. the
/// slow-query log — are presentation, not counters), so the result is a
/// flat, collision-free `(name, value)` list suitable for diffing,
/// assertions, and Prometheus exposition.
pub fn flatten_counters(doc: &serde_json::Value) -> Vec<(String, f64)> {
    fn walk(prefix: &str, v: &serde_json::Value, out: &mut Vec<(String, f64)>) {
        match v {
            serde_json::Value::Object(pairs) => {
                for (k, v) in pairs {
                    let key = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    walk(&key, v, out);
                }
            }
            serde_json::Value::Number(n) => out.push((prefix.to_string(), *n)),
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk("", doc, &mut out);
    out
}

/// What to do with the connection after processing one frame.
enum Disposition {
    /// Keep pumping frames.
    Continue,
    /// Flush pending responses (the error frame is among them), then
    /// close — the malformed-frame path.
    Poison,
    /// Close immediately without flushing (inbound `Drop` fault).
    Hangup,
}

/// A hardened front end over one [`ConcurrentPlanServer`].
pub struct Daemon<'s, 'c> {
    server: &'s ConcurrentPlanServer<'c>,
    config: DaemonConfig,
    faults: FaultPlan,
    metrics: DaemonMetrics,
    gate: Gate,
    drain: AtomicBool,
    drain_started: Mutex<Option<Instant>>,
}

impl<'s, 'c> Daemon<'s, 'c> {
    pub fn new(server: &'s ConcurrentPlanServer<'c>, config: DaemonConfig) -> Self {
        let gate = Gate::new(config.max_cold_backlog);
        Daemon {
            server,
            config,
            faults: FaultPlan::new(),
            metrics: DaemonMetrics::default(),
            gate,
            drain: AtomicBool::new(false),
            drain_started: Mutex::new(None),
        }
    }

    /// Install a deterministic fault schedule (chaos tests only; the
    /// empty default keeps the batched fast path).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    pub fn metrics(&self) -> &DaemonMetrics {
        &self.metrics
    }

    pub fn gate(&self) -> &Gate {
        &self.gate
    }

    /// Begin a graceful drain: stop accepting, finish in-flight work,
    /// flush, exit.  Idempotent; the first call stamps the drain clock.
    pub fn initiate_drain(&self) {
        let mut started = self.drain_started.lock().unwrap_or_else(|p| p.into_inner());
        if started.is_none() {
            *started = Some(Instant::now());
        }
        self.drain.store(true, Ordering::Release);
    }

    pub fn is_draining(&self) -> bool {
        self.drain.load(Ordering::Acquire)
    }

    /// The daemon's metrics document: the serving layer's own snapshot
    /// under `"service"`, the daemon counters under `"daemon"`, keys
    /// recursively sorted.  When telemetry is installed on the server,
    /// its full snapshot (latency quantiles, engine histograms, trace
    /// ring, slow log) rides along under `service.telemetry` — this is
    /// also the exact document a wire `STATS` request with the JSON
    /// format byte returns.
    pub fn metrics_json(&self) -> serde_json::Value {
        let m = &self.metrics;
        json!({
            "service": self.server.metrics_json(),
            "daemon": {
                "connections_accepted": m.connections_accepted() as f64,
                "connections_active": m.connections_active() as f64,
                "connections_rejected": m.connections_rejected() as f64,
                "requests_ok": m.requests_ok() as f64,
                "requests_err": m.requests_err() as f64,
                "shed_requests": m.shed_requests() as f64,
                "deadline_expirations": m.deadline_expirations() as f64,
                "malformed_frames": m.malformed_frames() as f64,
                "forced_aborts": m.forced_aborts() as f64,
                "cold_queue_depth": self.gate.depth() as f64,
                "cold_queue_high_water": self.gate.high_water() as f64,
                "drain_duration_ms": m.drain_duration_ms() as f64,
            }
        })
        .sorted()
    }

    /// Prometheus text exposition: every flattened counter as an
    /// unlabeled gauge (`lec_daemon_requests_ok`,
    /// `lec_service_cache_served`, ...), plus — when telemetry is
    /// installed — the labeled histogram series from
    /// [`lec_telemetry::Telemetry::prometheus`].  Every line parses with
    /// [`lec_telemetry::parse_prometheus`]; tests and the CI smoke step
    /// pin that.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for (key, value) in flatten_counters(&self.metrics_json()) {
            let name = format!("lec_{}", key.replace('.', "_"));
            lec_telemetry::write_sample(&mut out, &name, &[], value);
        }
        if let Some(tel) = self.server.telemetry() {
            out.push_str(&tel.prometheus());
        }
        out
    }

    /// Serve the listener until drained.  Blocks the calling thread; one
    /// handler thread per connection.  Returns after the last handler
    /// exits, with the final metrics inside the [`DrainReport`].
    pub fn run(&self, listener: &dyn Listener) -> DrainReport {
        // Abort handles for every connection ever accepted; firing one
        // for an already-closed connection is a harmless no-op, so the
        // watchdog just fires them all at the deadline.
        let abort_handles: Mutex<Vec<AbortHandle>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            let mut next_conn_id: u64 = 0;
            while !self.is_draining() {
                match listener.accept_timeout(self.config.poll_interval) {
                    Ok(Some(stream)) => {
                        if self.is_draining() {
                            self.metrics
                                .connections_rejected
                                .fetch_add(1, Ordering::AcqRel);
                            drop(stream);
                            break;
                        }
                        let conn_id = next_conn_id;
                        next_conn_id += 1;
                        self.metrics
                            .connections_accepted
                            .fetch_add(1, Ordering::AcqRel);
                        self.metrics
                            .connections_active
                            .fetch_add(1, Ordering::AcqRel);
                        abort_handles
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .push(stream.abort_handle());
                        scope.spawn(move || self.handle_conn(conn_id, stream));
                    }
                    Ok(None) => {}
                    // A dead listener cannot accept; treat as drain.
                    Err(_) => self.initiate_drain(),
                }
            }

            // Watchdog: give in-flight connections until the drain
            // deadline, then force-close the stragglers.  Late arrivals
            // are rejected (accept-and-close) throughout the drain so a
            // dialing client sees an immediate close, never a hang.
            let started = self
                .drain_started
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .unwrap_or_else(Instant::now);
            loop {
                while let Ok(Some(stream)) = listener.accept_timeout(Duration::ZERO) {
                    self.metrics
                        .connections_rejected
                        .fetch_add(1, Ordering::AcqRel);
                    drop(stream);
                }
                let active = self.metrics.connections_active();
                if active == 0 {
                    break;
                }
                if started.elapsed() >= self.config.drain_deadline {
                    self.metrics
                        .forced_aborts
                        .fetch_add(active, Ordering::AcqRel);
                    for handle in abort_handles
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .iter()
                    {
                        handle();
                    }
                    break;
                }
                std::thread::sleep(self.config.poll_interval);
            }
            // Scope exit joins every handler (aborted connections unblock
            // promptly: their reads see EOF/errors).
        });

        let started = self
            .drain_started
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .unwrap_or_else(Instant::now);
        let drain_duration = started.elapsed();
        self.metrics
            .drain_duration_ms
            .store(drain_duration.as_millis() as u64, Ordering::Release);
        let metrics = self.metrics_json();
        DrainReport {
            drain_duration,
            forced_aborts: self.metrics.forced_aborts(),
            counters: flatten_counters(&metrics),
            metrics,
        }
    }

    fn handle_conn(&self, conn_id: u64, mut stream: Box<dyn Stream>) {
        struct ActiveGuard<'a>(&'a AtomicU64);
        impl Drop for ActiveGuard<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::AcqRel);
            }
        }
        let _active = ActiveGuard(&self.metrics.connections_active);

        let _ = stream.set_read_timeout(Some(self.config.poll_interval));
        let _ = stream.set_write_timeout(self.config.write_timeout);

        let mut inbuf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        let mut in_frame_idx: u64 = 0;
        let mut out_frame_idx: u64 = 0;
        let mut req_idx: u64 = 0;

        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if is_timeout(&e) => {
                    if self.is_draining() {
                        return;
                    }
                    continue;
                }
                Err(_) => return,
            }

            // Peel every complete frame the read delivered and answer the
            // whole batch with one write — this is the syscall
            // amortization that lets one connection pump thousands of
            // ~microsecond warm hits per second.
            let mut out_frames: Vec<Vec<u8>> = Vec::new();
            let mut disposition = Disposition::Continue;
            loop {
                let mut frame = match peel_frame(&mut inbuf) {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(what) => {
                        self.metrics.malformed_frames.fetch_add(1, Ordering::AcqRel);
                        out_frames.push(error_frame(0, ErrorCode::Malformed, what));
                        disposition = Disposition::Poison;
                        break;
                    }
                };

                let idx = in_frame_idx;
                in_frame_idx += 1;
                match self.faults.inbound_fault(conn_id, idx) {
                    None => {}
                    Some(FrameFault::Drop) => {
                        disposition = Disposition::Hangup;
                        break;
                    }
                    Some(FrameFault::Truncate(n)) => frame.truncate(n),
                    Some(FrameFault::Garble { offset, mask }) if !frame.is_empty() => {
                        let i = offset % frame.len();
                        frame[i] ^= mask;
                    }
                    Some(FrameFault::Garble { .. }) => {}
                    Some(FrameFault::Delay(d)) => std::thread::sleep(d),
                }

                if self.dispatch(conn_id, &mut req_idx, &frame, &mut out_frames) {
                    disposition = Disposition::Poison;
                    break;
                }
            }

            if matches!(disposition, Disposition::Hangup) {
                return;
            }
            if !self.flush(conn_id, stream.as_mut(), out_frames, &mut out_frame_idx) {
                return;
            }
            if matches!(disposition, Disposition::Poison) || self.is_draining() {
                return;
            }
        }
    }

    /// Process one frame (opcode + body).  Pushes any response frames;
    /// returns `true` when the connection must be poisoned (the error
    /// frame is already queued).
    fn dispatch(
        &self,
        conn_id: u64,
        req_idx: &mut u64,
        frame: &[u8],
        out: &mut Vec<Vec<u8>>,
    ) -> bool {
        let Some((&opcode, body)) = frame.split_first() else {
            self.metrics.malformed_frames.fetch_add(1, Ordering::AcqRel);
            out.push(error_frame(0, ErrorCode::Malformed, "empty frame"));
            return true;
        };
        match opcode {
            op::OPTIMIZE => {
                // With telemetry installed the trace clock starts before
                // the frame is decoded; the request id arrives mid-decode,
                // so the context is built retroactively on that epoch
                // (`trace_ctx_at`).  Without telemetry no clock is read.
                let tel = self.server.telemetry().filter(|t| t.enabled());
                let decode_start = tel.map(|_| Instant::now());
                let mut r = Reader::new(body);
                let parsed = (|| {
                    let req_id = r.u64()?;
                    let mode = protocol::decode_mode(&mut r)?;
                    let query = protocol::decode_query(&mut r)?;
                    r.finish()?;
                    Ok::<_, DecodeError>((req_id, mode, query))
                })();
                let (req_id, mode, query) = match parsed {
                    Ok(parts) => parts,
                    Err(e) => {
                        self.metrics.malformed_frames.fetch_add(1, Ordering::AcqRel);
                        out.push(error_frame(0, ErrorCode::Malformed, &e.to_string()));
                        return true;
                    }
                };
                let mut trace = match (tel, decode_start) {
                    (Some(t), Some(epoch)) => t.trace_ctx_at(req_id, epoch),
                    _ => TraceCtx::disabled(),
                };
                // Decode span: epoch to now, detail = frame body bytes.
                trace.span(Stage::Decode, 0, body.len() as u64);

                let fault = self.faults.search_fault(conn_id, *req_idx);
                *req_idx += 1;
                let deadline = self.config.request_deadline.map(|d| Instant::now() + d);
                let hooks = RequestHooks {
                    gate: &self.gate,
                    fault,
                };
                // A search is a plain call on this handler thread, so a
                // panic in it unwinds to here.  The serving layer's
                // LeaderGuard publishes the cohort error on the way;
                // mapping the escaped panic to WorkerPanicked keeps the
                // leader's own response consistent with what its
                // followers saw.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let ctx = ServeCtx {
                        hooks: &hooks,
                        deadline,
                        trace: &mut trace,
                    };
                    self.server.serve_with(&query, &mode, ctx)
                }))
                .unwrap_or(Err(ServeError::Opt(OptError::WorkerPanicked)));
                // A leader is never cancelled mid-search (its result
                // feeds the cache), but its *response* still honors the
                // deadline.
                let result = match (result, deadline) {
                    (Ok(_), Some(d)) if Instant::now() > d => Err(ServeError::DeadlineExceeded),
                    (other, _) => other,
                };

                match result {
                    Ok(resp) => {
                        self.metrics.requests_ok.fetch_add(1, Ordering::AcqRel);
                        // Flush span: response encode + queue, detail =
                        // encoded body bytes.  (The socket write itself is
                        // batched across requests after dispatch.)
                        let flush_start = trace.now_ns();
                        let mut w = Writer::new();
                        w.u64(req_id);
                        protocol::encode_response(&mut w, &resp);
                        let bytes = w.into_bytes();
                        let body_len = bytes.len() as u64;
                        out.push(protocol::frame(op::OPTIMIZE_OK, &bytes));
                        trace.span(Stage::Flush, flush_start, body_len);
                        if let Some(t) = tel {
                            let outcome = match resp.decision {
                                CacheDecision::Served => Outcome::Served,
                                CacheDecision::Coalesced => Outcome::Coalesced,
                                _ => Outcome::Fresh,
                            };
                            t.finish_request(&trace, outcome);
                        }
                    }
                    Err(e) => {
                        self.metrics.requests_err.fetch_add(1, Ordering::AcqRel);
                        match &e {
                            ServeError::Overloaded => {
                                self.metrics.shed_requests.fetch_add(1, Ordering::AcqRel);
                            }
                            ServeError::DeadlineExceeded => {
                                self.metrics
                                    .deadline_expirations
                                    .fetch_add(1, Ordering::AcqRel);
                            }
                            ServeError::Opt(_) => {}
                        }
                        out.push(error_frame(
                            req_id,
                            ErrorCode::from_serve_error(&e),
                            &e.to_string(),
                        ));
                        if let Some(t) = tel {
                            let outcome = match &e {
                                ServeError::Overloaded => Outcome::Shed,
                                _ => Outcome::Error,
                            };
                            t.finish_request(&trace, outcome);
                        }
                    }
                }
                false
            }
            op::METRICS if body.is_empty() => {
                let doc = serde_json::to_string(&self.metrics_json()).unwrap_or_default();
                let mut w = Writer::new();
                w.str(&doc);
                out.push(protocol::frame(op::METRICS_OK, &w.into_bytes()));
                false
            }
            op::PING if body.is_empty() => {
                out.push(protocol::frame(op::PONG, &[]));
                false
            }
            op::DRAIN if body.is_empty() => {
                self.initiate_drain();
                out.push(protocol::frame(op::DRAIN_OK, &[]));
                false
            }
            op::STATS if body.len() == 1 => match StatsFormat::from_u8(body[0]) {
                Some(fmt) => {
                    let doc = match fmt {
                        StatsFormat::Json => {
                            serde_json::to_string(&self.metrics_json()).unwrap_or_default()
                        }
                        StatsFormat::Prometheus => self.prometheus(),
                    };
                    let mut w = Writer::new();
                    w.str(&doc);
                    out.push(protocol::frame(op::STATS_OK, &w.into_bytes()));
                    false
                }
                None => {
                    self.metrics.malformed_frames.fetch_add(1, Ordering::AcqRel);
                    out.push(error_frame(0, ErrorCode::Malformed, "unknown stats format"));
                    true
                }
            },
            _ => {
                self.metrics.malformed_frames.fetch_add(1, Ordering::AcqRel);
                out.push(error_frame(
                    0,
                    ErrorCode::Malformed,
                    "unknown or malformed opcode",
                ));
                true
            }
        }
    }

    /// Write the batch.  Fault-free daemons concatenate into a single
    /// `write_all`; a scripted outbound fault forces per-frame writes so
    /// faults land on exact frame boundaries.  Returns `false` when the
    /// connection must close (write failure, slow client, or a fault
    /// that severs it).
    fn flush(
        &self,
        conn_id: u64,
        stream: &mut dyn Stream,
        out_frames: Vec<Vec<u8>>,
        out_frame_idx: &mut u64,
    ) -> bool {
        if out_frames.is_empty() {
            return true;
        }
        if self.faults.is_empty() {
            let total: usize = out_frames.iter().map(Vec::len).sum();
            let mut buf = Vec::with_capacity(total);
            for f in &out_frames {
                buf.extend_from_slice(f);
            }
            *out_frame_idx += out_frames.len() as u64;
            return stream.write_all(&buf).is_ok();
        }
        for mut f in out_frames {
            let idx = *out_frame_idx;
            *out_frame_idx += 1;
            match self.faults.outbound_fault(conn_id, idx) {
                None => {}
                Some(FrameFault::Drop) => return false,
                Some(FrameFault::Truncate(n)) => {
                    f.truncate(n);
                    let _ = stream.write_all(&f);
                    return false;
                }
                Some(FrameFault::Garble { offset, mask }) if !f.is_empty() => {
                    let i = offset % f.len();
                    f[i] ^= mask;
                }
                Some(FrameFault::Garble { .. }) => {}
                Some(FrameFault::Delay(d)) => std::thread::sleep(d),
            }
            if stream.write_all(&f).is_err() {
                return false;
            }
        }
        true
    }
}

/// Pop one complete frame (opcode + body, length prefix stripped) off the
/// input buffer.  `Ok(None)` means more bytes are needed; `Err` means the
/// length prefix itself is illegal and the connection is poisoned.
fn peel_frame(inbuf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, &'static str> {
    if inbuf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(inbuf[..4].try_into().expect("4 bytes checked"));
    if len == 0 {
        return Err("zero-length frame");
    }
    if len > MAX_FRAME {
        return Err("frame exceeds MAX_FRAME");
    }
    let total = 4 + len as usize;
    if inbuf.len() < total {
        return Ok(None);
    }
    let frame = inbuf[4..total].to_vec();
    inbuf.drain(..total);
    Ok(Some(frame))
}

/// Assemble one `ERROR` frame.
fn error_frame(req_id: u64, code: ErrorCode, message: &str) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(req_id);
    w.u8(code as u8);
    w.str(message);
    protocol::frame(op::ERROR, &w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peel_frame_respects_boundaries() {
        let mut buf = Vec::new();
        assert_eq!(peel_frame(&mut buf), Ok(None));
        buf.extend_from_slice(&protocol::frame(op::PING, &[]));
        buf.extend_from_slice(&protocol::frame(op::METRICS, &[]));
        assert_eq!(peel_frame(&mut buf), Ok(Some(vec![op::PING])));
        assert_eq!(peel_frame(&mut buf), Ok(Some(vec![op::METRICS])));
        assert_eq!(peel_frame(&mut buf), Ok(None));
    }

    #[test]
    fn peel_frame_rejects_illegal_lengths() {
        let mut zero = 0u32.to_le_bytes().to_vec();
        assert!(peel_frame(&mut zero).is_err());
        let mut huge = (MAX_FRAME + 1).to_le_bytes().to_vec();
        assert!(peel_frame(&mut huge).is_err());
    }

    #[test]
    fn peel_frame_waits_for_partial_frames() {
        let full = protocol::frame(op::PING, &[1, 2, 3]);
        for cut in 0..full.len() {
            let mut partial = full[..cut].to_vec();
            assert_eq!(peel_frame(&mut partial), Ok(None), "cut at {cut}");
        }
    }

    #[test]
    fn drain_report_counters_are_namespaced_and_collision_free() {
        let (cat, _q) = lec_core::fixtures::three_chain();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let tel = std::sync::Arc::new(lec_telemetry::Telemetry::on());
        let server = ConcurrentPlanServer::new(&cat, memory).with_telemetry(tel);
        let daemon = Daemon::new(&server, DaemonConfig::default());
        let counters = flatten_counters(&daemon.metrics_json());
        assert!(!counters.is_empty());
        let mut seen = std::collections::HashSet::new();
        for (key, value) in &counters {
            assert!(
                key.starts_with("service.") || key.starts_with("daemon."),
                "counter {key} is missing its layer namespace"
            );
            assert!(seen.insert(key.clone()), "counter key {key} collides");
            assert!(value.is_finite(), "counter {key} is not finite");
        }
        // The per-layer request counters that share short names stay
        // distinct under their namespaces.
        assert!(seen.contains("daemon.requests_ok"));
        assert!(seen.contains("service.cache.served"));
        assert!(seen.contains("service.telemetry.latency.served.count"));
    }

    #[test]
    fn prometheus_exposition_parses_line_by_line() {
        let (cat, q) = lec_core::fixtures::three_chain();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let tel = std::sync::Arc::new(lec_telemetry::Telemetry::on());
        let server = ConcurrentPlanServer::new(&cat, memory).with_telemetry(tel);
        server.serve(&q, &lec_core::Mode::AlgorithmC).unwrap();
        let daemon = Daemon::new(&server, DaemonConfig::default());
        let text = daemon.prometheus();
        let samples = lec_telemetry::parse_prometheus(&text).expect("exposition parses");
        assert!(samples.len() > 30);
        let fresh = samples
            .iter()
            .find(|s| s.name == "lec_service_cache_recomputed")
            .expect("service counter exposed");
        assert_eq!(fresh.value, 1.0);
    }

    #[test]
    fn gate_sheds_past_capacity_and_tracks_high_water() {
        let gate = Gate::new(2);
        assert!(gate.try_acquire());
        assert!(gate.try_acquire());
        assert!(!gate.try_acquire(), "third cold request is shed");
        assert_eq!(gate.depth(), 2);
        assert_eq!(gate.high_water(), 2);
        gate.release();
        assert!(gate.try_acquire(), "released slot is reusable");
        gate.release();
        gate.release();
        assert_eq!(gate.depth(), 0);
        assert_eq!(gate.high_water(), 2, "high water survives release");
    }
}
