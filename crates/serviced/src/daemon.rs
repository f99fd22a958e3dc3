//! The daemon: accept loop, per-connection frame pump, admission control,
//! and graceful drain.
//!
//! # Threading model
//!
//! [`Daemon::run`] owns a `std::thread::scope`: one accept loop (the
//! calling thread) plus one handler thread per connection.  Handlers never
//! block indefinitely — reads use a 10 ms poll interval as a
//! timeout so the drain flag is observed within one interval, and writes
//! carry the slow-client write timeout.  `run` returns only after every
//! handler has exited, so the returned [`DrainReport`] is a complete
//! account of the daemon's lifetime.
//!
//! # Admission control
//!
//! Warm cache hits are practically free, so they are never gated.  Fresh
//! (cold) searches are the expensive resource: a bounded [`Gate`] of
//! `max_cold_backlog` slots fronts them, and a cold request that cannot
//! take a slot is shed with [`ErrorCode::Overloaded`] *immediately* —
//! under overload the daemon degrades to serving only what it already
//! knows, it never hangs.
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

use crate::protocol::{self, op, DecodeError, ErrorCode, FrameBuf, Reader, Writer};
use crate::transport::{is_timeout, AbortHandle, Listener, Stream};
use lec_plan::Query;
use lec_prob::Distribution;
use lec_service::{outcome_of, ConcurrentPlanServer, ServeCtx, ServeError, ServeHooks};
use lec_telemetry::{Stage, TraceCtx};
use serde_json::json;
use std::collections::HashMap;
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
    /// Per-request deadline, handed to the serving layer: an answer
    /// finished past it is `DeadlineExceeded`.  `None` disables it.
    pub request_deadline: Option<Duration>,
    /// Slow-client write timeout; a connection whose peer stops draining
    /// its socket is closed rather than allowed to wedge a handler.
    pub write_timeout: Option<Duration>,
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
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// How often blocked reads and accepts wake up to poll the drain flag.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// The daemon's counters, cheap to update from any handler thread.  All
/// are monotonic but two: `connections_active` is a gauge (the accept loop
/// bumps it and a handler decrements it when it returns), and
/// `drain_duration_ms` is stored once, when the drain ends.
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

/// Count one event.
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::AcqRel);
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
        let admitted = self
            .depth
            .fetch_update(Ordering::AcqRel, Ordering::Relaxed, |d| {
                (d < self.max).then_some(d + 1)
            });
        if let Ok(before) = admitted {
            self.high_water.fetch_max(before + 1, Ordering::Relaxed);
        }
        admitted.is_ok()
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
/// layer's admission points and hands the request's query to the search
/// hook.
struct RequestHooks<'d> {
    gate: &'d Gate,
    search_hook: &'d (dyn Fn(&Query) + Sync),
    query: &'d Query,
}

impl ServeHooks for RequestHooks<'_> {
    fn admit_cold(&self) -> bool {
        self.gate.try_acquire()
    }

    fn release_cold(&self) {
        self.gate.release()
    }

    fn before_search(&self) {
        (self.search_hook)(self.query)
    }
}

/// What [`Daemon::run`] hands back once the last connection closes.
#[derive(Debug)]
pub struct DrainReport {
    /// Wall time from drain initiation to the last handler exiting.
    pub drain_duration: Duration,
    /// Connections the watchdog had to force-close at the deadline.
    pub forced_aborts: u64,
    /// Final metrics snapshot (the document a wire `STATS` request with
    /// the JSON format byte returns).
    pub metrics: serde_json::Value,
}

/// A hardened front end over one [`ConcurrentPlanServer`].
pub struct Daemon<'s, 'c> {
    server: &'s ConcurrentPlanServer<'c>,
    config: DaemonConfig,
    /// Called with each query about to be searched
    /// ([`Daemon::with_search_hook`]).
    search_hook: Box<dyn Fn(&Query) + Sync + 's>,
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
            search_hook: Box::new(|_| {}),
            metrics: DaemonMetrics::default(),
            gate,
            drain: AtomicBool::new(false),
            drain_started: Mutex::new(None),
        }
    }

    /// Call `hook` with every query this daemon is about to search: after
    /// its cold slot is taken, before the search runs.  Tests sleep in it
    /// to hold a slot, or panic in it to kill the search (the request gets
    /// `WorkerPanicked`, as for a search's own panic).  The default does
    /// nothing.
    pub fn with_search_hook(mut self, hook: impl Fn(&Query) + Sync + 's) -> Self {
        self.search_hook = Box::new(hook);
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
    /// its full snapshot (latency quantiles, slow log)
    /// rides along under `service.telemetry` — this is
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

    /// Serve the listener until drained.  Blocks the calling thread; one
    /// handler thread per connection.  Returns after the last handler
    /// exits, with the final metrics inside the [`DrainReport`].
    pub fn run(&self, listener: &dyn Listener) -> DrainReport {
        // Abort handles of the open connections, by connection id.  A
        // socket's handle holds a clone of its descriptor, so each
        // handler drops its own when it returns: until then the peer
        // would not see the close.
        let abort_handles: Mutex<HashMap<u64, AbortHandle>> = Mutex::new(HashMap::new());

        let started = std::thread::scope(|scope| {
            let mut next_conn_id: u64 = 0;
            while !self.is_draining() {
                match listener.accept_timeout(POLL_INTERVAL) {
                    Ok(Some(stream)) => {
                        if self.is_draining() {
                            bump(&self.metrics.connections_rejected);
                            drop(stream);
                            break;
                        }
                        let conn_id = next_conn_id;
                        next_conn_id += 1;
                        bump(&self.metrics.connections_accepted);
                        bump(&self.metrics.connections_active);
                        let handles = &abort_handles;
                        handles
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .insert(conn_id, stream.abort_handle());
                        scope.spawn(move || {
                            self.handle_conn(stream);
                            handles
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .remove(&conn_id);
                        });
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
                    bump(&self.metrics.connections_rejected);
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
                        .values()
                    {
                        handle();
                    }
                    break;
                }
                std::thread::sleep(POLL_INTERVAL);
            }
            // Scope exit joins every handler (aborted connections unblock
            // promptly: their reads see EOF/errors).
            started
        });

        let drain_duration = started.elapsed();
        self.metrics
            .drain_duration_ms
            .store(drain_duration.as_millis() as u64, Ordering::Release);
        DrainReport {
            drain_duration,
            forced_aborts: self.metrics.forced_aborts(),
            metrics: self.metrics_json(),
        }
    }

    /// Pump one connection: read, answer every complete frame into one
    /// output buffer, write it once.  The connection owns one input
    /// buffer, one output [`Writer`] and one [`Query`] that every request
    /// decodes into, so a warm request allocates only its answer.
    fn handle_conn(&self, mut stream: Box<dyn Stream>) {
        struct ActiveGuard<'a>(&'a AtomicU64);
        impl Drop for ActiveGuard<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::AcqRel);
            }
        }
        let _active = ActiveGuard(&self.metrics.connections_active);

        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        let _ = stream.set_write_timeout(self.config.write_timeout);

        let mut inbuf = FrameBuf::default();
        let mut out = Writer::new();
        let (mut query, mut spares) = (Query::default(), Vec::new());

        loop {
            match inbuf.fill(stream.as_mut()) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if is_timeout(&e) => {
                    if self.is_draining() {
                        return;
                    }
                    continue;
                }
                Err(_) => return,
            }

            // Answer every complete frame the read delivered into one
            // buffer and send it with one write — this is the syscall
            // amortization that lets one connection pump thousands of
            // ~microsecond warm hits per second.
            out.buf.clear();
            // A poisoned connection still flushes what it owes (the error
            // frame is among it), then closes.
            let mut poisoned = false;
            while !poisoned {
                let frame = match inbuf.next_frame() {
                    Ok(Some(at)) => &inbuf.buf[at],
                    Ok(None) => break,
                    Err(what) => {
                        poisoned = self.malformed(&mut out, what);
                        break;
                    }
                };
                poisoned = self.dispatch(frame, &mut out, &mut query, &mut spares);
            }

            // One write per batch; a failure (or a slow client's write
            // timeout) closes the connection.
            let flushed = stream.write_all(&out.buf).is_ok();
            if !flushed || poisoned || self.is_draining() {
                return;
            }
        }
    }

    /// Count a malformed frame and answer it; returns `true`, the
    /// poison verdict of [`Daemon::dispatch`].
    fn malformed(&self, out: &mut Writer, what: &str) -> bool {
        bump(&self.metrics.malformed_frames);
        error_frame(out, 0, ErrorCode::Malformed, what);
        true
    }

    /// Process one frame (opcode + body), decoding an `OPTIMIZE` request
    /// into the connection's `query` and its `spares` distributions.  Encodes any response frames onto
    /// `out`; returns `true` when the connection must be poisoned (the
    /// error frame is already encoded).
    fn dispatch(
        &self,
        frame: &[u8],
        out: &mut Writer,
        query: &mut Query,
        spares: &mut Vec<Distribution>,
    ) -> bool {
        let Some((&opcode, body)) = frame.split_first() else {
            return self.malformed(out, "empty frame");
        };
        match opcode {
            op::OPTIMIZE => {
                // With telemetry installed the trace clock starts before
                // the frame is decoded; the request id arrives mid-decode,
                // so the context is built retroactively on that epoch
                // (`TraceCtx::starting_at`).  Without telemetry no clock
                // is read.
                let tel = self.server.telemetry();
                let decode_start = tel.map(|_| Instant::now());
                let mut r = Reader::new(body);
                let parsed = (|| {
                    let req_id = r.u64()?;
                    let mode = protocol::decode_mode(&mut r)?;
                    protocol::decode_query_into(&mut r, query, spares)?;
                    r.finish()?;
                    Ok::<_, DecodeError>((req_id, mode))
                })();
                let (req_id, mode) = match parsed {
                    Ok(parts) => parts,
                    Err(e) => return self.malformed(out, &e.to_string()),
                };
                let mut trace = match decode_start {
                    Some(epoch) => TraceCtx::starting_at(req_id, epoch),
                    None => TraceCtx::disabled(),
                };
                // Decode span: epoch to now, detail = frame body bytes.
                trace.span(Stage::Decode, 0, body.len() as u64);

                let deadline = self.config.request_deadline.map(|d| Instant::now() + d);
                let hooks = RequestHooks {
                    gate: &self.gate,
                    search_hook: &*self.search_hook,
                    query,
                };
                // A search is a plain call on this handler thread, so a
                // panic in it unwinds to here and fails only this
                // request, as WorkerPanicked.
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let ctx = ServeCtx {
                        hooks: &hooks,
                        deadline,
                        trace: &mut trace,
                    };
                    self.server.serve_with(query, &mode, ctx)
                }))
                .unwrap_or(Err(ServeError::WorkerPanicked));

                match &result {
                    Ok(resp) => {
                        bump(&self.metrics.requests_ok);
                        // Flush span: response encode, detail = encoded
                        // body bytes.  (The socket write itself is batched
                        // across requests after dispatch.)
                        let flush_start = trace.now_ns();
                        let at = out.begin_frame(op::OPTIMIZE_OK);
                        let body_at = out.buf.len();
                        out.u64(req_id);
                        protocol::encode_response(out, resp);
                        let body_len = (out.buf.len() - body_at) as u64;
                        out.end_frame(at);
                        trace.span(Stage::Flush, flush_start, body_len);
                    }
                    Err(e) => {
                        bump(&self.metrics.requests_err);
                        match e {
                            ServeError::Overloaded => bump(&self.metrics.shed_requests),
                            ServeError::DeadlineExceeded => {
                                bump(&self.metrics.deadline_expirations)
                            }
                            ServeError::Opt(_) | ServeError::WorkerPanicked => {}
                        }
                        error_frame(out, req_id, ErrorCode::from_serve_error(e), &e.to_string());
                    }
                }
                if let Some(t) = tel {
                    t.finish_request(&trace, outcome_of(&result));
                }
                false
            }
            op::PING if body.is_empty() => {
                let at = out.begin_frame(op::PONG);
                out.end_frame(at);
                false
            }
            op::DRAIN if body.is_empty() => {
                self.initiate_drain();
                let at = out.begin_frame(op::DRAIN_OK);
                out.end_frame(at);
                false
            }
            op::STATS if body == [protocol::STATS_JSON] => {
                let doc = serde_json::to_string(&self.metrics_json()).unwrap_or_default();
                let at = out.begin_frame(op::STATS_OK);
                out.str(&doc);
                out.end_frame(at);
                false
            }
            _ => self.malformed(out, "unknown or malformed opcode"),
        }
    }
}

/// Encode one `ERROR` frame onto `out`.
fn error_frame(out: &mut Writer, req_id: u64, code: ErrorCode, message: &str) {
    let at = out.begin_frame(op::ERROR);
    out.u64(req_id);
    out.u8(code as u8);
    out.str(message);
    out.end_frame(at);
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn drain_report_counters_are_namespaced_and_collision_free() {
        let (cat, _q) = lec_core::fixtures::three_chain();
        let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
        let tel = std::sync::Arc::new(lec_telemetry::Telemetry::on());
        let server = ConcurrentPlanServer::new(&cat, memory).with_telemetry(tel);
        let daemon = Daemon::new(&server, DaemonConfig::default());
        let doc = daemon.metrics_json();
        let Value::Object(layers) = &doc else {
            panic!("the metrics document is an object: {doc}");
        };
        let names: Vec<&str> = layers.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["daemon", "service"], "one namespace per layer");
        fn assert_finite(path: &str, v: &Value) {
            match v {
                Value::Object(pairs) => {
                    for (k, v) in pairs {
                        assert_finite(&format!("{path}.{k}"), v);
                    }
                }
                Value::Array(items) => items.iter().for_each(|v| assert_finite(path, v)),
                Value::Number(x) => assert!(x.is_finite(), "counter {path} is not finite"),
                _ => {}
            }
        }
        assert_finite("", &doc);
        // Counters that share a short name are read under their layer.
        assert_eq!(doc["daemon"]["requests_ok"].as_f64(), Some(0.0));
        assert_eq!(doc["service"]["cache"]["served"].as_f64(), Some(0.0));
        assert_eq!(
            doc["service"]["telemetry"]["latency"]["served"]["count"].as_f64(),
            Some(0.0)
        );
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
