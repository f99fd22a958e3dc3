//! The client: frame assembly, response parsing, request batching, and
//! retry with capped jittered exponential backoff.
//!
//! # Retry discipline
//!
//! Only *transient* wire errors ([`ErrorCode::is_transient`]) are retried:
//! `Overloaded` (the daemon shed the request) and `DeadlineExceeded` (the
//! answer came too late — a retry usually lands on the cache the
//! abandoned answer fed).  `WorkerPanicked` — the search serving the
//! request panicked — is **not** retried blindly: the same request may
//! kill the next search too, so it surfaces to the caller, who decides.  Deterministic optimizer errors
//! and malformed-frame rejections likewise surface immediately.

use crate::protocol::{self, op, DecodeError, ErrorCode, FrameBuf, Reader, Writer};
use crate::transport::Stream;
use lec_core::Mode;
use lec_plan::Query;
use lec_service::ServeResponse;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::time::Duration;

/// An error frame, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerError {
    pub code: ErrorCode,
    pub message: String,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server error {:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServerError {}

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (peer closed, timeout, reset).
    Io(io::Error),
    /// The daemon's bytes did not decode — a protocol bug or corruption.
    Decode(DecodeError),
    /// The daemon answered with an `ERROR` frame.
    Server(ServerError),
    /// The daemon answered with a frame the request doesn't expect.
    Protocol(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Decode(e) => write!(f, "decode error: {e}"),
            ClientError::Server(e) => write!(f, "{e}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Decode(e)
    }
}

impl ClientError {
    /// True when retrying the same request (with backoff) is sound.
    pub fn is_transient(&self) -> bool {
        matches!(self, ClientError::Server(e) if e.code.is_transient())
    }
}

/// Retries after the first attempt of [`Client::optimize`].
const MAX_RETRIES: u32 = 4;
/// Delay before the first retry, pre-jitter.
const BACKOFF_BASE: Duration = Duration::from_millis(5);
/// Ceiling on the pre-jitter delay.
const BACKOFF_CAP: Duration = Duration::from_millis(200);

/// The delay before retry number `attempt` (0-based):
/// `min(BACKOFF_BASE << attempt, BACKOFF_CAP)` scaled by a jitter uniform
/// in `[0.5, 1.0)`, so synchronized clients desynchronize instead of
/// re-stampeding the daemon in lockstep.  The four retries wait at least
/// 37.5 ms in all.
fn backoff_delay(attempt: u32, rng: &mut StdRng) -> Duration {
    let exp = BACKOFF_BASE
        .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
        .min(BACKOFF_CAP);
    let jitter = 0.5 + 0.5 * rng.gen::<f64>();
    exp.mul_f64(jitter)
}

/// A connection to one daemon.
pub struct Client {
    stream: Box<dyn Stream>,
    rng: StdRng,
    inbuf: FrameBuf,
    out: Writer,
}

impl Client {
    /// Wrap a connected stream, seeded for reproducible retry jitter.
    pub fn new(stream: Box<dyn Stream>, seed: u64) -> Self {
        Client {
            stream,
            rng: StdRng::seed_from_u64(seed),
            inbuf: FrameBuf::default(),
            out: Writer::new(),
        }
    }

    // -- wire plumbing ------------------------------------------------

    /// Write everything encoded onto `out` since the last send.
    fn send(&mut self) -> Result<(), ClientError> {
        let sent = self.stream.write_all(&self.out.buf);
        self.out.buf.clear();
        sent.map_err(ClientError::Io)
    }

    /// Read one complete frame (opcode + body), a slice of the input
    /// buffer.
    fn read_frame(&mut self) -> Result<&[u8], ClientError> {
        loop {
            if let Some(at) = self.inbuf.next_frame().map_err(ClientError::Protocol)? {
                return Ok(&self.inbuf.buf[at]);
            }
            if self.inbuf.fill(self.stream.as_mut())? == 0 {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                )));
            }
        }
    }

    fn encode_optimize(&mut self, req_id: u64, mode: &Mode, query: &Query) {
        let at = self.out.begin_frame(op::OPTIMIZE);
        self.out.u64(req_id);
        protocol::encode_mode(&mut self.out, mode);
        protocol::encode_query(&mut self.out, query);
        self.out.end_frame(at);
    }

    /// Split a reply frame, surfacing `ERROR` frames as
    /// [`ClientError::Server`] whatever opcode was expected.
    fn expect_opcode<'f>(
        frame: &'f [u8],
        want: u8,
        what: &'static str,
    ) -> Result<&'f [u8], ClientError> {
        let Some((&opcode, body)) = frame.split_first() else {
            return Err(ClientError::Protocol("empty frame from daemon"));
        };
        if opcode == op::ERROR {
            let mut r = Reader::new(body);
            let _req_id = r.u64()?;
            let code =
                ErrorCode::from_u8(r.u8()?).ok_or(ClientError::Protocol("unknown error code"))?;
            let message = r.str()?;
            r.finish()?;
            return Err(ClientError::Server(ServerError { code, message }));
        }
        if opcode != want {
            return Err(ClientError::Protocol(what));
        }
        Ok(body)
    }

    /// Read the reply to one optimize request.
    fn read_optimize_reply(&mut self) -> Result<(u64, ServeResponse), ClientError> {
        let frame = self.read_frame()?;
        let body = Self::expect_opcode(frame, op::OPTIMIZE_OK, "unexpected opcode for optimize")?;
        let mut r = Reader::new(body);
        let req_id = r.u64()?;
        let resp = protocol::decode_response(&mut r)?;
        r.finish()?;
        Ok((req_id, resp))
    }

    /// One control round trip: send `opcode` + `body`, return the body of
    /// the `want` reply.
    fn control(
        &mut self,
        opcode: u8,
        body: &[u8],
        want: u8,
        what: &'static str,
    ) -> Result<&[u8], ClientError> {
        let at = self.out.begin_frame(opcode);
        self.out.buf.extend_from_slice(body);
        self.out.end_frame(at);
        self.send()?;
        Self::expect_opcode(self.read_frame()?, want, what)
    }

    /// A control round trip whose request and reply both carry no body.
    fn control_ack(&mut self, opcode: u8, want: u8, what: &'static str) -> Result<(), ClientError> {
        if self.control(opcode, &[], want, what)?.is_empty() {
            Ok(())
        } else {
            Err(ClientError::Protocol("acknowledgement carries a body"))
        }
    }

    // -- requests -----------------------------------------------------

    /// One optimize round trip, no retry.
    pub fn optimize_once(
        &mut self,
        req_id: u64,
        mode: &Mode,
        query: &Query,
    ) -> Result<ServeResponse, ClientError> {
        self.encode_optimize(req_id, mode, query);
        self.send()?;
        let (id, resp) = self.read_optimize_reply()?;
        if id != req_id {
            return Err(ClientError::Protocol("response req_id mismatch"));
        }
        Ok(resp)
    }

    /// Optimize with retry: transient refusals retry after a jittered
    /// backoff, up to four times; everything else surfaces on the first
    /// attempt.
    pub fn optimize(
        &mut self,
        req_id: u64,
        mode: &Mode,
        query: &Query,
    ) -> Result<ServeResponse, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.optimize_once(req_id, mode, query) {
                Err(e) if e.is_transient() && attempt < MAX_RETRIES => {
                    std::thread::sleep(backoff_delay(attempt, &mut self.rng));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Pipeline a whole batch: all requests are encoded into one buffer
    /// and go out in **one** write, then all responses are read back in
    /// order.  This amortizes one syscall pair over the batch — the
    /// intended way to pump warm hits.  No retry: per-request outcomes
    /// (including refusals) map 1:1 into the returned vector.
    pub fn optimize_batch(
        &mut self,
        requests: &[(u64, Mode, Query)],
    ) -> Result<Vec<Result<ServeResponse, ServerError>>, ClientError> {
        for (req_id, mode, query) in requests {
            self.encode_optimize(*req_id, mode, query);
        }
        self.send()?;
        let mut out = Vec::with_capacity(requests.len());
        for (req_id, _, _) in requests {
            match self.read_optimize_reply() {
                Ok((id, resp)) => {
                    if id != *req_id {
                        return Err(ClientError::Protocol("batch response out of order"));
                    }
                    out.push(Ok(resp));
                }
                Err(ClientError::Server(e)) => out.push(Err(e)),
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Fetch the daemon's observability snapshot: the exact JSON document
    /// `Daemon::metrics_json` serializes in-process, so wire and local
    /// snapshots can be compared field for field.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let body = self.control(
            op::STATS,
            &[protocol::STATS_JSON],
            op::STATS_OK,
            "unexpected opcode for stats",
        )?;
        let mut r = Reader::new(body);
        let doc = r.str()?;
        r.finish()?;
        Ok(doc)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.control_ack(op::PING, op::PONG, "unexpected opcode for ping")
    }

    /// Ask the daemon to drain gracefully.
    pub fn drain(&mut self) -> Result<(), ClientError> {
        self.control_ack(op::DRAIN, op::DRAIN_OK, "unexpected opcode for drain")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let mut rng = StdRng::seed_from_u64(42);
        for attempt in 0..12 {
            let pre_jitter = BACKOFF_BASE
                .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
                .min(BACKOFF_CAP);
            let d = backoff_delay(attempt, &mut rng);
            assert!(
                d >= pre_jitter.mul_f64(0.5) && d <= pre_jitter,
                "attempt {attempt}: {d:?} outside [{:?}, {pre_jitter:?}]",
                pre_jitter.mul_f64(0.5),
            );
        }
        // Deep attempts are pinned to the cap (no overflow past u32 shifts).
        let deep = backoff_delay(40, &mut rng);
        assert!(deep <= BACKOFF_CAP && deep >= BACKOFF_CAP.mul_f64(0.5));
    }

    #[test]
    fn backoff_jitter_is_seeded_and_varies() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let da: Vec<_> = (0..4).map(|i| backoff_delay(i, &mut a)).collect();
        let db: Vec<_> = (0..4).map(|i| backoff_delay(i, &mut b)).collect();
        assert_eq!(da, db, "same seed, same schedule");
        let mut c = StdRng::seed_from_u64(8);
        let dc: Vec<_> = (0..4).map(|i| backoff_delay(i, &mut c)).collect();
        assert_ne!(da, dc, "different seed, different jitter");
    }

    #[test]
    fn transient_classification_matches_error_codes() {
        let overloaded = ClientError::Server(ServerError {
            code: ErrorCode::Overloaded,
            message: String::new(),
        });
        let deadline = ClientError::Server(ServerError {
            code: ErrorCode::DeadlineExceeded,
            message: String::new(),
        });
        let panicked = ClientError::Server(ServerError {
            code: ErrorCode::WorkerPanicked,
            message: String::new(),
        });
        assert!(overloaded.is_transient());
        assert!(deadline.is_transient());
        assert!(
            !panicked.is_transient(),
            "search panics are surfaced, not retried"
        );
        assert!(!ClientError::Protocol("x").is_transient());
        assert!(
            !ClientError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "eof")).is_transient()
        );
    }
}
