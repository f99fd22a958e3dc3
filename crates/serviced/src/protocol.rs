//! The wire protocol: length-prefixed binary frames and the bounds-checked
//! codec for every request and response type.
//!
//! # Frame layout
//!
//! ```text
//! +----------------+-----------+------------------+
//! | len: u32 LE    | op: u8    | body: len-1 bytes|
//! +----------------+-----------+------------------+
//! ```
//!
//! `len` counts the opcode byte plus the body (so `len >= 1`), and is
//! capped at [`MAX_FRAME`]; a peer announcing a larger frame is malformed
//! by definition and its connection is poisoned without reading the rest.
//!
//! # Encoding primitives
//!
//! Everything is little-endian and self-delimiting: `u64` for counts and
//! indices, `f64` transported as its IEEE-754 bit pattern (`to_bits`),
//! strings and vectors length-prefixed with `u32`.  Probability
//! distributions are decoded with [`Distribution::from_parts_exact`] —
//! validation without renormalization — so a query round-trips the wire
//! **bit-exactly**: this is what extends the serving stack's byte-identity
//! bar across the socket.
//!
//! # Decoder discipline
//!
//! The decoder never trusts a length it read from the wire: every take is
//! bounds-checked against the remaining buffer, element counts are capped
//! ([`MAX_ELEMS`]) before any allocation, plan trees are depth-limited
//! ([`MAX_PLAN_DEPTH`]), and a frame with trailing bytes is rejected.  A
//! malformed frame therefore yields a clean [`DecodeError`] — never a
//! panic, an OOM, or a hang — which the daemon answers with
//! [`ErrorCode::Malformed`] before poisoning exactly that connection.
//!
//! # One query per connection
//!
//! [`decode_query_into`] is the one query decoder ([`decode_query`] runs it
//! on a fresh query).  The daemon keeps one [`Query`] per connection and
//! decodes every request into it: the table and join vectors and the
//! distributions' buffers are reused, and a distribution a request drops
//! (a filter gone, a join list shorter) waits in the connection's spares
//! for the next filter or join that needs one, so a request no larger than
//! an earlier one decodes without allocating, wherever its filters are.  A
//! distribution is refilled by [`Distribution::assign_parts_exact`], which
//! checks the parts before it writes, so a rejected frame leaves only
//! valid distributions behind.

use crate::transport::Stream;
use lec_catalog::TableId;
use lec_core::{AlgDConfig, Mode, PointEstimate, SearchStats};
use lec_plan::{
    ColumnRef, JoinMethod, JoinPredicate, LocalPredicate, NodeRef, PlanNode, Query, QueryTable,
    Step, TableSet,
};
use lec_prob::{Distribution, MarkovChain, Rebucket};
use lec_service::{CacheDecision, ServeError};
use std::io;
use std::ops::Range;
use std::time::Duration;

/// Hard cap on one frame's payload (opcode + body).  Far above any real
/// request (a 64-table query with 16-bucket distributions is a few tens
/// of kilobytes) and far below anything that could pressure memory.
pub const MAX_FRAME: u32 = 1 << 20;

/// Cap on any single length-prefixed collection in a frame.
pub const MAX_ELEMS: usize = 1 << 16;

/// Cap on plan-tree nesting accepted by the decoder.
pub const MAX_PLAN_DEPTH: usize = 256;

/// Request opcodes (client → daemon).
pub mod op {
    /// Optimize one query: `req_id: u64`, then [`super::encode_mode`],
    /// then [`super::encode_query`].
    pub const OPTIMIZE: u8 = 0x01;
    // 0x02 named `METRICS`, which returned the document `STATS` returns;
    // it is retired, not reused, and a peer still sending it is answered
    // like any unknown opcode.
    /// Liveness probe.  Empty body.
    pub const PING: u8 = 0x03;
    /// Initiate graceful drain.  Empty body.
    pub const DRAIN: u8 = 0x04;
    /// Fetch the full observability snapshot.  Empty body; the answer is
    /// the document the daemon's in-process `metrics_json` serializes.
    pub const STATS: u8 = 0x05;

    /// Successful optimize response: `req_id: u64`, then
    /// [`super::encode_response`].
    pub const OPTIMIZE_OK: u8 = 0x81;
    /// Error response: `req_id: u64`, `code: u8`, `message: String`.
    pub const ERROR: u8 = 0x82;
    // 0x83 named `METRICS_OK`; retired with 0x02.
    /// Ping response.  Empty body.
    pub const PONG: u8 = 0x84;
    /// Drain acknowledged; the daemon finishes in-flight work and exits.
    pub const DRAIN_OK: u8 = 0x85;
    /// Stats response: the JSON document as one string.
    pub const STATS_OK: u8 = 0x86;
}

/// Stable wire codes for everything that can go wrong serving a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control shed the request.  Transient: retry with backoff.
    Overloaded = 1,
    /// The request's deadline expired.  Transient: a retry usually hits
    /// the cache the abandoned search fed.
    DeadlineExceeded = 2,
    /// The search serving this request panicked.  **Not** blindly
    /// retryable — surface it; the same request may kill the next search
    /// too.
    WorkerPanicked = 3,
    /// The optimizer rejected the request (bad query, bad parameter, no
    /// plan).  Deterministic: retrying the same bytes returns the same
    /// code.
    Opt = 4,
    /// The frame could not be decoded; the daemon poisons this connection
    /// after sending the code.
    Malformed = 5,
}

impl ErrorCode {
    /// Decode a wire byte.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::DeadlineExceeded,
            3 => ErrorCode::WorkerPanicked,
            4 => ErrorCode::Opt,
            5 => ErrorCode::Malformed,
            _ => return None,
        })
    }

    /// True for errors a client may retry blindly (with backoff).
    pub fn is_transient(&self) -> bool {
        matches!(self, ErrorCode::Overloaded | ErrorCode::DeadlineExceeded)
    }

    /// Classify a [`ServeError`] into its wire code.
    pub fn from_serve_error(e: &ServeError) -> ErrorCode {
        match e {
            ServeError::Overloaded => ErrorCode::Overloaded,
            ServeError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            ServeError::WorkerPanicked => ErrorCode::WorkerPanicked,
            ServeError::Opt(_) => ErrorCode::Opt,
        }
    }
}

/// Why a frame failed to decode.  Deliberately coarse — the message is for
/// operators; the machine-readable signal is "this connection is poisoned".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the announced data did.
    Truncated,
    /// A tag, index, or flag byte had no defined meaning.
    BadTag(&'static str),
    /// A length prefix exceeded its cap, or a value violated a documented
    /// invariant (e.g. a distribution failing validation).
    BadValue(&'static str),
    /// The frame decoded fully but bytes remained.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame truncated"),
            DecodeError::BadTag(what) => write!(f, "bad tag for {what}"),
            DecodeError::BadValue(what) => write!(f, "bad value: {what}"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after frame"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Append-only builder of frame bodies and, with [`Writer::begin_frame`] /
/// [`Writer::end_frame`], of whole frames in place: one `Writer` holds a
/// connection's outgoing batch.
#[derive(Debug, Default)]
pub struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Start a frame where the buffer ends: four bytes held for the length
    /// prefix, then the opcode.  The body is whatever is written before
    /// [`Writer::end_frame`] is given the returned position.
    pub fn begin_frame(&mut self, opcode: u8) -> usize {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0, 0, 0, 0, opcode]);
        at
    }

    /// Patch the length prefix of the frame begun at `at` — the only place
    /// a prefix is written.
    pub fn end_frame(&mut self, at: usize) {
        let len = self.buf.len() - at - 4;
        assert!(len <= MAX_FRAME as usize, "frame exceeds MAX_FRAME");
        self.buf[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.f64(v);
        }
        self
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Bounds-checked cursor over one frame body.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the whole frame was consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` that must fit a `usize` and stay under [`MAX_ELEMS`].
    pub fn count(&mut self) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        if n > MAX_ELEMS as u64 {
            return Err(DecodeError::BadValue("count exceeds MAX_ELEMS"));
        }
        Ok(n as usize)
    }

    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        if n > MAX_ELEMS {
            return Err(DecodeError::BadValue("string exceeds MAX_ELEMS"));
        }
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadValue("string not UTF-8"))
    }

    pub fn f64s(&mut self) -> Result<Vec<f64>, DecodeError> {
        Ok(self.f64_parts()?.collect())
    }

    /// A length-prefixed `f64` vector read in place: the values decode as
    /// the iterator walks the frame's bytes, and nothing is allocated.
    pub(crate) fn f64_parts(
        &mut self,
    ) -> Result<impl ExactSizeIterator<Item = f64> + Clone + 'a, DecodeError> {
        let n = self.u32()? as usize;
        if n > MAX_ELEMS {
            return Err(DecodeError::BadValue("vector exceeds MAX_ELEMS"));
        }
        // `take` bounds any allocation: n f64s must actually be present.
        let bytes = self.take(n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunks")))))
    }
}

// ---------------------------------------------------------------------
// Distributions (bit-exact round trip)
// ---------------------------------------------------------------------

pub fn encode_dist(w: &mut Writer, d: &Distribution) {
    w.f64s(d.support());
    w.f64s(d.probs());
}

pub fn decode_dist(r: &mut Reader) -> Result<Distribution, DecodeError> {
    let (support, probs) = (r.f64_parts()?, r.f64_parts()?);
    Distribution::from_parts_exact(support.collect(), probs.collect()).map_err(invalid_dist)
}

/// [`decode_dist`] into `d`, reusing its buffers.  A rejected distribution
/// leaves `d` as it was.
fn decode_dist_into(r: &mut Reader, d: &mut Distribution) -> Result<(), DecodeError> {
    let (support, probs) = (r.f64_parts()?, r.f64_parts()?);
    d.assign_parts_exact(support, probs).map_err(invalid_dist)
}

fn invalid_dist(_: lec_prob::ProbError) -> DecodeError {
    DecodeError::BadValue("invalid distribution parts")
}

// ---------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------

fn encode_column_ref(w: &mut Writer, c: &ColumnRef) {
    w.u64(c.table as u64);
    w.u64(c.column as u64);
}

fn decode_column_ref(r: &mut Reader) -> Result<ColumnRef, DecodeError> {
    let table = r.count()?;
    let column = r.count()?;
    Ok(ColumnRef { table, column })
}

pub fn encode_query(w: &mut Writer, q: &Query) {
    w.u64(q.tables.len() as u64);
    for t in &q.tables {
        w.u64(t.table.0 as u64);
        match &t.filter {
            None => {
                w.u8(0);
            }
            Some(f) => {
                w.u8(1);
                w.u64(f.column as u64);
                encode_dist(w, &f.selectivity);
            }
        }
    }
    w.u64(q.joins.len() as u64);
    for j in &q.joins {
        encode_column_ref(w, &j.left);
        encode_column_ref(w, &j.right);
        encode_dist(w, &j.selectivity);
    }
    match &q.required_order {
        None => {
            w.u8(0);
        }
        Some(c) => {
            w.u8(1);
            encode_column_ref(w, c);
        }
    }
}

/// [`decode_query_into`] a fresh query (its spares are never needed).
pub fn decode_query(r: &mut Reader) -> Result<Query, DecodeError> {
    let mut query = Query::default();
    decode_query_parts(r, &mut query, &mut Vec::new())?;
    Ok(query)
}

/// [`decode_dist`] into one of `spares` when there is one; a rejected
/// distribution leaves the spare among them.
fn decode_spare(
    r: &mut Reader,
    spares: &mut Vec<Distribution>,
) -> Result<Distribution, DecodeError> {
    let Some(mut d) = spares.pop() else {
        return decode_dist(r);
    };
    match decode_dist_into(r, &mut d) {
        Ok(()) => Ok(d),
        Err(e) => {
            spares.push(d);
            Err(e)
        }
    }
}

/// Decode a query into `q`, the one query decoder.  It reuses `q`'s
/// vectors and the buffers of the distributions already in place; a
/// distribution the query no longer needs goes to `spares`, and one it
/// newly needs comes from there, so a query no larger than those decoded
/// before decodes without allocating.  On an error `q` holds parts of
/// both queries, but every distribution in it and in `spares` is valid.
pub fn decode_query_into(
    r: &mut Reader,
    q: &mut Query,
    spares: &mut Vec<Distribution>,
) -> Result<(), DecodeError> {
    decode_query_parts(r, q, spares)?;
    // Room for every distribution `q` holds: a later query drops them
    // into the spares without growing them.
    let filters = q.tables.iter().filter(|t| t.filter.is_some()).count();
    spares.reserve(filters + q.joins.len());
    Ok(())
}

/// [`decode_query_into`] but for its spares' room.
fn decode_query_parts(
    r: &mut Reader,
    q: &mut Query,
    spares: &mut Vec<Distribution>,
) -> Result<(), DecodeError> {
    let n_tables = r.count()?;
    let dropped = q.tables.drain(n_tables.min(q.tables.len())..);
    spares.extend(dropped.filter_map(|t| Some(t.filter?.selectivity)));
    q.tables.reserve_exact(n_tables - q.tables.len());
    for i in 0..n_tables {
        let id = r.u64()?;
        if id > u32::MAX as u64 {
            return Err(DecodeError::BadValue("table id exceeds u32"));
        }
        let table = TableId(id as u32);
        let column = match r.u8()? {
            0 => None,
            1 => Some(r.count()?),
            _ => return Err(DecodeError::BadTag("filter option")),
        };
        if i == q.tables.len() {
            q.tables.push(QueryTable::bare(table));
        }
        let slot = &mut q.tables[i];
        slot.table = table;
        match (column, &mut slot.filter) {
            (None, filter) => spares.extend(filter.take().map(|f| f.selectivity)),
            (Some(column), Some(f)) => {
                f.column = column;
                decode_dist_into(r, &mut f.selectivity)?;
            }
            (Some(column), filter @ None) => {
                let selectivity = decode_spare(r, spares)?;
                *filter = Some(LocalPredicate {
                    column,
                    selectivity,
                });
            }
        }
    }
    let n_joins = r.count()?;
    let dropped = q.joins.drain(n_joins.min(q.joins.len())..);
    spares.extend(dropped.map(|j| j.selectivity));
    q.joins.reserve_exact(n_joins - q.joins.len());
    for i in 0..n_joins {
        let left = decode_column_ref(r)?;
        let right = decode_column_ref(r)?;
        match q.joins.get_mut(i) {
            Some(j) => {
                (j.left, j.right) = (left, right);
                decode_dist_into(r, &mut j.selectivity)?;
            }
            None => {
                let selectivity = decode_spare(r, spares)?;
                q.joins.push(JoinPredicate {
                    left,
                    right,
                    selectivity,
                });
            }
        }
    }
    q.required_order = match r.u8()? {
        0 => None,
        1 => Some(decode_column_ref(r)?),
        _ => return Err(DecodeError::BadTag("required_order option")),
    };
    Ok(())
}

// ---------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------

/// Mode tags match the fingerprint tags in `lec_core::optimizer`.  Tags 9
/// and 10 named the randomized searches; they are retired, not reused.
pub fn encode_mode(w: &mut Writer, m: &Mode) {
    match m {
        Mode::Lsc(PointEstimate::Mean) => {
            w.u8(0);
        }
        Mode::Lsc(PointEstimate::Mode) => {
            w.u8(1);
        }
        Mode::LscAt(v) => {
            w.u8(2);
            w.f64(*v);
        }
        Mode::AlgorithmA => {
            w.u8(3);
        }
        Mode::AlgorithmB { c } => {
            w.u8(4);
            w.u64(*c as u64);
        }
        Mode::AlgorithmC => {
            w.u8(5);
        }
        Mode::AlgorithmCDynamic { chain } => {
            w.u8(6);
            w.f64s(chain.states());
            for i in 0..chain.n_states() {
                w.f64s(chain.row(i));
            }
        }
        Mode::AlgorithmD { config } => {
            w.u8(7);
            w.u64(config.max_buckets as u64);
            w.u8(match config.rebucket {
                Rebucket::EqualWidth => 0,
                Rebucket::EqualDepth => 1,
            });
            w.u8(config.cube_root_inputs as u8);
        }
        Mode::Bushy => {
            w.u8(8);
        }
    }
}

pub fn decode_mode(r: &mut Reader) -> Result<Mode, DecodeError> {
    Ok(match r.u8()? {
        0 => Mode::Lsc(PointEstimate::Mean),
        1 => Mode::Lsc(PointEstimate::Mode),
        2 => Mode::LscAt(r.f64()?),
        3 => Mode::AlgorithmA,
        4 => Mode::AlgorithmB { c: r.count()? },
        5 => Mode::AlgorithmC,
        6 => {
            let states = r.f64s()?;
            let mut rows = Vec::with_capacity(states.len());
            for _ in 0..states.len() {
                rows.push(r.f64s()?);
            }
            let chain = MarkovChain::new(states, rows)
                .map_err(|_| DecodeError::BadValue("invalid Markov chain"))?;
            Mode::AlgorithmCDynamic { chain }
        }
        7 => {
            let max_buckets = r.count()?;
            let rebucket = match r.u8()? {
                0 => Rebucket::EqualWidth,
                1 => Rebucket::EqualDepth,
                _ => return Err(DecodeError::BadTag("rebucket strategy")),
            };
            let cube_root_inputs = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(DecodeError::BadTag("cube_root_inputs flag")),
            };
            Mode::AlgorithmD {
                config: AlgDConfig {
                    max_buckets,
                    rebucket,
                    cube_root_inputs,
                },
            }
        }
        8 => Mode::Bushy,
        _ => return Err(DecodeError::BadTag("mode")),
    })
}

// ---------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------

/// A plan in preorder: a node's tag and fields, then its inputs, outer
/// before inner.
pub fn encode_plan(w: &mut Writer, p: &PlanNode) {
    encode_node(w, p.root());
}

fn encode_node(w: &mut Writer, node: NodeRef<'_>) {
    match node.node() {
        Step::SeqScan(table) => {
            w.u8(0);
            w.u64(table as u64);
        }
        Step::IndexScan(table) => {
            w.u8(1);
            w.u64(table as u64);
        }
        Step::Sort(input, key) => {
            w.u8(2);
            encode_column_ref(w, &key);
            encode_node(w, input);
        }
        Step::Join(method, outer, inner) => {
            w.u8(3);
            // A method's code is its position in `JoinMethod::ALL`, which
            // is its declaration order.
            w.u8(method as u8);
            encode_node(w, outer);
            encode_node(w, inner);
        }
    }
}

/// A plan node [`decode_plan`] has read, waiting for its inputs.
enum Pending {
    Sort(ColumnRef),
    /// A join, and its outer input's step once that is read.
    Join(JoinMethod, Option<u32>),
}

/// The plan [`encode_plan`] wrote, its preorder read into postorder steps
/// with an explicit stack of the nodes still waiting for an input.
///
/// Both vectors are sized once, from the bytes left: a node takes at
/// least 2 bytes and a plan of scans and joins more than 5 bytes a node, so
/// `remaining / 5 + 1` slots hold a valid plan.  The size is capped at
/// `2 * TableSet::MAX_TABLES`, the most a valid plan's scans and joins
/// number, so a hostile frame reserves no more than a real plan would.
pub fn decode_plan(r: &mut Reader) -> Result<PlanNode, DecodeError> {
    let nodes = (r.remaining() / 5 + 1).min(2 * TableSet::MAX_TABLES);
    let (mut steps, mut pending) = (Vec::with_capacity(nodes), Vec::with_capacity(nodes));
    loop {
        // The node about to be read has every pending node above it.
        if pending.len() > MAX_PLAN_DEPTH {
            return Err(DecodeError::BadValue("plan tree too deep"));
        }
        let mut step = match r.u8()? {
            0 => Step::SeqScan(r.count()?),
            1 => Step::IndexScan(r.count()?),
            2 => {
                pending.push(Pending::Sort(decode_column_ref(r)?));
                continue;
            }
            3 => {
                let method = JoinMethod::ALL.get(r.u8()? as usize);
                let method = *method.ok_or(DecodeError::BadTag("join method"))?;
                pending.push(Pending::Join(method, None));
                continue;
            }
            _ => return Err(DecodeError::BadTag("plan node")),
        };
        // A subtree is complete: hand it to the node waiting on it.
        loop {
            steps.push(step);
            let done = steps.len() as u32 - 1;
            step = match pending.last_mut() {
                None => return Ok(PlanNode::from_postorder(steps)),
                Some(Pending::Join(_, outer @ None)) => {
                    *outer = Some(done);
                    break;
                }
                Some(&mut Pending::Join(method, Some(outer))) => Step::Join(method, outer, done),
                Some(&mut Pending::Sort(key)) => Step::Sort(done, key),
            };
            pending.pop();
        }
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// The four counters a search sets; the `SearchStats` shims the frozen
/// ledger still reads (`cache_hits`, `memo_*`, the pruning counters) are
/// always 0, so they stay off the wire and decode as 0.
fn encode_stats(w: &mut Writer, s: &SearchStats) {
    w.u64(s.nodes as u64);
    w.u64(s.candidates);
    w.u64(s.evals);
    w.u64(s.elapsed.as_nanos() as u64);
}

fn decode_stats(r: &mut Reader) -> Result<SearchStats, DecodeError> {
    Ok(SearchStats {
        nodes: r.count()?,
        candidates: r.u64()?,
        evals: r.u64()?,
        elapsed: Duration::from_nanos(r.u64()?),
        ..SearchStats::default()
    })
}

/// Wire tag of a cache decision.  Tags 1 and 2 named the coalesced and
/// the weak-key revalidation decisions, which no longer exist; they are
/// retired, not reused, so the other tags keep their numbers.
fn decision_index(d: CacheDecision) -> u8 {
    match d {
        CacheDecision::Served => 0,
        CacheDecision::Recomputed => 3,
        CacheDecision::Uncacheable => 4,
    }
}

pub fn encode_response(w: &mut Writer, resp: &lec_service::ServeResponse) {
    encode_plan(w, &resp.plan);
    w.f64(resp.cost);
    w.u8(decision_index(resp.decision));
    encode_stats(w, &resp.stats);
}

pub fn decode_response(r: &mut Reader) -> Result<lec_service::ServeResponse, DecodeError> {
    let plan = decode_plan(r)?;
    let cost = r.f64()?;
    let decision = match r.u8()? {
        0 => CacheDecision::Served,
        3 => CacheDecision::Recomputed,
        4 => CacheDecision::Uncacheable,
        _ => return Err(DecodeError::BadTag("cache decision")),
    };
    let stats = decode_stats(r)?;
    Ok(lec_service::ServeResponse {
        plan,
        cost,
        stats,
        decision,
    })
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// Assemble a complete frame (length prefix + opcode + body).
pub fn frame(opcode: u8, body: &[u8]) -> Vec<u8> {
    let mut w = Writer {
        buf: Vec::with_capacity(5 + body.len()),
    };
    let at = w.begin_frame(opcode);
    w.buf.extend_from_slice(body);
    w.end_frame(at);
    w.buf
}

/// Split the first frame off `buf`: its opcode and body as a slice of
/// `buf`, and the bytes it occupies with its prefix — the only place a
/// prefix is read.  `Ok(None)` means more bytes are needed; `Err` means
/// the prefix itself is illegal (zero, or past [`MAX_FRAME`]), which is
/// decided from the prefix alone and poisons the connection.
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, &'static str> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix);
    if len == 0 {
        return Err("zero-length frame");
    }
    if len > MAX_FRAME {
        return Err("frame exceeds MAX_FRAME");
    }
    let total = 4 + len as usize;
    Ok(buf.get(4..total).map(|frame| (frame, total)))
}

/// Bytes asked of the stream per read.
const READ_CHUNK: usize = 16 * 1024;

/// A connection's input: one buffer that reads land in and frames are
/// slices of, with a cursor past the frames already handed out.
#[derive(Debug, Default)]
pub(crate) struct FrameBuf {
    pub(crate) buf: Vec<u8>,
    /// `buf[start..end]` is received and not yet handed out.
    start: usize,
    end: usize,
}

impl FrameBuf {
    /// Drop what was handed out, then read once into the room behind the
    /// rest.  Returns the stream's count (`0` = peer closed).
    pub(crate) fn fill(&mut self, stream: &mut dyn Stream) -> io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.end + READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        let n = stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Where in `buf` the next complete frame (opcode + body) lies, if one
    /// has arrived; the cursor moves past it.
    pub(crate) fn next_frame(&mut self) -> Result<Option<Range<usize>>, &'static str> {
        let Some((frame, used)) = split_frame(&self.buf[self.start..self.end])? else {
            return Ok(None);
        };
        let len = frame.len();
        self.start += used;
        Ok(Some(self.start - len..self.start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_core::fixtures;

    fn roundtrip_query(q: &Query) -> Query {
        let mut w = Writer::new();
        encode_query(&mut w, q);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let out = decode_query(&mut r).unwrap();
        r.finish().unwrap();
        out
    }

    fn dist_bits(d: &Distribution) -> (Vec<u64>, Vec<u64>) {
        (
            d.support().iter().map(|v| v.to_bits()).collect(),
            d.probs().iter().map(|v| v.to_bits()).collect(),
        )
    }

    #[test]
    fn queries_roundtrip_bit_exactly() {
        let (_cat, q) = fixtures::three_chain();
        let rt = roundtrip_query(&q);
        assert_eq!(rt.tables.len(), q.tables.len());
        assert_eq!(rt.joins.len(), q.joins.len());
        for (a, b) in q.joins.iter().zip(&rt.joins) {
            assert_eq!(a.left, b.left);
            assert_eq!(a.right, b.right);
            assert_eq!(dist_bits(&a.selectivity), dist_bits(&b.selectivity));
        }
        for (a, b) in q.tables.iter().zip(&rt.tables) {
            assert_eq!(a.table, b.table);
            match (&a.filter, &b.filter) {
                (None, None) => {}
                (Some(fa), Some(fb)) => {
                    assert_eq!(fa.column, fb.column);
                    assert_eq!(dist_bits(&fa.selectivity), dist_bits(&fb.selectivity));
                }
                _ => panic!("filter option mismatch"),
            }
        }
        assert_eq!(rt.required_order, q.required_order);
    }

    fn encoded(q: &Query) -> Vec<u8> {
        let mut w = Writer::new();
        encode_query(&mut w, q);
        w.into_bytes()
    }

    /// One buffer decodes a run of queries whose tables and joins grow and
    /// shrink, whose filters come and go and whose bucket counts change:
    /// each result is the fresh decoder's, every distribution bit for bit.
    #[test]
    fn a_reused_query_decodes_as_a_fresh_one() {
        use lec_plan::{QueryProfile, Topology, WorkloadGenerator};
        let mut g = lec_catalog::CatalogGenerator::new(7);
        let catalog = g.generate(16);
        let mut wg = WorkloadGenerator::new(7);
        let (mut buf, mut spares) = (Query::default(), Vec::new());
        for (i, n) in [5, 2, 9, 9, 3, 12, 2, 7, 4].into_iter().enumerate() {
            let ids = g.pick_tables(&catalog, n);
            let profile = QueryProfile {
                topology: [Topology::Chain, Topology::Star, Topology::Random][i % 3],
                sel_buckets: 1 + 2 * (i % 3),
                ..Default::default()
            };
            let mut q = wg.gen_query(&catalog, &ids, &profile);
            for (t, qt) in q.tables.iter_mut().enumerate() {
                let buckets = 1 + (t + i) % 4;
                let values: Vec<f64> = (1..=buckets).map(|k| k as f64 / 8.0).collect();
                qt.filter = ((t + i) % 3 != 0).then(|| LocalPredicate {
                    column: t % 2,
                    selectivity: Distribution::uniform(&values).unwrap(),
                });
            }
            let bytes = encoded(&q);
            let fresh = decode_query(&mut Reader::new(&bytes)).unwrap();
            let mut r = Reader::new(&bytes);
            decode_query_into(&mut r, &mut buf, &mut spares).unwrap();
            r.finish().unwrap();
            assert_eq!(buf, fresh, "query {i}");
            assert_eq!(
                encoded(&buf),
                encoded(&fresh),
                "query {i}: distribution bits"
            );
        }
    }

    #[test]
    fn all_modes_roundtrip() {
        let chain =
            MarkovChain::new(vec![700.0, 2000.0], vec![vec![0.9, 0.1], vec![0.2, 0.8]]).unwrap();
        let mut modes = vec![
            Mode::Lsc(PointEstimate::Mean),
            Mode::Lsc(PointEstimate::Mode),
            Mode::LscAt(1234.5),
            Mode::AlgorithmA,
            Mode::AlgorithmB { c: 3 },
            Mode::AlgorithmC,
            Mode::AlgorithmCDynamic { chain },
            Mode::Bushy,
        ];
        // Every D config: both strategies, both input schemes, two caps.
        for max_buckets in [3, 16] {
            for rebucket in [Rebucket::EqualWidth, Rebucket::EqualDepth] {
                for cube_root_inputs in [false, true] {
                    let config = AlgDConfig {
                        max_buckets,
                        rebucket,
                        cube_root_inputs,
                    };
                    modes.push(Mode::AlgorithmD { config });
                }
            }
        }
        for m in &modes {
            let mut w = Writer::new();
            encode_mode(&mut w, m);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let rt = decode_mode(&mut r).unwrap();
            r.finish().unwrap();
            // Fingerprints are injective over the encodable parameter
            // space, so equality of fingerprints is mode equality.
            assert_eq!(rt.fingerprint(), m.fingerprint(), "mode {}", m.name());
            assert_eq!(rt.name(), m.name());
        }
    }

    #[test]
    fn plans_roundtrip_and_depth_is_capped() {
        let plan = PlanNode::join(
            JoinMethod::GraceHash,
            PlanNode::sort(PlanNode::seq_scan(0), ColumnRef::new(0, 1)),
            PlanNode::index_scan(2),
        );
        let mut w = Writer::new();
        encode_plan(&mut w, &plan);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_plan(&mut r).unwrap(), plan);
        r.finish().unwrap();

        // A pathological frame nesting sorts past the cap is rejected
        // cleanly (no stack overflow).
        let mut deep = Vec::new();
        for _ in 0..(MAX_PLAN_DEPTH + 8) {
            deep.push(2u8); // Sort
            deep.extend_from_slice(&0u64.to_le_bytes());
            deep.extend_from_slice(&0u64.to_le_bytes());
        }
        let mut r = Reader::new(&deep);
        assert_eq!(
            decode_plan(&mut r),
            Err(DecodeError::BadValue("plan tree too deep"))
        );
    }

    #[test]
    fn truncated_and_trailing_frames_are_rejected() {
        let (_cat, q) = fixtures::three_chain();
        let mut w = Writer::new();
        encode_query(&mut w, &q);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                decode_query(&mut r).is_err() || r.finish().is_err(),
                "prefix of {cut} bytes must not decode to a complete frame"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        let mut r = Reader::new(&extended);
        decode_query(&mut r).unwrap();
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn oversized_counts_are_rejected_before_allocation() {
        // A frame claiming 2^40 tables must fail on the cap, not OOM.
        let mut w = Writer::new();
        w.u64(1 << 40);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            decode_query(&mut r),
            Err(DecodeError::BadValue("count exceeds MAX_ELEMS"))
        );
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::WorkerPanicked,
            ErrorCode::Opt,
            ErrorCode::Malformed,
        ] {
            assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        assert_eq!(ErrorCode::from_u8(99), None);
        assert!(ErrorCode::Overloaded.is_transient());
        assert!(!ErrorCode::WorkerPanicked.is_transient());
    }

    #[test]
    fn responses_roundtrip_and_the_retired_decision_tag_is_rejected() {
        let plan = PlanNode::seq_scan(3);
        let mut w = Writer::new();
        encode_plan(&mut w, &plan);
        // plan, f64 cost, then the decision tag and four u64 counters.
        let plan_len = w.into_bytes().len();
        let tag_at = plan_len + 8;
        for (decision, tag) in [
            (CacheDecision::Served, 0u8),
            (CacheDecision::Recomputed, 3),
            (CacheDecision::Uncacheable, 4),
        ] {
            let resp = lec_service::ServeResponse {
                plan: plan.clone(),
                cost: 42.5,
                stats: SearchStats::default(),
                decision,
            };
            let mut w = Writer::new();
            encode_response(&mut w, &resp);
            let mut bytes = w.into_bytes();
            assert_eq!(bytes.len(), plan_len + 8 + 1 + 4 * 8, "no byte but these");
            assert_eq!(bytes[tag_at], tag, "{decision:?} keeps its wire tag");
            let back = decode_response(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(back.decision, decision);
            assert_eq!(back.plan, plan);
            assert_eq!(back.cost.to_bits(), 42.5f64.to_bits());
            // Tags 1 (coalesced) and 2 (weak-key revalidation) are
            // retired, never reassigned.
            for retired in [1, 2] {
                bytes[tag_at] = retired;
                assert_eq!(
                    decode_response(&mut Reader::new(&bytes)).err(),
                    Some(DecodeError::BadTag("cache decision"))
                );
            }
        }
    }
}
