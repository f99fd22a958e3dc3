//! Per-request tracing: stack-owned span collection plus a lock-free
//! bounded ring that retains recently finished traces.
//!
//! A [`TraceCtx`] lives on the request's stack and accumulates up to
//! [`MAX_SPANS`] fixed-size span records — no heap allocation anywhere on
//! the request path. When the request finishes, the context is published
//! into a [`TraceRing`]: a set of per-thread seqlock segments where each
//! writer claims a slot with one `fetch_add` and drop-oldest semantics.
//! Readers validate each slot's sequence word before and after copying it
//! out, so a torn (concurrently overwritten) record is discarded rather
//! than surfaced.

use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use serde_json::{json, Value};

/// Maximum spans retained per request; later spans are counted but dropped.
pub const MAX_SPANS: usize = 8;

/// Instrumented request stages, in rough pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// Wire frame parse (daemon only).
    Decode = 0,
    /// Admission-gate decision for cold (cache-miss) work.
    Admission = 1,
    /// Canonicalization + exact-cache probe.
    CacheProbe = 2,
    /// Blocking on another request's in-flight computation.
    CoalesceWait = 3,
    /// The DP search itself; `detail` is the number of DP nodes it
    /// populated.
    Search = 4,
    /// Response encode + flush (daemon only).
    Flush = 5,
}

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Admission => "admission",
            Stage::CacheProbe => "cache_probe",
            Stage::CoalesceWait => "coalesce_wait",
            Stage::Search => "search",
            Stage::Flush => "flush",
        }
    }

    fn from_u8(v: u8) -> Option<Stage> {
        Some(match v {
            0 => Stage::Decode,
            1 => Stage::Admission,
            2 => Stage::CacheProbe,
            3 => Stage::CoalesceWait,
            4 => Stage::Search,
            5 => Stage::Flush,
            _ => return None,
        })
    }
}

/// One typed span event: stage, start offset from request epoch, duration,
/// and a stage-specific detail word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub stage: Stage,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub detail: u64,
}

/// Stack-owned span accumulator carried by a request. A disabled context
/// never touches the clock, so the instrumented path degrades to a handful
/// of predictable branches when telemetry is off.
#[derive(Clone, Debug)]
pub struct TraceCtx {
    enabled: bool,
    request_id: u64,
    epoch: Instant,
    n: u8,
    truncated: u8,
    spans: [Span; MAX_SPANS],
}

const ZERO_SPAN: Span = Span {
    stage: Stage::Decode,
    start_ns: 0,
    dur_ns: 0,
    detail: 0,
};

impl TraceCtx {
    /// An active context whose epoch is "now".
    pub fn new(request_id: u64) -> TraceCtx {
        TraceCtx::starting_at(request_id, Instant::now())
    }

    /// An active context with an explicit epoch — used when timing started
    /// before the request id was known (e.g. frame decode).
    pub fn starting_at(request_id: u64, epoch: Instant) -> TraceCtx {
        TraceCtx {
            enabled: true,
            request_id,
            epoch,
            n: 0,
            truncated: 0,
            spans: [ZERO_SPAN; MAX_SPANS],
        }
    }

    /// A no-op context: every method is a branch on `enabled` and returns
    /// immediately.  Construction reads the clock once per process (a
    /// cached epoch), so putting one on every untraced request is free.
    pub fn disabled() -> TraceCtx {
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        TraceCtx {
            enabled: false,
            request_id: 0,
            // Never read on the disabled path; any fixed Instant works.
            epoch: *EPOCH.get_or_init(Instant::now),
            n: 0,
            truncated: 0,
            spans: [ZERO_SPAN; MAX_SPANS],
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Nanoseconds since the request epoch; 0 when disabled (no clock read).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Append a span that started at `start_ns` (from [`Self::now_ns`]) and
    /// ends now.
    #[inline]
    pub fn span(&mut self, stage: Stage, start_ns: u64, detail: u64) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        self.push(Span {
            stage,
            start_ns,
            dur_ns: end.saturating_sub(start_ns),
            detail,
        });
    }

    /// Append a fully specified span (caller measured the duration).
    #[inline]
    pub fn span_with(&mut self, stage: Stage, start_ns: u64, dur_ns: u64, detail: u64) {
        if !self.enabled {
            return;
        }
        self.push(Span {
            stage,
            start_ns,
            dur_ns,
            detail,
        });
    }

    fn push(&mut self, s: Span) {
        if (self.n as usize) < MAX_SPANS {
            self.spans[self.n as usize] = s;
            self.n += 1;
        } else {
            self.truncated = self.truncated.saturating_add(1);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans[..self.n as usize]
    }

    pub fn truncated(&self) -> u8 {
        self.truncated
    }
}

/// A finished trace decoded back out of the ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    pub request_id: u64,
    pub outcome: u8,
    pub total_ns: u64,
    pub spans: Vec<Span>,
}

impl TraceRecord {
    pub fn to_json(&self, outcome_name: &str) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "detail": s.detail as f64,
                    "dur_ns": s.dur_ns as f64,
                    "stage": s.stage.name(),
                    "start_ns": s.start_ns as f64,
                })
            })
            .collect();
        json!({
            "outcome": outcome_name,
            "request_id": self.request_id as f64,
            "spans": spans,
            "total_ns": self.total_ns as f64,
        })
        .sorted()
    }
}

// Slot layout: 3 header words (request_id; outcome|n|truncated packed;
// total_ns) + MAX_SPANS * 3 span words ([stage<<56 | start_ns], dur, detail).
const SLOT_WORDS: usize = 3 + MAX_SPANS * 3;

struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

struct Segment {
    head: AtomicU64,
    slots: Vec<Slot>,
}

/// Lock-free bounded trace store: writers append with one `fetch_add` per
/// record (drop-oldest on wrap), readers seqlock-validate each slot.
pub struct TraceRing {
    segments: Vec<Segment>,
}

// Assigns each OS thread a stable small ordinal so it always publishes into
// the same segment of every ring, keeping same-segment writer races to the
// pathological full-ring-lap case (which the seqlock still detects).
static THREAD_COUNTER: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static THREAD_ORDINAL: usize = THREAD_COUNTER.fetch_add(1, Ordering::Relaxed);
}

impl TraceRing {
    pub fn new(segments: usize, slots_per_segment: usize) -> TraceRing {
        let segments = segments.max(1);
        let slots_per_segment = slots_per_segment.max(1);
        TraceRing {
            segments: (0..segments)
                .map(|_| Segment {
                    head: AtomicU64::new(0),
                    slots: (0..slots_per_segment).map(|_| Slot::new()).collect(),
                })
                .collect(),
        }
    }

    /// Publish a finished trace. Lock-free; overwrites the oldest record in
    /// this thread's segment when full.
    pub fn push(&self, ctx: &TraceCtx, outcome: u8, total_ns: u64) {
        let seg = &self.segments[THREAD_ORDINAL.with(|o| *o) % self.segments.len()];
        let cap = seg.slots.len() as u64;
        let idx = seg.head.fetch_add(1, Ordering::Relaxed);
        let slot = &seg.slots[(idx % cap) as usize];
        // Seqlock write: odd claim, write words, even release. The release
        // CAS fails if another writer lapped us mid-write, leaving the slot
        // marked dirty (odd) so readers discard it instead of seeing a torn
        // record.
        let claim = idx * 2 + 1;
        slot.seq.store(claim, Ordering::Relaxed);
        fence(Ordering::Release);
        let spans = ctx.spans();
        let meta =
            (outcome as u64) | ((spans.len() as u64) << 8) | ((ctx.truncated() as u64) << 16);
        slot.words[0].store(ctx.request_id(), Ordering::Relaxed);
        slot.words[1].store(meta, Ordering::Relaxed);
        slot.words[2].store(total_ns, Ordering::Relaxed);
        for (i, s) in spans.iter().enumerate() {
            let base = 3 + i * 3;
            let stage_start = ((s.stage as u64) << 56) | (s.start_ns & ((1u64 << 56) - 1));
            slot.words[base].store(stage_start, Ordering::Relaxed);
            slot.words[base + 1].store(s.dur_ns, Ordering::Relaxed);
            slot.words[base + 2].store(s.detail, Ordering::Relaxed);
        }
        let _ = slot
            .seq
            .compare_exchange(claim, claim + 1, Ordering::Release, Ordering::Relaxed);
    }

    /// Records currently resident (after drop-oldest).
    pub fn occupancy(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| s.head.load(Ordering::Relaxed).min(s.slots.len() as u64))
            .sum()
    }

    /// Records overwritten by drop-oldest since creation.
    pub fn dropped_events(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| {
                s.head
                    .load(Ordering::Relaxed)
                    .saturating_sub(s.slots.len() as u64)
            })
            .sum()
    }

    /// Snapshot every valid resident record, most recent last within each
    /// segment. Torn slots (concurrent overwrite) are skipped.
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        for seg in &self.segments {
            let head = seg.head.load(Ordering::Acquire);
            let cap = seg.slots.len() as u64;
            let live = head.min(cap);
            let first = head - live;
            for idx in first..head {
                let slot = &seg.slots[(idx % cap) as usize];
                if let Some(rec) = Self::read_slot(slot) {
                    out.push(rec);
                }
            }
        }
        out
    }

    /// Find the most recent trace for a given request id.
    pub fn find(&self, request_id: u64) -> Option<TraceRecord> {
        self.records()
            .into_iter()
            .rev()
            .find(|r| r.request_id == request_id)
    }

    fn read_slot(slot: &Slot) -> Option<TraceRecord> {
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 % 2 == 1 {
            return None; // never written, or write in progress
        }
        let mut words = [0u64; SLOT_WORDS];
        for (i, w) in slot.words.iter().enumerate() {
            words[i] = w.load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        let s2 = slot.seq.load(Ordering::Relaxed);
        if s1 != s2 {
            return None; // torn: overwritten while reading
        }
        let meta = words[1];
        let n = ((meta >> 8) & 0xff) as usize;
        if n > MAX_SPANS {
            return None;
        }
        let mut spans = Vec::with_capacity(n);
        for i in 0..n {
            let base = 3 + i * 3;
            let stage = Stage::from_u8((words[base] >> 56) as u8)?;
            spans.push(Span {
                stage,
                start_ns: words[base] & ((1u64 << 56) - 1),
                dur_ns: words[base + 1],
                detail: words[base + 2],
            });
        }
        Some(TraceRecord {
            request_id: words[0],
            outcome: (meta & 0xff) as u8,
            total_ns: words[2],
            spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with_spans(id: u64, k: usize) -> TraceCtx {
        let mut c = TraceCtx::new(id);
        for i in 0..k {
            c.span_with(Stage::Search, i as u64 * 10, 7, i as u64);
        }
        c
    }

    #[test]
    fn push_and_find_roundtrip() {
        let ring = TraceRing::new(2, 4);
        let ctx = ctx_with_spans(42, 3);
        ring.push(&ctx, 1, 999);
        let rec = ring.find(42).expect("record present");
        assert_eq!(rec.request_id, 42);
        assert_eq!(rec.outcome, 1);
        assert_eq!(rec.total_ns, 999);
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[2].detail, 2);
        assert_eq!(ring.occupancy(), 1);
        assert_eq!(ring.dropped_events(), 0);
    }

    #[test]
    fn drop_oldest_counts_dropped() {
        let ring = TraceRing::new(1, 2);
        for id in 0..5 {
            ring.push(&ctx_with_spans(id, 1), 0, id);
        }
        assert_eq!(ring.occupancy(), 2);
        assert_eq!(ring.dropped_events(), 3);
        let ids: Vec<u64> = ring.records().iter().map(|r| r.request_id).collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn span_overflow_truncates() {
        let mut c = TraceCtx::new(7);
        for i in 0..(MAX_SPANS + 3) {
            c.span_with(Stage::Search, i as u64, 1, 0);
        }
        assert_eq!(c.spans().len(), MAX_SPANS);
        assert_eq!(c.truncated(), 3);
    }

    #[test]
    fn disabled_ctx_is_inert() {
        let mut c = TraceCtx::disabled();
        assert_eq!(c.now_ns(), 0);
        c.span(Stage::Search, 0, 0);
        c.span_with(Stage::Flush, 0, 1, 2);
        assert!(c.spans().is_empty());
    }

    #[test]
    fn concurrent_pushes_never_yield_torn_records() {
        use std::sync::Arc;
        let ring = Arc::new(TraceRing::new(2, 8));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let id = t * 1000 + i;
                    ring.push(&ctx_with_spans(id, 2), (t % 4) as u8, id * 3);
                }
            }));
        }
        let reader = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    for rec in ring.records() {
                        // Internal consistency: fields derived from id must agree.
                        assert_eq!(rec.total_ns, rec.request_id * 3);
                        assert_eq!(rec.spans.len(), 2);
                    }
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(ring.occupancy() + ring.dropped_events(), 800);
    }
}
