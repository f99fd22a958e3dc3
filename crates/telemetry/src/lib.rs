//! `lec-telemetry`: the observability substrate for the LEC serving stack.
//!
//! Three pieces, designed so the warm serving path pays almost nothing:
//!
//! * [`Histogram`] — lock-free log-scale latency histograms with atomic
//!   buckets and deterministic merge ([`hist`]). Request outcomes
//!   (served/coalesced/fresh/shed/error) and engine internals (per-level
//!   combine, Algorithm D's pair pricing) each get one.
//! * [`TraceCtx`] / [`TraceRing`] — per-request typed span events collected
//!   on the stack (zero allocation) and published into a bounded lock-free
//!   ring with drop-oldest semantics ([`trace`]), plus a slowest-N log with
//!   per-stage breakdowns ([`slowlog`]).
//! * [`Telemetry::snapshot_json`] / [`Telemetry::prometheus`] — the full
//!   snapshot as sorted-key JSON or Prometheus text exposition ([`prom`]).

#![forbid(unsafe_code)]

pub mod hist;
pub mod prom;
pub mod slowlog;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use prom::{parse_prometheus, write_sample, PromSample};
pub use slowlog::{SlowEntry, SlowLog};
pub use trace::{Span, Stage, TraceCtx, TraceRecord, TraceRing, MAX_SPANS};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde_json::{json, Value};

/// Request outcome classes, each with its own latency histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Outcome {
    /// Warm cache hit served without optimization.
    Served = 0,
    /// Coalesced onto another request's in-flight computation.
    Coalesced = 1,
    /// Fresh optimization (cold miss or uncacheable).
    Fresh = 2,
    /// Rejected by admission control.
    Shed = 3,
    /// Failed for any other reason (optimizer error, deadline).
    Error = 4,
}

pub const OUTCOME_COUNT: usize = 5;

impl Outcome {
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Served => "served",
            Outcome::Coalesced => "coalesced",
            Outcome::Fresh => "fresh",
            Outcome::Shed => "shed",
            Outcome::Error => "error",
        }
    }

    pub fn all() -> [Outcome; OUTCOME_COUNT] {
        [
            Outcome::Served,
            Outcome::Coalesced,
            Outcome::Fresh,
            Outcome::Shed,
            Outcome::Error,
        ]
    }

    pub fn from_u8(v: u8) -> Outcome {
        match v {
            0 => Outcome::Served,
            1 => Outcome::Coalesced,
            2 => Outcome::Fresh,
            3 => Outcome::Shed,
            _ => Outcome::Error,
        }
    }
}

/// Physical operator classes of the execution substrate, the axis of the
/// calibration error histograms: every class `lec-exec` can execute and
/// `lec-cost` can predict gets its own prediction-error distribution, so a
/// formula that drifts from its operator shows up per class rather than
/// averaged away.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum OpClass {
    /// Sequential heap scan.
    SeqAccess = 0,
    /// Index access (clustered or unclustered).
    IndexAccess = 1,
    /// Explicit external sort.
    Sort = 2,
    /// Sort-merge join.
    SortMerge = 3,
    /// Grace hash join.
    GraceHash = 4,
    /// Block nested-loop join.
    BlockNestedLoop = 5,
    /// Page nested-loop join.
    PageNestedLoop = 6,
}

pub const OP_CLASS_COUNT: usize = 7;

impl OpClass {
    pub fn name(self) -> &'static str {
        match self {
            OpClass::SeqAccess => "seq_access",
            OpClass::IndexAccess => "index_access",
            OpClass::Sort => "sort",
            OpClass::SortMerge => "sort_merge",
            OpClass::GraceHash => "grace_hash",
            OpClass::BlockNestedLoop => "block_nl",
            OpClass::PageNestedLoop => "page_nl",
        }
    }

    pub fn all() -> [OpClass; OP_CLASS_COUNT] {
        [
            OpClass::SeqAccess,
            OpClass::IndexAccess,
            OpClass::Sort,
            OpClass::SortMerge,
            OpClass::GraceHash,
            OpClass::BlockNestedLoop,
            OpClass::PageNestedLoop,
        ]
    }
}

/// The pure sample mapping of the calibration histograms: absolute
/// relative prediction error in basis points, `|pred − meas| / meas · 10⁴`,
/// rounded.  Total over all float inputs (a non-positive measurement with a
/// positive prediction saturates) and deterministic, so per-thread or
/// per-process recordings merge into the same counts as serial recording.
pub fn error_bp(predicted: f64, measured: f64) -> u64 {
    if measured <= 0.0 {
        return if predicted <= 0.0 { 0 } else { u64::MAX };
    }
    let bp = ((predicted - measured) / measured).abs() * 1e4;
    if !bp.is_finite() {
        u64::MAX
    } else {
        bp.round().min(1e18) as u64
    }
}

/// Per-operator-class prediction-error histograms, fed by calibration runs
/// (`lec-exec::calib`): each sample is one plan node's [`error_bp`] between
/// the cost model's expected cost and the measured page I/O.
#[derive(Debug, Default)]
pub struct CalibrationErrors {
    classes: [Histogram; OP_CLASS_COUNT],
}

impl CalibrationErrors {
    /// Record one predicted-vs-measured pair under its operator class.
    #[inline]
    pub fn record(&self, class: OpClass, predicted: f64, measured: f64) {
        self.classes[class as usize].record(error_bp(predicted, measured));
    }

    pub fn snapshot(&self, class: OpClass) -> HistogramSnapshot {
        self.classes[class as usize].snapshot()
    }

    /// Sorted-key JSON: one histogram summary per class name.  Quantile
    /// keys read `_ns` by histogram convention; the unit here is basis
    /// points of relative error.
    pub fn to_json(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = OpClass::all()
            .iter()
            .map(|c| (c.name().to_string(), self.snapshot(*c).to_json()))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(pairs)
    }
}

/// Cumulative buffer-pool page counters, mirrored from `lec-exec`'s disks
/// when a calibration sink is installed.  Monotone totals (Prometheus
/// `_total` semantics); shared by `Arc` so the recording side never blocks.
#[derive(Debug, Default)]
pub struct IoTotals {
    reads: AtomicU64,
    writes: AtomicU64,
}

impl IoTotals {
    pub fn add_reads(&self, n: u64) {
        self.reads.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_writes(&self, n: u64) {
        self.writes.fetch_add(n, Ordering::Relaxed);
    }

    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    pub fn to_json(&self) -> Value {
        json!({
            "reads": self.reads() as f64,
            "writes": self.writes() as f64,
        })
        .sorted()
    }
}

/// Trace-ring segments; writers hash by thread onto segments.
const RING_SEGMENTS: usize = 4;
/// Slots per ring segment (drop-oldest beyond this).
const RING_SLOTS_PER_SEGMENT: usize = 64;
/// Slowest-N requests retained with span breakdowns.
const SLOW_LOG_SIZE: usize = 16;

/// Engine-internal timing histograms, shared with `lec-core` / `lec-cost`
/// via `Arc`.  Lock-free.
#[derive(Debug, Default)]
pub struct EngineTelemetry {
    /// Wall time of each DP level (combine pass over all subsets of size k).
    pub level_combine_ns: Histogram,
    /// Compute time of Algorithm D's per-pair pricing (the four join
    /// expectations of one operand-size pair); scalar-size expectations
    /// are not timed.
    pub eval_compute_ns: Histogram,
}

impl EngineTelemetry {
    pub fn to_json(&self) -> Value {
        json!({
            "eval_compute": self.eval_compute_ns.snapshot().to_json(),
            "level_combine": self.level_combine_ns.snapshot().to_json(),
        })
        .sorted()
    }
}

/// The full telemetry surface for one serving stack: outcome latency
/// histograms, engine-internal histograms, the trace ring, and the slow log.
pub struct Telemetry {
    outcomes: [Histogram; OUTCOME_COUNT],
    engine: Arc<EngineTelemetry>,
    calibration: CalibrationErrors,
    io: Arc<IoTotals>,
    ring: TraceRing,
    slow: SlowLog,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("ring_occupancy", &self.ring.occupancy())
            .field("slow_log_entries", &self.slow.len())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// A fresh telemetry surface: every histogram empty, the ring and
    /// slow log clear.
    pub fn on() -> Telemetry {
        Telemetry {
            outcomes: std::array::from_fn(|_| Histogram::new()),
            engine: Arc::new(EngineTelemetry::default()),
            calibration: CalibrationErrors::default(),
            io: Arc::new(IoTotals::default()),
            ring: TraceRing::new(RING_SEGMENTS, RING_SLOTS_PER_SEGMENT),
            slow: SlowLog::new(SLOW_LOG_SIZE),
        }
    }

    /// Engine-internal histograms handle, for installation into
    /// `SearchConfig` / `CostModel`.
    pub fn engine(&self) -> &Arc<EngineTelemetry> {
        &self.engine
    }

    /// Cumulative buffer-pool page counters; `lec-exec` calibration runs
    /// install this as their I/O sink so execution work shows up live.
    pub fn io(&self) -> &Arc<IoTotals> {
        &self.io
    }

    /// Record one plan node's predicted-vs-measured cost pair under its
    /// operator class.
    #[inline]
    pub fn record_calibration_error(&self, class: OpClass, predicted: f64, measured: f64) {
        self.calibration.record(class, predicted, measured);
    }

    pub fn calibration_snapshot(&self, class: OpClass) -> HistogramSnapshot {
        self.calibration.snapshot(class)
    }

    /// An active [`TraceCtx`] for a new request.
    pub fn trace_ctx(&self, request_id: u64) -> TraceCtx {
        TraceCtx::new(request_id)
    }

    /// Like [`Self::trace_ctx`] but with an explicit epoch (timing started
    /// before the request id was decoded).
    pub fn trace_ctx_at(&self, request_id: u64, epoch: Instant) -> TraceCtx {
        TraceCtx::starting_at(request_id, epoch)
    }

    /// Record a finished request's wall time under its outcome class.
    /// Three relaxed atomic adds; no allocation.
    #[inline]
    pub fn record_outcome(&self, outcome: Outcome, elapsed_ns: u64) {
        self.outcomes[outcome as usize].record(elapsed_ns);
    }

    /// Publish a finished trace into the ring and offer it to the slow log.
    pub fn finish_request(&self, ctx: &TraceCtx, outcome: Outcome) {
        if !ctx.enabled() {
            return;
        }
        let total_ns = ctx.now_ns();
        self.ring.push(ctx, outcome as u8, total_ns);
        self.slow.offer(ctx, outcome as u8, total_ns);
    }

    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    pub fn slow_log(&self) -> &SlowLog {
        &self.slow
    }

    pub fn outcome_snapshot(&self, outcome: Outcome) -> HistogramSnapshot {
        self.outcomes[outcome as usize].snapshot()
    }

    /// Full snapshot as sorted-key JSON: per-outcome latency histograms,
    /// engine histograms, slow log, and trace-ring occupancy.
    pub fn snapshot_json(&self) -> Value {
        let mut latency: Vec<(String, Value)> = Outcome::all()
            .iter()
            .map(|o| (o.name().to_string(), self.outcome_snapshot(*o).to_json()))
            .collect();
        latency.sort_by(|a, b| a.0.cmp(&b.0));
        json!({
            "calibration": self.calibration.to_json(),
            "engine": self.engine.to_json(),
            "io": self.io.to_json(),
            "latency": Value::Object(latency),
            "trace": {
                "dropped_events": self.ring.dropped_events() as f64,
                "ring_occupancy": self.ring.occupancy() as f64,
                "slow_log": self.slow.to_json(|o| Outcome::from_u8(o).name()),
            },
        })
        .sorted()
    }

    /// Prometheus-style text exposition of the histogram and ring state.
    /// Every line parses with [`parse_prometheus`] (pinned by tests + CI).
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for o in Outcome::all() {
            let s = self.outcome_snapshot(o);
            let labels = [("outcome", o.name())];
            write_sample(&mut out, "lec_requests_total", &labels, s.count() as f64);
            write_sample(
                &mut out,
                "lec_request_seconds_sum",
                &labels,
                s.sum() as f64 / 1e9,
            );
            for (q, qn) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
                write_sample(
                    &mut out,
                    "lec_request_latency_ns",
                    &[("outcome", o.name()), ("quantile", qn)],
                    s.quantile(q) as f64,
                );
            }
        }
        for (stage, h) in [
            ("eval_compute", &self.engine.eval_compute_ns),
            ("level_combine", &self.engine.level_combine_ns),
        ] {
            let s = h.snapshot();
            let labels = [("stage", stage)];
            write_sample(&mut out, "lec_engine_ops_total", &labels, s.count() as f64);
            for (q, qn) in [(0.5, "0.5"), (0.99, "0.99")] {
                write_sample(
                    &mut out,
                    "lec_engine_ns",
                    &[("quantile", qn), ("stage", stage)],
                    s.quantile(q) as f64,
                );
            }
        }
        for class in OpClass::all() {
            let s = self.calibration.snapshot(class);
            let labels = [("op", class.name())];
            write_sample(
                &mut out,
                "lec_calibration_samples_total",
                &labels,
                s.count() as f64,
            );
            for (q, qn) in [(0.5, "0.5"), (0.99, "0.99")] {
                write_sample(
                    &mut out,
                    "lec_calibration_error_bp",
                    &[("op", class.name()), ("quantile", qn)],
                    s.quantile(q) as f64,
                );
            }
        }
        for (dir, n) in [("read", self.io.reads()), ("write", self.io.writes())] {
            write_sample(&mut out, "lec_io_pages_total", &[("dir", dir)], n as f64);
        }
        write_sample(
            &mut out,
            "lec_trace_ring_occupancy",
            &[],
            self.ring.occupancy() as f64,
        );
        write_sample(
            &mut out,
            "lec_trace_dropped_events",
            &[],
            self.ring.dropped_events() as f64,
        );
        write_sample(
            &mut out,
            "lec_slow_log_entries",
            &[],
            self.slow.len() as f64,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bp_is_total_and_symmetric_in_sign() {
        assert_eq!(error_bp(100.0, 100.0), 0);
        assert_eq!(error_bp(150.0, 100.0), 5_000);
        assert_eq!(error_bp(50.0, 100.0), 5_000);
        assert_eq!(error_bp(0.0, 0.0), 0);
        assert_eq!(error_bp(1.0, 0.0), u64::MAX);
        assert_eq!(error_bp(f64::NAN, 100.0), u64::MAX);
    }

    #[test]
    fn calibration_errors_surface_per_class() {
        let t = Telemetry::on();
        t.record_calibration_error(OpClass::SortMerge, 120.0, 100.0);
        t.record_calibration_error(OpClass::SortMerge, 100.0, 100.0);
        t.record_calibration_error(OpClass::SeqAccess, 100.0, 100.0);
        let sm = t.calibration_snapshot(OpClass::SortMerge);
        assert_eq!(sm.count(), 2);
        assert_eq!(sm.sum(), 2_000);
        assert_eq!(t.calibration_snapshot(OpClass::GraceHash).count(), 0);
        let snap = t.snapshot_json();
        assert_eq!(
            snap["calibration"]["sort_merge"]["count"].as_f64(),
            Some(2.0)
        );
        assert_eq!(
            snap["calibration"]["seq_access"]["count"].as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn io_totals_accumulate_and_surface() {
        let t = Telemetry::on();
        t.io().add_reads(12);
        t.io().add_writes(5);
        t.io().add_reads(3);
        assert_eq!(t.io().reads(), 15);
        assert_eq!(t.io().writes(), 5);
        let snap = t.snapshot_json();
        assert_eq!(snap["io"]["reads"].as_f64(), Some(15.0));
        assert_eq!(snap["io"]["writes"].as_f64(), Some(5.0));
        let samples = parse_prometheus(&t.prometheus()).expect("parses");
        assert!(samples.iter().any(|s| {
            s.name == "lec_io_pages_total"
                && s.labels.iter().any(|(k, v)| k == "dir" && v == "read")
                && s.value == 15.0
        }));
    }

    #[test]
    fn snapshot_json_has_sorted_keys_and_core_fields() {
        let t = Telemetry::on();
        t.record_outcome(Outcome::Served, 500);
        t.record_outcome(Outcome::Shed, 100);
        let mut ctx = t.trace_ctx(9);
        ctx.span_with(Stage::Search, 0, 400, 0);
        t.finish_request(&ctx, Outcome::Served);
        let snap = t.snapshot_json();
        assert_eq!(snap["latency"]["served"]["count"].as_f64(), Some(1.0));
        assert_eq!(snap["latency"]["shed"]["count"].as_f64(), Some(1.0));
        assert_eq!(snap["trace"]["ring_occupancy"].as_f64(), Some(1.0));
        fn assert_sorted(v: &Value) {
            if let Value::Object(pairs) = v {
                for w in pairs.windows(2) {
                    assert!(
                        w[0].0 < w[1].0,
                        "keys out of order: {} vs {}",
                        w[0].0,
                        w[1].0
                    );
                }
                for (_, v) in pairs {
                    assert_sorted(v);
                }
            }
            if let Value::Array(items) = v {
                for v in items {
                    assert_sorted(v);
                }
            }
        }
        assert_sorted(&snap);
    }

    #[test]
    fn prometheus_exposition_parses() {
        let t = Telemetry::on();
        for i in 0..100u64 {
            t.record_outcome(Outcome::Served, i * 1000);
        }
        let mut ctx = t.trace_ctx(3);
        ctx.span_with(Stage::CacheProbe, 0, 10, 0);
        t.finish_request(&ctx, Outcome::Served);
        let text = t.prometheus();
        let samples = parse_prometheus(&text).expect("exposition parses");
        assert!(samples.len() > 20);
        let served = samples
            .iter()
            .find(|s| {
                s.name == "lec_requests_total"
                    && s.labels
                        .iter()
                        .any(|(k, v)| k == "outcome" && v == "served")
            })
            .expect("served counter present");
        assert_eq!(served.value, 100.0);
    }

    #[test]
    fn finish_request_feeds_ring_and_slow_log() {
        let t = Telemetry::on();
        let mut ctx = t.trace_ctx(77);
        ctx.span_with(Stage::Decode, 0, 50, 0);
        ctx.span_with(Stage::Search, 50, 900, (3u64 << 32) | 5);
        t.finish_request(&ctx, Outcome::Fresh);
        let rec = t.ring().find(77).expect("trace retained");
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].detail >> 32, 3);
        let slow = t.slow_log().entries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].request_id, 77);
    }
}
