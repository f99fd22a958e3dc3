//! `lec-telemetry`: the observability substrate for the LEC serving stack.
//!
//! Three pieces, designed so the warm serving path pays almost nothing:
//!
//! * [`Histogram`] — lock-free log-scale latency histograms with atomic
//!   buckets and deterministic merge ([`hist`]). Request outcomes
//!   (served/coalesced/fresh/shed/error) and engine internals (per-level
//!   combine, Algorithm D's pair pricing) each get one.
//! * [`TraceCtx`] — per-request typed span events collected on the stack
//!   (zero allocation, [`trace`]); a finished trace is offered to the
//!   slowest-N log ([`slowlog`]), the one store of finished traces, which
//!   keeps each retained request's per-stage breakdown.
//! * [`Telemetry::snapshot_json`] — the full snapshot as one sorted-key
//!   JSON document.  Its Prometheus text exposition is a mechanical
//!   rendering of the same document ([`prom::render`]: one unlabelled
//!   sample per numeric leaf), so a new metric is one line in a `json!`.

#![forbid(unsafe_code)]

pub mod hist;
pub mod prom;
pub mod slowlog;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use prom::{flatten, parse_prometheus, render, PromSample};
pub use slowlog::{SlowEntry, SlowLog};
pub use trace::{Span, Stage, TraceCtx, MAX_SPANS};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

    /// Sorted-key JSON: one histogram summary per class name, its keys
    /// suffixed `_bp` (basis points of relative error).
    pub fn to_json(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = OpClass::all()
            .iter()
            .map(|c| (c.name().to_string(), self.snapshot(*c).to_json("bp")))
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
            "eval_compute": self.eval_compute_ns.snapshot().to_json("ns"),
            "level_combine": self.level_combine_ns.snapshot().to_json("ns"),
        })
        .sorted()
    }
}

/// The full telemetry surface for one serving stack: outcome latency
/// histograms, engine-internal histograms, calibration errors, I/O totals
/// and the slow log.
pub struct Telemetry {
    outcomes: [Histogram; OUTCOME_COUNT],
    engine: Arc<EngineTelemetry>,
    calibration: CalibrationErrors,
    io: Arc<IoTotals>,
    slow: SlowLog,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("slow_log_entries", &self.slow.len())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// A fresh telemetry surface: every histogram empty, the slow log
    /// clear.
    pub fn on() -> Telemetry {
        Telemetry {
            outcomes: std::array::from_fn(|_| Histogram::new()),
            engine: Arc::new(EngineTelemetry::default()),
            calibration: CalibrationErrors::default(),
            io: Arc::new(IoTotals::default()),
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

    /// Record a finished request's wall time under its outcome class.
    /// Three relaxed atomic adds; no allocation.
    #[inline]
    pub fn record_outcome(&self, outcome: Outcome, elapsed_ns: u64) {
        self.outcomes[outcome as usize].record(elapsed_ns);
    }

    /// Offer a finished trace to the slow log.
    pub fn finish_request(&self, ctx: &TraceCtx, outcome: Outcome) {
        if !ctx.enabled() {
            return;
        }
        self.slow.offer(ctx, outcome, ctx.now_ns());
    }

    pub fn slow_log(&self) -> &SlowLog {
        &self.slow
    }

    pub fn outcome_snapshot(&self, outcome: Outcome) -> HistogramSnapshot {
        self.outcomes[outcome as usize].snapshot()
    }

    /// Full snapshot as sorted-key JSON: per-outcome latency histograms,
    /// engine and calibration histograms, I/O totals and the slow log.
    pub fn snapshot_json(&self) -> Value {
        let mut latency: Vec<(String, Value)> = Outcome::all()
            .iter()
            .map(|o| {
                (
                    o.name().to_string(),
                    self.outcome_snapshot(*o).to_json("ns"),
                )
            })
            .collect();
        latency.sort_by(|a, b| a.0.cmp(&b.0));
        json!({
            "calibration": self.calibration.to_json(),
            "engine": self.engine.to_json(),
            "io": self.io.to_json(),
            "latency": Value::Object(latency),
            "trace": {
                "slow_log": self.slow.to_json(),
            },
        })
        .sorted()
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
        let samples = parse_prometheus(&render("lec", &snap)).expect("parses");
        assert!(samples
            .iter()
            .any(|s| s.name == "lec_io_reads" && s.value == 15.0));
    }

    #[test]
    fn snapshot_json_has_sorted_keys_and_core_fields() {
        let t = Telemetry::on();
        t.record_outcome(Outcome::Served, 500);
        t.record_outcome(Outcome::Shed, 100);
        let mut ctx = TraceCtx::new(9);
        ctx.span_with(Stage::Search, 0, 400, 0);
        t.finish_request(&ctx, Outcome::Served);
        let snap = t.snapshot_json();
        assert_eq!(snap["latency"]["served"]["count"].as_f64(), Some(1.0));
        assert_eq!(snap["latency"]["shed"]["count"].as_f64(), Some(1.0));
        assert_eq!(snap["trace"]["slow_log"].as_array().map(Vec::len), Some(1));
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
    fn the_snapshot_renders_as_unlabelled_samples() {
        let t = Telemetry::on();
        for i in 0..100u64 {
            t.record_outcome(Outcome::Served, i * 1000);
        }
        t.record_calibration_error(OpClass::SortMerge, 150.0, 100.0);
        let mut ctx = TraceCtx::new(3);
        ctx.span_with(Stage::CacheProbe, 0, 10, 0);
        t.finish_request(&ctx, Outcome::Served);
        let samples = parse_prometheus(&render("lec", &t.snapshot_json())).expect("parses");
        assert!(samples.iter().all(|s| s.labels.is_empty()));
        let value = |name: &str| samples.iter().find(|s| s.name == name).map(|s| s.value);
        assert_eq!(value("lec_latency_served_count"), Some(100.0));
        let sort_merge = t.calibration_snapshot(OpClass::SortMerge);
        assert_eq!(value("lec_calibration_sort_merge_sum_bp"), Some(5_000.0));
        assert_eq!(
            value("lec_calibration_sort_merge_p50_bp"),
            Some(sort_merge.quantile(0.5) as f64)
        );
    }

    #[test]
    fn finish_request_feeds_the_slow_log() {
        let t = Telemetry::on();
        let mut ctx = TraceCtx::new(77);
        ctx.span_with(Stage::Decode, 0, 50, 0);
        ctx.span_with(Stage::Search, 50, 900, (3u64 << 32) | 5);
        t.finish_request(&ctx, Outcome::Fresh);
        let slow = t.slow_log().entries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].request_id, 77);
        assert_eq!(slow[0].outcome, Outcome::Fresh);
        assert_eq!(slow[0].spans.len(), 2);
        assert_eq!(slow[0].spans[1].detail >> 32, 3);
    }

    /// Clients choose `u64` request ids, and a JSON number is an `f64`:
    /// the slow log writes ids as decimal strings so that ids past 2^53
    /// read back exactly.
    #[test]
    fn slow_log_request_ids_read_back_exactly() {
        let t = Telemetry::on();
        let ids = [(1u64 << 53) + 1, u64::MAX - 1];
        for id in ids {
            let mut ctx = TraceCtx::new(id);
            ctx.span_with(Stage::Search, 0, 10, 0);
            std::thread::sleep(std::time::Duration::from_millis(1));
            t.finish_request(&ctx, Outcome::Fresh);
        }
        let snap = t.snapshot_json();
        let mut got: Vec<u64> = snap["trace"]["slow_log"]
            .as_array()
            .expect("slow log array")
            .iter()
            .map(|e| {
                e["request_id"]
                    .as_str()
                    .expect("id string")
                    .parse()
                    .expect("decimal")
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, ids);
        let text = serde_json::to_string(&snap).unwrap();
        assert!(
            text.contains("\"request_id\": \"9007199254740993\""),
            "{text}"
        );
        assert!(
            text.contains("\"request_id\": \"18446744073709551614\""),
            "{text}"
        );
    }
}
