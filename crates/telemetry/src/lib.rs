//! `lec-telemetry`: the observability substrate for the LEC serving stack.
//!
//! Three pieces, designed so the warm serving path pays almost nothing:
//!
//! * [`Histogram`] — lock-free log-scale latency histograms with atomic
//!   buckets, deterministic under concurrent recording ([`hist`]), one per
//!   request outcome (served/fresh/shed/error).
//! * [`TraceCtx`] — per-request typed span events collected on the stack
//!   (zero allocation, [`trace`]); a finished trace is offered to the
//!   slowest-N log ([`slowlog`]), the one store of finished traces, which
//!   keeps each retained request's per-stage breakdown.
//! * [`Telemetry::snapshot_json`] — the full snapshot as one sorted-key
//!   JSON document.  Its Prometheus text exposition is a mechanical
//!   rendering of the same document ([`prom::render`]: one unlabelled
//!   sample per numeric leaf), so a new metric is one line in a `json!`.
//!
//! Cost calibration is not here: no served request executes a plan, so
//! per-operator-class prediction error lives in `lec-exec`'s `CostAudit`.
//! Nor is the optimizer's inside: a search's time is the `Search` span
//! and `SearchStats::elapsed`, and no optimizer crate depends on this one.

#![forbid(unsafe_code)]

pub mod hist;
pub mod prom;
pub mod slowlog;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use prom::{flatten, parse_prometheus, render, PromSample};
pub use slowlog::{SlowEntry, SlowLog};
pub use trace::{Span, Stage, TraceCtx, MAX_SPANS};

use serde_json::{json, Value};

/// Request outcome classes, each with its own latency histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Outcome {
    /// Warm cache hit served without optimization.
    Served = 0,
    /// Fresh optimization (cold miss or uncacheable).
    Fresh = 1,
    /// Rejected by admission control.
    Shed = 2,
    /// Failed for any other reason (optimizer error, deadline).
    Error = 3,
}

pub const OUTCOME_COUNT: usize = 4;

impl Outcome {
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Served => "served",
            Outcome::Fresh => "fresh",
            Outcome::Shed => "shed",
            Outcome::Error => "error",
        }
    }

    pub fn all() -> [Outcome; OUTCOME_COUNT] {
        [
            Outcome::Served,
            Outcome::Fresh,
            Outcome::Shed,
            Outcome::Error,
        ]
    }
}

/// Slowest-N requests retained with span breakdowns.
const SLOW_LOG_SIZE: usize = 16;

/// The full telemetry surface for one serving stack: outcome latency
/// histograms and the slow log.
pub struct Telemetry {
    outcomes: [Histogram; OUTCOME_COUNT],
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
            slow: SlowLog::new(SLOW_LOG_SIZE),
        }
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

    /// Full snapshot as sorted-key JSON: per-outcome latency histograms
    /// and the slow log.
    pub fn snapshot_json(&self) -> Value {
        let mut latency: Vec<(String, Value)> = Outcome::all()
            .iter()
            .map(|o| (o.name().to_string(), self.outcome_snapshot(*o).to_json()))
            .collect();
        latency.sort_by(|a, b| a.0.cmp(&b.0));
        json!({
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
        let mut ctx = TraceCtx::new(3);
        ctx.span_with(Stage::CacheProbe, 0, 10, 0);
        t.finish_request(&ctx, Outcome::Served);
        let samples = parse_prometheus(&render("lec", &t.snapshot_json())).expect("parses");
        let value = |name: &str| samples.iter().find(|s| s.name == name).map(|s| s.value);
        assert_eq!(value("lec_latency_served_count"), Some(100.0));
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
