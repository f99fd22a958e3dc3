//! Slowest-N retention: a tiny top-K log of the slowest requests with their
//! per-stage span breakdowns.
//!
//! The fast path is one relaxed atomic load comparing the request's wall
//! time against the current admission floor (the N-th slowest total); only
//! requests that would actually enter the log take the mutex and allocate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde_json::{json, Value};

use crate::trace::{Span, TraceCtx};
use crate::Outcome;

/// One retained slow request.
#[derive(Clone, Debug)]
pub struct SlowEntry {
    pub request_id: u64,
    pub outcome: Outcome,
    pub total_ns: u64,
    pub spans: Vec<Span>,
}

impl SlowEntry {
    /// Sorted-key JSON.  `request_id` is a decimal string: clients choose
    /// the full `u64`, and a JSON number (an `f64`) rounds ids past 2^53.
    pub fn to_json(&self) -> Value {
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
            "outcome": self.outcome.name(),
            "request_id": self.request_id.to_string(),
            "spans": spans,
            "total_ns": self.total_ns as f64,
        })
        .sorted()
    }
}

/// Top-K slowest requests, ordered slowest first.
pub struct SlowLog {
    cap: usize,
    /// Admission floor: once the log is full, totals at or below this are
    /// rejected without locking.
    floor_ns: AtomicU64,
    entries: Mutex<Vec<SlowEntry>>,
}

impl SlowLog {
    pub fn new(cap: usize) -> SlowLog {
        SlowLog {
            cap: cap.max(1),
            floor_ns: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Offer a finished request. Returns true if it was retained.
    pub fn offer(&self, ctx: &TraceCtx, outcome: Outcome, total_ns: u64) -> bool {
        if total_ns <= self.floor_ns.load(Ordering::Relaxed) {
            return false; // log full and this request is not slow enough
        }
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        // Re-check under the lock: the floor may have risen.
        if entries.len() >= self.cap && total_ns <= entries.last().map_or(0, |e| e.total_ns) {
            return false;
        }
        entries.push(SlowEntry {
            request_id: ctx.request_id(),
            outcome,
            total_ns,
            spans: ctx.spans().to_vec(),
        });
        entries.sort_by_key(|e| std::cmp::Reverse(e.total_ns));
        entries.truncate(self.cap);
        if entries.len() >= self.cap {
            self.floor_ns
                .store(entries.last().map_or(0, |e| e.total_ns), Ordering::Relaxed);
        }
        true
    }

    pub fn entries(&self) -> Vec<SlowEntry> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// JSON array of retained entries, slowest first, sorted keys.
    pub fn to_json(&self) -> Value {
        Value::Array(self.entries().iter().map(SlowEntry::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Stage;

    fn ctx(id: u64) -> TraceCtx {
        let mut c = TraceCtx::new(id);
        c.span_with(Stage::Search, 0, id * 100, 0);
        c
    }

    #[test]
    fn retains_slowest_n_in_order() {
        let log = SlowLog::new(3);
        for (id, total) in [(1u64, 50u64), (2, 500), (3, 10), (4, 900), (5, 300)] {
            log.offer(&ctx(id), Outcome::Served, total);
        }
        let totals: Vec<u64> = log.entries().iter().map(|e| e.total_ns).collect();
        assert_eq!(totals, vec![900, 500, 300]);
        // Fast-path rejection: below the floor (300) is refused outright.
        assert!(!log.offer(&ctx(6), Outcome::Served, 299));
        assert!(log.offer(&ctx(7), Outcome::Served, 301));
        let ids: Vec<u64> = log.entries().iter().map(|e| e.request_id).collect();
        assert_eq!(ids, vec![4, 2, 7]);
    }

    /// Concurrent offers keep exactly the slowest `cap`, slowest first,
    /// each entry whole: its spans are the ones its own request recorded.
    #[test]
    fn concurrent_offers_keep_exactly_the_slowest_whole() {
        let log = SlowLog::new(16);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let log = &log;
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let id = t * 1000 + i;
                        let mut c = TraceCtx::new(id);
                        c.span_with(Stage::Decode, 0, id, id);
                        c.span_with(Stage::Search, id, 2 * id, id);
                        // Distinct totals, interleaved across threads.
                        log.offer(&c, Outcome::Fresh, i * 4 + t + 1);
                    }
                });
            }
        });
        let entries = log.entries();
        let totals: Vec<u64> = entries.iter().map(|e| e.total_ns).collect();
        let want: Vec<u64> = (0..16).map(|k| 800 - k).collect();
        assert_eq!(totals, want, "the 16 largest totals, slowest first");
        for e in &entries {
            let (t, i) = ((e.total_ns - 1) % 4, (e.total_ns - 1) / 4);
            assert_eq!(e.request_id, t * 1000 + i);
            let id = e.request_id;
            assert_eq!(
                e.spans,
                vec![
                    Span {
                        stage: Stage::Decode,
                        start_ns: 0,
                        dur_ns: id,
                        detail: id
                    },
                    Span {
                        stage: Stage::Search,
                        start_ns: id,
                        dur_ns: 2 * id,
                        detail: id
                    },
                ],
                "entry {id} carries another request's spans"
            );
        }
    }
}
