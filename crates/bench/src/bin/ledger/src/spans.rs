//! Span recorder for the traced run: spans are taken in the harness,
//! around calls into each layer's public functions, kept in memory and
//! written out once at exit.  Self time and the reconciliation against
//! a reference total are derived here.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.  `parent` indexes the recorder's span list;
/// spans of one request share `request_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span list on one clock.  The buffer is reused block after
/// block so the traced harness stays at a constant size.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Append a finished span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        request_id: u64,
    ) -> u32 {
        assert!(end_ns >= start_ns, "span {name} ends before it starts");
        let idx = u32::try_from(self.spans.len()).expect("span count fits u32");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        idx
    }

    /// Open a span whose end is not known yet (a parent recorded before
    /// its children); close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request_id: u64) -> u32 {
        let now = self.now();
        self.push(name, now, now, parent, request_id)
    }

    pub fn close(&mut self, idx: u32) {
        let now = self.now();
        self.spans[idx as usize].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, start, end, parent, request_id);
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted
/// once; a child reaching outside its parent is clipped).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals over one span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Layer self times shown against a reference total: the share they
/// explain and the remainder nothing is named for.  The remainder is
/// reported as measured, negative included — it is never clamped away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reconciliation {
    pub attributed_share: f64,
    pub unattributed_ns: f64,
}

pub fn reconcile(layer_self_ns: &[f64], reference_ns: f64) -> Reconciliation {
    let attributed: f64 = layer_self_ns.iter().sum();
    Reconciliation {
        attributed_share: attributed / reference_ns,
        unattributed_ns: reference_ns - attributed,
    }
}

/// The span list as a JSON document (columnar, so a block of tens of
/// thousands of spans stays a few megabytes).
pub fn to_json(spans: &[Span]) -> Value {
    let selfs = self_times(spans);
    json!({
        "columns": ["name", "start_ns", "end_ns", "parent", "request_id", "self_ns"],
        "spans": spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                json!([
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map(u64::from),
                    s.request_id,
                    self_ns
                ])
            })
            .collect::<Vec<_>>(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // root [0,100] > serve [10,90] > search [20,70]
        let spans = [
            span("root", 0, 100, None),
            span("serve", 10, 90, Some(0)),
            span("search", 20, 70, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 50]);
        let sum = summarize(&spans);
        assert_eq!(
            sum["serve"],
            Totals {
                count: 1,
                total_ns: 80,
                self_ns: 30
            }
        );
        // Self times of a tree add up to the root's duration.
        assert_eq!(sum.values().map(|t| t.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Children [10,40] and [30,60] overlap on [30,40]; [90,120]
        // sticks out of the parent and only [90,100] counts; the
        // zero-length child covers nothing.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
            span("d", 50, 50, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn children_listed_before_or_after_their_parent_both_work() {
        let spans = [
            span("child", 5, 10, Some(1)),
            span("root", 0, 20, None),
            span("child", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![5, 9, 6]);
        assert_eq!(summarize(&spans)["child"].count, 2);
    }

    #[test]
    fn reconciliation_reports_the_remainder() {
        let r = reconcile(&[3000.0, 2000.0, 1800.0], 10_000.0);
        assert!((r.attributed_share - 0.68).abs() < 1e-12);
        assert!((r.unattributed_ns - 3200.0).abs() < 1e-9);
        // Over-attribution shows as a negative remainder, not as zero.
        assert!(reconcile(&[12.0], 10.0).unattributed_ns < 0.0);
    }

    #[test]
    fn recorder_times_closures_and_open_spans() {
        let mut rec = Recorder::new();
        let root = rec.open("root", None, 7);
        let v = rec.time("inner", Some(root), 7, || 42);
        rec.close(root);
        assert_eq!(v, 42);
        let (r, i) = (&rec.spans[0], &rec.spans[1]);
        assert!(r.start_ns <= i.start_ns && i.end_ns <= r.end_ns);
        assert_eq!((i.parent, i.request_id), (Some(0), 7));
        let doc = to_json(&rec.spans);
        assert_eq!(doc["spans"].as_array().map(Vec::len), Some(2));
    }
}
