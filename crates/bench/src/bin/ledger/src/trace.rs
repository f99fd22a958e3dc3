//! The traced run: per-layer metrics, taken from outside.
//!
//! Nothing inside the program is instrumented.  The harness times its
//! own calls into each layer's public functions and replays every list
//! two ways, round after round, so host drift is shared between them:
//!
//! * **stepwise, in process** — encode → decode → `serve` → encode →
//!   decode, one span each under a `request` root.  `serve` is opaque
//!   from outside, so the layers beneath it are timed by calling the
//!   same public function on the same input just outside the request
//!   (`canonical_form`, `PlanNode::relabel_tables`) or taken from the
//!   oracle's bare `Optimizer::optimize` of the same request, and laid
//!   inside the `serve` span as its children (cut to fit, so self times
//!   always add up to the root).  What is left of a hit is
//!   `service.hit_self_ns`; what is left of a miss is
//!   `service.miss_overhead_ns`.
//! * **over the wire** — plain (the reference round trip and every
//!   count), with a client-side span per write (tracing overhead), and
//!   against a server with `lec-telemetry` installed (its overhead).
//!
//! The wire timings are reduced like the end-to-end ones (the composite
//! of the blocks), the stepwise ones to the best block of each metric.
//! Counts are per block and must be equal in every block.

use crate::harness::{
    fill, new_server, replay, replay_counted, state_violation, with_instance, CacheDelta, Live,
};
use crate::oracle::{fresh_optimizer, Oracle};
use crate::spans::{reconcile, summarize, to_json, Recorder, Span, Totals};
use crate::stats::{reduce, Composite};
use crate::workloads::{memory, Lifetime, Workload, MIN_TRACED_ROUNDS};
use crate::{Metric, Report, Res};
use lec_core::{Mode, SearchStats};
use lec_cost::CostModel;
use lec_plan::{JoinMethod, PlanNode, Query};
use lec_service::{canonical_form, CacheDecision, ConcurrentPlanServer, ServeResponse};
use lec_serviced::protocol::{self, op, DecodeError, Reader, Writer};
use serde_json::json;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Extra timing passes of the oracle over the distinct requests, so
/// `core.optimize_us` is a best-of-three.
pub const ORACLE_EXTRA_PASSES: usize = 2;

// The client's and the daemon's framing, written against the public
// protocol module (the client's own encoder is private).

fn encode_request(id: u64, mode: &Mode, query: &Query) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(id);
    protocol::encode_mode(&mut w, mode);
    protocol::encode_query(&mut w, query);
    protocol::frame(op::OPTIMIZE, &w.into_bytes())
}

/// Skip the length prefix and the opcode byte of a frame built here.
fn body(frame: &[u8]) -> &[u8] {
    &frame[5..]
}

fn decode_request(frame: &[u8]) -> Result<(u64, Mode, Query), DecodeError> {
    let mut r = Reader::new(body(frame));
    let id = r.u64()?;
    let mode = protocol::decode_mode(&mut r)?;
    let query = protocol::decode_query(&mut r)?;
    r.finish()?;
    Ok((id, mode, query))
}

fn encode_response(id: u64, resp: &ServeResponse) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(id);
    protocol::encode_response(&mut w, resp);
    protocol::frame(op::OPTIMIZE_OK, &w.into_bytes())
}

fn decode_response(frame: &[u8]) -> Result<(u64, ServeResponse), DecodeError> {
    let mut r = Reader::new(body(frame));
    let id = r.u64()?;
    let resp = protocol::decode_response(&mut r)?;
    r.finish()?;
    Ok((id, resp))
}

/// One stepwise replay of the list.
struct StepBlock {
    totals: BTreeMap<&'static str, Totals>,
    bytes_in: u64,
    bytes_out: u64,
}

/// Replay the list step by step against an in-process server, one span
/// per step.  Returns the failed operations.
fn stepwise(
    server: &ConcurrentPlanServer,
    w: &Workload,
    oracle: &Oracle,
    rec: &mut Recorder,
) -> Res<(StepBlock, u64)> {
    rec.spans.clear();
    let (mut bytes_in, mut bytes_out, mut failed) = (0u64, 0u64, 0u64);
    for (i, (id, mode, query)) in w.requests.iter().enumerate() {
        let id = *id;
        let t = rec.now();
        let form = canonical_form(&w.catalog, query);
        let canon_ns = rec.now() - t;

        let root = rec.open("request", None, id);
        let sent = rec.time("serviced.encode_request", Some(root), id, || {
            encode_request(id, mode, query)
        });
        let (rid, dmode, dquery) = rec
            .time("serviced.decode_request", Some(root), id, || {
                decode_request(&sent)
            })
            .map_err(|e| format!("request {id}: decode: {e}"))?;
        let serve_start = rec.now();
        let resp = server
            .serve(&dquery, &dmode)
            .map_err(|e| format!("request {id}: serve: {e}"))?;
        let serve_end = rec.now();
        let reply = rec.time("serviced.encode_response", Some(root), id, || {
            encode_response(rid, &resp)
        });
        let (_, back) = rec
            .time("serviced.decode_response", Some(root), id, || {
                decode_response(&reply)
            })
            .map_err(|e| format!("request {id}: decode reply: {e}"))?;
        rec.close(root);

        bytes_in += sent.len() as u64;
        bytes_out += reply.len() as u64;
        if !oracle.expected[i].matches(&back) {
            eprintln!("request {id}: stepwise response differs from the oracle");
            failed += 1;
        }

        let hit = resp.decision == CacheDecision::Served;
        let name = if hit {
            "service.serve_hit"
        } else {
            "service.serve_miss"
        };
        let serve = Some(rec.push(name, serve_start, serve_end, Some(root), id));
        let lay = |rec: &mut Recorder, name, from: u64, ns: u64| {
            let end = (from + ns).min(serve_end);
            rec.push(name, from, end, serve, id);
            end
        };
        let after_canon = lay(rec, "canon.canonical_form", serve_start, canon_ns);
        match (hit, form) {
            (false, _) => {
                lay(rec, "core.optimize", after_canon, oracle.fresh_ns[i]);
            }
            (true, Ok(form)) => {
                // What the hit path does with the cached plan: carry it
                // from canonical numbering into the caller's.
                let cached = back.plan.relabel_tables(&form.perm);
                let t = rec.now();
                black_box(cached.relabel_tables(&form.inverse_perm()));
                let relabel_ns = rec.now() - t;
                let from = serve_end.saturating_sub(relabel_ns).max(after_canon);
                lay(rec, "plan.relabel_tables", from, relabel_ns);
            }
            (true, Err(_)) => return Err(format!("request {id}: hit on a refused shape")),
        }
    }
    let block = StepBlock {
        totals: summarize(&rec.spans),
        bytes_in,
        bytes_out,
    };
    Ok((block, failed))
}

/// The work counters of one block's searches.
fn search_counts(s: &SearchStats) -> [u64; 10] {
    [
        s.nodes as u64,
        s.candidates,
        s.evals,
        s.cache_hits,
        s.memo_hits,
        s.memo_misses,
        s.pruned_subsets,
        s.bound_evals,
        s.sharp_bound_evals,
        s.cheap_bound_skips,
    ]
}

/// Everything counted in one plain wire block.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Counts {
    cache: CacheDelta,
    cache_entries: u64,
    search: [u64; 10],
    shed: u64,
    deadline_exceeded: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Plain,
    Spans,
    Telemetry,
}

/// Per-round values and the spans of the best blocks.
struct Rounds {
    step: Vec<StepBlock>,
    plain: Composite,
    spans: Composite,
    telemetry: Composite,
    busy_share: Vec<f64>,
    counts: Option<Counts>,
    attempted: u64,
    failed: u64,
    lat: Vec<u64>,
    rec: Recorder,
    best_step: (u64, Vec<Span>),
    best_wire: (u64, Vec<Span>),
}

impl Rounds {
    fn new() -> Self {
        Rounds {
            step: Vec::new(),
            plain: Composite::default(),
            spans: Composite::default(),
            telemetry: Composite::default(),
            busy_share: Vec::new(),
            counts: None,
            attempted: 0,
            failed: 0,
            lat: Vec::new(),
            rec: Recorder::new(),
            best_step: (u64::MAX, Vec::new()),
            best_wire: (u64::MAX, Vec::new()),
        }
    }

    fn step(&mut self, server: &ConcurrentPlanServer, w: &Workload, oracle: &Oracle) -> Res<()> {
        let (block, failed) = stepwise(server, w, oracle, &mut self.rec)?;
        self.attempted += w.requests.len() as u64;
        self.failed += failed;
        let total = block.totals["request"].total_ns;
        if total < self.best_step.0 {
            self.best_step.0 = total;
            std::mem::swap(&mut self.best_step.1, &mut self.rec.spans);
        }
        self.step.push(block);
        Ok(())
    }

    fn wire(&mut self, live: &mut Live, w: &Workload, oracle: &Oracle, v: Variant) -> Res<()> {
        self.rec.spans.clear();
        let rec = (v == Variant::Spans).then_some(&mut self.rec);
        let (block, delta) = replay_counted(live, w, oracle, &mut self.lat, rec)?;
        self.attempted += block.attempted;
        self.failed += block.failed;
        match v {
            Variant::Plain => {
                self.plain.absorb(&self.lat, block.wall_ns);
                self.busy_share
                    .push(block.searched.elapsed.as_nanos() as f64 / block.wall_ns as f64);
                let counts = Counts {
                    cache: delta,
                    cache_entries: live.server.metrics_json()["cache_entries"]
                        .as_f64()
                        .ok_or("metrics_json has no cache_entries")?
                        as u64,
                    search: search_counts(&block.searched),
                    shed: live.daemon.shed_requests(),
                    deadline_exceeded: live.daemon.deadline_expirations(),
                };
                let first = *self.counts.get_or_insert(counts);
                if let Some(why) = state_violation(w, &delta, &first.cache) {
                    eprintln!("{why}");
                    self.failed += 1;
                }
                if counts != first {
                    eprintln!(
                        "{}: counts differ between blocks: {counts:?} vs {first:?}",
                        w.name
                    );
                    self.failed += 1;
                }
            }
            Variant::Spans => {
                self.spans.absorb(&self.lat, block.wall_ns);
                if block.wall_ns < self.best_wire.0 {
                    self.best_wire.0 = block.wall_ns;
                    std::mem::swap(&mut self.best_wire.1, &mut self.rec.spans);
                }
            }
            Variant::Telemetry => self.telemetry.absorb(&self.lat, block.wall_ns),
        }
        Ok(())
    }
}

/// Fill and one discarded block, so a long-lived instance is in the
/// state every timed block starts from.
fn settle(
    live: &mut Live,
    w: &Workload,
    oracle: &Oracle,
    lat: &mut Vec<u64>,
) -> Res<Vec<PlanNode>> {
    let served = fill(live, w, Some(oracle))?;
    replay(&mut live.client, w, Some(oracle), lat, None)?;
    Ok(served)
}

/// `CostModel::join_cost` over a fixed grid of methods, operand sizes
/// and memory values: nanoseconds per evaluation, best of five sweeps.
fn join_cost_ns(w: &Workload) -> f64 {
    let model = CostModel::new(&w.catalog, &w.requests[0].2);
    let sizes: Vec<f64> = (0..16).map(|k| 10.0 * 2f64.powi(k)).collect();
    let mem = memory();
    let evals = JoinMethod::ALL.len() * sizes.len() * sizes.len() * mem.support().len();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut sum = 0.0;
        for method in JoinMethod::ALL {
            for &outer in &sizes {
                for &inner in &sizes {
                    for &m in mem.support() {
                        sum += model.join_cost(method, black_box(outer), black_box(inner), m);
                    }
                }
            }
        }
        black_box(sum);
        best = best.min(t0.elapsed().as_nanos() as f64 / evals as f64);
    }
    best
}

/// `Optimizer::expected_cost_of` of each distinct request's plan:
/// nanoseconds per call, best of three passes.
fn expected_cost_of_ns(w: &Workload, oracle: &Oracle) -> f64 {
    let opt = fresh_optimizer(&w.catalog);
    let distinct = w.first_of_each_shape();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for &i in &distinct {
            black_box(opt.expected_cost_of(&w.requests[i].2, &oracle.expected[i].plan));
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / distinct.len() as f64);
    }
    best
}

pub fn traced(w: &Workload, oracle: &Oracle, seconds: f64, harness_s: f64) -> Res<Report> {
    let mut r = Rounds::new();
    let cap = w.time_cap(seconds);
    let started = Instant::now();
    // The ten rounds the per-layer figures need are always run; the cap
    // only sheds rounds beyond them.
    let rounds = || {
        (0..w.traced_rounds(seconds))
            .take_while(|r| *r < MIN_TRACED_ROUNDS || started.elapsed() < cap)
    };
    // The warm-up pass over the wire, and the plans it was served: the
    // dominance check runs in a traced run too.
    let served;
    match w.lifetime {
        Lifetime::Run => {
            let inproc = new_server(&w.catalog, w.cache_capacity);
            for (_, mode, query) in &w.requests {
                inproc.serve(query, mode).map_err(|e| e.to_string())?;
            }
            served = with_instance(w, false, |plain| {
                with_instance(w, true, |telemetry| {
                    let served = settle(plain, w, oracle, &mut r.lat)?;
                    settle(telemetry, w, oracle, &mut r.lat)?;
                    for _ in rounds() {
                        r.step(&inproc, w, oracle)?;
                        r.wire(plain, w, oracle, Variant::Plain)?;
                        r.wire(plain, w, oracle, Variant::Spans)?;
                        r.wire(telemetry, w, oracle, Variant::Telemetry)?;
                    }
                    Ok(served)
                })
            })?;
        }
        Lifetime::Block => {
            // One discarded block: the process's own warm-up (allocator,
            // page cache) for a workload whose servers never are warm.
            served = with_instance(w, false, |live| fill(live, w, Some(oracle)))?;
            for _ in rounds() {
                r.step(&new_server(&w.catalog, w.cache_capacity), w, oracle)?;
                for v in [Variant::Plain, Variant::Spans, Variant::Telemetry] {
                    with_instance(w, v == Variant::Telemetry, |live| {
                        r.wire(live, w, oracle, v)
                    })?;
                }
            }
        }
    }
    r.failed += oracle.cost_ratio(w, &served).dominance_violations;
    report(w, oracle, &r, harness_s)
}

fn report(w: &Workload, oracle: &Oracle, r: &Rounds, harness_s: f64) -> Res<Report> {
    let n = w.requests.len() as f64;
    // Best block of a span name: mean nanoseconds per occurrence, total
    // or self; 0 when the workload never enters that span.
    let per_occurrence = |name: &str, pick: fn(&Totals) -> u64| -> f64 {
        let values: Vec<f64> = r
            .step
            .iter()
            .filter_map(|b| b.totals.get(name))
            .filter(|t| t.count > 0)
            .map(|t| pick(t) as f64 / t.count as f64)
            .collect();
        if values.is_empty() {
            0.0
        } else {
            reduce(&values).best
        }
    };
    let total = |name: &str| per_occurrence(name, |t| t.total_ns);
    let own = |name: &str| per_occurrence(name, |t| t.self_ns);

    // Reconciliation: the layers' self times in the best stepwise block,
    // per request, against the best wire round trip.
    let best_step = r
        .step
        .iter()
        .min_by_key(|b| b.totals["request"].total_ns)
        .ok_or("no stepwise block")?;
    let layer_self: Vec<f64> = best_step
        .totals
        .iter()
        .filter(|(name, _)| **name != "request")
        .map(|(_, t)| t.self_ns as f64 / n)
        .collect();
    let roundtrip = r.plain.samples_ns() as f64 / n;
    let rec = reconcile(&layer_self, roundtrip);
    let in_process = best_step.totals["request"].total_ns as f64 / n;

    let rps = |c: &Composite| n / (c.wall_ns() as f64 / 1e9);
    let counts = r.counts.ok_or("no plain wire block")?;
    let c = counts.cache;
    let [nodes, candidates, evals, eval_hits, memo_hits, memo_misses, pruned, bound_evals, sharp, cheap] =
        counts.search;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    // Bare optimizer times over the distinct requests, by mode.
    let distinct = w.first_of_each_shape();
    let optimize_us = |mode: Option<&str>| -> f64 {
        let picked: Vec<f64> = distinct
            .iter()
            .filter(|&&i| mode.is_none_or(|m| w.requests[i].1.name() == m))
            .map(|&i| oracle.fresh_ns[i] as f64 / 1e3)
            .collect();
        if picked.is_empty() {
            0.0
        } else {
            picked.iter().sum::<f64>() / picked.len() as f64
        }
    };
    let fresh_total_ns: u64 = distinct.iter().map(|&i| oracle.fresh_ns[i]).sum();
    let fresh_candidates: u64 = distinct
        .iter()
        .map(|&i| oracle.fresh_stats[i].candidates)
        .sum();

    let m = Metric::new;
    let metrics = vec![
        m(
            "serviced.encode_request_ns",
            total("serviced.encode_request"),
            "ns",
        ),
        m(
            "serviced.decode_request_ns",
            total("serviced.decode_request"),
            "ns",
        ),
        m(
            "serviced.encode_response_ns",
            total("serviced.encode_response"),
            "ns",
        ),
        m(
            "serviced.decode_response_ns",
            total("serviced.decode_response"),
            "ns",
        ),
        m("serviced.wire_roundtrip_ns", roundtrip, "ns"),
        m(
            "serviced.transport_unattributed_ns",
            roundtrip - in_process,
            "ns",
        ),
        m(
            "serviced.bytes_in_per_req",
            best_step.bytes_in as f64 / n,
            "B",
        ),
        m(
            "serviced.bytes_out_per_req",
            best_step.bytes_out as f64 / n,
            "B",
        ),
        m("serviced.shed", counts.shed as f64, "count"),
        m(
            "serviced.deadline_exceeded",
            counts.deadline_exceeded as f64,
            "count",
        ),
        m(
            "canon.canonical_form_ns",
            total("canon.canonical_form"),
            "ns",
        ),
        m(
            "canon.refused_too_many_tables",
            c.refused_too_many_tables as f64,
            "count",
        ),
        m(
            "canon.refused_too_many_permutations",
            c.refused_too_many_permutations as f64,
            "count",
        ),
        m(
            "canon.refused_twin_tables",
            c.refused_twin_tables as f64,
            "count",
        ),
        m("service.serve_hit_ns", total("service.serve_hit"), "ns"),
        m("service.hit_self_ns", own("service.serve_hit"), "ns"),
        m("service.serve_miss_ns", total("service.serve_miss"), "ns"),
        m("service.miss_overhead_ns", own("service.serve_miss"), "ns"),
        m("service.lookups", c.lookups as f64, "count"),
        m("service.served", c.served as f64, "count"),
        m("service.recomputed", c.recomputed as f64, "count"),
        m("service.uncacheable", c.uncacheable as f64, "count"),
        m("service.insertions", c.insertions as f64, "count"),
        m("service.evictions", c.evictions as f64, "count"),
        m(
            "service.coalesced_followers",
            c.coalesced_followers as f64,
            "count",
        ),
        m(
            "service.hit_rate",
            ratio(c.served, c.lookups - c.uncacheable),
            "share",
        ),
        m(
            "service.cache_entries",
            counts.cache_entries as f64,
            "count",
        ),
        m("plan.relabel_tables_ns", total("plan.relabel_tables"), "ns"),
        m("core.optimize_us", optimize_us(None), "us"),
        m("core.optimize_us.algc", optimize_us(Some("AlgC")), "us"),
        m(
            "core.optimize_us.algc_dyn",
            optimize_us(Some("AlgC-dyn")),
            "us",
        ),
        m("core.optimize_us.algd", optimize_us(Some("AlgD")), "us"),
        m("core.optimize_us.algb", optimize_us(Some("AlgB")), "us"),
        m("core.optimize_us.bushy", optimize_us(Some("Bushy")), "us"),
        m("core.optimize_us.lsc", optimize_us(Some("LSC(mean)")), "us"),
        m(
            "core.optimize_busy_share",
            reduce(&r.busy_share).best,
            "share",
        ),
        m(
            "core.ns_per_candidate",
            ratio(fresh_total_ns, fresh_candidates),
            "ns",
        ),
        m("search.nodes", nodes as f64, "count"),
        m("search.candidates", candidates as f64, "count"),
        m("search.pruned_subsets", pruned as f64, "count"),
        m(
            "search.pruned_share",
            ratio(pruned, pruned + nodes),
            "share",
        ),
        m("search.bound_evals", bound_evals as f64, "count"),
        m("search.sharp_bound_evals", sharp as f64, "count"),
        m("search.cheap_bound_skips", cheap as f64, "count"),
        m("search.memo_hits", memo_hits as f64, "count"),
        m("search.memo_misses", memo_misses as f64, "count"),
        m("cost.evals", evals as f64, "count"),
        m("cost.eval_cache_hits", eval_hits as f64, "count"),
        m(
            "cost.eval_cache_hit_rate",
            ratio(eval_hits, eval_hits + evals),
            "share",
        ),
        m("cost.join_cost_ns", join_cost_ns(w), "ns"),
        m(
            "cost.expected_cost_of_ns",
            expected_cost_of_ns(w, oracle),
            "ns",
        ),
        m(
            "telemetry.overhead_ratio",
            rps(&r.telemetry) / rps(&r.plain),
            "ratio",
        ),
        m("trace.attributed_share", rec.attributed_share, "share"),
        m("trace.unattributed_ns", rec.unattributed_ns, "ns"),
        m(
            "trace.overhead_ratio",
            rps(&r.spans) / rps(&r.plain),
            "ratio",
        ),
        m(
            "host_jitter",
            r.plain.median_wall_ns() / r.plain.wall_ns() as f64,
            "ratio",
        ),
        m("harness_s", harness_s, "s"),
        m("blocks", r.plain.blocks() as f64, "count"),
    ];

    std::fs::create_dir_all("results").map_err(|e| format!("create results/: {e}"))?;
    let path = format!("results/ledger_trace_{}.json", w.name);
    let doc = json!({
        "workload": w.name,
        "stepwise": to_json(&r.best_step.1),
        "wire": to_json(&r.best_wire.1),
    });
    std::fs::write(&path, doc.to_string()).map_err(|e| format!("write {path}: {e}"))?;

    let notes = vec![
        format!(
            "rounds {} (stepwise, wire, wire+spans, wire+telemetry) of {} requests at depth {}",
            r.step.len(),
            w.requests.len(),
            w.depth
        ),
        format!(
            "per request: wire round trip {:.0} ns = {:.0} ns in the named layers + {:.0} ns unattributed",
            roundtrip,
            roundtrip - rec.unattributed_ns,
            rec.unattributed_ns
        ),
        format!(
            "in-process stepwise request {in_process:.0} ns; plain wire {:.1} req/s",
            rps(&r.plain)
        ),
        format!("spans of the best blocks written to {path}"),
    ];
    Ok(Report {
        attempted: r.attempted,
        failed: r.failed,
        metrics,
        notes,
    })
}
