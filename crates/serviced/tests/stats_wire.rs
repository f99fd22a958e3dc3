//! `STATS` over the wire: the JSON snapshot a client fetches must be
//! byte-identical to the daemon's in-process `metrics_json` document at
//! a quiescent moment, the Prometheus exposition must parse line by
//! line as that same document's numeric leaves, the daemon's request
//! traces (kept by the slow log) must bracket the serving layer's spans
//! with decode and flush, and the drain report's metrics, flattened, must
//! carry the telemetry snapshot under its namespace.  The
//! always-zero pruning counters still cross a response round trip.

use lec_core::Mode;
use lec_service::ConcurrentPlanServer;
use lec_serviced::protocol::{decode_response, encode_response, Reader, Writer};
use lec_serviced::{Client, Daemon, DaemonConfig, StatsFormat};
use lec_telemetry::{flatten, parse_prometheus, Outcome, Stage, Telemetry};
use std::sync::Arc;

mod common;
use common::Socket;

#[test]
fn stats_cross_the_wire_and_agree_with_in_process_snapshots() {
    let (cat, q) = lec_core::fixtures::three_chain();
    let memory = lec_prob::presets::spread_family(400.0, 0.6, 4).unwrap();
    let tel = Arc::new(Telemetry::on());
    let server = ConcurrentPlanServer::new(&cat, memory).with_telemetry(Arc::clone(&tel));
    let daemon = Daemon::new(&server, DaemonConfig::default());
    let socket = Socket::bind();

    std::thread::scope(|scope| {
        let runner = scope.spawn(|| daemon.run(&socket.acceptor));
        let mut client = Client::new(Box::new(socket.connect()), 7);
        // One cold request, then a warm hit of the same query — both
        // traced by the daemon.
        client.optimize(1, &Mode::AlgorithmC, &q).expect("cold");
        client.optimize(2, &Mode::AlgorithmC, &q).expect("warm");

        // Wire JSON == in-process JSON, byte for byte: the STATS handler
        // serializes the same sorted-key document `metrics_json` builds,
        // and nothing moves between the two snapshots.
        let wire_json = client.stats(StatsFormat::Json).expect("stats json");
        let local_json = serde_json::to_string(&daemon.metrics_json()).unwrap();
        assert_eq!(
            wire_json, local_json,
            "wire and in-process snapshots differ"
        );
        assert!(wire_json.contains("\"telemetry\""));

        // The served telemetry document holds exactly what a server can
        // fill: latency histograms and the slow log.  No served request
        // executes a plan, so it has no calibration or I/O section, and
        // the optimizer sees no telemetry, so it has no engine section.
        // An empty latency histogram crosses the wire as a literal with
        // `_ns` keys.
        let local = daemon.metrics_json();
        let serde_json::Value::Object(sections) = &local["service"]["telemetry"] else {
            panic!("service.telemetry is not an object: {local_json}");
        };
        let keys: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["latency", "trace"]);
        let pinned_shed = "\"shed\": {\"count\": 0, \"mean_ns\": 0, \"p50_ns\": 0, \
             \"p90_ns\": 0, \"p999_ns\": 0, \"p99_ns\": 0, \"sum_ns\": 0}";
        assert!(
            wire_json.contains(pinned_shed),
            "wire snapshot lost the pinned empty shed histogram\n  want: \
             {pinned_shed}\n  got:  {wire_json}"
        );

        // The cache section, byte for byte: one miss then one hit, keys
        // sorted, and no `coalesced_followers` or `revalidated` key (the
        // always-zero fields behind them are shims for the frozen
        // benchmark, not metrics).
        let pinned_cache = "\"cache\": {\"evictions\": 0, \"hit_rate\": 0.5, \
             \"insertions\": 1, \"lookups\": 2, \"recomputed\": 1, \
             \"refusals\": {\"too_many_permutations\": 0, \"too_many_tables\": 0, \
             \"twin_tables\": 0}, \"served\": 1, \"uncacheable\": 0}";
        assert!(
            wire_json.contains(pinned_cache),
            "wire snapshot lost the pinned cache section\n  want: {pinned_cache}\n  got:  {wire_json}"
        );

        // Both requests recorded under their outcome classes and retained
        // in the slow log, bracketed by the daemon's decode/flush spans
        // around the serving layer's probe/search spans.
        assert_eq!(tel.outcome_snapshot(Outcome::Fresh).count(), 1);
        assert_eq!(tel.outcome_snapshot(Outcome::Served).count(), 1);
        let traces = tel.slow_log().entries();
        assert_eq!(traces.len(), 2);
        let find = |req_id: u64| traces.iter().find(|e| e.request_id == req_id);
        for req_id in [1u64, 2] {
            let rec = find(req_id).expect("request traced");
            assert!(rec.spans.iter().any(|s| s.stage == Stage::Decode));
            assert!(rec.spans.iter().any(|s| s.stage == Stage::CacheProbe));
            assert!(rec.spans.iter().any(|s| s.stage == Stage::Flush));
            let span_sum: u64 = rec.spans.iter().map(|s| s.dur_ns).sum();
            assert!(
                span_sum <= rec.total_ns,
                "request {req_id}: stage spans ({span_sum} ns) exceed wall time ({} ns)",
                rec.total_ns
            );
        }
        let cold = find(1).expect("cold trace");
        assert!(
            cold.spans.iter().any(|s| s.stage == Stage::Search),
            "the cold request ran a traced search"
        );

        // Prometheus exposition parses and exposes both layers, the
        // telemetry snapshot under its flattened document path.
        let prom = client.stats(StatsFormat::Prometheus).expect("stats prom");
        let samples = parse_prometheus(&prom).expect("exposition parses");
        assert!(samples
            .iter()
            .any(|s| s.name == "lec_daemon_requests_ok" && s.value == 2.0));
        assert!(samples
            .iter()
            .any(|s| s.name == "lec_service_telemetry_latency_served_count" && s.value == 1.0));

        client.drain().expect("drain");
        let report = runner.join().expect("daemon thread");
        let counters = flatten(&report.metrics);
        assert!(counters
            .iter()
            .any(|(k, v)| k == "daemon.requests_ok" && *v == 2.0));
        assert!(counters
            .iter()
            .any(|(k, v)| k == "service.telemetry.latency.served.count" && *v == 1.0));
    });
}

/// No served search prunes, so the four `SearchStats` pruning counters
/// read 0 and the metrics document has no pruning section; the counters
/// stay on the wire for the frozen benchmark, each value crossing a
/// response round trip in its own slot.
#[test]
fn the_frozen_pruning_counters_still_round_trip() {
    let (cat, q) = lec_core::fixtures::pruning_star(9);
    let memory = lec_prob::presets::spread_family(400.0, 0.5, 4).unwrap();
    let server = ConcurrentPlanServer::new(&cat, memory);
    let mut resp = server.serve(&q, &Mode::AlgorithmC).expect("fresh search");
    let pruning = |s: &lec_core::SearchStats| {
        [
            s.pruned_subsets,
            s.bound_evals,
            s.sharp_bound_evals,
            s.cheap_bound_skips,
        ]
    };
    assert_eq!(pruning(&resp.stats), [0; 4]);
    let metrics = serde_json::to_string(&server.metrics_json()).unwrap();
    assert!(!metrics.contains("pruning"), "{metrics}");

    [
        resp.stats.pruned_subsets,
        resp.stats.bound_evals,
        resp.stats.sharp_bound_evals,
        resp.stats.cheap_bound_skips,
    ] = [11, 22, 33, 44];
    let mut w = Writer::new();
    encode_response(&mut w, &resp);
    let bytes = w.into_bytes();
    let back = decode_response(&mut Reader::new(&bytes)).expect("decodes");
    assert_eq!(pruning(&back.stats), [11, 22, 33, 44]);
}
