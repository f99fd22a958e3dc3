//! The network daemon: `lec-serviced` wraps one `ConcurrentPlanServer`
//! behind a length-prefixed binary protocol, here served over a real
//! Unix socket in a temp directory.
//!
//! Two clients connect.  One pumps single requests through the retrying
//! `optimize` call; the other pipelines a whole batch in one write.
//! Every response that crosses the wire is decoded and checked
//! byte-identical to a fresh in-process `Optimizer::optimize` of the
//! same request.  A control client then fetches the merged
//! service+daemon metrics and asks the daemon to drain; `run` returns a
//! `DrainReport` once the last in-flight request finishes.
//!
//! ```text
//! cargo run --example daemon --release
//! ```

use std::os::unix::net::{UnixListener, UnixStream};

use lec_qopt::catalog::CatalogGenerator;
use lec_qopt::core::{Mode, Optimizer};
use lec_qopt::plan::{Query, QueryProfile, WorkloadGenerator};
use lec_qopt::prob::presets;
use lec_qopt::service::ConcurrentPlanServer;
use lec_qopt::serviced::{Client, Daemon, DaemonConfig, UnixAcceptor};

const ROUNDS: usize = 3;

fn main() {
    let mut gen = CatalogGenerator::new(42);
    let catalog = gen.generate(10);
    let mut wg = WorkloadGenerator::new(7);
    let queries: Vec<Query> = (0..4)
        .map(|_| {
            let ids = gen.pick_tables(&catalog, 4);
            wg.gen_query(&catalog, &ids, &QueryProfile::default())
        })
        .collect();

    let memory = presets::spread_family(600.0, 0.6, 4).unwrap();
    let server = ConcurrentPlanServer::new(&catalog, memory.clone());
    let fresh = Optimizer::new(&catalog, memory);

    // A real Unix socket: the same bytes a cross-process client would see.
    let path = std::env::temp_dir().join(format!("lec-daemon-example-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixAcceptor::new(UnixListener::bind(&path).unwrap()).unwrap();
    let daemon = Daemon::new(&server, DaemonConfig::default());

    let report = std::thread::scope(|scope| {
        let handle = scope.spawn(|| daemon.run(&listener));

        // Client 0: one request at a time, transient refusals retried
        // with jittered backoff (none expected at this load).
        let dial = || Box::new(UnixStream::connect(&path).unwrap());
        let mut single = Client::new(dial(), 0xA11CE);
        let mut served = 0usize;
        for round in 0..ROUNDS {
            for (k, q) in queries.iter().enumerate() {
                let id = (round * queries.len() + k) as u64;
                let resp = single.optimize(id, &Mode::AlgorithmC, q).unwrap();
                let check = fresh.optimize(q, &Mode::AlgorithmC).unwrap();
                assert_eq!(resp.plan, check.plan, "wire plan must match fresh");
                assert_eq!(resp.cost.to_bits(), check.cost.to_bits());
                served += 1;
                if round == 0 {
                    println!(
                        "  single #{id}: {:<12} {:>8.0}us  {}",
                        resp.decision.name(),
                        resp.stats.elapsed.as_secs_f64() * 1e6,
                        resp.plan.compact()
                    );
                }
            }
        }

        // Client 1: the whole warm stream as one pipelined batch — one
        // write, N in-order replies.
        let mut batcher = Client::new(dial(), 0xB47C4);
        let batch: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(k, q)| (1000 + k as u64, Mode::AlgorithmC, q.clone()))
            .collect();
        for outcome in batcher.optimize_batch(&batch).unwrap() {
            let resp = outcome.expect("warm batch request refused");
            assert!(resp.stats.elapsed.as_secs_f64() < 1.0);
            served += 1;
        }
        println!("\nbatched {} warm requests in one write", batch.len());

        // Control client: metrics, then drain.  DRAIN_OK acknowledges;
        // the daemon finishes in-flight work and `run` returns.
        let mut ctl = Client::new(dial(), 0xC7A1);
        let metrics = ctl.stats().unwrap();
        assert!(metrics.contains("\"daemon\"") && metrics.contains("\"service\""));
        ctl.drain().unwrap();
        let report = handle.join().unwrap();
        println!("served {served} requests over the socket");
        report
    });
    let _ = std::fs::remove_file(&path);

    println!(
        "drained in {:.1}ms ({} forced aborts)",
        report.drain_duration.as_secs_f64() * 1e3,
        report.forced_aborts
    );
    println!("\nmetrics at drain: {}", report.metrics);

    let m = &report.metrics["daemon"];
    assert_eq!(m["requests_ok"].as_f64(), Some((ROUNDS * 4 + 4) as f64));
    assert_eq!(m["requests_err"].as_f64(), Some(0.0));
    assert_eq!(m["shed_requests"].as_f64(), Some(0.0));
    assert_eq!(m["connections_active"].as_f64(), Some(0.0));
}
