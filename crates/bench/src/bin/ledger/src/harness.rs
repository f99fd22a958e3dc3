//! Bringing the program up, replaying one block against it over the
//! socket, and reading its public counters.  Shared by the untraced and
//! the traced run.

use crate::oracle::Oracle;
use crate::spans::Recorder;
use crate::workloads::{memory, Placement, Workload};
use crate::Res;
use lec_catalog::Catalog;
use lec_core::search::{PersistentPool, SubplanMemo, WorkerPool};
use lec_core::{Optimizer, SearchStats};
use lec_plan::PlanNode;
use lec_service::{CacheDecision, CacheStats, ConcurrentPlanServer, ServeResponse};
use lec_serviced::{Client, ClientError, Daemon, DaemonConfig, DaemonMetrics, UnixAcceptor};
use lec_telemetry::Telemetry;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Apply the workload's [`Placement`] to the calling thread and, by
/// inheritance, to every thread the run spawns from here on.  Called
/// once, first thing, on the main thread.
pub fn place(placement: Placement) -> Res<()> {
    /// A `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    if placement == Placement::Host {
        return Ok(());
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), allowed.as_mut_ptr()) };
    let word = allowed.iter().position(|w| *w != 0);
    let (0, Some(word)) = (rc, word) else {
        return Err("sched_getaffinity failed".into());
    };
    let mut first: CpuSet = [0; 16];
    first[word] = 1 << allowed[word].trailing_zeros();
    // SAFETY: `first` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    match unsafe { sched_setaffinity(0, size_of::<CpuSet>(), first.as_ptr()) } {
        0 => Ok(()),
        _ => Err("sched_setaffinity failed".into()),
    }
}

/// The one place the program's configuration is written down: the
/// defaults of `ConcurrentPlanServer::new` (persistent worker pool sized
/// to the CPUs the thread may use, shared subplan memo) plus
/// branch-and-bound, with the cache capacity the workload states.
pub fn new_server(catalog: &Catalog, cache_capacity: usize) -> ConcurrentPlanServer<'_> {
    let pool: Arc<dyn WorkerPool> = Arc::new(PersistentPool::for_host());
    let optimizer = Optimizer::new(catalog, memory())
        .with_worker_pool(pool)
        .with_subplan_memo(Arc::new(SubplanMemo::default()))
        .with_pruning(true);
    ConcurrentPlanServer::with_optimizer(optimizer, cache_capacity)
}

/// A running program: server, daemon on a bound Unix socket, and the
/// one client connection the load comes from.
pub struct Live<'a> {
    pub server: &'a ConcurrentPlanServer<'a>,
    pub daemon: &'a DaemonMetrics,
    pub client: Client,
    /// When bring-up began; `started.elapsed()` once the caller has done
    /// the workload's fill is one `setup_s` sample.
    pub started: Instant,
}

/// Sockets live under `results/` in the working directory (already
/// git-ignored); the path is relative so its length does not depend on
/// where the checkout is.
fn socket_path() -> Res<std::path::PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::fs::create_dir_all("results").map_err(|e| format!("create results/: {e}"))?;
    let path = std::path::PathBuf::from(format!(
        "results/ledger-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&path);
    Ok(path)
}

/// Bring the program up, hand it to `body`, then drain it and check
/// that it closed cleanly.  (A shed or expired request already counted
/// as a failed operation where its error frame was read.)
pub fn with_instance<R>(
    w: &Workload,
    telemetry: bool,
    body: impl FnOnce(&mut Live) -> Res<R>,
) -> Res<R> {
    let started = Instant::now();
    let mut server = new_server(&w.catalog, w.cache_capacity);
    if telemetry {
        server = server.with_telemetry(Arc::new(Telemetry::on()));
    }
    let daemon = Daemon::new(&server, DaemonConfig::default());
    let path = socket_path()?;
    let listener = UnixListener::bind(&path).map_err(|e| format!("bind {path:?}: {e}"))?;
    let acceptor = UnixAcceptor::new(listener).map_err(|e| format!("acceptor: {e}"))?;

    let (result, report) = std::thread::scope(|scope| {
        let runner = scope.spawn(|| daemon.run(&acceptor));
        let result = UnixStream::connect(&path)
            .map_err(|e| format!("connect {path:?}: {e}"))
            .and_then(|stream| {
                body(&mut Live {
                    server: &server,
                    daemon: daemon.metrics(),
                    client: Client::new(Box::new(stream), 0x1ED6E4),
                    started,
                })
            });
        daemon.initiate_drain();
        (result, runner.join())
    });
    let _ = std::fs::remove_file(&path);
    let result = result?;
    let report = report.map_err(|_| "daemon thread panicked".to_string())?;
    let malformed = daemon.metrics().malformed_frames();
    if report.forced_aborts + malformed != 0 {
        return Err(format!(
            "daemon did not close cleanly: {} forced aborts, {malformed} malformed frames",
            report.forced_aborts
        ));
    }
    Ok(result)
}

/// The workload's cache fill: each distinct shape once, one round trip
/// each, every answer checked where there is an oracle.  Returns the
/// plans the server served, in `first_of_each_shape` order.
pub fn fill(live: &mut Live, w: &Workload, oracle: Option<&Oracle>) -> Res<Vec<PlanNode>> {
    w.first_of_each_shape()
        .into_iter()
        .map(|i| {
            let (id, mode, query) = &w.requests[i];
            let resp = live
                .client
                .optimize_once(*id, mode, query)
                .map_err(|e| format!("fill request {id}: {e}"))?;
            if oracle.is_some_and(|o| !o.expected[i].matches(&resp)) {
                return Err(format!("fill request {id} differs from the oracle"));
            }
            Ok(resp.plan)
        })
        .collect()
}

/// What one replay of the list produced, beyond the latencies.
#[derive(Debug, Default)]
pub struct Block {
    pub wall_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Summed `ServeResponse.stats` of the responses that ran a search.
    pub searched: SearchStats,
}

impl Block {
    fn take(&mut self, resp: Result<&ServeResponse, String>, i: usize, oracle: Option<&Oracle>) {
        self.attempted += 1;
        match resp {
            Ok(resp) if oracle.is_none_or(|o| o.expected[i].matches(resp)) => {
                if resp.decision != CacheDecision::Served {
                    self.searched.absorb(&resp.stats);
                }
            }
            Ok(_) => {
                eprintln!("request {i}: response differs from the oracle");
                self.failed += 1;
            }
            Err(e) => {
                eprintln!("request {i}: {e}");
                self.failed += 1;
            }
        }
    }
}

/// Replay the block's list once over the wire, closed loop, at the
/// workload's depth.  `lat` receives one sample per write: the time from
/// the write that carried a request to the read of its response (at
/// depth > 1 that is the batch's round trip, which every request in it
/// waited for).  A refusal is a failed operation, and so is an answer
/// that differs from the oracle's (the memory probe has none and checks
/// only that it was answered); a transport error ends the run.
pub fn replay(
    client: &mut Client,
    w: &Workload,
    oracle: Option<&Oracle>,
    lat: &mut Vec<u64>,
    mut spans: Option<&mut Recorder>,
) -> Res<Block> {
    lat.clear();
    let mut block = Block::default();
    let t0 = Instant::now();
    for (b, batch) in w.requests.chunks(w.depth).enumerate() {
        let base = b * w.depth;
        let start = spans.as_ref().map(|r| r.now());
        let sent = Instant::now();
        if let [(id, mode, query)] = batch {
            let resp = match client.optimize_once(*id, mode, query) {
                Ok(resp) => Ok(resp),
                Err(ClientError::Server(e)) => Err(e.to_string()),
                Err(e) => return Err(format!("request {id}: {e}")),
            };
            lat.push(sent.elapsed().as_nanos() as u64);
            block.take(resp.as_ref().map_err(Clone::clone), base, oracle);
        } else {
            let resps = client
                .optimize_batch(batch)
                .map_err(|e| format!("batch at request {base}: {e}"))?;
            lat.push(sent.elapsed().as_nanos() as u64);
            for (k, resp) in resps.iter().enumerate() {
                block.take(resp.as_ref().map_err(|e| e.to_string()), base + k, oracle);
            }
        }
        if let (Some(rec), Some(start), Some(waited)) = (spans.as_deref_mut(), start, lat.last()) {
            rec.push(
                "serviced.wire_roundtrip",
                start,
                start + waited,
                None,
                base as u64,
            );
        }
    }
    block.wall_ns = t0.elapsed().as_nanos() as u64;
    Ok(block)
}

/// The difference of two `cache_stats()` snapshots: what one block did
/// to the cache.  Counts, so equal from block to block and run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheDelta {
    pub lookups: u64,
    pub served: u64,
    pub recomputed: u64,
    pub uncacheable: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub coalesced_followers: u64,
    pub refused_too_many_tables: u64,
    pub refused_too_many_permutations: u64,
    pub refused_twin_tables: u64,
}

impl CacheDelta {
    pub fn between(before: &CacheStats, after: &CacheStats) -> Self {
        CacheDelta {
            lookups: after.lookups - before.lookups,
            served: after.served - before.served,
            // A miss is a miss whether or not the weak index guessed
            // its plan.
            recomputed: (after.recomputed + after.revalidated)
                - (before.recomputed + before.revalidated),
            uncacheable: after.uncacheable - before.uncacheable,
            insertions: after.insertions - before.insertions,
            evictions: after.evictions - before.evictions,
            coalesced_followers: after.coalesced_followers - before.coalesced_followers,
            refused_too_many_tables: after.refused_too_many_tables - before.refused_too_many_tables,
            refused_too_many_permutations: after.refused_too_many_permutations
                - before.refused_too_many_permutations,
            refused_twin_tables: after.refused_twin_tables - before.refused_twin_tables,
        }
    }

    pub fn hit_share(&self) -> f64 {
        self.served as f64 / self.lookups as f64
    }
}

/// Replay one block and return it with what it did to the cache.
pub fn replay_counted(
    live: &mut Live,
    w: &Workload,
    oracle: &Oracle,
    lat: &mut Vec<u64>,
    spans: Option<&mut Recorder>,
) -> Res<(Block, CacheDelta)> {
    let before = live.server.cache_stats();
    let block = replay(&mut live.client, w, Some(oracle), lat, spans)?;
    let delta = CacheDelta::between(&before, &live.server.cache_stats());
    Ok((block, delta))
}

/// The cache state each workload exists to produce; a block that is not
/// in it measured something else, and counts as a failed operation.
pub fn state_violation(w: &Workload, delta: &CacheDelta, first: &CacheDelta) -> Option<String> {
    let n = w.requests.len() as u64;
    let bad = match w.name {
        "warm_hits" => delta.served != n,
        "cold_mix" | "large_joins" => delta.served != 0,
        "mixed_churn" => {
            let tuned = w.smoke || (0.72..=0.78).contains(&delta.hit_share());
            delta != first || delta.evictions == 0 || !tuned
        }
        _ => false,
    };
    bad.then(|| {
        format!(
            "{}: block left the workload's cache state: {delta:?} (first block {first:?})",
            w.name
        )
    })
}
