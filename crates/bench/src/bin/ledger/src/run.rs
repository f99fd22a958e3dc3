//! The untraced run: the six end-to-end metrics of one workload.
//!
//! A run is set-up, one discarded warm-up block, then a fixed number of
//! timed blocks that each replay the identical request list from the
//! identical server state.  The timing metrics are read off the
//! [`Composite`] of those blocks; the best and the median block are
//! printed beside them as diagnostics of the host, not of the program.

use crate::harness::{fill, replay, replay_counted, state_violation, with_instance, CacheDelta};
use crate::harness::{Block, Live};
use crate::oracle::Oracle;
use crate::stats::{percentile, reduce, Composite};
use crate::workloads::{Lifetime, Workload};
use crate::{Metric, Report, Res};
use std::process::Command;
use std::time::Instant;

/// On workloads whose measured server lives for the whole run, this many
/// fresh instances are brought up beside it, evenly spread over the
/// timed blocks, only to sample `setup_s` (the others bring a server up
/// per block and sample it there).  Spread so that, like the blocks,
/// some samples fall into a spell in which the host is fast.
const SETUP_SAMPLES: usize = 24;

/// Fresh processes whose peak memory is sampled; the smallest is
/// reported.
const MEMORY_PROBES: usize = 3;

/// A run whose median block took this much longer than the composite is
/// tagged `noisy`.  Diagnostic only: the composite is still reported.
const NOISY_JITTER: f64 = 1.3;

/// What the timed phase accumulates.
#[derive(Default)]
struct Timed {
    composite: Composite,
    /// Each block's own p50 and p90, for the `*_best_block` and
    /// `*_median` companions.
    p50_us: Vec<f64>,
    p90_us: Vec<f64>,
    setup_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    first: Option<CacheDelta>,
    lat: Vec<u64>,
}

impl Timed {
    fn setup_sample(&mut self, live: &Live) {
        self.setup_s.push(live.started.elapsed().as_secs_f64());
    }

    /// Replay one block.  Its operations always count; only a `timed`
    /// block is measured (the warm-up block is checked, not measured).
    fn block(&mut self, live: &mut Live, w: &Workload, oracle: &Oracle, timed: bool) -> Res<()> {
        let (block, delta) = replay_counted(live, w, oracle, &mut self.lat, None)?;
        self.attempted += block.attempted;
        self.failed += block.failed;
        if timed {
            let first = *self.first.get_or_insert(delta);
            if let Some(why) = state_violation(w, &delta, &first) {
                eprintln!("{why}");
                self.failed += 1;
            }
            self.composite.absorb(&self.lat, block.wall_ns);
            self.lat.sort_unstable();
            self.p50_us.push(percentile(&self.lat, 0.5).value / 1e3);
            self.p90_us.push(percentile(&self.lat, 0.9).value / 1e3);
        }
        Ok(())
    }
}

/// `VmHWM` of this process in KiB.
fn vm_hwm_kib() -> Res<u64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The body of `--memory-probe`: in a process that has done nothing
/// else — no oracle, no earlier server — bring the program up, serve the
/// workload's list once, and print this process's peak resident set.
/// Answers are not compared here (the timed blocks of the parent do
/// that, on the identical list); a refusal still fails the probe.
pub fn memory_probe(w: &Workload) -> Res<bool> {
    let block: Block = with_instance(w, false, |live| {
        if w.lifetime == Lifetime::Run {
            fill(live, w, None)?;
        }
        replay(&mut live.client, w, None, &mut Vec::new(), None)
    })?;
    println!("{}", vm_hwm_kib()?);
    Ok(block.failed == 0)
}

/// `peak_rss_mb`: run [`memory_probe`] in fresh processes and take the
/// smallest peak.  In this process the figure would be the oracle's
/// searches and the luck of thirty servers' threads with glibc's arenas
/// (150 or 210 MiB on `large_joins`, run by run) as much as the program's.
fn peak_rss_mib(w: &Workload) -> Res<f64> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut peaks = Vec::new();
    for _ in 0..MEMORY_PROBES {
        let mut probe = Command::new(&exe);
        probe.args(["--memory-probe", "--workload", w.name]);
        probe.args(["--seed", &w.seed.to_string()]);
        if w.smoke {
            probe.arg("--smoke");
        }
        let out = probe.output().map_err(|e| format!("memory probe: {e}"))?;
        let kib = String::from_utf8_lossy(&out.stdout).trim().parse::<f64>();
        match (out.status.success(), kib) {
            (true, Ok(kib)) => peaks.push(kib / 1024.0),
            _ => {
                return Err(format!(
                    "memory probe failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                ))
            }
        }
    }
    Ok(reduce(&peaks).best)
}

pub fn untraced(w: &Workload, oracle: &Oracle, seconds: f64, harness_s: f64) -> Res<Report> {
    let mut t = Timed::default();
    let blocks = w.blocks(seconds);
    let cap = w.time_cap(seconds);
    let started = Instant::now();
    let due = || (0..blocks).take_while(|b| *b == 0 || started.elapsed() < cap);
    // The plans the server returned for the distinct requests: the LEC
    // side of `plan_cost_ratio`.
    let served = match w.lifetime {
        Lifetime::Run => {
            let bring_up = |t: &mut Timed, live: &mut Live| {
                let served = fill(live, w, Some(oracle))?;
                t.attempted += served.len() as u64;
                t.setup_sample(live);
                Ok(served)
            };
            let every = (blocks / SETUP_SAMPLES).max(1);
            with_instance(w, false, |live| {
                let served = bring_up(&mut t, live)?;
                t.block(live, w, oracle, false)?;
                for b in due() {
                    t.block(live, w, oracle, true)?;
                    if b % every == 0 {
                        with_instance(w, false, |fresh| bring_up(&mut t, fresh))?;
                    }
                }
                Ok(served)
            })?
        }
        Lifetime::Block => {
            // Every request is distinct, so the fill is the list: the
            // warm-up block and the served plans in one pass.
            let served = with_instance(w, false, |live| fill(live, w, Some(oracle)))?;
            t.attempted += served.len() as u64;
            for _ in due() {
                with_instance(w, false, |live| {
                    t.setup_sample(live);
                    t.block(live, w, oracle, true)
                })?;
            }
            served
        }
    };
    let cost = oracle.cost_ratio(w, &served);
    t.failed += cost.dominance_violations;

    let n = w.requests.len() as f64;
    let c = &t.composite;
    let setup = reduce(&t.setup_s);
    let (p50, p90) = (c.percentile(0.5), c.percentile(0.9));
    let host_jitter = c.median_wall_ns() / c.wall_ns() as f64;
    let first = t.first.unwrap_or_default();

    let metrics = vec![
        Metric::new("setup_s", setup.best, "s"),
        Metric::new("throughput_rps", n / (c.wall_ns() as f64 / 1e9), "req/s"),
        Metric::new("latency_p50_us", p50.value / 1e3, "us"),
        Metric::new("latency_p90_us", p90.value / 1e3, "us"),
        Metric::new("plan_cost_ratio", cost.geometric_mean, "ratio"),
        Metric::new("peak_rss_mb", peak_rss_mib(w)?, "MiB"),
    ];
    let notes = vec![
        format!(
            "blocks {} of {} requests at depth {}, closed loop, 1 connection, {:?}{}{}",
            c.blocks(),
            w.requests.len(),
            w.depth,
            w.placement,
            if host_jitter > NOISY_JITTER {
                "  [noisy]"
            } else {
                ""
            },
            if c.blocks() < blocks {
                format!(
                    "  [cut short of {blocks} blocks at {:.1} s]",
                    cap.as_secs_f64()
                )
            } else {
                String::new()
            }
        ),
        format!(
            "latency samples per block {} ({} beyond p90), each at its best over the blocks",
            w.requests.len().div_ceil(w.depth),
            p90.beyond
        ),
        format!(
            "setup_s_median {:.6} s over {} bring-ups",
            setup.median,
            t.setup_s.len()
        ),
        format!(
            "throughput_rps_best_block {:.3} req/s, throughput_rps_median {:.3} req/s",
            n / (c.best_wall_ns() as f64 / 1e9),
            n / (c.median_wall_ns() / 1e9)
        ),
        format!(
            "latency_p50_us_best_block {:.3} us, latency_p50_us_median {:.3} us",
            reduce(&t.p50_us).best,
            reduce(&t.p50_us).median
        ),
        format!(
            "latency_p90_us_best_block {:.3} us, latency_p90_us_median {:.3} us",
            reduce(&t.p90_us).best,
            reduce(&t.p90_us).median
        ),
        format!("host_jitter {host_jitter:.4} (median block / composite)"),
        format!("harness_s {harness_s:.3} s (query generation and oracle, outside setup_s)"),
        format!(
            "cache per block: hit share {:.4}, {} insertions, {} evictions, {} uncacheable",
            first.hit_share(),
            first.insertions,
            first.evictions,
            first.uncacheable
        ),
    ];
    Ok(Report {
        attempted: t.attempted,
        failed: t.failed,
        metrics,
        notes,
    })
}
