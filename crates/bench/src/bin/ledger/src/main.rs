//! `ledger` — the repo's benchmark.  It drives the serving stack from
//! outside (`lec-serviced` over a Unix-domain socket → `lec-service` →
//! `lec-canon` / `lec-core` / `lec-cost`) with one client thread on one
//! connection, checks every answer against a fresh optimization, and
//! prints every metric by name with its unit; the last line of standard
//! output is the result as one JSON object.  See `README.md` beside
//! `Cargo.toml` for the metric glossary and the measurement method.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> [--trace <0|1>]
//! ledger --workload <name> --seed <n> [--trace <0|1>] --smoke
//! ledger --smoke          # every workload, untraced and traced, 2 blocks each
//! ```
//!
//! `--seconds` is there because the benchmark driver passes it ("The
//! driver runs `<command> --workload <name> --seed <n> --seconds
//! <run_seconds> --trace <0|1>`").  It sets the *number* of timed blocks
//! (`Workload::blocks`), not a deadline: how many blocks a run is reduced
//! over must not depend on how fast the code under test is.  (A safety
//! cap, `Workload::time_cap`, sheds the remaining blocks on a host so
//! slow that the driver's total time limit would be at risk.)

mod harness;
mod oracle;
mod run;
mod spans;
mod stats;
mod trace;
mod workloads;

use serde_json::{json, Value};
use std::process::ExitCode;
use std::time::Instant;

/// A failure of the harness or the transport; it ends the run.
pub type Res<T> = Result<T, String>;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Diagnostics printed beside the metrics, not gated by anything.
    pub notes: Vec<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line the driver reads.
    fn to_json(&self) -> Value {
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(
                self.metrics
                    .iter()
                    .map(|m| (m.name.to_string(), json!({"value": m.value, "unit": m.unit})))
                    .collect(),
            ),
        })
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    /// Required of a full run; a smoke run and the memory probe ignore it.
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    /// Internal: this process is one of `run::peak_rss_mib`'s children.
    memory_probe: bool,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        memory_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=60.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=60".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--memory-probe" => args.memory_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_none() && !args.smoke {
        return Err(format!(
            "--workload is required: one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// Run one workload once and print its report.  `Ok(false)` is a run
/// that completed with failed operations.
fn run_one(name: &str, args: &Args) -> Res<bool> {
    let harness_started = Instant::now();
    let w = workloads::build(name, args.seed, args.smoke).ok_or_else(|| {
        format!(
            "unknown workload {name}: one of {}",
            workloads::NAMES.join(", ")
        )
    })?;
    harness::place(w.placement)?;
    if args.memory_probe {
        return run::memory_probe(&w);
    }
    let seconds = match args.seconds {
        Some(seconds) => seconds,
        None if args.smoke => 0.0,
        None => return Err("--seconds is required".into()),
    };
    let trace = args.trace;
    let oracle = oracle::build(&w, if trace { trace::ORACLE_EXTRA_PASSES } else { 0 })?;
    let harness_s = harness_started.elapsed().as_secs_f64();
    let report = if trace {
        trace::traced(&w, &oracle, seconds, harness_s)?
    } else {
        run::untraced(&w, &oracle, seconds, harness_s)?
    };

    println!(
        "ledger workload={name} seed={} trace={} {}",
        args.seed,
        u8::from(trace),
        if args.smoke { "smoke" } else { "full" }
    );
    for m in &report.metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("  # {note}");
    }
    println!(
        "  operations attempted {} succeeded {} failed {}",
        report.attempted,
        report.attempted - report.failed.min(report.attempted),
        report.failed
    );
    println!("{}", report.to_json());
    Ok(report.correct())
}

/// `--smoke` without a workload: every workload, untraced and traced,
/// each in a process of its own as under the driver (a run sets its
/// thread placement for good).
fn smoke_all(args: &Args) -> Res<bool> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = args.seed.to_string();
    let mut all = true;
    for name in workloads::NAMES {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--smoke", "--workload", name, "--seed", &seed])
                .args(["--trace", trace])
                .status()
                .map_err(|e| format!("run {name}: {e}"))?;
            all &= status.success();
        }
    }
    Ok(all)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match &args.workload {
        Some(name) => run_one(name, &args),
        None => smoke_all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ledger: run completed with failed operations");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
