//! Drives the built `ledger` binary the way the benchmark driver does,
//! on the shortened `--smoke` lists.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch working directory per test: the binary puts its sockets and
/// trace files under `results/` of wherever it runs.
fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ledger(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run ledger")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

/// `(name, value, unit)` of every printed metric line.
fn metrics(text: &str) -> Vec<(String, String, String)> {
    text.lines()
        .filter(|l| l.starts_with("  ") && !l.trim_start().starts_with(['#', 'o']))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "metric line: {l}");
            (f[0].into(), f[1].into(), f[2].into())
        })
        .collect()
}

#[test]
fn smoke_runs_every_workload_untraced_and_traced() {
    let dir = workdir("smoke_all");
    let out = ledger(&dir, &["--smoke"]);
    let text = stdout(&out);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results: Vec<&str> = text.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(results.len(), 8, "four workloads, untraced and traced");
    for r in &results {
        assert!(r.starts_with(r#"{"correct": true, "attempted": "#), "{r}");
        assert!(r.contains(r#""failed": 0"#), "{r}");
    }
    assert_eq!(text.lines().last(), results.last().copied());
    for w in ["warm_hits", "mixed_churn", "cold_mix", "large_joins"] {
        let trace = dir.join(format!("results/ledger_trace_{w}.json"));
        let doc = std::fs::read_to_string(&trace).unwrap();
        assert!(doc.contains("service.serve_") && doc.contains("serviced.wire_roundtrip"));
    }
    // No socket is left behind.
    let left: Vec<_> = std::fs::read_dir(dir.join("results"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".sock"))
        .collect();
    assert!(left.is_empty(), "{left:?}");
}

#[test]
fn untraced_prints_the_six_end_to_end_metrics() {
    let dir = workdir("smoke_e2e");
    let out = ledger(
        &dir,
        &[
            "--workload",
            "warm_hits",
            "--seed",
            "7",
            "--seconds",
            "25",
            "--trace",
            "0",
            "--smoke",
        ],
    );
    assert!(out.status.success());
    let names: Vec<String> = metrics(&stdout(&out)).into_iter().map(|m| m.0).collect();
    assert_eq!(
        names,
        [
            "setup_s",
            "throughput_rps",
            "latency_p50_us",
            "latency_p90_us",
            "plan_cost_ratio",
            "peak_rss_mb"
        ]
    );
}

#[test]
fn counts_repeat_exactly_for_a_seed() {
    let dir = workdir("smoke_counts");
    let run = |seed: &str| {
        let out = ledger(
            &dir,
            &[
                "--workload",
                "mixed_churn",
                "--seed",
                seed,
                "--trace",
                "1",
                "--smoke",
            ],
        );
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let counts: Vec<_> = metrics(&stdout(&out))
            .into_iter()
            .filter(|m| matches!(m.2.as_str(), "count" | "B" | "share"))
            .filter(|m| {
                !m.0.ends_with("busy_share") && !m.0.starts_with("trace.") && m.0 != "blocks"
            })
            .collect();
        assert!(counts
            .iter()
            .any(|m| m.0 == "service.evictions" && m.1 != "0.000000"));
        counts
    };
    assert_eq!(run("5"), run("5"));
}

#[test]
fn bad_arguments_fail_without_a_result_line() {
    let dir = workdir("smoke_args");
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--seed", "1"],
        &["--workload", "warm_hits", "--seed", "1"],
        &["--workload", "warm_hits", "--seconds", "25", "--trace", "2"],
        &["--workload", "warm_hits", "--bogus"],
    ] {
        let out = ledger(&dir, args);
        assert!(!out.status.success(), "{args:?}");
        assert!(!stdout(&out).contains('{'), "{args:?}");
    }
}
