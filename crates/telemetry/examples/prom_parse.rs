//! CI smoke: assert a Prometheus exposition parses line-by-line.
//!
//! With a file argument, parses that file (the snapshot a bench run wrote).
//! Without arguments, renders the snapshot of an exercised `Telemetry`
//! (`lec_telemetry::render`) and parses that — so the step works even
//! before any bench has produced a snapshot.

use lec_telemetry::{parse_prometheus, render, Outcome, Stage, Telemetry, TraceCtx};

fn main() {
    let (source, text) = match std::env::args().nth(1) {
        Some(path) => {
            let text =
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
            (path, text)
        }
        None => {
            let t = Telemetry::on();
            for i in 0..1000u64 {
                t.record_outcome(Outcome::Served, 10_000 + i * 37);
            }
            t.record_outcome(Outcome::Shed, 900);
            let mut ctx = TraceCtx::new(1);
            ctx.span_with(Stage::Search, 0, 5_000_000, 0);
            t.finish_request(&ctx, Outcome::Fresh);
            ("<generated>".to_string(), render("lec", &t.snapshot_json()))
        }
    };

    let samples = match parse_prometheus(&text) {
        Ok(s) => s,
        Err(e) => panic!("prometheus exposition from {source} failed to parse: {e}"),
    };
    assert!(
        !samples.is_empty(),
        "exposition from {source} contained no samples"
    );
    for s in &samples {
        assert!(s.value.is_finite(), "non-finite value in {}", s.name);
    }
    println!(
        "prom_parse: OK ({} samples from {source}, {} distinct metrics)",
        samples.len(),
        {
            let mut names: Vec<&str> = samples.iter().map(|s| s.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            names.len()
        }
    );
}
