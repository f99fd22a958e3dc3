//! The per-mode calibration registry: every optimizer mode's chosen plans
//! audited end to end against measured page I/O through the physical-twin
//! observatory (`lec_exec::calib`).
//!
//! Two guards, each failing the run:
//!
//! 1. **Decomposition**: for every audit, the summed per-node predictions
//!    must agree with the whole-plan prediction to float-summation noise
//!    (`node_consistency_rel ≤ 1e-9`) — the per-node trace *is* the cost
//!    model, not an approximation of it.
//! 2. **Error bands**: each optimizer mode's worst relative error of
//!    expected-predicted vs expected-measured cost, over the workload
//!    suite, must stay inside its pinned band ([`MODE_BANDS`]).  The
//!    suite is fully deterministic, so a band exit means the model, an
//!    operator, or the twin construction drifted.
//!
//! The registry lands in `BENCH_calibration.json` (schema-stamped) for
//! the CI artifact diff, with `calibration_samples`: the audited nodes
//! counted per operator class.

use criterion::{criterion_group, criterion_main, Criterion};
use lec_core::{fixtures, Mode, Optimizer, PointEstimate};
use lec_cost::{Objective, OpClass};
use lec_exec::Calibrator;
use lec_prob::{Distribution, MarkovChain};
use serde_json::{json, Value};
use std::hint::black_box;

/// Memory states every audit runs at: integral page budgets spanning the
/// twin's operating regimes (deep spills at 4 pages through mostly-fitting
/// joins at 16, against tables of at most 32 pages).
const STATES: [f64; 3] = [4.0, 8.0, 16.0];

/// Largest tolerated per-mode relative error |predicted − measured| /
/// measured of the expectations under the audit's memory belief, over the
/// whole workload suite.  Pinned from the deterministic suite with ~30%
/// headroom; the dominant residual is the model's simplified join
/// constants (`2(a+b)` for a fitting join vs one measured pass), not
/// noise.
fn mode_bands() -> Vec<(&'static str, Mode, f64)> {
    let chain = MarkovChain::birth_death(STATES.to_vec(), 0.3, 0.3).unwrap();
    vec![
        ("lsc_mean", Mode::Lsc(PointEstimate::Mean), 0.55),
        ("lsc_mode", Mode::Lsc(PointEstimate::Mode), 0.55),
        ("alg_a", Mode::AlgorithmA, 0.55),
        ("alg_b_c3", Mode::AlgorithmB { c: 3 }, 0.55),
        ("alg_c", Mode::AlgorithmC, 0.55),
        ("alg_c_dyn", Mode::AlgorithmCDynamic { chain }, 0.6),
        (
            "alg_d",
            Mode::AlgorithmD {
                config: lec_core::AlgDConfig::default(),
            },
            0.55,
        ),
        ("bushy", Mode::Bushy, 0.55),
    ]
}

/// The audited workloads: the paper's fixtures plus generated chain/star
/// queries (tree topologies only — the twin rejects cross products).
fn workload_suite() -> Vec<(String, lec_bench::workloads::Workload)> {
    let mut out = Vec::new();
    let (cat, q) = fixtures::example_1_1();
    out.push((
        "example_1_1".to_string(),
        lec_bench::workloads::Workload {
            catalog: cat,
            query: q,
        },
    ));
    let (cat, q) = fixtures::three_chain();
    out.push((
        "three_chain".to_string(),
        lec_bench::workloads::Workload {
            catalog: cat,
            query: q,
        },
    ));
    let (cat, q) = fixtures::pruning_star(4);
    out.push((
        "pruning_star_4".to_string(),
        lec_bench::workloads::Workload {
            catalog: cat,
            query: q,
        },
    ));
    for (i, w) in lec_bench::workloads::batch(0xB0, 5, 4, 1)
        .into_iter()
        .enumerate()
    {
        // batch() rotates Chain/Star/Random; only the tree topologies are
        // executable without cross products.
        if i % 3 < 2 {
            let topo = if i % 3 == 0 { "chain" } else { "star" };
            out.push((format!("batch_{topo}_{i}"), w));
        }
    }
    out
}

fn bench_calibration(c: &mut Criterion) {
    let memory =
        Distribution::from_pairs(STATES.iter().map(|&m| (m, 1.0 / STATES.len() as f64))).unwrap();
    let fixed = Objective::Static(memory.clone());
    let suite = workload_suite();
    let calibrators: Vec<(&String, Calibrator)> = suite
        .iter()
        .map(|(name, w)| (name, Calibrator::new(&w.catalog, &w.query)))
        .collect();

    let mut mode_records: Vec<(String, Value)> = Vec::new();
    let mut worst_consistency = 0.0f64;
    // Audited nodes per operator class, every class listed even at zero.
    let mut samples: Vec<(OpClass, u64)> = [
        OpClass::BlockNestedLoop,
        OpClass::GraceHash,
        OpClass::IndexAccess,
        OpClass::PageNestedLoop,
        OpClass::SeqAccess,
        OpClass::Sort,
        OpClass::SortMerge,
    ]
    .map(|class| (class, 0))
    .to_vec();
    for (key, mode, band) in mode_bands() {
        let objective = match &mode {
            Mode::AlgorithmCDynamic { chain } => Objective::Dynamic {
                initial: Distribution::point(8.0),
                chain: chain.clone(),
            },
            _ => fixed.clone(),
        };
        let mut max_rel = 0.0f64;
        let mut sum_rel = 0.0f64;
        let mut per_workload: Vec<Value> = Vec::new();
        for (wname, cal) in &calibrators {
            let optimized = Optimizer::new(&cal.twin().catalog, memory.clone())
                .optimize(&cal.twin().query, &mode)
                .unwrap_or_else(|e| panic!("{key}/{wname}: optimize failed: {e}"));
            let audit = cal
                .audit(&optimized.plan, &objective)
                .unwrap_or_else(|e| panic!("{key}/{wname}: audit failed: {e}"));
            assert!(
                audit.node_consistency_rel <= 1e-9,
                "{key}/{wname}: per-node predictions disagree with the whole-plan \
                 prediction by {} (plan {})",
                audit.node_consistency_rel,
                audit.plan
            );
            worst_consistency = worst_consistency.max(audit.node_consistency_rel);
            for node in &audit.nodes {
                let entry = samples.iter_mut().find(|(c, _)| *c == node.class);
                entry.expect("every class is listed").1 += 1;
            }
            let rel = audit.relative_error();
            max_rel = max_rel.max(rel);
            sum_rel += rel;
            per_workload.push(json!({
                "measured_expected": audit.measured_expected,
                "plan": audit.plan.clone(),
                "predicted_expected": audit.predicted_expected,
                "relative_error": rel,
                "workload": wname.as_str(),
            }));
        }
        let mean_rel = sum_rel / calibrators.len() as f64;
        assert!(
            max_rel <= band,
            "calibration regression: mode {key} worst relative error {max_rel:.3} \
             exceeds its pinned band {band}"
        );
        println!(
            "calibration  {key:<10} max rel err {max_rel:.3} (mean {mean_rel:.3}, band {band})"
        );
        mode_records.push((
            key.to_string(),
            json!({
                "audits": per_workload.len() as u64,
                "band": band,
                "max_relative_error": max_rel,
                "mean_relative_error": mean_rel,
                "mode": mode.name(),
                "workloads": Value::Array(per_workload),
            }),
        ));
    }

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::write(
        root.join("BENCH_calibration.json"),
        serde_json::to_string_pretty(
            &json!({
                "bench": "calibration",
                "schema_version": lec_bench::BENCH_SCHEMA_VERSION,
                "host_cores": lec_bench::host_cores() as u64,
                "claim": "every optimizer mode's expected predicted cost lands within its \
                          pinned relative-error band of the expected measured page I/O on \
                          the physical twin, and per-node predictions sum exactly to the \
                          whole-plan prediction",
                "memory_states": Value::Array(STATES.iter().map(|&m| Value::from(m)).collect()),
                "workloads": suite.len() as u64,
                "node_consistency_max": worst_consistency,
                "calibration_samples": Value::Object(
                    samples
                        .iter()
                        .map(|(c, n)| (c.name().to_string(), Value::from(*n as f64)))
                        .collect(),
                ),
                "modes": Value::Object(mode_records),
            })
            .sorted(),
        )
        .unwrap(),
    )
    .expect("write BENCH_calibration.json");

    // Criterion history: one full audit (optimize + execute at every
    // bucket) of the three-table chain under Algorithm C.
    let cal = &calibrators[1].1;
    let optimized = Optimizer::new(&cal.twin().catalog, memory.clone())
        .optimize(&cal.twin().query, &Mode::AlgorithmC)
        .unwrap();
    let mut group = c.benchmark_group("calibration");
    group.sample_size(20);
    group.bench_function("audit_three_chain_alg_c", |b| {
        b.iter(|| {
            black_box(
                cal.audit(black_box(&optimized.plan), &fixed)
                    .unwrap()
                    .measured_expected,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_calibration);
criterion_main!(benches);
