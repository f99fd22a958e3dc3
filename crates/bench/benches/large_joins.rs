//! The large-join pruning guard: branch-and-bound keep-best on 15-table
//! chains and stars, and bit-for-bit pruned-vs-unpruned parity on every
//! size where both run.
//!
//! Three jobs:
//!
//! 1. **Correctness**: on the 6–9-table pruning fixtures every row
//!    asserts the pruned search returns the same plan and the same cost
//!    bits as the unpruned search, with `pruned_subsets > 0` wherever the
//!    fixture is built to prune — and that the pruned search's
//!    best-of-runs wall time exceeds the plain search's by no more than
//!    10% or pruning's fixed set-up ([`SETUP_US`]), whichever is larger
//!    (the tiered bound evaluation must keep the checks near-free).
//! 2. **Ceiling**: the 15-table chain and star and the 12-table clique —
//!    sizes and densities the repo's earlier benches never attempted —
//!    complete under pruned keep-best (the 15-table star under 400ms
//!    with strictly more subsets pruned than the universal-floor record
//!    of 16,475), and the 8-table chain's *streaming keep-all verifier*
//!    (refused outright by the unpruned materializing verifier) agrees
//!    with the DP to the bit.
//! 3. **Record**: wall-time medians, prune counters, tier splits and
//!    candidate savings land in `BENCH_large_joins.json` at the
//!    workspace root.

use criterion::{criterion_group, criterion_main, Criterion};
use lec_core::fixtures::{pruning_chain, pruning_clique, pruning_star};
use lec_core::{exhaustive_best, optimize, MemoryCoster, Mode, PlanShape, SearchConfig};
use lec_cost::CostModel;
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

/// Allowance (µs) for what a pruned search pays before its first check,
/// whatever the query's size: `PruneState::new`, one greedy completion
/// walk and the level-2 bound evaluations.  Measured at 3–6 µs on the
/// 6-table star (pruned 32–51 µs against plain 29–45 µs on the 2-vCPU
/// builder host), where nothing is pruned early enough to pay it back —
/// a constant, so a ratio cap on a ~40 µs search reads it as 11–15%.
const SETUP_US: f64 = 10.0;

/// Whether `pruned_us` exceeds `plain_us` by no more than 10% or
/// [`SETUP_US`], whichever is larger; prints all three on failure.
fn is_within_allowance(what: &str, pruned_us: f64, plain_us: f64) -> bool {
    let allowance = (0.10 * plain_us).max(SETUP_US);
    let within = pruned_us - plain_us <= allowance;
    if !within {
        println!(
            "{what}: expected pruned <= plain {plain_us:.1}us + {allowance:.1}us, \
             actual {pruned_us:.1}us"
        );
    }
    within
}

/// Minimum wall time (µs) over `runs` interleaved fresh-model searches
/// under each config.  Interleaving shares any background-load drift
/// between the two configs, and the minimum is the least
/// noise-contaminated estimate of the true cost — what the wall-time guard
/// must compare, or a host hiccup during one config's turn fails the
/// build.
fn min_search_us(
    catalog: &lec_catalog::Catalog,
    query: &lec_plan::Query,
    memory: &lec_prob::Distribution,
    a: &SearchConfig,
    b: &SearchConfig,
    runs: usize,
) -> (f64, f64) {
    let one = |config: &SearchConfig| {
        let model = CostModel::new(catalog, query);
        let t0 = Instant::now();
        black_box(optimize(&model, memory, &Mode::AlgorithmC, config).unwrap());
        t0.elapsed().as_secs_f64() * 1e6
    };
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..runs {
        best.0 = best.0.min(one(a));
        best.1 = best.1.min(one(b));
    }
    best
}

/// One pruned-vs-unpruned parity row on a size where both searches run.
fn parity_row(
    name: &str,
    catalog: &lec_catalog::Catalog,
    query: &lec_plan::Query,
    n: usize,
    memory: &lec_prob::Distribution,
) -> serde_json::Value {
    let pruned_cfg = SearchConfig::default().with_pruning(true);
    let plain_cfg = SearchConfig::default();

    let plain_model = CostModel::new(catalog, query);
    let plain = optimize(&plain_model, memory, &Mode::AlgorithmC, &plain_cfg).unwrap();
    let pruned_model = CostModel::new(catalog, query);
    let pruned = optimize(&pruned_model, memory, &Mode::AlgorithmC, &pruned_cfg).unwrap();
    assert_eq!(plain.plan, pruned.plan, "{name} n={n}: plan drift");
    assert_eq!(
        plain.cost.to_bits(),
        pruned.cost.to_bits(),
        "{name} n={n}: cost drift"
    );

    // A minimum over 9 runs still moved by ±12% between invocations on
    // the 2-vCPU builder host — more than the allowance it feeds; 100
    // interleaved runs of these sub-millisecond searches settle it.
    let runs = 100;
    let (plain_us, pruned_us) =
        min_search_us(catalog, query, memory, &plain_cfg, &pruned_cfg, runs);
    println!(
        "large-joins parity  {name} n={n}: plain {plain_us:.0}us, pruned {pruned_us:.0}us, \
         {} subsets pruned ({} sharp / {} cheap), candidates {} -> {}",
        pruned.stats.pruned_subsets,
        pruned.stats.sharp_bound_evals,
        pruned.stats.cheap_bound_skips,
        plain.stats.candidates,
        pruned.stats.candidates,
    );
    assert!(
        is_within_allowance(&format!("{name} n={n}"), pruned_us, plain_us),
        "{name} n={n}: the tiered bound checks must stay near-free"
    );
    json!({
        "workload": name,
        "tables": n,
        "plain_us": plain_us,
        "pruned_us": pruned_us,
        "pruned_subsets": pruned.stats.pruned_subsets,
        "bound_evals": pruned.stats.bound_evals,
        "sharp_bound_evals": pruned.stats.sharp_bound_evals,
        "cheap_bound_skips": pruned.stats.cheap_bound_skips,
        "candidates_plain": plain.stats.candidates,
        "candidates_pruned": pruned.stats.candidates,
        "cost": pruned.cost,
    })
}

/// One ceiling row: a size only the pruned search attempts.
fn ceiling_row(
    name: &str,
    catalog: &lec_catalog::Catalog,
    query: &lec_plan::Query,
    n: usize,
    memory: &lec_prob::Distribution,
) -> serde_json::Value {
    let pruned_cfg = SearchConfig::default().with_pruning(true);
    let model = CostModel::new(catalog, query);
    let t0 = Instant::now();
    let out = optimize(&model, memory, &Mode::AlgorithmC, &pruned_cfg).unwrap();
    let us = t0.elapsed().as_secs_f64() * 1e6;
    assert!(
        out.stats.pruned_subsets > 0,
        "{name} n={n}: the ceiling workload must actually prune"
    );
    println!(
        "large-joins ceiling {name} n={n}: {us:.0}us, cost {:.0}, {} subsets pruned \
         ({} sharp / {} cheap)",
        out.cost,
        out.stats.pruned_subsets,
        out.stats.sharp_bound_evals,
        out.stats.cheap_bound_skips,
    );
    if name == "pruning_star" && n == 15 {
        // The per-edge sharp floor's headline: beat the universal-floor
        // record (1.21s, 16,475 subsets) by 3x on wall time while
        // discarding strictly more subsets.
        assert!(
            us <= 400_000.0,
            "pruning_star n=15 took {us:.0}us — the sharp-bound search must stay under 400ms"
        );
        assert!(
            out.stats.pruned_subsets > 16_475,
            "pruning_star n=15 pruned {} subsets — the sharp per-edge floor must discard \
             strictly more than the universal floor's 16,475",
            out.stats.pruned_subsets
        );
    }
    json!({
        "workload": name,
        "tables": n,
        "pruned_us": us,
        "pruned_subsets": out.stats.pruned_subsets,
        "bound_evals": out.stats.bound_evals,
        "sharp_bound_evals": out.stats.sharp_bound_evals,
        "cheap_bound_skips": out.stats.cheap_bound_skips,
        "candidates": out.stats.candidates,
        "cost": out.cost,
    })
}

fn bench_large_joins(c: &mut Criterion) {
    let memory = lec_prob::presets::spread_family(400.0, 0.5, 4).unwrap();

    // Parity sweep: pruned == unpruned, bit for bit, on 6-9 tables.
    let mut parity = Vec::new();
    for n in [6usize, 7, 8, 9] {
        let (cat, q) = pruning_chain(n);
        parity.push(parity_row("pruning_chain", &cat, &q, n, &memory));
        let (cat, q) = pruning_star(n);
        parity.push(parity_row("pruning_star", &cat, &q, n, &memory));
    }

    // Ceiling sweep: 15-table chain and star plus the 12-table clique,
    // pruned keep-best only.
    let mut ceiling = Vec::new();
    for n in [12usize, 15] {
        let (cat, q) = pruning_chain(n);
        ceiling.push(ceiling_row("pruning_chain", &cat, &q, n, &memory));
        let (cat, q) = pruning_star(n);
        ceiling.push(ceiling_row("pruning_star", &cat, &q, n, &memory));
    }
    let (cat, q) = pruning_clique(12);
    ceiling.push(ceiling_row("pruning_clique", &cat, &q, 12, &memory));

    // The streaming keep-all verifier: the unpruned materializing verifier
    // refuses 8 tables outright; the pruned one streams the same space and
    // must agree with the DP to the bit.
    let (cat, q) = pruning_chain(8);
    let model = CostModel::new(&cat, &q);
    let pruned_cfg = SearchConfig::default().with_pruning(true);
    assert!(
        exhaustive_best(
            &model,
            MemoryCoster::fixed(&memory),
            PlanShape::LeftDeep,
            &SearchConfig::default()
        )
        .is_err(),
        "the unpruned verifier must still refuse 8 tables"
    );
    let t0 = Instant::now();
    let verified = exhaustive_best(
        &model,
        MemoryCoster::fixed(&memory),
        PlanShape::LeftDeep,
        &pruned_cfg,
    )
    .unwrap();
    let verifier_us = t0.elapsed().as_secs_f64() * 1e6;
    let dp = optimize(&model, &memory, &Mode::AlgorithmC, &pruned_cfg).unwrap();
    assert_eq!(
        verified.cost.to_bits(),
        dp.cost.to_bits(),
        "streaming verifier and DP must agree exactly on the 8-table chain"
    );
    println!(
        "large-joins verifier eight_chain: {verifier_us:.0}us, {} plans costed, {} subsets pruned",
        verified.plans_costed().unwrap_or(0),
        verified.stats.pruned_subsets,
    );

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_large_joins.json");
    std::fs::write(
        out,
        serde_json::to_string_pretty(&json!({
            "bench": "large_joins",
            "schema_version": lec_bench::BENCH_SCHEMA_VERSION,
            "host_cores": lec_bench::host_cores() as u64,
            "claim": "sharp per-edge admissible bounds with tiered evaluation return \
                      byte-identical answers on every size the unpruned search can run at \
                      no more than 110% of its wall time or 10us of set-up over it, and \
                      lift the table-count \
                      ceilings: 15-table keep-best searches (the star under 400ms with \
                      strictly more subsets pruned than the universal floor's 16,475), a \
                      12-table clique, and an 8-table streaming keep-all verification \
                      complete where the unpruned paths were refused or untried",
            "parity_rows": parity,
            "ceiling_rows": ceiling,
            "verifier": {
                "workload": "pruning_chain",
                "tables": 8,
                "verifier_us": verifier_us,
                "plans_costed": verified.plans_costed().unwrap_or(0),
                "pruned_subsets": verified.stats.pruned_subsets,
                "cost": verified.cost,
            },
        }))
        .unwrap(),
    )
    .expect("write BENCH_large_joins.json");

    // Criterion history: the 9-table star both ways, the 15-table star
    // and 12-table clique pruned only.
    let star9 = pruning_star(9);
    let star15 = pruning_star(15);
    let clique12 = pruning_clique(12);
    let mut group = c.benchmark_group("large_joins");
    group.sample_size(10);
    for (label, fixture, config) in [
        ("nine_star_plain", &star9, SearchConfig::default()),
        (
            "nine_star_pruned",
            &star9,
            SearchConfig::default().with_pruning(true),
        ),
        (
            "fifteen_star_pruned",
            &star15,
            SearchConfig::default().with_pruning(true),
        ),
        (
            "twelve_clique_pruned",
            &clique12,
            SearchConfig::default().with_pruning(true),
        ),
    ] {
        group.bench_function(label, |bench| {
            bench.iter(|| {
                let model = CostModel::new(&fixture.0, &fixture.1);
                black_box(
                    optimize(&model, black_box(&memory), &Mode::AlgorithmC, &config)
                        .unwrap()
                        .cost,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_large_joins);
criterion_main!(benches);
