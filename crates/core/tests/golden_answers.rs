//! Golden answers: the plan (`PlanNode::compact`) and cost bits every DP
//! mode returns, pinned as literals.
//!
//! Every other parity suite compares two runs of the *same* binary
//! (cached vs fresh, parallel vs serial, pruned vs unpruned, wire vs
//! in-process), so a change that moves both sides moves none of them.
//! This table was recorded at the commit before plan nodes became a
//! shared dag and the subplan memo was deleted; a refactor of the search
//! path must leave every row untouched.  When a row *should* move (a cost
//! formula or tie-break changes on purpose), the failure message prints
//! the whole table as the code now computes it — paste it over `GOLDEN`.

use lec_catalog::{Catalog, CatalogGenerator};
use lec_core::{fixtures, AlgDConfig, Mode, Optimizer, PointEstimate};
use lec_plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_prob::{presets, Distribution, MarkovChain};

/// `(query, mode, plan.compact(), cost.to_bits())`.
type Row = (&'static str, &'static str, &'static str, u64);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("example_1_1", "LSC(mean)", "SM(R0,R1)", 0x4150059000000000),
    ("example_1_1", "LSC(mode)", "SM(R0,R1)", 0x4150059000000000),
    ("example_1_1", "AlgA", "Sort(GH(R0,R1))", 0x41500e5a00000000),
    ("example_1_1", "AlgB", "Sort(GH(R0,R1))", 0x41500e5a00000000),
    ("example_1_1", "AlgC", "Sort(GH(R0,R1))", 0x41500e5a00000000),
    ("example_1_1", "AlgC-dyn", "Sort(GH(R0,R1))", 0x41500e5a00000000),
    ("example_1_1", "AlgD", "Sort(GH(R0,R1))", 0x41500e5a00000000),
    ("example_1_1", "Bushy", "Sort(GH(R0,R1))", 0x41500e5a00000000),
    ("three_chain", "LSC(mean)", "NL(SM(R0,R1),R2)", 0x4114246000000000),
    ("three_chain", "LSC(mode)", "NL(SM(R0,R1),R2)", 0x4114246000000000),
    ("three_chain", "AlgA", "NL(GH(R0,R1),R2)", 0x4114246000000000),
    ("three_chain", "AlgB", "NL(GH(R0,R1),R2)", 0x4114246000000000),
    ("three_chain", "AlgC", "NL(GH(R0,R1),R2)", 0x4114246000000000),
    ("three_chain", "AlgC-dyn", "NL(GH(R0,R1),R2)", 0x4114246000000000),
    ("three_chain", "AlgD", "NL(GH(R0,R1),R2)", 0x4114246000000000),
    ("three_chain", "Bushy", "NL(R2,GH(R0,R1))", 0x4114246000000000),
    ("diamond", "LSC(mean)", "GH(NL(SM(R3,R2),R1),R0)", 0x4147a6e200000000),
    ("diamond", "LSC(mode)", "GH(NL(SM(R3,R2),R1),R0)", 0x4147a6e200000000),
    ("diamond", "AlgA", "GH(NL(SM(R3,R2),R1),R0)", 0x414c9c6a00000000),
    ("diamond", "AlgB", "GH(NL(SM(R3,R2),R1),R0)", 0x414c9c6a00000000),
    ("diamond", "AlgC", "GH(NL(SM(R3,R2),R1),R0)", 0x414c9c6a00000000),
    ("diamond", "AlgC-dyn", "GH(NL(SM(R3,R2),R1),R0)", 0x414c9c69ffffffff),
    ("diamond", "AlgD", "GH(NL(SM(R3,R2),R1),R0)", 0x414c9c6a00000000),
    ("diamond", "Bushy", "NL(SM(R3,R2),SM(R1,R0))", 0x41355d8800000000),
    ("scaling_chain(6)", "LSC(mean)", "Sort(NL(NL(BNL(SM(SM(R0,R1),R2),R3),R4),R5))", 0x411a13df70a3d70a),
    ("scaling_chain(6)", "LSC(mode)", "Sort(NL(NL(NL(SM(SM(R5,R4),R3),R2),R1),R0))", 0x411a0e9d0a3d70a4),
    ("scaling_chain(6)", "AlgA", "Sort(NL(NL(SM(GH(GH(R5,R4),R3),R2),R1),R0))", 0x411bee9d0a3d70a4),
    ("scaling_chain(6)", "AlgB", "Sort(NL(NL(SM(GH(GH(R5,R4),R3),R2),R1),R0))", 0x411bee9d0a3d70a4),
    ("scaling_chain(6)", "AlgC", "Sort(NL(BNL(GH(SM(SM(R0,R1),R2),R3),R4),R5))", 0x411ae53f70a3d70a),
    ("scaling_chain(6)", "AlgC-dyn", "Sort(NL(BNL(GH(SM(SM(R0,R1),R2),R3),R4),R5))", 0x411ae53f70a3d70a),
    ("scaling_chain(6)", "AlgD", "Sort(NL(BNL(GH(SM(SM(R0,R1),R2),R3),R4),R5))", 0x411ae53f70a3d70a),
    ("scaling_chain(6)", "Bushy", "Sort(NL(R5,BNL(GH(R3,SM(R2,SM(R0,R1))),R4)))", 0x411ae53f70a3d70a),
    ("scaling_star(6)", "LSC(mean)", "Sort(NL(NL(BNL(SM(SM(R5,R0),R2),R1),R3),R4))", 0x41183f6d33333333),
    ("scaling_star(6)", "LSC(mode)", "Sort(NL(NL(BNL(SM(SM(R5,R0),R2),R1),R3),R4))", 0x41183f6d33333333),
    ("scaling_star(6)", "AlgA", "Sort(NL(BNL(SM(SM(SM(R5,R0),R2),R1),R3),R4))", 0x4118e9bd33333333),
    ("scaling_star(6)", "AlgB", "Sort(NL(BNL(SM(SM(SM(R5,R0),R2),R1),R3),R4))", 0x4118e9bd33333333),
    ("scaling_star(6)", "AlgC", "Sort(NL(BNL(SM(SM(SM(R5,R0),R2),R1),R3),R4))", 0x4118e9bd33333333),
    ("scaling_star(6)", "AlgC-dyn", "Sort(NL(BNL(SM(SM(SM(R5,R0),R2),R1),R3),R4))", 0x4118e9bd33333333),
    ("scaling_star(6)", "AlgD", "Sort(NL(BNL(SM(SM(SM(R5,R0),R2),R1),R3),R4))", 0x4118e9bd33333333),
    ("scaling_star(6)", "Bushy", "Sort(NL(R4,BNL(SM(R5,SM(R2,SM(R0,R1))),R3)))", 0x4118e9bd33333333),
    ("pruning_chain(7)", "LSC(mean)", "Sort(SM(NL(BNL(NL(NL(SM(R2,R1),R0),R3),R4),R5),R6))", 0x40d6fd4000000000),
    ("pruning_chain(7)", "LSC(mode)", "Sort(BNL(NL(NL(NL(NL(BNL(R2,R1),R0),R3),R4),R5),R6))", 0x40d48c4000000000),
    ("pruning_chain(7)", "AlgA", "Sort(SM(NL(BNL(NL(NL(SM(R2,R1),R0),R3),R4),R5),R6))", 0x40d6bec000000000),
    ("pruning_chain(7)", "AlgB", "Sort(SM(NL(BNL(NL(NL(SM(R1,R0),R2),R3),R4),R5),R6))", 0x40d6bec000000000),
    ("pruning_chain(7)", "AlgC", "Sort(SM(NL(BNL(NL(NL(SM(R2,R1),R0),R3),R4),R5),R6))", 0x40d6bec000000000),
    ("pruning_chain(7)", "AlgC-dyn", "Sort(SM(NL(BNL(NL(NL(SM(R2,R1),R0),R3),R4),R5),R6))", 0x40d6bec000000000),
    ("pruning_chain(7)", "AlgD", "Sort(SM(NL(BNL(NL(NL(SM(R2,R1),R0),R3),R4),R5),R6))", 0x40d6bec000000000),
    ("pruning_chain(7)", "Bushy", "Sort(NL(SM(R6,R5),BNL(NL(NL(SM(R2,R1),R0),R3),R4)))", 0x40d2d94000000000),
    ("pruning_star(7)", "LSC(mean)", "Sort(BNL(NL(NL(NL(NL(NL(R5,R0),R4),R3),R2),R6),R1))", 0x41274e7000000000),
    ("pruning_star(7)", "LSC(mode)", "Sort(NL(NL(NL(NL(NL(NL(R5,R0),R4),R3),R2),R6),R1))", 0x412746a000000000),
    ("pruning_star(7)", "AlgA", "Sort(BNL(NL(NL(NL(NL(NL(R5,R0),R4),R3),R2),R6),R1))", 0x412eed9c00000000),
    ("pruning_star(7)", "AlgB", "Sort(BNL(NL(NL(NL(NL(NL(R5,R0),R4),R3),R2),R6),R1))", 0x412eed9c00000000),
    ("pruning_star(7)", "AlgC", "Sort(BNL(NL(NL(NL(NL(NL(R5,R0),R4),R3),R2),R6),R1))", 0x412eed9c00000000),
    ("pruning_star(7)", "AlgC-dyn", "Sort(BNL(NL(NL(NL(NL(NL(R5,R0),R4),R3),R2),R6),R1))", 0x412eed9bffffffff),
    ("pruning_star(7)", "AlgD", "Sort(BNL(NL(NL(NL(NL(NL(R5,R0),R4),R3),R2),R6),R1))", 0x412eed9c00000000),
    ("pruning_star(7)", "Bushy", "Sort(BNL(NL(R6,NL(R5,NL(R4,NL(R3,NL(R2,R0))))),R1))", 0x412eed9c00000000),
    ("pruning_clique(6)", "LSC(mean)", "Sort(NL(NL(SM(SM(SM(R5,R4),R3),R2),R1),R0))", 0x40e28e6000000000),
    ("pruning_clique(6)", "LSC(mode)", "Sort(NL(NL(BNL(SM(BNL(R5,R4),R3),R2),R1),R0))", 0x40e1946000000000),
    ("pruning_clique(6)", "AlgA", "Sort(NL(NL(SM(SM(SM(R5,R4),R3),R2),R1),R0))", 0x40e28e6000000000),
    ("pruning_clique(6)", "AlgB", "Sort(NL(NL(SM(SM(SM(R5,R4),R3),R2),R1),R0))", 0x40e28e6000000000),
    ("pruning_clique(6)", "AlgC", "Sort(NL(NL(SM(SM(SM(R5,R4),R3),R2),R1),R0))", 0x40e28e6000000000),
    ("pruning_clique(6)", "AlgC-dyn", "Sort(NL(NL(SM(SM(SM(R5,R4),R3),R2),R1),R0))", 0x40e28e6000000000),
    ("pruning_clique(6)", "AlgD", "Sort(NL(NL(SM(SM(SM(R5,R4),R3),R2),R1),R0))", 0x40e28e6000000000),
    ("pruning_clique(6)", "Bushy", "Sort(NL(NL(SM(R5,SM(R4,SM(R3,R2))),R1),R0))", 0x40e28e6000000000),
    ("chain13(seed 3)", "AlgC", "NL(NL(NL(NL(NL(NL(NL(NL(NL(NL(NL(NL(R9,R10),R8),R7),R6),R11),R12),R5),R4),R3),R2),R1),R0)", 0x4142abd8c6a929cf),
    ("star13(seed 5)", "AlgC", "Sort(NL(NL(NL(NL(NL(NL(NL(NL(NL(NL(NL(NL(R10,R0),R6),R11),R8),R3),R12),R1),R7),IxR2),IxR5),R4),R9))", 0x4156ab99be9e8f2b),
    ("clique12(seed 7)", "AlgC", "NL(NL(NL(NL(NL(NL(NL(NL(NL(NL(NL(IxR6,R11),R2),R10),R3),R0),R7),R4),R5),R8),R1),R9)", 0x4150bcfbb42c3c79),
    ("random13(seed 11)", "AlgC", "NL(NL(NL(NL(NL(NL(NL(NL(NL(NL(NL(NL(R1,R0),R4),R6),R2),R8),R12),R5),R3),R9),R10),R11),R7)", 0x414c3f3de61809e0),
];

fn memory() -> Distribution {
    presets::spread_family(500.0, 0.6, 4).expect("static parameters are valid")
}

/// Every DP mode `Optimizer::optimize` dispatches to the search engine.
fn modes(memory: &Distribution) -> Vec<Mode> {
    vec![
        Mode::Lsc(PointEstimate::Mean),
        Mode::Lsc(PointEstimate::Mode),
        Mode::AlgorithmA,
        Mode::AlgorithmB { c: 3 },
        Mode::AlgorithmC,
        Mode::AlgorithmCDynamic {
            chain: MarkovChain::sticky_uniform(memory.support().to_vec(), 0.6)
                .expect("static parameters are valid"),
        },
        Mode::AlgorithmD {
            config: AlgDConfig::default(),
        },
        Mode::Bushy,
    ]
}

/// A seeded `n`-table query of the given topology over a generated
/// catalog (the generators `engine_parity.rs` uses).
fn generated(seed: u64, n: usize, topology: Topology) -> (Catalog, Query) {
    let mut g = CatalogGenerator::new(seed);
    let cat = g.generate(n + 1);
    let ids = g.pick_tables(&cat, n);
    let q = WorkloadGenerator::new(seed ^ 0xBEEF).gen_query(
        &cat,
        &ids,
        &QueryProfile {
            topology,
            ..Default::default()
        },
    );
    (cat, q)
}

fn row(
    out: &mut Vec<(String, &'static str, String, u64)>,
    name: &str,
    opt: &Optimizer<'_>,
    query: &Query,
    mode: &Mode,
) {
    let got = opt
        .optimize(query, mode)
        .unwrap_or_else(|e| panic!("{name} under {}: {e}", mode.name()));
    out.push((
        name.to_string(),
        mode.name(),
        got.plan.compact(),
        got.cost.to_bits(),
    ));
}

fn actual() -> Vec<(String, &'static str, String, u64)> {
    let mut out = Vec::new();

    // Every mode over the fixture queries (default search config).
    let small: Vec<(&str, (Catalog, Query), Distribution)> = vec![
        (
            "example_1_1",
            fixtures::example_1_1(),
            fixtures::example_1_1_memory(),
        ),
        ("three_chain", fixtures::three_chain(), memory()),
        ("diamond", fixtures::diamond(), memory()),
        ("scaling_chain(6)", fixtures::scaling_chain(6), memory()),
        ("scaling_star(6)", fixtures::scaling_star(6), memory()),
        ("pruning_chain(7)", fixtures::pruning_chain(7), memory()),
        ("pruning_star(7)", fixtures::pruning_star(7), memory()),
        ("pruning_clique(6)", fixtures::pruning_clique(6), memory()),
    ];
    for (name, (cat, q), mem) in &small {
        let opt = Optimizer::new(cat, mem.clone());
        for mode in modes(mem) {
            row(&mut out, name, &opt, q, &mode);
        }
    }

    // Large joins under Algorithm C with pruning on — the shape of the
    // ledger's `large_joins` workload, past the canonicalizer's ceiling.
    let large: Vec<(&str, (Catalog, Query))> = vec![
        ("chain13(seed 3)", generated(3, 13, Topology::Chain)),
        ("star13(seed 5)", generated(5, 13, Topology::Star)),
        ("clique12(seed 7)", generated(7, 12, Topology::Clique)),
        ("random13(seed 11)", generated(11, 13, Topology::Random)),
    ];
    for (name, (cat, q)) in &large {
        let opt = Optimizer::new(cat, memory()).with_pruning(true);
        row(&mut out, name, &opt, q, &Mode::AlgorithmC);
    }
    out
}

#[test]
fn every_mode_returns_the_recorded_plan_and_cost_bits() {
    let actual = actual();
    let mut wrong = Vec::new();
    for (i, got) in actual.iter().enumerate() {
        let (name, mode, plan, bits) = got;
        match GOLDEN.get(i) {
            Some(&(gn, gm, gp, gb)) if gn == name && gm == *mode => {
                if gp != plan || gb != *bits {
                    wrong.push(format!(
                        "{name} under {mode}: recorded {gp} @ {gb:#018x} ({}), got {plan} @ {bits:#018x} ({})",
                        f64::from_bits(gb),
                        f64::from_bits(*bits),
                    ));
                }
            }
            _ => wrong.push(format!("{name} under {mode}: no recorded row at index {i}")),
        }
    }
    if GOLDEN.len() != actual.len() {
        wrong.push(format!(
            "{} recorded rows, {} computed",
            GOLDEN.len(),
            actual.len()
        ));
    }
    if !wrong.is_empty() {
        eprintln!("---- the table as this build computes it ----");
        for (name, mode, plan, bits) in &actual {
            eprintln!("    ({name:?}, {mode:?}, {plan:?}, {bits:#018x}),");
        }
        panic!("golden answers moved:\n  {}", wrong.join("\n  "));
    }
}
