//! Golden answers: the plan (`PlanNode::compact`) and cost bits every DP
//! mode returns, and the work it did to get there, pinned as literals.
//!
//! Every other parity suite compares two runs of the *same* binary
//! (cached vs fresh, wire vs in-process), so a change
//! that moves both sides moves none of them.  `GOLDEN` was recorded at
//! the commit before plan nodes became a shared dag and the subplan memo
//! was deleted, `GOLDEN_COUNTERS` at the commit before the parallel DP
//! driver was deleted (it ran these searches fanned out or not, with the
//! same counters either way), and its `evals` and `cache_hits` columns
//! again when a combine began pricing each operand-size pair once and
//! Algorithm D's eval cache was deleted; the four large rows' pruning,
//! `candidates` and `evals` columns moved again when served searches
//! stopped pruning (the greedy incumbent walks had counted their
//! combines); `candidates` and `evals` moved again, with one `GOLDEN`
//! plan (`pruning_chain(7)` under AlgB, an exact cost tie, its cost bits
//! unchanged), when only the required order stayed interesting; the
//! keep-1 rows' `evals` fell when a search began keeping its join prices
//! in one table, not per split; Algorithm A's `evals` moved when A became
//! Algorithm B's lane search at `c = 1`, ranking each distinct candidate
//! once.  A refactor of the search path
//! must leave every row of both untouched.  When a row *should* move (a
//! cost formula or tie-break changes on purpose), the failure message
//! prints the whole table as the code now computes it — paste it over
//! the constant.

use lec_catalog::{Catalog, CatalogGenerator};
use lec_core::search::{
    run_search_with, JoinContext, KeepBestPolicy, MemoryCoster, PhaseCoster, PlanShape,
};
use lec_core::{fixtures, AlgDConfig, Mode, Optimizer, PointEstimate, SearchStats};
use lec_cost::CostModel;
use lec_plan::{JoinMethod, Query, QueryProfile, Topology, WorkloadGenerator};
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
    ("pruning_chain(7)", "AlgB", "Sort(SM(NL(BNL(NL(NL(SM(R2,R1),R0),R3),R4),R5),R6))", 0x40d6bec000000000),
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

/// `(query, mode, [nodes, candidates, evals, cache_hits, pruned_subsets,
/// bound_evals, sharp_bound_evals, cheap_bound_skips])` — the work each
/// search did for the answer above, same rows in the same order.  The
/// answers alone would not notice a search that reaches the same plan by
/// doing different work; a counter that moves means the search changed.
type CounterRow = (&'static str, &'static str, [u64; 8]);

#[rustfmt::skip]
const GOLDEN_COUNTERS: &[CounterRow] = &[
    ("example_1_1", "LSC(mean)", [3, 8, 10, 0, 0, 0, 0, 0]),
    ("example_1_1", "LSC(mode)", [3, 8, 10, 0, 0, 0, 0, 0]),
    ("example_1_1", "AlgA", [9, 24, 43, 0, 0, 0, 0, 0]),
    ("example_1_1", "AlgB", [9, 24, 59, 0, 0, 0, 0, 0]),
    ("example_1_1", "AlgC", [3, 8, 20, 0, 0, 0, 0, 0]),
    ("example_1_1", "AlgC-dyn", [3, 8, 20, 0, 0, 0, 0, 0]),
    ("example_1_1", "AlgD", [3, 8, 19, 0, 0, 0, 0, 0]),
    ("example_1_1", "Bushy", [3, 8, 20, 0, 0, 0, 0, 0]),
    ("three_chain", "LSC(mean)", [6, 24, 27, 0, 0, 0, 0, 0]),
    ("three_chain", "LSC(mode)", [6, 24, 27, 0, 0, 0, 0, 0]),
    ("three_chain", "AlgA", [30, 120, 157, 0, 0, 0, 0, 0]),
    ("three_chain", "AlgB", [30, 200, 190, 0, 0, 0, 0, 0]),
    ("three_chain", "AlgC", [6, 24, 99, 0, 0, 0, 0, 0]),
    ("three_chain", "AlgC-dyn", [6, 24, 99, 0, 0, 0, 0, 0]),
    ("three_chain", "AlgD", [6, 24, 63, 0, 0, 0, 0, 0]),
    ("three_chain", "Bushy", [6, 32, 131, 0, 0, 0, 0, 0]),
    ("diamond", "LSC(mean)", [10, 48, 20, 0, 0, 0, 0, 0]),
    ("diamond", "LSC(mode)", [10, 48, 20, 0, 0, 0, 0, 0]),
    ("diamond", "AlgA", [50, 240, 292, 0, 0, 0, 0, 0]),
    ("diamond", "AlgB", [50, 480, 356, 0, 0, 0, 0, 0]),
    ("diamond", "AlgC", [10, 48, 68, 0, 0, 0, 0, 0]),
    ("diamond", "AlgC-dyn", [10, 48, 68, 0, 0, 0, 0, 0]),
    ("diamond", "AlgD", [10, 48, 124, 0, 0, 0, 0, 0]),
    ("diamond", "Bushy", [10, 80, 132, 0, 0, 0, 0, 0]),
    ("scaling_chain(6)", "LSC(mean)", [21, 120, 123, 0, 0, 0, 0, 0]),
    ("scaling_chain(6)", "LSC(mode)", [21, 120, 123, 0, 0, 0, 0, 0]),
    ("scaling_chain(6)", "AlgA", [105, 600, 755, 0, 0, 0, 0, 0]),
    ("scaling_chain(6)", "AlgB", [105, 1400, 1005, 0, 0, 0, 0, 0]),
    ("scaling_chain(6)", "AlgC", [21, 120, 474, 0, 0, 0, 0, 0]),
    ("scaling_chain(6)", "AlgC-dyn", [21, 120, 474, 0, 0, 0, 0, 0]),
    ("scaling_chain(6)", "AlgD", [21, 120, 307, 0, 0, 0, 0, 0]),
    ("scaling_chain(6)", "Bushy", [21, 280, 1082, 0, 0, 0, 0, 0]),
    ("scaling_star(6)", "LSC(mean)", [37, 340, 199, 0, 0, 0, 0, 0]),
    ("scaling_star(6)", "LSC(mode)", [37, 340, 199, 0, 0, 0, 0, 0]),
    ("scaling_star(6)", "AlgA", [185, 1700, 1825, 0, 0, 0, 0, 0]),
    ("scaling_star(6)", "AlgB", [185, 4700, 2359, 0, 0, 0, 0, 0]),
    ("scaling_star(6)", "AlgC", [37, 340, 714, 0, 0, 0, 0, 0]),
    ("scaling_star(6)", "AlgC-dyn", [37, 340, 650, 0, 0, 0, 0, 0]),
    ("scaling_star(6)", "AlgD", [37, 340, 857, 0, 0, 0, 0, 0]),
    ("scaling_star(6)", "Bushy", [37, 640, 1210, 0, 0, 0, 0, 0]),
    ("pruning_chain(7)", "LSC(mean)", [28, 168, 56, 0, 0, 0, 0, 0]),
    ("pruning_chain(7)", "LSC(mode)", [28, 168, 56, 0, 0, 0, 0, 0]),
    ("pruning_chain(7)", "AlgA", [140, 840, 1020, 0, 0, 0, 0, 0]),
    ("pruning_chain(7)", "AlgB", [140, 2040, 1310, 0, 0, 0, 0, 0]),
    ("pruning_chain(7)", "AlgC", [28, 168, 203, 0, 0, 0, 0, 0]),
    ("pruning_chain(7)", "AlgC-dyn", [28, 168, 203, 0, 0, 0, 0, 0]),
    ("pruning_chain(7)", "AlgD", [28, 168, 428, 0, 0, 0, 0, 0]),
    ("pruning_chain(7)", "Bushy", [28, 448, 859, 0, 0, 0, 0, 0]),
    ("pruning_star(7)", "LSC(mean)", [70, 792, 56, 0, 0, 0, 0, 0]),
    ("pruning_star(7)", "LSC(mode)", [70, 792, 56, 0, 0, 0, 0, 0]),
    ("pruning_star(7)", "AlgA", [350, 3960, 4105, 0, 0, 0, 0, 0]),
    ("pruning_star(7)", "AlgB", [350, 11400, 4325, 0, 0, 0, 0, 0]),
    ("pruning_star(7)", "AlgC", [70, 792, 203, 0, 0, 0, 0, 0]),
    ("pruning_star(7)", "AlgC-dyn", [70, 792, 123, 0, 0, 0, 0, 0]),
    ("pruning_star(7)", "AlgD", [70, 792, 1988, 0, 0, 0, 0, 0]),
    ("pruning_star(7)", "Bushy", [70, 1536, 283, 0, 0, 0, 0, 0]),
    ("pruning_clique(6)", "LSC(mean)", [63, 744, 23, 0, 0, 0, 0, 0]),
    ("pruning_clique(6)", "LSC(mode)", [63, 744, 23, 0, 0, 0, 0, 0]),
    ("pruning_clique(6)", "AlgA", [315, 3720, 3815, 0, 0, 0, 0, 0]),
    ("pruning_clique(6)", "AlgB", [315, 9960, 3945, 0, 0, 0, 0, 0]),
    ("pruning_clique(6)", "AlgC", [63, 744, 74, 0, 0, 0, 0, 0]),
    ("pruning_clique(6)", "AlgC-dyn", [63, 744, 90, 0, 0, 0, 0, 0]),
    ("pruning_clique(6)", "AlgD", [63, 744, 1867, 0, 0, 0, 0, 0]),
    ("pruning_clique(6)", "Bushy", [63, 2408, 458, 0, 0, 0, 0, 0]),
    ("chain13(seed 3)", "AlgC", [91, 624, 1408, 0, 0, 0, 0, 0]),
    ("star13(seed 5)", "AlgC", [4108, 190512, 99428, 0, 0, 0, 0, 0]),
    ("clique12(seed 7)", "AlgC", [4095, 175684, 11393, 0, 0, 0, 0, 0]),
    ("random13(seed 11)", "AlgC", [1055, 17308, 5488, 0, 0, 0, 0, 0]),
];

fn counters(stats: &SearchStats) -> [u64; 8] {
    [
        stats.nodes as u64,
        stats.candidates,
        stats.evals,
        stats.cache_hits,
        stats.pruned_subsets,
        stats.bound_evals,
        stats.sharp_bound_evals,
        stats.cheap_bound_skips,
    ]
}

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

/// One computed row: `(query, mode, plan.compact(), cost.to_bits(), counters)`.
type Computed = (String, &'static str, String, u64, [u64; 8]);

fn row(out: &mut Vec<Computed>, name: &str, opt: &Optimizer<'_>, query: &Query, mode: &Mode) {
    let got = opt
        .optimize(query, mode)
        .unwrap_or_else(|e| panic!("{name} under {}: {e}", mode.name()));
    out.push((
        name.to_string(),
        mode.name(),
        got.plan.compact(),
        got.cost.to_bits(),
        counters(&got.stats),
    ));
}

fn actual() -> Vec<Computed> {
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

    // Large joins under Algorithm C — the shape of the ledger's
    // `large_joins` workload, past the canonicalizer's ceiling.
    let large: Vec<(&str, (Catalog, Query))> = vec![
        ("chain13(seed 3)", generated(3, 13, Topology::Chain)),
        ("star13(seed 5)", generated(5, 13, Topology::Star)),
        ("clique12(seed 7)", generated(7, 12, Topology::Clique)),
        ("random13(seed 11)", generated(11, 13, Topology::Random)),
    ];
    for (name, (cat, q)) in &large {
        let opt = Optimizer::new(cat, memory());
        row(&mut out, name, &opt, q, &Mode::AlgorithmC);
    }
    out
}

#[test]
fn every_mode_returns_the_recorded_plan_and_cost_bits() {
    let actual = actual();
    let mut wrong = Vec::new();
    for (i, got) in actual.iter().enumerate() {
        let (name, mode, plan, bits, _) = got;
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
        for (name, mode, plan, bits, _) in &actual {
            eprintln!("    ({name:?}, {mode:?}, {plan:?}, {bits:#018x}),");
        }
        panic!("golden answers moved:\n  {}", wrong.join("\n  "));
    }
}

#[test]
fn every_mode_does_the_recorded_work() {
    let actual = actual();
    let mut wrong = Vec::new();
    for (i, (name, mode, _, _, got)) in actual.iter().enumerate() {
        match GOLDEN_COUNTERS.get(i) {
            Some(&(gn, gm, recorded)) if gn == name && gm == *mode => {
                if recorded != *got {
                    wrong.push(format!(
                        "{name} under {mode}: recorded {recorded:?}, got {got:?}"
                    ));
                }
            }
            _ => wrong.push(format!("{name} under {mode}: no recorded row at index {i}")),
        }
    }
    if GOLDEN_COUNTERS.len() != actual.len() {
        wrong.push(format!(
            "{} recorded rows, {} computed",
            GOLDEN_COUNTERS.len(),
            actual.len()
        ));
    }
    if !wrong.is_empty() {
        eprintln!("---- the counter table as this build computes it ----");
        for (name, mode, _, _, got) in &actual {
            eprintln!("    ({name:?}, {mode:?}, {got:?}),");
        }
        panic!(
            "work counters moved (nodes, candidates, evals, cache_hits, pruned_subsets, \
             bound_evals, sharp_bound_evals, cheap_bound_skips):\n  {}",
            wrong.join("\n  ")
        );
    }
}

/// Algorithm C's coster, counting its join costings; the `k`-th panics
/// (none, for `k = 0`).
struct PanicsOnKthCall {
    inner: MemoryCoster,
    calls: std::cell::Cell<usize>,
    k: usize,
}

impl PhaseCoster for PanicsOnKthCall {
    fn join_cost(
        &self,
        model: &CostModel<'_>,
        ctx: &JoinContext,
        method: JoinMethod,
        outer: f64,
        inner: f64,
    ) -> f64 {
        self.calls.set(self.calls.get() + 1);
        if self.calls.get() == self.k {
            panic!("the coster blew up mid-combine");
        }
        self.inner.join_cost(model, ctx, method, outer, inner)
    }

    fn sort_cost(&self, model: &CostModel<'_>, phase: usize, pages: f64) -> f64 {
        self.inner.sort_cost(model, phase, pages)
    }
}

/// A search is a plain call: a coster's panic unwinds out of it to the
/// caller, and the model it was using stays usable — the next search on
/// the *same* `CostModel` returns the recorded answer.  The panicking
/// calls are the search's first, middle and last join costing, counted
/// by a run that does not panic.
#[test]
fn a_panicking_coster_unwinds_and_leaves_the_model_usable() {
    let (cat, q) = fixtures::scaling_chain(6);
    let model = CostModel::new(&cat, &q);
    let mem = memory();
    let search = |k| {
        let mut policy = KeepBestPolicy::new(PanicsOnKthCall {
            inner: MemoryCoster::fixed(&mem),
            calls: std::cell::Cell::new(0),
            k,
        });
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_search_with(&model, PlanShape::LeftDeep, &mut policy)
        }));
        (run, policy.coster.calls.get())
    };
    let (counted, calls) = search(0);
    counted
        .expect("no call panics")
        .expect("the counting run finishes");
    assert!(
        calls >= 3,
        "a six-table search costs more than {calls} joins"
    );
    for k in [1, calls / 2, calls] {
        let payload = search(k)
            .0
            .expect_err("the k-th call panics before the search can finish");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"the coster blew up mid-combine"),
            "k = {k}"
        );
    }
    let got =
        lec_core::optimize(&model, &mem, &Mode::AlgorithmC).expect("the model still searches");
    let &(_, _, plan, bits) = GOLDEN
        .iter()
        .find(|r| r.0 == "scaling_chain(6)" && r.1 == "AlgC")
        .expect("the row is recorded");
    assert_eq!(got.plan.compact(), plan);
    assert_eq!(got.cost.to_bits(), bits);
}
