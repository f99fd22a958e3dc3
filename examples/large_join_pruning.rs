//! Breaking the table-count ceilings with branch-and-bound pruning.
//!
//! Three ceilings fall in this demo:
//!
//! 1. The *exhaustive verifier* refuses anything past 7 tables (or one
//!    million materialized plans) because plain keep-all holds every plan
//!    in memory.  With `SearchConfig::pruning` it becomes a streaming
//!    branch-and-bound verifier — candidates that provably cannot beat
//!    the incumbent are discarded on emission — and the same 8-table
//!    chain it refused now verifies the DP's answer exactly.
//!
//! 2. On a 15-table star, pruned keep-best discards whole connected
//!    subsets before their combine/cost loops: every subset that combines
//!    two expansive spokes without enough reductive ones carries an
//!    admissible size floor far above the incumbent.  The per-level trace
//!    shows where the discards land and how often the tiered check
//!    escalated from the cheap universal floor to the sharp per-edge one.
//!    The answer is byte-identical to the unpruned search — pruning only
//!    skips work that could not have changed it.
//!
//! 3. A 12-table *clique* — every pair joined, so every subset of every
//!    size is connected and the structural disconnected-subset discard
//!    never fires — completes under pruned keep-best with the bound tiers
//!    doing all the work.
//!
//! Run with `cargo run --release --example large_join_pruning`.

use std::sync::Arc;

use lec_core::fixtures::{pruning_chain, pruning_clique, pruning_star};
use lec_core::{exhaustive_best, optimize, MemoryCoster, Mode, PlanShape, SearchConfig};
use lec_cost::CostModel;
use lec_telemetry::EngineTelemetry;

fn main() {
    let memory = lec_prob::presets::spread_family(400.0, 0.5, 4).unwrap();
    let pruned = SearchConfig::default().with_pruning(true);

    // --- Ceiling 1: the 7-table exhaustive cap. -------------------------
    let (cat, q) = pruning_chain(8);
    let model = CostModel::new(&cat, &q);
    let refused = exhaustive_best(
        &model,
        MemoryCoster::fixed(&memory),
        PlanShape::LeftDeep,
        &SearchConfig::default(),
    );
    println!(
        "8-table chain, plain exhaustive:  {}",
        refused
            .as_ref()
            .err()
            .map_or("(ran?!)".into(), |e| e.to_string())
    );
    assert!(
        refused.is_err(),
        "the unpruned verifier must refuse 8 tables"
    );

    let verified = exhaustive_best(
        &model,
        MemoryCoster::fixed(&memory),
        PlanShape::LeftDeep,
        &pruned,
    )
    .expect("the streaming verifier handles 8 tables");
    let dp = optimize(&model, &memory, &Mode::AlgorithmC, &pruned).expect("keep-best");
    println!(
        "8-table chain, pruned verifier:   cost {:.0}, {} plans costed, {} subsets pruned",
        verified.cost,
        verified.plans_costed().unwrap_or(0),
        verified.stats.pruned_subsets,
    );
    assert_eq!(
        verified.cost.to_bits(),
        dp.cost.to_bits(),
        "the verifier and the DP must agree exactly"
    );

    // --- Ceiling 2: pruned keep-best on a 15-table star. ----------------
    let (cat, q) = pruning_star(15);
    let model = CostModel::new(&cat, &q);
    let unpruned = optimize(&model, &memory, &Mode::AlgorithmC, &SearchConfig::default())
        .expect("unpruned keep-best");
    let engine = Arc::new(EngineTelemetry::default());
    let traced = pruned.clone().with_telemetry(engine.clone());
    let fast = optimize(&model, &memory, &Mode::AlgorithmC, &traced).expect("pruned keep-best");
    println!(
        "15-table star, unpruned keep-best: cost {:.0}, {} nodes, {} candidates",
        unpruned.cost, unpruned.stats.nodes, unpruned.stats.candidates,
    );
    println!(
        "15-table star, pruned keep-best:   cost {:.0}, {} nodes, {} candidates, {} subsets pruned",
        fast.cost, fast.stats.nodes, fast.stats.candidates, fast.stats.pruned_subsets,
    );
    println!(
        "  bound tiers: {} sharp per-edge evals, {} cheap-floor-only checks",
        fast.stats.sharp_bound_evals, fast.stats.cheap_bound_skips,
    );
    println!("  level  pruned  sharp  cheap");
    for l in engine.level_prunes() {
        println!(
            "  {:>5}  {:>6}  {:>5}  {:>5}",
            l.level, l.pruned_subsets, l.sharp_bound_evals, l.cheap_bound_skips,
        );
    }
    let traced_total: u64 = engine.level_prunes().iter().map(|l| l.pruned_subsets).sum();
    assert_eq!(
        traced_total, fast.stats.pruned_subsets,
        "the per-level trace must account for every pruned subset"
    );
    assert_eq!(
        unpruned.plan, fast.plan,
        "pruning must not change the chosen plan"
    );
    assert_eq!(
        unpruned.cost.to_bits(),
        fast.cost.to_bits(),
        "pruning must not change the cost, to the bit"
    );
    assert!(
        fast.stats.pruned_subsets > 0,
        "the star must actually trigger pruning"
    );
    assert!(
        fast.stats.candidates < unpruned.stats.candidates,
        "pruning must save combine work"
    );

    // --- Ceiling 3: a 12-table clique, every subset connected. ----------
    let (cat, q) = pruning_clique(12);
    let model = CostModel::new(&cat, &q);
    let dense = optimize(&model, &memory, &Mode::AlgorithmC, &pruned).expect("pruned clique");
    println!(
        "12-table clique, pruned keep-best: cost {:.0}, {} nodes, {} subsets pruned, \
         {} sharp / {} cheap",
        dense.cost,
        dense.stats.nodes,
        dense.stats.pruned_subsets,
        dense.stats.sharp_bound_evals,
        dense.stats.cheap_bound_skips,
    );
    assert!(
        dense.stats.pruned_subsets > 0,
        "the clique must actually trigger pruning"
    );
    println!("answers byte-identical; pruning only removed work.");
}
