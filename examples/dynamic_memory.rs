//! Dynamic memory (§3.5): optimizing when memory drifts between execution
//! phases.  Compares LSC, static Algorithm C, and dynamic Algorithm C
//! under a birth–death Markov environment.
//!
//! ```text
//! cargo run --example dynamic_memory --release
//! ```

use lec_qopt::catalog::{Catalog, ColumnStats, TableStats};
use lec_qopt::core::{Mode, Optimizer, PointEstimate};
use lec_qopt::cost::CostModel;
use lec_qopt::plan::{ColumnRef, JoinPredicate, Query, QueryTable};
use lec_qopt::prob::{Distribution, MarkovChain};

fn main() {
    // A 4-way chain join: long enough that later phases matter.
    let mut catalog = Catalog::new();
    let sizes = [60_000u64, 20_000, 45_000, 90_000];
    let ids: Vec<_> = sizes
        .iter()
        .enumerate()
        .map(|(i, &pages)| {
            catalog.add_table(
                format!("R{i}"),
                TableStats::new(
                    pages,
                    pages * 40,
                    vec![ColumnStats::plain("a", 5000), ColumnStats::plain("b", 5000)],
                ),
            )
        })
        .collect();
    let query = Query {
        tables: ids.iter().map(|&id| QueryTable::bare(id)).collect(),
        joins: (0..3)
            .map(|i| {
                JoinPredicate::exact(
                    ColumnRef::new(i, 1),
                    ColumnRef::new(i + 1, 0),
                    1.2 / (sizes[i] as f64 * sizes[i + 1] as f64 / 20_000.0),
                )
            })
            .collect(),
        required_order: Some(ColumnRef::new(3, 0)),
    };

    // The environment: memory starts high but tends to decay as new work
    // arrives (down-moves more likely than up-moves).
    let states = vec![50.0, 150.0, 450.0, 1350.0];
    let chain = MarkovChain::birth_death(states.clone(), 0.45, 0.10).unwrap();
    let initial = Distribution::point(1350.0);
    println!("memory states {states:?}, start at 1350, p_down=0.45, p_up=0.10");
    let stationary = chain.stationary(1e-12, 100_000).unwrap();
    println!(
        "stationary distribution: {:?}",
        stationary
            .iter()
            .map(|(v, p)| format!("{v:.0}:{p:.2}"))
            .collect::<Vec<_>>()
    );

    let opt = Optimizer::new(&catalog, initial.clone());
    let lsc = opt
        .optimize(&query, &Mode::Lsc(PointEstimate::Mean))
        .unwrap();
    let stat = opt.optimize(&query, &Mode::AlgorithmC).unwrap();
    let dynm = opt
        .optimize(
            &query,
            &Mode::AlgorithmCDynamic {
                chain: chain.clone(),
            },
        )
        .unwrap();

    println!("\nLSC @ start value:    {}", lsc.plan.compact());
    println!("static Algorithm C:   {}", stat.plan.compact());
    println!("dynamic Algorithm C:  {}", dynm.plan.compact());

    // Price all three in the *true* (drifting) environment: the dynamic
    // mode's own objective, phase by phase.
    let model = CostModel::new(&catalog, &query);
    let drifting = Mode::AlgorithmCDynamic { chain }
        .objective(&initial)
        .unwrap();
    println!("\nexpected cost under the drift:");
    for (name, plan) in [
        ("LSC", &lsc.plan),
        ("static LEC", &stat.plan),
        ("dynamic LEC", &dynm.plan),
    ] {
        println!("  {name:<12} {:>14.0}", drifting.replay(&model, plan));
    }
    println!("\nTheorem 3.4: the dynamic variant is optimal for the drifting");
    println!("environment; the static variant optimizes for a world where the");
    println!("start-up distribution lasts forever.");
}
