//! Quickstart: optimize one query under uncertainty, compare LSC and LEC.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use lec_qopt::catalog::{Catalog, ColumnStats, TableStats};
use lec_qopt::core::{Mode, Optimizer, PointEstimate};
use lec_qopt::plan::{ColumnRef, JoinPredicate, Query, QueryTable};
use lec_qopt::prob::Distribution;

fn main() {
    // 1. A catalog with three tables.
    let mut catalog = Catalog::new();
    let orders = catalog.add_table(
        "orders",
        TableStats::new(
            80_000,
            4_000_000,
            vec![
                ColumnStats::plain("customer_id", 100_000),
                ColumnStats::plain("order_id", 4_000_000),
            ],
        ),
    );
    let lines = catalog.add_table(
        "lineitems",
        TableStats::new(
            300_000,
            24_000_000,
            vec![ColumnStats::plain("order_id", 4_000_000)],
        ),
    );
    let customers = catalog.add_table(
        "customers",
        TableStats::new(
            5_000,
            250_000,
            vec![ColumnStats::plain("customer_id", 100_000)],
        ),
    );

    // 2. A chain query: customers ⋈ orders ⋈ lineitems, ordered by order_id.
    let query = Query {
        tables: vec![
            QueryTable::bare(customers),
            QueryTable::bare(orders),
            QueryTable::bare(lines),
        ],
        joins: vec![
            // customers ⋈ orders keeps ~40k pages of orders ...
            JoinPredicate::exact(ColumnRef::new(0, 0), ColumnRef::new(1, 0), 1e-4),
            // ... and ⋈ lineitems yields a ~30k page result.
            JoinPredicate::exact(ColumnRef::new(1, 1), ColumnRef::new(2, 0), 2.5e-9),
        ],
        required_order: Some(ColumnRef::new(1, 1)),
    };

    // 3. What the optimizer believes about run-time memory: usually roomy,
    //    sometimes squeezed (a consolidation-era reality).
    let memory = Distribution::from_pairs([(300.0, 0.25), (1500.0, 0.75)]).unwrap();
    println!(
        "memory belief: {:?} (mean {:.0})",
        memory.support(),
        memory.mean()
    );

    let opt = Optimizer::new(&catalog, memory);

    // 4. Optimize classically and with Algorithm C.
    let lsc = opt
        .optimize(&query, &Mode::Lsc(PointEstimate::Mean))
        .unwrap();
    let lec = opt.optimize(&query, &Mode::AlgorithmC).unwrap();

    println!("\nLSC plan (classical, costed at the mean):");
    print!("{}", lsc.plan);
    println!("LEC plan (Algorithm C):");
    print!("{}", lec.plan);

    // 5. Expected costs under the true distribution — the LEC objective.
    let ec_lsc = opt.expected_cost_of(&query, &lsc.plan);
    let ec_lec = opt.expected_cost_of(&query, &lec.plan);
    println!("\nexpected cost: LSC plan {ec_lsc:>14.0}");
    println!("expected cost: LEC plan {ec_lec:>14.0}");
    println!(
        "\nLEC saves {:.1}% on average{}",
        (1.0 - ec_lec / ec_lsc) * 100.0,
        if lsc.plan == lec.plan {
            " (same plan here)"
        } else {
            ""
        }
    );
}
