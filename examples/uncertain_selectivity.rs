//! Algorithm D (§3.6): selectivities as random variables.
//!
//! A classical optimizer collapses each selectivity to its mean; Algorithm D
//! carries a distribution per predicate, propagates result-*size*
//! distributions through the DP dag (Figure 1), and costs joins with the
//! linear-time expected-cost algorithms of §3.6.1/§3.6.2.
//!
//! ```text
//! cargo run --example uncertain_selectivity --release
//! ```

use lec_qopt::catalog::{Catalog, ColumnStats, TableStats};
use lec_qopt::core::{AlgDConfig, Mode, Optimizer, PointEstimate};
use lec_qopt::plan::{ColumnRef, JoinPredicate, Query, QueryTable};
use lec_qopt::prob::{presets, Distribution};

fn main() {
    let mut catalog = Catalog::new();
    let events = catalog.add_table(
        "events",
        TableStats::new(
            500_000,
            25_000_000,
            vec![
                ColumnStats::plain("user_id", 1_000_000),
                ColumnStats::plain("kind", 50),
            ],
        ),
    );
    let users = catalog.add_table(
        "users",
        TableStats::new(
            20_000,
            1_000_000,
            vec![ColumnStats::plain("user_id", 1_000_000)],
        ),
    );

    // The join selectivity is uncertain by an order of magnitude in each
    // direction — the situation §3.6 calls "notoriously uncertain".
    let mean_sel = 6000.0 / (500_000.0 * 20_000.0);
    let sel = presets::selectivity_band(mean_sel / 10.0, mean_sel * 10.0, 7).unwrap();
    println!(
        "join selectivity: {} buckets over [{:.2e}, {:.2e}], mean {:.2e}",
        sel.len(),
        sel.min_value(),
        sel.max_value(),
        sel.mean()
    );

    let query = Query {
        tables: vec![QueryTable::bare(events), QueryTable::bare(users)],
        joins: vec![JoinPredicate {
            left: ColumnRef::new(0, 0),
            right: ColumnRef::new(1, 0),
            selectivity: sel,
        }],
        required_order: Some(ColumnRef::new(0, 0)),
    };

    let memory = Distribution::from_pairs([(400.0, 0.3), (1200.0, 0.7)]).unwrap();
    let opt = Optimizer::new(&catalog, memory);

    println!("\n{:<28} {:>30} {:>16}", "optimizer", "plan", "objective");
    for mode in [
        // Classical: mean memory AND mean selectivity.
        Mode::Lsc(PointEstimate::Mean),
        // Algorithm C: memory distribution, point selectivity (the mean).
        Mode::AlgorithmC,
        // Algorithm D: both distributions.
        Mode::AlgorithmD {
            config: AlgDConfig::default(),
        },
    ] {
        let r = opt.optimize(&query, &mode).unwrap();
        println!(
            "{:<28} {:>30} {:>16.0}",
            mode.name(),
            r.plan.compact(),
            r.cost
        );
    }
    println!();
    println!("Algorithm C prices the sort of the result at its MEAN size;");
    println!("Algorithm D prices it against the whole size distribution, so a");
    println!("heavy upper tail (large possible results) raises the expected");
    println!("sort cost and can flip the plan choice toward sort-free plans.");
}
