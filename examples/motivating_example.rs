//! Example 1.1 of the paper, end to end: the sort-merge plan (Plan 1)
//! against the Grace-hash-plus-sort plan (Plan 2) under the bimodal memory
//! distribution.  Reproduces the numbers and the narrative of §1.1.
//!
//! ```text
//! cargo run --example motivating_example --release
//! ```

use lec_qopt::core::{fixtures, Mode, Optimizer, PointEstimate};
use lec_qopt::cost::{expected_plan_cost_static, plan_cost_at, CostModel};

fn main() {
    let (catalog, query) = fixtures::example_1_1();
    let memory = fixtures::example_1_1_memory();
    println!("Example 1.1 (PODS'99): A = 1,000,000 pages, B = 400,000 pages,");
    println!("result = 3,000 pages, output ordered by the join column.");
    println!(
        "memory: 2000 pages w.p. 0.8, 700 pages w.p. 0.2 (mean {:.0}, mode {:.0})\n",
        memory.mean(),
        memory.mode()
    );

    let opt = Optimizer::new(&catalog, memory.clone());
    let model = CostModel::new(&catalog, &query);

    // What a classical optimizer does.
    let lsc_mode = opt
        .optimize(&query, &Mode::Lsc(PointEstimate::Mode))
        .unwrap();
    let lsc_mean = opt
        .optimize(&query, &Mode::Lsc(PointEstimate::Mean))
        .unwrap();
    // What the paper proposes.
    let lec = opt.optimize(&query, &Mode::AlgorithmC).unwrap();

    println!("LSC @ mode (2000): {}", lsc_mode.plan.compact());
    println!("LSC @ mean (1740): {}", lsc_mean.plan.compact());
    println!("LEC (Algorithm C): {}\n", lec.plan.compact());

    // The paper's cost table.
    println!(
        "{:<22} {:>14} {:>14} {:>14}",
        "plan", "C(P, 2000)", "C(P, 700)", "EC(P)"
    );
    let ec = |plan| expected_plan_cost_static(&model, plan, &memory);
    for (name, plan) in [
        ("Plan 1 = SM(A,B)", &lsc_mode.plan),
        ("Plan 2 = Sort(GH(A,B))", &lec.plan),
    ] {
        let hi = plan_cost_at(&model, plan, 2000.0);
        let lo = plan_cost_at(&model, plan, 700.0);
        println!("{name:<22} {hi:>14.0} {lo:>14.0} {:>14.0}", ec(plan));
    }

    // "In 80% of the runs, Plan 2 is slightly more expensive than Plan 1
    //  ... whereas in 20% of the cases, Plan 1 is far more expensive."
    println!(
        "\nLEC plan is {:.1}% cheaper on average — the paper's claim.",
        (1.0 - ec(&lec.plan) / ec(&lsc_mode.plan)) * 100.0
    );
}
