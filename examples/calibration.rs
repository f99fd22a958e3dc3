//! Ground truth in the loop: audit an optimizer's predicted costs against
//! measured page I/O on a physical twin of the query.
//!
//! The calibrator scales the three-table chain down to an executable
//! replica (`rows = pages · page_cap`, page-exact selectivities), runs the
//! chosen plan through the real external operators at every memory bucket,
//! and pairs each plan node's prediction with what the buffer pool
//! actually charged.
//!
//! ```text
//! cargo run --example calibration --release
//! ```

use lec_qopt::core::{fixtures, Mode, Optimizer, PointEstimate};
use lec_qopt::cost::Objective;
use lec_qopt::exec::Calibrator;
use lec_qopt::prob::Distribution;

fn main() {
    let (catalog, query) = fixtures::three_chain();
    let cal = Calibrator::new(&catalog, &query);
    let twin = cal.twin();
    println!("physical twin (page_cap 4, cap 32 pages):");
    for qt in &twin.query.tables {
        let stats = &twin.catalog.table(qt.table).stats;
        println!(
            "  {:<12} {:>3} pages, {:>4} rows",
            twin.catalog.table(qt.table).name,
            stats.pages,
            stats.rows
        );
    }

    // Memory is equally likely to be 4, 8 or 16 pages — deep spills
    // through mostly-fitting joins.
    let memory =
        Distribution::from_pairs([(4.0, 1.0 / 3.0), (8.0, 1.0 / 3.0), (16.0, 1.0 / 3.0)]).unwrap();
    let objective = Objective::Static(memory.clone());
    let opt = Optimizer::new(&twin.catalog, memory);

    // Every audited node's (operator class, error in bp), for the
    // per-class summary at the end.
    let mut errors: Vec<(&str, u64)> = Vec::new();
    println!(
        "\n{:<10} {:>12} {:>12} {:>9}  plan",
        "mode", "predicted", "measured", "rel err"
    );
    for mode in [Mode::Lsc(PointEstimate::Mean), Mode::AlgorithmC] {
        let optimized = opt.optimize(&cal.twin().query, &mode).unwrap();
        let audit = cal.audit(&optimized.plan, &objective).unwrap();
        errors.extend(audit.nodes.iter().map(|n| (n.class.name(), n.error_bp())));
        println!(
            "{:<10} {:>12.1} {:>12.1} {:>8.1}%  {}",
            mode.name(),
            audit.predicted_expected,
            audit.measured_expected,
            100.0 * audit.relative_error(),
            audit.plan
        );
    }

    // The full audit trace for the LEC plan, as sorted-key JSON.
    let optimized = opt.optimize(&cal.twin().query, &Mode::AlgorithmC).unwrap();
    let audit = cal.audit(&optimized.plan, &objective).unwrap();
    println!("\nper-node audit of the LEC plan:");
    for node in &audit.nodes {
        println!(
            "  {:<6} class {:<12} phase {:<4} predicted {:>8.1} measured {:>8.1} ({} bp)",
            node.label,
            node.class.name(),
            node.phase.map_or("-".into(), |p| p.to_string()),
            node.predicted_expected,
            node.measured_expected,
            node.error_bp()
        );
    }
    println!("\nfull trace JSON:\n{}", audit.to_json());

    // Per operator class over both modes' audits: how many nodes, and
    // their median prediction error.
    println!("\nprediction error per operator class:");
    errors.sort_unstable();
    for class in errors.chunk_by(|a, b| a.0 == b.0) {
        println!(
            "  {:<12} {} nodes, median error {} bp",
            class[0].0,
            class.len(),
            class[(class.len() - 1) / 2].1
        );
    }
}
