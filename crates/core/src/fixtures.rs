//! Canonical fixtures from the paper, reused by tests, examples and the
//! experiment harness.

use lec_catalog::{Catalog, ColumnStats, TableStats};
use lec_plan::{ColumnRef, JoinPredicate, Query, QueryTable};
use lec_prob::Distribution;

/// The setting of Example 1.1: relation `A` of 1,000,000 pages, `B` of
/// 400,000 pages, a join whose result is 3000 pages, and output required
/// sorted on the join column.  Returns `(catalog, query)`.
pub fn example_1_1() -> (Catalog, Query) {
    let mut cat = Catalog::new();
    let a = cat.add_table(
        "A",
        TableStats::new(
            1_000_000,
            50_000_000,
            vec![ColumnStats::plain("k", 100_000)],
        ),
    );
    let b = cat.add_table(
        "B",
        TableStats::new(400_000, 20_000_000, vec![ColumnStats::plain("k", 100_000)]),
    );
    let sel = 3000.0 / (1_000_000.0 * 400_000.0);
    let query = Query {
        tables: vec![QueryTable::bare(a), QueryTable::bare(b)],
        joins: vec![JoinPredicate::exact(
            ColumnRef::new(0, 0),
            ColumnRef::new(1, 0),
            sel,
        )],
        required_order: Some(ColumnRef::new(0, 0)),
    };
    (cat, query)
}

/// The memory distribution of Example 1.1: "available memory is estimated
/// to be 2000 pages 80% of the time and 700 pages 20% of the time".
pub fn example_1_1_memory() -> Distribution {
    lec_prob::presets::example_1_1_memory()
}

/// A small three-table chain query with exact sizes, handy for optimality
/// tests: sizes chosen so different memory regimes prefer different join
/// orders and methods.
pub fn three_chain() -> (Catalog, Query) {
    let mut cat = Catalog::new();
    let a = cat.add_table(
        "A",
        TableStats::new(40_000, 2_000_000, vec![ColumnStats::plain("x", 1000)]),
    );
    let b = cat.add_table(
        "B",
        TableStats::new(
            10_000,
            500_000,
            vec![ColumnStats::plain("x", 1000), ColumnStats::plain("y", 500)],
        ),
    );
    let c = cat.add_table(
        "C",
        TableStats::new(90_000, 4_500_000, vec![ColumnStats::plain("y", 500)]),
    );
    let query = Query {
        tables: vec![
            QueryTable::bare(a),
            QueryTable::bare(b),
            QueryTable::bare(c),
        ],
        joins: vec![
            JoinPredicate::exact(ColumnRef::new(0, 0), ColumnRef::new(1, 0), 2e-8),
            JoinPredicate::exact(ColumnRef::new(1, 1), ColumnRef::new(2, 0), 5e-9),
        ],
        required_order: None,
    };
    (cat, query)
}

/// A "diamond" chain `A–B–C–D` built so that the optimal plan is *bushy*:
/// `A⋈B` and `C⋈D` are tiny (≈100 pages each) while the middle `B–C`
/// predicate is mild, so every left-deep order must carry a ≈100k-page
/// intermediate across it.  Used by the §4 bushy extension tests and E14.
pub fn diamond() -> (Catalog, Query) {
    let mut cat = Catalog::new();
    let ids: Vec<_> = ["A", "B", "C", "D"]
        .iter()
        .map(|name| {
            cat.add_table(
                *name,
                TableStats::new(
                    100_000,
                    5_000_000,
                    vec![ColumnStats::plain("x", 1000), ColumnStats::plain("y", 1000)],
                ),
            )
        })
        .collect();
    let tiny = 100.0 / (100_000.0f64 * 100_000.0); // 100-page results
    let query = Query {
        tables: ids.into_iter().map(QueryTable::bare).collect(),
        joins: vec![
            JoinPredicate::exact(ColumnRef::new(0, 1), ColumnRef::new(1, 0), tiny),
            JoinPredicate::exact(ColumnRef::new(1, 1), ColumnRef::new(2, 0), 1e-1),
            JoinPredicate::exact(ColumnRef::new(2, 1), ColumnRef::new(3, 0), tiny),
        ],
        required_order: None,
    };
    (cat, query)
}

/// A fixed `n`-table chain over round-number table sizes with a required
/// output order: the scaling fixture for optimization-effort experiments
/// (identical shape at every `n`).  The required order is on a column no
/// predicate joins, so every plan ends in a sort, no sort-merge order is
/// interesting, and each dag node keeps one candidate.
pub fn scaling_chain(n: usize) -> (Catalog, Query) {
    assert!(n >= 2, "a chain needs at least two tables");
    let mut catalog = Catalog::new();
    let sizes: Vec<u64> = (0..n).map(|i| 10_000 * (1 + (i as u64 % 5))).collect();
    let ids: Vec<_> = sizes
        .iter()
        .enumerate()
        .map(|(i, &pages)| {
            catalog.add_table(
                format!("S{i}"),
                TableStats::new(
                    pages,
                    pages * 50,
                    vec![ColumnStats::plain("a", 1000), ColumnStats::plain("b", 1000)],
                ),
            )
        })
        .collect();
    let query = Query {
        tables: ids.into_iter().map(QueryTable::bare).collect(),
        joins: (0..n - 1)
            .map(|i| {
                let target = (sizes[i].min(sizes[i + 1]) as f64) * 0.3;
                JoinPredicate::exact(
                    ColumnRef::new(i, 1),
                    ColumnRef::new(i + 1, 0),
                    target / (sizes[i] as f64 * sizes[i + 1] as f64),
                )
            })
            .collect(),
        required_order: Some(ColumnRef::new(n - 1, 1)),
    };
    (catalog, query)
}

/// A fixed `n`-table star: hub table 0 joined to each spoke, round-number
/// sizes, required output order on the last spoke.  The *wide* scaling
/// fixture for optimization-effort experiments: unlike the chain — whose
/// connected subsets are contiguous runs, a handful per DP level — every
/// subset containing the hub is connected, so mid levels carry
/// `C(n-1, k-1)` working nodes.
pub fn scaling_star(n: usize) -> (Catalog, Query) {
    assert!(n >= 2, "a star needs a hub and at least one spoke");
    let mut catalog = Catalog::new();
    let sizes: Vec<u64> = (0..n).map(|i| 10_000 * (1 + (i as u64 % 5))).collect();
    let ids: Vec<_> = sizes
        .iter()
        .enumerate()
        .map(|(i, &pages)| {
            catalog.add_table(
                format!("H{i}"),
                TableStats::new(
                    pages,
                    pages * 50,
                    vec![ColumnStats::plain("a", 1000), ColumnStats::plain("b", 1000)],
                ),
            )
        })
        .collect();
    let query = Query {
        tables: ids.into_iter().map(QueryTable::bare).collect(),
        joins: (1..n)
            .map(|i| {
                let target = (sizes[0].min(sizes[i]) as f64) * 0.3;
                JoinPredicate::exact(
                    ColumnRef::new(0, 1),
                    ColumnRef::new(i, 0),
                    target / (sizes[0] as f64 * sizes[i] as f64),
                )
            })
            .collect(),
        required_order: Some(ColumnRef::new(n - 1, 1)),
    };
    (catalog, query)
}

/// Selectivity of an *expansive* pruning-fixture join: output is 500× the
/// unjoined product's page factor, so any subset whose internal joins
/// include two of these carries a size floor far above what the good
/// orders ever materialize.
const PRUNING_EXPANSIVE_SEL: f64 = 0.5;

/// Selectivity of a *reductive* pruning-fixture join against a 1000-page
/// partner: each one shrinks the intermediate by 100×.
const PRUNING_REDUCTIVE_SEL: f64 = 1e-5;

/// An `n`-table chain built to exercise branch-and-bound pruning (now a
/// reach case for `lec_cost::oracle`): every table is 1000 pages, most
/// adjacent joins are strongly reductive (output shrinks 100× per join)
/// but the joins at positions `n/3` and `2n/3` are expansive (output grows
/// 500×).  Orders that cross an expansive edge while the running
/// intermediate is still large are hopeless — a contiguous run that
/// starts *at* an expansive edge has a size floor of ~5·10⁵ pages against
/// incumbents in the tens of thousands — while the good orders start
/// between the expansive edges and shrink the intermediate to a page or
/// two before crossing either one.
pub fn pruning_chain(n: usize) -> (Catalog, Query) {
    assert!(n >= 4, "the pruning chain needs at least four tables");
    let mut catalog = Catalog::new();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            catalog.add_table(
                format!("P{i}"),
                TableStats::new(
                    1000,
                    50_000,
                    vec![ColumnStats::plain("a", 1000), ColumnStats::plain("b", 1000)],
                ),
            )
        })
        .collect();
    let query = Query {
        tables: ids.into_iter().map(QueryTable::bare).collect(),
        joins: (0..n - 1)
            .map(|i| {
                let sel = if i == n / 3 || i == (2 * n) / 3 {
                    PRUNING_EXPANSIVE_SEL
                } else {
                    PRUNING_REDUCTIVE_SEL
                };
                JoinPredicate::exact(ColumnRef::new(i, 1), ColumnRef::new(i + 1, 0), sel)
            })
            .collect(),
        required_order: Some(ColumnRef::new(n - 1, 1)),
    };
    (catalog, query)
}

/// An `n`-table star built to exercise branch-and-bound pruning: a
/// 100-page hub, 1000-page spokes, and every fifth spoke (spoke indices
/// `1, 6, 11, …`) expansive while the rest are strongly reductive.  Every
/// hub-containing subset is connected, so unlike the chain the bad
/// subsets are plentiful: any subset combining expansive spokes with few
/// reductive ones has a size floor orders of magnitude above the
/// incumbent, while the good orders join every reductive spoke first and
/// pay for the expansive ones only once the intermediate has collapsed
/// to a page.  Its one-page intermediates also make Algorithm C's sizes
/// depend on join order: at 7 tables C misses the oracle's plan by 70x.
pub fn pruning_star(n: usize) -> (Catalog, Query) {
    assert!(
        n >= 3,
        "the pruning star needs a hub and at least two spokes"
    );
    let mut catalog = Catalog::new();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let pages = if i == 0 { 100 } else { 1000 };
            catalog.add_table(
                format!("Q{i}"),
                TableStats::new(
                    pages,
                    pages * 50,
                    vec![ColumnStats::plain("a", 1000), ColumnStats::plain("b", 1000)],
                ),
            )
        })
        .collect();
    let query = Query {
        tables: ids.into_iter().map(QueryTable::bare).collect(),
        joins: (1..n)
            .map(|i| {
                let sel = if i % 5 == 1 {
                    PRUNING_EXPANSIVE_SEL
                } else {
                    PRUNING_REDUCTIVE_SEL
                };
                JoinPredicate::exact(ColumnRef::new(0, 1), ColumnRef::new(i, 0), sel)
            })
            .collect(),
        required_order: Some(ColumnRef::new(n - 1, 1)),
    };
    (catalog, query)
}

/// Selectivity of an ordinary pruning-clique join: mildly reductive, so
/// intermediates shrink but the graph stays far from degenerate.
const PRUNING_CLIQUE_SEL: f64 = 1e-2;

/// An `n`-table clique built to exercise branch-and-bound pruning on a
/// *dense* join graph: every pair of 1000-page tables is joined, so every
/// subset of every size is connected.  The joins among tables `1`, `6`
/// and `11` are expansive (`PRUNING_EXPANSIVE_SEL`); every other pair
/// is mildly reductive.  Subsets gathering two or three of the expansive
/// trio before the rest of the clique has collapsed the intermediate
/// carry size floors of `5·10⁵` pages and up against incumbents in the
/// tens of thousands.
pub fn pruning_clique(n: usize) -> (Catalog, Query) {
    assert!(n >= 4, "the pruning clique needs at least four tables");
    let heavy = |i: usize| i == 1 || i == 6 || i == 11;
    let mut catalog = Catalog::new();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            catalog.add_table(
                format!("K{i}"),
                TableStats::new(
                    1000,
                    50_000,
                    vec![ColumnStats::plain("a", 1000), ColumnStats::plain("b", 1000)],
                ),
            )
        })
        .collect();
    let mut joins = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            let sel = if heavy(u) && heavy(v) {
                PRUNING_EXPANSIVE_SEL
            } else {
                PRUNING_CLIQUE_SEL
            };
            joins.push(JoinPredicate::exact(
                ColumnRef::new(u, 1),
                ColumnRef::new(v, 0),
                sel,
            ));
        }
    }
    let query = Query {
        tables: ids.into_iter().map(QueryTable::bare).collect(),
        joins,
        required_order: Some(ColumnRef::new(n - 1, 1)),
    };
    (catalog, query)
}

/// Recognizer for Example 1.1's Plan 1: a bare sort-merge join of the two
/// scans (either orientation — the SM formula is symmetric).
pub fn is_plan1(plan: &lec_plan::PlanNode) -> bool {
    use lec_plan::{JoinMethod::SortMerge, Step::*};
    matches!(plan.steps(), [SeqScan(_), SeqScan(_), Join(SortMerge, ..)])
}

/// Recognizer for Example 1.1's Plan 2: Grace hash join (either
/// orientation) followed by a sort of the small result.
pub fn is_plan2(plan: &lec_plan::PlanNode) -> bool {
    use lec_plan::{JoinMethod::GraceHash, Step::*};
    matches!(
        plan.steps(),
        [SeqScan(_), SeqScan(_), Join(GraceHash, ..), Sort(..)]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recognizers_accept_both_orientations() {
        use lec_plan::{JoinMethod, PlanNode};
        for (o, i) in [(0usize, 1usize), (1, 0)] {
            let p1 = PlanNode::join(
                JoinMethod::SortMerge,
                PlanNode::seq_scan(o),
                PlanNode::seq_scan(i),
            );
            assert!(is_plan1(&p1));
            assert!(!is_plan2(&p1));
            let p2 = PlanNode::sort(
                PlanNode::join(
                    JoinMethod::GraceHash,
                    PlanNode::seq_scan(o),
                    PlanNode::seq_scan(i),
                ),
                ColumnRef::new(0, 0),
            );
            assert!(is_plan2(&p2));
            assert!(!is_plan1(&p2));
        }
    }

    #[test]
    fn fixtures_validate() {
        let (cat, q) = example_1_1();
        assert_eq!(q.validate(&cat), Ok(()));
        let (cat, q) = three_chain();
        assert_eq!(q.validate(&cat), Ok(()));
    }

    #[test]
    fn example_memory_shape() {
        let m = example_1_1_memory();
        assert_eq!(m.support(), &[700.0, 2000.0]);
        assert_eq!(m.mode(), 2000.0);
    }
}
