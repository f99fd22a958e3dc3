//! Fixtures shared by the service's integration suites.

use lec_catalog::{Catalog, ColumnStats, TableStats};
use lec_plan::{ColumnRef, JoinPredicate, Query, QueryTable};

/// A 5-cycle `0-1-2-3-4-0` that colour refinement cannot make discrete:
/// mirrored through table 1, tables 0/2 and 3/4 pair up, each pair in one
/// log₂ size bucket and differing only in rows.  No two tables are exact
/// twins, so the query is cacheable — through the canonicalizer's
/// enumeration path (two two-member classes, four candidate labelings).
pub fn near_twin_cycle() -> (Catalog, Query) {
    let mut cat = Catalog::new();
    let sizes = [
        (1000, 50_000),
        (50_000, 2_500_000),
        (1000, 50_001),
        (7000, 300_001),
        (7000, 300_000),
    ];
    let tables = sizes.into_iter().enumerate().map(|(i, (pages, rows))| {
        let columns = vec![ColumnStats::plain("a", 100)];
        QueryTable::bare(cat.add_table(format!("N{i}"), TableStats::new(pages, rows, columns)))
    });
    let q = Query {
        tables: tables.collect(),
        joins: (0..5)
            .map(|i| {
                let (l, r) = (ColumnRef::new(i, 0), ColumnRef::new((i + 1) % 5, 0));
                JoinPredicate::exact(l, r, 1e-5)
            })
            .collect(),
        required_order: None,
    };
    (cat, q)
}
