//! Synthetic data generation for the calibration twin ([`crate::calib`]).
//!
//! Semantics are fixed so that queries are *executable*, not just costable:
//!
//! * column `c` of a table holds integers uniform in `[0, domain_c)`;
//! * columns joined by a predicate share a common domain (so joins match);
//! * a local predicate with selectivity `σ` means `value < ⌈σ·domain⌉` —
//!   the generated data then honors the cataloged selectivity in
//!   expectation.

use crate::bufpool::Row;
use lec_catalog::Catalog;
use lec_plan::{ColumnEquivalences, ColumnRef, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generated base-table rows for one query, indexed by query-table
/// position.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Rows per query table.
    pub tables: Vec<Vec<Row>>,
    /// Column domains per query table (needed to resolve filters).
    pub domains: Vec<Vec<i64>>,
}

/// Domain shared by all join-equated columns.  Small enough that joins hit.
/// Public because the calibration twin ([`crate::calib`]) rewrites join
/// selectivities to the exact page-level value this domain induces.
pub const JOIN_DOMAIN: i64 = 16;
/// Domain for plain columns.
pub const PLAIN_DOMAIN: i64 = 40;

/// Generate a dataset for `query`: each table gets the catalog's row
/// count (at least one row), so callers pass a catalog small enough to
/// materialize, such as a calibration twin.
pub fn generate(catalog: &Catalog, query: &Query, seed: u64) -> Dataset {
    let eq = ColumnEquivalences::for_query(query);
    // A column participates in a join iff its equivalence class is shared
    // with some other column mentioned in a predicate.
    let is_join_col = |c: ColumnRef| {
        query
            .joins
            .iter()
            .any(|p| eq.same_class(p.left, c) || eq.same_class(p.right, c))
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tables = Vec::with_capacity(query.n_tables());
    let mut domains = Vec::with_capacity(query.n_tables());
    for (t_idx, qt) in query.tables.iter().enumerate() {
        let stats = &catalog.table(qt.table).stats;
        let n_cols = stats.columns.len();
        let col_domains: Vec<i64> = (0..n_cols)
            .map(|c| {
                if is_join_col(ColumnRef::new(t_idx, c)) {
                    JOIN_DOMAIN
                } else {
                    PLAIN_DOMAIN.min(stats.columns[c].distinct.max(2) as i64)
                }
            })
            .collect();
        let n_rows = (stats.rows as usize).max(1);
        let rows: Vec<Row> = (0..n_rows)
            .map(|_| col_domains.iter().map(|&d| rng.gen_range(0..d)).collect())
            .collect();
        tables.push(rows);
        domains.push(col_domains);
    }
    Dataset { tables, domains }
}

/// The filter threshold for a local predicate: `value < threshold` keeps a
/// `σ` fraction of the domain (σ taken at its mean).
pub fn filter_threshold(dataset: &Dataset, query: &Query, table_idx: usize) -> Option<i64> {
    let f = query.tables[table_idx].filter.as_ref()?;
    let domain = dataset.domains[table_idx][f.column];
    let sel = f.selectivity.mean();
    Some(((sel * domain as f64).ceil() as i64).clamp(1, domain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_catalog::{CatalogGenerator, CatalogProfile, TableId};
    use lec_plan::{QueryProfile, WorkloadGenerator};
    use lec_prob::Distribution;

    /// A 3-table query over a catalog small enough to materialize whole
    /// (at most 40 rows a table).
    fn setup() -> (Catalog, Query) {
        let profile = CatalogProfile {
            min_pages: 1,
            max_pages: 4,
            rows_per_page: (5, 10),
            ..Default::default()
        };
        let cat = CatalogGenerator::with_profile(3, profile).generate(4);
        let ids: Vec<TableId> = cat.ids().collect();
        let mut wg = WorkloadGenerator::new(5);
        let q = wg.gen_query(&cat, &ids[..3], &QueryProfile::default());
        (cat, q)
    }

    #[test]
    fn generation_is_deterministic_and_sized_by_the_catalog() {
        let (cat, q) = setup();
        let d1 = generate(&cat, &q, 7);
        let d2 = generate(&cat, &q, 7);
        assert_eq!(d1.tables, d2.tables);
        for (t, rows) in d1.tables.iter().enumerate() {
            assert_eq!(rows.len() as u64, cat.table(q.tables[t].table).stats.rows);
        }
    }

    #[test]
    fn join_columns_share_small_domains() {
        let (cat, q) = setup();
        let d = generate(&cat, &q, 1);
        for p in &q.joins {
            assert_eq!(d.domains[p.left.table][p.left.column], JOIN_DOMAIN);
            assert_eq!(d.domains[p.right.table][p.right.column], JOIN_DOMAIN);
        }
    }

    #[test]
    fn values_respect_domains() {
        let (cat, q) = setup();
        let d = generate(&cat, &q, 2);
        for (t, rows) in d.tables.iter().enumerate() {
            for row in rows {
                for (c, &v) in row.iter().enumerate() {
                    assert!(v >= 0 && v < d.domains[t][c]);
                }
            }
        }
    }

    #[test]
    fn filter_thresholds_track_selectivity() {
        let mut cat = Catalog::new();
        use lec_catalog::{ColumnStats, TableStats};
        let a = cat.add_table(
            "A",
            TableStats::new(10, 100, vec![ColumnStats::plain("c", 40)]),
        );
        let b = cat.add_table(
            "B",
            TableStats::new(10, 100, vec![ColumnStats::plain("c", 40)]),
        );
        let q = Query {
            tables: vec![
                lec_plan::QueryTable::filtered(a, 0, Distribution::point(0.25)),
                lec_plan::QueryTable::bare(b),
            ],
            joins: vec![lec_plan::JoinPredicate::exact(
                ColumnRef::new(0, 0),
                ColumnRef::new(1, 0),
                1e-3,
            )],
            required_order: None,
        };
        let d = generate(&cat, &q, 3);
        // Column 0 of table 0 is a join column → domain 16; threshold = 4.
        assert_eq!(filter_threshold(&d, &q, 0), Some(4));
        assert_eq!(filter_threshold(&d, &q, 1), None);
    }
}
