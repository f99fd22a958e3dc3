//! Tuple-at-a-time in-memory execution of physical plans.
//!
//! This executor exists to validate the *plan space*: the System R
//! observations the DP rests on ("joins are commutative ... associative ...
//! the result of a join does not depend on the algorithm used to compute
//! it", §2.2) become executable assertions — every plan the optimizer can
//! emit for a query must produce the same multiset of rows.

use crate::datagen::{filter_threshold, Dataset, Row};
use lec_plan::{ColumnRef, JoinMethod, NodeRef, PlanNode, Query, Step, TableSet};
use std::collections::HashMap;

/// An intermediate relation: rows plus a schema mapping each participating
/// query table to its column slice.
#[derive(Debug, Clone)]
pub struct Relation {
    /// `(table_idx, n_cols, offset)` per table block, in plan order.
    pub schema: Vec<(usize, usize, usize)>,
    /// Rows: concatenation of the blocks.
    pub rows: Vec<Row>,
}

impl Relation {
    fn offset_of(&self, table: usize) -> Option<(usize, usize)> {
        self.schema
            .iter()
            .find(|(t, _, _)| *t == table)
            .map(|(_, n, off)| (*off, *n))
    }

    /// Resolve a column reference into a row offset.
    pub fn col_index(&self, c: ColumnRef) -> usize {
        let (off, n) = self
            .offset_of(c.table)
            .unwrap_or_else(|| panic!("table {} not in relation", c.table));
        assert!(c.column < n, "column {} out of range", c.column);
        off + c.column
    }

    /// The tables present.
    pub fn tables(&self) -> TableSet {
        TableSet::from_indices(self.schema.iter().map(|(t, _, _)| *t))
    }

    /// Canonical form for multiset comparison: blocks reordered by table
    /// index, rows sorted.
    pub fn canonical_rows(&self) -> Vec<Row> {
        let mut order: Vec<&(usize, usize, usize)> = self.schema.iter().collect();
        order.sort_by_key(|(t, _, _)| *t);
        let mut out: Vec<Row> = self
            .rows
            .iter()
            .map(|row| {
                let mut r = Vec::with_capacity(row.len());
                for (_, n, off) in &order {
                    r.extend_from_slice(&row[*off..*off + *n]);
                }
                r
            })
            .collect();
        out.sort();
        out
    }
}

/// Execute `plan` against `dataset`.
pub fn execute(plan: &PlanNode, query: &Query, dataset: &Dataset) -> Relation {
    execute_node(plan.root(), query, dataset)
}

fn execute_node(node: NodeRef<'_>, query: &Query, dataset: &Dataset) -> Relation {
    match node.node() {
        Step::SeqScan(table) => scan(table, query, dataset, false),
        Step::IndexScan(table) => scan(table, query, dataset, true),
        Step::Sort(input, key) => {
            let mut rel = execute_node(input, query, dataset);
            let idx = rel.col_index(resolve_sort_key(key, &rel, query));
            rel.rows.sort_by_key(|r| r[idx]);
            rel
        }
        Step::Join(method, outer, inner) => {
            let left = execute_node(outer, query, dataset);
            let right = execute_node(inner, query, dataset);
            join(method, left, right, query)
        }
    }
}

/// A required order may name any column of the equivalence class; pick one
/// that exists in the relation.
fn resolve_sort_key(key: ColumnRef, rel: &Relation, query: &Query) -> ColumnRef {
    if rel.offset_of(key.table).is_some() {
        return key;
    }
    let eq = lec_plan::ColumnEquivalences::for_query(query);
    for p in &query.joins {
        for c in [p.left, p.right] {
            if eq.same_class(c, key) && rel.offset_of(c.table).is_some() {
                return c;
            }
        }
    }
    panic!("sort key {key} not resolvable in relation");
}

fn scan(table: usize, query: &Query, dataset: &Dataset, sorted: bool) -> Relation {
    let mut rows: Vec<Row> = dataset.tables[table].clone();
    if let Some(threshold) = filter_threshold(dataset, query, table) {
        let col = query.tables[table]
            .filter
            .as_ref()
            .expect("threshold implies filter")
            .column;
        rows.retain(|r| r[col] < threshold);
    }
    if sorted {
        // Clustered index scans deliver rows in index order.
        if let Some(f) = &query.tables[table].filter {
            rows.sort_by_key(|r| r[f.column]);
        }
    }
    let n_cols = dataset.domains[table].len();
    Relation {
        schema: vec![(table, n_cols, 0)],
        rows,
    }
}

/// All equi-join conditions crossing the two relations, resolved to row
/// offsets `(left_idx, right_idx)`.
fn crossing_conditions(query: &Query, left: &Relation, right: &Relation) -> Vec<(usize, usize)> {
    let lt = left.tables();
    let rt = right.tables();
    query
        .joins_crossing(lt, rt)
        .into_iter()
        .map(|i| {
            let p = &query.joins[i];
            if lt.contains(p.left.table) {
                (left.col_index(p.left), right.col_index(p.right))
            } else {
                (left.col_index(p.right), right.col_index(p.left))
            }
        })
        .collect()
}

fn concat_schema(left: &Relation, right: &Relation) -> Vec<(usize, usize, usize)> {
    let left_width: usize = left.schema.iter().map(|(_, n, _)| n).sum();
    let mut schema = left.schema.clone();
    for (t, n, off) in &right.schema {
        schema.push((*t, *n, off + left_width));
    }
    schema
}

fn join(method: JoinMethod, left: Relation, right: Relation, query: &Query) -> Relation {
    let conds = crossing_conditions(query, &left, &right);
    assert!(
        !conds.is_empty(),
        "optimizer never emits cross products; join between {} and {}",
        left.tables(),
        right.tables()
    );
    let schema = concat_schema(&left, &right);
    let rows = match method {
        JoinMethod::GraceHash => hash_join(&left, &right, &conds),
        JoinMethod::SortMerge => merge_join(&left, &right, &conds),
        JoinMethod::PageNestedLoop | JoinMethod::BlockNestedLoop => {
            nested_loop_join(&left, &right, &conds)
        }
    };
    Relation { schema, rows }
}

fn combined(l: &Row, r: &Row) -> Row {
    let mut row = l.clone();
    row.extend_from_slice(r);
    row
}

fn hash_join(left: &Relation, right: &Relation, conds: &[(usize, usize)]) -> Vec<Row> {
    let (&(lk, rk), rest) = conds.split_first().expect("non-empty");
    let mut table: HashMap<i64, Vec<&Row>> = HashMap::new();
    for r in &right.rows {
        table.entry(r[rk]).or_default().push(r);
    }
    let mut out = Vec::new();
    for l in &left.rows {
        if let Some(matches) = table.get(&l[lk]) {
            for r in matches {
                if rest.iter().all(|&(a, b)| l[a] == r[b]) {
                    out.push(combined(l, r));
                }
            }
        }
    }
    out
}

fn merge_join(left: &Relation, right: &Relation, conds: &[(usize, usize)]) -> Vec<Row> {
    let (&(lk, rk), rest) = conds.split_first().expect("non-empty");
    let mut ls: Vec<&Row> = left.rows.iter().collect();
    let mut rs: Vec<&Row> = right.rows.iter().collect();
    ls.sort_by_key(|r| r[lk]);
    rs.sort_by_key(|r| r[rk]);
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < ls.len() && j < rs.len() {
        let (ka, kb) = (ls[i][lk], rs[j][rk]);
        if ka < kb {
            i += 1;
        } else if ka > kb {
            j += 1;
        } else {
            let i_end = i + ls[i..].iter().take_while(|r| r[lk] == ka).count();
            let j_end = j + rs[j..].iter().take_while(|r| r[rk] == kb).count();
            for l in &ls[i..i_end] {
                for r in &rs[j..j_end] {
                    if rest.iter().all(|&(a, b)| l[a] == r[b]) {
                        out.push(combined(l, r));
                    }
                }
            }
            i = i_end;
            j = j_end;
        }
    }
    out
}

fn nested_loop_join(left: &Relation, right: &Relation, conds: &[(usize, usize)]) -> Vec<Row> {
    let mut out = Vec::new();
    for l in &left.rows {
        for r in &right.rows {
            if conds.iter().all(|&(a, b)| l[a] == r[b]) {
                out.push(combined(l, r));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::generate;
    use lec_catalog::{CatalogGenerator, TableId};
    use lec_plan::{QueryProfile, Topology, WorkloadGenerator};

    fn fixture(topology: Topology, seed: u64) -> (lec_catalog::Catalog, Query, Dataset) {
        let mut g = CatalogGenerator::new(seed);
        let cat = g.generate(5);
        let ids: Vec<TableId> = cat.ids().collect();
        let mut wg = WorkloadGenerator::new(seed + 1);
        let profile = QueryProfile {
            topology,
            ..Default::default()
        };
        let q = wg.gen_query(&cat, &ids[..4], &profile);
        let d = generate(&cat, &q, 40, seed + 2);
        (cat, q, d)
    }

    fn left_deep_plan(order: &[usize], methods: &[JoinMethod]) -> PlanNode {
        let mut plan = PlanNode::seq_scan(order[0]);
        for (k, &t) in order.iter().enumerate().skip(1) {
            plan = PlanNode::join(methods[k - 1], plan, PlanNode::seq_scan(t));
        }
        plan
    }

    #[test]
    fn join_methods_agree() {
        let (_, q, d) = fixture(Topology::Chain, 10);
        let base = left_deep_plan(
            &[0, 1, 2, 3],
            &[
                JoinMethod::GraceHash,
                JoinMethod::GraceHash,
                JoinMethod::GraceHash,
            ],
        );
        let expect = execute(&base, &q, &d).canonical_rows();
        for methods in [
            [
                JoinMethod::SortMerge,
                JoinMethod::SortMerge,
                JoinMethod::SortMerge,
            ],
            [
                JoinMethod::PageNestedLoop,
                JoinMethod::BlockNestedLoop,
                JoinMethod::SortMerge,
            ],
        ] {
            let p = left_deep_plan(&[0, 1, 2, 3], &methods);
            assert_eq!(execute(&p, &q, &d).canonical_rows(), expect);
        }
    }

    #[test]
    fn join_order_does_not_change_results() {
        // Commutativity/associativity (§2.2): different connected
        // left-deep orders yield the same canonical rows.
        let (_, q, d) = fixture(Topology::Clique, 21);
        let m = [JoinMethod::GraceHash; 3];
        let orders: [[usize; 4]; 3] = [[0, 1, 2, 3], [3, 2, 1, 0], [1, 0, 2, 3]];
        let mut results = Vec::new();
        for order in orders {
            let p = left_deep_plan(&order, &m);
            results.push(execute(&p, &q, &d).canonical_rows());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn sort_orders_rows_without_changing_the_multiset() {
        let (_, q, d) = fixture(Topology::Chain, 33);
        let join = left_deep_plan(&[0, 1], &[JoinMethod::GraceHash]);
        let key = q.joins[0].left;
        let sorted = PlanNode::sort(join.clone(), key);
        let r_plain = execute(&join, &q, &d);
        let r_sorted = execute(&sorted, &q, &d);
        assert_eq!(r_plain.canonical_rows(), r_sorted.canonical_rows());
        let idx = r_sorted.col_index(key);
        assert!(r_sorted.rows.windows(2).all(|w| w[0][idx] <= w[1][idx]));
    }

    #[test]
    fn filters_reduce_cardinality() {
        use lec_prob::Distribution;
        let (cat, mut q, _) = fixture(Topology::Chain, 44);
        q.tables[0].filter = Some(lec_plan::LocalPredicate {
            column: 0,
            selectivity: Distribution::point(0.25),
        });
        let d = generate(&cat, &q, 60, 9);
        let unfiltered = d.tables[0].len();
        let scanned = execute(&PlanNode::seq_scan(0), &q, &d);
        assert!(scanned.rows.len() < unfiltered);
        // Index scan returns the same multiset, sorted by the filter column.
        let ix = execute(&PlanNode::index_scan(0), &q, &d);
        assert_eq!(scanned.canonical_rows(), ix.canonical_rows());
    }

    #[test]
    fn multi_predicate_joins_apply_all_conditions() {
        // Clique queries can have several predicates between one pair once
        // a composite has absorbed multiple tables; verify against NL as
        // ground truth.
        let (_, q, d) = fixture(Topology::Clique, 55);
        let p_hash = left_deep_plan(&[0, 1, 2, 3], &[JoinMethod::GraceHash; 3]);
        let p_nl = left_deep_plan(&[0, 1, 2, 3], &[JoinMethod::PageNestedLoop; 3]);
        assert_eq!(
            execute(&p_hash, &q, &d).canonical_rows(),
            execute(&p_nl, &q, &d).canonical_rows()
        );
    }
}
