//! SPJ query blocks: tables, predicates and required output order.

use crate::tableset::TableSet;
use lec_catalog::{Catalog, TableId};
use lec_prob::Distribution;
use std::fmt;

/// A reference to a column of a table *within one query*: `(query-local
/// table index, column index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    /// Position of the table in `Query::tables`.
    pub table: usize,
    /// Column index within that table.
    pub column: usize,
}

impl ColumnRef {
    /// Convenience constructor.
    pub fn new(table: usize, column: usize) -> Self {
        ColumnRef { table, column }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.c{}", self.table, self.column)
    }
}

/// A local (single-table) selection predicate.
///
/// The paper's Algorithm D assumes per-table input sizes "after any initial
/// selection"; the selectivity here is the (possibly uncertain) fraction of
/// *pages* that survive the selection.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalPredicate {
    /// Column the predicate restricts (determines index eligibility).
    pub column: usize,
    /// Fraction of the table that qualifies; a distribution to model the
    /// paper's "notoriously uncertain" selectivities.
    pub selectivity: Distribution,
}

/// One table occurrence in a query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTable {
    /// The stored table.
    pub table: TableId,
    /// Optional local selection applied before any join.
    pub filter: Option<LocalPredicate>,
}

impl QueryTable {
    /// A bare table occurrence.
    pub fn bare(table: TableId) -> Self {
        QueryTable {
            table,
            filter: None,
        }
    }

    /// A filtered table occurrence.
    pub fn filtered(table: TableId, column: usize, selectivity: Distribution) -> Self {
        QueryTable {
            table,
            filter: Some(LocalPredicate {
                column,
                selectivity,
            }),
        }
    }
}

/// An equi-join predicate between two query tables.
///
/// `selectivity` follows the paper's §3.6 convention: the join of inputs of
/// `a` and `b` pages with selectivity `σ` has size `a·b·σ` pages ("for each
/// triple (a, b, σ) ... the probability that the join has size abσ").
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPredicate {
    /// One side of the equality.
    pub left: ColumnRef,
    /// The other side.
    pub right: ColumnRef,
    /// Page-level selectivity distribution.
    pub selectivity: Distribution,
}

impl JoinPredicate {
    /// Construct a predicate with a point selectivity.
    pub fn exact(left: ColumnRef, right: ColumnRef, selectivity: f64) -> Self {
        JoinPredicate {
            left,
            right,
            selectivity: Distribution::point(selectivity),
        }
    }

    /// The pair of table indices this predicate connects.
    pub fn tables(&self) -> (usize, usize) {
        (self.left.table, self.right.table)
    }

    /// True when the predicate crosses between `set` and table `idx`.
    pub fn connects(&self, set: TableSet, idx: usize) -> bool {
        let (a, b) = self.tables();
        (set.contains(a) && b == idx) || (set.contains(b) && a == idx)
    }
}

/// Errors found while validating a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The query references no tables.
    NoTables,
    /// More tables than [`TableSet::MAX_TABLES`].
    TooManyTables(usize),
    /// A column reference points at a table index out of range.
    BadTableIndex(usize),
    /// A join predicate relates a table to itself.
    SelfJoinPredicate(usize),
    /// The join graph is not connected (the DP would produce a cross
    /// product; the paper assumes a predicate between every pair, possibly
    /// trivially true, so we require connectivity instead).
    Disconnected,
    /// A table id is not present in the catalog.
    UnknownTable(TableId),
    /// A join or filter selectivity's support holds this value outside
    /// `[0, 1]`.
    SelectivityOutOfRange(f64),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NoTables => write!(f, "query has no tables"),
            QueryError::TooManyTables(n) => write!(f, "query has {n} tables, max 64"),
            QueryError::BadTableIndex(i) => write!(f, "table index {i} out of range"),
            QueryError::SelfJoinPredicate(i) => {
                write!(f, "join predicate relates table {i} to itself")
            }
            QueryError::Disconnected => write!(f, "join graph is not connected"),
            QueryError::UnknownTable(id) => write!(f, "table {id} not in catalog"),
            QueryError::SelectivityOutOfRange(s) => write!(f, "selectivity {s} outside [0, 1]"),
        }
    }
}

impl std::error::Error for QueryError {}

/// An SPJ query block: the unit the paper's optimizer works on (§2.1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Query {
    /// Tables, with optional local selections.
    pub tables: Vec<QueryTable>,
    /// Equi-join predicates.
    pub joins: Vec<JoinPredicate>,
    /// Output must be sorted on this column (Example 1.1's requirement), if
    /// present.
    pub required_order: Option<ColumnRef>,
}

impl Query {
    /// Number of tables.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// True when table `idx` has at least one predicate into `set`
    /// (used to avoid cross products during enumeration).
    pub fn is_connected_to(&self, set: TableSet, idx: usize) -> bool {
        self.joins.iter().any(|p| p.connects(set, idx))
    }

    /// Indices of join predicates with one side in `a` and the other in `b`.
    pub fn joins_crossing(&self, a: TableSet, b: TableSet) -> Vec<usize> {
        self.joins
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                let (l, r) = p.tables();
                (a.contains(l) && b.contains(r)) || (a.contains(r) && b.contains(l))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Validate structure against a catalog.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), QueryError> {
        let n = self.n_tables();
        if n == 0 {
            return Err(QueryError::NoTables);
        }
        if n > TableSet::MAX_TABLES {
            return Err(QueryError::TooManyTables(n));
        }
        let fraction = |selectivity: &Distribution| {
            let outside = (selectivity.support().iter()).find(|s| !(0.0..=1.0).contains(*s));
            outside.map_or(Ok(()), |&s| Err(QueryError::SelectivityOutOfRange(s)))
        };
        for qt in &self.tables {
            if catalog.try_table(qt.table).is_none() {
                return Err(QueryError::UnknownTable(qt.table));
            }
            if let Some(filter) = &qt.filter {
                fraction(&filter.selectivity)?;
            }
        }
        let check = |c: &ColumnRef| {
            if c.table >= n {
                Err(QueryError::BadTableIndex(c.table))
            } else {
                Ok(())
            }
        };
        // Each table's neighbours as one word: connectivity is then a
        // search over `n` words, not a rescan of every join per table.
        let mut neighbours = [0u64; TableSet::MAX_TABLES];
        for p in &self.joins {
            check(&p.left)?;
            check(&p.right)?;
            fraction(&p.selectivity)?;
            let (a, b) = p.tables();
            if a == b {
                return Err(QueryError::SelfJoinPredicate(a));
            }
            neighbours[a] |= 1 << b;
            neighbours[b] |= 1 << a;
        }
        if let Some(ord) = &self.required_order {
            check(ord)?;
        }
        let (mut seen, mut frontier) = (1u64, 1u64);
        while frontier != 0 {
            let t = frontier.trailing_zeros() as usize;
            frontier &= frontier - 1;
            let new = neighbours[t] & !seen;
            seen |= new;
            frontier |= new;
        }
        if seen.count_ones() as usize != n {
            return Err(QueryError::Disconnected);
        }
        Ok(())
    }

    /// The same query with table `i` renumbered to `map[i]`: the tables
    /// vector is reordered accordingly, while the join predicates keep
    /// their vector order and left/right orientation (only the indices
    /// inside their column references change).  `map` must be a
    /// permutation of `0..n_tables()`.
    ///
    /// Keeping predicate order and orientation fixed matters: combined
    /// selectivities are floating-point products taken in predicate-vector
    /// order, so a renaming that also shuffled the vector could change
    /// low-order result bits.  With this relabeling, optimizing the
    /// renamed query is bit-for-bit the same computation under new labels
    /// — the property the cross-query plan cache's byte-identity guarantee
    /// stands on.
    ///
    /// # Panics
    /// Panics when `map` is not a permutation of the table indices.
    pub fn relabel_tables(&self, map: &[usize]) -> Query {
        let n = self.n_tables();
        assert_eq!(map.len(), n, "relabel map must cover every table");
        let mut tables: Vec<Option<QueryTable>> = vec![None; n];
        for (i, qt) in self.tables.iter().enumerate() {
            let slot = &mut tables[map[i]];
            assert!(slot.is_none(), "relabel map must be a permutation");
            *slot = Some(qt.clone());
        }
        let relabel = |c: &ColumnRef| ColumnRef::new(map[c.table], c.column);
        Query {
            tables: tables
                .into_iter()
                .map(|t| t.expect("permutation"))
                .collect(),
            joins: self
                .joins
                .iter()
                .map(|j| JoinPredicate {
                    left: relabel(&j.left),
                    right: relabel(&j.right),
                    selectivity: j.selectivity.clone(),
                })
                .collect(),
            required_order: self.required_order.as_ref().map(relabel),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_catalog::{ColumnStats, TableStats};

    fn catalog(n: usize) -> Catalog {
        let mut cat = Catalog::new();
        for i in 0..n {
            cat.add_table(
                format!("R{i}"),
                TableStats::new(100, 1000, vec![ColumnStats::plain("c0", 10)]),
            );
        }
        cat
    }

    fn chain_query(n: usize) -> Query {
        Query {
            tables: (0..n)
                .map(|i| QueryTable::bare(TableId(i as u32)))
                .collect(),
            joins: (0..n - 1)
                .map(|i| JoinPredicate::exact(ColumnRef::new(i, 0), ColumnRef::new(i + 1, 0), 1e-4))
                .collect(),
            required_order: None,
        }
    }

    #[test]
    fn chain_query_validates() {
        let cat = catalog(4);
        assert_eq!(chain_query(4).validate(&cat), Ok(()));
    }

    #[test]
    fn disconnected_query_is_rejected() {
        let cat = catalog(4);
        let mut q = chain_query(4);
        q.joins.remove(1); // split 0-1 from 2-3
        assert_eq!(q.validate(&cat), Err(QueryError::Disconnected));
    }

    #[test]
    fn bad_indices_are_rejected() {
        let cat = catalog(2);
        let mut q = chain_query(2);
        q.joins[0].right = ColumnRef::new(7, 0);
        assert_eq!(q.validate(&cat), Err(QueryError::BadTableIndex(7)));

        let mut q = chain_query(2);
        q.joins[0].right = ColumnRef::new(0, 1);
        assert_eq!(q.validate(&cat), Err(QueryError::SelfJoinPredicate(0)));

        let mut q = chain_query(2);
        q.required_order = Some(ColumnRef::new(5, 0));
        assert_eq!(q.validate(&cat), Err(QueryError::BadTableIndex(5)));

        let mut q = chain_query(2);
        q.tables[0].table = TableId(42);
        assert_eq!(q.validate(&cat), Err(QueryError::UnknownTable(TableId(42))));

        let empty = Query {
            tables: vec![],
            joins: vec![],
            required_order: None,
        };
        assert_eq!(empty.validate(&cat), Err(QueryError::NoTables));
    }

    #[test]
    fn selectivities_outside_zero_and_one_are_rejected() {
        let cat = catalog(2);
        let out_of_range = |s| Err(QueryError::SelectivityOutOfRange(s));
        for s in [2.0, -0.5] {
            let mut q = chain_query(2);
            q.joins[0].selectivity = Distribution::uniform(&[0.5, s]).unwrap();
            assert_eq!(q.validate(&cat), out_of_range(s));

            let mut q = chain_query(2);
            q.tables[1] = QueryTable::filtered(TableId(1), 0, Distribution::point(s));
            assert_eq!(q.validate(&cat), out_of_range(s));
        }
    }

    /// [`Query::validate`]'s verdict by brute force: the checks in their
    /// order, then a breadth-first search that rescans every join per
    /// table it visits.
    fn brute_force_verdict(q: &Query, cat: &Catalog) -> Result<(), QueryError> {
        let n = q.n_tables();
        if n == 0 {
            return Err(QueryError::NoTables);
        }
        if let Some(qt) = q.tables.iter().find(|qt| cat.try_table(qt.table).is_none()) {
            return Err(QueryError::UnknownTable(qt.table));
        }
        for p in &q.joins {
            for c in [p.left, p.right] {
                if c.table >= n {
                    return Err(QueryError::BadTableIndex(c.table));
                }
            }
            if p.left.table == p.right.table {
                return Err(QueryError::SelfJoinPredicate(p.left.table));
            }
        }
        if let Some(c) = q.required_order.filter(|c| c.table >= n) {
            return Err(QueryError::BadTableIndex(c.table));
        }
        let (mut seen, mut queue) = (vec![0], vec![0]);
        while let Some(t) = queue.pop() {
            for p in &q.joins {
                let (a, b) = p.tables();
                for (from, to) in [(a, b), (b, a)] {
                    if from == t && !seen.contains(&to) {
                        seen.push(to);
                        queue.push(to);
                    }
                }
            }
        }
        match seen.len() == n {
            true => Ok(()),
            false => Err(QueryError::Disconnected),
        }
    }

    proptest::proptest! {
        /// The neighbour-word search gives the brute-force verdict on
        /// random graphs of up to 12 tables, every error case included:
        /// a table the catalog lacks, endpoints and a required order past
        /// the query, self-joins and disconnected graphs.
        #[test]
        fn validate_agrees_with_a_brute_force_search(
            n in 0usize..=12,
            edges in proptest::collection::vec((0usize..14, 0usize..14), 0..=20),
            order in 0usize..18,
            unknown in 0usize..24,
        ) {
            let cat = catalog(12);
            let mut q = Query {
                tables: (0..n).map(|i| QueryTable::bare(TableId(i as u32))).collect(),
                joins: (edges.iter())
                    .map(|&(a, b)| JoinPredicate::exact(ColumnRef::new(a, 0), ColumnRef::new(b, 0), 0.1))
                    .collect(),
                required_order: (order < 14).then(|| ColumnRef::new(order, 0)),
            };
            if unknown < n {
                q.tables[unknown].table = TableId(99);
            }
            proptest::prop_assert_eq!(q.validate(&cat), brute_force_verdict(&q, &cat));
        }
    }

    #[test]
    fn joins_connecting_respects_orientation() {
        let q = chain_query(3);
        let set01 = TableSet::from_indices([0, 1]);
        let single = TableSet::singleton;
        assert_eq!(q.joins_crossing(set01, single(2)), vec![1]);
        assert_eq!(q.joins_crossing(single(0), single(1)), vec![0]);
        assert!(q.joins_crossing(single(0), single(2)).is_empty());
        assert!(q.is_connected_to(set01, 2));
        assert!(!q.is_connected_to(TableSet::singleton(0), 2));
    }

    #[test]
    fn joins_crossing_sets() {
        let q = chain_query(4);
        let a = TableSet::from_indices([0, 1]);
        let b = TableSet::from_indices([2, 3]);
        assert_eq!(q.joins_crossing(a, b), vec![1]); // only predicate 1-2 crosses
        assert_eq!(q.joins_crossing(b, a), vec![1]);
        assert!(q.joins_crossing(a, TableSet::EMPTY).is_empty());
    }

    #[test]
    fn relabeling_is_a_validated_permutation() {
        let cat = catalog(4);
        let mut q = chain_query(4);
        q.required_order = Some(ColumnRef::new(3, 0));
        // 0→2, 1→0, 2→3, 3→1
        let map = [2usize, 0, 3, 1];
        let r = q.relabel_tables(&map);
        assert_eq!(r.validate(&cat), Ok(()));
        assert_eq!(r.joins.len(), q.joins.len());
        // Predicate order and orientation survive; indices are mapped.
        for (orig, rel) in q.joins.iter().zip(&r.joins) {
            assert_eq!(rel.left.table, map[orig.left.table]);
            assert_eq!(rel.right.table, map[orig.right.table]);
            assert_eq!(rel.selectivity, orig.selectivity);
        }
        assert_eq!(r.required_order, Some(ColumnRef::new(1, 0)));
        // The inverse map restores the original query exactly.
        let mut inv = [0usize; 4];
        for (i, &m) in map.iter().enumerate() {
            inv[m] = i;
        }
        assert_eq!(r.relabel_tables(&inv), q);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn relabeling_rejects_non_permutations() {
        chain_query(3).relabel_tables(&[0, 0, 1]);
    }
}
