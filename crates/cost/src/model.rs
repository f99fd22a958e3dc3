//! The query-aware cost model: effective sizes, selectivities, and cost
//! dispatch, with an evaluation counter for the paper's complexity claims.

use crate::expected::{self, DistTables};
use crate::formulas;
pub use lec_catalog::{table_stats_fingerprint, Fingerprint};
use lec_catalog::{Catalog, IndexKind};
use lec_plan::{ColumnEquivalences, ColumnRef, JoinMethod, OrderProperty, Query, Step, TableSet};
use lec_prob::Distribution;
use std::cell::Cell;
use std::hash::Hasher;

/// How a base table is accessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Heap scan.
    SeqScan,
    /// Scan through the index matching the table's local filter.
    IndexScan,
}

/// MurmurHash3's `fmix64`, for word-sized keys hashed through [`Prehashed`]:
/// every input bit reaches the low bits hashbrown indexes on and the top
/// seven it tags with (a lone FxHash multiply only moves bits upward).
#[inline]
pub fn avalanche(word: u64) -> u64 {
    let mut h = word;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51AFD7ED558CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CEB9FE1A85EC53);
    h ^ (h >> 33)
}

/// The identity hasher for keys that hash themselves once, when built:
/// the serving layer's plan-cache key (one fold of its words, a multiply
/// per word finished by [`avalanche`], picks the stripe and probes it).
#[derive(Debug, Default)]
pub struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("a prehashed key writes its one precomputed u64");
    }
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a fingerprint of a distribution's exact contents: what
/// Algorithm D keys a combine's operand-size pairs on.
pub fn dist_fingerprint(d: &Distribution) -> u64 {
    Fingerprint::new().dist(d).finish()
}

/// Label-independent fingerprint of one table *occurrence* in a query:
/// the stored table's statistics fingerprint (folded once, when the
/// catalog registered the table) plus the occurrence's filter (column and
/// selectivity distribution).  The free-function form of
/// [`CostModel::table_shape_fingerprint`], for callers that have no model
/// (e.g. cache-key canonicalization).
pub fn table_occurrence_fingerprint(catalog: &Catalog, query: &Query, idx: usize) -> u64 {
    let qt = &query.tables[idx];
    let fp = catalog.exact_prefix(qt.table);
    match &qt.filter {
        Some(f) => fp.u64(1).u64(f.column as u64).dist(&f.selectivity),
        None => fp.u64(0),
    }
    .finish()
}

/// Cost model bound to one catalog and one query.
///
/// All size parameters are in pages.  Uncertain quantities are exposed both
/// as point estimates (mean — what the LSC baseline uses) and as
/// distributions (what Algorithms C/D use).  The model counts every
/// evaluation of a cost formula through [`CostModel::evals`], which is the
/// unit in which the paper states its overheads ("this computation requires
/// b evaluations of the cost formula", §3.4).
///
/// Every expectation is priced in place, and nothing is memoized here:
/// the `expected_*_over` methods make `b` formula calls over a
/// `b`-bucket memory distribution (one for a point), and Algorithm D's
/// `expected_*_for` methods stream over operands whose prefix tables were
/// built once, with their distributions.  A search prices each distinct
/// operand-size pair of a combine once (Proposition 3.1: a join's method
/// cost depends only on its operands' sizes), so the evaluation counter
/// counts exactly the formula calls made.
///
/// The join graph is read per split, so it is laid out for that: each
/// table's incident predicates are one list in predicate order (the
/// predicate's tables, mean selectivity and merge order), and a crossing
/// query with a one-table side — every left-deep split, the replay's and
/// the oracle's — walks that list; two multi-table sides scan every
/// predicate.  Either way the factors multiply in predicate order, so a
/// product's bits do not depend on which walk found them.
///
/// # Thread safety
///
/// A search runs on the thread that asked for it and builds its own
/// model, so nothing shares a `CostModel` across threads — and nothing
/// can: the counter is a `Cell`, which makes the type `!Sync`.
#[derive(Debug)]
pub struct CostModel<'a> {
    catalog: &'a Catalog,
    query: &'a Query,
    /// Read only to classify a sort's key ([`crate::output_order`]).
    pub(crate) equivalences: ColumnEquivalences,
    /// Each table's index scan's [`CostModel::access_order`].
    index_orders: Vec<OrderProperty>,
    /// Per-table [`table_occurrence_fingerprint`]s, precomputed so the
    /// engine's tie-breaks are an array lookup rather than a rehash.
    table_shapes: Vec<u64>,
    /// Point post-filter page count per table ([`CostModel::base_pages`]).
    base_pages: Vec<f64>,
    /// Join-graph neighbours per table.
    neighbours: Vec<TableSet>,
    /// One [`JoinEdge`] per join predicate, in predicate order.
    edges: Vec<JoinEdge>,
    /// Each table's incident predicates, copied out of `edges` in
    /// predicate order, table `t`'s at `incident[starts[t]..starts[t + 1]]`.
    incident: Vec<JoinEdge>,
    starts: Vec<u32>,
    evals: Cell<u64>,
}

/// One join predicate as the search reads it: its index, the tables it
/// joins, the mean of its selectivity distribution and the order a
/// sort-merge join on it delivers ([`ColumnEquivalences::sorted_on`]).  A
/// predicate with an endpoint outside the query joins no tables, so no set
/// reaches it.
#[derive(Debug, Clone, Copy)]
struct JoinEdge {
    ends: TableSet,
    selectivity: f64,
    pred: u32,
    merge_order: OrderProperty,
}

/// What a join across one split of a subset delivers
/// ([`CostModel::split`]), whichever operands build its two sides: System
/// R's premise that a set of joined relations has one size and one
/// sort-merge order, whatever order built it.
#[derive(Debug, Clone, Copy)]
pub struct Split {
    /// The point (mean) combined selectivity of the predicates crossing
    /// the split, their means multiplied in predicate order.
    pub selectivity: f64,
    /// The order a sort-merge join across the split delivers: sorted on
    /// the class of the first crossing predicate, the one the join sorts
    /// on.
    pub merge_order: OrderProperty,
}

impl Split {
    /// Result size of a join of `outer` and `inner` pages across the
    /// split: the paper's `a·b·σ` pages, clamped to one page.
    #[inline]
    pub fn pages(&self, outer: f64, inner: f64) -> f64 {
        (outer * inner * self.selectivity).max(formulas::MIN_PAGES)
    }

    /// The order a `method` join across the split delivers from an outer
    /// of order `outer`, the \[SAC+79\] interesting-order rules: sort-merge
    /// sorts on its predicate, page nested-loop keeps the outer's order,
    /// Grace hash and block nested-loop destroy it.
    #[inline]
    pub fn order(&self, method: JoinMethod, outer: OrderProperty) -> OrderProperty {
        match method {
            JoinMethod::SortMerge => self.merge_order,
            JoinMethod::PageNestedLoop => outer,
            JoinMethod::GraceHash | JoinMethod::BlockNestedLoop => OrderProperty::Unsorted,
        }
    }
}

impl<'a> CostModel<'a> {
    /// Bind the model to a query.
    pub fn new(catalog: &'a Catalog, query: &'a Query) -> Self {
        let n = query.n_tables();
        let base_pages = query
            .tables
            .iter()
            .map(|qt| {
                let pages = catalog.table(qt.table).stats.pages as f64;
                match &qt.filter {
                    Some(f) => (pages * f.selectivity.mean()).max(formulas::MIN_PAGES),
                    None => pages,
                }
            })
            .collect();
        // The query's graph tables, built once: every split of every
        // subset asks which predicates cross it, and a left-deep split,
        // whose inner is one table, reads the answer off that table's list.
        let equivalences = ColumnEquivalences::for_query(query);
        let mut neighbours = vec![TableSet::EMPTY; n];
        let edges: Vec<JoinEdge> = (query.joins.iter().enumerate())
            .map(|(p, join)| {
                let (u, v) = join.tables();
                let mut ends = TableSet::EMPTY;
                if u < n && v < n {
                    ends = TableSet::from_indices([u, v]);
                    if u != v {
                        neighbours[u] = neighbours[u].with(v);
                        neighbours[v] = neighbours[v].with(u);
                    }
                }
                JoinEdge {
                    ends,
                    selectivity: join.selectivity.mean(),
                    pred: u32::try_from(p).expect("< 2^32 predicates"),
                    merge_order: equivalences.sorted_on(join.left),
                }
            })
            .collect();
        // Each predicate is in at most two lists.
        let mut incident = Vec::with_capacity(2 * edges.len());
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0);
        for t in 0..n {
            incident.extend(edges.iter().filter(|e| e.ends.contains(t)));
            starts.push(incident.len() as u32);
        }
        let index_orders = (query.tables.iter().enumerate())
            .map(|(t, qt)| match qt.filter.as_ref().map(|f| f.column) {
                Some(c) if catalog.table(qt.table).stats.index_on(c) == IndexKind::Clustered => {
                    equivalences.sorted_on(ColumnRef::new(t, c))
                }
                _ => OrderProperty::Unsorted,
            })
            .collect();
        CostModel {
            catalog,
            query,
            equivalences,
            index_orders,
            table_shapes: (0..n)
                .map(|i| table_occurrence_fingerprint(catalog, query, i))
                .collect(),
            base_pages,
            neighbours,
            edges,
            incident,
            starts,
            evals: Cell::new(0),
        }
    }

    /// The query this model is bound to.
    pub fn query(&self) -> &Query {
        self.query
    }

    /// The order an access path delivers, priced by nothing: an index
    /// scan its filter column's when the index is clustered, anything
    /// else none.
    pub fn access_order(&self, path: AccessPath, table_idx: usize) -> OrderProperty {
        match path {
            AccessPath::SeqScan => OrderProperty::Unsorted,
            AccessPath::IndexScan => self.index_orders[table_idx],
        }
    }

    /// Label-independent fingerprint of one table occurrence: everything
    /// this model can observe about it (statistics, filter column and
    /// selectivity distribution) and nothing about its query-local index.
    /// Two occurrences with equal fingerprints are interchangeable to the
    /// DP; the engine uses this to break exact cost ties the same way
    /// under any table renaming.
    pub fn table_shape_fingerprint(&self, table_idx: usize) -> u64 {
        self.table_shapes[table_idx]
    }

    /// Number of cost-formula evaluations since the last reset.
    pub fn evals(&self) -> u64 {
        self.evals.get()
    }

    /// Reset the evaluation counter.
    pub fn reset_evals(&self) {
        self.evals.set(0);
    }

    fn count_eval(&self) {
        self.count_evals(1);
    }

    fn count_evals(&self, n: u64) {
        self.evals.set(self.evals.get() + n);
    }

    // ---- expectations -------------------------------------------------

    /// Expected join cost of *point-sized* inputs over a memory
    /// distribution — the `b`-bucket expectation of Algorithm C, or the
    /// one-bucket one of a point mode: "b evaluations of the cost formula"
    /// (§3.4), all `b` counted ([`formulas::join_cost_over`]).
    #[inline]
    pub fn expected_join_cost_over(
        &self,
        method: JoinMethod,
        outer: f64,
        inner: f64,
        memory: &Distribution,
    ) -> f64 {
        self.count_evals(memory.len() as u64);
        formulas::join_cost_over(method, outer, inner, memory)
    }

    /// Expected sort cost of a point-sized input over a memory
    /// distribution, priced like [`CostModel::expected_join_cost_over`].
    pub fn expected_sort_cost_over(&self, pages: f64, memory: &Distribution) -> f64 {
        self.count_evals(memory.len() as u64);
        memory.expect(|m| formulas::sort_cost(pages, m))
    }

    /// Algorithm D's four join expectations of one operand-size pair over
    /// size and memory distributions, in [`JoinMethod::ALL`] order: every
    /// method's cost depends only on the two sizes, so a combine prices a
    /// pair once.  Counts the §3.6.1/§3.6.2 number of cost-formula
    /// evaluations: linear in the bucket counts for the separable methods,
    /// the full `b_A·b_B·b_M` triple product for block nested-loop.
    pub fn expected_join_costs_for(
        &self,
        outer: &DistTables,
        inner: &DistTables,
        memory: &DistTables,
    ) -> [f64; 4] {
        let (a, b, m) = (outer.len(), inner.len(), memory.len());
        self.count_evals((3 * (a + b) + a * b * m) as u64);
        expected::expected_join_costs(outer, inner, memory)
    }

    /// Expected sort cost over size and memory distributions: `b_R`
    /// formula evaluations.
    pub fn expected_sort_cost_for(&self, r: &DistTables, memory: &DistTables) -> f64 {
        self.count_evals(r.len() as u64);
        expected::expected_sort_cost(r, memory)
    }

    // ---- sizes ----------------------------------------------------------

    /// Raw heap pages of a query table.
    pub fn raw_pages(&self, table_idx: usize) -> f64 {
        self.catalog
            .table(self.query.tables[table_idx].table)
            .stats
            .pages as f64
    }

    /// Rows of a query table.
    pub fn raw_rows(&self, table_idx: usize) -> f64 {
        self.catalog
            .table(self.query.tables[table_idx].table)
            .stats
            .rows as f64
    }

    /// Point estimate (mean) of the post-filter page count of a table —
    /// the paper's `|A_j|` "after any initial selection".
    pub fn base_pages(&self, table_idx: usize) -> f64 {
        self.base_pages[table_idx]
    }

    /// Distribution of the post-filter page count of a table
    /// (`Pr(|A_j|)` in Figure 1).
    pub fn base_pages_dist(&self, table_idx: usize) -> Distribution {
        let qt = &self.query.tables[table_idx];
        let t = self.catalog.table(qt.table);
        let page_dist = t.stats.page_distribution();
        match &qt.filter {
            Some(f) => page_dist
                .product(&f.selectivity)
                .map(|v| v.max(formulas::MIN_PAGES)),
            None => page_dist,
        }
    }

    /// The tables outside `set` sharing a join predicate with a member of
    /// it: what `set` can be joined with, one table at a time, without a
    /// cross product.
    pub fn frontier(&self, set: TableSet) -> TableSet {
        let reach = set.iter().fold(0, |acc, i| acc | self.neighbours[i].bits());
        TableSet::from_bits(reach & !set.bits())
    }

    /// The predicates with one side in `a` and the other in the disjoint
    /// `b`, in predicate order — [`Query::joins_crossing`]: a one-table
    /// side's list, or else a scan of every predicate.
    fn predicates_between(&self, a: TableSet, b: TableSet) -> impl Iterator<Item = &JoinEdge> {
        let one = |s: TableSet| (s.len() == 1).then(|| s.sole_member());
        let edges = match one(b).or_else(|| one(a)) {
            Some(t) => &self.incident[self.starts[t] as usize..self.starts[t + 1] as usize],
            None => &self.edges[..],
        };
        let meets = |e: &JoinEdge, s: TableSet| !e.ends.intersect(s).is_empty();
        edges.iter().filter(move |e| meets(e, a) && meets(e, b))
    }

    /// What joining two disjoint table sets delivers, whichever operands
    /// build them: one walk over the predicates crossing them.
    pub fn split(&self, a: TableSet, b: TableSet) -> Split {
        let mut preds = self.predicates_between(a, b).peekable();
        let merge_order = preds
            .peek()
            .map_or(OrderProperty::Unsorted, |e| e.merge_order);
        Split {
            selectivity: preds.map(|e| e.selectivity).product(),
            merge_order,
        }
    }

    /// The selectivity distributions of the predicates crossing two
    /// disjoint table sets, in predicate order: the factors of
    /// [`Self::join_selectivity_dist_sets`].
    pub fn crossing_selectivities(
        &self,
        a: TableSet,
        b: TableSet,
    ) -> impl Iterator<Item = &Distribution> {
        (self.predicates_between(a, b)).map(|e| &self.query.joins[e.pred as usize].selectivity)
    }

    /// Distribution of the combined selectivity of all predicates crossing
    /// two disjoint table sets (the `Pr(σ)` of Figure 1 in bushy-capable
    /// form): the product of [`Self::crossing_selectivities`] in their
    /// order, starting from the point 1.
    pub fn join_selectivity_dist_sets(&self, a: TableSet, b: TableSet) -> Distribution {
        (self.crossing_selectivities(a, b)).fold(Distribution::point(1.0), |d, s| d.product(s))
    }

    /// The plan that delivers a root of `order` sorts on this key, if any:
    /// the query's required order, when `order` misses it.
    pub fn root_sort(&self, order: OrderProperty) -> Option<ColumnRef> {
        self.query.required_order.filter(|_| !order.is_required())
    }

    // ---- access paths ---------------------------------------------------

    /// Access paths worth considering for a table: sequential scan always,
    /// plus an index scan when the local filter matches an index.
    pub fn access_paths(&self, table_idx: usize) -> Vec<AccessPath> {
        let mut out = vec![AccessPath::SeqScan];
        if self.index_kind_for_filter(table_idx) != IndexKind::None {
            out.push(AccessPath::IndexScan);
        }
        out
    }

    /// Each of [`Self::access_paths`] as the step that scans the table,
    /// its [`Self::access_order`] and its [`Self::access_cost`], one
    /// evaluation per path.
    pub fn accesses(&self, table: usize) -> impl Iterator<Item = (Step, OrderProperty, f64)> + '_ {
        self.access_paths(table).into_iter().map(move |path| {
            let step = match path {
                AccessPath::SeqScan => Step::SeqScan(table),
                AccessPath::IndexScan => Step::IndexScan(table),
            };
            let order = self.access_order(path, table);
            (step, order, self.access_cost(path, table))
        })
    }

    fn index_kind_for_filter(&self, table_idx: usize) -> IndexKind {
        let qt = &self.query.tables[table_idx];
        match &qt.filter {
            Some(f) => self.catalog.table(qt.table).stats.index_on(f.column),
            None => IndexKind::None,
        }
    }

    /// Cost of one access path (memory-independent in this model).
    pub fn access_cost(&self, path: AccessPath, table_idx: usize) -> f64 {
        self.count_eval();
        let pages = self.raw_pages(table_idx);
        match path {
            AccessPath::SeqScan => formulas::seq_scan_cost(pages),
            AccessPath::IndexScan => {
                let qt = &self.query.tables[table_idx];
                let f = qt.filter.as_ref().expect("index scan requires a filter");
                let rows = self.raw_rows(table_idx);
                match self.index_kind_for_filter(table_idx) {
                    IndexKind::Clustered => {
                        formulas::clustered_index_scan_cost(pages, rows, f.selectivity.mean())
                    }
                    IndexKind::Unclustered => {
                        formulas::unclustered_index_scan_cost(rows, f.selectivity.mean())
                    }
                    IndexKind::None => unreachable!("access_paths gates on index presence"),
                }
            }
        }
    }

    // ---- joins and sorts ------------------------------------------------

    /// Join cost at a specific memory value (the paper's `C(P, v)` for one
    /// operator); `outer`/`inner` in pages.
    pub fn join_cost(&self, method: JoinMethod, outer: f64, inner: f64, m: f64) -> f64 {
        self.count_eval();
        formulas::raw_join_cost(method, outer, inner, m)
    }

    /// Sort cost at a specific memory value.
    pub fn sort_cost(&self, pages: f64, m: f64) -> f64 {
        self.count_eval();
        formulas::sort_cost(pages, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_catalog::{ColumnStats, TableStats};
    use lec_plan::{ColumnRef, JoinPredicate, QueryTable};

    fn fixture() -> (Catalog, Query) {
        let mut cat = Catalog::new();
        let a = cat.add_table(
            "A",
            TableStats::new(
                1000,
                50_000,
                vec![
                    ColumnStats::indexed("pk", 50_000, IndexKind::Clustered),
                    ColumnStats::plain("x", 100),
                ],
            ),
        );
        let b = cat.add_table(
            "B",
            TableStats::new(500, 25_000, vec![ColumnStats::plain("y", 50)]),
        );
        let query = Query {
            tables: vec![
                QueryTable::filtered(a, 0, Distribution::point(0.1)),
                QueryTable::bare(b),
            ],
            joins: vec![JoinPredicate::exact(
                ColumnRef::new(0, 1),
                ColumnRef::new(1, 0),
                1e-4,
            )],
            required_order: None,
        };
        (cat, query)
    }

    #[test]
    fn base_pages_apply_filters() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        assert_eq!(m.base_pages(0), 100.0); // 1000 × 0.1
        assert_eq!(m.base_pages(1), 500.0);
        let d = m.base_pages_dist(0);
        assert!(d.is_point());
        assert_eq!(d.mean(), 100.0);
    }

    #[test]
    fn uncertain_filter_propagates_to_size_distribution() {
        let (cat, mut q) = fixture();
        q.tables[0].filter.as_mut().unwrap().selectivity =
            Distribution::bimodal(0.01, 0.5, 0.5).unwrap();
        let m = CostModel::new(&cat, &q);
        let d = m.base_pages_dist(0);
        assert_eq!(d.len(), 2);
        assert_eq!(d.support(), &[10.0, 500.0]);
        assert_eq!(m.base_pages(0), 1000.0 * (0.01 + 0.5) / 2.0);
    }

    #[test]
    fn selectivity_product_over_connecting_predicates() {
        let (cat, mut q) = fixture();
        // Add a second predicate between the same pair.
        q.joins.push(JoinPredicate::exact(
            ColumnRef::new(0, 0),
            ColumnRef::new(1, 0),
            0.5,
        ));
        let m = CostModel::new(&cat, &q);
        let s = m
            .split(TableSet::singleton(0), TableSet::singleton(1))
            .selectivity;
        assert!((s - 1e-4 * 0.5).abs() < 1e-18);
        let d = m.join_selectivity_dist_sets(TableSet::singleton(0), TableSet::singleton(1));
        assert!(d.is_point());
        assert!((d.mean() - 5e-5).abs() < 1e-18);
    }

    #[test]
    fn access_paths_depend_on_indexes() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        // Table 0: clustered index on the filtered column.
        assert_eq!(
            m.access_paths(0),
            vec![AccessPath::SeqScan, AccessPath::IndexScan]
        );
        // Table 1: no filter, no index scan.
        assert_eq!(m.access_paths(1), vec![AccessPath::SeqScan]);
        // Index scan cheaper than full scan at 10% selectivity.
        assert!(m.access_cost(AccessPath::IndexScan, 0) < m.access_cost(AccessPath::SeqScan, 0));
    }

    #[test]
    fn eval_counter_counts_formula_calls() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        assert_eq!(m.evals(), 0);
        m.join_cost(JoinMethod::SortMerge, 100.0, 200.0, 50.0);
        m.sort_cost(100.0, 10.0);
        m.access_cost(AccessPath::SeqScan, 1);
        assert_eq!(m.evals(), 3);
        m.reset_evals();
        assert_eq!(m.evals(), 0);
    }

    #[test]
    fn join_cost_dispatch_matches_formulas() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        let (a, b, mem) = (1e6, 4e5, 700.0);
        assert_eq!(
            m.join_cost(JoinMethod::SortMerge, a, b, mem),
            crate::formulas::sm_join_cost(a, b, mem)
        );
        assert_eq!(
            m.join_cost(JoinMethod::GraceHash, a, b, mem),
            crate::formulas::grace_join_cost(a, b, mem)
        );
        assert_eq!(
            m.join_cost(JoinMethod::PageNestedLoop, a, b, mem),
            crate::formulas::nl_join_cost(a, b, mem)
        );
        assert_eq!(
            m.join_cost(JoinMethod::BlockNestedLoop, a, b, mem),
            crate::formulas::bnl_join_cost(a, b, mem)
        );
    }

    /// Algorithm D's pricing counts the formula calls it makes, in the
    /// paper's units, on every call: `b_A + b_B` per separable method,
    /// `b_A·b_B·b_M` for block nested-loop, `b_R` for a sort.  Nothing is
    /// memoized, so a repeat counts again.
    #[test]
    fn distribution_pricing_counts_the_formula_calls_it_makes() {
        let (cat, q) = fixture();
        let m = CostModel::new(&cat, &q);
        let a = DistTables::new(&Distribution::bimodal(100.0, 200.0, 0.5).unwrap());
        let b = DistTables::new(&Distribution::uniform(&[50.0, 80.0, 90.0]).unwrap());
        let mem = DistTables::new(&Distribution::bimodal(10.0, 1000.0, 0.5).unwrap());
        let per_pair = 3 * (2 + 3) + 2 * 3 * 2;
        for call in 1..=2 {
            let costs = m.expected_join_costs_for(&a, &b, &mem);
            assert_eq!(m.evals(), call * per_pair, "call {call}");
            let want = expected::expected_join_costs(&a, &b, &mem);
            assert_eq!(costs.map(f64::to_bits), want.map(f64::to_bits));
        }
        m.reset_evals();
        m.expected_sort_cost_for(&a, &mem);
        assert_eq!(m.evals(), 2);
    }

    /// A split's result size is `a·b·σ` clamped to one page, and its output
    /// order follows the method: sort-merge's predicate order, page
    /// nested-loop's outer order, none for Grace hash and block
    /// nested-loop, whatever the outer's order.
    #[test]
    fn a_split_sizes_and_orders_its_joins() {
        use OrderProperty::{Incidental, Required, Unsorted};
        let split = Split {
            selectivity: 1e-4,
            merge_order: Incidental,
        };
        assert_eq!(split.pages(100.0, 500.0), 5.0);
        assert_eq!(split.pages(10.0, 10.0), 1.0);
        for outer in [Unsorted, Incidental, Required] {
            let orders = JoinMethod::ALL.map(|method| split.order(method, outer));
            assert_eq!(orders, [Incidental, Unsorted, outer, Unsorted], "{outer:?}");
        }
    }
}
