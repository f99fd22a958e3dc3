//! The DP driver walks the join graph, not the subset lattice: each level
//! is the connected subsets of its size, grown from the level below
//! through the cost model's graph tables (the enumeration itself is held
//! to a brute-force filter of the lattice in `search::engine`'s unit
//! tests).  Pinned here: the graph tables (per-table predicate lists)
//! against the full predicate scans they replaced (bit for bit), and the
//! sizes the walk now reaches — a 40-table chain is 820 subsets, not
//! `2^40`.

use lec_catalog::{Catalog, ColumnStats, TableStats};
use lec_core::{fixtures, optimize, Mode, OptError, Optimizer, SearchOutcome};
use lec_cost::formulas::MIN_PAGES;
use lec_cost::CostModel;
use lec_plan::{
    ColumnEquivalences, ColumnRef, JoinPredicate, OrderProperty, Query, QueryTable, TableSet,
};
use lec_prob::{presets, Distribution};
use proptest::prelude::*;

/// A query over `n` tables from raw generated material: each `(u, v, s)`
/// becomes a predicate between tables `u % n` and `v % n` with a 3-bucket
/// selectivity around `s` (self-pairs dropped), so a pair can carry
/// several predicates, a table none at all, and the graph any number of
/// components.  Every third table is filtered through a 3-bucket local
/// selectivity.
fn graph_query(n: usize, edges: &[(usize, usize, f64)]) -> (Catalog, Query) {
    let edges: Vec<_> = (edges.iter())
        .map(|&(u, v, s)| (u % n, v % n, s))
        .filter(|(u, v, _)| u != v)
        .collect();
    raw_graph_query(n, &edges)
}

/// [`graph_query`] with each `(u, v, s)` a predicate between tables `u`
/// and `v` as given: a self-loop, or an endpoint past the query, stays.
fn raw_graph_query(n: usize, edges: &[(usize, usize, f64)]) -> (Catalog, Query) {
    let mut catalog = Catalog::new();
    let tables = (0..n)
        .map(|i| {
            let pages = 200 * (1 + i as u64 % 7);
            let id = catalog.add_table(
                format!("G{i}"),
                TableStats::new(
                    pages,
                    pages * 40,
                    vec![ColumnStats::plain("a", 100), ColumnStats::plain("b", 100)],
                ),
            );
            if i % 3 == 2 {
                let sel = Distribution::uniform(&[0.001 * (i + 1) as f64, 0.07, 0.3]).unwrap();
                QueryTable::filtered(id, 0, sel)
            } else {
                QueryTable::bare(id)
            }
        })
        .collect();
    let joins = edges
        .iter()
        .map(|&(u, v, s)| JoinPredicate {
            left: ColumnRef::new(u, 1),
            right: ColumnRef::new(v, 0),
            selectivity: Distribution::uniform(&[s, s * 3.7, s * 11.3]).unwrap(),
        })
        .collect();
    let query = Query {
        tables,
        joins,
        required_order: None,
    };
    (catalog, query)
}

/// Connectivity by breadth-first search over the predicate list.
fn bfs_connected(query: &Query, set: TableSet) -> bool {
    let Some(start) = set.iter().next() else {
        return false;
    };
    let mut seen = TableSet::singleton(start);
    let mut queue = vec![start];
    while let Some(t) = queue.pop() {
        for join in &query.joins {
            let (a, b) = join.tables();
            for (from, to) in [(a, b), (b, a)] {
                if from == t && set.contains(to) && !seen.contains(to) {
                    seen = seen.with(to);
                    queue.push(to);
                }
            }
        }
    }
    seen == set
}

fn edges_strategy() -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
    prop::collection::vec((0usize..10, 0usize..10, 1e-5f64..1e-2), 0..=16)
}

proptest! {
    /// A query whose graph is not connected has no cross-product-free
    /// plan.
    #[test]
    fn a_disconnected_query_finds_no_plan(n in 2usize..=8, edges in edges_strategy()) {
        let (cat, q) = graph_query(n, &edges);
        if !bfs_connected(&q, TableSet::full(n)) {
            let memory = presets::spread_family(400.0, 0.5, 3).unwrap();
            let model = CostModel::new(&cat, &q);
            let out = optimize(&model, &memory, &Mode::AlgorithmC);
            prop_assert!(
                matches!(out, Err(OptError::NoPlanFound)),
                "{:?}", out.map(|o| o.plan.compact())
            );
        }
    }

    /// The model's graph tables return what the full predicate scans they
    /// replaced returned, to the bit: same factors, same product order —
    /// on small random graphs and on 12–15-table cliques, whose 69–108
    /// predicates span two bitset words.
    #[test]
    fn graph_tables_agree_with_the_query_scans(
        n in 2usize..=10,
        edges in edges_strategy(),
        clique in 12usize..=15,
        sels in prop::collection::vec(1e-5f64..1e-2, 108),
        masks in prop::collection::vec(any::<u64>(), 12),
        want in (0usize..15, 0usize..2),
    ) {
        // Required orders on both columns of every table, and none.
        let required = |n: usize| (want.0 < n).then(|| ColumnRef::new(want.0, want.1));
        let (cat, mut q) = graph_query(n, &edges);
        q.required_order = required(n);
        let model = CostModel::new(&cat, &q);
        for i in 0..n {
            let by_scan = match &q.tables[i].filter {
                Some(f) => (model.raw_pages(i) * f.selectivity.mean()).max(MIN_PAGES),
                None => model.raw_pages(i),
            };
            prop_assert_eq!(model.base_pages(i).to_bits(), by_scan.to_bits());
        }
        assert_graph_tables_agree(&cat, &q, &masks)?;
        let (cat, mut q) = clique_query(clique, &sels);
        q.required_order = required(clique);
        prop_assert!(q.joins.len() > 64);
        assert_graph_tables_agree(&cat, &q, &masks)?;
    }

    /// The per-table predicate lists answer every crossing query as the
    /// reference walk of the whole predicate list does, bit for bit, on
    /// graphs no generator builds: a clique over some of the tables with
    /// random predicates around it, repeated pairs, and self-loops and
    /// predicates with an endpoint past the query — which cross no split,
    /// here first in predicate order, where a walk that counted them would
    /// report them as the first crossing predicate.
    #[test]
    fn predicate_lists_agree_with_a_reference_walk(
        n in 2usize..=10,
        clique in 0usize..=10,
        sels in prop::collection::vec(1e-5f64..1e-2, 45),
        extra in prop::collection::vec((0usize..13, 0usize..13, 1e-5f64..1e-2), 0..=16),
        repeats in prop::collection::vec(any::<usize>(), 0..=4),
        masks in prop::collection::vec(any::<u64>(), 12),
    ) {
        let clique = clique.min(n);
        let pairs = (0..clique).flat_map(|u| (u + 1..clique).map(move |v| (u, v)));
        let mut edges = vec![(n - 1, n - 1, 0.5), (0, n + 2, 0.25), (n, n, 0.125)];
        edges.extend(pairs.zip(&sels).map(|((u, v), &s)| (u, v, s)));
        edges.extend(extra);
        for r in repeats {
            edges.push(edges[r % edges.len()]);
        }
        let (cat, q) = raw_graph_query(n, &edges);
        assert_graph_tables_agree(&cat, &q, &masks)?;
    }
}

/// A clique over `n` tables: one predicate per pair, oriented both ways
/// by turns, plus a second predicate on the first three pairs.  Every
/// sixth predicate keeps `graph_query`'s three selectivity buckets and
/// the rest are points, so the distributions crossing a split stay small.
fn clique_query(n: usize, sels: &[f64]) -> (Catalog, Query) {
    let pairs = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)));
    let edges: Vec<(usize, usize, f64)> = pairs
        .clone()
        .chain(pairs.take(3))
        .zip(sels.iter().cycle())
        .enumerate()
        .map(|(i, ((u, v), &s))| if i % 2 == 0 { (u, v, s) } else { (v, u, s) })
        .collect();
    let (cat, mut q) = graph_query(n, &edges);
    for (i, join) in q.joins.iter_mut().enumerate() {
        if i % 6 != 0 {
            join.selectivity = Distribution::point(join.selectivity.mean());
        }
    }
    (cat, q)
}

/// The rule the model's incident bitsets replaced, kept as the reference:
/// a predicate's sides are its endpoint tables (none past the query), and
/// it crosses `a` and `b` when one side meets each.
fn crosses(q: &Query, i: usize, a: TableSet, b: TableSet) -> bool {
    let side = |t: usize| TableSet::from_indices((t < q.n_tables()).then_some(t));
    let (left, right) = q.joins[i].tables();
    let (left, right) = (side(left), side(right));
    let hits = |side: TableSet, set: TableSet| !side.intersect(set).is_empty();
    (hits(left, a) && hits(right, b)) || (hits(right, a) && hits(left, b))
}

/// Every crossing product the search reads, for singleton pairs, each
/// singleton against the rest of the query, and disjoint bushy halves cut
/// from `masks`, against full scans of the predicate list: `split`'s
/// product of selectivity means and the order a sort-merge join on the
/// first crossing predicate delivers, and the selectivity distributions'
/// support and probability bits (where the product has at most 4,096
/// buckets).
fn assert_graph_tables_agree(cat: &Catalog, q: &Query, masks: &[u64]) -> Result<(), TestCaseError> {
    let model = CostModel::new(cat, q);
    let n = q.n_tables();
    let full = TableSet::full(n).bits();
    let singles = (0..n).flat_map(|u| {
        (0..n)
            .filter(move |&v| v != u)
            .map(move |v| (1u64 << u, 1u64 << v))
    });
    let stars = (0..n).map(|u| (1u64 << u, full & !(1u64 << u)));
    let halves = masks.windows(2).map(|w| (w[0] & full, w[1] & full & !w[0]));
    for (a, b) in singles.chain(stars).chain(halves) {
        let (a, b) = (TableSet::from_bits(a), TableSet::from_bits(b));
        let crossing: Vec<usize> = (0..q.joins.len())
            .filter(|&i| crosses(q, i, a, b))
            .collect();
        let mean: f64 = crossing
            .iter()
            .map(|&i| q.joins[i].selectivity.mean())
            .product();
        let split = model.split(a, b);
        prop_assert_eq!(
            split.selectivity.to_bits(),
            mean.to_bits(),
            "{} x {} over {} predicates",
            a,
            b,
            q.joins.len()
        );
        // A sort-merge output is sorted as required when its predicate's
        // left column shares the required order's class, incidentally
        // otherwise.
        let eq = ColumnEquivalences::for_query(q);
        let merge = crossing
            .first()
            .map_or(OrderProperty::Unsorted, |&i| match q.required_order {
                Some(want) if eq.same_class(q.joins[i].left, want) => OrderProperty::Required,
                _ => OrderProperty::Incidental,
            });
        prop_assert_eq!(split.merge_order, merge);
        let buckets: usize = crossing
            .iter()
            .map(|&i| q.joins[i].selectivity.len())
            .product();
        if buckets <= 4096 {
            let mut dist = Distribution::point(1.0);
            for &i in &crossing {
                dist = dist.product(&q.joins[i].selectivity);
            }
            let got = model.join_selectivity_dist_sets(a, b);
            let bits = |d: &Distribution| -> Vec<u64> {
                d.support()
                    .iter()
                    .chain(d.probs())
                    .map(|v| v.to_bits())
                    .collect()
            };
            prop_assert_eq!(bits(&got), bits(&dist), "{} x {} distribution", a, b);
        }
    }
    Ok(())
}

/// Algorithm C over `q` under a 4-bucket memory.
fn search(cat: &Catalog, q: &Query, what: &str) -> SearchOutcome {
    let memory = presets::spread_family(400.0, 0.5, 4).unwrap();
    Optimizer::new(cat, memory)
        .optimize(q, &Mode::AlgorithmC)
        .unwrap_or_else(|e| panic!("{what}: {e:?}"))
}

/// The walk costs what the graph has: a 40-table chain is 820 connected
/// subsets (the lattice around them has `2^40`); the 10-table star pins
/// the dense case, where nearly every hub subset is connected.
#[test]
fn a_forty_table_chain_and_a_ten_table_star_search_in_a_debug_build() {
    let (cat, q) = fixtures::scaling_chain(40);
    assert_eq!(search(&cat, &q, "scaling_chain(40)").stats.nodes, 820);
    let (cat, q) = fixtures::pruning_star(10);
    search(&cat, &q, "pruning_star(10)");
}

/// A 64-table chain, the widest `TableSet`, populates exactly its
/// `64 · 65 / 2` connected subsets.
#[test]
fn a_sixty_four_table_chain_populates_its_connected_subsets() {
    let (cat, q) = fixtures::scaling_chain(64);
    assert_eq!(search(&cat, &q, "scaling_chain(64)").stats.nodes, 2080);
}
