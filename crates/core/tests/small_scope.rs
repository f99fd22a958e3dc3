//! Theorems 2.1 and 3.3 over a small domain, enumerated in full: every
//! chain and star of 3 and 4 tables, the triangle, the 4-cycle and the
//! 4-clique, each table's pages in {1, 30, 1000} and each join
//! selectivity in {1e-5, 1e-2, 0.5}, under one memory belief.  The
//! 4-cycle (6,561 instances) and the 4-clique (59,049) run in release
//! builds only.  LSC at the mean and Algorithm C must each cost exactly
//! what `lec_cost::oracle::left_deep` finds under the mode's own
//! objective: a search's cost and the oracle's are both a plan's replay,
//! bit for bit.
//!
//! They do not yet: the one-page clamp on a join's output makes a
//! subset's size depend on its join order, which breaks the principle of
//! optimality both theorems rest on.  Until that is mended, each size's
//! miss counts are pinned, so they cannot grow or shrink unnoticed, and a
//! failure prints the first counterexample in enumeration order, smallest
//! values first.  No engine plan may ever beat the oracle.
//!
//! Every instance also climbs the paper's ladder: EC(A) ≥ EC(B(3)) ≥
//! EC(C) ≥ EC(Bushy), and C no dearer than LSC(mean)'s plan under the
//! belief.  It holds on every chain, star, triangle and 4-clique.  On 28
//! 4-cycles, all of them instances where C misses the oracle, a rung
//! breaks by the same clamp: a subset's entries carry different sizes, so
//! B(3)'s wider lists reach plans below C's (27 instances), and a lane's
//! top-3 roots need not include its top-1 root, so A can beat B(3) (one).
//! The breaks are pinned like the misses, and a rung that breaks where C
//! meets the oracle fails outright.

use lec_catalog::{Catalog, ColumnStats, TableStats};
use lec_core::{optimize, Mode, PointEstimate};
use lec_cost::{expected_plan_cost_static, oracle, CostModel};
use lec_plan::{ColumnRef, JoinPredicate, PlanNode, Query, QueryTable};
use lec_prob::{presets, Distribution};

const PAGES: [u64; 3] = [1, 30, 1000];
const SELECTIVITIES: [f64; 3] = [1e-5, 1e-2, 0.5];

/// A query over tables of `pages` pages (50 rows a page, columns `a` and
/// `b` of 1000 distinct values each), joining `u.b = v.a` for each edge
/// `(u, v)` at its selectivity, with the output required on the last
/// table's `b`.
fn graph(pages: &[u64], edges: &[(usize, usize, f64)]) -> (Catalog, Query) {
    let mut catalog = Catalog::new();
    let tables = (pages.iter().enumerate())
        .map(|(i, &pages)| {
            let columns = vec![ColumnStats::plain("a", 1000), ColumnStats::plain("b", 1000)];
            let stats = TableStats::new(pages, pages * 50, columns);
            QueryTable::bare(catalog.add_table(format!("T{i}"), stats))
        })
        .collect();
    let joins = (edges.iter())
        .map(|&(u, v, sel)| JoinPredicate::exact(ColumnRef::new(u, 1), ColumnRef::new(v, 0), sel))
        .collect();
    let query = Query {
        tables,
        joins,
        required_order: Some(ColumnRef::new(pages.len() - 1, 1)),
    };
    (catalog, query)
}

/// Every `len`-long sequence over `values`, the first position fastest.
fn sequences<T: Copy>(values: &[T], len: usize) -> Vec<Vec<T>> {
    (0..len).fold(vec![Vec::new()], |seqs, _| {
        (values.iter())
            .flat_map(|&v| seqs.iter().map(move |seq| [seq.clone(), vec![v]].concat()))
            .collect()
    })
}

/// One mode's tally over the domain.
#[derive(Debug, Default)]
struct Misses {
    count: usize,
    worst: f64,
    first: Option<String>,
}

/// A join graph's name and its edges `(u, v)`, each joining `u.b = v.a`.
type Topology = (&'static str, Vec<(usize, usize)>);

/// Each table of `n` joined to the next.
fn chain(n: usize) -> Topology {
    ("chain", (1..n).map(|v| (v - 1, v)).collect())
}

/// Table 0 joined to every other.
fn star(n: usize) -> Topology {
    ("star", (1..n).map(|v| (0, v)).collect())
}

/// A chain of `n` tables closed by joining the last to table 0.
fn cycle(n: usize) -> Topology {
    let (_, mut edges) = chain(n);
    edges.push((n - 1, 0));
    ("cycle", edges)
}

/// Every pair of `n` tables joined.
fn clique(n: usize) -> Topology {
    let edges = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)));
    ("clique", edges.collect())
}

/// The paper's ladder on one instance: Algorithm B(3)'s candidates
/// include A's, C searches every plan either ranks, and the bushy space
/// contains every left-deep plan, so EC(A) ≥ EC(B(3)) ≥ EC(C) ≥
/// EC(Bushy); and C costs no more than LSC(mean)'s plan replayed under
/// the belief.  Returns the first rung that breaks, if one does.
fn broken_rung(
    model: &CostModel<'_>,
    memory: &Distribution,
    lsc: &PlanNode,
    c: f64,
) -> Option<String> {
    let ec = |mode| optimize(model, memory, &mode).unwrap().cost;
    let (a, b3, bushy) = (
        ec(Mode::AlgorithmA),
        ec(Mode::AlgorithmB { c: 3 }),
        ec(Mode::Bushy),
    );
    let lsc = expected_plan_cost_static(model, lsc, memory);
    let rungs = [
        ("A", a, "B(3)", b3),
        ("B(3)", b3, "C", c),
        ("C", c, "Bushy", bushy),
        ("LSC(mean)'s plan", lsc, "C", c),
    ];
    (rungs.into_iter())
        .find(|&(_, upper, _, lower)| upper < lower)
        .map(|(upper, u, lower, l)| format!("{upper} costs {u}, below {lower}'s {l}"))
}

/// Run LSC(mean) and Algorithm C on every instance of each topology over
/// `n` tables, and climb the ladder on each.  Returns the instance count,
/// each mode's misses against the oracle, and the ladder's breaks: a rung
/// may break only where C misses the oracle.
fn sweep(n: usize, topologies: &[Topology]) -> (usize, [Misses; 3]) {
    let memory = presets::spread_family(500.0, 0.6, 4).unwrap();
    let modes = [Mode::Lsc(PointEstimate::Mean), Mode::AlgorithmC];
    let mut misses: [Misses; 3] = Default::default();
    let mut instances = 0;
    for (topology, edges) in topologies {
        for pages in sequences(&PAGES, n) {
            for sels in sequences(&SELECTIVITIES, edges.len()) {
                let edges: Vec<_> = (edges.iter().zip(&sels))
                    .map(|(&(u, v), &sel)| (u, v, sel))
                    .collect();
                let (catalog, query) = graph(&pages, &edges);
                let model = CostModel::new(&catalog, &query);
                let instance = format!("the {topology} {pages:?}, selectivities {sels:?}");
                instances += 1;
                let served = modes
                    .each_ref()
                    .map(|mode| optimize(&model, &memory, mode).unwrap());
                let mut c_missed = false;
                for ((mode, got), tally) in modes.iter().zip(&served).zip(&mut misses) {
                    let objective = mode.objective(&memory).unwrap();
                    let best = oracle::left_deep(&model, &objective).expect("a connected query");
                    let what = format!(
                        "{mode:?} on {instance}: {} costs {}, the oracle's {} costs {}",
                        got.plan.compact(),
                        got.cost,
                        best.plan.compact(),
                        best.cost
                    );
                    assert!(got.cost >= best.cost, "below the oracle: {what}");
                    if got.cost > best.cost {
                        c_missed |= matches!(mode, Mode::AlgorithmC);
                        tally.count += 1;
                        tally.worst = tally.worst.max(got.cost / best.cost);
                        tally.first.get_or_insert(what);
                    }
                }
                let [lsc, c] = &served;
                if let Some(rung) = broken_rung(&model, &memory, &lsc.plan, c.cost) {
                    let what = format!("on {instance}, {rung}");
                    assert!(c_missed, "the ladder breaks where C is exact: {what}");
                    misses[2].count += 1;
                    misses[2].first.get_or_insert(what);
                }
            }
        }
    }
    (instances, misses)
}

/// Require the topologies' instance count over `n` tables, each mode's
/// pinned miss count and the ladder's pinned breaks, and return C's tally.
fn assert_pinned(
    n: usize,
    topologies: &[Topology],
    instances: usize,
    [lsc, c, breaks]: [usize; 3],
) -> Misses {
    let (got, [lsc_misses, c_misses, ladder]) = sweep(n, topologies);
    println!(
        "{n} tables, {got} instances: LSC(mean) {lsc_misses:?}, C {c_misses:?}, ladder {ladder:?}"
    );
    assert_eq!(got, instances, "{n} tables: instances");
    for (what, misses, pinned) in [
        ("LSC(mean)", &lsc_misses, lsc),
        ("C", &c_misses, c),
        ("the ladder", &ladder, breaks),
    ] {
        let first = misses.first.as_deref().unwrap_or("none");
        assert_eq!(
            misses.count, pinned,
            "{n} tables: {what}'s misses; the first: {first}"
        );
    }
    c_misses
}

/// Require C's worst cost over the oracle's, to two decimals.
fn assert_worst(c: &Misses, worst: f64) {
    let first = c.first.as_deref().unwrap_or("none");
    assert_eq!(
        (c.worst * 100.0).round() / 100.0,
        worst,
        "C's worst ratio {}; the first miss: {first}",
        c.worst
    );
}

#[test]
fn every_three_table_chain_and_star_misses_as_pinned() {
    assert_pinned(3, &[chain(3), star(3)], 486, [0, 20, 0]);
}

#[test]
fn every_four_table_chain_and_star_misses_as_pinned() {
    assert_pinned(4, &[chain(4), star(4)], 4_374, [538, 914, 0]);
}

#[test]
fn every_triangle_meets_the_oracle() {
    assert_pinned(3, &[cycle(3)], 729, [0, 0, 0]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only small-scope case")]
fn every_four_cycle_misses_as_pinned() {
    let c = assert_pinned(4, &[cycle(4)], 6_561, [440, 442, 28]);
    assert_worst(&c, 52.46);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only small-scope case")]
fn every_four_clique_misses_as_pinned() {
    let c = assert_pinned(4, &[clique(4)], 59_049, [1_176, 1_176, 0]);
    assert_worst(&c, 21.22);
}
