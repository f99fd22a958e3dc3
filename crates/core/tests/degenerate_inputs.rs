//! Degenerate statistics get a documented answer, never a crash: join
//! and filter selectivities of 0 and 1, memory beliefs of 1, 0 and −3
//! pages, `LscAt(0)` and `LscAt(−5)`, and tables of 2^62 pages all give a
//! plan with a finite, non-negative cost in every mode.  Memory at or
//! below zero pages is accepted and priced at the formulas' floor (see
//! `Mode`'s doc); a selectivity outside [0, 1], on a join or a filter, is
//! refused in every mode.  These are today's answers, pinned.

use lec_catalog::{Catalog, ColumnStats, TableStats};
use lec_core::{fixtures, AlgDConfig, Mode, OptError, Optimizer, PointEstimate};
use lec_plan::query::QueryError;
use lec_plan::{ColumnRef, JoinPredicate, Query, QueryTable};
use lec_prob::{presets, Distribution, MarkovChain};

/// Every mode, the two degenerate `LscAt` points among them, C-dynamic's
/// chain over `memory`'s support.
fn every_mode(memory: &Distribution) -> Vec<Mode> {
    let chain = MarkovChain::sticky_uniform(memory.support().to_vec(), 0.6).unwrap();
    vec![
        Mode::Lsc(PointEstimate::Mean),
        Mode::Lsc(PointEstimate::Mode),
        Mode::LscAt(0.0),
        Mode::LscAt(-5.0),
        Mode::AlgorithmA,
        Mode::AlgorithmB { c: 3 },
        Mode::AlgorithmC,
        Mode::AlgorithmCDynamic { chain },
        Mode::AlgorithmD {
            config: AlgDConfig::default(),
        },
        Mode::Bushy,
    ]
}

fn assert_priced(what: &str, catalog: &Catalog, query: &Query, memory: &Distribution) {
    let optimizer = Optimizer::new(catalog, memory.clone());
    for mode in every_mode(memory) {
        let name = mode.name();
        let out = optimizer
            .optimize(query, &mode)
            .unwrap_or_else(|e| panic!("{what}, {name}: {e}"));
        assert!(
            out.cost.is_finite() && out.cost >= 0.0,
            "{what}, {name}: cost {}",
            out.cost
        );
    }
}

/// `three_chain` with every join and a filter on its middle table at
/// selectivity `sel`.
fn chain_at(sel: f64) -> (Catalog, Query) {
    let (catalog, mut query) = fixtures::three_chain();
    for join in &mut query.joins {
        join.selectivity = Distribution::point(sel);
    }
    let middle = query.tables[1].table;
    query.tables[1] = QueryTable::filtered(middle, 0, Distribution::point(sel));
    (catalog, query)
}

#[test]
fn selectivities_of_zero_and_one_are_priced() {
    let memory = presets::spread_family(500.0, 0.6, 4).unwrap();
    for sel in [0.0, 1.0] {
        let (catalog, query) = chain_at(sel);
        assert_priced(&format!("selectivity {sel}"), &catalog, &query, &memory);
    }
}

#[test]
fn selectivities_outside_zero_and_one_are_refused() {
    let memory = presets::spread_family(500.0, 0.6, 4).unwrap();
    let (catalog, chain) = fixtures::three_chain();
    let optimizer = Optimizer::new(&catalog, memory.clone());
    for sel in [2.0, -0.5] {
        let mut on_join = chain.clone();
        on_join.joins[1].selectivity = Distribution::point(sel);
        let mut on_filter = chain.clone();
        let middle = on_filter.tables[1].table;
        on_filter.tables[1] = QueryTable::filtered(middle, 0, Distribution::point(sel));
        for (what, query) in [("join", on_join), ("filter", on_filter)] {
            for mode in every_mode(&memory) {
                let got = optimizer.optimize(&query, &mode).map(|out| out.cost);
                let refused = OptError::InvalidQuery(QueryError::SelectivityOutOfRange(sel));
                assert_eq!(got, Err(refused), "{what} at {sel}, {}", mode.name());
            }
        }
    }
}

#[test]
fn memory_of_one_zero_and_negative_pages_is_priced() {
    let (catalog, query) = fixtures::three_chain();
    let beliefs = [
        Distribution::point(1.0),
        Distribution::point(0.0),
        Distribution::point(-3.0),
        Distribution::uniform(&[-3.0, 0.0, 1.0]).unwrap(),
    ];
    for memory in &beliefs {
        let what = format!("memory {:?}", memory.support());
        assert_priced(&what, &catalog, &query, memory);
    }
}

#[test]
fn tables_of_two_to_the_62_pages_are_priced() {
    let mut catalog = Catalog::new();
    let pages = 1u64 << 62;
    let ids: Vec<_> = (0..3)
        .map(|i| {
            let columns = vec![ColumnStats::plain("k", 1000)];
            catalog.add_table(format!("huge{i}"), TableStats::new(pages, pages, columns))
        })
        .collect();
    let query = Query {
        tables: ids.into_iter().map(QueryTable::bare).collect(),
        joins: (0..2)
            .map(|i| JoinPredicate::exact(ColumnRef::new(i, 0), ColumnRef::new(i + 1, 0), 1e-9))
            .collect(),
        required_order: Some(ColumnRef::new(0, 0)),
    };
    let memory = presets::spread_family(500.0, 0.6, 4).unwrap();
    assert_priced("2^62-page tables", &catalog, &query, &memory);
}
