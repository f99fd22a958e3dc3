//! Property tests for the cost crate: prefix tables against direct sums,
//! formula laws, streaming/naive agreement, scalar expectations priced in
//! place, and plan-cost consistency.

use lec_cost::expected::{naive_expected_join_cost, streaming_expected_join_costs, DistTables};
use lec_cost::formulas;
use lec_plan::JoinMethod;
use lec_prob::Distribution;
use proptest::prelude::*;

fn arb_dist(lo: f64, hi: f64) -> impl Strategy<Value = Distribution> {
    prop::collection::vec((lo..hi, 0.05f64..1.0), 1..10)
        .prop_map(|pairs| Distribution::from_pairs(pairs).expect("valid"))
}

const SEPARABLE: [JoinMethod; 3] = [
    JoinMethod::SortMerge,
    JoinMethod::GraceHash,
    JoinMethod::PageNestedLoop,
];

proptest! {
    #[test]
    fn prefix_tables_agree_with_direct_sums(d in arb_dist(1.0, 1e6), x in 0.0f64..2e6) {
        let tables = DistTables::new(&d);
        let t = tables.sums();
        let direct_le: f64 = d.iter().filter(|&(v, _)| v <= x).map(|(_, p)| p).sum();
        let direct_pe: f64 = d.iter().filter(|&(v, _)| v <= x).map(|(v, p)| v * p).sum();
        prop_assert!((t.prob_le(x) - direct_le).abs() < 1e-9);
        prop_assert!((t.expect_first(t.count_le(x)) - direct_pe).abs() < 1e-6);
        prop_assert!((t.prob_le(x) + t.prob_gt(x) - 1.0).abs() < 1e-9);
    }

    /// Streaming EC ≡ naive EC for every separable method — §3.6.1/§3.6.2
    /// verified over the whole input space, including boundary ties.
    #[test]
    fn streaming_equals_naive(
        a in arb_dist(1.0, 1e6),
        b in arb_dist(1.0, 1e6),
        m in arb_dist(2.0, 1e4),
    ) {
        let mt = DistTables::new(&m);
        let (ta, tb) = (DistTables::new(&a), DistTables::new(&b));
        let streamed = streaming_expected_join_costs(&ta, &tb, &mt);
        for (method, fast) in SEPARABLE.into_iter().zip(streamed) {
            let naive = naive_expected_join_cost(method, &a, &b, &m);
            prop_assert!(
                ((naive - fast) / naive.max(1.0)).abs() < 1e-9,
                "{method:?}: {naive} vs {fast}"
            );
        }
    }

    /// Join and sort costs never increase with memory (more buffers never
    /// hurt in this model) and are always positive and finite.
    #[test]
    fn costs_monotone_in_memory(
        a in 1.0f64..1e6,
        b in 1.0f64..1e6,
        m1 in 2.0f64..1e6,
        m2 in 2.0f64..1e6,
    ) {
        let (lo, hi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
        for f in [
            formulas::sm_join_cost,
            formulas::grace_join_cost,
            formulas::nl_join_cost,
            formulas::bnl_join_cost,
        ] {
            let c_lo = f(a, b, lo);
            let c_hi = f(a, b, hi);
            prop_assert!(c_hi <= c_lo + 1e-9);
            prop_assert!(c_hi.is_finite() && c_hi > 0.0);
        }
        prop_assert!(formulas::sort_cost(a, hi) <= formulas::sort_cost(a, lo) + 1e-9);
    }

    /// Join costs are monotone in input sizes at fixed memory.
    #[test]
    fn costs_monotone_in_sizes(
        a in 1.0f64..1e5,
        b in 1.0f64..1e5,
        extra in 1.0f64..1e5,
        m in 2.0f64..1e5,
    ) {
        for f in [
            formulas::sm_join_cost,
            formulas::grace_join_cost,
            formulas::nl_join_cost,
            formulas::bnl_join_cost,
        ] {
            prop_assert!(f(a + extra, b, m) >= f(a, b, m) - 1e-9);
            prop_assert!(f(a, b + extra, m) >= f(a, b, m) - 1e-9);
        }
    }

    /// SM/Grace symmetry and NL outer-asymmetry, over random inputs.
    #[test]
    fn symmetry_laws(a in 1.0f64..1e6, b in 1.0f64..1e6, m in 2.0f64..1e5) {
        prop_assert_eq!(
            formulas::sm_join_cost(a, b, m).to_bits(),
            formulas::sm_join_cost(b, a, m).to_bits()
        );
        prop_assert_eq!(
            formulas::grace_join_cost(a, b, m).to_bits(),
            formulas::grace_join_cost(b, a, m).to_bits()
        );
        // NL above threshold is symmetric; below it the outer multiplies.
        let s = a.min(b);
        if m >= s + 2.0 {
            prop_assert_eq!(
                formulas::nl_join_cost(a, b, m).to_bits(),
                formulas::nl_join_cost(b, a, m).to_bits()
            );
        }
    }

    /// Breakpoints really bracket cost changes: the formula is constant on
    /// each side of every returned breakpoint within a small window.
    #[test]
    fn breakpoints_are_the_only_cliffs(a in 10.0f64..1e6, b in 10.0f64..1e6) {
        let bps = formulas::sm_breakpoints(a, b);
        for w in bps.windows(2) {
            // Sample inside the open interval: cost must be constant.
            let (lo, hi) = (w[0], w[1]);
            if hi / lo > 1.001 {
                let m1 = lo * 1.0005;
                let m2 = hi * 0.9995;
                prop_assert_eq!(
                    formulas::sm_join_cost(a, b, m1).to_bits(),
                    formulas::sm_join_cost(a, b, m2).to_bits()
                );
            }
        }
    }

    /// Expected cost of a point distribution is the cost at that point.
    #[test]
    fn point_expectation_is_evaluation(
        a in 1.0f64..1e6,
        b in 1.0f64..1e6,
        m in 2.0f64..1e5,
    ) {
        let da = DistTables::new(&Distribution::point(a));
        let db = DistTables::new(&Distribution::point(b));
        let mt = DistTables::new(&Distribution::point(m));
        let streamed = streaming_expected_join_costs(&da, &db, &mt);
        for (method, fast) in SEPARABLE.into_iter().zip(streamed) {
            let f: fn(f64, f64, f64) -> f64 = match method {
                JoinMethod::SortMerge => formulas::sm_join_cost,
                JoinMethod::GraceHash => formulas::grace_join_cost,
                _ => formulas::nl_join_cost,
            };
            let direct = f(a, b, m);
            prop_assert!(((fast - direct) / direct.max(1.0)).abs() < 1e-12);
        }
    }

    /// EC is monotone under first-order stochastic dominance of memory:
    /// shifting memory mass upward cannot increase expected cost.
    #[test]
    fn ec_respects_memory_dominance(
        a in arb_dist(1.0, 1e6),
        b in arb_dist(1.0, 1e6),
        m in arb_dist(2.0, 1e4),
        shift in 1.0f64..1e4,
    ) {
        let m_up = m.scale(1.0 + shift / 1e4);
        let mt = DistTables::new(&m);
        let mt_up = DistTables::new(&m_up);
        let (a, b) = (DistTables::new(&a), DistTables::new(&b));
        let base = streaming_expected_join_costs(&a, &b, &mt);
        let up = streaming_expected_join_costs(&a, &b, &mt_up);
        for (method, (up, base)) in SEPARABLE.into_iter().zip(up.into_iter().zip(base)) {
            prop_assert!(up <= base + 1e-6, "{method:?}: {up} > {base}");
        }
    }
}

proptest! {
    /// The fingerprint prefixes a catalog folds when a table is registered
    /// are what a from-scratch fold of the stored statistics gives — with
    /// and without a page-count distribution — every occurrence
    /// fingerprint resumes from them, and `clone` / `==` see a catalog as
    /// its tables and nothing else.
    #[test]
    fn stored_fingerprint_prefixes_match_a_fresh_fold(
        seed in 0u64..10_000,
        n in 1usize..8,
        with_dist in 0usize..2,
    ) {
        use lec_catalog::{Catalog, CatalogGenerator, IndexKind};
        use lec_cost::{table_occurrence_fingerprint, table_stats_fingerprint, Fingerprint};
        use lec_plan::{Query, QueryTable};

        let mut g = CatalogGenerator::new(seed);
        let mut cat = Catalog::new();
        for i in 0..n {
            let mut stats = g.gen_table_stats();
            if with_dist == 1 && i % 2 == 0 {
                let pages = stats.pages as f64;
                stats.page_dist = Some(Distribution::bimodal(pages * 0.5, pages * 2.0, 0.5).unwrap());
            }
            cat.add_table(format!("R{i}"), stats);
        }
        let selectivity = Distribution::bimodal(0.01, 0.5, 0.25).unwrap();
        for t in cat.tables() {
            let exact = Fingerprint::new().u64(table_stats_fingerprint(&t.stats));
            prop_assert_eq!(cat.exact_prefix(t.id), exact);
            let mut bucketed = Fingerprint::new()
                .u64(t.stats.pages.ilog2() as u64)
                .u64(t.stats.rows.ilog2() as u64)
                .u64(t.stats.columns.len() as u64);
            for col in &t.stats.columns {
                bucketed = bucketed.u64(match col.index {
                    IndexKind::None => 0,
                    IndexKind::Clustered => 1,
                    IndexKind::Unclustered => 2,
                });
            }
            prop_assert_eq!(cat.bucketed_prefix(t.id), bucketed);

            let q = Query {
                tables: vec![
                    QueryTable::bare(t.id),
                    QueryTable::filtered(t.id, 1, selectivity.clone()),
                ],
                joins: vec![],
                required_order: None,
            };
            prop_assert_eq!(table_occurrence_fingerprint(&cat, &q, 0), exact.u64(0).finish());
            prop_assert_eq!(
                table_occurrence_fingerprint(&cat, &q, 1),
                exact.u64(1).u64(1).dist(&selectivity).finish()
            );
        }

        let copy = cat.clone();
        prop_assert_eq!(&copy, &cat);
        let (mut rebuilt, mut drifted) = (Catalog::new(), Catalog::new());
        for t in cat.tables() {
            prop_assert_eq!(copy.exact_prefix(t.id), cat.exact_prefix(t.id));
            prop_assert_eq!(copy.bucketed_prefix(t.id), cat.bucketed_prefix(t.id));
            rebuilt.add_table(t.name.clone(), t.stats.clone());
            let mut stats = t.stats.clone();
            stats.rows += (t.id.0 == 0) as u64;
            drifted.add_table(t.name.clone(), stats);
        }
        prop_assert_eq!(&rebuilt, &cat);
        prop_assert_ne!(&drifted, &cat);
    }
}

/// A one-table model: the scalar expectations read only their arguments,
/// so any bound query will do.
fn with_model(f: impl FnOnce(&lec_cost::CostModel<'_>)) {
    use lec_catalog::{Catalog, ColumnStats, TableStats};
    use lec_plan::{Query, QueryTable};

    let mut cat = Catalog::new();
    let t = cat.add_table(
        "R",
        TableStats::new(100, 1000, vec![ColumnStats::plain("x", 10)]),
    );
    let q = Query {
        tables: vec![QueryTable::bare(t)],
        joins: vec![],
        required_order: None,
    };
    f(&lec_cost::CostModel::new(&cat, &q));
}

/// A memory distribution of 1 to 32 buckets.
fn arb_memory() -> impl Strategy<Value = Distribution> {
    prop::collection::vec((2.0f64..1e5, 0.05f64..1.0), 1..33)
        .prop_map(|pairs| Distribution::from_pairs(pairs).expect("valid"))
}

proptest! {
    /// A scalar-size expected join cost is §3.4's "b evaluations of the
    /// cost formula", priced in place: the raw formula's expectation to
    /// the bit, and `b` counted evaluations on every call — a repeat is
    /// not memoized.
    #[test]
    fn a_scalar_join_expectation_is_b_formula_calls(
        method in 0usize..4,
        outer in 1.0f64..1e7,
        inner in 1.0f64..1e7,
        memory in arb_memory(),
    ) {
        let method = JoinMethod::ALL[method];
        let want = memory.expect(|m| formulas::raw_join_cost(method, outer, inner, m));
        let b = memory.len() as u64;
        with_model(|model| {
            for call in 1..=2 {
                let got = model.expected_join_cost_over(method, outer, inner, &memory);
                assert_eq!(got.to_bits(), want.to_bits(), "{method:?}, call {call}");
                assert_eq!(model.evals(), call * b, "{method:?}, call {call}");
            }
        });
    }

    /// The same for the scalar-size expected sort cost.
    #[test]
    fn a_scalar_sort_expectation_is_b_formula_calls(
        pages in 1.0f64..1e7,
        memory in arb_memory(),
    ) {
        let want = memory.expect(|m| formulas::sort_cost(pages, m));
        let b = memory.len() as u64;
        with_model(|model| {
            for call in 1..=2 {
                let got = model.expected_sort_cost_over(pages, &memory);
                assert_eq!(got.to_bits(), want.to_bits(), "call {call}");
                assert_eq!(model.evals(), call * b, "call {call}");
            }
        });
    }

    /// "The standard approach [is] the special case where there is only
    /// one bucket": a one-bucket expectation is the formula's own bits.
    #[test]
    fn a_one_bucket_expectation_is_the_raw_formula(
        method in 0usize..4,
        outer in 1.0f64..1e7,
        inner in 1.0f64..1e7,
        m in 2.0f64..1e5,
    ) {
        let method = JoinMethod::ALL[method];
        let point = Distribution::point(m);
        with_model(|model| {
            assert_eq!(
                model.expected_join_cost_over(method, outer, inner, &point).to_bits(),
                formulas::raw_join_cost(method, outer, inner, m).to_bits(),
                "{method:?}"
            );
            assert_eq!(
                model.expected_sort_cost_over(outer, &point).to_bits(),
                formulas::sort_cost(outer, m).to_bits()
            );
            assert_eq!(model.evals(), 2);
        });
    }
}
