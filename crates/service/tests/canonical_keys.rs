//! Canonical-key properties: isomorphic queries under table renaming hash
//! equal (and serve relabel-identical plans); distinct shapes and distinct
//! memory distributions never collide on the 7-table fixtures.

mod common;

use lec_core::{fixtures, Mode, Optimizer};
use lec_plan::{Query, QueryProfile, Topology, WorkloadGenerator};
use lec_service::{canonical_form, CacheDecision, ConcurrentPlanServer, RefusalReason};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn workload(seed: u64, n: usize, topology: Topology) -> (lec_catalog::Catalog, Query) {
    let mut g = lec_catalog::CatalogGenerator::new(seed);
    let cat = g.generate(n + 1);
    let ids = g.pick_tables(&cat, n);
    let mut wg = WorkloadGenerator::new(seed ^ 0xC0FFEE);
    let q = wg.gen_query(
        &cat,
        &ids,
        &QueryProfile {
            topology,
            ..Default::default()
        },
    );
    (cat, q)
}

fn random_perm(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// A query built to leave colour refinement undecided: 3–7 tables drawn
/// from two log₂ size buckets with a row drift of 0–2 inside the bucket
/// (drift 0 twice is an exact twin pair, otherwise same bucket and
/// different exact statistics), every join on column 0, selectivities from
/// two values of one log₂ bucket and one of another, over a cycle, star,
/// chain or clique — the topologies with symmetric positions.
fn near_symmetric(rng: &mut StdRng) -> (lec_catalog::Catalog, Query) {
    use lec_catalog::{Catalog, ColumnStats, TableStats};
    use lec_plan::{ColumnRef, JoinPredicate, QueryTable};
    let n = rng.gen_range(3..=7usize);
    let mut cat = Catalog::new();
    let tables = (0..n)
        .map(|i| {
            let (pages, rows) = [(1000, 50_000), (7000, 300_000)][rng.gen_range(0..2usize)];
            let stats = TableStats::new(
                pages,
                rows + rng.gen_range(0..3u64),
                vec![ColumnStats::plain("a", 100)],
            );
            QueryTable::bare(cat.add_table(format!("S{i}"), stats))
        })
        .collect();
    let pairs: Vec<(usize, usize)> = match rng.gen_range(0..4usize) {
        0 => (0..n).map(|i| (i, (i + 1) % n)).collect(),
        1 => (1..n).map(|i| (0, i)).collect(),
        2 => (1..n).map(|i| (i - 1, i)).collect(),
        _ => (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect(),
    };
    let joins = pairs
        .into_iter()
        .map(|(u, v)| {
            let sel = [1e-5, 1.1e-5, 1e-4][rng.gen_range(0..3usize)];
            JoinPredicate::exact(ColumnRef::new(u, 0), ColumnRef::new(v, 0), sel)
        })
        .collect();
    let q = Query {
        tables,
        joins,
        required_order: None,
    };
    (cat, q)
}

/// Any two table-relabelings of one query either both refuse, for the same
/// reason, or agree byte for byte — also where refinement is not discrete
/// and the labeling comes out of the enumeration.
#[test]
fn relabelings_agree_or_refuse_alike_on_undecided_colourings() {
    let mut rng = StdRng::seed_from_u64(0x5EED_CA11);
    let (mut labeled, mut twins) = (0, 0);
    for case in 0..400 {
        let (cat, q) = near_symmetric(&mut rng);
        let map = random_perm(&mut rng, q.n_tables());
        let base = canonical_form(&cat, &q);
        let other = canonical_form(&cat, &q.relabel_tables(&map));
        match (&base, &other) {
            (Ok(base), Ok(other)) => {
                assert_eq!(base.exact, other.exact, "case {case}");
                for (i, &m) in map.iter().enumerate() {
                    assert_eq!(base.perm[i], other.perm[m], "case {case}");
                }
                labeled += 1;
            }
            _ => {
                assert_eq!(
                    base, other,
                    "case {case}: refusals must not depend on labels"
                );
                twins += (base == Err(RefusalReason::TwinTables)) as usize;
            }
        }
    }
    assert!(
        labeled >= 50 && twins >= 50,
        "the generator must reach both outcomes: {labeled} labeled, {twins} twin refusals"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Renaming the tables of a chain/star/random query never changes its
    /// canonical keys, and the renamed request is answered from the cache
    /// with exactly the plan a fresh optimization would produce.
    #[test]
    fn renamed_queries_hash_equal_and_serve_identically(
        seed in 0u64..3000,
        n in 3usize..7,
        topo_pick in 0usize..3,
        center in 80.0f64..2000.0,
    ) {
        let topology = [Topology::Chain, Topology::Star, Topology::Random][topo_pick];
        let (cat, q) = workload(seed, n, topology);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
        let perm = random_perm(&mut rng, n);
        let renamed = q.relabel_tables(&perm);

        let base = canonical_form(&cat, &q).expect("canonicalizable");
        let other = canonical_form(&cat, &renamed).expect("canonicalizable");
        prop_assert_eq!(&base.exact, &other.exact, "exact keys must match");

        // Serve the original (recompute), then the renamed copy (served
        // from cache): the served answer must be byte-identical to a
        // fresh optimization of the renamed request.
        let memory = lec_prob::presets::spread_family(center, 0.5, 4).unwrap();
        let server = ConcurrentPlanServer::new(&cat, memory.clone());
        let first = server.serve(&q, &Mode::AlgorithmC).unwrap();
        prop_assert_eq!(first.decision, CacheDecision::Recomputed);
        let served = server.serve(&renamed, &Mode::AlgorithmC).unwrap();
        prop_assert_eq!(served.decision, CacheDecision::Served);
        let fresh = Optimizer::new(&cat, memory)
            .optimize(&renamed, &Mode::AlgorithmC)
            .unwrap();
        prop_assert_eq!(&served.plan, &fresh.plan, "served plan must relabel onto the fresh plan");
        prop_assert_eq!(served.cost.to_bits(), fresh.cost.to_bits(), "cost bits must match");
    }

    /// Canonical keys are *discriminating*: materially different queries
    /// (an edge moved, a selectivity changed, an order requirement added)
    /// never share an exact key.
    #[test]
    fn perturbed_queries_never_collide(
        seed in 0u64..3000,
        n in 4usize..7,
    ) {
        let (cat, q) = workload(seed, n, Topology::Chain);
        let base = canonical_form(&cat, &q).expect("canonicalizable");

        // Distinct selectivity on one join.
        let mut sel = q.clone();
        sel.joins[0].selectivity = lec_prob::Distribution::point(
            (sel.joins[0].selectivity.mean() * 3.7).min(1.0),
        );
        let sel_form = canonical_form(&cat, &sel).expect("canonicalizable");
        prop_assert_ne!(&base.exact, &sel_form.exact);

        // Different required order.
        let mut ord = q.clone();
        ord.required_order = match ord.required_order {
            None => Some(ord.joins[0].left),
            Some(_) => None,
        };
        let ord_form = canonical_form(&cat, &ord).expect("canonicalizable");
        prop_assert_ne!(&base.exact, &ord_form.exact);
    }
}

/// A 7-table query over one catalog of strictly distinct table sizes,
/// shaped as a chain or a star (distinct sizes keep every table
/// distinguishable, so both shapes canonicalize).
fn seven_table(topology: Topology) -> (lec_catalog::Catalog, Query) {
    use lec_catalog::{Catalog, ColumnStats, TableStats};
    use lec_plan::{ColumnRef, JoinPredicate, QueryTable};
    let mut cat = Catalog::new();
    let ids: Vec<_> = (0..7)
        .map(|i| {
            cat.add_table(
                format!("T{i}"),
                TableStats::new(
                    10_000 * (i as u64 + 1),
                    500_000 * (i as u64 + 1),
                    vec![ColumnStats::plain("a", 1000), ColumnStats::plain("b", 1000)],
                ),
            )
        })
        .collect();
    let joins = match topology {
        Topology::Chain => (0..6)
            .map(|i| JoinPredicate::exact(ColumnRef::new(i, 1), ColumnRef::new(i + 1, 0), 1e-6))
            .collect(),
        _ => (1..7)
            .map(|i| JoinPredicate::exact(ColumnRef::new(0, 1), ColumnRef::new(i, 0), 1e-6))
            .collect(),
    };
    let q = Query {
        tables: ids.into_iter().map(QueryTable::bare).collect(),
        joins,
        required_order: None,
    };
    (cat, q)
}

#[test]
fn distinct_shapes_never_collide_on_the_seven_table_fixtures() {
    // Chain and star over the *same* seven tables: identical per-table
    // statistics, different topology — no key component may collide.
    let (chain_cat, chain) = seven_table(Topology::Chain);
    let (_, star) = seven_table(Topology::Star);
    let chain_form = canonical_form(&chain_cat, &chain).expect("chain canonicalizes");
    let star_form = canonical_form(&chain_cat, &star).expect("star canonicalizes");
    assert_ne!(chain_form.exact, star_form.exact, "exact keys must differ");

    // The repo's scaling fixtures ride along: the 7-chain canonicalizes
    // (twin-sized tables sit at non-interchangeable chain positions) and
    // differs from the 6-chain; the 7-star has genuinely interchangeable
    // twin spokes and is therefore refused outright.
    let (c7_cat, c7) = fixtures::scaling_chain(7);
    let (c6_cat, c6) = fixtures::scaling_chain(6);
    let c7_form = canonical_form(&c7_cat, &c7).expect("scaling chain canonicalizes");
    let c6_form = canonical_form(&c6_cat, &c6).expect("canonicalizable");
    assert_ne!(c6_form.exact, c7_form.exact);
    let (s7_cat, s7) = fixtures::scaling_star(7);
    assert_eq!(
        canonical_form(&s7_cat, &s7),
        Err(RefusalReason::TwinTables),
        "twin spokes make the scaling star automorphic, hence uncacheable"
    );
}

#[test]
fn distinct_memory_distributions_never_share_cache_entries() {
    // Memory enters the cache key through its fingerprint: the same
    // 7-table query under two different beliefs must recompute twice.
    let (cat, q) = fixtures::scaling_chain(7);
    let m1 = lec_prob::presets::spread_family(400.0, 0.6, 5).unwrap();
    let m2 = lec_prob::presets::spread_family(400.0, 0.6, 6).unwrap();
    assert_ne!(
        lec_cost::dist_fingerprint(&m1),
        lec_cost::dist_fingerprint(&m2)
    );
    let s1 = ConcurrentPlanServer::new(&cat, m1);
    assert_eq!(
        s1.serve(&q, &Mode::AlgorithmC).unwrap().decision,
        CacheDecision::Recomputed
    );
    assert_eq!(
        s1.serve(&q, &Mode::AlgorithmC).unwrap().decision,
        CacheDecision::Served
    );
    let s2 = ConcurrentPlanServer::new(
        &cat,
        lec_prob::presets::spread_family(400.0, 0.6, 6).unwrap(),
    );
    assert_eq!(
        s2.serve(&q, &Mode::AlgorithmC).unwrap().decision,
        CacheDecision::Recomputed,
        "a different memory belief must not reuse the other server's shape"
    );
}

/// A cycle over `n` generated tables: the generator's chain plus one
/// closing edge from the last table back to the first.
fn cycle(seed: u64, n: usize) -> (lec_catalog::Catalog, Query) {
    use lec_plan::{ColumnRef, JoinPredicate};
    let (cat, mut q) = workload(seed, n, Topology::Chain);
    q.joins.push(JoinPredicate::exact(
        ColumnRef::new(n - 1, 0),
        ColumnRef::new(0, 0),
        1e-4,
    ));
    (cat, q)
}

/// One random graph whose selectivities are three-bucket distributions.
fn uncertain_random(seed: u64, n: usize) -> (lec_catalog::Catalog, Query) {
    let mut g = lec_catalog::CatalogGenerator::new(seed);
    let cat = g.generate(n + 1);
    let ids = g.pick_tables(&cat, n);
    let mut wg = WorkloadGenerator::new(seed ^ 0xC0FFEE);
    let q = wg.gen_query(
        &cat,
        &ids,
        &QueryProfile {
            topology: Topology::Random,
            sel_buckets: 3,
            ..Default::default()
        },
    );
    (cat, q)
}

/// The exact key's words and the labeling behind them, as literals
/// recorded at the commit that removed the weak key; the words are
/// compared through an FNV-1a digest of them, which is this test's own
/// and not the cache's.  The words pick the cache stripe an entry lands
/// in, and the frozen benchmark's `mixed_churn` state check accepts a hit
/// share of 0.72–0.78 only, so a canonicalizer change that moves them
/// fails here in seconds rather than 25 s into a benchmark run.  The
/// stripe function itself, the fold of these words, is pinned in
/// `cache.rs`' `fingerprint_and_stripe_are_pinned`.
#[test]
fn exact_key_bytes_are_pinned() {
    fn pinned(name: &str, (cat, q): (lec_catalog::Catalog, Query), key: u64, perm: &[usize]) {
        let form = canonical_form(&cat, &q).expect(name);
        let got = form
            .exact
            .iter()
            .fold(lec_cost::Fingerprint::new(), |fp, &w| fp.u64(w))
            .finish();
        assert_eq!(
            (got, form.perm.as_slice()),
            (key, perm),
            "{name}: exact key bytes moved: ledger `mixed_churn` hit share is tuned against them"
        );
    }
    let chain = workload(7, 5, Topology::Chain);
    pinned("5-chain", chain, 0xA1D2D6380D837589, &[2, 0, 1, 4, 3]);
    let star = workload(11, 6, Topology::Star);
    pinned("6-star", star, 0x3DDA03B5066E9F72, &[5, 2, 1, 0, 4, 3]);
    let cycle = cycle(13, 6);
    pinned("6-cycle", cycle, 0xE1C1562F8C61E649, &[1, 3, 2, 4, 0, 5]);
    let random = uncertain_random(17, 6);
    let name = "6-random, sel_buckets = 3";
    pinned(name, random, 0x2D1569D40BE400E5, &[2, 3, 0, 1, 4, 5]);
    // Labeled by the enumeration path, not by a discrete colouring.
    let near_twins = common::near_twin_cycle();
    pinned(
        "near-twin 5-cycle",
        near_twins,
        0xB4F134AFD3477258,
        &[0, 2, 1, 4, 3],
    );
}
