//! Property tests for the plan crate: set algebra, subset enumeration,
//! equivalence classes, and workload generation.

use lec_catalog::CatalogGenerator;
use lec_plan::{
    ColumnEquivalences, ColumnRef, QueryProfile, TableSet, Topology, WorkloadGenerator,
};
use proptest::prelude::*;

fn arb_indices() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..32, 0..10)
}

proptest! {
    #[test]
    fn tableset_algebra_laws(a in arb_indices(), b in arb_indices()) {
        let sa = TableSet::from_indices(a.iter().copied());
        let sb = TableSet::from_indices(b.iter().copied());
        // Union/intersection identities.
        prop_assert_eq!(sa.union(sb), sb.union(sa));
        prop_assert_eq!(sa.intersect(sb), sb.intersect(sa));
        prop_assert_eq!(sa.intersect(sb).intersect(sa), sa.intersect(sb));
        prop_assert_eq!(sa.intersect(sa.union(sb)), sa);
        // Membership agrees with construction.
        for i in 0..32 {
            prop_assert_eq!(sa.contains(i), a.contains(&i));
        }
        // len is cardinality of the deduplicated index set.
        let mut dedup = a.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(sa.len(), dedup.len());
        // with/without round trip.
        for &i in &a {
            prop_assert_eq!(sa.without(i).with(i), sa);
            prop_assert!(!sa.without(i).contains(i));
        }
    }

    #[test]
    fn subsets_partition_by_cardinality(n in 0usize..10) {
        let mut total = 0usize;
        for k in 0..=n {
            let subs = TableSet::subsets_of_size(n, k);
            total += subs.len();
            for s in &subs {
                prop_assert_eq!(s.len(), k);
            }
        }
        prop_assert_eq!(total, 1 << n);
    }

    #[test]
    fn iteration_round_trips(a in arb_indices()) {
        let s = TableSet::from_indices(a.iter().copied());
        let back = TableSet::from_indices(s.iter());
        prop_assert_eq!(s, back);
        // Iteration is strictly increasing.
        let v: Vec<usize> = s.iter().collect();
        for w in v.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// Generated workloads always validate against their catalog, whatever
    /// the knobs.
    #[test]
    fn workloads_always_validate(
        seed in 0u64..10_000,
        n in 2usize..7,
        topo_idx in 0usize..4,
        sel_buckets in 1usize..6,
        p_filter in 0.0f64..1.0,
        p_order in 0.0f64..1.0,
    ) {
        let topology = [Topology::Chain, Topology::Star, Topology::Clique, Topology::Random][topo_idx];
        let mut g = CatalogGenerator::new(seed);
        let cat = g.generate(n + 1);
        let ids = g.pick_tables(&cat, n);
        let mut wg = WorkloadGenerator::new(seed ^ 0xF00D);
        let profile = QueryProfile {
            topology,
            sel_buckets,
            p_filter,
            p_required_order: p_order,
            ..Default::default()
        };
        let q = wg.gen_query(&cat, &ids, &profile);
        prop_assert_eq!(q.validate(&cat), Ok(()));
        // Selectivities stay in (0, 1].
        for j in &q.joins {
            prop_assert!(j.selectivity.min_value() > 0.0);
            prop_assert!(j.selectivity.max_value() <= 1.0 + 1e-12);
        }
    }

    /// Column equivalence is an equivalence relation: reflexive, symmetric,
    /// transitive — over the classes induced by random chain queries.
    #[test]
    fn equivalences_are_an_equivalence_relation(seed in 0u64..10_000, n in 2usize..6) {
        let mut g = CatalogGenerator::new(seed);
        let cat = g.generate(n + 1);
        let ids = g.pick_tables(&cat, n);
        let mut wg = WorkloadGenerator::new(seed + 9);
        let q = wg.gen_query(&cat, &ids, &QueryProfile { topology: Topology::Random, ..Default::default() });
        let eq = ColumnEquivalences::for_query(&q);
        let cols: Vec<ColumnRef> = q
            .joins
            .iter()
            .flat_map(|p| [p.left, p.right])
            .collect();
        for &a in &cols {
            prop_assert!(eq.same_class(a, a));
            for &b in &cols {
                prop_assert_eq!(eq.same_class(a, b), eq.same_class(b, a));
                for &c in &cols {
                    if eq.same_class(a, b) && eq.same_class(b, c) {
                        prop_assert!(eq.same_class(a, c));
                    }
                }
            }
        }
        // Canonical representatives are idempotent.
        for &a in &cols {
            prop_assert_eq!(eq.canonical(eq.canonical(a)), eq.canonical(a));
        }
    }
}
