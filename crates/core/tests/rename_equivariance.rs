//! Every DP mode — LSC, Algorithms A, B, C (static and dynamic), D and the
//! bushy extension — commutes with table renaming: optimizing a renamed
//! query returns the original plan relabeled, at the same cost bits.  The
//! plan cache serves cached plans by relabeling, so it relies on this; the
//! shape tie-breaks (`PlanArena::shape_cmp`) are what make it hold, and
//! queries with twin tables — where either tied plan is the same up to an
//! automorphism — are skipped, as the canonicalizer refuses them.

use lec_catalog::CatalogGenerator;
use lec_core::{AlgDConfig, Mode, Optimizer, PointEstimate};
use lec_cost::CostModel;
use lec_plan::{QueryProfile, Topology, WorkloadGenerator};
use lec_prob::MarkovChain;
use proptest::prelude::*;

const TOPOLOGIES: [Topology; 3] = [Topology::Chain, Topology::Star, Topology::Random];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_mode_commutes_with_renaming(
        seed in 0u64..1_000_000,
        n in 4usize..9,
        topology in 0usize..3,
        sel_buckets in 1usize..4,
        shuffle in prop::collection::vec(0usize..1_000, 8),
    ) {
        let mut tables = CatalogGenerator::new(seed);
        let catalog = tables.generate(n + 4);
        let ids = tables.pick_tables(&catalog, n);
        let profile = QueryProfile {
            topology: TOPOLOGIES[topology],
            sel_buckets,
            ..Default::default()
        };
        let query = WorkloadGenerator::new(seed ^ 0x5EED).gen_query(&catalog, &ids, &profile);
        let model = CostModel::new(&catalog, &query);
        let mut shapes: Vec<u64> = (0..n).map(|i| model.table_shape_fingerprint(i)).collect();
        shapes.sort_unstable();
        shapes.dedup();
        if shapes.len() < n {
            return Ok(());
        }
        // A Fisher-Yates permutation: table `i` becomes table `perm[i]`.
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, shuffle[i] % (i + 1));
        }
        let renamed = query.relabel_tables(&perm);
        let memory = lec_prob::presets::spread_family(500.0, 0.6, 4).unwrap();
        let chain = MarkovChain::sticky_uniform(memory.support().to_vec(), 0.6).unwrap();
        let optimizer = Optimizer::new(&catalog, memory);
        for mode in [
            Mode::Lsc(PointEstimate::Mean),
            Mode::AlgorithmA,
            Mode::AlgorithmB { c: 3 },
            Mode::AlgorithmC,
            Mode::AlgorithmCDynamic { chain },
            Mode::AlgorithmD { config: AlgDConfig::default() },
            Mode::Bushy,
        ] {
            let original = optimizer.optimize(&query, &mode).unwrap();
            let moved = optimizer.optimize(&renamed, &mode).unwrap();
            prop_assert_eq!(original.cost.to_bits(), moved.cost.to_bits(), "{:?}", mode);
            let relabeled = original.plan.relabel_tables(&perm);
            prop_assert!(
                relabeled == moved.plan,
                "{:?} on {:?}: {} relabels to {}, renamed query got {}",
                mode,
                perm,
                original.plan.compact(),
                relabeled.compact(),
                moved.plan.compact()
            );
        }
    }
}
