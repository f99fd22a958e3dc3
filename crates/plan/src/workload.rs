//! Workload generation: the "realistic queries" of the paper's promised
//! prototype (§4), synthesized.
//!
//! Queries are SPJ blocks over a generated catalog with one of four join
//! topologies.  Selectivities are calibrated from the base-table sizes so
//! that join results stay within a plausible band (pure log-uniform
//! selectivities would make every result either empty or astronomically
//! large, which exercises nothing).  Each selectivity can optionally be
//! *uncertain*: a log-spaced distribution centred on the calibrated value,
//! matching §3.6's treatment of selectivity as a random variable.

use crate::query::{ColumnRef, JoinPredicate, Query, QueryTable};
use lec_catalog::{Catalog, IndexKind, TableId};
use lec_prob::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Join-graph shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `R0 – R1 – R2 – …` (each joins the next).
    Chain,
    /// `R0` is the hub; every other table joins it.
    Star,
    /// Every pair of tables is joined.
    Clique,
    /// A random connected graph (spanning tree plus random extra edges).
    Random,
}

/// Knobs for query generation.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Join topology.
    pub topology: Topology,
    /// Number of buckets for each uncertain join selectivity (1 = certain).
    pub sel_buckets: usize,
    /// Multiplicative half-width of the selectivity uncertainty band;
    /// each uncertain selectivity ranges over `[σ/f, σ·f]`.
    pub sel_uncertainty_factor: f64,
    /// Probability that a table carries a local filter.
    pub p_filter: f64,
    /// Probability that the query requires sorted output on some join column.
    pub p_required_order: f64,
    /// Result-size target band as a fraction of the smaller input:
    /// join selectivities are drawn so `a·b·σ ∈ [lo·min(a,b), hi·min(a,b)]`.
    pub result_band: (f64, f64),
}

impl Default for QueryProfile {
    fn default() -> Self {
        QueryProfile {
            topology: Topology::Chain,
            sel_buckets: 1,
            sel_uncertainty_factor: 4.0,
            p_filter: 0.3,
            p_required_order: 0.5,
            result_band: (0.01, 1.5),
        }
    }
}

/// Seeded query generator.
#[derive(Debug)]
pub struct WorkloadGenerator {
    rng: StdRng,
}

impl WorkloadGenerator {
    /// Create a generator with a fixed seed (generation is deterministic).
    pub fn new(seed: u64) -> Self {
        WorkloadGenerator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generate one query over the given tables.
    ///
    /// `tables` are catalog ids; the query's local indices follow their
    /// order here.  Requires `tables.len() >= 2`.
    pub fn gen_query(
        &mut self,
        catalog: &Catalog,
        tables: &[TableId],
        profile: &QueryProfile,
    ) -> Query {
        assert!(tables.len() >= 2, "need at least two tables to join");
        let n = tables.len();

        let mut query_tables: Vec<QueryTable> = Vec::with_capacity(n);
        for &id in tables {
            let t = catalog.table(id);
            let filter = if self.rng.gen::<f64>() < profile.p_filter {
                // Prefer an indexed column so index scans become relevant.
                let col = t
                    .stats
                    .columns
                    .iter()
                    .position(|c| c.index != IndexKind::None)
                    .unwrap_or(0);
                let sel = 10f64.powf(self.rng.gen_range(-2.0..0.0)); // 1%..100%
                Some((col, Distribution::point(sel)))
            } else {
                None
            };
            query_tables.push(match filter {
                Some((col, sel)) => QueryTable::filtered(id, col, sel),
                None => QueryTable::bare(id),
            });
        }

        let edges = self.gen_edges(n, profile.topology);
        let joins = edges
            .into_iter()
            .map(|(a, b)| {
                let pa = self.effective_pages(catalog, &query_tables[a]);
                let pb = self.effective_pages(catalog, &query_tables[b]);
                let sel = self.calibrated_selectivity(pa, pb, profile);
                let ca = self
                    .rng
                    .gen_range(0..catalog.table(tables[a]).stats.columns.len());
                let cb = self
                    .rng
                    .gen_range(0..catalog.table(tables[b]).stats.columns.len());
                JoinPredicate {
                    left: ColumnRef::new(a, ca),
                    right: ColumnRef::new(b, cb),
                    selectivity: sel,
                }
            })
            .collect::<Vec<_>>();

        let required_order = if self.rng.gen::<f64>() < profile.p_required_order {
            let j = &joins[self.rng.gen_range(0..joins.len())];
            Some(if self.rng.gen::<bool>() {
                j.left
            } else {
                j.right
            })
        } else {
            None
        };

        Query {
            tables: query_tables,
            joins,
            required_order,
        }
    }

    /// Expected post-filter page count of a query table (mean over the
    /// filter's selectivity distribution).
    fn effective_pages(&self, catalog: &Catalog, qt: &QueryTable) -> f64 {
        let base = catalog.table(qt.table).stats.pages as f64;
        match &qt.filter {
            Some(f) => (base * f.selectivity.mean()).max(1.0),
            None => base,
        }
    }

    fn gen_edges(&mut self, n: usize, topology: Topology) -> Vec<(usize, usize)> {
        match topology {
            Topology::Chain => (0..n - 1).map(|i| (i, i + 1)).collect(),
            Topology::Star => (1..n).map(|i| (0, i)).collect(),
            Topology::Clique => {
                let mut e = Vec::new();
                for i in 0..n {
                    for j in i + 1..n {
                        e.push((i, j));
                    }
                }
                e
            }
            Topology::Random => {
                // Random spanning tree (each node attaches to a random
                // earlier node), plus ~n/2 random extra edges.
                let mut e: Vec<(usize, usize)> =
                    (1..n).map(|i| (self.rng.gen_range(0..i), i)).collect();
                let extras = n / 2;
                for _ in 0..extras {
                    let a = self.rng.gen_range(0..n);
                    let b = self.rng.gen_range(0..n);
                    if a != b {
                        let edge = (a.min(b), a.max(b));
                        if !e.contains(&edge) {
                            e.push(edge);
                        }
                    }
                }
                e
            }
        }
    }

    /// Draw a selectivity such that `a·b·σ` lands in the profile's result
    /// band, optionally smeared into an uncertainty distribution.
    fn calibrated_selectivity(
        &mut self,
        a_pages: f64,
        b_pages: f64,
        profile: &QueryProfile,
    ) -> Distribution {
        let small = a_pages.min(b_pages);
        let (lo, hi) = profile.result_band;
        let target = small * 10f64.powf(self.rng.gen_range(lo.log10()..=hi.log10()));
        let sigma = (target / (a_pages * b_pages)).min(1.0);
        if profile.sel_buckets <= 1 {
            return Distribution::point(sigma);
        }
        let f = profile.sel_uncertainty_factor.max(1.0 + 1e-9);
        let lo_s = (sigma / f).max(1e-30);
        let hi_s = (sigma * f).min(1.0);
        lec_prob::presets::selectivity_band(lo_s, hi_s, profile.sel_buckets)
            .expect("calibrated band is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lec_catalog::CatalogGenerator;

    fn setup(n: usize, seed: u64) -> (Catalog, Vec<TableId>) {
        let mut g = CatalogGenerator::new(seed);
        let cat = g.generate(n + 2);
        let ids = g.pick_tables(&cat, n);
        (cat, ids)
    }

    /// Does any join or filter selectivity carry genuine uncertainty?
    fn uncertain(q: &Query) -> bool {
        q.joins.iter().any(|p| !p.selectivity.is_point())
            || q.tables
                .iter()
                .any(|t| t.filter.as_ref().is_some_and(|f| !f.selectivity.is_point()))
    }

    #[test]
    fn generated_queries_validate() {
        for topology in [
            Topology::Chain,
            Topology::Star,
            Topology::Clique,
            Topology::Random,
        ] {
            for seed in 0..10u64 {
                let (cat, ids) = setup(5, seed);
                let mut wg = WorkloadGenerator::new(seed);
                let profile = QueryProfile {
                    topology,
                    ..Default::default()
                };
                let q = wg.gen_query(&cat, &ids, &profile);
                assert_eq!(q.validate(&cat), Ok(()), "{topology:?} seed {seed}");
                assert_eq!(q.n_tables(), 5);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (cat, ids) = setup(4, 9);
        let q1 = WorkloadGenerator::new(77).gen_query(&cat, &ids, &Default::default());
        let q2 = WorkloadGenerator::new(77).gen_query(&cat, &ids, &Default::default());
        assert_eq!(q1, q2);
    }

    #[test]
    fn topology_edge_counts() {
        let (cat, ids) = setup(6, 1);
        let mut wg = WorkloadGenerator::new(5);
        let mut q = |t| {
            let profile = QueryProfile {
                topology: t,
                p_required_order: 0.0,
                ..Default::default()
            };
            wg.gen_query(&cat, &ids, &profile).joins.len()
        };
        assert_eq!(q(Topology::Chain), 5);
        assert_eq!(q(Topology::Star), 5);
        assert_eq!(q(Topology::Clique), 15);
        assert!(q(Topology::Random) >= 5);
    }

    #[test]
    fn uncertain_selectivities_when_requested() {
        let (cat, ids) = setup(3, 2);
        let mut wg = WorkloadGenerator::new(8);
        let profile = QueryProfile {
            sel_buckets: 5,
            ..Default::default()
        };
        let q = wg.gen_query(&cat, &ids, &profile);
        assert!(uncertain(&q));
        for j in &q.joins {
            assert!(j.selectivity.len() <= 5);
            assert!(j.selectivity.max_value() <= 1.0);
            assert!(j.selectivity.min_value() > 0.0);
        }
    }

    #[test]
    fn point_selectivities_by_default() {
        let (cat, ids) = setup(3, 2);
        let mut wg = WorkloadGenerator::new(8);
        let profile = QueryProfile {
            p_filter: 0.0,
            ..Default::default()
        };
        let q = wg.gen_query(&cat, &ids, &profile);
        assert!(!uncertain(&q));
    }

    #[test]
    fn calibrated_result_sizes_are_sane() {
        // a·b·σ should land within [0.01, 1.5]·min(a,b) by construction.
        let (cat, ids) = setup(4, 3);
        let mut wg = WorkloadGenerator::new(4);
        let profile = QueryProfile {
            p_filter: 0.0,
            ..Default::default()
        };
        let q = wg.gen_query(&cat, &ids, &profile);
        for j in &q.joins {
            let a = cat.table(q.tables[j.left.table].table).stats.pages as f64;
            let b = cat.table(q.tables[j.right.table].table).stats.pages as f64;
            let result = a * b * j.selectivity.mean();
            let small = a.min(b);
            assert!(
                result <= small * 1.5 + 1.0 && result >= small * 0.01 * 0.5,
                "result {result} outside band for min {small}"
            );
        }
    }
}
