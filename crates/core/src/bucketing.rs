//! Bucketing strategies for the parameter space (§3.7).
//!
//! "A large number of buckets gives a closer approximation to the true
//! probability distribution ... a smaller number of buckets makes the
//! optimization process less expensive."  The paper sketches three ideas we
//! implement: plain equal-width partitioning, equi-depth partitioning, and
//! *level-set aware* bucketing that places bucket boundaries on the cost
//! function's discontinuities ("if we bucket the joint distribution by
//! using the level sets ... we can minimize the computation involved").

use lec_cost::CostModel;
use lec_prob::{Distribution, Rebucket};

/// How to reduce a fine-grained "true" memory distribution to `b` buckets
/// before handing it to an LEC algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketStrategy {
    /// Equal-width intervals over the support range.
    EqualWidth,
    /// Equal-mass (quantile) intervals.
    EqualDepth,
    /// Intervals bounded by the query's cost-cliff positions (level sets),
    /// merged down to the budget by smallest mass first.
    LevelSet,
}

/// All memory values at which *some* first-level join of the query changes
/// cost: the union of every connected base-table pair's cliff positions
/// under every join method, plus the sort cliffs of the estimated final
/// result.  This is the level-set information available before any plan is
/// chosen.
pub fn query_memory_breakpoints(model: &CostModel<'_>) -> Vec<f64> {
    use lec_cost::formulas;
    let query = model.query();
    let mut bps: Vec<f64> = Vec::new();
    for p in &query.joins {
        let (l, r) = p.tables();
        let a = model.base_pages(l);
        let b = model.base_pages(r);
        bps.extend(formulas::sm_breakpoints(a, b));
        bps.extend(formulas::grace_breakpoints(a, b));
        // Block nested-loop's cliffs are dense; level sets skip them.
        bps.extend(formulas::nl_breakpoints(a, b));
    }
    if query.required_order.is_some() {
        // Estimate the final result size as the full product of base sizes
        // and selectivities (order-independent).
        let mut pages = 1.0f64;
        for idx in 0..query.n_tables() {
            pages *= model.base_pages(idx);
        }
        for p in &query.joins {
            pages *= p.selectivity.mean();
        }
        bps.extend(formulas::sort_breakpoints(pages.max(1.0)));
    }
    bps.sort_by(f64::total_cmp);
    bps.dedup_by(|a, b| (*a - *b).abs() < 1e-9 * a.abs().max(1.0));
    bps
}

/// Reduce `truth` to at most `b` buckets with the given strategy.
///
/// Every strategy preserves total mass and the mean exactly (bucket
/// representatives are conditional means); they differ in where boundaries
/// fall relative to cost cliffs.
pub fn bucketize(
    truth: &Distribution,
    b: usize,
    strategy: BucketStrategy,
    breakpoints: &[f64],
) -> Distribution {
    assert!(b >= 1, "need at least one bucket");
    if truth.len() <= b {
        return truth.clone();
    }
    match strategy {
        BucketStrategy::EqualWidth => truth.rebucket(b, Rebucket::EqualWidth).expect("b >= 1"),
        BucketStrategy::EqualDepth => truth.rebucket(b, Rebucket::EqualDepth).expect("b >= 1"),
        BucketStrategy::LevelSet => level_set_bucketize(truth, b, breakpoints),
    }
}

/// Buckets bounded by breakpoints, merged down to the budget.
fn level_set_bucketize(truth: &Distribution, b: usize, breakpoints: &[f64]) -> Distribution {
    // Partition the support at the breakpoints (half-open intervals
    // (lo, hi]; a bucket's members are values ≤ the breakpoint, matching
    // the formulas' `M ≤ √L` style conditions).
    let cuts: Vec<f64> = breakpoints
        .iter()
        .copied()
        .filter(|&c| c > truth.min_value() && c < truth.max_value())
        .collect();
    // Interval index for each support value.
    let mut intervals: Vec<(f64, f64)> = Vec::new(); // (mass, weighted sum)
    intervals.resize(cuts.len() + 1, (0.0, 0.0));
    for (v, p) in truth.iter() {
        let idx = cuts.partition_point(|&c| c < v);
        intervals[idx].0 += p;
        intervals[idx].1 += v * p;
    }
    let mut cells: Vec<(f64, f64)> = intervals.into_iter().filter(|(m, _)| *m > 0.0).collect();
    // Merge adjacent smallest-mass cells until within budget.
    while cells.len() > b {
        let mut best_i = 0;
        let mut best_mass = f64::INFINITY;
        for i in 0..cells.len() - 1 {
            let mass = cells[i].0 + cells[i + 1].0;
            if mass < best_mass {
                best_mass = mass;
                best_i = i;
            }
        }
        let (m2, w2) = cells.remove(best_i + 1);
        cells[best_i].0 += m2;
        cells[best_i].1 += w2;
    }
    Distribution::from_pairs(cells.into_iter().map(|(m, w)| (w / m, m))).expect("non-empty cells")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::example_1_1;

    fn truth() -> Distribution {
        // Fine-grained environment over 200..3000 pages.
        lec_prob::presets::uniform_grid(200.0, 3000.0, 57).unwrap()
    }

    #[test]
    fn all_strategies_preserve_mass_and_mean() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let bps = query_memory_breakpoints(&model);
        let t = truth();
        for strategy in [
            BucketStrategy::EqualWidth,
            BucketStrategy::EqualDepth,
            BucketStrategy::LevelSet,
        ] {
            for b in [1, 2, 3, 5, 10] {
                let d = bucketize(&t, b, strategy, &bps);
                assert!(d.len() <= b, "{strategy:?} b={b}: got {}", d.len());
                let mass: f64 = d.probs().iter().sum();
                assert!((mass - 1.0).abs() < 1e-9);
                assert!(
                    (d.mean() - t.mean()).abs() < 1e-6,
                    "{strategy:?} b={b}: mean drift"
                );
            }
        }
    }

    #[test]
    fn query_breakpoints_include_the_papers_cliffs() {
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let bps = query_memory_breakpoints(&model);
        // √1e6 = 1000 (SM), √4e5 ≈ 632.46 (Grace), 4e5+2 (NL), 3000 (sort).
        for expected in [1000.0, 400_000f64.sqrt(), 400_002.0, 3000.0] {
            assert!(
                bps.iter().any(|&x| (x - expected).abs() < 1e-6),
                "missing breakpoint {expected}"
            );
        }
    }

    #[test]
    fn level_set_boundaries_respect_cliffs() {
        // With budget 2 and one dominant cliff at 1000, the level-set
        // buckets must not mix mass from both sides of 1000.
        let (cat, q) = example_1_1();
        let model = CostModel::new(&cat, &q);
        let bps = query_memory_breakpoints(&model);
        let t = truth();
        let d = bucketize(&t, 4, BucketStrategy::LevelSet, &bps);
        // Each representative sits inside a single cost regime of SM:
        // check that no representative is within one grid step of 1000
        // while representing mass from both sides (indirect check: the
        // set of representatives must straddle the 1000 cliff).
        assert!(d.support().iter().any(|&v| v <= 1000.0));
        assert!(d.support().iter().any(|&v| v > 1000.0));
    }

    #[test]
    fn one_bucket_collapses_to_the_mean() {
        let t = truth();
        for strategy in [
            BucketStrategy::EqualWidth,
            BucketStrategy::EqualDepth,
            BucketStrategy::LevelSet,
        ] {
            let d = bucketize(&t, 1, strategy, &[1000.0]);
            assert!(d.is_point());
            assert!((d.mean() - t.mean()).abs() < 1e-9);
        }
    }

    #[test]
    fn already_coarse_distribution_is_untouched() {
        let d = Distribution::bimodal(700.0, 2000.0, 0.8).unwrap();
        let out = bucketize(&d, 5, BucketStrategy::LevelSet, &[1000.0]);
        assert_eq!(out, d);
    }
}
